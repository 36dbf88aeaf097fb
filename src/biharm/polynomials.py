"""Exact polynomial arithmetic.

Two small families of objects, both over exact rational coefficients:

* bivariate polynomials on the plane (``Polynomial2D``) together with the
  harmonic subfamily (``HarmonicPolynomial``, ``harmonic_basis``) used as
  test functions for compatibility residuals, and

* remainders ``c0 + c1*t`` of the boundary symbols of the biharmonic
  Neumann problem modulo ``(t - i)**2`` (``SymbolRemainder``), with
  Gaussian-rational coefficients read off a symbol's exact value p(i) and
  slope p'(i); two remainders are linearly dependent exactly when the
  2x2 determinant of their coefficients vanishes.

No floating point enters any of the algebra here; evaluation of a
``Polynomial2D`` on numpy arrays is the only lossy operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from .mesh import _cast, _integer

__all__ = [
    "Polynomial2D",
    "HarmonicPolynomial",
    "harmonic_basis",
    "GaussianRational",
    "SymbolRemainder",
    "ComplementingResult",
    "complementing_check",
    "laplace_complementing_check",
]

RationalLike = int | Fraction
_Terms = Mapping[tuple[int, int], RationalLike] | Iterable[tuple[tuple[int, int], RationalLike]]
_EVAL_BLOCK = 1 << 14  # points per block of Polynomial2D evaluation; its powers stay cached


def _rational(value, name: str) -> Fraction:
    """``value`` as an exact Fraction: a rational, or a real float of any numpy
    precision taken exactly. Anything else, NaN and the infinities included, raises
    ValueError naming ``name``."""
    if type(value) is Fraction:
        return value
    try:
        if isinstance(value, np.floating):  # Fraction takes np.float64, a float, but no other
            return Fraction(*value.as_integer_ratio())
        return Fraction(value)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be a finite real or rational number, got {value!r}") from None


class Polynomial2D:
    """Bivariate polynomial with exact rational coefficients.

    The coefficient of the monomial ``x**i * y**j`` is given as a mapping
    ``{(i, j): c}`` or as an iterable of ``((i, j), c)`` pairs; like terms
    are summed in order of first appearance and the nonzero sums stored
    as Fractions in that order. Instances are immutable and hashable on
    their coefficient table; a constant equals its number and hashes as
    it. Calling an instance evaluates it in floating point and broadcasts
    over numpy arrays, so polynomials can be passed anywhere a plain
    ``f(x, y)`` data callable is expected.
    """

    __slots__ = ("_coeffs", "_floats")

    def __init__(self, coeffs: _Terms | None = None):
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in coeffs.items() if hasattr(coeffs, "items") else coeffs or ():
            key = _integer(i, "exponent", 0), _integer(j, "exponent", 0)
            c = _rational(c, "coefficient")
            table[key] = table[key] + c if key in table else c
        self._coeffs = {key: c for key, c in table.items() if c}
        self._floats = None  # (i, j, float(c)) per term, formed on the first evaluation

    @classmethod
    def constant(cls, c: RationalLike) -> Polynomial2D:
        return cls({(0, 0): c})

    @classmethod
    def x(cls) -> Polynomial2D:
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> Polynomial2D:
        return cls({(0, 1): 1})

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._coeffs)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(i + j for i, j in self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other) -> Polynomial2D:
        if not isinstance(other, Polynomial2D):
            other = Polynomial2D.constant(other)
        return Polynomial2D([*self._coeffs.items(), *other._coeffs.items()])

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial2D:
        return self + -other

    def __rsub__(self, other) -> Polynomial2D:
        return (-self) + other

    def __neg__(self) -> Polynomial2D:
        return Polynomial2D({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other) -> Polynomial2D:
        if isinstance(other, Polynomial2D):
            return Polynomial2D(
                ((i1 + i2, j1 + j2), c1 * c2)
                for (i1, j1), c1 in self._coeffs.items()
                for (i2, j2), c2 in other._coeffs.items()
            )
        c = _rational(other, "factor")
        return Polynomial2D({k: v * c for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial2D:
        result = Polynomial2D.constant(1)
        for _ in range(_integer(n, "power", 0)):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial2D):
            return self._coeffs == other._coeffs
        if isinstance(other, Real):  # exactly, as _rational reads it; NaN and inf equal nothing
            try:
                return self == Polynomial2D.constant(other)
            except ValueError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as that Fraction
        if self.degree <= 0:
            return hash(self._coeffs.get((0, 0), Fraction(0)))
        return hash(frozenset(self._coeffs.items()))

    def diff(self, var: str) -> Polynomial2D:
        """Exact partial derivative with respect to ``"x"`` or ``"y"``."""
        if var == "x":
            return Polynomial2D(((i - 1, j), c * i) for (i, j), c in self._coeffs.items() if i)
        if var == "y":
            return Polynomial2D(((i, j - 1), c * j) for (i, j), c in self._coeffs.items() if j)
        raise ValueError(f"unknown variable {var!r}")

    def grad(self) -> tuple[Polynomial2D, Polynomial2D]:
        return self.diff("x"), self.diff("y")

    def laplacian(self) -> Polynomial2D:
        return self.diff("x").diff("x") + self.diff("y").diff("y")

    def subs_x(self, value: RationalLike) -> Polynomial2D:
        """Substitute an exact rational value for x, leaving a polynomial in y."""
        v = _rational(value, "x")
        return Polynomial2D(((0, j), c * v**i) for (i, j), c in self._coeffs.items())

    def subs_y(self, value: RationalLike) -> Polynomial2D:
        v = _rational(value, "y")
        return Polynomial2D(((i, 0), c * v**j) for (i, j), c in self._coeffs.items())

    def eval_exact(self, x: RationalLike, y: RationalLike) -> Fraction:
        xv, yv = _rational(x, "x"), _rational(y, "y")
        return sum((c * xv**i * yv**j for (i, j), c in self._coeffs.items()), Fraction(0))

    def __call__(self, x, y):
        """The sum over terms of float(c) * x**i * y**j in table order. x**0 and
        y**0 are exact unit factors and are left out, and x**1 is x itself, so
        skipping them moves no bit."""
        x, y = np.broadcast_arrays(_cast(x, float), _cast(y, float))
        out = np.zeros(x.shape)
        if out.size and self._floats is None:
            self._floats = [(i, j, float(c)) for (i, j), c in self._coeffs.items()]
        terms = self._floats or ()
        x_powers, y_powers = {i for i, _, _ in terms if i}, {j for _, j, _ in terms if j}
        flat = out.reshape(-1), x.reshape(-1), y.reshape(-1)
        for s in range(0, out.size, _EVAL_BLOCK):  # each distinct power once per block
            acc, bx, by = (a[s : s + _EVAL_BLOCK] for a in flat)
            xs = {i: bx if i == 1 else bx**i for i in x_powers}
            ys = {j: by if j == 1 else by**j for j in y_powers}
            term = np.empty_like(acc)
            for i, j, c in terms:
                if i or j:
                    np.multiply(xs[i] if i else ys[j], c, out=term)
                    if i and j:
                        term *= ys[j]
                    acc += term
                else:
                    acc += c
        return float(out) if out.ndim == 0 else out

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Polynomial2D(0)"
        terms = []
        for (i, j) in sorted(self._coeffs, key=lambda k: (k[0] + k[1], k)):
            c = self._coeffs[(i, j)]
            mono = "".join(
                [f"x^{i}" if i > 1 else "x" * min(i, 1), f"y^{j}" if j > 1 else "y" * min(j, 1)]
            )
            terms.append(f"{c}{'*' if mono else ''}{mono}")
        return f"Polynomial2D({' + '.join(terms)})"


class HarmonicPolynomial(Polynomial2D):
    """A ``Polynomial2D`` whose Laplacian vanishes identically.

    Construction checks the symbolic Laplacian and rejects non-harmonic
    coefficient tables, so instances are harmonic by invariant rather
    than by convention.
    """

    def __init__(self, coeffs: _Terms | None = None):
        super().__init__(coeffs)
        if not self.laplacian().is_zero():
            raise ValueError("polynomial is not harmonic (symbolic Laplacian is nonzero)")


def harmonic_basis(kmax: int) -> list[HarmonicPolynomial]:
    """Harmonic polynomial basis {1} followed by Re (x+iy)^k, Im (x+iy)^k.

    Returns ``2*kmax + 1`` polynomials, ordered by degree with the real
    part preceding the imaginary part at each degree. With ``kmax >= 1``
    the first three entries are 1, x, y; ``kmax`` is at least 0.
    """
    basis: list[HarmonicPolynomial] = [HarmonicPolynomial({(0, 0): 1})]
    for k in range(1, _integer(kmax, "kmax", 0) + 1):
        # (x + iy)^k term by term: i^j is (-1)^(j // 2), times i for odd j
        terms = [((k - j, j), math.comb(k, j) * (-1) ** (j // 2)) for j in range(k + 1)]
        basis.append(HarmonicPolynomial(terms[::2]))
        basis.append(HarmonicPolynomial(terms[1::2]))
    return basis


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("re", "im"):  # store each part as a Fraction, so no float enters the algebra
            part = getattr(self, name)
            if type(part) is not Fraction:
                if isinstance(part, complex):
                    raise TypeError("float-based complex is not exact; build from rationals")
                object.__setattr__(self, name, Fraction(part))

    @classmethod
    def of(cls, value) -> GaussianRational:
        return value if isinstance(value, GaussianRational) else cls(value)

    @classmethod
    def i(cls) -> GaussianRational:
        return cls(Fraction(0), Fraction(1))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __add__(self, other) -> GaussianRational:
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> GaussianRational:
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> GaussianRational:
        other = GaussianRational.of(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __str__(self) -> str:
        def imag(c: Fraction) -> str:
            if c == 1:
                return "i"
            if c == -1:
                return "-i"
            if c.denominator == 1:
                return f"{c}i"
            return f"({c})i"

        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return imag(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {imag(abs(self.im)).lstrip('-')}"


@dataclass(frozen=True)
class SymbolRemainder:
    """Remainder c0 + c1*t of a boundary symbol modulo (t - i)**2, or the
    constant c0 modulo t - i."""

    c0: GaussianRational
    c1: GaussianRational = GaussianRational()

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def __str__(self) -> str:
        if self.c1.is_zero():
            return str(self.c0)
        slope = str(self.c1)
        if slope in ("1", "-1"):
            term = "t" if slope == "1" else "-t"
        else:
            term = f"({slope})*t" if " " in slope else f"{slope}*t"
        if self.c0.is_zero():
            return term
        return f"{self.c0} - {term[1:]}" if term.startswith("-") else f"{self.c0} + {term}"


def _taylor_remainder(p: Iterable[int], root: GaussianRational, power: int) -> SymbolRemainder:
    """Remainder of the polynomial with ascending integer coefficients ``p``
    modulo ``(t - root)**power`` for ``power`` 1 or 2: its Taylor polynomial
    at the root, p(root) + p'(root) (t - root), with p(root) and p'(root)
    from Horner's rule."""
    value = slope = GaussianRational()
    for c in reversed(tuple(p)):
        slope = slope * root + value
        value = value * root + c
    if power == 1:
        return SymbolRemainder(value)
    return SymbolRemainder(value - root * slope, slope)


@dataclass(frozen=True)
class ComplementingResult:
    """Outcome of the boundary-symbol independence test for the biharmonic
    Neumann problem.

    ``remainder1`` and ``remainder2`` are the reductions of the two
    boundary symbols modulo (t - i)**2; ``linearly_dependent`` records
    whether one is an exact Gaussian-rational multiple of the other, and
    ``factor`` is that multiple when it exists.
    """

    remainder1: SymbolRemainder
    remainder2: SymbolRemainder
    linearly_dependent: bool
    factor: GaussianRational | None


def _dependence_factor(
    r1: SymbolRemainder, r2: SymbolRemainder
) -> tuple[bool, GaussianRational | None]:
    """Whether r1 and r2 are linearly dependent, by the determinant
    c0*d1 - c1*d0, and the factor r2/r1 when they are and neither is zero."""
    dependent = (r1.c0 * r2.c1 - r1.c1 * r2.c0).is_zero()
    if not dependent or r1.is_zero() or r2.is_zero():
        return dependent, None
    return True, (r2.c1 / r1.c1 if r1.c0.is_zero() else r2.c0 / r1.c0)


def complementing_check() -> ComplementingResult:
    """Reduce the biharmonic Neumann boundary symbols 1 + t**2 and t + t**3
    modulo (t - i)**2 and test the remainders for linear dependence.

    Everything is exact Gaussian-rational arithmetic. The remainders come
    out as 2 + 2i*t and 2i - 2t, which differ by the exact factor i, so
    the symbols are linearly dependent and the check reports failure of
    the independence requirement for this boundary operator pair.
    """
    i = GaussianRational.i()
    r1 = _taylor_remainder((1, 0, 1), i, 2)  # 1 + t^2
    r2 = _taylor_remainder((0, 1, 0, 1), i, 2)  # t + t^3
    dependent, factor = _dependence_factor(r1, r2)
    return ComplementingResult(r1, r2, dependent, factor)


def laplace_complementing_check() -> SymbolRemainder:
    """Control computation: the Neumann symbol t for the Laplacian reduced
    modulo t - i. The remainder is the nonzero constant i, so that symbol
    is not divisible by t - i and the independence requirement holds.
    """
    return _taylor_remainder((0, 1), GaussianRational.i(), 1)
