"""Exact polynomial arithmetic.

Two small families of objects, both over exact rational coefficients:

* bivariate polynomials on the plane (``Polynomial2D``) together with the
  harmonic subfamily (``HarmonicPolynomial``, ``harmonic_basis``) used as
  test functions for compatibility residuals, and

* univariate polynomials with Gaussian-rational coefficients
  (``ComplexPolynomial``) used to decide, in exact arithmetic, whether the
  boundary symbols of the biharmonic Neumann problem stay linearly
  independent modulo ``(t - i)**2``; each remainder is read off a symbol's
  exact value and slope at i, its Taylor polynomial there.

No floating point enters any of the algebra here; evaluation of a
``Polynomial2D`` on numpy arrays is the only lossy operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Polynomial2D",
    "HarmonicPolynomial",
    "harmonic_basis",
    "GaussianRational",
    "ComplexPolynomial",
    "ComplementingResult",
    "complementing_check",
    "laplace_complementing_check",
]

RationalLike = int | Fraction
_EVAL_BLOCK = 1 << 14  # points per block of Polynomial2D evaluation; its powers stay cached


class Polynomial2D:
    """Bivariate polynomial with exact rational coefficients.

    Coefficients are stored sparsely as ``{(i, j): Fraction}`` for the
    monomial ``x**i * y**j``. Instances are immutable and hashable on
    their coefficient table. Calling an instance evaluates it in floating
    point and broadcasts over numpy arrays, so polynomials can be passed
    anywhere a plain ``f(x, y)`` data callable is expected.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], RationalLike] | None = None):
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in (coeffs or {}).items():
            if i < 0 or j < 0:
                raise ValueError(f"negative monomial exponent ({i}, {j})")
            c = Fraction(c)
            if c != 0:
                table[(int(i), int(j))] = c
        self._coeffs = table

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

    def _binary(self, other, sign: int) -> Polynomial2D:
        if not isinstance(other, Polynomial2D):
            other = Polynomial2D.constant(other)
        table = dict(self._coeffs)
        for key, c in other._coeffs.items():
            table[key] = table.get(key, Fraction(0)) + sign * c
        return Polynomial2D(table)

    def __add__(self, other) -> Polynomial2D:
        return self._binary(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> Polynomial2D:
        return self._binary(other, -1)

    def __rsub__(self, other) -> Polynomial2D:
        return (-self) + other

    def __neg__(self) -> Polynomial2D:
        return Polynomial2D({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, other) -> Polynomial2D:
        if isinstance(other, Polynomial2D):
            table: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self._coeffs.items():
                for (i2, j2), c2 in other._coeffs.items():
                    key = (i1 + i2, j1 + j2)
                    table[key] = table.get(key, Fraction(0)) + c1 * c2
            return Polynomial2D(table)
        c = Fraction(other)
        return Polynomial2D({k: v * c for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial2D:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial2D.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial2D):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial2D.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def diff(self, var: str) -> Polynomial2D:
        """Exact partial derivative with respect to ``"x"`` or ``"y"``."""
        if var not in ("x", "y"):
            raise ValueError(f"unknown variable {var!r}")
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            if var == "x" and i > 0:
                table[(i - 1, j)] = c * i
            elif var == "y" and j > 0:
                table[(i, j - 1)] = c * j
        return Polynomial2D(table)

    def grad(self) -> tuple[Polynomial2D, Polynomial2D]:
        return self.diff("x"), self.diff("y")

    def laplacian(self) -> Polynomial2D:
        return self.diff("x").diff("x") + self.diff("y").diff("y")

    def subs_x(self, value: RationalLike) -> Polynomial2D:
        """Substitute an exact rational value for x, leaving a polynomial in y."""
        v = Fraction(value)
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            key = (0, j)
            table[key] = table.get(key, Fraction(0)) + c * v**i
        return Polynomial2D(table)

    def subs_y(self, value: RationalLike) -> Polynomial2D:
        v = Fraction(value)
        table: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._coeffs.items():
            key = (i, 0)
            table[key] = table.get(key, Fraction(0)) + c * v**j
        return Polynomial2D(table)

    def eval_exact(self, x: RationalLike, y: RationalLike) -> Fraction:
        xv, yv = Fraction(x), Fraction(y)
        return sum((c * xv**i * yv**j for (i, j), c in self._coeffs.items()), Fraction(0))

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        out = np.zeros(x.shape)
        flat = out.reshape(-1), x.reshape(-1), y.reshape(-1)
        for s in range(0, out.size, _EVAL_BLOCK):  # each distinct power once per block
            acc, bx, by = (a[s : s + _EVAL_BLOCK] for a in flat)
            xs = {i: bx**i for i in {i for i, _ in self._coeffs}}
            ys = {j: by**j for j in {j for _, j in self._coeffs}}
            for (i, j), c in self._coeffs.items():
                acc += float(c) * xs[i] * ys[j]
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

    def __init__(self, coeffs: Mapping[tuple[int, int], RationalLike] | None = None):
        super().__init__(coeffs)
        if not self.laplacian().is_zero():
            raise ValueError("polynomial is not harmonic (symbolic Laplacian is nonzero)")


def harmonic_basis(kmax: int) -> list[HarmonicPolynomial]:
    """Harmonic polynomial basis {1} followed by Re (x+iy)^k, Im (x+iy)^k.

    Returns ``2*kmax + 1`` polynomials, ordered by degree with the real
    part preceding the imaginary part at each degree. With ``kmax >= 1``
    the first three entries are 1, x, y.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    basis: list[HarmonicPolynomial] = [HarmonicPolynomial({(0, 0): 1})]
    for k in range(1, kmax + 1):
        re_part: dict[tuple[int, int], Fraction] = {}
        im_part: dict[tuple[int, int], Fraction] = {}
        # (x + iy)^k expanded; i^j cycles through 1, i, -1, -i.
        for j in range(k + 1):
            c = Fraction(math.comb(k, j))
            if j % 2 == 0:
                re_part[(k - j, j)] = c if j % 4 == 0 else -c
            else:
                im_part[(k - j, j)] = c if j % 4 == 1 else -c
        basis.append(HarmonicPolynomial(re_part))
        basis.append(HarmonicPolynomial(im_part))
    return basis


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, complex):
            raise TypeError("float-based complex is not exact; build from rationals")
        return cls(Fraction(value), Fraction(0))

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


class ComplexPolynomial:
    """Univariate polynomial in t over the Gaussian rationals.

    Coefficients ascend from the constant term; trailing zeros are
    stripped so ``degree`` is well defined (-1 for the zero polynomial).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussianRational.of(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[GaussianRational, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __getitem__(self, k: int) -> GaussianRational:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return GaussianRational()

    def __mul__(self, other) -> ComplexPolynomial:
        c = GaussianRational.of(other)
        return ComplexPolynomial([ci * c for ci in self._coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c.is_zero():
                continue
            mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            cs = str(c)
            if mono and cs == "1":
                parts.append(mono)
            elif mono and cs == "-1":
                parts.append(f"-{mono}")
            elif mono:
                cs = f"({cs})" if (" " in cs) else cs
                parts.append(f"{cs}*{mono}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _taylor_remainder(p: Iterable[int], root: GaussianRational, power: int) -> ComplexPolynomial:
    """Remainder of the polynomial with ascending integer coefficients ``p``
    modulo ``(t - root)**power`` for ``power`` 1 or 2: its Taylor polynomial
    at the root, p(root) + p'(root) (t - root), with p(root) and p'(root)
    from Horner's rule."""
    value = slope = GaussianRational()
    for c in reversed(tuple(p)):
        slope = slope * root + value
        value = value * root + c
    if power == 1:
        return ComplexPolynomial([value])
    return ComplexPolynomial([value - root * slope, slope])


@dataclass(frozen=True)
class ComplementingResult:
    """Outcome of the boundary-symbol independence test for the biharmonic
    Neumann problem.

    ``remainder1`` and ``remainder2`` are the reductions of the two
    boundary symbols modulo (t - i)**2; ``linearly_dependent`` records
    whether one is an exact Gaussian-rational multiple of the other, and
    ``factor`` is that multiple when it exists.
    """

    remainder1: ComplexPolynomial
    remainder2: ComplexPolynomial
    linearly_dependent: bool
    factor: GaussianRational | None


def _dependence_factor(
    r1: ComplexPolynomial, r2: ComplexPolynomial
) -> tuple[bool, GaussianRational | None]:
    if r1.is_zero() or r2.is_zero():
        return True, None
    pivot = next(k for k, c in enumerate(r1.coeffs) if not c.is_zero())
    factor = r2[pivot] / r1[pivot]
    return (r2 == r1 * factor), factor


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
    if not dependent:
        factor = None
    return ComplementingResult(r1, r2, dependent, factor)


def laplace_complementing_check() -> ComplexPolynomial:
    """Control computation: the Neumann symbol t for the Laplacian reduced
    modulo t - i. The remainder is the nonzero constant i, so that symbol
    is not divisible by t - i and the independence requirement holds.
    """
    return _taylor_remainder((0, 1), GaussianRational.i(), 1)
