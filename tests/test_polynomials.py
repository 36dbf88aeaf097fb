"""Exact polynomial arithmetic: harmonic bases, symbol remainders, symbol checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.polynomials import (
    GaussianRational,
    HarmonicPolynomial,
    Polynomial2D,
    SymbolRemainder,
    _dependence_factor,
    _taylor_remainder,
    complementing_check,
    harmonic_basis,
    laplace_complementing_check,
)

X = Polynomial2D.x()
Y = Polynomial2D.y()


def test_polynomial_algebra_exact():
    p = (X + Y) ** 2
    assert p == X**2 + 2 * X * Y + Y**2
    assert p.degree == 2
    assert (p - p).is_zero()
    assert (p - p).degree == -1
    q = Fraction(1, 3) * X
    assert q.coeffs == {(1, 0): Fraction(1, 3)}


def test_constant_polynomial_hashes_as_the_number_it_equals():
    one, half = Polynomial2D.constant(1), Polynomial2D.constant(Fraction(1, 2))
    assert one == 1 and half == Fraction(1, 2) and Polynomial2D() == 0
    assert {1: "a"}[one] == "a"
    assert {Fraction(1, 2): "b"}[half] == "b"
    assert {0: "c"}[Polynomial2D()] == "c"
    assert len({one, 1}) == 1
    assert len({half, Fraction(1, 2)}) == 1
    assert len({Polynomial2D(), 0}) == 1
    assert len({X, X + 0, 1 + X}) == 2


def test_constant_polynomial_equals_any_real_number_exactly():
    one, half = Polynomial2D.constant(1), Polynomial2D.constant(Fraction(1, 2))
    assert one == 1.0 and one == np.float64(1) and one == np.int64(1) and half == 0.5
    assert 1.0 == one and half == np.float32(0.5)
    assert Polynomial2D.constant(Fraction(1, 10)) != 0.1  # the float's exact value
    assert {1.0: "a"}[one] == "a" and {0.5: "b"}[half] == "b"
    assert len({one, 1.0, np.float64(1)}) == 1
    for bad in (math.nan, np.nan, math.inf, -np.inf):
        assert (one == bad) is False and one != bad and (Polynomial2D() == bad) is False
    assert one.__eq__("1") is NotImplemented and one.__eq__(1 + 0j) is NotImplemented
    assert X != 1.0 and X.__eq__(1.0) is False


def test_differentiation_and_substitution():
    p = X**3 * Y - 2 * Y**2
    assert p.diff("x") == 3 * X**2 * Y
    assert p.diff("y") == X**3 - 4 * Y
    assert p.laplacian() == 6 * X * Y - 4
    assert p.subs_y(0) == X**3 * 0 - 0  # zero polynomial
    assert p.subs_x(1) == Y - 2 * Y**2
    assert p.eval_exact(Fraction(1, 2), 2) == Fraction(1, 4) - 8


def test_vectorized_evaluation_matches_exact():
    p = X**2 * Y - Fraction(1, 2) * Y**3
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, size=17)
    ys = rng.uniform(-1, 1, size=17)
    vals = p(xs, ys)
    expected = xs**2 * ys - 0.5 * ys**3
    assert np.allclose(vals, expected, atol=1e-14)
    assert isinstance(p(0.5, 0.5), float)


def _bubble_polynomials():
    u = (X * (1 - X)) ** 2 * (Y * (1 - Y)) ** 2
    return [u, u.laplacian(), u.laplacian().laplacian()]


def _random_polynomials(rng):
    return [
        Polynomial2D(
            {
                (int(i), int(j)): Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 12)))
                for i, j in rng.integers(0, 7, size=(int(rng.integers(1, 20)), 2))
            }
        )
        for _ in range(25)
    ]


def _per_term(p, x, y):
    out = np.zeros(np.broadcast(x, y).shape)
    for (i, j), c in p.coeffs.items():
        out += float(c) * x**i * y**j
    return out


def test_vectorized_evaluation_is_bit_identical_to_the_per_term_formula():
    # 17,030 points fill one evaluation block and part of a second
    rng = np.random.default_rng(11)
    xs = rng.uniform(-2, 2, size=(130, 131))
    ys = rng.uniform(-2, 2, size=(130, 131))
    y0 = np.asarray(ys[0, 0])
    for p in _bubble_polynomials() + _random_polynomials(rng):
        assert p(xs, ys).tobytes() == _per_term(p, xs, ys).tobytes(), p
        assert p(xs, y0).tobytes() == _per_term(p, xs, y0).tobytes(), p
        assert p(xs[0, 0], ys[0, 0]) == float(_per_term(p, xs[:1, :1], ys[:1, :1])[0, 0])
    assert X(np.empty((0, 3)), 1.0).shape == (0, 3)


# coordinates with the infinities, signed zeros and NaN that unit factors could touch
_COORDINATES = st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 1.0, -1.0, math.nan]) | st.floats()
_COEFFICIENTS = st.fractions(-(10**6), 10**6, max_denominator=1000) | st.floats(-1e300, 1e300)  # sums stay floats


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), _COEFFICIENTS), max_size=8),
    st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=40),
)
def test_evaluation_skips_unit_factors_bit_for_bit(terms, points):
    p = Polynomial2D(terms)
    x, y = np.array(points).T
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf are part of the property
        first, second, expected = p(x, y), p(x, y), _per_term(p, x, y)
        scalar = p(x[0], y[0])
    assert first.tobytes() == second.tobytes() == expected.tobytes()
    assert np.array(scalar).tobytes() == expected[:1].tobytes()


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial2D({(-1, 0): 1})
    with pytest.raises(ValueError):
        X ** (-2)


def test_a_number_enters_a_polynomial_exactly():
    # np.float32 once raised a bare TypeError while np.float64 was taken exactly
    tenth, third = np.float32(0.1), np.longdouble(1) / 3
    assert Fraction(*tenth.as_integer_ratio()) != Fraction(1, 10)
    for number, value in [
        (tenth, Fraction(*tenth.as_integer_ratio())),
        (third, Fraction(*third.as_integer_ratio())),
        (np.float16(0.5), Fraction(1, 2)),
        (np.float64(0.25), Fraction(1, 4)),
        (np.int32(3), Fraction(3)),
    ]:
        assert Polynomial2D({(0, 0): number}).coeffs == {(0, 0): value}
        assert (X * number).coeffs == {(1, 0): value}
        assert (X * Y).subs_x(number) == value * Y and (X * Y).subs_y(number) == value * X
        assert (X * Y).eval_exact(number, 2) == 2 * value == (X * Y).eval_exact(2, number)


@pytest.mark.parametrize(
    "number",
    [math.inf, -math.inf, math.nan, np.float32("inf"), np.float32("nan"), "abc", "1/0"],
    ids=repr,
)
def test_a_value_that_is_not_a_finite_number_is_refused_by_name(number):
    # an infinity once raised a bare OverflowError, NaN a ValueError, "1/0" a ZeroDivisionError
    refusal = "^{} must be a finite real or rational number, got "
    calls = {
        "coefficient": lambda: Polynomial2D.constant(number),
        "factor": lambda: X * number,
        "x": lambda: X.subs_x(number),
        "y": lambda: Y.subs_y(number),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=refusal.format(name)):
            call()
    for x, y, name in [(number, 1, "x"), (1, number, "y")]:
        with pytest.raises(ValueError, match=refusal.format(name)):
            X.eval_exact(x, y)


def test_harmonic_basis_explicit_low_degrees():
    basis = harmonic_basis(3)
    assert len(basis) == 7
    assert basis[0] == 1
    assert basis[1] == X
    assert basis[2] == Y
    assert basis[3] == X**2 - Y**2
    assert basis[4] == 2 * X * Y
    assert basis[5] == X**3 - 3 * X * Y**2
    assert basis[6] == 3 * X**2 * Y - Y**3
    assert [b.degree for b in basis] == [0, 1, 1, 2, 2, 3, 3]


def test_harmonic_basis_laplacians_vanish():
    for eta in harmonic_basis(8):
        assert eta.laplacian().is_zero()


def test_harmonic_basis_edge_cases():
    assert len(harmonic_basis(0)) == 1
    assert len(harmonic_basis(np.int64(2))) == 5
    # a bool is an int to Python: True once gave the 3 polynomials of kmax 1,
    # and a float failed inside range() with a bare TypeError
    for kmax in (-1, True, False, 2.0, 1.5, "2", None):
        with pytest.raises(ValueError, match="^kmax must be an integer of at least 0, got "):
            harmonic_basis(kmax)


def test_harmonic_polynomial_rejects_nonharmonic():
    with pytest.raises(ValueError):
        HarmonicPolynomial({(2, 0): 1})  # x^2 has Laplacian 2
    HarmonicPolynomial({(2, 0): 1, (0, 2): -1})  # x^2 - y^2 passes


def test_gaussian_rational_arithmetic():
    i = GaussianRational.i()
    two_plus_2i = GaussianRational(Fraction(2), Fraction(2))
    assert two_plus_2i / (1 + i) == GaussianRational.of(2)
    assert i * i == GaussianRational.of(-1)
    assert str(i) == "i"
    assert str(-i) == "-i"
    assert str(two_plus_2i) == "2 + 2i"
    assert str(GaussianRational(Fraction(0), Fraction(-3))) == "-3i"
    with pytest.raises(ZeroDivisionError):
        i / GaussianRational()


def test_gaussian_rational_stores_exact_fractions():
    half = GaussianRational(0.5, 1.5)
    assert (half.re, half.im) == (Fraction(1, 2), Fraction(3, 2))
    assert type(half.re) is Fraction and type(half.im) is Fraction
    assert str(half) == "1/2 + (3/2)i"
    product = GaussianRational(1, 2) * GaussianRational(0.5, 0)
    assert product == GaussianRational(Fraction(1, 2), Fraction(1))
    assert str(product) == "1/2 + i"
    with pytest.raises(TypeError, match="float-based complex is not exact"):
        GaussianRational(1j, 0)
    with pytest.raises(TypeError, match="float-based complex is not exact"):
        GaussianRational.of(1j)


def _sympy_remainder(p, power):
    """Oracle: sympy's remainder of the integer polynomial with ascending
    coefficients ``p`` modulo (t - i)**power, as a SymbolRemainder."""
    t = sp.symbols("t")
    rem = sp.Poly(sp.rem(sum(c * t**k for k, c in enumerate(p)), (t - sp.I) ** power, t), t)
    coeffs = [sp.expand(c) for c in reversed(rem.all_coeffs())]
    assert len(coeffs) <= power
    return SymbolRemainder(
        *(GaussianRational(Fraction(str(sp.re(c))), Fraction(str(sp.im(c)))) for c in coeffs)
    )


def _symbols():
    """The two boundary symbols, the Laplace control symbol and 40 random
    integer polynomials of degree up to 6, as ascending coefficients."""
    rng = np.random.default_rng(14)
    symbols = [(1, 0, 1), (0, 1, 0, 1), (0, 1)]
    symbols += [tuple(int(c) for c in rng.integers(-9, 10, rng.integers(1, 8))) for _ in range(40)]
    return symbols


def test_taylor_remainder_matches_sympy():
    for p in _symbols():
        for power in (1, 2):
            assert _taylor_remainder(p, GaussianRational.i(), power) == _sympy_remainder(p, power)


def _stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def any_degree_str(coeffs):
    """The printer of the any-degree polynomial class that held the
    remainders before they became c0 + c1*t: ascending Gaussian-rational
    coefficients, trailing zeros stripped. The reference for
    ``SymbolRemainder.__str__``, which must agree with it on degree <= 1."""
    coeffs = _stripped(coeffs)
    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
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


def pivot_rule(r1, r2):
    """The dependence rule of the any-degree class: divide at the first
    nonzero coefficient of r1 and compare r2 with r1 times that factor; the
    factor is dropped for an independent pair, as the check dropped it. The
    reference for the determinant rule of ``_dependence_factor``."""
    a, b = _stripped((r1.c0, r1.c1)), _stripped((r2.c0, r2.c1))
    if not a or not b:
        return True, None
    pivot = next(k for k, c in enumerate(a) if not c.is_zero())
    factor = (r2.c0, r2.c1)[pivot] / a[pivot]
    dependent = _stripped(c * factor for c in a) == b
    return dependent, (factor if dependent else None)


_GRID = [
    GaussianRational(re, im)
    for re in (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-5, 2))
    for im in (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-5, 2))
]


def test_symbol_remainder_prints_as_the_any_degree_printer():
    # 2,401 coefficient pairs: real and imaginary parts in {0, ±1, ±2, 1/3, -5/2}
    for c0 in _GRID:
        for c1 in _GRID:
            assert str(SymbolRemainder(c0, c1)) == any_degree_str((c0, c1)), (c0, c1)


def test_dependence_determinant_agrees_with_the_pivot_rule():
    i, zero, one = GaussianRational.i(), GaussianRational(), GaussianRational(1)
    r = SymbolRemainder(2 * one, 2 * i)
    remainders = [_taylor_remainder(p, i, power) for p in _symbols() for power in (1, 2)]
    pairs = [(r1, r2) for r1 in remainders for r2 in remainders]
    pairs += [
        (SymbolRemainder(zero), r),  # r1 = 0
        (r, SymbolRemainder(zero)),  # r2 = 0
        (SymbolRemainder(zero), SymbolRemainder(zero)),
        (SymbolRemainder(zero, one), SymbolRemainder(zero, i)),  # t and i*t: dependent, c0 = 0
        (SymbolRemainder(one), SymbolRemainder(zero, one)),  # 1 and t: independent
    ]
    for r1, r2 in pairs:
        assert _dependence_factor(r1, r2) == pivot_rule(r1, r2), (r1, r2)
    assert _dependence_factor(SymbolRemainder(zero, one), SymbolRemainder(zero, i)) == (True, i)
    assert _dependence_factor(SymbolRemainder(one), SymbolRemainder(zero, one)) == (False, None)
    assert _dependence_factor(SymbolRemainder(zero), r) == (True, None)
    dependent = sum(pivot_rule(r1, r2)[0] for r1, r2 in pairs)
    assert 0 < dependent < len(pairs)


def test_boundary_symbol_remainders_exact():
    i = GaussianRational.i()
    result = complementing_check()
    # 1 + t^2 mod (t - i)^2 leaves 2 + 2it
    assert result.remainder1 == SymbolRemainder(GaussianRational(2), 2 * i)
    # t + t^3 mod (t - i)^2 leaves 2i - 2t
    assert result.remainder2 == SymbolRemainder(2 * i, GaussianRational(-2))
    assert result.linearly_dependent is True
    assert result.factor == i
    r1 = result.remainder1
    assert result.remainder2 == SymbolRemainder(i * r1.c0, i * r1.c1)


def test_laplace_control_symbol_not_divisible():
    rem = laplace_complementing_check()
    assert rem == SymbolRemainder(GaussianRational.i())
    assert not rem.is_zero()


def test_symbol_remainder_formatting():
    i, zero, one = GaussianRational.i(), GaussianRational(), GaussianRational(1)
    assert str(SymbolRemainder(GaussianRational(2), 2 * i)) == "2 + 2i*t"
    assert str(SymbolRemainder(2 * i, GaussianRational(-2))) == "2i - 2*t"
    assert str(SymbolRemainder(zero)) == "0"
    assert str(SymbolRemainder(zero, one)) == "t"
    assert str(SymbolRemainder(zero, -one)) == "-t"
    assert str(SymbolRemainder(one, one + i)) == "1 + (1 + i)*t"
    assert str(SymbolRemainder(one, -one - i)) == "1 + (-1 - i)*t"
