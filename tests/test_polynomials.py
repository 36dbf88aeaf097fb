"""Exact polynomial arithmetic: harmonic bases, symbol remainders, symbol checks."""

from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from biharm.polynomials import (
    ComplexPolynomial,
    GaussianRational,
    HarmonicPolynomial,
    Polynomial2D,
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


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        Polynomial2D({(-1, 0): 1})
    with pytest.raises(ValueError):
        X ** (-2)


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
    with pytest.raises(ValueError):
        harmonic_basis(-1)


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


def _sympy_remainder(p, power):
    """Oracle: sympy's remainder of the integer polynomial with ascending
    coefficients ``p`` modulo (t - i)**power, as a ComplexPolynomial."""
    t = sp.symbols("t")
    rem = sp.Poly(sp.rem(sum(c * t**k for k, c in enumerate(p)), (t - sp.I) ** power, t), t)
    coeffs = [sp.expand(c) for c in reversed(rem.all_coeffs())]
    return ComplexPolynomial(
        GaussianRational(Fraction(str(sp.re(c))), Fraction(str(sp.im(c)))) for c in coeffs
    )


def test_taylor_remainder_matches_sympy():
    rng = np.random.default_rng(14)
    symbols = [(1, 0, 1), (0, 1, 0, 1), (0, 1)]
    symbols += [tuple(int(c) for c in rng.integers(-9, 10, rng.integers(1, 8))) for _ in range(40)]
    for p in symbols:
        for power in (1, 2):
            assert _taylor_remainder(p, GaussianRational.i(), power) == _sympy_remainder(p, power)


def test_boundary_symbol_remainders_exact():
    i = GaussianRational.i()
    result = complementing_check()
    # 1 + t^2 mod (t - i)^2 leaves 2 + 2it
    assert result.remainder1 == ComplexPolynomial([2, 2 * i])
    # t + t^3 mod (t - i)^2 leaves 2i - 2t
    assert result.remainder2 == ComplexPolynomial([2 * i, -2])
    assert result.linearly_dependent is True
    assert result.factor == i
    assert result.remainder2 == result.remainder1 * i


def test_laplace_control_symbol_not_divisible():
    rem = laplace_complementing_check()
    assert rem == ComplexPolynomial([GaussianRational.i()])
    assert not rem.is_zero()


def test_complex_polynomial_formatting():
    i = GaussianRational.i()
    assert str(ComplexPolynomial([2, 2 * i])) == "2 + 2i*t"
    assert str(ComplexPolynomial([2 * i, -2])) == "2i - 2*t"
    assert str(ComplexPolynomial()) == "0"
    assert str(ComplexPolynomial([0, 1])) == "t"
