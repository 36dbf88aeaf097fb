"""Quadrature rules: exactness against closed-form monomial integrals."""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from biharm import fem
from biharm.fem import default_boundary_rule, triangle_quadrature
from biharm.mesh import unit_square_mesh


def reference_triangle_integral(a: int, b: int) -> float:
    # integral of x^a y^b over the triangle (0,0), (1,0), (0,1)
    return factorial(a) * factorial(b) / factorial(a + b + 2)


@pytest.mark.parametrize("order", range(1, 7))
def test_triangle_exactness_all_monomials(order):
    rule = triangle_quadrature(order)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(order + 1):
        for b in range(order + 1 - a):
            approx = float(np.sum(rule.weights * x**a * y**b))
            assert abs(approx - reference_triangle_integral(a, b)) < 1e-13


def test_triangle_quartic_spot_value():
    rule = triangle_quadrature(4)
    x, y = rule.points[:, 1], rule.points[:, 2]
    val = float(np.sum(rule.weights * x**2 * y**2))
    assert abs(val - 1.0 / 180.0) < 1e-15


@pytest.mark.parametrize("order", range(1, 7))
def test_triangle_weights_positive_and_normalized(order):
    rule = triangle_quadrature(order)
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 0.5) < 1e-15
    # barycentric points strictly inside
    assert (rule.points > 0).all() and (rule.points < 1).all()
    assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)


def test_triangle_order_bounds():
    with pytest.raises(ValueError):
        triangle_quadrature(0)
    with pytest.raises(ValueError):
        triangle_quadrature(7)


BOUNDARY_EXACT_DEGREE = 5


def gauss_3_on_the_unit_segment(k: int) -> Fraction:
    """The exact value of the 3-point Gauss rule on [0, 1] applied to t^k.

    Its nodes are 1/2 and 1/2 +- s with s^2 = 3/20, and its weights 5/18, 4/9
    and 5/18; the odd powers of s cancel, so the value is rational."""
    half, s2 = Fraction(1, 2), Fraction(3, 20)
    pair = 2 * sum(comb(k, j) * half ** (k - j) * s2 ** (j // 2) for j in range(0, k + 1, 2))
    return Fraction(5, 18) * pair + Fraction(4, 9) * half**k


@pytest.mark.parametrize("degree", range(1, 12))
def test_segment_exactness(degree):
    # the boundary rule on t^k is the Gauss value, which is the integral up to degree 5
    rule = default_boundary_rule()
    t = rule.points[:, 1]
    gauss = gauss_3_on_the_unit_segment(degree)
    assert abs(float(np.sum(rule.weights * t**degree)) - float(gauss)) < 1e-15
    assert (gauss == Fraction(1, degree + 1)) == (degree <= BOUNDARY_EXACT_DEGREE)


def test_segment_default_order_five():
    rule = default_boundary_rule()
    t = rule.points[:, 1]
    assert abs(float(np.sum(rule.weights * t**5)) - 1.0 / 6.0) < 1e-15
    assert (rule.weights > 0).all()
    assert abs(rule.weights.sum() - 1.0) < 1e-15
    assert rule is default_boundary_rule()


def test_segment_order_bounds():
    # exact to degree 5 and no further: t^6 falls short by the Gauss remainder 1/2800
    rule = default_boundary_rule()
    t, w = rule.points[:, 1], rule.weights
    for k in range(BOUNDARY_EXACT_DEGREE + 1):
        assert abs(float(np.sum(w * t**k)) - 1.0 / (k + 1)) < 1e-15
    error = float(np.sum(w * t**6)) - 1.0 / 7.0
    assert error == pytest.approx(-1.0 / 2800.0, rel=1e-12)


def test_boundary_rule_is_leggauss_3_on_the_unit_segment_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(3)
    t = (nodes + 1.0) / 2.0
    rule = default_boundary_rule()
    assert rule.points.tobytes() == np.column_stack([1.0 - t, t]).tobytes()
    assert rule.weights.tobytes() == (weights / 2.0).tobytes()
    assert rule.points.shape == (3, 2) and not rule.points.flags.writeable


def test_rule_arrays_immutable():
    rule = triangle_quadrature(3)
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("n", range(1, 5))
def test_tabulated_gauss_rules_are_scipys_bit_for_bit(n):
    from scipy.special import roots_jacobi, roots_legendre

    for table, (nodes, weights) in (
        (fem._GAUSS_JACOBI_1_0, roots_jacobi(n, 1.0, 0.0)),
        (fem._GAUSS_LEGENDRE, roots_legendre(n)),
    ):
        assert _bits(table[n][0]) == _bits(nodes)
        assert _bits(table[n][1]) == _bits(weights)


def _conical_product_from_scipy(order: int):
    """The triangle rule as built before the Gauss rules were tabulated."""
    from scipy.special import roots_jacobi, roots_legendre

    n = (order + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
    u = (xj + 1.0) / 2.0
    wu = wj / 4.0
    v = (xl + 1.0) / 2.0
    wv = wl / 2.0
    x = np.repeat(u, n)
    y = np.tile(v, n) * (1.0 - x)
    w = np.repeat(wu, n) * np.tile(wv, n)
    return np.column_stack([1.0 - x - y, x, y]), w


@pytest.mark.parametrize("order", range(1, 7))
def test_triangle_rule_matches_the_scipy_conical_product_bit_for_bit(order):
    rule = triangle_quadrature(order)
    points, weights = _conical_product_from_scipy(order)
    assert _bits(rule.points) == _bits(points)
    assert _bits(rule.weights) == _bits(weights)


@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("order", range(1, 7))
def test_integrate_is_exact_for_monomials_on_the_square(order, n):
    mesh = unit_square_mesh(n)
    rule = triangle_quadrature(order)
    x, y = fem.quad_points(mesh, rule)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            exact = 1.0 / ((i + 1) * (j + 1))
            assert fem.integrate(mesh, rule, x**i * y**j) == pytest.approx(exact, rel=1e-14)


def square_boundary_integral(i: int, j: int) -> float:
    # sides y = 0 and y = 1 give (0**j + 1) / (i + 1); sides x = 0 and x = 1, (0**i + 1) / (j + 1)
    return (0**j + 1) / (i + 1) + (0**i + 1) / (j + 1)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_boundary_integrate_is_exact_for_monomials_on_the_square(n):
    mesh = unit_square_mesh(n)
    x, y, _, _ = fem.boundary_geometry(mesh)
    for i in range(BOUNDARY_EXACT_DEGREE + 1):
        for j in range(BOUNDARY_EXACT_DEGREE + 1 - i):
            exact = square_boundary_integral(i, j)
            assert fem.boundary_integrate(mesh, x**i * y**j) == pytest.approx(exact, rel=1e-14)
