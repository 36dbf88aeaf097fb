"""Manufactured cases: data consistency against independent symbolic algebra."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from biharm import fem
from biharm.fem import build_space, interpolate
from biharm.manufactured import case_bubble, case_sine, cases, h1_error, l2_error
from biharm.mesh import unit_square_mesh

X, Y = sp.symbols("x y")


def laplacian(expr):
    return sp.diff(expr, X, 2) + sp.diff(expr, Y, 2)


def sample_points(rng, n=40):
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    return pts[:, 0], pts[:, 1]


def test_registry():
    table = cases()
    assert set(table) == {"sine", "bubble"}


def test_sine_chain_is_symbolically_consistent():
    u = sp.sin(sp.pi * X) * sp.sin(sp.pi * Y)
    sigma = laplacian(u)
    f = laplacian(sigma)
    assert sp.simplify(sigma - (-2 * sp.pi**2 * u)) == 0
    assert sp.simplify(f - 4 * sp.pi**4 * u) == 0

    case = case_sine()
    rng = np.random.default_rng(11)
    x, y = sample_points(rng)
    for expr, func in ((u, case.u_exact), (sigma, case.sigma_exact), (f, case.f)):
        ref = sp.lambdify((X, Y), expr, "numpy")(x, y)
        assert np.max(np.abs(func(x, y) - ref)) < 1e-11
    gx_ref = sp.lambdify((X, Y), sp.diff(u, X), "numpy")(x, y)
    gy_ref = sp.lambdify((X, Y), sp.diff(u, Y), "numpy")(x, y)
    gx, gy = case.grad_u(x, y)
    assert np.max(np.abs(gx - gx_ref)) < 1e-12
    assert np.max(np.abs(gy - gy_ref)) < 1e-12
    assert np.all(case.g(x, y) == 0.0)


def poly_as_dict(expr):
    return {
        (int(i), int(j)): Fraction(int(c.p), int(c.q))
        for (i, j), c in sp.Poly(sp.expand(expr), X, Y).as_dict().items()
    }


def test_bubble_chain_matches_sympy_expansion():
    u = (X * (1 - X)) ** 2 * (Y * (1 - Y)) ** 2
    sigma = laplacian(u)
    f = laplacian(sigma)

    case = case_bubble()
    assert case.u_exact.coeffs == poly_as_dict(u)
    assert case.sigma_exact.coeffs == poly_as_dict(sigma)
    assert case.f.coeffs == poly_as_dict(f)
    assert case.g is case.sigma_exact


def test_bubble_trace_value_exact():
    case = case_bubble()
    # g(x, 0) = 2 x^2 (1-x)^2, so g(1/2, 0) = 1/8
    assert case.g.eval_exact(Fraction(1, 2), 0) == Fraction(1, 8)
    assert case.g.eval_exact(0, Fraction(1, 3)) == Fraction(2 * 4, 81)


def test_sine_flux_is_sine_profile_on_every_side():
    case = case_sine()
    t = np.linspace(0.0, 1.0, 17)
    profile = 2.0 * np.pi**3 * np.sin(np.pi * t)
    zero = np.zeros_like(t)
    one = np.ones_like(t)
    for x, y in (
        (t, zero),  # bottom
        (one, t),  # right
        (t, one),  # top
        (zero, t),  # left
    ):
        assert np.max(np.abs(case.h(x, y) - profile)) < 1e-11


def test_bubble_flux_matches_directional_derivative():
    case = case_bubble()
    sigma_x, sigma_y = case.sigma_exact.grad()
    t = np.linspace(0.1, 0.9, 9)
    assert np.allclose(case.h(t, np.zeros_like(t)), -sigma_y(t, 0.0 * t), atol=1e-13)
    assert np.allclose(case.h(np.ones_like(t), t), sigma_x(1.0 + 0 * t, t), atol=1e-13)


def test_flux_rejects_interior_points():
    for case in cases().values():
        with pytest.raises(ValueError):
            case.h(np.array([0.5]), np.array([0.5]))


def test_flux_handles_mixed_sides_in_one_call():
    case = case_sine()
    x = np.array([0.25, 1.0, 0.75, 0.0])
    y = np.array([0.0, 0.25, 1.0, 0.75])
    expected = 2.0 * np.pi**3 * np.sin(np.pi * np.array([0.25, 0.25, 0.75, 0.75]))
    assert np.allclose(case.h(x, y), expected, atol=1e-11)


def test_sine_data_satisfy_constant_compatibility():
    # integral of f over the square equals the loop integral of h; both are
    # 16 pi^2, computed here with independent Gauss-Legendre quadrature
    case = case_sine()
    nodes, weights = np.polynomial.legendre.leggauss(24)
    s = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    xx, yy = np.meshgrid(s, s)
    ww = np.outer(w, w)
    vol = float(np.sum(case.f(xx, yy) * ww))

    t = s
    line = np.zeros_like(t)
    loop = 0.0
    for x, y in (
        (t, line),
        (np.ones_like(t), t),
        (t, np.ones_like(t)),
        (line, t),
    ):
        loop += float(np.sum(case.h(x, y) * w))

    assert abs(vol - 16.0 * np.pi**2) < 1e-10
    assert abs(loop - 16.0 * np.pi**2) < 1e-10
    # first moment: weighting by x balances as well (8 pi^2 each)
    vol_x = float(np.sum(xx * case.f(xx, yy) * ww))
    loop_x = 0.0
    for x, y in (
        (t, line),
        (np.ones_like(t), t),
        (t, np.ones_like(t)),
        (line, t),
    ):
        loop_x += float(np.sum(x * case.h(x, y) * w))
    assert abs(vol_x - 8.0 * np.pi**2) < 1e-10
    assert abs(loop_x - 8.0 * np.pi**2) < 1e-10


def test_error_norms_vanish_on_reproduced_functions():
    space = build_space(unit_square_mesh(4), 2)
    func = lambda x, y: 1.0 + x - 2.0 * y + 0.5 * x * y
    grad = lambda x, y: (1.0 + 0.5 * y, -2.0 + 0.5 * x)
    field = interpolate(space, func)
    assert l2_error(field, func) < 1e-13
    assert h1_error(field, func, grad) < 1e-12


def test_error_norm_of_zero_field_is_function_norm():
    space = build_space(unit_square_mesh(16), 1)
    zero = interpolate(space, 0.0)
    # |sin(pi x) sin(pi y)|_L2 = 1/2
    err = l2_error(zero, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert abs(err - 0.5) < 1e-4


def test_h1_error_takes_one_pass_over_the_points(monkeypatch):
    # the default rule's points are built once per space: by h1_error's L2 pass,
    # then read again, not rebuilt, by an l2_error on the same space
    rules = []

    def counted(mesh, rule, _quad_points=fem.quad_points):
        rules.append(rule)
        return _quad_points(mesh, rule)

    monkeypatch.setattr(fem, "quad_points", counted)
    case = case_sine()
    space = build_space(unit_square_mesh(4), 1)
    err = h1_error(interpolate(space, case.u_exact), case.u_exact, case.grad_u)
    assert rules == [fem.default_volume_rule(1)]
    assert err > l2_error(interpolate(space, case.u_exact), case.u_exact)
    assert len(rules) == 1


def test_l2_error_beyond_float_range_raises_floating_point_error():
    field = interpolate(build_space(unit_square_mesh(2), 1), 1e308)
    with pytest.raises(FloatingPointError):
        l2_error(field, 0.0)


def test_h1_error_beyond_float_range_raises_floating_point_error():
    space = build_space(unit_square_mesh(2), 1)
    zero_gradient = lambda x, y: (np.zeros_like(x), np.zeros_like(y))
    with pytest.raises(FloatingPointError):
        h1_error(interpolate(space, 1e308), 0.0, zero_gradient)
    # a finite L2 part whose gradient part overflows
    steep = interpolate(space, lambda x, y: 1e307 * x)
    with pytest.raises(FloatingPointError):
        h1_error(steep, lambda x, y: 1e307 * x, lambda x, y: (-1e308 * x, 0.0 * y))


def test_exact_solution_that_overflows_is_still_a_data_error():
    # the data are evaluated outside the norms' overflow scope
    from biharm.fem import DataError

    field = interpolate(build_space(unit_square_mesh(2), 1), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DataError):
            l2_error(field, lambda x, y: np.exp(1000.0 + x))


@pytest.mark.parametrize("component", [np.inf, 1j], ids=["infinite", "complex"])
def test_h1_error_refuses_a_gradient_that_is_not_a_finite_real(component):
    # the gradient goes through the data evaluator, as the exact solution does
    from biharm.fem import DataError

    field = interpolate(build_space(unit_square_mesh(2), 1), 0.0)
    with pytest.raises(DataError):
        h1_error(field, 0.0, lambda x, y: (component + 0 * x, 0 * y))


def test_h1_error_takes_a_constant_gradient_pair():
    field = interpolate(build_space(unit_square_mesh(2), 1), lambda x, y: x)
    assert h1_error(field, lambda x, y: x, lambda x, y: (1.0, 0.0)) < 1e-13
