"""Cascade solver for the fourth-order Neumann problem and its diagnostics."""

import math
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mesh import _l_shape
from test_mesh_properties import meshes

from biharm import biharmonic, fem, poisson
from biharm.biharmonic import (
    CompatibilityError,
    NeumannProblem,
    compatibility_residual,
    solve_neumann,
    weak_form_residual,
)
from biharm.fem import (
    DataError,
    _data_values,
    boundary_geometry,
    boundary_integrate,
    build_space,
    default_boundary_rule,
    default_volume_rule,
    field_values,
    integrate,
    quad_points,
    triangle_geometry,
    triangle_quadrature,
)
from biharm.manufactured import case_sine, cases, l2_error
from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.polynomials import HarmonicPolynomial, Polynomial2D, harmonic_basis
from biharm.sparse import NonConvergenceError


def clamped_bubble():
    x, y = Polynomial2D.x(), Polynomial2D.y()
    one = Polynomial2D.constant(1)
    return (x * (one - x)) ** 2 * (y * (one - y)) ** 2


def sine_problem():
    case = case_sine()
    return case, NeumannProblem(case.f, case.g, case.h)


def test_zero_data_gives_zero_solution():
    space = build_space(unit_square_mesh(4), 1)
    sol = solve_neumann(space, NeumannProblem(0.0, 0.0, 0.0))
    assert np.array_equal(sol.sigma_h.coeffs, np.zeros(space.dof_count))
    assert np.array_equal(sol.s_h.coeffs, np.zeros(space.dof_count))
    assert sol.diagnostics.compat_max == 0.0
    assert sol.diagnostics.flux_mismatch == 0.0
    assert sol.diagnostics.cg_iterations == (0, 0)


@pytest.mark.parametrize("name", ["sine", "bubble"])
def test_cascade_converges_in_both_fields(name):
    case = cases()[name]
    prob = NeumannProblem(case.f, case.g, case.h)
    e_sigma, e_u = [], []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        sol = solve_neumann(space, prob, rel_tol=1e-11)
        e_sigma.append(l2_error(sol.sigma_h, case.sigma_exact))
        # both built-in solutions have zero trace, so the zero-trace
        # representative coincides with them
        e_u.append(l2_error(sol.s_h, case.u_exact))
    for errs in (e_sigma, e_u):
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) > 1.8


def test_flux_datum_never_enters_the_solve():
    case, prob = sine_problem()
    space = build_space(unit_square_mesh(8), 1)
    variants = [
        prob,
        NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0),
        NeumannProblem(case.f, case.g, 0.0),
        NeumannProblem(case.f, case.g, lambda x, y: np.cos(7.0 * x) - y),
    ]
    solutions = [solve_neumann(space, p) for p in variants]
    for other in solutions[1:]:
        assert np.array_equal(solutions[0].sigma_h.coeffs, other.sigma_h.coeffs)
        assert np.array_equal(solutions[0].s_h.coeffs, other.s_h.coeffs)


def test_compatibility_residuals_shrink_with_resolution():
    _, prob = sine_problem()
    basis = harmonic_basis(3)
    assert len(basis) == 7
    values = []
    for n in (4, 8, 16):
        space = build_space(unit_square_mesh(n), 1)
        values.append(np.abs(compatibility_residual(space, prob, basis)).max())
    assert values[0] > values[1] > values[2]
    space = build_space(unit_square_mesh(32), 1)
    assert np.abs(compatibility_residual(space, prob, basis)).max() <= 1e-4


def test_constant_flux_perturbation_shifts_first_residual_by_perimeter():
    case, prob = sine_problem()
    perturbed = NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0)
    space = build_space(unit_square_mesh(16), 1)
    basis = harmonic_basis(3)
    r0 = compatibility_residual(space, prob, basis)
    r1 = compatibility_residual(space, perturbed, basis)
    assert abs((r1[0] - r0[0]) + 4.0) < 1e-9


def test_strict_mode_accepts_compatible_data():
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(16), 1)
    sol = solve_neumann(space, prob, strict=True)
    assert sol.diagnostics.compat_max < 1e-3


def test_strict_mode_rejects_incompatible_data():
    case, _ = sine_problem()
    bad = NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0)
    space = build_space(unit_square_mesh(8), 1)
    with pytest.raises(CompatibilityError) as err:
        solve_neumann(space, bad, strict=True)
    assert err.value.tol == 1e-3
    assert np.abs(err.value.residuals).max() > 3.9  # the shifted constant term
    # loosening the tolerance lets the same data through
    sol = solve_neumann(space, bad, strict=True, strict_tol=10.0)
    assert sol.diagnostics.compat_max > 3.9


def test_flux_mismatch_decreases_for_compatible_data():
    case, prob = sine_problem()
    values = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        sol = solve_neumann(space, prob)
        values.append(sol.diagnostics.flux_mismatch)
        # default datum reproduces the stored diagnostic
        assert sol.flux.l2_mismatch(prob.h) == sol.diagnostics.flux_mismatch
    assert values[0] > values[1] > values[2]
    assert values[2] < 1.0


def test_flux_mismatch_bounded_below_for_incompatible_datum():
    # a unit constant added to h has boundary L2 norm 2; the mismatch can
    # approach but never drop below it
    case, prob = sine_problem()
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        sol = solve_neumann(space, prob)
        bad = sol.flux.l2_mismatch(lambda x, y: case.h(x, y) + 1.0)
        assert bad >= 1.0
        assert bad > sol.diagnostics.flux_mismatch


def test_flux_mismatch_reads_the_flux_the_solve_recovered(monkeypatch):
    case, prob = sine_problem()
    space = build_space(unit_square_mesh(8), 2)
    sol = solve_neumann(space, prob)
    shifted = lambda x, y: case.h(x, y) + 1.0  # noqa: E731
    recovered = poisson.normal_flux(sol.sigma_h, prob.f)
    assert np.array_equal(sol.flux.projected, recovered.projected)
    assert np.array_equal(sol.flux.functional, recovered.functional)
    calls = []
    monkeypatch.setattr(poisson, "normal_flux", lambda *args: calls.append(args))
    assert sol.flux.l2_mismatch(shifted) == recovered.l2_mismatch(shifted)
    assert sol.flux.l2_mismatch(prob.h) == recovered.l2_mismatch(prob.h)
    assert calls == []


@pytest.mark.parametrize("tol", [math.nan, -1e-3])
def test_strict_tolerance_must_be_a_nonnegative_number(tol):
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    bad = NeumannProblem(prob.f, prob.g, lambda x, y: prob.h(x, y) + 1.0)
    with pytest.raises(ValueError, match="strict tolerance"):
        solve_neumann(space, bad, strict=True, strict_tol=tol)


@pytest.mark.parametrize("tol", ["1", True, None, 1e-6 + 0j])
@pytest.mark.parametrize("strict", [True, False])
def test_strict_tolerance_that_is_not_a_real_number_is_refused_before_any_residual(
    tol, strict, monkeypatch
):
    # "1" raised a bare TypeError from the comparison, and True was a tolerance of 1.0
    def no_residuals(*args, **kwargs):
        raise AssertionError("compatibility residuals computed")

    monkeypatch.setattr(biharmonic, "compatibility_residual", no_residuals)
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    with pytest.raises(ValueError, match="strict tolerance must be a number >= 0"):
        solve_neumann(space, prob, strict=strict, strict_tol=tol)


@pytest.mark.parametrize("tol", [0, np.float64(1e-6), math.inf])
def test_strict_tolerance_takes_any_real_number_of_at_least_zero(tol):
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    bad = NeumannProblem(prob.f, prob.g, lambda x, y: prob.h(x, y) + 1.0)
    if tol == math.inf:
        assert solve_neumann(space, bad, strict=True, strict_tol=tol).diagnostics.compat_max > 1.0
    else:
        with pytest.raises(CompatibilityError):
            solve_neumann(space, bad, strict=True, strict_tol=tol)


@pytest.mark.parametrize("max_iter", [1.5, 100.0, True])
def test_a_budget_that_is_not_an_integer_is_refused_before_any_residual(max_iter, monkeypatch):
    def no_residuals(*args, **kwargs):
        raise AssertionError("compatibility residuals computed")

    monkeypatch.setattr(biharmonic, "compatibility_residual", no_residuals)
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    with pytest.raises(ValueError, match="^max_iter must be an integer"):
        solve_neumann(space, prob, max_iter=max_iter)


@pytest.mark.parametrize("harmonic_degree", [True, 2.0])
def test_a_harmonic_degree_that_is_not_an_integer_is_refused_before_any_residual(
    harmonic_degree, monkeypatch
):
    def no_residuals(*args, **kwargs):
        raise AssertionError("compatibility residuals computed")

    monkeypatch.setattr(biharmonic, "compatibility_residual", no_residuals)
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    with pytest.raises(ValueError, match="^kmax must be an integer"):
        solve_neumann(space, prob, harmonic_degree=harmonic_degree)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "bad",
    [{"strict_tol": math.nan}, {"rel_tol": -1.0}, {"max_iter": 1.5}, {"harmonic_degree": 2.0}],
    ids=["strict_tol", "rel_tol", "max_iter", "harmonic_degree"],
)
def test_a_cascade_checks_every_argument_before_it_calls_f(bad, degree):
    # at P2 the cascade evaluates f itself, outside compatibility_residual
    calls = []

    def f(x, y):
        calls.append(x.shape)
        return x

    space = build_space(unit_square_mesh(4), degree)
    with pytest.raises(ValueError):
        solve_neumann(space, NeumannProblem(f, 0.0, 0.0), **bad)
    assert calls == []


@pytest.mark.parametrize("eta", [lambda x, y: x, 3, None], ids=["lambda", "3", "None"])
def test_a_test_function_that_is_not_a_polynomial_is_refused_before_any_datum(eta):
    # each once raised a bare AttributeError; a lambda is a data callable, not a test function
    evaluated = []

    def f(x, y):
        evaluated.append(x.shape)
        return np.zeros_like(x)

    space = build_space(unit_square_mesh(2), 1)
    problem = NeumannProblem(f, 0.0, 0.0)
    solution = solve_neumann(space, problem)
    evaluated.clear()
    with pytest.raises(ValueError, match=r"^basis\[1\] must be a Polynomial2D, got "):
        compatibility_residual(space, problem, [Polynomial2D.constant(1), eta])
    with pytest.raises(ValueError, match="^r must be a Polynomial2D, got "):
        weak_form_residual(solution, eta)
    assert evaluated == []


def test_weak_form_residual_decreases():
    _, prob = sine_problem()
    r = clamped_bubble()
    values = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        sol = solve_neumann(space, prob)
        values.append(weak_form_residual(sol, r))
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.1


def pointwise_defect(sol, r) -> float:
    """|(sigma_h, bilap r) - l(lap r)| with every polynomial evaluated at the
    quadrature points, as the moment tables replace it."""
    rule = triangle_quadrature(6)
    mesh = sol.sigma_h.space.mesh
    x, y = quad_points(mesh, rule)
    omega = r.laplacian()
    sigma_term = integrate(mesh, rule, field_values(sol.sigma_h, rule) * omega.laplacian()(x, y))
    return abs(sigma_term - pointwise_functional(mesh, sol.problem, omega))


def test_weak_form_accepts_unclamped_polynomials():
    # Green's identity holds for v = lap r whatever r does on the boundary
    _, prob = sine_problem()
    sol = solve_neumann(build_space(unit_square_mesh(4), 1), prob)
    x, y = Polynomial2D.x(), Polynomial2D.y()
    one = Polynomial2D.constant(1)
    zero = weak_form_residual(sol, x)  # lap r = 0: every term vanishes
    assert zero == 0.0 and type(zero) is float
    for r in (x * (one - x) * y * (one - y), x**3 * y + y**4 + x**3 * y**2):
        assert weak_form_residual(sol, r) == pytest.approx(pointwise_defect(sol, r), rel=1e-12)


def test_weak_form_residual_on_the_disk():
    space = build_space(unit_disk_mesh(2), 1)
    prob = NeumannProblem(
        lambda x, y: np.ones_like(x),
        lambda x, y: np.zeros_like(x),
        lambda x, y: np.full_like(x, 0.25),
    )
    sol = solve_neumann(space, prob)
    r = clamped_bubble()  # clamped on the square, not on the disk
    assert weak_form_residual(sol, r) == pytest.approx(pointwise_defect(sol, r), rel=1e-12)


def _sigma_problem(normal):
    """The data of sigma = e^x cos 2y + x^2 y^2: f = laplace(sigma), g = sigma and
    h = grad(sigma) . n, with n = normal(x, y) the outward normal of the polygon
    side through a boundary point."""

    def h(x, y):
        nx, ny = normal(x, y)
        sx = np.exp(x) * np.cos(2.0 * y) + 2.0 * x * y**2
        sy = -2.0 * np.exp(x) * np.sin(2.0 * y) + 2.0 * x**2 * y
        return sx * nx + sy * ny

    return NeumannProblem(
        lambda x, y: -3.0 * np.exp(x) * np.cos(2.0 * y) + 2.0 * (x**2 + y**2),
        lambda x, y: np.exp(x) * np.cos(2.0 * y) + x**2 * y**2,
        h,
    )


def _disk_normal(x, y, sides=24):
    """Outward normal of unit_disk_mesh(4)'s 24-gon; boundary points lie inside
    its sides, never on a vertex."""
    side = np.floor(np.mod(np.arctan2(y, x), 2.0 * np.pi) * sides / (2.0 * np.pi))
    angle = 2.0 * np.pi * (side + 0.5) / sides
    return np.cos(angle), np.sin(angle)


def _l_shape_normal(x, y):
    """Outward normal of the sides x = 0, x = 1, x = 1/2 (y > 1/2), y = 0, y = 1
    and y = 1/2 (x > 1/2) of the L-shape."""
    sign = [-1.0, 1.0, 1.0]
    nx = np.select([np.isclose(x, 0.0), np.isclose(x, 1.0), np.isclose(x, 0.5) & (y > 0.5)], sign)
    ny = np.select([np.isclose(y, 0.0), np.isclose(y, 1.0), np.isclose(y, 0.5) & (x > 0.5)], sign)
    return nx, ny


def _refined_disk(k):
    mesh = unit_disk_mesh(4)
    for _ in range(k):
        mesh = refine_uniform(mesh)
    return mesh


# mesh of level k = 0, 1, 2 and the data solved on it
UNCLAMPED_LADDERS = {
    "square": (lambda k: unit_square_mesh(8 * 2**k), sine_problem()[1]),
    "disk": (_refined_disk, _sigma_problem(_disk_normal)),
    "l-shape": (lambda k: _l_shape(8 * 2**k), _sigma_problem(_l_shape_normal)),
}


@pytest.mark.parametrize("degree, min_rate", [(1, 1.9), (2, 3.8)], ids=["P1", "P2"])
@pytest.mark.parametrize("domain", UNCLAMPED_LADDERS)
def test_weak_form_residual_of_unclamped_r_converges(domain, degree, min_rate):
    build, prob = UNCLAMPED_LADDERS[domain]
    x, y = Polynomial2D.x(), Polynomial2D.y()
    r = x**3 * y + y**4 + x**3 * y**2  # neither its trace nor its normal derivative vanishes
    defects = [
        weak_form_residual(solve_neumann(build_space(build(k), degree), prob), r) for k in range(3)
    ]
    rates = np.log2(np.divide(defects[:-1], defects[1:]))
    assert rates.min() >= min_rate, defects


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "mesh", [unit_square_mesh(8), refine_uniform(unit_disk_mesh(3))], ids=["square", "disk"]
)
def test_weak_form_defect_of_harmonic_lap_r_is_the_compatibility_residual(mesh, degree):
    # incompatible data, so the residuals are far from zero
    prob = NeumannProblem(
        lambda x, y: np.exp(x) * np.cos(3.0 * y), lambda x, y: np.sin(x * y), lambda x, y: 1.0 + x
    )
    space = build_space(mesh, degree)
    sol = solve_neumann(space, prob)
    residuals = compatibility_residual(space, prob, harmonic_basis(3))
    x, y = Polynomial2D.x(), Polynomial2D.y()
    # lap r is Re z^2 = x^2 - y^2, then Im z^2 = 2xy; bilap r = 0 drops sigma_h
    for r, k in (((x**4 - y**4) * Fraction(1, 12), 3), ((x**3 * y + x * y**3) * Fraction(1, 6), 4)):
        assert float(weak_form_residual(sol, r)).hex() == float(abs(residuals[k])).hex()


def test_weak_form_residual_beyond_float_range_raises_floating_point_error():
    sol = solve_neumann(build_space(unit_square_mesh(8), 1), NeumannProblem(1e150, 0.0, 0.0))
    for scale in (10**160, 10**400):  # the pairing overflows, then the coefficient itself
        with pytest.raises(FloatingPointError):
            weak_form_residual(sol, clamped_bubble() * scale)


def _l_shape_data(u):
    """sigma = laplace(u) and the data of u on the L-shape: f = laplace(sigma),
    g = sigma and h = grad(sigma) . n."""
    sigma = u.laplacian()
    sx, sy = sigma.grad()

    def h(x, y):
        nx, ny = _l_shape_normal(x, y)
        return sx(x, y) * nx + sy(x, y) * ny

    return sigma, NeumannProblem(sigma.laplacian(), sigma, h)


def _nonzero_trace_u():
    # sigma = 16 (x^2 + y^2) + 20 x^3 y has degree 4: P2 reproduces a sigma of
    # degree 2 up to CG tolerance, and a rate of that error would measure noise
    x, y = Polynomial2D.x(), Polynomial2D.y()
    return (x**2 + y**2) ** 2 + x**5 * y


def _zero_trace_u():
    # vanishes on all six sides of the L-shape
    x, y = Polynomial2D.x(), Polynomial2D.y()
    one, half = Polynomial2D.constant(1), Polynomial2D.constant(Fraction(1, 2))
    return x * (one - x) * y * (one - y) * (x - half) * (y - half)


@pytest.mark.parametrize("degree, min_rate", [(1, 1.9), (2, 2.9)], ids=["P1", "P2"])
def test_sigma_h_keeps_its_full_rate_at_a_reentrant_corner(degree, min_rate):
    # for compatible data the sigma of the Neumann problem is unique and is the
    # H^1 Dirichlet solution, corner or no corner
    sigma, prob = _l_shape_data(_nonzero_trace_u())
    errors = []
    for k in range(3):
        sol = solve_neumann(build_space(_l_shape(8 * 2**k), degree), prob)
        assert sol.diagnostics.compat_max <= 1e-10
        errors.append(l2_error(sol.sigma_h, sigma))
    rates = np.log2(np.divide(errors[:-1], errors[1:]))
    assert rates.min() >= min_rate, errors


@pytest.mark.parametrize("degree, min_rate", [(1, 1.8), (2, 2.9)], ids=["P1", "P2"])
def test_s_h_of_zero_trace_data_converges_at_a_reentrant_corner(degree, min_rate):
    # u vanishes on the boundary, so the zero-trace representative s is u itself
    u = _zero_trace_u()
    _, prob = _l_shape_data(u)
    errors = [
        l2_error(solve_neumann(build_space(_l_shape(8 * 2**k), degree), prob).s_h, u)
        for k in range(3)
    ]
    rates = np.log2(np.divide(errors[:-1], errors[1:]))
    assert rates.min() >= min_rate, errors


@pytest.mark.parametrize("degree", [1, 2])
def test_s_h_of_nonzero_trace_data_is_not_h2_at_a_reentrant_corner(degree):
    # s = u - eta, with eta harmonic and equal to u on the boundary, carries a
    # c r^(2/3) sin(2 theta / 3) term at the corner (1/2, 1/2): nodal
    # self-convergence stays below first order, tending to 2/3. refine_uniform
    # keeps the vertex numbering, and vertex dofs come first at P1 and P2.
    _, prob = _l_shape_data(_nonzero_trace_u())
    mesh = _l_shape(8)
    vertices, nodal = [], []
    for _ in range(4):
        vertices.append(mesh.num_vertices)
        nodal.append(solve_neumann(build_space(mesh, degree), prob).s_h.coeffs)
        mesh = refine_uniform(mesh)
    gaps = [
        np.abs(fine[:nv] - coarse[:nv]).max() for nv, coarse, fine in zip(vertices, nodal, nodal[1:])
    ]
    rates = np.log2(np.divide(gaps[:-1], gaps[1:]))
    assert 0.0 < rates.min() and rates.max() < 1.0, gaps


def test_harmonic_degree_controls_residual_count():
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    sol1 = solve_neumann(space, prob, harmonic_degree=1)
    assert len(sol1.diagnostics.compat_residuals) == 3
    sol3 = solve_neumann(space, prob)
    assert len(sol3.diagnostics.compat_residuals) == 7


def test_iteration_budget_forwarded():
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(16), 1)
    with pytest.raises(NonConvergenceError):
        solve_neumann(space, prob, max_iter=2)
    sol = solve_neumann(space, prob)
    assert all(i > 0 for i in sol.diagnostics.cg_iterations)


def square_integral(p: Polynomial2D) -> Fraction:
    """Exact integral over the unit square: x^a y^b integrates to 1/((a+1)(b+1))."""
    return sum((c / ((a + 1) * (b + 1)) for (a, b), c in p.coeffs.items()), Fraction(0))


def exact_functional(f, g, h, eta) -> Fraction:
    """(f, eta) + <g, d(eta)/dn> - <h, eta> on the unit square, in rational
    arithmetic. On a side traced by substitution, the univariate integral is
    the square integral of the trace (its other exponent is 0)."""
    ex, ey = eta.grad()
    # (trace on the side, outward normal derivative of eta there)
    sides = [
        (lambda p: p.subs_y(0), -ey),
        (lambda p: p.subs_x(1), ex),
        (lambda p: p.subs_y(1), ey),
        (lambda p: p.subs_x(0), -ex),
    ]
    total = square_integral(f * eta)
    for trace, dn_eta in sides:
        total += square_integral(trace(g) * trace(dn_eta)) - square_integral(trace(h) * trace(eta))
    return total


def test_moment_table_matches_exact_rational_functional():
    # f of degree 2, g of degree 2, h of degree 1: eta of degree <= 3 keeps every
    # product within the order-6 volume and order-5 boundary rules, so the
    # quadrature is exact and only roundoff separates the two
    x, y = Polynomial2D.x(), Polynomial2D.y()
    f = Fraction(3, 2) - 2 * x + x * y + Fraction(5, 4) * y**2
    g = Fraction(1, 3) - x**2 + 2 * x * y + Fraction(1, 5) * y
    h = 2 - Fraction(3, 7) * x + y
    basis = harmonic_basis(3)
    exact = [float(exact_functional(f, g, h, eta)) for eta in basis]
    for mesh in (unit_square_mesh(1), unit_square_mesh(5)):
        residuals = compatibility_residual(build_space(mesh, 1), NeumannProblem(f, g, h), basis)
        assert np.abs(residuals - exact).max() <= 1e-12


def pointwise_functional(mesh, problem, eta) -> float:
    """l(eta) with eta evaluated at every quadrature point, as the moment
    table replaces it."""
    rule = triangle_quadrature(6)
    x, y = quad_points(mesh, rule)
    volume = integrate(mesh, rule, problem.f(x, y) * eta(x, y))
    b_rule = default_boundary_rule()
    bx, by, lengths, normals = boundary_geometry(mesh)
    ex, ey = eta.grad()
    dn_eta = ex(bx, by) * normals[:, 0:1] + ey(bx, by) * normals[:, 1:2]
    boundary = problem.g(bx, by) * dn_eta - problem.h(bx, by) * eta(bx, by)
    return volume + float(np.einsum("eq,q,e->", boundary, b_rule.weights, lengths))


unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=10, deadline=None)
@given(meshes(max_refine=1), st.integers(0, 4), st.tuples(*[unit] * 6))
def test_moment_table_matches_pointwise_functional(mesh, kmax, c):
    problem = NeumannProblem(
        lambda x, y: c[0] + c[1] * np.cos(x + 2.0 * y),
        lambda x, y: c[2] * np.exp(x * y) + c[3] * y,
        lambda x, y: c[4] * np.sin(3.0 * x - y) + c[5],
    )
    basis = harmonic_basis(kmax)
    residuals = compatibility_residual(build_space(mesh, 1), problem, basis)
    expected = [pointwise_functional(mesh, problem, eta) for eta in basis]
    assert np.abs(residuals - expected).max() <= 1e-12


def test_diagnostics_evaluate_no_polynomial_pointwise(monkeypatch):
    calls = []

    def counted(self, x, y, _call=Polynomial2D.__call__):
        calls.append(self)
        return _call(self, x, y)

    monkeypatch.setattr(Polynomial2D, "__call__", counted)
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(8), 1)
    sol = solve_neumann(space, prob)
    compatibility_residual(space, prob, harmonic_basis(8))
    weak_form_residual(sol, clamped_bubble())
    assert calls == []


@pytest.mark.parametrize("degree", [1, 2])
def test_one_load_of_the_source_per_cascade(degree, monkeypatch):
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(6), degree)
    sigma_h = poisson.solve_dirichlet(space, prob.f, prob.g)
    s_h = poisson.solve_dirichlet(space, sigma_h, 0.0)
    flux = poisson.normal_flux(sigma_h, prob.f)
    clamped_u = poisson.solve_dirichlet(space, prob.f, 0.0)
    clamped_flux = poisson.normal_flux(clamped_u, prob.f)

    calls = []

    def counted(space, q, _load=poisson.assemble_load):
        calls.append(q)
        return _load(space, q)

    monkeypatch.setattr(poisson, "assemble_load", counted)
    sol = solve_neumann(space, prob)
    if degree == 1:
        assert calls == [prob.f]
    else:  # f's values on the held points, which its compatibility table read too
        (values,) = calls
        assert values.tobytes() == _data_values(prob.f, *fem._volume_points(space)).tobytes()
    assert np.array_equal(sol.sigma_h.coeffs, sigma_h.coeffs)
    assert np.array_equal(sol.s_h.coeffs, s_h.coeffs)
    assert np.array_equal(sol.flux.functional, flux.functional)
    assert np.array_equal(sol.flux.projected, flux.projected)

    calls.clear()
    check = poisson.overdetermined_check(space, prob.f)
    assert calls == [prob.f]
    assert np.array_equal(check.u.coeffs, clamped_u.coeffs)
    assert np.array_equal(check.flux.functional, clamped_flux.functional)
    assert np.array_equal(check.flux.projected, clamped_flux.projected)


def out_of_place_moment_table(integral, vals, x, y, degree):
    """Reference moment table: every running product a new array, as first written."""
    size = max(degree + 1, 0)
    table = np.zeros((size, size))
    column = vals
    for i in range(size):
        term = column
        for j in range(size - i):
            table[i, j] = integral(term)
            term = term * y
        column = column * x
    return table


# no element or boundary edge count a multiple of 7; the small disk adds a --kmax 64 table
MOMENT_MESHES = {
    "square": (unit_square_mesh(8), range(-1, 7)),
    "disk": (refine_uniform(unit_disk_mesh(6)), range(-1, 7)),
    "small": (unit_disk_mesh(2), [*range(-1, 7), 64]),
}


@pytest.mark.parametrize("name", sorted(MOMENT_MESHES))
def test_moment_table_is_bit_identical_to_the_out_of_place_oracle(name, monkeypatch):
    mesh, degrees = MOMENT_MESHES[name]
    rule = triangle_quadrature(6)
    x, y = quad_points(mesh, rule)
    bx, by, lengths, normals = boundary_geometry(mesh)
    _, _, det, _ = triangle_geometry(mesh)
    sets = [
        (lambda v: integrate(mesh, rule, v), det, rule.weights, x, y),
        (lambda v: boundary_integrate(mesh, v), lengths, default_boundary_rule().weights, bx, by),
    ]
    for integral, sizes, weights, px, py in sets:
        assert len(px) % 7  # blocks of 7 end in a partial one
        constant = _data_values(-1.75, px, py)  # a read-only broadcast view
        assert not constant.flags.writeable
        datas = [constant, np.exp(px) * np.cos(2.0 * py) - px * py, np.sin(px + py) + 0.5]
        if px is bx:
            datas.append(_data_values(lambda a, b: a * b, px, py) * normals[:, 1:2])
        for vals in datas:
            before = np.array(vals)
            for degree in degrees:
                expected = out_of_place_moment_table(integral, vals, px, py, degree)
                # one element per block, a partial last block, the default, one block for all
                for block in (1, 7, biharmonic._BLOCK, 10**6):
                    monkeypatch.setattr(biharmonic, "_BLOCK", block)
                    table = biharmonic._moment_table(sizes, weights, px, py, vals, degree)
                    assert table.shape == expected.shape == (max(degree + 1, 0),) * 2
                    assert np.array_equal(table, expected)
            assert np.array_equal(vals, before)


# more than one block of 2,048 triangles, the last a partial one
BLOCK_MESHES = {"square": unit_square_mesh(34), "disk": refine_uniform(unit_disk_mesh(10))}
X, Y = Polynomial2D.x(), Polynomial2D.y()
VOLUME_DATA = {
    "callable": lambda x, y: np.exp(x) * np.cos(2.0 * y) - x * y,
    # broadcast on each block; T[0, 0] sums 1/3 in another order than its copy
    "constant": 1 / 3,
    "polynomial": Fraction(3, 2) - 2 * X + X * Y**2 + Fraction(5, 4) * Y**3,
}
KMAX = (0, 1, 3, 4, 13, 14, 64)  # one group of table rows up to 4, then 4, 5 and 54


def oracle_tables(mesh, problem, degree):
    """The volume table and the three boundary tables of the out-of-place oracle on the
    full quad_points and boundary points."""
    rule = triangle_quadrature(6)
    x, y = quad_points(mesh, rule)
    bx, by, _, normals = boundary_geometry(mesh)
    volume, boundary = partial(integrate, mesh, rule), partial(boundary_integrate, mesh)
    g = _data_values(problem.g, bx, by)
    return (
        out_of_place_moment_table(volume, _data_values(problem.f, x, y), x, y, degree),
        out_of_place_moment_table(boundary, g * normals[:, 0:1], bx, by, degree - 1),
        out_of_place_moment_table(boundary, g * normals[:, 1:2], bx, by, degree - 1),
        out_of_place_moment_table(boundary, _data_values(problem.h, bx, by), bx, by, degree),
    )


def oracle_terms(tables, eta):
    """The three terms of l(eta) from oracle tables, paired as the library pairs them."""
    f_table, gx_table, gy_table, h_table = tables
    pair = biharmonic._pair
    ex, ey = eta.grad()
    return pair(f_table, eta), pair(gx_table, ex) + pair(gy_table, ey), pair(h_table, eta)


@pytest.mark.parametrize("datum", sorted(VOLUME_DATA))
@pytest.mark.parametrize("name", sorted(BLOCK_MESHES))
def test_residuals_in_blocks_and_groups_are_bit_identical_to_the_oracle(name, datum, monkeypatch):
    mesh = BLOCK_MESHES[name]
    assert mesh.num_triangles > biharmonic._BLOCK and mesh.num_triangles % biharmonic._BLOCK
    assert mesh.num_triangles % 7
    problem = NeumannProblem(VOLUME_DATA[datum], lambda x, y: np.sin(x * y), lambda x, y: 1.0 + x)
    tables = oracle_tables(mesh, problem, max(KMAX))
    basis = harmonic_basis(max(KMAX))
    expected = np.array([volume + g - h for volume, g, h in (oracle_terms(tables, eta) for eta in basis)])
    # the default block at every kmax, then blocks of 7 triangles, a partial last one, at two
    for block, kmaxes in ((biharmonic._BLOCK, KMAX), (7, (3, 14))):
        monkeypatch.setattr(biharmonic, "_BLOCK", block)
        for degree in (1, 2):
            space = build_space(mesh, degree)
            volume_moments, _ = biharmonic._data_functional(space, problem, 0)
            problems = [problem]
            if degree == 2:  # the cascade's f: its values on the held order-6 points
                problems.append(replace(problem, f=_data_values(problem.f, *fem._volume_points(space))))
            for kmax in kmaxes:
                for given in problems:
                    residuals = compatibility_residual(space, given, harmonic_basis(kmax))
                    assert residuals.tobytes() == expected[: 2 * kmax + 1].tobytes()
                table = volume_moments(lambda rows, x, y: _data_values(problem.f, x, y), kmax)
                size = kmax + 1
                inside = np.add.outer(range(size), range(size)) < size
                assert np.array_equal(table, np.where(inside, tables[0][:size, :size], 0.0))


@pytest.mark.parametrize("degree", [1, 2])
def test_weak_form_residual_in_blocks_and_groups_is_bit_identical_to_the_oracle(degree):
    mesh = BLOCK_MESHES["disk"]
    problem = NeumannProblem(VOLUME_DATA["callable"], lambda x, y: np.sin(x * y), lambda x, y: 1.0 + x)
    sol = solve_neumann(build_space(mesh, degree), problem)
    rule = triangle_quadrature(6)
    x, y = quad_points(mesh, rule)
    sigma = field_values(sol.sigma_h, rule)
    # lap r of degree 1, 4, 6 and 18, bilap r of degree -1, 2, 4 and 16: one group
    # of table rows or several
    for r in (X**3, X**4 * Y**2 - Y**5, X**8 + X**3 * Y**5, X**14 * Y**6 - X**19 + Y**3):
        omega = r.laplacian()
        bilap = omega.laplacian()
        tables = oracle_tables(mesh, problem, max(omega.degree, 0))
        term_sigma = biharmonic._pair(
            out_of_place_moment_table(partial(integrate, mesh, rule), sigma, x, y, bilap.degree),
            bilap,
        )
        term_f, term_g, term_h = oracle_terms(tables, omega)
        expected = abs(term_sigma - term_f - term_g + term_h)
        assert float(weak_form_residual(sol, r)).hex() == float(expected).hex()


@pytest.mark.parametrize("n, kmax", [(128, 3), (64, 64)])
def test_compatibility_table_memory_is_bounded(n, kmax):
    space = build_space(unit_square_mesh(n), 1)
    problem = NeumannProblem(lambda x, y: np.sin(x) * np.cos(y), 0.0, 0.0)
    basis = harmonic_basis(kmax)
    compatibility_residual(space, problem, basis)  # geometry is built once per mesh, outside the bound
    tracemalloc.start()
    try:
        compatibility_residual(space, problem, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the full-array table peaked at 20.0 MB at n = 128, kmax 3, and held 8.4 MB
    # at n = 64, kmax 64: the (T, 16) points, data and running product and one row
    # of sums per entry of a table row, 129 doubles per triangle
    n_tri = space.mesh.num_triangles
    bound = 6e6 if kmax == 3 else 1.1 * 129 * n_tri * np.dtype(float).itemsize
    assert peak <= bound


def test_a_datum_sees_each_point_once_in_blocks_of_at_most_2048_triangles():
    space = build_space(BLOCK_MESHES["disk"], 1)
    seen = []

    def datum(x, y):
        seen.append(x.shape)
        return x * y

    compatibility_residual(space, NeumannProblem(datum, 0.0, 0.0), harmonic_basis(64))
    assert all(rows <= 2048 and nq == 16 for rows, nq in seen)
    assert sum(rows for rows, _ in seen) == space.mesh.num_triangles
    assert len(seen) == -(-space.mesh.num_triangles // 2048)


def test_a_recording_f_sees_the_held_points_once_at_p2():
    space = build_space(BLOCK_MESHES["disk"], 2)
    seen = []

    def f(x, y):
        seen.append((x, y))
        return x * y

    compatibility_residual(space, NeumannProblem(f, 0.0, 0.0), harmonic_basis(64))
    # one run of rows, the held arrays themselves, over every pass of the table
    ((x, y),) = seen
    assert x is fem._volume_points(space)[0] and y is fem._volume_points(space)[1]
    assert x.shape == (space.mesh.num_triangles, 16)


@pytest.mark.parametrize("degree", [1, 2])
def test_a_cascade_reaches_the_table_through_one_compatibility_residual_call(degree, monkeypatch):
    space = build_space(BLOCK_MESHES["disk"], degree)
    problem = NeumannProblem(VOLUME_DATA["callable"], lambda x, y: np.sin(x * y), lambda x, y: 1.0 + x)
    calls = []

    def counted(space, problem, basis, _residual=biharmonic.compatibility_residual):
        calls.append(problem)
        return _residual(space, problem, basis)

    monkeypatch.setattr(biharmonic, "compatibility_residual", counted)
    for _ in range(2):  # a first cascade builds the operators, a second reuses them
        calls.clear()
        sol = solve_neumann(space, problem)
        (given,) = calls
        assert (given.g, given.h) == (problem.g, problem.h)
        if degree == 1:
            assert given.f is problem.f
        else:  # f's values on the held points, which the load reads too
            assert given.f.tobytes() == _data_values(problem.f, *fem._volume_points(space)).tobytes()
    expected = compatibility_residual(space, problem, harmonic_basis(3))
    assert sol.diagnostics.compat_residuals.tobytes() == expected.tobytes()


@pytest.mark.parametrize("degree", [1, 2])
def test_a_non_finite_datum_in_the_last_block_names_the_first_bad_point(degree):
    mesh = BLOCK_MESHES["disk"]
    x, y = quad_points(mesh, triangle_quadrature(6))
    last = slice(biharmonic._BLOCK, None)
    bad = [(x[last][-1, 5], y[last][-1, 5]), (x[last][40, 7], y[last][40, 7])]

    def f(px, py):
        hit = np.zeros(px.shape, dtype=bool)
        for bx, by in bad:
            hit |= (px == bx) & (py == by)
        return np.where(hit, np.inf, px)

    assert np.isfinite(f(x[: biharmonic._BLOCK], y[: biharmonic._BLOCK])).all()
    with pytest.raises(DataError) as whole:
        _data_values(f, x, y)  # the message of the data evaluated whole
    with pytest.raises(DataError) as blocked:
        compatibility_residual(build_space(mesh, degree), NeumannProblem(f, 0.0, 0.0), harmonic_basis(3))
    assert str(blocked.value) == str(whole.value)
    assert f"({x[last][40, 7]:.6g}, {y[last][40, 7]:.6g})" in str(blocked.value)
    # a cascade, which at P2 evaluates f whole, names the same point before any operator
    space = build_space(mesh, degree)
    with pytest.raises(DataError) as cascade:
        solve_neumann(space, NeumannProblem(f, 0.0, 0.0))
    assert str(cascade.value) == str(whole.value)
    assert "_poisson_operators" not in vars(space)


@pytest.mark.parametrize("degree", [1, 2])
def test_a_cascade_calls_f_once_at_p2_and_per_table_block_and_for_the_load_at_p1(degree):
    space = build_space(BLOCK_MESHES["disk"], degree)
    n_tri, load_points = space.mesh.num_triangles, len(default_volume_rule(degree).weights)
    shapes = []

    def f(x, y):
        shapes.append(x.shape)
        return np.sin(x) * np.cos(y)

    for _ in range(2):  # a first cascade builds the operators, a second reuses them
        shapes.clear()
        solve_neumann(space, NeumannProblem(f, 0.0, 0.0))
        if degree == 2:  # the held order-6 points, read by the table and the load
            assert shapes == [(n_tri, 16)]
        else:
            assert len(shapes) == 1 + -(-n_tri // biharmonic._BLOCK)
            assert shapes[-1] == (n_tri, load_points) and all(nq == 16 for _, nq in shapes[:-1])


def test_a_p2_cascade_frees_the_values_of_f_before_it_builds_the_operators(monkeypatch):
    refs, alive = [], []

    def f(x, y):
        values = np.sin(x) * np.cos(y)
        refs.append(weakref.ref(values))
        return values

    def watched(space, _assemble=poisson._assemble_operators):
        alive.append([ref() is not None for ref in refs])
        return _assemble(space)

    monkeypatch.setattr(poisson, "_assemble_operators", watched)
    solve_neumann(build_space(unit_square_mesh(8), 2), NeumannProblem(f, 0.0, 0.0))
    assert len(refs) == 1 and alive == [[False]]


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("datum", sorted(VOLUME_DATA))
def test_a_cascade_gives_the_bits_of_its_separate_stages(datum, degree):
    space = build_space(BLOCK_MESHES["square"], degree)
    problem = NeumannProblem(VOLUME_DATA[datum], lambda x, y: np.sin(x * y), lambda x, y: 1.0 + x)
    sol = solve_neumann(space, problem, harmonic_degree=4)
    sigma_h = poisson.solve_dirichlet(space, problem.f, problem.g)
    s_h = poisson.solve_dirichlet(space, sigma_h, 0.0)
    flux = poisson.normal_flux(sigma_h, problem.f)
    residuals = compatibility_residual(space, problem, harmonic_basis(4))
    assert sol.diagnostics.compat_residuals.tobytes() == residuals.tobytes()
    assert sol.sigma_h.coeffs.tobytes() == sigma_h.coeffs.tobytes()
    assert sol.s_h.coeffs.tobytes() == s_h.coeffs.tobytes()
    assert sol.flux.functional.tobytes() == flux.functional.tobytes()
    assert sol.flux.projected.tobytes() == flux.projected.tobytes()
    assert sol.diagnostics.flux_mismatch == flux.l2_mismatch(problem.h)
    assert sol.diagnostics.cg_iterations == (sigma_h.solver_iterations, s_h.solver_iterations)


@pytest.mark.parametrize("constant", ["g", "h"])
@pytest.mark.parametrize("name", sorted(BLOCK_MESHES))
def test_boundary_tables_of_the_constant_one_third_are_bit_identical_to_the_oracle(name, constant):
    # a broadcast 1/3 sums T[0, 0] in another order than its copy on the 3-point
    # boundary rule too, which the h table pins; g n is a product, formed before
    # its table, so its case pins the values but cannot tell the two orders apart
    mesh = BLOCK_MESHES[name]
    data = {"g": lambda x, y: np.sin(x * y), "h": lambda x, y: 1.0 + x, constant: 1 / 3}
    problem = NeumannProblem(VOLUME_DATA["callable"], data["g"], data["h"])
    tables = oracle_tables(mesh, problem, 4)
    for degree in (1, 2):
        _, terms = biharmonic._data_functional(build_space(mesh, degree), problem, 4)
        for eta in harmonic_basis(4):  # 1 reads the h table's T[0, 0], x and y the g n tables'
            assert np.array(terms(eta)).tobytes() == np.array(oracle_terms(tables, eta)).tobytes()


def test_a_bad_f_is_reported_before_a_bad_g_and_a_bad_g_before_a_bad_h():
    space = build_space(BLOCK_MESHES["square"], 1)
    nan, inf, minus = (lambda x, y, v=v: np.full(np.shape(x), v) for v in (np.nan, np.inf, -np.inf))
    for problem, value in [
        (NeumannProblem(nan, inf, minus), "nan"),
        (NeumannProblem(1.0, inf, minus), "inf"),
        (NeumannProblem(1.0, 0.0, minus), "-inf"),
    ]:
        with pytest.raises(DataError, match=f"^datum is {value} at"):
            compatibility_residual(space, problem, harmonic_basis(3))


def test_cascade_whose_flux_mismatch_overflows_raises_floating_point_error():
    space = build_space(unit_square_mesh(2), 1)
    with pytest.raises(FloatingPointError):
        solve_neumann(space, NeumannProblem(1e308, 0.0, 0.0))


def test_compatibility_residual_beyond_float_range_raises_floating_point_error():
    space = build_space(unit_square_mesh(2), 1)
    problem = NeumannProblem(1e308, 1e308, 1e308)
    with pytest.raises(FloatingPointError):
        compatibility_residual(space, problem, harmonic_basis(3))
    huge = HarmonicPolynomial({(0, 0): 10**400})  # a coefficient beyond float range
    with pytest.raises(FloatingPointError):
        compatibility_residual(space, NeumannProblem(1.0, 0.0, 0.0), [huge])
