"""Cascade solver for the fourth-order Neumann problem and its diagnostics."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mesh_properties import meshes

from biharm import biharmonic, poisson
from biharm.biharmonic import (
    CompatibilityError,
    NeumannProblem,
    compatibility_residual,
    solve_neumann,
    weak_form_residual,
)
from biharm.fem import (
    boundary_geometry,
    build_space,
    integrate,
    quad_points,
    segment_quadrature,
    triangle_quadrature,
)
from biharm.manufactured import case_sine, cases, l2_error
from biharm.mesh import unit_disk_mesh, unit_square_mesh
from biharm.polynomials import Polynomial2D, harmonic_basis
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
    for module in (biharmonic, poisson):
        monkeypatch.setattr(module, "normal_flux", lambda *args: calls.append(args))
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


def test_weak_form_rejects_unclamped_polynomials():
    _, prob = sine_problem()
    space = build_space(unit_square_mesh(4), 1)
    sol = solve_neumann(space, prob)
    x, y = Polynomial2D.x(), Polynomial2D.y()
    one = Polynomial2D.constant(1)
    with pytest.raises(ValueError):  # nonzero trace
        weak_form_residual(sol, x)
    with pytest.raises(ValueError):  # zero trace but nonzero normal derivative
        weak_form_residual(sol, x * (one - x) * y * (one - y))


def test_weak_form_requires_square_domain():
    space = build_space(unit_disk_mesh(2), 1)
    prob = NeumannProblem(1.0, 0.0, 0.25)
    sol = solve_neumann(space, prob)
    with pytest.raises(ValueError):
        weak_form_residual(sol, clamped_bubble())


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
    b_rule = segment_quadrature(5)
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
    assert calls == [prob.f]
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
