"""Dirichlet Poisson solves, flux recovery and overdetermined diagnostics."""

import math

import numpy as np
import pytest

from biharm import poisson
from biharm.biharmonic import NeumannProblem, solve_neumann
from biharm.fem import assemble_load, assemble_stiffness, build_space, interpolate
from biharm.manufactured import case_sine, l2_error
from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.poisson import (
    normal_flux,
    overdetermined_check,
    solve_dirichlet,
)
from biharm.polynomials import Polynomial2D
from biharm.sparse import cg_solve


def clamped_bubble():
    # (x(1-x))^2 (y(1-y))^2: zero value and zero normal derivative on the square
    x = Polynomial2D.x()
    y = Polynomial2D.y()
    one = Polynomial2D.constant(1)
    return (x * (one - x)) ** 2 * (y * (one - y)) ** 2


def integral_over_square(p: Polynomial2D):
    return sum(c / ((i + 1) * (j + 1)) for (i, j), c in p.coeffs.items())


def test_constant_boundary_data_reproduced():
    space = build_space(unit_square_mesh(4), 1)
    w = solve_dirichlet(space, 0.0, 2.5, rel_tol=1e-13)
    assert np.max(np.abs(w.coeffs - 2.5)) < 1e-10


def test_harmonic_linear_solution_reproduced():
    space = build_space(unit_square_mesh(5), 1)
    g = lambda x, y: 1.0 + 2.0 * x - y
    w = solve_dirichlet(space, 0.0, g, rel_tol=1e-13)
    exact = interpolate(space, g)
    assert np.max(np.abs(w.coeffs - exact.coeffs)) < 1e-10


def test_solver_iterations_metadata():
    space = build_space(unit_square_mesh(8), 1)
    w = solve_dirichlet(space, 1.0, 0.0)
    assert w.solver_iterations > 0
    # a mesh whose dofs all sit on the boundary never runs CG
    tiny = build_space(unit_square_mesh(1), 1)
    w0 = solve_dirichlet(tiny, 1.0, 0.0)
    assert w0.solver_iterations == 0
    assert np.array_equal(w0.coeffs, np.zeros(4))


@pytest.mark.parametrize("degree,min_rate", [(1, 1.9), (2, 2.9)])
def test_sine_dirichlet_convergence(degree, min_rate):
    u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    q = lambda x, y: -2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
    errs = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), degree)
        w = solve_dirichlet(space, q, 0.0, rel_tol=1e-12)
        errs.append(l2_error(w, u))
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) > min_rate


def test_membrane_center_against_series():
    # laplace(w) = 1, w = 0 on the unit square; closed-form separated series
    # for the center value, terms decay like exp(-k pi / 2)
    center = -0.125
    for k in range(1, 120, 2):
        center += (
            4.0
            / (math.pi**3 * k**3)
            * math.sin(k * math.pi / 2)
            / math.cosh(k * math.pi / 2)
        )
    errs = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        w = solve_dirichlet(space, 1.0, 0.0, rel_tol=1e-12)
        mid = np.where(
            (space.dof_coordinates[:, 0] == 0.5) & (space.dof_coordinates[:, 1] == 0.5)
        )[0][0]
        errs.append(abs(w.coeffs[mid] - center))
    assert errs[2] < 1e-4
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) > 1.8  # second order at the node


def test_field_source_satisfies_discrete_equations():
    from biharm.fem import assemble_mass, assemble_stiffness

    space = build_space(unit_square_mesh(6), 1)
    qf = interpolate(space, lambda x, y: x * y - 0.3)
    w = solve_dirichlet(space, qf, 0.0, rel_tol=1e-13)
    a = assemble_stiffness(space)
    m = assemble_mass(space)
    residual = a @ w.coeffs + m @ qf.coeffs
    interior = np.setdiff1d(np.arange(space.dof_count), space.boundary_dofs)
    assert np.max(np.abs(residual[interior])) < 1e-11
    assert np.max(np.abs(w.coeffs[space.boundary_dofs])) == 0.0


def test_field_source_from_other_space_rejected():
    space = build_space(unit_square_mesh(4), 1)
    other = build_space(unit_square_mesh(5), 1)
    qf = interpolate(other, 1.0)
    with pytest.raises(ValueError):
        solve_dirichlet(space, qf, 0.0)


def test_flux_total_matches_source_integral():
    # discrete divergence theorem: sum of flux functional = integral of source
    space = build_space(unit_square_mesh(8), 1)
    w = solve_dirichlet(space, 1.0, 0.0, rel_tol=1e-12)
    flux = normal_flux(w, 1.0)
    assert abs(flux.total() - 1.0) < 1e-10


def test_flux_of_known_linear_field():
    # w = x is discretely harmonic; exact flux is +1 on the right side,
    # -1 on the left, 0 on top and bottom

    def exact(x, y):
        out = np.zeros_like(x)
        out = np.where(np.abs(x - 1.0) < 1e-12, 1.0, out)
        out = np.where(np.abs(x) < 1e-12, -1.0, out)
        return out

    mismatches = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        w = solve_dirichlet(space, 0.0, lambda x, y: x, rel_tol=1e-13)
        flux = normal_flux(w, 0.0)
        assert abs(flux.total()) < 1e-10
        mismatches.append(flux.l2_mismatch(exact))
    # the jump at each corner caps the continuous projection at O(sqrt(h))
    assert mismatches[0] > mismatches[1] > mismatches[2]
    assert mismatches[2] < 0.2


def test_overdetermined_compatible_source():
    # p = laplacian of the clamped bubble: the zero-trace solution also has
    # zero normal derivative, so the leftover flux vanishes under refinement
    sigma = clamped_bubble().laplacian()
    assert integral_over_square(sigma) == 0
    values = []
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        res = overdetermined_check(space, sigma)
        assert abs(res.flux.total()) < 1e-7
        values.append(res.flux.l2_mismatch())
    assert values[0] > values[1] > values[2]
    assert values[2] < 5e-5
    assert math.log2(values[1] / values[2]) > 1.7


def test_overdetermined_incompatible_source():
    # p = 1 admits no solution with both boundary conditions: flux stays
    # bounded away from zero while total flux equals the source integral
    for n in (8, 16, 32):
        space = build_space(unit_square_mesh(n), 1)
        res = overdetermined_check(space, 1.0)
        assert abs(res.flux.total() - 1.0) < 1e-10
        assert res.flux.l2_mismatch() > 0.4


def fourth_order(space, p):
    """The fully homogeneous fourth-order problem: bilaplacian V = p with V,
    laplacian V and its flux all zero, whose cascade is the Neumann one."""
    return solve_neumann(space, NeumannProblem(p, 0.0, 0.0))


def test_fourth_order_compatible_cascade():
    sigma = clamped_bubble().laplacian()
    values = []
    for n in (8, 16):
        space = build_space(unit_square_mesh(n), 1)
        res = fourth_order(space, sigma)
        assert not res.sigma_h.coeffs[space.boundary_dofs].any()  # zero trace built in exactly
        assert abs(res.flux.total()) < 1e-7
        values.append(res.flux.l2_mismatch())
    assert values[0] > values[1]
    assert values[1] < 2e-4


def test_fourth_order_incompatible_source():
    # bilaplacian of the bubble: solvable for the trace conditions but the
    # Laplacian's normal derivative does not vanish, and the flux shows it
    f = clamped_bubble().laplacian().laplacian()
    total = float(integral_over_square(f))
    for n in (8, 16):
        space = build_space(unit_square_mesh(n), 1)
        res = fourth_order(space, f)
        assert abs(res.flux.total() - total) < 1e-8
        assert res.flux.l2_mismatch() > 0.5


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "p", [clamped_bubble().laplacian(), 1.0, lambda x, y: np.exp(x) * np.cos(2 * y)]
)
def test_fourth_order_cascade_is_the_overdetermined_probe_then_a_zero_trace_solve(p, degree):
    # bit for bit: the flux of U is the second-order probe's, and V solves laplace(V) = U
    space = build_space(unit_square_mesh(6), degree)
    res = fourth_order(space, p)
    probe = overdetermined_check(space, p).flux
    assert np.array_equal(res.flux.functional, probe.functional)
    assert np.array_equal(res.flux.projected, probe.projected)
    assert np.array_equal(res.s_h.coeffs, solve_dirichlet(space, res.sigma_h, 0.0).coeffs)


def test_cg_budget_is_checked_without_interior_dofs():
    # P1 on one cell has only boundary dofs, so no CG runs
    space = build_space(unit_square_mesh(1), 1)
    with pytest.raises(ValueError, match="rel_tol"):
        solve_dirichlet(space, 1.0, 0.0, rel_tol=math.nan)


@pytest.mark.parametrize("degree", [1, 2])
def test_lift_beyond_float_range_is_a_floating_point_error_before_cg(monkeypatch, degree):
    # scipy's CSR kernel overflows K @ lift to inf without a floating-point error
    def no_cg(*args, **kwargs):
        raise AssertionError("CG ran")

    monkeypatch.setattr(poisson, "cg_solve", no_cg)
    space = build_space(unit_square_mesh(4), degree)
    with pytest.raises(FloatingPointError, match="^lifted right-hand side beyond float range$"):
        solve_dirichlet(space, 0.0, 1e308)


@pytest.fixture
def assembly_counts(monkeypatch):
    """Count the assembly calls made through ``biharm.poisson``."""
    counts = {}
    for name in ("assemble_stiffness", "assemble_mass", "boundary_mass_matrix"):
        original = getattr(poisson, name)

        def counted(space, _original=original, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(space)

        monkeypatch.setattr(poisson, name, counted)
    return counts


def test_operators_assembled_once_per_space(assembly_counts):
    space = build_space(unit_square_mesh(6), 2)
    case = case_sine()
    problem = NeumannProblem(case.f, case.g, case.h)
    solve_neumann(space, problem)
    solve_neumann(space, NeumannProblem(case.f, case.g, 1.0))
    assert assembly_counts == {
        "assemble_stiffness": 1,
        "assemble_mass": 1,
        "boundary_mass_matrix": 1,
    }


def test_new_space_on_same_mesh_gets_its_own_operators(assembly_counts):
    mesh = unit_square_mesh(6)
    case = case_sine()
    problem = NeumannProblem(case.f, case.g, case.h)
    first = build_space(mesh, 1)
    solve_neumann(first, problem)
    cached = solve_neumann(first, problem)  # served from the operator cache
    second = build_space(mesh, 1)
    fresh = solve_neumann(second, problem)
    assert assembly_counts["assemble_stiffness"] == 2
    assert assembly_counts["assemble_mass"] == 2
    assert assembly_counts["boundary_mass_matrix"] == 2
    assert fresh.sigma_h.coeffs.tobytes() == cached.sigma_h.coeffs.tobytes()
    assert fresh.s_h.coeffs.tobytes() == cached.s_h.coeffs.tobytes()


# one residual r = K w + b: the lift is its interior rows, the flux its boundary rows
RESIDUAL_MESHES = {
    "square": lambda: unit_square_mesh(12),
    "disk": lambda: refine_uniform(unit_disk_mesh(3)),
}
SOURCE = lambda x, y: np.exp(x) * np.cos(3.0 * y)  # noqa: E731
TRACE = lambda x, y: np.sin(x * y) + 1.5 * x  # noqa: E731


def split_dofs(space):
    bdofs = space.boundary_dofs
    return np.setdiff1d(np.arange(space.dof_count), bdofs), bdofs


def a_ib_lift(space, source, g):
    """The interior right-hand side as formed through its own block
    A_ib = K[interior, boundary]: -b[I] - A_ib g."""
    interior, bdofs = split_dofs(space)
    b = assemble_load(space, source)
    a_ib = assemble_stiffness(space).submatrix(interior, bdofs)
    return -b[interior] - a_ib @ interpolate(space, g).coeffs[bdofs]


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", RESIDUAL_MESHES)
@pytest.mark.parametrize(
    "source, g",
    [(SOURCE, TRACE), (SOURCE, 0.0), (0.0, TRACE)],
    ids=["both", "zero-trace", "zero-source"],
)
def test_lift_through_k_is_the_a_ib_lift_bit_for_bit(monkeypatch, mesh, degree, source, g):
    space = build_space(RESIDUAL_MESHES[mesh](), degree)
    handed_to_cg = []

    def capture(a, b, **kwargs):
        handed_to_cg.append(b)
        return cg_solve(a, b, **kwargs)

    monkeypatch.setattr(poisson, "cg_solve", capture)
    solve_dirichlet(space, source, g)
    # a row of K @ (g, 0) adds only +-0 to A_ib's row sum, and a load entry is
    # never -0 (it is a sum from +0), so (-b) - s and -(b + s) agree in every bit
    assert handed_to_cg[0].tobytes() == a_ib_lift(space, source, g).tobytes()


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", RESIDUAL_MESHES)
def test_solve_and_flux_read_the_rows_of_one_residual(mesh, degree):
    space = build_space(RESIDUAL_MESHES[mesh](), degree)
    interior, bdofs = split_dofs(space)
    rel_tol = 1e-10
    w = solve_dirichlet(space, SOURCE, TRACE, rel_tol=rel_tol)
    residual = assemble_stiffness(space) @ w.coeffs + assemble_load(space, SOURCE)
    assert residual[bdofs].tobytes() == normal_flux(w, SOURCE).functional.tobytes()
    # the interior rows are the CG residual of A_ii x = rhs
    rhs_norm = np.linalg.norm(a_ib_lift(space, SOURCE, TRACE))
    assert np.linalg.norm(residual[interior]) <= rel_tol * rhs_norm


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("mesh", RESIDUAL_MESHES)
def test_cascade_and_overdetermined_probe_share_one_first_stage(mesh, degree):
    space = build_space(RESIDUAL_MESHES[mesh](), degree)
    cascade = fourth_order(space, SOURCE)
    probe = overdetermined_check(space, SOURCE)
    assert cascade.sigma_h.coeffs.tobytes() == probe.u.coeffs.tobytes()
    assert cascade.sigma_h.solver_iterations == probe.u.solver_iterations
    assert cascade.flux.functional.tobytes() == probe.flux.functional.tobytes()
    assert cascade.flux.projected.tobytes() == probe.flux.projected.tobytes()
