"""Metamorphic invariants of the cascade on random meshes: a relabelled mesh, a
quarter turn, a reflection or a dilation of the mesh and data, and a linear
combination of data give the fields, compatibility residuals and flux total
that the relation predicts.

Each relation is checked to TOL relative to the size of the compared values.
CG stops each solve at a relative residual of REL_TOL, so two solves of the
same discrete problem differ by about REL_TOL times the solution; TOL allows a
factor of 100 for the conditioning of the interior systems. A wrong dof map,
edge numbering or boundary orientation misses by far more.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mesh_properties import meshes

from biharm.biharmonic import NeumannProblem, solve_neumann
from biharm.fem import build_space
from biharm.mesh import Mesh

PROPERTY_SETTINGS = settings(max_examples=8, deadline=None)
REL_TOL = 1e-10
TOL = 100 * REL_TOL
degrees = pytest.mark.parametrize("degree", [1, 2])
weights = st.floats(-3.0, 3.0, allow_nan=False)

# polynomial data: every volume and boundary integral is exact on the quadrature
# rules, so a relabelling that moves the quadrature points changes only rounding
POLYNOMIAL = NeumannProblem(
    lambda x, y: 1.0 + x * y,
    lambda x, y: x * x - y,
    lambda x, y: 0.5 + x,
)
SMOOTH = NeumannProblem(
    lambda x, y: np.cos(x) - y,
    lambda x, y: np.sin(y) + 1.0,
    lambda x, y: x * y,
)


def _solve(mesh, degree, problem):
    return solve_neumann(build_space(mesh, degree), problem, rel_tol=REL_TOL)


def _close(actual, expected, scale):
    assert np.abs(np.asarray(actual) - expected).max() <= TOL * scale


def _relabelled(mesh, seed):
    """The mesh with its vertices and triangles permuted and each triangle's
    corners shifted cyclically: the same triangulation, numbered anew."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.num_vertices)  # old vertex i is new vertex perm[i]
    triangles = perm[mesh.triangles][rng.permutation(mesh.num_triangles)]
    shift = rng.integers(0, 3, size=(len(triangles), 1))
    triangles = np.take_along_axis(triangles, (np.arange(3) + shift) % 3, axis=1)
    return Mesh(mesh.vertices[np.argsort(perm)], triangles)


def _by_coordinate(field):
    """The field's coefficients and dof coordinates, in lexicographic (x, y) order."""
    xy = field.space.dof_coordinates
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    return field.coeffs[order], xy[order]


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1), st.integers(0, 2**32 - 1))
def test_relabelling_the_mesh_moves_no_value(degree, mesh, seed):
    base = _solve(mesh, degree, POLYNOMIAL)
    moved = _solve(_relabelled(mesh, seed), degree, POLYNOMIAL)
    for name in ("sigma_h", "s_h"):
        values, xy = _by_coordinate(getattr(base, name))
        moved_values, moved_xy = _by_coordinate(getattr(moved, name))
        assert moved_xy.tobytes() == xy.tobytes()
        _close(moved_values, values, np.abs(values).max())
    residuals = base.diagnostics.compat_residuals
    _close(moved.diagnostics.compat_residuals, residuals, 1.0 + np.abs(residuals).max())
    _close(moved.flux.total(), base.flux.total(), np.abs(base.flux.functional).sum())


def _quarter_turn(problem):
    """The data of ``problem`` carried by the rotation (x, y) -> (-y, x)."""
    def turned(datum):
        return lambda u, v: datum(v, -u)

    return NeumannProblem(turned(problem.f), turned(problem.g), turned(problem.h))


def _turned_residuals(residuals):
    """Residuals of the turned data in the harmonic basis: eta of the turned
    domain pulls back to eta(-y, x), and Re, Im of (i z)^k = i^k z^k mix the
    degree-k pair by the rotation (c, s) = (Re i^k, Im i^k)."""
    turned = residuals.copy()
    for k in range(1, (len(residuals) - 1) // 2 + 1):
        c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][k % 4]
        re, im = residuals[2 * k - 1], residuals[2 * k]
        turned[2 * k - 1], turned[2 * k] = c * re - s * im, s * re + c * im
    return turned


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_a_quarter_turn_of_mesh_and_data_turns_the_solution(degree, mesh):
    # negation is exact, so the turned vertices, dof coordinates and quadrature
    # points are the originals turned, and the dof numbering is the same
    x, y = mesh.vertices.T
    turned_mesh = Mesh(np.column_stack([-y, x]), mesh.triangles)
    base = _solve(mesh, degree, SMOOTH)
    turned = _solve(turned_mesh, degree, _quarter_turn(SMOOTH))
    for name in ("sigma_h", "s_h"):
        values = getattr(base, name).coeffs
        _close(getattr(turned, name).coeffs, values, np.abs(values).max())
    residuals = base.diagnostics.compat_residuals
    expected = _turned_residuals(residuals)
    _close(turned.diagnostics.compat_residuals, expected, 1.0 + np.abs(residuals).max())
    _close(turned.flux.total(), base.flux.total(), np.abs(base.flux.functional).sum())


def _combination(a, p, b, q):
    """The data a * p + b * q."""

    def mix(u, v):
        return lambda x, y: a * u(x, y) + b * v(x, y)

    return NeumannProblem(mix(p.f, q.f), mix(p.g, q.g), mix(p.h, q.h))


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1), weights, weights)
def test_the_cascade_is_linear_in_the_data(degree, mesh, a, b):
    space = build_space(mesh, degree)
    solutions = [
        solve_neumann(space, problem, rel_tol=REL_TOL)
        for problem in (POLYNOMIAL, SMOOTH, _combination(a, POLYNOMIAL, b, SMOOTH))
    ]
    for name in ("sigma_h", "s_h"):
        u, v, w = (getattr(sol, name).coeffs for sol in solutions)
        _close(w, a * u + b * v, abs(a) * np.abs(u).max() + abs(b) * np.abs(v).max())
    u, v, w = (sol.diagnostics.compat_residuals for sol in solutions)
    _close(w, a * u + b * v, abs(a) * np.abs(u).max() + abs(b) * np.abs(v).max())
    u, v, w = (sol.flux.functional for sol in solutions)
    scale = abs(a) * np.abs(u).sum() + abs(b) * np.abs(v).sum()
    _close(w.sum(), a * u.sum() + b * v.sum(), scale)


def _pulled_back(problem, map_point, scales=(1.0, 1.0, 1.0)):
    """The data of ``problem`` composed with ``map_point``, each datum times its scale."""
    def moved(datum, scale):
        return lambda u, v: scale * datum(*map_point(u, v))

    f, g, h = (moved(d, c) for d, c in zip((problem.f, problem.g, problem.h), scales))
    return NeumannProblem(f, g, h)


def _reflected_residuals(residuals):
    """Residuals of the reflected data: eta of the reflected domain pulls back to
    eta(-x, y), and Re, Im of (-conj z)^k are (-1)^k Re z^k, (-1)^(k+1) Im z^k."""
    reflected = residuals.copy()
    for k in range(1, (len(residuals) - 1) // 2 + 1):
        reflected[2 * k - 1] *= (-1) ** k
        reflected[2 * k] *= (-1) ** (k + 1)
    return reflected


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_a_reflection_of_mesh_and_data_reflects_the_solution(degree, mesh):
    # (x, y) -> (-x, y) reverses each triangle, so two of its corners swap; that
    # moves the quadrature points, and polynomial data keep every integral exact
    x, y = mesh.vertices.T
    mirrored = Mesh(np.column_stack([-x, y]), mesh.triangles[:, [0, 2, 1]])
    base = _solve(mesh, degree, POLYNOMIAL)
    reflected = _solve(mirrored, degree, _pulled_back(POLYNOMIAL, lambda u, v: (-u, v)))
    # the dofs are numbered as before, each at the reflection of its old coordinate
    xy = base.sigma_h.space.dof_coordinates
    mirrored_xy = np.column_stack([-xy[:, 0], xy[:, 1]])
    assert reflected.sigma_h.space.dof_coordinates.tobytes() == mirrored_xy.tobytes()
    for name in ("sigma_h", "s_h"):
        values = getattr(base, name).coeffs
        _close(getattr(reflected, name).coeffs, values, np.abs(values).max())
    residuals = base.diagnostics.compat_residuals
    expected = _reflected_residuals(residuals)
    _close(reflected.diagnostics.compat_residuals, expected, 1.0 + np.abs(residuals).max())
    _close(reflected.flux.total(), base.flux.total(), np.abs(base.flux.functional).sum())


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_a_dilation_by_two_scales_the_solution(degree, mesh):
    # u'(x) = u(x / 2) solves the problem on 2 * mesh with data f / 16, g / 4, h / 8;
    # doubling is exact, so the quadrature points double and the data agree
    dilated = Mesh(2.0 * mesh.vertices, mesh.triangles)
    data = _pulled_back(SMOOTH, lambda u, v: (u / 2.0, v / 2.0), (1 / 16, 1 / 4, 1 / 8))
    base = _solve(mesh, degree, SMOOTH)
    scaled = _solve(dilated, degree, data)
    sigma = base.sigma_h.coeffs
    _close(scaled.sigma_h.coeffs, sigma / 4.0, np.abs(sigma).max() / 4.0)
    s = base.s_h.coeffs
    _close(scaled.s_h.coeffs, s, np.abs(s).max())
    # eta of degree k on the dilated domain pulls back to 2^k eta
    residuals = base.diagnostics.compat_residuals
    degree_k = (np.arange(len(residuals)) + 1) // 2  # 0, then 1, 1, 2, 2, ...
    expected = residuals * 2.0**degree_k / 4.0
    _close(scaled.diagnostics.compat_residuals, expected, 1.0 + np.abs(expected).max())
    _close(scaled.flux.total(), base.flux.total() / 4.0, np.abs(base.flux.functional).sum() / 4.0)
