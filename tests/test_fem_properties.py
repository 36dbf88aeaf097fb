"""Property tests of assembly, flux recovery and the cascade on random meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mesh_properties import meshes

from biharm.biharmonic import NeumannProblem, solve_neumann
from biharm.fem import (
    assemble_mass,
    assemble_stiffness,
    boundary_geometry,
    boundary_integrate,
    boundary_l2_error,
    boundary_mass_matrix,
    build_space,
    field_gradients,
    integrate,
    interpolate,
    quad_points,
    triangle_quadrature,
)
from biharm.poisson import normal_flux, solve_dirichlet
from biharm.sparse import matvec

PROPERTY_SETTINGS = settings(max_examples=10, deadline=None)
coefficients = st.floats(-5.0, 5.0, allow_nan=False)
degrees = pytest.mark.parametrize("degree", [1, 2])


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_stiffness_is_symmetric_with_constants_in_its_kernel(degree, mesh):
    k = assemble_stiffness(build_space(mesh, degree))
    assert abs(k - k.T).max() == 0.0
    assert np.abs(matvec(k, np.ones(k.shape[0]))).max() < 1e-11


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_mass_entries_sum_to_area(degree, mesh):
    m = assemble_mass(build_space(mesh, degree))
    assert abs(m.data.sum() - mesh.area()) <= 1e-12 * mesh.area()


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_boundary_layer_measures_the_perimeter_on_the_edge_dof_map(degree, mesh):
    space = build_space(mesh, degree)
    edges = mesh.boundary_edges
    start, end = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    perimeter = np.linalg.norm(end - start, axis=1).sum()
    tol = 1e-12 * perimeter
    ones = np.ones(len(space.boundary_dofs))
    assert abs(ones @ (boundary_mass_matrix(space) @ ones) - perimeter) <= tol
    x, _, _, _ = boundary_geometry(mesh)
    assert abs(boundary_integrate(mesh, np.ones_like(x)) - perimeter) <= tol
    assert abs(boundary_l2_error(space, ones) ** 2 - perimeter) <= tol

    dof_map = space.boundary_dofs[space.boundary_edge_positions]
    assert dof_map.shape == (len(edges), degree + 1)
    assert np.array_equal(dof_map[:, :2], edges[:, :2])
    if degree == 2:
        assert (dof_map[:, 2] >= mesh.num_vertices).all()
        assert np.array_equal(space.dof_coordinates[dof_map[:, 2]], 0.5 * (start + end))


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1), coefficients, coefficients, coefficients)
def test_flux_total_equals_source_integral(degree, mesh, a, b, c):
    def source(x, y):
        return a + b * x + c * y * y

    space = build_space(mesh, degree)
    w = solve_dirichlet(space, source, 0.0, rel_tol=1e-12)
    # an order-2 rule integrates the quadratic source exactly
    rule = triangle_quadrature(2)
    exact = integrate(mesh, rule, source(*quad_points(mesh, rule)))
    total = normal_flux(w, source).total()
    assert abs(total - exact) <= 1e-9 * (1.0 + abs(a) + abs(b) + abs(c))


@degrees
@PROPERTY_SETTINGS
@given(meshes(max_refine=1), coefficients, coefficients)
def test_flux_datum_shift_leaves_fields_bit_identical(degree, mesh, shift, slope):
    def f(x, y):
        return 1.0 + x * y

    def g(x, y):
        return np.cos(x) - y

    space = build_space(mesh, degree)
    base = solve_neumann(space, NeumannProblem(f, g, 0.5))
    shifted = solve_neumann(space, NeumannProblem(f, g, lambda x, y: 0.5 + shift + slope * x))
    assert shifted.sigma_h.coeffs.tobytes() == base.sigma_h.coeffs.tobytes()
    assert shifted.s_h.coeffs.tobytes() == base.s_h.coeffs.tobytes()


@degrees
@PROPERTY_SETTINGS
@given(meshes(), st.lists(coefficients, min_size=6, max_size=6))
def test_gradients_of_interpolated_polynomials_are_exact(degree, mesh, c):
    # the interpolant of a polynomial of the space's degree is the polynomial itself
    c0, cx, cy, cxx, cxy, cyy = c if degree == 2 else c[:3] + [0.0, 0.0, 0.0]

    def p(x, y):
        return c0 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y

    rule = triangle_quadrature(4)
    grads = field_gradients(interpolate(build_space(mesh, degree), p), rule)
    x, y = quad_points(mesh, rule)
    assert np.abs(grads[:, :, 0] - (cx + 2 * cxx * x + cxy * y)).max() <= 1e-10
    assert np.abs(grads[:, :, 1] - (cy + cxy * x + 2 * cyy * y)).max() <= 1e-10
