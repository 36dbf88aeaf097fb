"""Finite element spaces and assembled forms."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_mesh_properties import meshes

import biharm
from biharm import fem
from biharm.biharmonic import NeumannProblem, compatibility_residual, solve_neumann
from biharm.fem import (
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    boundary_l2_error,
    boundary_mass_matrix,
    build_space,
    interpolate,
)
from biharm.manufactured import case_sine, h1_error, l2_error
from biharm.mesh import Mesh, refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.poisson import solve_dirichlet
from biharm.polynomials import harmonic_basis
from biharm.sparse import cg_solve


def corner_triangle_mesh() -> Mesh:
    return Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )


def test_dof_counts_degree_one():
    for n in (1, 3, 8):
        space = build_space(unit_square_mesh(n), 1)
        assert space.dof_count == (n + 1) ** 2
        assert space.element_dof_map.shape == (2 * n**2, 3)


def test_dof_counts_degree_two():
    mesh = unit_square_mesh(1)
    space = build_space(mesh, 2)
    assert space.dof_count == 9  # 4 vertices + 5 edges
    mesh = unit_square_mesh(4)
    space = build_space(mesh, 2)
    assert space.dof_count == mesh.num_vertices + len(mesh.undirected_edges())
    assert space.element_dof_map.shape == (mesh.num_triangles, 6)


@pytest.mark.parametrize("refinements", [0, 1])
@pytest.mark.parametrize(
    "build, size",
    [(unit_square_mesh, 1), (unit_square_mesh, 3), (unit_square_mesh, 16),
     (unit_disk_mesh, 1), (unit_disk_mesh, 4)],
)
def test_p2_nodes_are_the_vertices_of_the_refined_mesh(build, size, refinements):
    mesh = build(size)
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    space, refined = build_space(mesh, 2), refine_uniform(mesh)
    nodes = space.dof_coordinates
    assert nodes.shape == refined.vertices.shape
    assert nodes.tobytes() == refined.vertices.tobytes()
    # triangle k splits into 4k..4k+3; the last has the midpoints of v0v1, v1v2, v2v0
    assert np.array_equal(space.element_dof_map[:, 3:], refined.triangles[3::4])


def test_build_space_rejects_unsupported_degree():
    mesh = unit_square_mesh(2)
    for degree in (0, 3):
        with pytest.raises(ValueError):
            build_space(mesh, degree)


def test_local_stiffness_on_corner_triangle():
    space = build_space(corner_triangle_mesh(), 1)
    a = assemble_stiffness(space).toarray()
    expected = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(a, expected, atol=1e-14)


def test_local_mass_on_corner_triangle():
    space = build_space(corner_triangle_mesh(), 1)
    m = assemble_mass(space).toarray()
    expected = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    assert np.allclose(m, expected, atol=1e-15)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "mesh", [unit_square_mesh(4), unit_disk_mesh(2)], ids=["square", "disk"]
)
def test_stiffness_row_sums_vanish(mesh, degree):
    space = build_space(mesh, degree)
    a = assemble_stiffness(space)
    ones = np.ones(space.dof_count)
    assert np.max(np.abs(a @ ones)) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize(
    "mesh", [unit_square_mesh(4), unit_disk_mesh(2)], ids=["square", "disk"]
)
def test_mass_grand_sum_is_area(mesh, degree):
    space = build_space(mesh, degree)
    m = assemble_mass(space)
    ones = np.ones(space.dof_count)
    assert abs(ones @ (m @ ones) - mesh.area()) < 1e-12


def test_assembled_matrices_exactly_symmetric():
    space = build_space(unit_square_mesh(5), 2)
    for mat in (assemble_stiffness(space), assemble_mass(space)):
        dense = mat.toarray()
        assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_independent_of_triangle_order(degree):
    mesh = unit_square_mesh(3)
    rng = np.random.default_rng(5)
    perm = rng.permutation(mesh.num_triangles)
    shuffled = Mesh(mesh.vertices.copy(), mesh.triangles[perm])
    s1 = build_space(mesh, degree)
    s2 = build_space(shuffled, degree)
    a1 = assemble_stiffness(s1).toarray()
    a2 = assemble_stiffness(s2).toarray()
    assert np.max(np.abs(a1 - a2)) < 1e-13
    m1 = assemble_mass(s1).toarray()
    m2 = assemble_mass(s2).toarray()
    assert np.max(np.abs(m1 - m2)) < 1e-13


def test_stiffness_kernel_is_constants():
    space = build_space(unit_disk_mesh(2), 1)
    a = assemble_stiffness(space)
    eigenvalues = np.linalg.eigvalsh(a.toarray())
    assert eigenvalues[0] < 1e-12  # the constant mode
    assert eigenvalues[1] > 1e-10  # and nothing else
    # mass regularization restores definiteness; CG accepts the system
    m = assemble_mass(space)
    reg = a + m
    rng = np.random.default_rng(0)
    b = rng.standard_normal(space.dof_count)
    res = cg_solve(reg, b)
    assert np.linalg.norm(reg @ res.x - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("degree", [1, 2])
def test_boundary_dofs_lie_on_boundary(degree):
    space = build_space(unit_square_mesh(4), degree)
    coords = space.dof_coordinates[space.boundary_dofs]
    dist = np.minimum.reduce(
        [coords[:, 0], 1 - coords[:, 0], coords[:, 1], 1 - coords[:, 1]]
    )
    assert np.max(np.abs(dist)) < 1e-12


def test_boundary_dofs_on_disk_polygon_edges():
    space = build_space(unit_disk_mesh(3), 2)
    mesh = space.mesh
    dof_map = space.boundary_dofs[space.boundary_edge_positions]
    for edge_dofs, (a, b) in zip(dof_map, mesh.boundary_edges):
        pa, pb = mesh.vertices[a], mesh.vertices[b]
        tangent = pb - pa
        length = np.linalg.norm(tangent)
        for dof in edge_dofs:
            p = space.dof_coordinates[dof]
            # perpendicular distance of the dof to its owning segment
            offset = p - pa
            perp = abs(offset[0] * tangent[1] - offset[1] * tangent[0]) / length
            assert perp < 1e-12


BOUNDARY_MESHES = {"square": unit_square_mesh(3), "disk": refine_uniform(unit_disk_mesh(2))}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(BOUNDARY_MESHES))
def test_boundary_dofs_are_the_sorted_dofs_of_boundary_edges(name, degree):
    mesh = BOUNDARY_MESHES[name]
    space = build_space(mesh, degree)
    # reference: one pass over every boundary edge, collecting its end vertices
    # and, at degree 2, the dof placed at its midpoint
    at = {tuple(p): dof for dof, p in enumerate(space.dof_coordinates.tolist())}
    expected = set()
    for a, b in mesh.boundary_edges:
        expected |= {int(a), int(b)}
        if degree == 2:
            expected.add(at[tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b]))])
    expected = sorted(expected)
    assert space.boundary_dofs.dtype == np.int64
    assert space.boundary_dofs.tolist() == expected
    assert len(expected) == degree * mesh.num_boundary_edges  # one closed loop


def test_interpolation_reproduces_polynomials():
    from biharm.manufactured import l2_error

    space1 = build_space(unit_square_mesh(3), 1)
    linear = lambda x, y: 2.0 * x - 3.0 * y + 1.0
    assert l2_error(interpolate(space1, linear), linear) < 1e-14

    space2 = build_space(unit_square_mesh(3), 2)
    quadratic = lambda x, y: x**2 - x * y + 2.0 * y**2 - y
    assert l2_error(interpolate(space2, quadratic), quadratic) < 1e-13


def test_interpolate_constant():
    space = build_space(unit_square_mesh(2), 1)
    field = interpolate(space, 3.5)
    assert np.all(field.coeffs == 3.5)


def test_load_of_unity_integrates_area():
    for mesh in (unit_square_mesh(4), unit_disk_mesh(2)):
        for degree in (1, 2):
            space = build_space(mesh, degree)
            b = assemble_load(space, 1.0)
            assert abs(b.sum() - mesh.area()) < 1e-12


def test_boundary_mass_matrix_measures_perimeter():
    space = build_space(unit_square_mesh(4), 1)
    mb = boundary_mass_matrix(space)
    nb = len(space.boundary_dofs)
    ones = np.ones(nb)
    assert abs(ones @ (mb @ ones) - 4.0) < 1e-12
    # and the induced norm agrees with the quadrature-based one
    assert abs(boundary_l2_error(space, ones, None) - 2.0) < 1e-12


def test_boundary_l2_error_of_matching_function():
    space = build_space(unit_square_mesh(4), 2)
    # trace of x restricted to boundary dofs, compared against x itself
    coeffs = space.dof_coordinates[space.boundary_dofs, 0]
    assert boundary_l2_error(space, coeffs, lambda x, y: x) < 1e-13


@pytest.mark.parametrize("length", [13, 21])
def test_boundary_l2_error_checks_the_coefficient_length(length):
    space = build_space(unit_square_mesh(4), 1)
    assert len(space.boundary_dofs) == 16
    with pytest.raises(ValueError, match="does not match the boundary dofs"):
        boundary_l2_error(space, np.ones(length))


def test_scalar_field_shape_checked():
    from biharm.fem import ScalarField

    space = build_space(unit_square_mesh(2), 1)
    with pytest.raises(ValueError):
        ScalarField(space, np.zeros(3))


def test_refined_space_nests_vertex_dofs():
    mesh = unit_square_mesh(2)
    fine = refine_uniform(mesh)
    coarse_space = build_space(mesh, 1)
    fine_space = build_space(fine, 1)
    assert np.array_equal(
        fine_space.dof_coordinates[: coarse_space.dof_count],
        coarse_space.dof_coordinates,
    )


def test_triangle_geometry_built_once_per_mesh(monkeypatch):
    builds = []

    def counted(mesh, _build=fem._affine_maps):
        builds.append(mesh)
        return _build(mesh)

    monkeypatch.setattr(fem, "_affine_maps", counted)
    mesh = unit_square_mesh(6)
    space = build_space(mesh, 2)
    case = case_sine()
    solution = solve_neumann(space, NeumannProblem(case.f, case.g, case.h))
    l2_error(solution.sigma_h, case.sigma_exact)
    h1_error(solution.s_h, case.u_exact, case.grad_u)
    assert builds == [mesh]
    for arr in fem.triangle_geometry(mesh):
        assert not arr.flags.writeable


def test_boundary_geometry_built_once_per_mesh(monkeypatch):
    builds = []

    def counted(mesh, _build=fem._boundary_maps):
        builds.append(mesh)
        return _build(mesh)

    monkeypatch.setattr(fem, "_boundary_maps", counted)
    mesh = unit_square_mesh(6)
    space = build_space(mesh, 2)
    case = case_sine()
    problem = NeumannProblem(case.f, case.g, case.h)
    compatibility_residual(space, problem, harmonic_basis(4))
    solution = solve_neumann(space, problem)
    solution.flux.l2_mismatch(0.0)
    boundary_mass_matrix(space)
    boundary_mass_matrix(build_space(mesh, 1))
    assert builds == [mesh]
    for arr in fem.boundary_geometry(mesh):
        assert not arr.flags.writeable


@pytest.mark.parametrize(
    "datum, value",
    [(np.nan, "nan"), (lambda x, y: np.where(x > 0.5, -np.inf, y), "-inf")],
)
def test_nonfinite_datum_is_a_data_error_before_any_assembly(datum, value):
    assert biharm.DataError is fem.DataError and issubclass(fem.DataError, ValueError)
    space = build_space(unit_square_mesh(4), 1)
    with pytest.raises(fem.DataError, match=rf"datum is {value} at \(x, y\) = \("):
        interpolate(space, datum)
    with pytest.raises(fem.DataError):
        solve_dirichlet(space, datum, 0.0)
    with pytest.raises(fem.DataError):
        solve_dirichlet(space, 0.0, datum)
    assert "_poisson_operators" not in space.__dict__


def stacked_quad_points(mesh, rule):
    """Reference quadrature points: one broadcast over a (T, nq, 2) array."""
    origin, jac, _, _ = fem.triangle_geometry(mesh)
    ref = rule.points[:, 1:]
    phys = origin[:, None, :] + (
        jac[:, None, :, 0] * ref[None, :, 0, None] + jac[:, None, :, 1] * ref[None, :, 1, None]
    )
    return phys[:, :, 0], phys[:, :, 1]


def einsum_gradient_map(space, rule):
    """Reference physical basis gradients: the einsum over the Jacobian's shared axis."""
    gref = fem._reference_gradients(space.degree, rule)  # P1: (3, 1, 2), one point
    gref = np.broadcast_to(gref, (len(gref), len(rule.weights), 2))
    _, _, _, inv_jt = fem.triangle_geometry(space.mesh)
    return np.einsum("tab,lqb->tlqa", inv_jt, gref)


def einsum_stiffness(space):
    rule = fem.default_volume_rule(space.degree)
    _, _, det, _ = fem.triangle_geometry(space.mesh)
    gphys = einsum_gradient_map(space, rule)
    local = np.einsum("tlqa,tmqa,q->tlm", gphys, gphys, rule.weights)
    local *= det[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return fem._scatter(space.element_dof_map, local, space.dof_count)


# at degree 2 a batched matmul in place of the broadcast gradient map moves the
# last bits of some gradients, on the square and on the refined disk alike
ORACLE_MESHES = {"square": unit_square_mesh(13), "disk": refine_uniform(unit_disk_mesh(6))}


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_assembly_kernels_are_bit_identical_to_the_einsum_oracle(name, degree):
    mesh = ORACLE_MESHES[name]
    space = build_space(mesh, degree)
    k, expected = assemble_stiffness(space), einsum_stiffness(space)
    assert np.array_equal(k.data, expected.data)
    assert np.array_equal(k.indices, expected.indices)
    assert np.array_equal(k.indptr, expected.indptr)

    field = interpolate(space, lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y) + x * y)
    for order in (2, 4, 6):
        rule = fem.triangle_quadrature(order)
        expected = np.einsum(
            "tl,tlqa->tqa", field.coeffs[space.element_dof_map], einsum_gradient_map(space, rule)
        )
        assert np.array_equal(fem.field_gradients(field, rule), expected)

        x, y = fem.quad_points(mesh, rule)
        ex, ey = stacked_quad_points(mesh, rule)
        assert np.array_equal(x, ex) and np.array_equal(y, ey)
        assert x.flags.c_contiguous and y.flags.c_contiguous


def broadcast_quad_points(mesh, rule):
    """Reference quadrature points: each coordinate broadcast over (T, nq) at once."""
    origin, jac, _, _ = fem.triangle_geometry(mesh)
    r0, r1 = rule.points[:, 1], rule.points[:, 2]
    return tuple(
        origin[:, a, None] + (jac[:, a, 0, None] * r0 + jac[:, a, 1, None] * r1) for a in (0, 1)
    )


QUAD_POINT_MESHES = [*map(unit_square_mesh, (1, 7, 64)), unit_disk_mesh(4)]


@pytest.mark.parametrize("refinements", [0, 1])
@pytest.mark.parametrize("mesh_index", range(len(QUAD_POINT_MESHES)))
def test_quad_points_are_bit_identical_to_the_broadcast_oracle(mesh_index, refinements):
    mesh = QUAD_POINT_MESHES[mesh_index]
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    for order in range(1, fem.MAX_TRIANGLE_ORDER + 1):
        rule = fem.triangle_quadrature(order)
        points, expected = fem.quad_points(mesh, rule), broadcast_quad_points(mesh, rule)
        for got, want in zip(points, expected):
            assert got.shape == want.shape == (mesh.num_triangles, len(rule.weights))
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous


def row_gather_geometry(mesh):
    """Reference geometry: every coordinate pair gathered as a (..., 2) row, as first written.
    Signed areas, the four triangle_geometry arrays, the refined mesh's vertices and the
    four boundary_geometry arrays."""
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], -1)
    (a, b), (c, d) = jac[:, 0].T, jac[:, 1].T
    det = a * d - b * c
    inv_jt = np.stack([np.stack([d, -c], -1), np.stack([-b, a], -1)], 1) / det[:, None, None]
    edges = mesh.undirected_edges()
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    pa = mesh.vertices[mesh.boundary_edges[:, 0]]
    pb = mesh.vertices[mesh.boundary_edges[:, 1]]
    tangent = pb - pa
    lengths = np.linalg.norm(tangent, axis=1)
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    t = fem.default_boundary_rule().points[:, 1]
    x = pa[:, 0, None] + t[None, :] * tangent[:, 0, None]
    y = pa[:, 1, None] + t[None, :] * tangent[:, 1, None]
    return areas, p[:, 0], jac, det, inv_jt, np.vstack([mesh.vertices, mids]), x, y, lengths, normals


@settings(max_examples=25, deadline=None)
@given(meshes())
@example(unit_square_mesh(1))
@example(unit_square_mesh(7))
@example(unit_disk_mesh(1))
@example(unit_disk_mesh(6))
@example(refine_uniform(unit_disk_mesh(32)))
def test_geometry_from_coordinate_columns_is_bit_identical_to_the_row_gather_oracle(mesh):
    got = (
        mesh.signed_areas(),
        *fem.triangle_geometry(mesh),
        refine_uniform(mesh).vertices,
        *fem.boundary_geometry(mesh),
    )
    expected = row_gather_geometry(mesh)
    assert len(got) == len(expected) == 10
    for value, want in zip(got, expected):
        assert value.shape == want.shape and value.tobytes() == want.tobytes()
    assert build_space(mesh, 2).dof_coordinates.tobytes() == expected[5].tobytes()


@pytest.mark.parametrize("datum", [10**400, lambda x, y: 10**400, lambda x, y: -(10**400) + 0 * x])
def test_datum_beyond_float_range_is_a_data_error(datum):
    space = build_space(unit_square_mesh(2), 1)
    with pytest.raises(fem.DataError, match="overflows a float"):
        interpolate(space, datum)


@pytest.mark.parametrize(
    "datum, shown",
    [
        (lambda x, y: x + 1j, "1j"),
        (1j, "1j"),
        (lambda x, y: np.exp(1j * x), "(1+0j)"),
        ("1.5", "1.5"),
        (None, "None"),
        (lambda x, y: np.full(x.shape, "a"), "a"),
    ],
    ids=["complex-callable", "complex-constant", "complex-array", "string", "none", "strings"],
)
def test_datum_that_is_not_a_real_number_is_a_data_error(datum, shown):
    # checked before the float cast: no imaginary part is dropped with a ComplexWarning
    space = build_space(unit_square_mesh(2), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fem.DataError, match=f"^datum is not a real number: {re.escape(shown)}$"):
            interpolate(space, datum)


def add_at_load(space, q):
    """Reference load vector: the local vectors summed by np.add.at."""
    rule = fem.default_volume_rule(space.degree)
    basis = fem._reference_basis(space.degree, rule)
    _, _, det, _ = fem.triangle_geometry(space.mesh)
    vals = fem._data_values(q, *fem.quad_points(space.mesh, rule))
    local = np.einsum("lq,tq,q->tl", basis, vals, rule.weights) * det[:, None]
    b = np.zeros(space.dof_count)
    np.add.at(b, space.element_dof_map, local)
    return b


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_MESHES))
def test_load_is_bit_identical_to_the_add_at_oracle(name, degree):
    space = build_space(ORACLE_MESHES[name], degree)
    for q in (lambda x, y: np.exp(x) * np.cos(3.0 * y) - x * y, -2.5, 0.0):
        b, expected = assemble_load(space, q), add_at_load(space, q)
        assert b.shape == (space.dof_count,) and b.dtype == np.float64
        assert np.array_equal(b, expected)
        assert np.array_equal(np.signbit(b), np.signbit(expected))


def test_boundary_norm_beyond_float_range_raises_floating_point_error():
    from biharm.poisson import overdetermined_check

    result = overdetermined_check(build_space(unit_square_mesh(2), 1), 1e308)
    with pytest.raises(FloatingPointError):
        result.flux.l2_mismatch()
