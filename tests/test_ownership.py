"""Frozen objects own their arrays: constructors take read-only copies, every
array a result holds is read-only, and array-holding objects compare by
identity."""

import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from biharm.biharmonic import CompatibilityError, NeumannProblem, solve_neumann
from biharm.fem import (
    FeSpace,
    QuadratureRule,
    ScalarField,
    boundary_mass_matrix,
    build_space,
    triangle_geometry,
)
from biharm.manufactured import case_sine
from biharm.mesh import Mesh, MeshValidationError, unit_square_mesh
from biharm.poisson import BoundaryFlux, normal_flux, overdetermined_check, solve_dirichlet
from biharm.sparse import cg_solve


def _held_arrays(obj) -> list[np.ndarray]:
    """Every ndarray reachable from ``obj`` through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _held_arrays(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _held_arrays(item)]
    return []


def _assert_read_only(arrays: list[np.ndarray]) -> None:
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


def test_a_view_taken_before_mesh_construction_cannot_change_the_mesh():
    base = unit_square_mesh(2)
    v, t = np.array(base.vertices), np.array(base.triangles)
    v_alias, t_alias = v[:], t[:]
    mesh = Mesh(v, t)
    geometry = triangle_geometry(mesh)
    v_alias[4] = [5.0, 5.0]
    t_alias[0] = t_alias[0, ::-1]
    assert np.array_equal(mesh.vertices, base.vertices)
    assert np.array_equal(mesh.triangles, base.triangles)
    mesh.validate()
    assert triangle_geometry(mesh) is geometry
    assert np.array_equal(triangle_geometry(mesh)[2], 2 * mesh.signed_areas())
    assert v.flags.writeable and t.flags.writeable  # the caller's arrays are not frozen


def test_a_view_taken_before_rule_or_field_construction_cannot_change_it():
    p = np.array([[1 / 3, 1 / 3, 1 / 3]])
    w = np.array([0.5])
    p_alias, w_alias = p[:], w[:]
    rule = QuadratureRule(p, w)
    assert p.flags.writeable and w.flags.writeable
    p_alias[0] = 0.0
    w_alias[0] = 7.0
    assert np.array_equal(rule.points, [[1 / 3, 1 / 3, 1 / 3]])
    assert np.array_equal(rule.weights, [0.5])

    space = build_space(unit_square_mesh(2), 1)
    c = np.arange(space.dof_count, dtype=float)
    c_alias = c[:]
    field = ScalarField(space, c)
    assert c.flags.writeable
    c_alias[:] = -1.0
    assert np.array_equal(field.coeffs, np.arange(space.dof_count))


@pytest.mark.parametrize("degree", [1, 2])
def test_every_array_a_result_holds_is_read_only(degree):
    space = build_space(unit_square_mesh(4), degree)
    case = case_sine()
    solution = solve_neumann(space, NeumannProblem(case.f, case.g, case.h))
    held = _held_arrays(solution)
    assert len(held) >= 12  # fields, flux, residuals, and the space and mesh under them
    _assert_read_only(held)

    flux = normal_flux(solve_dirichlet(space, 1.0, 0.0), 1.0)
    hand_made = BoundaryFlux(space, np.ones(len(space.boundary_dofs)))
    _assert_read_only([flux.functional, flux.projected, hand_made.functional, hand_made.projected])
    result = overdetermined_check(space, 1.0)
    _assert_read_only([result.u.coeffs, result.flux.functional, result.flux.projected])


SPACE_ARRAYS = ("dof_coordinates", "element_dof_map", "boundary_dofs", "boundary_edge_positions")


@pytest.mark.parametrize("degree", [1, 2])
def test_a_space_is_its_mesh_and_degree(degree):
    mesh = unit_square_mesh(3)
    space = build_space(mesh, degree)
    assert isinstance(space, FeSpace)
    assert space.dof_count == len(space.dof_coordinates)
    _assert_read_only([getattr(space, name) for name in SPACE_ARRAYS])
    if degree == 1:  # a P1 space shares its mesh's arrays
        assert space.dof_coordinates is mesh.vertices
        assert space.element_dof_map is mesh.triangles

    for name in SPACE_ARRAYS:  # a derived field cannot be set apart from the mesh
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(space, **{name: np.array(getattr(space, name))})
    with pytest.raises(ValueError, match="degree must be 1 or 2"):
        dataclasses.replace(space, degree=3)

    other = dataclasses.replace(space, degree=3 - degree)  # every field rebuilt
    fresh = build_space(mesh, 3 - degree)
    assert other.dof_count == fresh.dof_count
    for name in SPACE_ARRAYS:
        a, b = getattr(other, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("degree", [2.0, 1.0, True, np.True_, 1.5, "2", None])
def test_a_degree_that_is_not_an_integer_is_refused(degree):
    # 2.0 and True compare equal to 2 and 1: such a space once built, and its
    # first solve failed with a bare TypeError
    with pytest.raises(ValueError, match="^degree must be 1 or 2$"):
        FeSpace(unit_square_mesh(2), degree)


def test_a_numpy_integer_degree_is_a_degree():
    mesh = unit_square_mesh(3)
    space, plain = FeSpace(mesh, np.int64(2)), FeSpace(mesh, 2)
    assert space.dof_count == plain.dof_count
    solved, expected = (solve_dirichlet(s, 1.0, 0.0).coeffs for s in (space, plain))
    assert solved.tobytes() == expected.tobytes()


def test_a_flux_is_its_functional():
    space = build_space(unit_square_mesh(4), 2)
    t = np.random.default_rng(3).standard_normal(len(space.boundary_dofs))
    flux = BoundaryFlux(space, t)
    expected = cg_solve(boundary_mass_matrix(space), t, rel_tol=1e-12).x
    assert flux.projected.tobytes() == expected.tobytes()
    t[:] = 0.0  # the caller's array stays writable and apart from the flux
    assert flux.functional.tobytes() != t.tobytes()

    solved = normal_flux(solve_dirichlet(space, 1.0, 0.0), 1.0)
    with pytest.raises(ValueError, match="projected"):
        dataclasses.replace(solved, projected=np.zeros_like(solved.projected))
    rebuilt = dataclasses.replace(solved, functional=solved.functional)
    assert rebuilt.projected.tobytes() == solved.projected.tobytes()


def test_compatibility_error_keeps_a_read_only_copy_of_the_residuals():
    residuals = np.array([0.5, -2.0])
    err = CompatibilityError(residuals, 1e-3)
    residuals[:] = 0.0
    assert np.array_equal(err.residuals, [0.5, -2.0])
    _assert_read_only([err.residuals])

    space = build_space(unit_square_mesh(4), 1)
    case = case_sine()
    with pytest.raises(CompatibilityError) as raised:
        solve_neumann(space, NeumannProblem(case.f, case.g, 1.0), strict=True)
    _assert_read_only([raised.value.residuals])


# A constructor casts what it is given to its dtype only when no value changes.


def test_a_mesh_refuses_complex_vertices():
    base = unit_square_mesh(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning either
        with pytest.raises(MeshValidationError, match="complex128 to float64"):
            Mesh(base.vertices + 0.5j, base.triangles)
        exact = Mesh(base.vertices + 0j, base.triangles.astype(float))
    assert exact.vertices.tobytes() == base.vertices.tobytes()
    assert exact.triangles.tobytes() == base.triangles.tobytes()


def test_a_mesh_refuses_triangle_indices_with_a_fraction():
    base = unit_square_mesh(2)
    with pytest.raises(MeshValidationError, match="would change the value 0.7"):
        Mesh(base.vertices, base.triangles + 0.7)
    with pytest.raises(MeshValidationError, match="would change the value nan"):
        Mesh(base.vertices, np.where(base.triangles == 1, np.nan, base.triangles))


def test_a_mesh_refuses_ragged_vertices():
    base = unit_square_mesh(1)
    with pytest.raises(MeshValidationError, match="not an array of float64"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [1.0], [0.0, 1.0]], base.triangles)


def test_a_field_refuses_coefficients_given_as_strings():
    space = build_space(unit_square_mesh(2), 1)
    with pytest.raises(ValueError, match="<U1 to float64"):
        ScalarField(space, ["1"] * space.dof_count)
    with pytest.raises(ValueError, match="not an array of float64"):
        ScalarField(space, ["one"] * space.dof_count)
    nan = ScalarField(space, np.full(space.dof_count, np.nan, dtype=np.float32))
    assert np.isnan(nan.coeffs).all()  # a NaN cast is still NaN


def test_a_quadrature_rule_refuses_complex_points_and_weights():
    points, weights = np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([0.5])
    with pytest.raises(ValueError, match="complex128 to float64"):
        QuadratureRule(points + 1e-3j, weights)
    with pytest.raises(ValueError, match="complex128 to float64"):
        QuadratureRule(points, weights - 1e-3j)


def test_a_flux_refuses_a_complex_functional():
    space = build_space(unit_square_mesh(2), 1)
    functional = np.ones(len(space.boundary_dofs), dtype=complex)
    functional[-1] = complex(np.nan, 2.0)  # a NaN keeps its imaginary part
    with pytest.raises(ValueError, match=r"would change the value \(nan\+2j\)"):
        BoundaryFlux(space, functional)


def _two_meshes():
    return unit_square_mesh(2), unit_square_mesh(2)


def _two_spaces():
    mesh = unit_square_mesh(2)
    return build_space(mesh, 1), build_space(mesh, 1)


def _two_fields():
    space = build_space(unit_square_mesh(2), 1)
    c = np.ones(space.dof_count)
    return ScalarField(space, c, solver_iterations=1), ScalarField(space, c, solver_iterations=1)


def _two_fluxes():
    w = solve_dirichlet(build_space(unit_square_mesh(2), 1), 1.0, 0.0)
    return normal_flux(w, 1.0), normal_flux(w, 1.0)


@pytest.mark.parametrize("build", [_two_meshes, _two_spaces, _two_fields, _two_fluxes])
def test_objects_holding_arrays_compare_by_identity(build):
    a, b = build()
    assert a is not b
    assert a != b and not a == b  # equal data, distinct objects; neither raises
    assert a == a
    keyed = {a: "a", b: "b"}
    assert keyed[a] == "a" and keyed[b] == "b"


def _holds_an_array(cls) -> bool:
    return any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))


def test_every_dataclass_holding_an_array_compares_by_identity():
    names = ("biharmonic", "fem", "manufactured", "mesh", "poisson", "polynomials", "sparse")
    modules = [importlib.import_module(f"biharm.{name}") for name in names]
    holders = {
        cls.__name__: cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
        and _holds_an_array(cls)
    }
    assert {"Mesh", "QuadratureRule", "FeSpace", "ScalarField", "BoundaryFlux"} <= holders.keys()
    assert all(holders.values()), holders
