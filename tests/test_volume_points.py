"""The default volume rule's points: built once per space, held read-only, and
read by the load, the L2 errors and, at P2, a cascade's one evaluation of f and,
in blocks of views, the compatibility table; at P1 the table forms its order-6
points per block."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from biharm import cli, fem
from biharm.biharmonic import (
    NeumannProblem,
    compatibility_residual,
    solve_neumann,
    weak_form_residual,
)
from biharm.manufactured import l2_error
from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.polynomials import Polynomial2D, harmonic_basis

MESHES = {"square": lambda: unit_square_mesh(6), "disk": lambda: refine_uniform(unit_disk_mesh(3))}


@pytest.fixture
def builds(monkeypatch):
    """The rule of every ``fem.quad_points`` build, in call order."""
    rules = []

    def counted(mesh, rule, _quad_points=fem.quad_points):
        rules.append(rule)
        return _quad_points(mesh, rule)

    monkeypatch.setattr(fem, "quad_points", counted)
    return rules


def recording(seen):
    """A datum that keeps every x it is called with."""

    def datum(x, y):
        seen.append(x)
        return np.sin(x) * np.cos(y)

    return datum


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_held_points_are_the_quad_points_read_only(name, degree, builds):
    space = fem.build_space(MESHES[name](), degree)
    rule = fem.default_volume_rule(degree)
    held = fem._volume_points(space)
    again = fem._volume_points(space)
    assert builds == [rule]
    assert all(a is b for a, b in zip(held, again, strict=True))
    for h, expected in zip(held, fem.quad_points(space.mesh, rule), strict=True):
        assert h.tobytes() == expected.tobytes() and h.shape == expected.shape
        assert not h.flags.writeable and h.flags.c_contiguous


@pytest.mark.parametrize("degree", [1, 2])
def test_load_errors_and_p2_compat_read_the_same_points(degree, builds):
    space = fem.build_space(unit_square_mesh(6), degree)
    seen = []
    datum = recording(seen)
    field = fem.interpolate(space, datum)
    seen.clear()  # the interpolant reads the dof coordinates
    fem.assemble_load(space, datum)
    l2_error(field, datum)
    l2_error(field, datum)
    compatibility_residual(space, NeumannProblem(datum, 0.0, 0.0), harmonic_basis(2))
    x, _ = fem._volume_points(space)
    assert [s is x for s in seen] == [True, True, True, False]
    # the compatibility table reads one block of 72 triangles: at P2 a view of
    # the held order-6 points, at P1 points formed for the block, no quad_points build
    assert seen[3].shape == (space.mesh.num_triangles, 16) and not seen[3].flags.writeable
    assert np.shares_memory(seen[3], x) == (degree == 2)
    assert builds == [fem.default_volume_rule(degree)]


def test_a_p1_space_holds_no_points_after_compatibility_residual(builds):
    space = fem.build_space(unit_square_mesh(6), 1)
    problem = NeumannProblem(lambda x, y: x * y, 0.0, 0.0)
    first = compatibility_residual(space, problem, harmonic_basis(3))
    second = compatibility_residual(space, problem, harmonic_basis(3))
    assert first.tobytes() == second.tobytes()
    assert builds == []
    assert "_volume_points" not in vars(space)


@pytest.mark.parametrize("degree", [1, 2])
def test_only_the_default_rule_is_held(degree, builds):
    # _volume_points takes no rule: it serves the default one; any other rule's
    # points are formed per block, bit for bit, and neither built nor held
    space = fem.build_space(unit_square_mesh(4), degree)
    default = fem.default_volume_rule(degree)
    with pytest.raises(TypeError):
        fem._volume_points(space, default)
    held = fem._volume_points(space)
    assert vars(space)["_volume_points"] is held and builds == [default]
    for order in range(1, fem.MAX_TRIANGLE_ORDER + 1):
        rule = fem.triangle_quadrature(order)
        ((_, x, y),) = fem._point_blocks(space, rule, space.mesh.num_triangles)
        assert np.shares_memory(x, held[0]) == (rule is default) and not x.flags.writeable
        expected = fem.quad_points(space.mesh, rule)
        assert x.tobytes() == expected[0].tobytes() and y.tobytes() == expected[1].tobytes()
    assert builds == [default, *map(fem.triangle_quadrature, range(1, fem.MAX_TRIANGLE_ORDER + 1))]
    assert fem._volume_points(space) is held


def test_a_numpy_integer_degree_shares_the_held_points(builds):
    space = fem.build_space(unit_square_mesh(4), np.int64(2))
    compatibility_residual(space, NeumannProblem(1.0, 0.0, 0.0), harmonic_basis(1))
    fem.assemble_load(space, 1.0)
    assert builds == [fem.triangle_quadrature(6)]


@pytest.mark.parametrize("degree", [1, 2])
def test_a_datum_that_writes_into_its_points_raises_and_leaves_them(degree):
    space = fem.build_space(unit_square_mesh(4), degree)
    rule = fem.default_volume_rule(degree)

    def writes(x, y):
        x += 1.0
        return x

    with pytest.raises(ValueError, match="read-only"):
        fem.assemble_load(space, writes)
    with pytest.raises(ValueError, match="read-only"):
        l2_error(fem.interpolate(space, 0.0), writes)
    for held, fresh in zip(fem._volume_points(space), fem.quad_points(space.mesh, rule)):
        assert held.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("degree", [1, 2])
def test_the_diagnostics_give_a_datum_read_only_points_and_leave_them(degree):
    space = fem.build_space(unit_square_mesh(4), degree)
    rule = fem.default_volume_rule(degree)
    solution = solve_neumann(space, NeumannProblem(1.0, 0.0, 0.0))

    def writes(x, y):
        x += 1.0
        return x

    for problem in (NeumannProblem(writes, 0.0, 0.0), NeumannProblem(0.0, writes, 0.0)):
        with pytest.raises(ValueError, match="read-only"):
            compatibility_residual(space, problem, harmonic_basis(1))
        with pytest.raises(ValueError, match="read-only"):
            solve_neumann(space, problem)
        with pytest.raises(ValueError, match="read-only"):
            weak_form_residual(replace(solution, problem=problem), Polynomial2D.x() ** 2)
    for held, fresh in zip(fem._volume_points(space), fem.quad_points(space.mesh, rule)):
        assert held.tobytes() == fresh.tobytes()
    # the values the writing datum returns: r[Re z] = (x + 1, x) = 5/6 on the unit square
    shifted = NeumannProblem(lambda x, y: x + 1.0, 0.0, 0.0)
    assert compatibility_residual(space, shifted, harmonic_basis(1))[1] == pytest.approx(5 / 6, abs=1e-12)


def test_converge_frees_each_level_before_the_next_solve(monkeypatch, capsys):
    spaces, dead_at_start = [], []

    def watched(space, *args, **kwargs):
        dead_at_start.append([ref() is None for ref in spaces])
        spaces.append(weakref.ref(space))
        return solve_neumann(space, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_neumann", watched)
    assert cli.run(["converge", "--case", "sine", "--levels", "3", "--n0", "4"]) == 0
    assert dead_at_start == [[], [True], [True, True]]
    assert len(capsys.readouterr().out.splitlines()) == 4

