"""The default volume rule's points: built once per space, held read-only, and
read by the load, the L2 errors and, at P2, the compatibility table."""

import weakref

import numpy as np
import pytest

from biharm import cli, fem
from biharm.biharmonic import NeumannProblem, compatibility_residual, solve_neumann
from biharm.manufactured import l2_error
from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.polynomials import harmonic_basis

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
    held = fem._volume_points(space, rule)
    again = fem._volume_points(space, rule)
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
    x, _ = fem._volume_points(space, fem.default_volume_rule(degree))
    shared = [s is x for s in seen]
    # at P1 the compatibility table reads the order-6 diagnostic rule, built per call
    assert shared == [True, True, True, degree == 2]
    assert builds.count(fem.default_volume_rule(degree)) == 1
    assert len(builds) == (1 if degree == 2 else 2)


def test_a_p1_space_holds_no_points_after_compatibility_residual(builds):
    space = fem.build_space(unit_square_mesh(6), 1)
    problem = NeumannProblem(lambda x, y: x * y, 0.0, 0.0)
    first = compatibility_residual(space, problem, harmonic_basis(3))
    second = compatibility_residual(space, problem, harmonic_basis(3))
    assert first.tobytes() == second.tobytes()
    assert builds == [fem.triangle_quadrature(6)] * 2
    assert "_volume_points" not in vars(space)


@pytest.mark.parametrize("degree", [1, 2])
def test_only_the_default_rule_is_held(degree, builds):
    space = fem.build_space(unit_square_mesh(4), degree)
    for order in range(1, fem.MAX_TRIANGLE_ORDER + 1):
        rule = fem.triangle_quadrature(order)
        if rule is fem.default_volume_rule(degree):
            continue
        first, second = fem._volume_points(space, rule), fem._volume_points(space, rule)
        assert first[0] is not second[0] and first[0].flags.writeable
    assert fem.default_volume_rule(degree) not in builds
    assert len(builds) == 2 * (fem.MAX_TRIANGLE_ORDER - 1)
    assert "_volume_points" not in vars(space)


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
    for held, fresh in zip(fem._volume_points(space, rule), fem.quad_points(space.mesh, rule)):
        assert held.tobytes() == fresh.tobytes()


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

