"""Every integer argument of the library follows one rule: an integer that is
not a bool, within its range, or a ValueError that names the argument. A numpy
integer gives what the same Python int gives."""

import contextlib
import re

import numpy as np
import pytest

from biharm.biharmonic import NeumannProblem, solve_neumann
from biharm.fem import FeSpace, build_space, triangle_quadrature
from biharm.mesh import unit_disk_mesh, unit_square_mesh
from biharm.poisson import solve_dirichlet
from biharm.polynomials import Polynomial2D, harmonic_basis
from biharm.sparse import NonConvergenceError, cg_solve, from_triplets

SPACE = build_space(unit_square_mesh(3), 1)
TRIDIAGONAL = from_triplets(
    np.r_[0:6, 1:6, 0:5], np.r_[0:6, 0:5, 1:6], np.r_[[4.0] * 6, [-1.0] * 10], (6, 6)
)
X, Y = Polynomial2D.x(), Polynomial2D.y()


def _mesh(mesh):
    return mesh.vertices.tobytes(), mesh.triangles.tobytes()


def _space(space):
    arrays = (space.dof_coordinates, space.element_dof_map, space.boundary_dofs)
    return type(space.degree), space.degree, [a.tobytes() for a in arrays]


def _polynomial(p):
    return repr(p), [type(i) for key in p.coeffs for i in key]


def _field(field):
    return field.coeffs.tobytes(), field.solver_iterations


# id: (argument name, least value, a valid value, call, what a result is compared by)
SITES = {
    "unit_square_mesh": ("n", 1, 3, unit_square_mesh, _mesh),
    "unit_disk_mesh": ("rings", 1, 2, unit_disk_mesh, _mesh),
    "triangle_quadrature": ("triangle quadrature order", 1, 4, triangle_quadrature, id),
    "FeSpace": ("degree", 1, 2, lambda v: FeSpace(SPACE.mesh, v), _space),
    "harmonic_basis": ("kmax", 0, 3, harmonic_basis, repr),
    "cg_solve": (
        "max_iter", 0, 20, lambda v: cg_solve(TRIDIAGONAL, np.arange(6.0), max_iter=v),
        lambda result: (result.x.tobytes(), type(result.iterations), result.iterations),
    ),
    "solve_dirichlet": (
        "max_iter", 0, 20, lambda v: solve_dirichlet(SPACE, 1.0, 0.0, max_iter=v), _field
    ),
    "solve_neumann": (
        "max_iter", 0, 20,
        lambda v: solve_neumann(SPACE, NeumannProblem(1.0, 0.0, 0.0), max_iter=v),
        lambda solution: (_field(solution.sigma_h), _field(solution.s_h)),
    ),
    "Polynomial2D exponent": ("exponent", 0, 2, lambda v: Polynomial2D({(v, 1): 3}), _polynomial),
    "Polynomial2D y exponent": ("exponent", 0, 2, lambda v: Polynomial2D({(1, v): 3}), _polynomial),
    "Polynomial2D power": ("power", 0, 3, lambda v: (X + 2 * Y) ** v, _polynomial),
}

# max_iter=None asks for the default budget, so None is refused by the other sites only
REFUSALS = [
    (site, bad)
    for site, (name, *_) in SITES.items()
    for bad in (True, False, 2.0, 1.5, "2", None, "below the least value")
    if not (bad is None and name == "max_iter")
]


@pytest.mark.parametrize("site, bad", REFUSALS, ids=[f"{site}-{bad!r}" for site, bad in REFUSALS])
def test_a_value_that_is_not_an_integer_in_range_is_refused_by_name(site, bad):
    name, low, _, call, _ = SITES[site]
    value = low - 1 if bad == "below the least value" else bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer "):
        call(value)


@pytest.mark.parametrize("integer", [np.int32, np.int64])
@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_gives_what_the_python_int_gives(site, integer):
    _, _, good, call, key = SITES[site]
    assert key(call(integer(good))) == key(call(good))


@pytest.mark.parametrize("site", SITES)
def test_the_least_value_is_taken(site):
    _, low, _, call, _ = SITES[site]
    with contextlib.suppress(NonConvergenceError):  # a budget of 0 runs out on a nonzero system
        call(low)
