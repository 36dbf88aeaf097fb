"""Dirichlet Poisson solves and variational normal-flux recovery.

The solve and the flux recovery read one residual of a field w with source q:
r = K w + b, with K the stiffness matrix and b_i = (q, phi_i) the load.
``solve_dirichlet`` handles ``laplace(w) = q`` with ``w = g`` on the boundary by
eliminating boundary dofs: it interpolates g there and solves the interior rows of
r = 0 with conjugate gradients, the boundary values lifted to the right-hand side
through K. The source may be a callable on the domain or an existing finite element
field (then the load is the exact mass-matrix product, which is what lets solves be
chained without extra quadrature error).

``normal_flux(w, source)`` reads the boundary rows of the same residual: for
boundary dofs i, t_i = (K w + b)_i is the discrete Green identity pairing
<dw/dn, phi_i>, and an L2 boundary projection turns the functional into a
pointwise trace-space field. Summing t over the boundary reproduces the
integral of the source exactly up to solver tolerance (discrete divergence
theorem), which the overdetermined diagnostics below rely on. They keep the
recovered ``BoundaryFlux``: its ``l2_mismatch()`` is the leftover flux norm
and its ``total()`` the outflow. The fully homogeneous fourth-order problem,
bilaplacian V = p with V, laplacian V and its flux all zero, is
``biharmonic.solve_neumann`` on ``NeumannProblem(p, 0.0, 0.0)``: its one
condition not built in is the flux of U = laplacian V, the same flux
``overdetermined_check`` measures.

Operators are built once per space: the stiffness matrix, its interior block, the
mass matrix and the boundary mass matrix are assembled on the first solve or flux
recovery on a space and held on it while it lives. Every public entry checks its
options, then reads its data (each datum, a source field's space, a functional's
length), and only then reaches the operators; private stages trust their caller. A
solve and its flux from one load is the first stage, ``_solve_with_flux``: the whole
of ``overdetermined_check`` and the first half of ``solve_neumann``, which assembles
the load of p (or f) once for both residual reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    FeSpace,
    ScalarField,
    _built_once,
    _data_values,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    boundary_l2_error,
    boundary_mass_matrix,
)
from .mesh import _owned
from .sparse import SparseMatrix, _check_cg_budget, cg_solve

__all__ = [
    "BoundaryFlux",
    "solve_dirichlet",
    "normal_flux",
    "OverdeterminedResult",
    "overdetermined_check",
]


@dataclass(frozen=True, eq=False)
class _Operators:
    """Poisson operators of one space: stiffness K, mass M, boundary mass
    (indexed like ``boundary_dofs``), the interior dofs and the interior
    block A_ii = K[interior, interior]. The lift of the boundary values and
    the flux, read in one first stage, are the rows of K w + b."""

    stiffness: SparseMatrix
    mass: SparseMatrix
    boundary_mass: SparseMatrix
    interior: np.ndarray
    a_ii: SparseMatrix


def _operators(space: FeSpace) -> _Operators:
    """The space's operators, assembled on first use and kept on the space."""
    return _built_once(space, "_poisson_operators", _assemble_operators)


def _assemble_operators(space: FeSpace) -> _Operators:
    k = assemble_stiffness(space)
    interior = np.setdiff1d(np.arange(space.dof_count), space.boundary_dofs, assume_unique=True)
    return _Operators(
        stiffness=k,
        mass=assemble_mass(space),
        boundary_mass=boundary_mass_matrix(space),
        interior=_owned(interior),
        a_ii=k.submatrix(interior, interior),
    )


@dataclass(frozen=True, eq=False)
class _Load:
    """A source whose load (source, phi_i) is assembled already."""

    values: np.ndarray


def _source_load(space: FeSpace, source) -> np.ndarray:
    if isinstance(source, _Load):
        return source.values
    if isinstance(source, ScalarField):
        if source.space is not space:
            raise ValueError("source field lives on a different space")
        return _operators(space).mass @ source.coeffs
    return assemble_load(space, source)


def solve_dirichlet(
    space: FeSpace,
    source,
    boundary_value,
    *,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> ScalarField:
    """Solve laplace(w) = source with w = boundary_value on the boundary.

    Parameters
    ----------
    source : callable on (x, y), constant, or ScalarField on the same space
    boundary_value : callable on (x, y) or constant, interpolated at
        boundary dofs
    rel_tol, max_iter : forwarded to the CG solve of the interior system

    Returns the finite element solution; its ``solver_iterations`` field
    records the CG iteration count (0 when there are no interior dofs). A
    right-hand side that overflows in the lift raises FloatingPointError.
    """
    _check_cg_budget(rel_tol, max_iter)  # also when no CG runs: no interior dofs
    # data first, the boundary's before the load, which is M @ coeffs for a field source
    coeffs = np.zeros(space.dof_count)
    bdofs = space.boundary_dofs
    coeffs[bdofs] = _data_values(boundary_value, *space.dof_coordinates[bdofs].T)
    b = _source_load(space, source)

    ops = _operators(space)
    interior = ops.interior
    if len(interior) == 0:
        return ScalarField(space, coeffs, solver_iterations=0)

    # Weak form: (grad w, grad v) = -(q, v) for interior v, i.e. the interior rows
    # of K w + b vanish; coeffs holds g on the boundary and 0 inside, the lift.
    with np.errstate(over="ignore", invalid="ignore"):  # scipy's K @ coeffs overflows unflagged
        rhs = -(ops.stiffness @ coeffs + b)[interior]
    if not np.isfinite(rhs).all():
        raise FloatingPointError("lifted right-hand side beyond float range")
    result = cg_solve(ops.a_ii, rhs, rel_tol=rel_tol, max_iter=max_iter)
    coeffs[interior] = result.x
    return ScalarField(space, coeffs, solver_iterations=result.iterations)


@dataclass(frozen=True, eq=False)
class BoundaryFlux:
    """Read-only normal flux of a solved Dirichlet field, made from its functional.

    ``functional`` holds the Green-identity pairings <dw/dn, phi_i>, one per
    entry of ``space.boundary_dofs``; ``projected``, solved for on construction,
    the coefficients of its L2(boundary) projection: a pointwise flux field.
    """

    space: FeSpace
    functional: np.ndarray
    projected: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "functional", _owned(self.functional, float))
        if self.functional.shape != self.space.boundary_dofs.shape:
            raise ValueError("flux functional length does not match the boundary dofs")
        projected = cg_solve(_operators(self.space).boundary_mass, self.functional, rel_tol=1e-12)
        object.__setattr__(self, "projected", _owned(projected.x))

    def total(self) -> float:
        """Sum of the flux functional: the discrete outflow, which equals
        the integral of the source up to solver tolerance."""
        return float(self.functional.sum())

    def l2_mismatch(self, target=None) -> float:
        """Boundary L2 distance between the projected flux and a callable
        or constant target; None gives the plain norm of the flux."""
        return boundary_l2_error(self.space, self.projected, target)


def normal_flux(w: ScalarField, source) -> BoundaryFlux:
    """Recover the variational normal derivative of w, given the source it
    was solved with (a source field must live on w's space).

    The flux is made from its functional, (K w + b)_i at every boundary dof;
    interior entries of the same residual vanish to solver tolerance when w
    came out of ``solve_dirichlet``, so no information is lost by restricting.
    """
    space = w.space
    load = _source_load(space, source)  # a bad source fails before any operator is built
    residual = _operators(space).stiffness @ w.coeffs + load
    return BoundaryFlux(space, residual[space.boundary_dofs])


@dataclass(frozen=True)
class OverdeterminedResult:
    """Solvability diagnostics for the fully clamped Poisson problem
    (zero trace and zero normal derivative demanded at once)."""

    u: ScalarField
    flux: BoundaryFlux


def overdetermined_check(
    space: FeSpace,
    p,
    *,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> OverdeterminedResult:
    """Solve laplace(U) = p with zero trace, then measure the leftover
    normal derivative.

    The overdetermined problem (zero trace and zero flux together) is
    solvable exactly when that flux vanishes; ``flux.l2_mismatch()`` tends
    to zero under refinement for such p and stays bounded away from zero
    otherwise. ``flux.total()`` always equals the integral of p up to
    solver tolerance, a useful exactness check in itself.
    """
    _check_cg_budget(rel_tol, max_iter)  # a ValueError before p is read
    return OverdeterminedResult(*_solve_with_flux(space, p, 0.0, rel_tol, max_iter))


def _held_load(space: FeSpace, source) -> _Load:
    """The load of ``source``, assembled once and held read-only; a ``_Load`` as it is."""
    return source if isinstance(source, _Load) else _Load(_owned(_source_load(space, source)))


def _solve_with_flux(
    space: FeSpace, source, boundary_value, rel_tol: float, max_iter: int | None
) -> tuple[ScalarField, BoundaryFlux]:
    """The first stage: ``solve_dirichlet`` and the ``normal_flux`` of its
    solution, from one load of the source, ``_held_load``."""
    load = _held_load(space, source)
    w = solve_dirichlet(space, load, boundary_value, rel_tol=rel_tol, max_iter=max_iter)
    return w, normal_flux(w, load)
