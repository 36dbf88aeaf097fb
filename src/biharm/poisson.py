"""Dirichlet Poisson solves and variational normal-flux recovery.

``solve_dirichlet`` handles ``laplace(w) = q`` with ``w = g`` on the
boundary by eliminating boundary dofs: interpolate g there, move its
stiffness coupling to the right-hand side, and solve the interior system
with conjugate gradients. The source may be a callable on the domain or
an existing finite element field (then the load is the exact mass-matrix
product, which is what lets solves be chained without extra quadrature
error).

``normal_flux(w, source)`` recovers the consistent variational normal
derivative of a solved field w on w's own space: for boundary dofs i,
t_i = (A w)_i + b_i is the discrete Green identity pairing <dw/dn, phi_i>,
and an L2 boundary projection turns the functional into a pointwise
trace-space field. Summing t over the boundary reproduces the integral of
the source exactly up to solver tolerance (discrete divergence theorem),
which the overdetermined diagnostics below rely on. They keep the
recovered ``BoundaryFlux``: its ``l2_mismatch()`` is the leftover flux
norm and its ``total()`` the outflow.

Operators are built once per space: the stiffness matrix, the mass
matrix, the boundary mass matrix and the interior/boundary blocks are
assembled on the first solve or flux recovery on a space and held on that
space for as long as it lives. Both cascade solves and the flux recovery
share them, and later calls on the same space assemble nothing. The load
of a callable source is assembled once per cascade: ``solve_neumann`` and
``overdetermined_check`` hand the same load of f (or p) to the Dirichlet
solve and to the flux recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .sparse import SparseMatrix, cg_solve, matvec

__all__ = [
    "ScalarField",
    "BoundaryFlux",
    "solve_dirichlet",
    "normal_flux",
    "OverdeterminedResult",
    "overdetermined_check",
    "FourthOrderResult",
    "overdetermined_fourth",
]


@dataclass(frozen=True)
class _Operators:
    """Poisson operators of one space: stiffness K, mass M, boundary mass
    (indexed like ``boundary_dofs``), the interior dofs and the interior
    blocks A_ii = K[interior, interior], A_ib = K[interior, boundary]."""

    stiffness: SparseMatrix
    mass: SparseMatrix
    boundary_mass: SparseMatrix
    interior: np.ndarray
    a_ii: SparseMatrix
    a_ib: SparseMatrix


def _operators(space: FeSpace) -> _Operators:
    """The space's operators, assembled on first use and kept on the space."""
    return _built_once(space, "_poisson_operators", _assemble_operators)


def _assemble_operators(space: FeSpace) -> _Operators:
    k = assemble_stiffness(space)
    bdofs = space.boundary_dofs
    interior = np.setdiff1d(np.arange(space.dof_count), bdofs, assume_unique=True)
    interior.flags.writeable = False
    return _Operators(
        stiffness=k,
        mass=assemble_mass(space),
        boundary_mass=boundary_mass_matrix(space),
        interior=interior,
        a_ii=k.submatrix(interior, interior),
        a_ib=k.submatrix(interior, bdofs),
    )


@dataclass(frozen=True)
class _Load:
    """A source whose load (source, phi_i) is assembled already."""

    values: np.ndarray


def _loaded(space: FeSpace, source) -> _Load:
    """The source's load, computed once, for a ``solve_dirichlet`` and a
    ``normal_flux`` that take the same source on the same space."""
    values = _source_load(space, source)
    values.flags.writeable = False
    return _Load(values)


def _source_load(space: FeSpace, source) -> np.ndarray:
    if isinstance(source, _Load):
        return source.values
    if isinstance(source, ScalarField):
        if source.space is not space:
            raise ValueError("source field lives on a different space")
        return matvec(_operators(space).mass, source.coeffs)
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
    records the CG iteration count (0 when there are no interior dofs).
    """
    # data first, so a non-finite datum fails before any operator is assembled
    b = _source_load(space, source)
    coeffs = np.zeros(space.dof_count)
    bdofs = space.boundary_dofs
    coeffs[bdofs] = _data_values(boundary_value, *space.dof_coordinates[bdofs].T)

    ops = _operators(space)
    interior = ops.interior
    if len(interior) == 0:
        return ScalarField(space, coeffs, solver_iterations=0)

    # Weak form: (grad w, grad v) = -(q, v) for interior v, boundary part lifted.
    rhs = -b[interior] - matvec(ops.a_ib, coeffs[bdofs])
    result = cg_solve(ops.a_ii, rhs, rel_tol=rel_tol, max_iter=max_iter)
    coeffs[interior] = result.x
    return ScalarField(space, coeffs, solver_iterations=result.iterations)


@dataclass(frozen=True)
class BoundaryFlux:
    """Consistent normal-derivative data of a solved Dirichlet field.

    ``functional`` holds the Green-identity pairings <dw/dn, phi_i>, one per
    entry of ``space.boundary_dofs``; ``projected`` holds the coefficients of
    the L2(boundary) projection of that functional: a pointwise flux field.
    """

    space: FeSpace
    functional: np.ndarray
    projected: np.ndarray

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

    For every boundary dof the functional value is (A w + b)_i; interior
    entries of the same residual vanish to solver tolerance when w came
    out of ``solve_dirichlet``, so no information is lost by restricting.
    """
    space = w.space
    ops = _operators(space)
    residual = matvec(ops.stiffness, w.coeffs) + _source_load(space, source)
    t = residual[space.boundary_dofs]
    projected = cg_solve(ops.boundary_mass, t, rel_tol=1e-12).x
    return BoundaryFlux(space, t, projected)


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
    load = _loaded(space, p)
    u = solve_dirichlet(space, load, 0.0, rel_tol=rel_tol, max_iter=max_iter)
    return OverdeterminedResult(u, normal_flux(u, load))


@dataclass(frozen=True)
class FourthOrderResult:
    """Diagnostics for the fully homogeneous fourth-order problem: bilaplacian
    V = p with zero trace, zero Laplacian trace and zero Laplacian flux."""

    v: ScalarField
    u: ScalarField
    flux: BoundaryFlux


def overdetermined_fourth(
    space: FeSpace,
    p,
    *,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> FourthOrderResult:
    """Cascade form of the fourth-order overdetermined problem.

    First solve laplace(U) = p with zero trace, then laplace(V) = U with
    zero trace. V then satisfies bilaplacian V = p with V and laplacian V
    both vanishing on the boundary by construction; the one condition not
    built in is the normal flux of U (= of laplacian V), kept as ``flux``;
    its ``total()`` equals the integral of p.
    """
    check = overdetermined_check(space, p, rel_tol=rel_tol, max_iter=max_iter)
    v = solve_dirichlet(space, check.u, 0.0, rel_tol=rel_tol, max_iter=max_iter)
    return FourthOrderResult(v, check.u, check.flux)
