"""Fourth-order Neumann problem solved as a cascade of two Poisson solves.

The problem: find u with bilaplacian(u) = f in the domain, where the
boundary carries the Laplacian trace g and the Laplacian flux h,

    laplace(u) = g       on the boundary,
    d(laplace u)/dn = h  on the boundary.

Setting sigma = laplace(u) decouples the system triangularly: sigma
solves a Dirichlet Poisson problem with data (f, g), and the zero-trace
representative s of the solution family solves a second Dirichlet
problem with source sigma. The flux datum h never enters either solve;
it is consumed only by the solvability diagnostics. That is exactly the
well-posedness structure of the continuous problem: h is constrained by
f and g through the compatibility conditions rather than imposed.

Diagnostics:

* ``compatibility_residual``: r(eta) = (f, eta) + <g, d(eta)/dn> -
  <h, eta> over a basis of harmonic polynomials eta; all residuals vanish
  for compatible data.
* ``solution.flux.l2_mismatch(h)``: boundary L2 distance between the
  flux of sigma_h, recovered once by the solve and kept on the solution,
  and a flux datum; ``diagnostics.flux_mismatch`` holds it for the
  problem's own h. A perturbed h gives a mismatch bounded below by the
  perturbation's boundary norm instead of one that shrinks under
  refinement.
* ``weak_form_residual``: the defect of sigma_h in the weak formulation
  tested against laplacians of doubly-clamped polynomials.

Both residuals come from one monomial moment table of the data,
(f, x^i y^j), <g n_x, x^i y^j>, <g n_y, x^i y^j> and <h, x^i y^j>, up to
the highest degree asked for: the functional is linear, so its value on a
polynomial is the sum of its exact coefficients times the table entries,
and no test polynomial is evaluated at a quadrature point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fem import (
    FeSpace,
    ScalarField,
    _data_values,
    boundary_geometry,
    boundary_integrate,
    field_values,
    integrate,
    quad_points,
    triangle_quadrature,
)
from .mesh import DomainTag
from .poisson import BoundaryFlux, _loaded, normal_flux, solve_dirichlet
from .polynomials import HarmonicPolynomial, Polynomial2D, harmonic_basis
from .sparse import _check_cg_budget

__all__ = [
    "NeumannProblem",
    "CascadeDiagnostics",
    "CascadeSolution",
    "CompatibilityError",
    "solve_neumann",
    "compatibility_residual",
    "weak_form_residual",
    "DEFAULT_HARMONIC_DEGREE",
    "DEFAULT_STRICT_TOL",
]

DEFAULT_HARMONIC_DEGREE = 3
DEFAULT_STRICT_TOL = 1e-3

# Data terms are smooth but not polynomial; a fixed high order keeps the
# diagnostic quadrature error far below discretization error.
DIAGNOSTIC_VOLUME_ORDER = 6


@dataclass(frozen=True)
class NeumannProblem:
    """Data triple of the fourth-order Neumann problem.

    ``f`` lives on the domain; ``g`` (Laplacian trace) and ``h``
    (Laplacian flux) live on the boundary. All are callables over numpy
    coordinate arrays, or constants.
    """

    f: Callable | float
    g: Callable | float
    h: Callable | float


@dataclass(frozen=True)
class CascadeDiagnostics:
    """Solvability diagnostics attached to a cascade solution.

    ``compat_residuals`` follows the harmonic basis ordering (constant,
    then real/imaginary pairs by increasing degree).
    """

    compat_residuals: np.ndarray
    flux_mismatch: float
    cg_iterations: tuple[int, int]

    @property
    def compat_max(self) -> float:
        return float(np.abs(self.compat_residuals).max())


@dataclass(frozen=True)
class CascadeSolution:
    """Both fields of the triangular cascade plus diagnostics.

    ``sigma_h`` approximates the Laplacian of the solution; ``s_h`` is
    the zero-trace representative of the solution family (solutions are
    determined only up to harmonic functions matching the data). ``flux``
    is the normal flux of sigma_h, recovered once by the solve; with the
    problem it lets diagnostics take perturbed data without a new solve.
    """

    sigma_h: ScalarField
    s_h: ScalarField
    problem: NeumannProblem
    flux: BoundaryFlux
    diagnostics: CascadeDiagnostics


class CompatibilityError(RuntimeError):
    """Raised by strict solves when the data fail the compatibility test."""

    def __init__(self, residuals: np.ndarray, tol: float):
        self.residuals = np.asarray(residuals)
        self.tol = tol
        worst = float(np.abs(self.residuals).max())
        super().__init__(
            f"compatibility residual {worst:.6e} exceeds strict tolerance {tol:.1e}"
        )


def _strict_check(strict: bool, tol: float):
    """The strict test of the residuals: raises CompatibilityError when strict and the
    largest exceeds ``tol``. A NaN or negative ``tol`` raises ValueError at once."""
    if not tol >= 0.0:
        raise ValueError(f"strict tolerance must be a number >= 0, got {tol!r}")

    def check(residuals: np.ndarray) -> None:
        if strict and float(np.abs(residuals).max()) > tol:
            raise CompatibilityError(residuals, tol)

    return check


def _moment_table(integral, vals, x, y, degree: int) -> np.ndarray:
    """T[i, j] = integral(vals * x**i * y**j) for i + j <= degree (zero above).
    Monomials are running products on the points, one at a time, so no
    (points x monomials) array is ever held."""
    size = max(degree + 1, 0)
    table = np.zeros((size, size))
    column = vals
    for i in range(size):
        term = column
        for j in range(size - i):
            table[i, j] = integral(term)
            term = term * y
        column = column * x
    return table


def _pair(table: np.ndarray, poly: Polynomial2D) -> float:
    """The integral a moment table holds, taken against poly: sum of c_ij T[i, j]."""
    return sum(float(c) * table[i, j] for (i, j), c in poly.coeffs.items())


def _data_functional(space: FeSpace, problem: NeumannProblem, degree: int):
    """l(eta) = (f, eta) + <g, d(eta)/dn> - <h, eta> for polynomials eta of degree
    <= ``degree``, from one moment table of the data: (f, x^i y^j), <g n_x, x^i y^j>,
    <g n_y, x^i y^j> and <h, x^i y^j>. Returns ``volume_moments(vals, up_to)``, the
    table of other values at the same volume points, and ``terms(eta)``, the three
    terms of l(eta) uncombined; no test function is evaluated at a point."""
    vol_rule = triangle_quadrature(DIAGNOSTIC_VOLUME_ORDER)
    x, y = quad_points(space.mesh, vol_rule)

    def volume_moments(vals, up_to):
        return _moment_table(lambda v: integrate(space.mesh, vol_rule, v), vals, x, y, up_to)

    f_table = volume_moments(_data_values(problem.f, x, y), degree)

    bx, by, _, normals = boundary_geometry(space.mesh)

    def boundary_moments(vals, up_to):
        return _moment_table(lambda v: boundary_integrate(space.mesh, v), vals, bx, by, up_to)

    g_vals = _data_values(problem.g, bx, by)
    h_table = boundary_moments(_data_values(problem.h, bx, by), degree)
    gx_table = boundary_moments(g_vals * normals[:, 0:1], degree - 1)
    gy_table = boundary_moments(g_vals * normals[:, 1:2], degree - 1)

    def terms(eta: Polynomial2D) -> tuple[float, float, float]:
        ex, ey = eta.grad()
        g_term = _pair(gx_table, ex) + _pair(gy_table, ey)
        return _pair(f_table, eta), g_term, _pair(h_table, eta)

    return volume_moments, terms


def compatibility_residual(
    space: FeSpace,
    problem: NeumannProblem,
    basis: Sequence[HarmonicPolynomial],
) -> np.ndarray:
    """Residuals r(eta) = (f, eta) + <g, d(eta)/dn> - <h, eta> for each
    harmonic test polynomial eta.

    For data that actually belong to one fourth-order Neumann problem all
    residuals vanish; the values returned here differ from zero only by
    quadrature error. A constant perturbation of h shifts r(1) by minus
    the boundary length.
    """
    degree = max((eta.degree for eta in basis), default=0)
    _, terms = _data_functional(space, problem, degree)
    return np.array([volume + g_term - h_term for volume, g_term, h_term in map(terms, basis)])


def solve_neumann(
    space: FeSpace,
    problem: NeumannProblem,
    *,
    harmonic_degree: int = DEFAULT_HARMONIC_DEGREE,
    strict: bool = False,
    strict_tol: float = DEFAULT_STRICT_TOL,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> CascadeSolution:
    """Solve the fourth-order Neumann problem by the triangular cascade.

    First Dirichlet solve: laplace(sigma) = f with trace g. Second:
    laplace(s) = sigma_h with zero trace. The flux datum h is used only
    for diagnostics, so solutions for two problems differing in h alone
    are identical bit for bit.

    ``NeumannProblem(p, 0.0, 0.0)`` is the fully homogeneous fourth-order
    problem bilaplacian V = p with V, laplacian V and its flux all zero:
    ``s_h`` is V, ``sigma_h`` is U = laplacian V, and ``flux`` is the flux
    of U, the one condition the cascade does not build in.

    With ``strict=True`` the solve raises CompatibilityError before any
    linear system is touched if the largest compatibility residual
    exceeds ``strict_tol``. A NaN or negative ``strict_tol``, and a
    ``rel_tol`` or ``max_iter`` that CG rejects, are a ValueError before
    any residual is computed.
    """
    check = _strict_check(strict, strict_tol)
    _check_cg_budget(rel_tol, max_iter)
    residuals = compatibility_residual(space, problem, harmonic_basis(harmonic_degree))
    check(residuals)

    f_load = _loaded(space, problem.f)
    sigma_h = solve_dirichlet(space, f_load, problem.g, rel_tol=rel_tol, max_iter=max_iter)
    s_h = solve_dirichlet(space, sigma_h, 0.0, rel_tol=rel_tol, max_iter=max_iter)

    flux = normal_flux(sigma_h, f_load)
    diagnostics = CascadeDiagnostics(
        compat_residuals=residuals,
        flux_mismatch=flux.l2_mismatch(problem.h),
        cg_iterations=(sigma_h.solver_iterations or 0, s_h.solver_iterations or 0),
    )
    return CascadeSolution(sigma_h, s_h, problem, flux, diagnostics)


def _require_clamped_on_square(r: Polynomial2D) -> None:
    sides = [
        (r.subs_y(0), r.diff("y").subs_y(0)),
        (r.subs_y(1), r.diff("y").subs_y(1)),
        (r.subs_x(0), r.diff("x").subs_x(0)),
        (r.subs_x(1), r.diff("x").subs_x(1)),
    ]
    for trace, normal_derivative in sides:
        if not trace.is_zero():
            raise ValueError("test polynomial has a nonzero boundary trace")
        if not normal_derivative.is_zero():
            raise ValueError("test polynomial has a nonzero boundary normal derivative")


def weak_form_residual(solution: CascadeSolution, r: Polynomial2D) -> float:
    """Defect of sigma_h in the weak formulation, tested against the
    Laplacian of a doubly-clamped polynomial r:

        | (sigma_h, bilap r) - (f, lap r) - <g, d(lap r)/dn> + <h, lap r> |

    For the exact sigma this combination vanishes identically (two
    integrations by parts move the bilaplacian across), so the value
    measures how far sigma_h is from satisfying the original fourth-order
    equation in weak form. The polynomial must vanish on the boundary of
    the unit square together with its normal derivative; both conditions
    are checked by exact substitution, and non-square domains are
    rejected because the check (and the identity) needs exact boundary
    arithmetic.
    """
    space = solution.sigma_h.space
    if space.mesh.domain_tag is not DomainTag.UNIT_SQUARE:
        raise ValueError("weak form residual is implemented for the unit square only")
    _require_clamped_on_square(r)

    omega = r.laplacian()
    bilap = omega.laplacian()

    volume_moments, terms = _data_functional(space, solution.problem, omega.degree)
    sigma_vals = field_values(solution.sigma_h, triangle_quadrature(DIAGNOSTIC_VOLUME_ORDER))
    term_sigma = _pair(volume_moments(sigma_vals, bilap.degree), bilap)
    term_f, term_g, term_h = terms(omega)

    return abs(term_sigma - term_f - term_g + term_h)
