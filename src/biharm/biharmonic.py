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
* ``weak_form_residual``: the defect of sigma_h in Green's identity
  (sigma, lap v) = (f, v) + <g, dv/dn> - <h, v>, tested against v = lap r
  for any polynomial r on any mesh. No boundary condition on r is needed;
  for harmonic lap r the defect is the compatibility residual of lap r.

Both residuals come from one monomial moment table of the data,
(f, x^i y^j), <g n_x, x^i y^j>, <g n_y, x^i y^j> and <h, x^i y^j>, up to
the highest degree asked for: the functional is linear, so its value on a
polynomial is the sum of its exact coefficients times the table entries,
and no test polynomial is evaluated at a quadrature point.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .fem import (
    FeSpace,
    ScalarField,
    _data_values,
    _element_sum,
    _field_rows,
    _held_points,
    _point_blocks,
    _raise_on_overflow,
    boundary_geometry,
    default_boundary_rule,
    triangle_geometry,
    triangle_quadrature,
)
from .mesh import _owned
from .poisson import BoundaryFlux, _held_load, _solve_with_flux, solve_dirichlet
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

_BLOCK = 2048  # elements per block of a moment table: a block's arrays fit in L2
# per-element sums one pass of a moment table holds, unless one row has more;
# with the points and the running product kept between passes, 80 values per
# triangle at P1, as many as the full-array table held at degree 15
_GROUP = 32


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


@dataclass(frozen=True, eq=False)
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
        self.residuals = _owned(residuals)
        self.tol = tol
        worst = float(np.abs(self.residuals).max())
        super().__init__(
            f"compatibility residual {worst:.6e} exceeds strict tolerance {tol:.1e}"
        )


def _strict_check(strict: bool, tol: float):
    """The strict test of the residuals: raises CompatibilityError when strict and the
    largest exceeds ``tol``. A ``strict`` without one truth value, or a ``tol`` that is
    not a real number, a bool, NaN or negative, raises ValueError at once."""
    strict = bool(strict)
    real = not isinstance(tol, bool) and isinstance(tol, numbers.Real)
    if not (real and tol >= 0.0):
        raise ValueError(f"strict tolerance must be a number >= 0, got {tol!r}")

    def check(residuals: np.ndarray) -> None:
        if strict and float(np.abs(residuals).max()) > tol:
            raise CompatibilityError(residuals, tol)

    return check


def _moment_table(sizes, weights, x, y, vals, degree: int) -> np.ndarray:
    """``_block_moments`` of ``vals`` given whole at points x, y, as one run."""
    return _block_moments(sizes, weights, lambda: [(slice(None), x, y)], lambda *_: vals, degree)


def _row_groups(size: int):
    """(first, stop, entries) of each run of rows of a table of ``size`` rows, row i
    of size - i entries: one row, or as many as keep the entries within ``_GROUP``."""
    first = 0
    while first < size:
        stop, entries = first + 1, size - first
        while stop < size and entries + size - stop <= _GROUP:
            stop, entries = stop + 1, entries + size - stop
        yield first, stop, entries
        first = stop


def _block_moments(sizes, weights, points, values, degree: int) -> np.ndarray:
    """T[i, j] = integral of v * x**i * y**j for i + j <= degree (zero above) on
    elements of the given sizes and rule weights, summed as ``fem.integrate`` sums.
    ``points()`` yields read-only runs (rows, x, y) in element order; ``values(rows,
    x, y)``, called once per run outside the overflow scope, gives v there. Each run
    is walked in blocks of ``_BLOCK`` elements, whose arrays stay in cache.
    Monomials are running products formed in place; each entry keeps its rule sum
    on every element until the last block, then ``_element_sum`` sums them. Rows go
    in groups of at most ``_GROUP`` such sums per element, a pass over the runs
    each; past one group, the runs of points and the running product x**i * v,
    in one (T, nq) array, are kept between passes. T[0, 0] integrates v itself: a
    broadcast constant sums in another order than its copy."""
    size, count = max(degree + 1, 0), len(sizes)
    table = np.zeros((size, size))
    groups = list(_row_groups(size)) or [(0, 0, 0)]  # no rows: the values are still checked
    runs, kept = points(), None
    if len(groups) > 1:
        runs, kept = list(runs), np.empty((count, len(weights)))
    sums = np.empty((max(entries for *_, entries in groups), count))
    for first, stop, entries in groups:
        for run, x, y in runs:
            vals = values(run, x, y) if first == 0 else None
            for rows in (slice(start, start + _BLOCK) for start in range(0, len(x), _BLOCK)):
                px, py, out = x[rows], y[rows], sums[:, run][:, rows]
                with _raise_on_overflow():
                    column = np.empty(px.shape) if kept is None else kept[run][rows]
                    if first == 0:
                        np.copyto(column, vals[rows])
                    term, k = np.empty_like(column), 0
                    for i in range(first, stop):
                        np.copyto(term, column)
                        for j in range(size - i):
                            np.einsum("tq,q->t", term if i + j else vals[rows], weights, out=out[k])
                            k += 1
                            if j + 1 < size - i:
                                term *= py
                        if i + 1 < size:
                            column *= px
        with _raise_on_overflow():
            totals = _element_sum(sizes, sums[:entries])
        for i in range(first, stop):
            table[i, : size - i], totals = totals[: size - i], totals[size - i :]
    return table


def _test_polynomial(eta, name: str) -> Polynomial2D:
    """``eta`` if it is a Polynomial2D, else ValueError naming ``name``: a data
    callable such as a lambda has no exact coefficients to pair with a table."""
    if not isinstance(eta, Polynomial2D):
        raise ValueError(f"{name} must be a Polynomial2D, got {eta!r}")
    return eta


def _pair(table: np.ndarray, poly: Polynomial2D) -> float:
    """The integral a moment table holds, taken against poly: sum of c_ij T[i, j],
    a float also for the zero polynomial. A coefficient beyond float range
    raises FloatingPointError."""
    try:
        return sum((float(c) * table[i, j] for (i, j), c in poly.coeffs.items()), 0.0)
    except OverflowError as exc:
        raise FloatingPointError("test polynomial coefficient beyond float range") from exc


def _data_functional(space: FeSpace, problem: NeumannProblem, degree: int):
    """l(eta) = (f, eta) + <g, d(eta)/dn> - <h, eta> for polynomials eta of degree
    <= ``degree``, from one moment table of the data: (f, x^i y^j), <g n_x, x^i y^j>,
    <g n_y, x^i y^j> and <h, x^i y^j>. Returns ``volume_moments(values, up_to)``, the
    table of other values at the same volume points, given per run as
    ``_block_moments`` takes them, and ``terms(eta)``, the three terms of l(eta)
    uncombined; no test function is evaluated at a point. f is evaluated per run of
    ``_point_blocks`` as its table is formed, before g and h: once at P2, on the held
    order-6 points, where an array f of their shape is f's values. The data tables
    overflow as FloatingPointError."""
    rule = triangle_quadrature(DIAGNOSTIC_VOLUME_ORDER)
    points = partial(_point_blocks, space, rule, _BLOCK)
    volume_moments = partial(_block_moments, triangle_geometry(space.mesh)[2], rule.weights, points)
    f_table = volume_moments(lambda rows, x, y: _data_values(problem.f, x, y), degree)

    bx, by, lengths, normals = boundary_geometry(space.mesh)
    g_vals = _data_values(problem.g, bx, by)
    h_vals = _data_values(problem.h, bx, by)
    boundary_moments = partial(_moment_table, lengths, default_boundary_rule().weights, bx, by)
    h_table = boundary_moments(h_vals, degree)
    with _raise_on_overflow():
        g_normals = g_vals * normals[:, 0:1], g_vals * normals[:, 1:2]
    gx_table, gy_table = (boundary_moments(g, degree - 1) for g in g_normals)

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
    the boundary length. A residual beyond float range raises
    FloatingPointError; a test function that is not a Polynomial2D raises
    ValueError before any datum is evaluated. f is called per block of 2,048
    triangles at P1, and once, on all the held order-6 points, at P2.
    """
    basis = [_test_polynomial(eta, f"basis[{k}]") for k, eta in enumerate(basis)]
    degree = max((eta.degree for eta in basis), default=0)
    _, terms = _data_functional(space, problem, degree)
    with _raise_on_overflow():
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
    linear system is touched if the largest compatibility residual exceeds
    ``strict_tol``. Options come first: a ``strict`` without one truth value,
    a ``strict_tol`` that is not a real number >= 0 (a bool or NaN included),
    a ``harmonic_degree`` that ``harmonic_basis`` rejects, and a ``rel_tol``
    or ``max_iter`` that CG rejects are a ValueError before any datum is read.

    At P2 the load and the compatibility table integrate f on the same
    points, the space's held order-6 points, so f is called once, on all
    of them, and ``compatibility_residual`` gets those values as its f.
    """
    check = _strict_check(strict, strict_tol)
    _check_cg_budget(rel_tol, max_iter)
    basis = harmonic_basis(harmonic_degree)
    held = _held_points(space, triangle_quadrature(DIAGNOSTIC_VOLUME_ORDER))
    source = problem.f if held is None else _data_values(problem.f, *held)
    residuals = compatibility_residual(space, replace(problem, f=source), basis)
    check(residuals)

    source = _held_load(space, source)  # f's values go before the operators are built
    sigma_h, flux = _solve_with_flux(space, source, problem.g, rel_tol, max_iter)
    s_h = solve_dirichlet(space, sigma_h, 0.0, rel_tol=rel_tol, max_iter=max_iter)
    diagnostics = CascadeDiagnostics(
        compat_residuals=_owned(residuals),
        flux_mismatch=flux.l2_mismatch(problem.h),
        cg_iterations=(sigma_h.solver_iterations, s_h.solver_iterations),
    )
    return CascadeSolution(sigma_h, s_h, problem, flux, diagnostics)


def weak_form_residual(solution: CascadeSolution, r: Polynomial2D) -> float:
    """Defect of sigma_h in the weak formulation, tested against the
    Laplacian of any polynomial r, on any mesh:

        | (sigma_h, bilap r) - (f, lap r) - <g, d(lap r)/dn> + <h, lap r> |

    Green's formula gives (sigma, lap v) = (f, v) + <g, dv/dn> - <h, v> for
    every v when laplace(sigma) = f with trace g and flux h, on any polygon.
    With v = lap r the combination therefore vanishes at the exact sigma of
    compatible data, whatever r does on the boundary, and the value measures
    how far sigma_h is from satisfying the fourth-order equation in weak form.
    Where lap r is harmonic the sigma term drops out and the defect is the
    absolute compatibility residual of lap r, bit for bit. A value beyond
    float range raises FloatingPointError; an r that is not a Polynomial2D
    raises ValueError before any datum is evaluated.
    """
    space = solution.sigma_h.space
    omega = _test_polynomial(r, "r").laplacian()
    bilap = omega.laplacian()

    volume_moments, terms = _data_functional(space, solution.problem, omega.degree)
    sigma, rule = solution.sigma_h, triangle_quadrature(DIAGNOSTIC_VOLUME_ORDER)
    sigma_table = volume_moments(lambda rows, *_: _field_rows(sigma, rule, rows), bilap.degree)
    with _raise_on_overflow():
        term_sigma = _pair(sigma_table, bilap)
        term_f, term_g, term_h = terms(omega)
        return abs(term_sigma - term_f - term_g + term_h)
