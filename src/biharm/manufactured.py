"""Manufactured solutions on the unit square, and error norms.

Each case packages a known solution u of the fourth-order Neumann
problem together with the data derived from it: sigma = laplace(u),
f = laplace(sigma), the boundary trace g = sigma restricted to the
boundary, and the boundary flux h = d(sigma)/dn. The flux is defined
piecewise per side; side membership is decided from the coordinates,
which is unambiguous everywhere boundary quadrature evaluates it (Gauss
points are interior to edges, so corners never come up).

The trigonometric case has hand-derived closed forms. The polynomial
case derives all data from the solution by exact symbolic
differentiation of a ``Polynomial2D``, so no hand algebra enters it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import (
    ScalarField,
    _data_values,
    _raise_on_overflow,
    _volume_points,
    default_volume_rule,
    field_gradients,
    field_values,
    integrate,
)
from .mesh import _cast
from .polynomials import Polynomial2D

__all__ = [
    "ManufacturedCase",
    "case_sine",
    "case_bubble",
    "cases",
    "l2_error",
    "h1_error",
]

EDGE_TOL = 1e-12


def _piecewise_normal_flux(sigma_x, sigma_y) -> Callable:
    """Build h(x, y) = grad(sigma) . n on the unit square boundary from the
    two partial-derivative callables, dispatching on which side (x, y)
    lies on. Outward normals: (0,-1), (1,0), (0,1), (-1,0) for the sides
    y=0, x=1, y=1, x=0."""

    def h(x, y):
        x, y = _cast(x, float), _cast(y, float)
        sx = sigma_x(x, y)
        sy = sigma_y(x, y)
        conditions = [
            np.abs(y) <= EDGE_TOL,
            np.abs(x - 1.0) <= EDGE_TOL,
            np.abs(y - 1.0) <= EDGE_TOL,
            np.abs(x) <= EDGE_TOL,
        ]
        choices = [-sy, sx, sy, -sx]
        out = np.select(conditions, choices, default=np.nan)
        if np.isnan(out).any():
            raise ValueError("flux datum evaluated off the unit square boundary")
        return out

    return h


@dataclass(frozen=True)
class ManufacturedCase:
    """A known solution with all derived data for the cascade solver.

    All members are callables over numpy coordinate arrays. ``grad_u``
    returns the gradient pair of the solution, for H1 error measurement.
    """

    name: str
    u_exact: Callable
    sigma_exact: Callable
    f: Callable
    g: Callable
    h: Callable
    grad_u: Callable


def case_sine() -> ManufacturedCase:
    """u = sin(pi x) sin(pi y) on the unit square.

    Then sigma = -2 pi^2 u, f = 4 pi^4 u, g vanishes, and on every side
    the outward flux of sigma is 2 pi^3 sin(pi t) with t the coordinate
    running along that side.
    """
    pi = np.pi

    def u(x, y):
        return np.sin(pi * x) * np.sin(pi * y)

    def sigma(x, y):
        return -2.0 * pi**2 * np.sin(pi * x) * np.sin(pi * y)

    def f(x, y):
        return 4.0 * pi**4 * np.sin(pi * x) * np.sin(pi * y)

    def sigma_x(x, y):
        return -2.0 * pi**3 * np.cos(pi * x) * np.sin(pi * y)

    def sigma_y(x, y):
        return -2.0 * pi**3 * np.sin(pi * x) * np.cos(pi * y)

    def grad_u(x, y):
        return pi * np.cos(pi * x) * np.sin(pi * y), pi * np.sin(pi * x) * np.cos(pi * y)

    return ManufacturedCase(
        name="sine",
        u_exact=u,
        sigma_exact=sigma,
        f=f,
        g=lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape),
        h=_piecewise_normal_flux(sigma_x, sigma_y),
        grad_u=grad_u,
    )


def case_bubble() -> ManufacturedCase:
    """u = (x (1-x) y (1-y))^2 on the unit square.

    The solution is polynomial with zero trace and zero normal
    derivative, but its Laplacian does not vanish on the boundary, so the
    trace datum g is genuinely nonzero (g(x, 0) = 2 x^2 (1-x)^2). All
    data come from exact symbolic differentiation.
    """
    x, y = Polynomial2D.x(), Polynomial2D.y()
    u = (x * (1 - x)) ** 2 * (y * (1 - y)) ** 2
    sigma = u.laplacian()
    f = sigma.laplacian()
    sigma_x, sigma_y = sigma.grad()
    u_x, u_y = u.grad()

    return ManufacturedCase(
        name="bubble",
        u_exact=u,
        sigma_exact=sigma,
        f=f,
        g=sigma,
        h=_piecewise_normal_flux(sigma_x, sigma_y),
        grad_u=lambda px, py: (u_x(px, py), u_y(px, py)),
    )


def cases() -> dict[str, ManufacturedCase]:
    """All built-in cases keyed by name."""
    return {c.name: c for c in (case_sine(), case_bubble())}


def _l2_pass(fe_field: ScalarField, exact):
    """One pass on the default volume rule: the rule, the space's held points
    of it and the L2 distance between the field and a callable (or constant)."""
    space = fe_field.space
    rule = default_volume_rule(space.degree)
    x, y = _volume_points(space)
    exact_vals = _data_values(exact, x, y)
    with _raise_on_overflow():
        vals = field_values(fe_field, rule)
        sq = integrate(space.mesh, rule, (vals - exact_vals) ** 2)
    return rule, x, y, float(np.sqrt(sq))


def l2_error(fe_field: ScalarField, exact) -> float:
    """L2 distance between a finite element field and a callable (or
    constant), by quadrature at the space's default volume order. A
    distance beyond float range raises FloatingPointError."""
    return _l2_pass(fe_field, exact)[3]


def h1_error(fe_field: ScalarField, exact, grad_exact) -> float:
    """Full H1 error: L2 part plus the gradient seminorm against the exact
    gradient pair callable grad_exact(x, y) -> (gx, gy), on the points of
    the L2 pass. A gradient component that is not a finite real number
    raises DataError; an error beyond float range, FloatingPointError."""
    rule, x, y, l2 = _l2_pass(fe_field, exact)
    gx, gy = (_data_values(g, x, y) for g in grad_exact(x, y))
    with _raise_on_overflow():
        grads = field_gradients(fe_field, rule)
        semi = (grads[:, :, 0] - gx) ** 2 + (grads[:, :, 1] - gy) ** 2
        return float(np.sqrt(l2**2 + integrate(fe_field.space.mesh, rule, semi)))
