"""Compatibility residuals and the flux mismatch diagnostic.

The data triple (f, g, h) of the fourth-order Neumann problem cannot be
chosen freely: testing against any harmonic polynomial eta gives the
identity

    (f, eta) + <g, d(eta)/dn> - <h, eta> = 0.

The residuals of this identity vanish (up to quadrature error) for
consistent data and detect tampering. Adding a constant c to h shifts
the constant residual by -c times the boundary length. The flux
mismatch compares the normal derivative of sigma_h, recovered once by
the solve and kept on the solution, with the datum h; it decreases under
refinement for compatible data and is pinned from below by the
perturbation norm otherwise. Probing another h needs no new solve.
"""

import numpy as np

from biharm.biharmonic import NeumannProblem, compatibility_residual, solve_neumann
from biharm.fem import build_space
from biharm.manufactured import case_sine
from biharm.mesh import unit_square_mesh
from biharm.polynomials import harmonic_basis

case = case_sine()
problem = NeumannProblem(case.f, case.g, case.h)
perturbed = NeumannProblem(case.f, case.g, lambda x, y: case.h(x, y) + 1.0)
basis = harmonic_basis(3)

space = build_space(unit_square_mesh(32), 1)
labels = ["1"] + [f"{p}^{k}" for k in (1, 2, 3) for p in ("Re", "Im")]
print("compatibility residuals, consistent data (n=32):")
for label, r in zip(labels, compatibility_residual(space, problem, basis)):
    print(f"  r[{label:5s}] = {r: .3e}")

r_bad = compatibility_residual(space, perturbed, basis)
print(f"after h -> h + 1: r[1] = {r_bad[0]: .6f}   (minus the perimeter)")

print("flux mismatch under refinement:")
for n in (8, 16, 32):
    space = build_space(unit_square_mesh(n), 1)
    sol = solve_neumann(space, problem)
    good = sol.diagnostics.flux_mismatch
    bad = sol.flux.l2_mismatch(perturbed.h)
    print(f"  n={n:3d}  consistent={good:.4f}  perturbed={bad:.4f}  total={sol.flux.total():.4f}")
print("the perturbed column is bounded below by |1|_L2(boundary) = 2;")
print("the total outflow is the integral of f, 16 pi^2 = 157.9137")
