"""Overdetermined Poisson problems as solvability probes.

Demanding both zero trace and zero normal derivative of a Poisson
solution overdetermines it; a source p admits such a solution only in
exceptional cases. The diagnostic solves the Dirichlet half and reports
the leftover boundary flux. The Laplacian of the doubly-clamped bubble
(x(1-x))^2 (y(1-y))^2 is such an exceptional source; the constant 1 is
not, and its flux norm stalls near 0.53 while the total flux always
equals the integral of p by the discrete divergence theorem.
"""

from biharm.biharmonic import NeumannProblem, solve_neumann
from biharm.fem import build_space
from biharm.mesh import unit_square_mesh
from biharm.poisson import overdetermined_check
from biharm.polynomials import Polynomial2D

x, y = Polynomial2D.x(), Polynomial2D.y()
one = Polynomial2D.constant(1)
bubble = (x * (one - x)) ** 2 * (y * (one - y)) ** 2
sigma = bubble.laplacian()

print("second-order check, p = laplacian of the clamped bubble (compatible):")
for n in (8, 16, 32):
    flux = overdetermined_check(build_space(unit_square_mesh(n), 1), sigma).flux
    print(f"  n={n:3d}  flux_l2={flux.l2_mismatch():.4e}  total_flux={flux.total(): .2e}")

print("second-order check, p = 1 (incompatible):")
for n in (8, 16, 32):
    flux = overdetermined_check(build_space(unit_square_mesh(n), 1), 1.0).flux
    print(f"  n={n:3d}  flux_l2={flux.l2_mismatch():.4e}  total_flux={flux.total():.12f}")

# fourth-order variant: bilaplacian V = p with V, lap V and its flux all
# pinned is the Neumann problem with g = h = 0; the cascade builds the two
# trace conditions in exactly, so only the flux is reported
print("fourth-order cascade, p = laplacian of the bubble:")
fourth = NeumannProblem(sigma, 0.0, 0.0)
for n in (8, 16):
    flux = solve_neumann(build_space(unit_square_mesh(n), 1), fourth).flux
    print(f"  n={n:3d}  flux_l2={flux.l2_mismatch():.4e}  total_flux={flux.total(): .2e}")
