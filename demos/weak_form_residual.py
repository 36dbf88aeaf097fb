"""Weak form residual of the computed sigma field.

Testing the fourth-order equation against the Laplacian of a polynomial
r that vanishes on the boundary of the square together with its normal
derivative moves all derivatives onto r:

    (sigma, bilap r) = (f, lap r) + <g, d(lap r)/dn> - <h, lap r>.

The defect of sigma_h in this identity is a per-mesh scalar that tracks
the discretization error of the first cascade stage.
"""

from biharm.biharmonic import NeumannProblem, solve_neumann, weak_form_residual
from biharm.fem import build_space
from biharm.manufactured import case_sine
from biharm.mesh import unit_square_mesh
from biharm.polynomials import Polynomial2D

x, y = Polynomial2D.x(), Polynomial2D.y()
one = Polynomial2D.constant(1)
r = (x * (one - x)) ** 2 * (y * (one - y)) ** 2  # doubly clamped

case = case_sine()
problem = NeumannProblem(case.f, case.g, case.h)
for n in (8, 16, 32, 64):
    space = build_space(unit_square_mesh(n), 1)
    sol = solve_neumann(space, problem)
    defect = weak_form_residual(sol, r)
    print(f"n={n:3d}  weak form residual = {defect:.4e}")
