"""Weak form residual of the computed sigma field.

Green's formula moves every derivative of the fourth-order equation onto
the Laplacian of a polynomial r:

    (sigma, bilap r) = (f, lap r) + <g, d(lap r)/dn> - <h, lap r>.

The identity holds for any polynomial r on any polygon; this demo takes
the doubly clamped bubble on the unit square. The defect of sigma_h in
the identity is a per-mesh scalar that tracks the discretization error
of the first cascade stage.
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
