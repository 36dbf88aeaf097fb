"""Convergence of the Dirichlet Poisson solver.

Manufactured solution u = sin(pi x) sin(pi y), so laplace(u) =
-2 pi^2 u and u vanishes on the boundary of the unit square. Piecewise
linear elements give second order in L2, quadratic elements third order.
"""

import numpy as np

from biharm.fem import build_space
from biharm.manufactured import l2_error
from biharm.mesh import unit_square_mesh
from biharm.poisson import solve_dirichlet

u = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
q = lambda x, y: -2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)

for degree in (1, 2):
    print(f"degree {degree}")
    prev = None
    for n in (8, 16, 32, 64):
        space = build_space(unit_square_mesh(n), degree)
        w = solve_dirichlet(space, q, 0.0, rel_tol=1e-12)
        err = l2_error(w, u)
        rate = "" if prev is None else f"  rate {np.log2(prev / err):.2f}"
        print(f"  n={n:3d}  dofs={space.dof_count:5d}  l2={err:.4e}{rate}")
        prev = err
