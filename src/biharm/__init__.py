"""Finite element toolkit for the fourth-order Neumann problem.

The boundary value problem bilaplacian(u) = f with prescribed Laplacian
trace g and Laplacian flux h is solved as a triangular cascade of two
Dirichlet Poisson problems, with the flux datum h entering only through
solvability diagnostics: compatibility residuals against harmonic
polynomials, recovered-flux mismatch, weak form defects, and an exact
rational-arithmetic check of the boundary-symbol independence that
explains why no coercive variational formulation exists for this
boundary operator pair. The fully homogeneous fourth-order problem, with
zero trace, Laplacian trace and Laplacian flux, is
``solve_neumann(space, NeumannProblem(p, 0.0, 0.0))``.

Each module declares its public names once, in its ``__all__``; the
package exports all of them.
"""

from . import biharmonic, fem, manufactured, mesh, poisson, polynomials, sparse
from .biharmonic import *
from .fem import *
from .manufactured import *
from .mesh import *
from .poisson import *
from .polynomials import *
from .sparse import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *mesh.__all__,
    *fem.__all__,
    *sparse.__all__,
    *poisson.__all__,
    *biharmonic.__all__,
    *polynomials.__all__,
    *manufactured.__all__,
]
