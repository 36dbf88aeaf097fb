"""Finite element toolkit for the fourth-order Neumann problem.

The boundary value problem bilaplacian(u) = f with prescribed Laplacian
trace g and Laplacian flux h is solved as a triangular cascade of two
Dirichlet Poisson problems, with the flux datum h entering only through
solvability diagnostics: compatibility residuals against harmonic
polynomials, recovered-flux mismatch, weak form defects, and an exact
rational-arithmetic check of the boundary-symbol independence that
explains why no coercive variational formulation exists for this
boundary operator pair.
"""

from .biharmonic import (
    CascadeDiagnostics,
    CascadeSolution,
    CompatibilityError,
    NeumannProblem,
    compatibility_residual,
    flux_mismatch,
    solve_neumann,
    weak_form_residual,
)
from .fem import (
    DataError,
    FeSpace,
    QuadratureRule,
    ScalarField,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    boundary_l2_error,
    boundary_mass_matrix,
    build_space,
    interpolate,
    segment_quadrature,
    triangle_quadrature,
)
from .manufactured import (
    ManufacturedCase,
    case_bubble,
    case_sine,
    cases,
    h1_error,
    l2_error,
)
from .mesh import (
    DomainTag,
    Mesh,
    MeshFormatError,
    MeshValidationError,
    read_mesh,
    refine_uniform,
    unit_disk_mesh,
    unit_square_mesh,
    write_mesh,
)
from .poisson import (
    BoundaryFlux,
    FourthOrderResult,
    OverdeterminedResult,
    normal_flux,
    overdetermined_check,
    overdetermined_fourth,
    solve_dirichlet,
)
from .polynomials import (
    ComplementingResult,
    ComplexPolynomial,
    GaussianRational,
    HarmonicPolynomial,
    Polynomial2D,
    complementing_check,
    harmonic_basis,
    laplace_complementing_check,
    poly_divmod,
)
from .sparse import (
    CGResult,
    NonConvergenceError,
    NotSPDError,
    SparseMatrix,
    cg_solve,
    from_triplets,
    matvec,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mesh
    "DomainTag",
    "Mesh",
    "MeshValidationError",
    "MeshFormatError",
    "unit_square_mesh",
    "unit_disk_mesh",
    "refine_uniform",
    "write_mesh",
    "read_mesh",
    # fem
    "DataError",
    "QuadratureRule",
    "triangle_quadrature",
    "segment_quadrature",
    "FeSpace",
    "build_space",
    "ScalarField",
    "interpolate",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "boundary_mass_matrix",
    "boundary_l2_error",
    # sparse
    "SparseMatrix",
    "from_triplets",
    "matvec",
    "CGResult",
    "cg_solve",
    "NonConvergenceError",
    "NotSPDError",
    # poisson
    "solve_dirichlet",
    "BoundaryFlux",
    "normal_flux",
    "OverdeterminedResult",
    "overdetermined_check",
    "FourthOrderResult",
    "overdetermined_fourth",
    # biharmonic
    "NeumannProblem",
    "CascadeDiagnostics",
    "CascadeSolution",
    "CompatibilityError",
    "solve_neumann",
    "compatibility_residual",
    "flux_mismatch",
    "weak_form_residual",
    # polynomials
    "Polynomial2D",
    "HarmonicPolynomial",
    "harmonic_basis",
    "GaussianRational",
    "ComplexPolynomial",
    "poly_divmod",
    "ComplementingResult",
    "complementing_check",
    "laplace_complementing_check",
    # manufactured
    "ManufacturedCase",
    "case_sine",
    "case_bubble",
    "cases",
    "l2_error",
    "h1_error",
]
