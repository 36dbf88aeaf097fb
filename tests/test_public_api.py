"""The public surface: each module declares its names once, in its
``__all__``, and the package exports exactly those."""

import dataclasses
import inspect

import pytest

import biharm
from biharm import biharmonic, cli, fem, manufactured, mesh, poisson, polynomials, sparse

# The package's modules, in the order of ``biharm.__all__``; the CLI is not re-exported.
MODULES = (mesh, fem, sparse, poisson, biharmonic, polynomials, manufactured)


def test_package_exports_every_module_name_once():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert biharm.__all__ == expected
    assert len(set(biharm.__all__)) == len(biharm.__all__)
    assert isinstance(biharm.__version__, str)
    for module in MODULES:  # each top-level name is the module's own object
        for name in module.__all__:
            assert getattr(biharm, name) is getattr(module, name)


@pytest.mark.parametrize("module", (*MODULES, cli), ids=lambda module: module.__name__)
def test_module_names_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name)


@pytest.mark.parametrize(
    "name",
    [
        "overdetermined_fourth",
        "FourthOrderResult",
        "flux_mismatch",
        "poly_divmod",
        "ComplexPolynomial",
    ],
)
def test_restating_names_are_gone(name):
    assert name not in biharm.__all__
    assert all(not hasattr(module, name) for module in (biharm, *MODULES))


# Every value a caller can set: the init fields of each public dataclass and the
# parameters of the entry points. A new knob, or a field that restates another,
# is one more name here, so the count shows in review.
SETTABLE = {
    "Mesh": ("vertices", "triangles"),
    "QuadratureRule": ("points", "weights"),
    "FeSpace": ("mesh", "degree"),
    "ScalarField": ("space", "coeffs", "solver_iterations"),
    "SparseMatrix": ("csr",),
    "CGResult": ("x", "iterations", "residual"),
    "BoundaryFlux": ("space", "functional"),
    "OverdeterminedResult": ("u", "flux"),
    "NeumannProblem": ("f", "g", "h"),
    "CascadeDiagnostics": ("compat_residuals", "flux_mismatch", "cg_iterations"),
    "CascadeSolution": ("sigma_h", "s_h", "problem", "flux", "diagnostics"),
    "GaussianRational": ("re", "im"),
    "SymbolRemainder": ("c0", "c1"),
    "ComplementingResult": ("remainder1", "remainder2", "linearly_dependent", "factor"),
    "ManufacturedCase": ("name", "u_exact", "sigma_exact", "f", "g", "h", "grad_u"),
    "build_space": ("mesh", "degree"),
    "solve_dirichlet": ("space", "source", "boundary_value", "rel_tol", "max_iter"),
    "normal_flux": ("w", "source"),
    "overdetermined_check": ("space", "p", "rel_tol", "max_iter"),
    "solve_neumann": (
        "space",
        "problem",
        "harmonic_degree",
        "strict",
        "strict_tol",
        "rel_tol",
        "max_iter",
    ),
    "compatibility_residual": ("space", "problem", "basis"),
    "cg_solve": ("a", "b", "rel_tol", "max_iter"),
}


def test_census_of_settable_values():
    census = {}
    for name in biharm.__all__:
        obj = getattr(biharm, name)
        if isinstance(obj, type) and dataclasses.is_dataclass(obj):
            census[name] = tuple(f.name for f in dataclasses.fields(obj) if f.init)
        elif name in SETTABLE:
            census[name] = tuple(inspect.signature(obj).parameters)
    assert census == SETTABLE
