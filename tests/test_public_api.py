"""The public surface: each module declares its names once, in its
``__all__``, and the package exports exactly those."""

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
