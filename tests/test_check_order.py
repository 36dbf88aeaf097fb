"""One check order at every door: options, then data, then operators.

One table lists every public callable that takes an option or a datum, and
every command of the CLI, with the bad values of each option: negative, NaN,
inf, bool, non-integral, wrong type, wrong shape, and a field from another
space. Each row must end in a typed error, a ValueError (exit 1 on the command
line), before any work: a recording datum sees no call before an option error,
and a recording ``poisson._assemble_operators`` and recording mesh builders see
no call before any error. A row whose bad value is a datum (``Data``) may read
the other data first.

Left out, as taking no option or datum: callables of a mesh or space alone
(``assemble_stiffness``, ``assemble_mass``, ``boundary_mass_matrix``,
``refine_uniform``, ``write_mesh``), the case constructors, the complementing
checks, and the entries in ``TAKES_NO_OPTION``.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from test_cli_options import _subparsers

from biharm import cli, poisson
from biharm.biharmonic import (
    NeumannProblem,
    compatibility_residual,
    solve_neumann,
    weak_form_residual,
)
from biharm.fem import (
    FeSpace,
    QuadratureRule,
    ScalarField,
    assemble_load,
    boundary_l2_error,
    build_space,
    interpolate,
    triangle_quadrature,
)
from biharm.manufactured import h1_error, l2_error
from biharm.mesh import Mesh, read_mesh, unit_disk_mesh, unit_square_mesh
from biharm.poisson import BoundaryFlux, normal_flux, overdetermined_check, solve_dirichlet
from biharm.polynomials import Polynomial2D, harmonic_basis
from biharm.sparse import cg_solve, from_triplets, matvec


class Datum:
    """A datum of value 0 that records each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, y):
        self.calls.append(np.shape(x))
        return np.zeros(np.shape(x))


nan, inf = float("nan"), float("inf")

# the bad values of each kind of argument, by name
TOLERANCE = {  # finite and > 0
    "negative": -1e-10,
    "zero": 0.0,
    "nan": nan,
    "inf": inf,
    "bool": True,
    "str": "1e-10",
    "array": np.array([1e-10, 1e-10]),
}
STRICT_TOL = {"negative": -1e-3, "nan": nan, "bool": True, "str": "1e-3", "none": None}
STRICT = {"array": np.array([True, False])}  # no one truth value
COUNT = {  # an integer of at least 0
    "negative": -1,
    "non-integral": 2.5,
    "nan": nan,
    "inf": inf,
    "bool": True,
    "str": "3",
    "array": np.array([3]),
}
SIZE = {"zero": 0, **COUNT}  # an integer of at least 1
DEGREE = {"above": 3, **SIZE}  # 1 or 2
ORDER = {"above": 7, **SIZE}  # 1..6
TEXT = {"str": ["a", "b"]}
POLYNOMIAL = {"callable": lambda x, y: x * x, "str": "x^2"}
BASIS = {"callable": [lambda x, y: x], "str": "1"}


class Data(dict):
    """The bad values of a datum: a row of these may read the other data first."""


DATA = Data({"nan": lambda x, y: np.full(np.shape(x), nan), "str": "x", "complex": 1j})
ELSEWHERE = interpolate(build_space(unit_square_mesh(2), 1), 0.0)
OTHER_SPACE = Data({"field from another space": ELSEWHERE})


def _space():
    """A fresh space: it holds no operators yet, so an assembly shows in the record."""
    return build_space(unit_square_mesh(3), 1)


def _field(space=None) -> ScalarField:
    space = space or _space()
    return ScalarField(space, np.zeros(space.dof_count))


def _space_and_field():
    space = _space()
    return space, _field(space)


def _problem(datum) -> NeumannProblem:
    return NeumannProblem(datum, datum, datum)


def _cascade(problem, **options):
    return solve_neumann(_space(), problem, **options)


# solved once, before any record: weak_form_residual reads only its problem and space
SOLUTION = solve_neumann(build_space(unit_square_mesh(2), 1), NeumannProblem(1.0, 0.0, 0.0))
X_SQUARED = Polynomial2D({(2, 0): 1})


def _solved(problem):
    """``SOLUTION`` as if solved for ``problem``."""
    return replace(SOLUTION, problem=problem)


MATRIX = from_triplets(np.arange(3), np.arange(3), np.ones(3), (3, 3))
BOUNDARY_ZEROS = np.zeros(len(_space().boundary_dofs))


def _exit_one(argv, head, datum):
    """Run the command line with ``datum`` called before every expression. Its exit 1,
    with no stdout and one stderr line that starts with ``head``, is the row's ValueError."""

    def parse(text, _parse=cli.parse_expression):
        func = _parse(text)

        def recorded(x, y):
            datum(x, y)
            return func(x, y)

        return recorded

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "parse_expression", parse):
        with redirect_stdout(out), redirect_stderr(err):
            status = cli.run(argv)
    assert (status, out.getvalue(), err.getvalue().count("\n")) == (1, "", 1), err.getvalue()
    assert err.getvalue().startswith(head), err.getvalue()
    raise ValueError(err.getvalue())


def _command(base, *rows):
    """A command's rows: the arguments after ``base`` and the head of the stderr line.
    A later --f, --p or --n replaces the base's."""
    return {
        " ".join(extra): ({"": [*base, *extra]}, lambda v, d, head=head: _exit_one(v, head, d))
        for extra, head in rows
    }


DATA_OPTIONS = ["--f", "0", "--g", "0", "--h", "0"]
BAD_TOL = ["--rel-tol", "nan"]
NOT_A_DIRECTORY = os.path.join(os.devnull, "out")

# entry -> option -> (bad values, call(value, datum))
TABLE = {
    "solve_neumann": {
        "harmonic_degree": (COUNT, lambda v, d: _cascade(_problem(d), harmonic_degree=v)),
        "strict": (STRICT, lambda v, d: _cascade(_problem(d), strict=v)),
        "strict_tol": (STRICT_TOL, lambda v, d: _cascade(_problem(d), strict=True, strict_tol=v)),
        "rel_tol": (TOLERANCE, lambda v, d: _cascade(_problem(d), rel_tol=v)),
        "max_iter": (COUNT, lambda v, d: _cascade(_problem(d), max_iter=v)),
        "f": (DATA, lambda v, d: _cascade(NeumannProblem(v, d, d))),
        "g": (DATA, lambda v, d: _cascade(NeumannProblem(d, v, d))),
        "h": (DATA, lambda v, d: _cascade(NeumannProblem(d, d, v))),
    },
    "solve_dirichlet": {
        "rel_tol": (TOLERANCE, lambda v, d: solve_dirichlet(_space(), d, d, rel_tol=v)),
        "max_iter": (COUNT, lambda v, d: solve_dirichlet(_space(), d, d, max_iter=v)),
        "source": (DATA, lambda v, d: solve_dirichlet(_space(), v, d)),
        "source field": (OTHER_SPACE, lambda v, d: solve_dirichlet(_space(), v, d)),
        "boundary_value": (DATA, lambda v, d: solve_dirichlet(_space(), d, v)),
        "boundary_value, field source": (
            DATA,
            lambda v, d: solve_dirichlet(*_space_and_field(), v),
        ),
    },
    "normal_flux": {
        "source": (DATA, lambda v, d: normal_flux(_field(), v)),
        "source field": (OTHER_SPACE, lambda v, d: normal_flux(_field(), v)),
    },
    "overdetermined_check": {
        "rel_tol": (TOLERANCE, lambda v, d: overdetermined_check(_space(), d, rel_tol=v)),
        "max_iter": (COUNT, lambda v, d: overdetermined_check(_space(), d, max_iter=v)),
        "p": (DATA, lambda v, d: overdetermined_check(_space(), v)),
        "p field": (OTHER_SPACE, lambda v, d: overdetermined_check(_space(), v)),
    },
    "compatibility_residual": {
        "basis": (BASIS, lambda v, d: compatibility_residual(_space(), _problem(d), v)),
        "f": (DATA, lambda v, d: compatibility_residual(_space(), NeumannProblem(v, d, d), [])),
        "g": (DATA, lambda v, d: compatibility_residual(_space(), NeumannProblem(d, v, d), [])),
        "h": (DATA, lambda v, d: compatibility_residual(_space(), NeumannProblem(d, d, v), [])),
    },
    "weak_form_residual": {
        "r": (POLYNOMIAL, lambda v, d: weak_form_residual(_solved(_problem(d)), v)),
        "f": (DATA, lambda v, d: weak_form_residual(_solved(NeumannProblem(v, d, d)), X_SQUARED)),
    },
    "BoundaryFlux": {
        "functional": (
            {"wrong shape": np.zeros(3), **TEXT},
            lambda v, d: BoundaryFlux(_space(), v),
        ),
    },
    "cg_solve": {
        "a": ({"wrong shape": MATRIX[:2]}, lambda v, d: cg_solve(v, np.ones(2))),
        "b": ({"wrong shape": np.ones(4), **TEXT}, lambda v, d: cg_solve(MATRIX, v)),
        "rel_tol": (TOLERANCE, lambda v, d: cg_solve(MATRIX, np.ones(3), rel_tol=v)),
        "max_iter": (COUNT, lambda v, d: cg_solve(MATRIX, np.ones(3), max_iter=v)),
    },
    "from_triplets": {
        "rows": (
            {"out of range": [3], "non-integral": [0.5], **TEXT},
            lambda v, d: from_triplets(v, [0], [1.0], (3, 3)),
        ),
        "entries": (
            {"wrong shape": [1.0, 2.0], **TEXT},
            lambda v, d: from_triplets([0], [0], v, (3, 3)),
        ),
    },
    "matvec": {
        "x": ({"wrong shape": np.ones(4), **TEXT}, lambda v, d: matvec(MATRIX, v)),
    },
    "interpolate": {
        "func": (DATA, lambda v, d: interpolate(_space(), v)),
    },
    "assemble_load": {
        "q": (DATA, lambda v, d: assemble_load(_space(), v)),
    },
    "l2_error": {
        "exact": (DATA, lambda v, d: l2_error(_field(), v)),
    },
    "h1_error": {
        "exact": (DATA, lambda v, d: h1_error(_field(), v, lambda x, y: (d, d))),
        "grad_exact": (DATA, lambda v, d: h1_error(_field(), d, lambda x, y: (d, v))),
    },
    "boundary_l2_error": {
        "boundary_coeffs": (
            {"wrong shape": np.zeros(len(BOUNDARY_ZEROS) + 1), **TEXT},
            lambda v, d: boundary_l2_error(_space(), v, d),
        ),
        "func": (DATA, lambda v, d: boundary_l2_error(_space(), BOUNDARY_ZEROS, v)),
    },
    "harmonic_basis": {"kmax": (COUNT, lambda v, d: harmonic_basis(v))},
    "triangle_quadrature": {"order": (ORDER, lambda v, d: triangle_quadrature(v))},
    "QuadratureRule": {
        "points": (TEXT, lambda v, d: QuadratureRule(v, [1.0, 1.0])),
        "weights": (TEXT, lambda v, d: QuadratureRule([[1.0, 0.0, 0.0]] * 2, v)),
    },
    "unit_square_mesh": {"n": (SIZE, lambda v, d: unit_square_mesh(v))},
    "unit_disk_mesh": {"rings": (SIZE, lambda v, d: unit_disk_mesh(v))},
    "Mesh": {
        "vertices": (
            {"wrong shape": np.zeros((3, 3)), "nan": [[0, 0], [1, 0], [nan, 1]], **TEXT},
            lambda v, d: Mesh(v, [[0, 1, 2]]),
        ),
        "triangles": (
            {"wrong shape": [[0, 1]], "non-integral": [[0, 1, 2.5]], **TEXT},
            lambda v, d: Mesh([[0, 0], [1, 0], [0, 1]], v),
        ),
    },
    "read_mesh": {"source": (TEXT, lambda v, d: read_mesh(io.StringIO("\n".join(v))))},
    "build_space": {"degree": (DEGREE, lambda v, d: build_space(unit_square_mesh(2), v))},
    "FeSpace": {"degree": (DEGREE, lambda v, d: FeSpace(unit_square_mesh(2), v))},
    "ScalarField": {
        "coeffs": ({"wrong shape": np.zeros(3), **TEXT}, lambda v, d: ScalarField(_space(), v)),
    },
    "biharm mesh": _command(
        ["mesh"],
        (["--n", "0"], "biharm mesh: error: argument --n: must be at least 1"),
        (["--n", "1.5"], "biharm mesh: error: argument --n: invalid"),
        (["--n", "x"], "biharm mesh: error: argument --n: invalid"),
        (["--refine", "-1"], "biharm mesh: error: argument --refine: must be at least 0"),
        (["--domain", "circle"], "biharm mesh: error: argument --domain: invalid choice"),
        (["--out", NOT_A_DIRECTORY], "error: [Errno"),
        (["--n", "2000"], "error: the mesh would exceed"),
    ),
    "biharm solve": _command(
        ["solve", *DATA_OPTIONS],
        (["--rel-tol", "nan"], "error: rel_tol"),
        (["--rel-tol", "inf"], "error: rel_tol"),
        (["--rel-tol", "-1"], "error: rel_tol"),
        (["--rel-tol", "0"], "error: rel_tol"),
        (["--rel-tol", "x"], "biharm solve: error: argument --rel-tol: invalid"),
        (["--max-iter", "-1"], "error: max_iter"),
        (["--max-iter", "1.5"], "biharm solve: error: argument --max-iter: invalid"),
        (["--strict-tol", "nan"], "error: strict tolerance"),
        (["--strict-tol", "-1"], "error: strict tolerance"),
        (["--kmax", "-1"], "biharm solve: error: argument --kmax: must be at least 0"),
        (["--kmax", "65"], "biharm solve: error: argument --kmax: must be at most 64"),
        (["--degree", "3"], "biharm solve: error: argument --degree: invalid choice"),
        (["--n", "0"], "biharm solve: error: argument --n: must be at least 1"),
        (["--domain", "circle"], "biharm solve: error: argument --domain: invalid choice"),
        (["--case", "nope"], "biharm solve: error: argument --case: invalid choice"),
        (["--out", NOT_A_DIRECTORY], "error: [Errno"),
        (["--f=1/", *BAD_TOL], "error: rel_tol"),  # before an expression error
        (["--n", "2000", *BAD_TOL], "error: rel_tol"),  # and before a size error
        (["--n", "2000", "--max-iter", "-1"], "error: max_iter"),
    ),
    "biharm converge": _command(
        ["converge", "--case", "sine", "--levels", "1"],
        (["--rel-tol", "nan"], "error: rel_tol"),
        (["--rel-tol", "inf"], "error: rel_tol"),
        (["--rel-tol", "-1"], "error: rel_tol"),
        (["--levels", "0"], "biharm converge: error: argument --levels: must be at least 1"),
        (["--n0", "0"], "biharm converge: error: argument --n0: must be at least 1"),
        (["--degree", "3"], "biharm converge: error: argument --degree: invalid choice"),
        (["--case", "nope"], "biharm converge: error: argument --case: invalid choice"),
        (["--out", NOT_A_DIRECTORY], "error: [Errno"),
        (["--n0", "2000", *BAD_TOL], "error: rel_tol"),
    ),
    "biharm compat": _command(
        ["compat", *DATA_OPTIONS],
        (["--strict-tol", "nan"], "error: strict tolerance"),
        (["--strict-tol", "-1"], "error: strict tolerance"),
        (["--strict-tol", "x"], "biharm compat: error: argument --strict-tol: invalid"),
        (["--kmax", "-1"], "biharm compat: error: argument --kmax: must be at least 0"),
        (["--kmax", "65"], "biharm compat: error: argument --kmax: must be at most 64"),
        (["--n", "0"], "biharm compat: error: argument --n: must be at least 1"),
        (["--f=1/", "--strict-tol", "nan"], "error: strict tolerance"),
        (["--n", "2000", "--strict-tol", "nan"], "error: strict tolerance"),
    ),
    "biharm flux": _command(
        ["flux", *DATA_OPTIONS],
        (["--rel-tol", "nan"], "error: rel_tol"),
        (["--rel-tol", "inf"], "error: rel_tol"),
        (["--rel-tol", "0"], "error: rel_tol"),
        (["--max-iter", "-1"], "error: max_iter"),
        (["--max-iter", "1.5"], "biharm flux: error: argument --max-iter: invalid"),
        (["--degree", "3"], "biharm flux: error: argument --degree: invalid choice"),
        (["--n", "0"], "biharm flux: error: argument --n: must be at least 1"),
        (["--f=1/", *BAD_TOL], "error: rel_tol"),
        (["--n", "2000", *BAD_TOL], "error: rel_tol"),
    ),
    "biharm overdet": _command(
        ["overdet", "--p", "1", "--levels", "1"],
        (["--rel-tol", "nan"], "error: rel_tol"),
        (["--rel-tol", "inf"], "error: rel_tol"),
        (["--rel-tol", "-1"], "error: rel_tol"),
        (["--n", "0"], "biharm overdet: error: argument --n: must be at least 1"),
        (["--levels", "0"], "biharm overdet: error: argument --levels: must be at least 1"),
        (["--degree", "3"], "biharm overdet: error: argument --degree: invalid choice"),
        (["--p=1/", *BAD_TOL], "error: rel_tol"),
        (["--n", "2000", *BAD_TOL], "error: rel_tol"),
    ),
}

# entries that take no option: results of a computation, exact algebra, the data
# triple, whose fields are checked where an entry reads them, and one command
TAKES_NO_OPTION = (
    "CGResult",
    "OverdeterminedResult",
    "NeumannProblem",
    "CascadeDiagnostics",
    "CascadeSolution",
    "GaussianRational",
    "SymbolRemainder",
    "ComplementingResult",
    "ManufacturedCase",
    "biharm complementing",
)

ROWS = [
    pytest.param(isinstance(values, Data), call, value, id=f"{entry} {option} {kind}".strip())
    for entry, options in TABLE.items()
    for option, (values, call) in options.items()
    for kind, value in values.items()
]


@pytest.fixture
def record(monkeypatch):
    """Records the calls of the operator assembly and of the mesh builders the CLI reaches."""
    calls = []

    def recording(name, function):
        def recorded(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)

        return recorded

    assemble = recording("operators", poisson._assemble_operators)
    monkeypatch.setattr(poisson, "_assemble_operators", assemble)
    for name in ("unit_square_mesh", "unit_disk_mesh", "refine_uniform"):
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    return calls


@pytest.mark.parametrize("reads_data, call, value", ROWS)
def test_a_bad_value_fails_before_any_work(reads_data, call, value, record):
    datum = Datum()
    with pytest.raises(ValueError):
        call(value, datum)
    assert record == []
    if not reads_data:
        assert datum.calls == []


def test_every_command_is_in_the_table():
    commands = {f"biharm {name}" for name in _subparsers(cli.build_parser())}
    entries = (*TABLE, *TAKES_NO_OPTION)
    assert commands == {entry for entry in entries if entry.startswith("biharm ")}
