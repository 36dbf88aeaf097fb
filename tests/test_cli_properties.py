"""Property test of the command line: any argv gives a documented exit code."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.cli import run


def either(valid, invalid):
    """A value from ``valid`` or from ``invalid``, each half of the time."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(invalid))


# Accepted sizes stay small (n <= 3, levels <= 3, refine <= 2), and every
# size flag is always given, so no default ladder runs; the large counts are
# refused before any mesh is built.
SIZES = either(["1", "2", "3"], ["0", "-1", "1025", "1000000000", "9" * 30, "1e3", "x", "-1\n"])
LEVELS = either(["1", "2", "3"], ["0", "-1", "40", "1000000000"])
REFINES = either(["0", "1", "2"], ["-1", "40", "1000000000"])
KMAX = either(["0", "1", "3"], ["-1", "65", "1000000000", "2.5"])
NUMBERS = either(["1e-10", "2.5", "1e308", "0"], ["nan", "inf", "-inf", "10**400", "-1"])
LITERALS = ["1e308", "10**400", "0", "1", "2.5", "1/0", "(-1)", "0.5"]
CASES = either(["sine", "bubble"], ["nope"])
DEGREES = either(["1", "2"], ["3"])

EXPRESSIONS = st.recursive(
    st.sampled_from(["x", "y", "pi", *LITERALS]),
    lambda inner: st.one_of(
        st.builds("{}({})".format, st.sampled_from(["sin", "cos", "exp", "tan"]), inner),
        st.builds("({}{}{})".format, inner, st.sampled_from("+-*/^"), inner),
    ),
    max_leaves=6,
)

# Per subcommand: the flags always given (the sizes among them), then the
# optional ones;
# a flag mapped to None takes no value.
COMMANDS = {
    "mesh": ({"--n": SIZES, "--refine": REFINES}, {"--domain": either(["square", "disk"], ["cube"])}),
    "solve": (
        {"--n": SIZES},
        {"--degree": DEGREES, "--domain": st.sampled_from(["square", "disk"]), "--kmax": KMAX,
         "--strict": None, "--strict-tol": NUMBERS, "--rel-tol": NUMBERS,
         "--max-iter": either(["0", "1", "50"], ["-1", "x"])},
    ),
    "converge": (
        {"--levels": LEVELS, "--n0": SIZES, "--case": CASES},
        {"--degree": DEGREES, "--rel-tol": NUMBERS},
    ),
    "compat": ({"--n": SIZES}, {"--kmax": KMAX, "--strict": None, "--strict-tol": NUMBERS}),
    "flux": (
        {"--n": SIZES},
        {"--rel-tol": NUMBERS, "--degree": DEGREES,
         "--max-iter": either(["0", "1", "50"], ["-1", "x"])},
    ),
    "overdet": ({"--n": SIZES, "--levels": LEVELS, "--p": EXPRESSIONS}, {"--degree": DEGREES}),
    "complementing": ({}, {"--help": None}),
}
DATA_COMMANDS = ("solve", "compat", "flux")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*COMMANDS, "nope"]))
    always, others = COMMANDS.get(command, ({}, {}))
    argv = [command]
    for flag, values in always.items():
        argv += [flag, draw(values)]
    if command in DATA_COMMANDS:
        if draw(st.booleans()):
            argv += ["--case", draw(CASES)]
        for flag in draw(st.sampled_from([["--f", "--g", "--h"], ["--f", "--g"], []])):
            argv += [flag, draw(EXPRESSIONS)]
    for flag in draw(st.lists(st.sampled_from(sorted(others) or ["--n"]), max_size=4)):
        values = others.get(flag, SIZES)
        argv += [flag] if values is None else [flag, draw(values)]
    return argv


@settings(max_examples=30, deadline=None)
@given(argvs())
def test_any_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
