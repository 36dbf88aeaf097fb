"""Every option a subcommand declares is read when the subcommand runs."""

import argparse

import pytest

from biharm import cli
from biharm.cli import build_parser
from biharm.manufactured import cases

DATA = ["--f", "0", "--g", "0", "--h", "0"]
SOLVER = ["--n", "2", "--degree", "1", "--rel-tol", "1e-10", "--max-iter", "50"]

# Per subcommand, an argv that sets every option it declares, at tiny sizes;
# "{tmp}" is replaced by a fresh directory. The data options --case and
# --f/--g/--h exclude each other, and each run reads all four.
ARGVS = {
    "mesh": ["--domain", "square", "--n", "1", "--refine", "0", "--out", "{tmp}/m.mesh"],
    "solve": [*DATA, *SOLVER, "--domain", "square", "--kmax", "1", "--strict",
              "--strict-tol", "1e-6", "--out", "{tmp}/s.vtk"],
    "converge": ["--case", "sine", "--levels", "1", "--n0", "2", "--degree", "1",
                 "--rel-tol", "1e-10", "--out", "{tmp}/c.csv"],
    "compat": [*DATA, "--n", "2", "--kmax", "1", "--strict", "--strict-tol", "1e-6"],
    "flux": [*DATA, *SOLVER],
    "overdet": ["--p", "1", "--n", "1", "--levels", "1", "--degree", "1", "--rel-tol", "1e-10"],
    "complementing": [],
}


class _Reads:
    """Stands in for the parsed arguments and records each attribute read."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.names: set[str] = set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self.args, name)


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_subcommand_has_an_argv():
    assert set(ARGVS) == set(_subparsers(build_parser()))


@pytest.mark.parametrize("command", sorted(ARGVS))
def test_subcommand_reads_every_option_it_declares(command, tmp_path, capsys):
    parser = build_parser()
    argv = [command, *(a.format(tmp=tmp_path) for a in ARGVS[command])]
    args = parser.parse_args(argv)
    reads = _Reads(args)
    assert args.func(reads) == 0
    declared = {a.dest for a in _subparsers(parser)[command]._actions} - {"help"}
    assert declared <= reads.names, f"declared but never read: {sorted(declared - reads.names)}"


def test_case_options_offer_the_built_in_cases_without_building_them(monkeypatch):
    monkeypatch.setattr(cli, "cases", lambda: pytest.fail("the parser built the cases"))
    offered = [
        list(action.choices)
        for sub in _subparsers(build_parser()).values()
        for action in sub._actions
        if "--case" in action.option_strings
    ]
    monkeypatch.undo()
    assert offered == [sorted(cases())] * 4
