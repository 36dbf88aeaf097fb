"""Command line interface: subcommands, formats and exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from biharm import biharmonic, cli, poisson
from biharm.cli import ExpressionError, parse_expression, run, write_vtk
from biharm.mesh import read_mesh, unit_square_mesh

SINE_F = "4*pi^4*sin(pi*x)*sin(pi*y)"
SINE_H = "2*pi^3*(sin(pi*x)+sin(pi*y))"  # agrees with the flux on all four sides


def test_expression_basic_arithmetic():
    f = parse_expression("2*x^3 - y/2 + 1")
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([2.0, 0.0, 4.0])
    assert np.allclose(f(x, y), 2 * x**3 - y / 2 + 1)


def test_expression_functions_and_pi():
    f = parse_expression("sin(pi*x)*cos(pi*y) + exp(-x)")
    assert abs(f(0.5, 0.0) - (1.0 + np.exp(-0.5))) < 1e-15


def test_expression_rejects_attribute_and_import_tricks():
    for text in (
        "__import__('os').system('true')",
        "x.real",
        "().__class__",
        "lambda: 1",
        "[1,2][0]",
        "x if y else 1",
    ):
        with pytest.raises(ExpressionError):
            parse_expression(text)


def test_expression_rejects_unknown_names_and_calls():
    with pytest.raises(ExpressionError):
        parse_expression("x + z")
    with pytest.raises(ExpressionError):
        parse_expression("tan(x)")
    with pytest.raises(ExpressionError):
        parse_expression("sin(x, y)")
    with pytest.raises(ExpressionError):
        parse_expression("sin(x")


def test_mesh_command_reports_and_writes(tmp_path, capsys):
    out = tmp_path / "m.mesh"
    assert run(["mesh", "--n", "4", "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "vertices=25" in line
    assert "triangles=32" in line
    assert "area=1.000000000000e+00" in line
    mesh = read_mesh(out)
    assert mesh.num_vertices == 25


def test_mesh_command_refine(capsys):
    assert run(["mesh", "--n", "2", "--refine", "1"]) == 0
    assert "vertices=25" in capsys.readouterr().out  # same as n=4 directly


def test_mesh_command_disk(capsys):
    assert run(["mesh", "--domain", "disk", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "domain=unit_disk" in out
    assert "vertices=19" in out


def test_solve_case_reports_errors_and_diagnostics(capsys):
    assert run(["solve", "--case", "sine", "--n", "8"]) == 0
    out = capsys.readouterr().out
    values = {}
    for token in out.split():
        key, _, val = token.partition("=")
        values[key] = val
    assert set(values) >= {"dofs", "compat_max", "flux_mismatch", "l2_sigma", "l2_s"}
    assert values["dofs"] == "81"
    assert values["cg_iterations"].count("+") == 1
    assert float(values["compat_max"]) < 1e-4
    assert float(values["l2_sigma"]) < 1.0


def test_solve_explicit_data_matches_case(capsys):
    assert run(["solve", "--case", "sine", "--n", "8"]) == 0
    via_case = capsys.readouterr().out
    assert (
        run(["solve", "--f", SINE_F, "--g", "0", "--h", SINE_H, "--n", "8"]) == 0
    )
    explicit = capsys.readouterr().out
    # same diagnostics up to expression rounding; compare the flux line
    fm_case = float(via_case.splitlines()[2].partition("=")[2])
    fm_expl = float(explicit.splitlines()[2].partition("=")[2])
    assert abs(fm_case - fm_expl) < 1e-9


def test_solve_writes_vtk(tmp_path):
    out = tmp_path / "sol.vtk"
    assert run(["solve", "--case", "sine", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 25 double"
    cells_at = lines.index("CELLS 32 128")
    assert lines[cells_at + 1].startswith("3 ")
    assert "CELL_TYPES 32" in lines
    assert "POINT_DATA 25" in lines
    assert "SCALARS sigma double 1" in lines
    assert "SCALARS s double 1" in lines
    assert lines.count("LOOKUP_TABLE default") == 2


def test_write_vtk_validates_field_length(tmp_path):
    mesh = unit_square_mesh(2)
    with pytest.raises(ValueError):
        write_vtk(tmp_path / "bad.vtk", mesh, {"u": np.zeros(3)})


def test_solve_rejects_mixed_data_sources(capsys):
    assert run(["solve", "--case", "sine", "--f", "1"]) == 1
    assert run(["solve", "--f", "1", "--g", "0"]) == 1  # h missing
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_case_on_disk():
    assert run(["solve", "--case", "sine", "--domain", "disk"]) == 1


def test_solve_exit_code_numerical_failure():
    assert run(["solve", "--case", "sine", "--n", "16", "--max-iter", "2"]) == 2


def test_solve_nonfinite_data_fails_without_iterating(capsys, monkeypatch):
    assembled = []

    def counted(space, _assemble=poisson._assemble_operators):
        assembled.append(space)
        return _assemble(space)

    monkeypatch.setattr(poisson, "_assemble_operators", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 1/x at x = 0 must not warn
        assert run(["solve", "--f", "0", "--g", "1/x", "--h", "0", "--n", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inf" in err
    assert assembled == []


def test_solve_division_by_zero_is_an_input_error(capsys):
    assert run(["solve", "--f", "1/0", "--g", "0", "--h", "0", "--n", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'1/0'" in err


def test_solve_strict_exit_code():
    args = ["solve", "--f", SINE_F, "--g", "0", "--n", "8", "--strict"]
    assert run(args + ["--h", SINE_H]) == 0
    assert run(args + ["--h", SINE_H + " + 1"]) == 3


@pytest.mark.parametrize("command", ["compat", "solve"])
@pytest.mark.parametrize("tol", ["nan", "-1e-3"])
def test_strict_tolerance_that_is_not_a_nonnegative_number_exits_one(command, tol, capsys):
    # NaN > tol is False, so an unchecked NaN tolerance lets residual 1.5e2 pass
    args = [command, "--f", SINE_F, "--g", "0", "--h", "1", "--n", "8", "--strict"]
    assert run(args + [f"--strict-tol={tol}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: strict tolerance")
    assert captured.out == ""  # rejected before any residual is computed


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_solve_rejects_a_cg_tolerance_it_cannot_meet(tol, capsys):
    for n in ("1", "48"):  # P1 n = 1 has no interior dofs, so no CG runs
        assert run(["solve", "--case", "sine", "--n", n, "--rel-tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rel_tol")
        assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["mesh", "--refine", "-1"],
        ["mesh", "--n", "0"],
        ["solve", "--case", "sine", "--n", "-2"],
        ["converge", "--case", "sine", "--levels", "0"],
        ["converge", "--case", "sine", "--n0", "0"],
        ["overdet", "--p", "1", "--levels", "0"],
        ["overdet", "--p", "1", "--n", "0"],
        ["solve", "--case", "sine", "--n", "4", "--max-iter", "-1"],
        ["solve", "--case", "sine", "--n", "1", "--max-iter", "-1"],
    ],
    ids=" ".join,
)
def test_count_arguments_below_their_minimum_exit_one(args, capsys):
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least" in captured.err


def test_usage_errors_exit_one():
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["solve", "--degree", "7"]) == 1
    assert run(["mesh", "--n", "0"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "biharm" in capsys.readouterr().out


def test_converge_csv_format(tmp_path):
    out = tmp_path / "table.csv"
    args = [
        "converge",
        "--case",
        "sine",
        "--levels",
        "3",
        "--n0",
        "4",
        "--out",
        str(out),
    ]
    assert run(args) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert (
        lines[0]
        == "level,h,dofs,l2_sigma,l2_s,rate_sigma,rate_s,flux_mismatch,compat_max"
    )
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[5] == "" and first[6] == ""  # no rates on the coarsest level
    last = lines[3].split(",")
    assert float(last[5]) > 1.7 and float(last[6]) > 1.7

    # identical invocations must produce byte-identical files
    rerun = tmp_path / "again.csv"
    assert run(args[:-1] + [str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_converge_stdout_when_no_file(capsys):
    assert run(["converge", "--case", "bubble", "--levels", "2", "--n0", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("level,h,dofs,")
    assert len(out.strip().splitlines()) == 3


def test_compat_command_lists_residuals(capsys):
    assert (
        run(["compat", "--f", SINE_F, "--g", "0", "--h", SINE_H, "--n", "16"]) == 0
    )
    out = capsys.readouterr().out.strip().splitlines()
    labeled = [line for line in out if line.startswith("r[")]
    assert len(labeled) == 7  # constant plus three harmonic pairs
    assert out[0].startswith("r[1] = ")
    assert out[1].startswith("r[Re (x+iy)^1] = ")
    worst = float(out[-1].partition("=")[2])
    assert worst < 1e-4


def test_compat_lists_every_residual_beyond_degree_15(capsys):
    args = ["compat", "--case", "sine", "--n", "4", "--kmax"]
    assert run(args + ["15"]) == 0
    before = capsys.readouterr().out.splitlines()
    assert run(args + ["16"]) == 0
    after = capsys.readouterr().out.splitlines()
    labeled = [line for line in after if line.startswith("r[")]
    assert len(labeled) == 33
    assert labeled[:31] == before[:31]
    assert labeled[31].startswith("r[Re (x+iy)^16] = ")
    assert labeled[32].startswith("r[Im (x+iy)^16] = ")


def test_compat_has_no_degree_option(capsys):
    # the residuals read only the mesh, so a degree would change nothing
    err = _fails_on_one_line(["compat", "--case", "sine", "--n", "4", "--degree", "2"], capsys)
    assert err == "biharm: error: unrecognized arguments: --degree 2\n"


def test_compat_strict_flags_incompatible_data(capsys):
    args = ["compat", "--f", SINE_F, "--g", "0", "--n", "8", "--strict"]
    assert run(args + ["--h", SINE_H]) == 0
    capsys.readouterr()
    assert run(args + ["--h", SINE_H + " + 1"]) == 3
    assert "incompatible data" in capsys.readouterr().err


def test_flux_command_total_is_source_integral(capsys):
    assert run(["flux", "--case", "sine", "--n", "16"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("=") for line in out.strip().splitlines())
    assert abs(float(lines["total_flux"]) - 16.0 * np.pi**2) < 1e-6
    assert float(lines["flux_mismatch"]) > 0.0


def test_flux_command_recovers_flux_once(monkeypatch, capsys):
    # inside solve_neumann; total_flux reads the flux kept on the solution
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return poisson.normal_flux(*args, **kwargs)

    monkeypatch.setattr(biharmonic, "normal_flux", counted)
    assert run(["flux", "--case", "sine", "--n", "4"]) == 0
    assert len(calls) == 1
    lines = dict(line.split("=") for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(lines["total_flux"]) - 16.0 * np.pi**2) < 1e-3


def test_overdet_command(capsys):
    for p, total in (("1", 1.0), ("x*(1-x)", 1.0 / 6.0)):
        assert run(["overdet", "--p", p, "--n", "4", "--levels", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n=4 ")
        assert lines[1].startswith("n=8 ")
        for line in lines:
            fields = dict(part.split("=") for part in line.split())
            assert list(fields) == ["n", "flux_l2", "total_flux"]
            assert abs(float(fields["total_flux"]) - total) < 1e-8


def test_complementing_command(capsys):
    assert run(["complementing"]) == 0
    out = capsys.readouterr().out
    assert "remainder 1: 2 + 2i*t" in out
    assert "remainder 2: 2i - 2*t" in out
    assert "dependent: true, factor: i" in out
    assert "remainder i" in out


def test_output_path_failure_exits_one(capsys):
    assert run(["mesh", "--n", "2", "--out", "/no/such/dir/m.mesh"]) == 1
    assert "error:" in capsys.readouterr().err


def test_literal_beyond_float_range_is_an_input_error(capsys):
    assert run(["solve", "--f", "10**400", "--g", "0", "--h", "0", "--n", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: datum overflows a float")
    assert len(err.splitlines()) == 1


def test_module_entry_point_matches_run(capsys):
    args = ["compat", "--case", "sine", "--n", "4", "--kmax", "2"]
    code = run(args)
    expected = capsys.readouterr().out
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "biharm.cli", *args], capture_output=True, text=True, env=env
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, expected, "")
    assert code == 0 and expected.startswith("r[1] = ")


def _fails_on_one_line(argv, capsys, code=1):
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    return err


def _refuse_to_build(monkeypatch):
    def refuse(*args):
        raise AssertionError("a mesh was built")

    for name in ("unit_square_mesh", "unit_disk_mesh", "refine_uniform"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["overdet", "--p", "1", "--n", "2", "--levels", "40"],
        ["converge", "--case", "sine", "--levels", "40"],
        ["converge", "--case", "sine", "--levels", "1000000000"],  # no 2**levels is formed
        ["overdet", "--p", "1", "--levels", "1000000000"],
        ["mesh", "--refine", "40"],
        ["mesh", "--refine", "1000000000"],
        ["mesh", "--n", "1025"],
        ["mesh", "--domain", "disk", "--n", "592"],
        ["mesh", "--n", "512", "--refine", "2"],
        ["solve", "--case", "sine", "--n", "100000"],
        ["solve", "--f", "1", "--g", "0", "--h", "0", "--domain", "disk", "--n", "1000"],
        ["compat", "--case", "sine", "--n", "1025"],
        ["flux", "--case", "sine", "--n", "1025"],
    ],
    ids=" ".join,
)
def test_mesh_beyond_the_triangle_limit_is_refused_before_it_is_built(argv, monkeypatch, capsys):
    _refuse_to_build(monkeypatch)
    err = _fails_on_one_line(argv, capsys)
    assert err == f"error: the mesh would exceed the limit of {cli.MAX_TRIANGLES} triangles\n"


@pytest.mark.parametrize(
    "domain, n, refine, accepted",
    [
        ("square", 1024, 0, True),
        ("square", 1025, 0, False),
        ("square", 512, 1, True),
        ("square", 1, 10, True),
        ("square", 1, 11, False),
        ("disk", 591, 0, True),
        ("disk", 592, 0, False),
        ("disk", 295, 1, True),
        ("disk", 296, 1, False),
    ],
)
def test_triangle_limit_counts_square_and_disk(domain, n, refine, accepted):
    # the square has 2 n^2 triangles, the disk 6 n^2, times 4 per refinement
    assert cli.MAX_TRIANGLES == 2**21
    if accepted:
        cli._check_size(domain, n, refine)
    else:
        with pytest.raises(ValueError, match="limit"):
            cli._check_size(domain, n, refine)


@pytest.mark.parametrize("command", ["compat", "solve"])
def test_kmax_above_the_cap_is_refused_before_any_mesh(command, monkeypatch, capsys):
    _refuse_to_build(monkeypatch)
    argv = [command, "--case", "sine", "--n", "2", "--kmax"]
    err = _fails_on_one_line(argv + [str(cli.MAX_KMAX + 1)], capsys)
    assert err.endswith(f"argument --kmax: must be at most {cli.MAX_KMAX}, got 65\n")


def test_kmax_at_the_cap_is_accepted():
    for command in ("compat", "solve"):
        args = cli.build_parser().parse_args([command, "--kmax", str(cli.MAX_KMAX)])
        assert args.kmax == cli.MAX_KMAX == 64


@pytest.mark.parametrize(
    "f",
    ["sin(10**400)", "exp(-10**400)", "cos(10**400)+x"],
)
def test_function_of_an_oversized_literal_is_an_input_error(f, capsys):
    err = _fails_on_one_line(["solve", "--f", f, "--g", "0", "--h", "0", "--n", "4"], capsys)
    assert err.startswith(f"error: cannot evaluate expression {f!r}")


def test_complex_expression_value_is_an_input_error(capsys):
    argv = ["solve", "--f", "(-1)**0.5", "--g", "0", "--h", "0", "--n", "4"]
    err = _fails_on_one_line(argv, capsys)
    assert err.startswith("error: datum is not a real number: ")


def test_tower_of_integer_powers_is_refused_not_computed(capsys):
    # 9**9**9 has 1.2e9 bits: computing it exactly would run for minutes
    argv = ["solve", "--f", "9**9**9", "--g", "0", "--h", "0", "--n", "4"]
    err = _fails_on_one_line(argv, capsys)
    assert "integer power 9**387420489 is too large" in err
    assert parse_expression("2**64 + 3**40")(0.0, 0.0) == 2**64 + 3**40  # exact as before


def test_deeply_nested_expression_is_an_input_error(capsys):
    argv = ["solve", "--f", "+".join(["x"] * 2000), "--g", "0", "--h", "0", "--n", "4"]
    err = _fails_on_one_line(argv, capsys)
    assert "is nested too deeply" in err


def test_overflow_inside_a_solve_is_a_numerical_failure(capsys):
    err = _fails_on_one_line(["overdet", "--p", "1e308", "--n", "2", "--levels", "1"], capsys, 2)
    assert err.startswith("numerical failure: overflow encountered")


@pytest.mark.parametrize(
    "argv",
    [["solve", "--degree", "7"], ["mesh", "--n", "-1\n"], ["nope"], ["converge"]],
    ids=["bad-choice", "newline-in-count", "bad-command", "missing-argument"],
)
def test_usage_error_is_one_stderr_line(argv, capsys):
    err = _fails_on_one_line(argv, capsys)
    assert err.startswith("biharm") and ": error: " in err


def test_expression_with_a_leading_minus_follows_its_flag_after_an_equals_sign(capsys):
    assert run(["solve", "--f=-x", "--g", "0", "--h", "0", "--n", "4"]) == 0
    assert capsys.readouterr().out.startswith("dofs=25 ")
    assert run(["overdet", "--p=-1", "--n", "2", "--levels", "1"]) == 0


def test_expression_with_a_leading_minus_as_its_own_argument_is_a_usage_error(capsys):
    err = _fails_on_one_line(["solve", "--f", "-x", "--g", "0", "--h", "0"], capsys)
    assert err == "biharm solve: error: argument --f: expected one argument\n"
