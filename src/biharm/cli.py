"""Command line front end.

Subcommands: mesh, solve, converge, compat, flux, overdet, complementing.
Exit codes: 0 success, 1 usage or input error, 2 numerical failure,
3 compatibility violation under --strict. Output formatting is fixed so
identical invocations produce byte-identical files and stdout.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

import numpy as np

from .biharmonic import (
    DEFAULT_HARMONIC_DEGREE,
    DEFAULT_STRICT_TOL,
    CompatibilityError,
    NeumannProblem,
    _strict_check,
    compatibility_residual,
    solve_neumann,
)
from .fem import build_space
from .manufactured import cases, l2_error
from .mesh import (
    DomainTag,
    Mesh,
    MeshFormatError,
    refine_uniform,
    unit_disk_mesh,
    unit_square_mesh,
    write_mesh,
)
from .poisson import overdetermined_check
from .polynomials import complementing_check, harmonic_basis, laplace_complementing_check
from .sparse import NonConvergenceError, NotSPDError

__all__ = ["main", "run", "parse_expression", "write_vtk", "ExpressionError"]

FLOAT_FMT = "{:.12e}"


class ExpressionError(ValueError):
    """An expression failed to parse or used a disallowed construct."""


_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_NAMES = ("x", "y", "pi")
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _check_node(node: ast.AST) -> None:
    if isinstance(node, ast.Expression):
        _check_node(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _check_node(node.left)
        _check_node(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_node(node.operand)
    elif isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        pass
    elif isinstance(node, ast.Name) and node.id in _ALLOWED_NAMES:
        pass
    elif isinstance(node, ast.Call):
        if (
            not isinstance(node.func, ast.Name)
            or node.func.id not in _ALLOWED_CALLS
            or len(node.args) != 1
            or node.keywords
        ):
            raise ExpressionError(
                f"only {', '.join(sorted(_ALLOWED_CALLS))} calls with one argument are allowed"
            )
        _check_node(node.args[0])
    else:
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)[:60]}")


def parse_expression(text: str):
    """Compile an arithmetic expression in x, y, pi into a vectorized
    callable. Supports + - * / ^ (or **), unary signs, numeric literals
    and the functions sin, cos, exp."""
    prepared = text.replace("^", "**")
    try:
        tree = ast.parse(prepared, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
    _check_node(tree)
    code = compile(tree, "<expression>", "eval")
    env = {"pi": np.pi, **_ALLOWED_CALLS}

    def func(x, y):
        # no numpy warning for 1/x at x = 0: the data evaluator rejects inf as DataError
        try:
            with np.errstate(all="ignore"):
                return eval(code, {"__builtins__": {}}, {"x": x, "y": y, **env})
        except ArithmeticError as exc:  # Python scalar arithmetic, e.g. 1/0
            raise ExpressionError(f"cannot evaluate expression {text!r}: {exc}") from None

    return func


def write_vtk(path, mesh: Mesh, fields: dict[str, np.ndarray]) -> None:
    """Write a legacy ASCII VTK unstructured grid with vertex scalar fields."""
    lines = [
        "# vtk DataFile Version 2.0",
        "biharm output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.num_vertices} double",
    ]
    for x, y in mesh.vertices:
        lines.append(f"{FLOAT_FMT.format(x)} {FLOAT_FMT.format(y)} 0.0")
    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)
    lines.append(f"POINT_DATA {mesh.num_vertices}")
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices,):
            raise ValueError(f"field {name!r} is not a per-vertex array")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(FLOAT_FMT.format(v) for v in values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _build_mesh(domain: str, n: int, refine: int) -> Mesh:
    mesh = unit_square_mesh(n) if domain == "square" else unit_disk_mesh(n)
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    return mesh


def _problem_from_args(args) -> tuple[NeumannProblem, object]:
    """Build the data triple; returns (problem, case_or_None)."""
    exprs = [args.f, args.g, args.h]
    if args.case is not None:
        if any(e is not None for e in exprs):
            raise ExpressionError("--case and --f/--g/--h are mutually exclusive")
        case = cases()[args.case]
        return NeumannProblem(case.f, case.g, case.h), case
    if any(e is None for e in exprs):
        raise ExpressionError("either --case or all of --f, --g, --h are required")
    return (
        NeumannProblem(
            parse_expression(args.f), parse_expression(args.g), parse_expression(args.h)
        ),
        None,
    )


def _cmd_mesh(args) -> int:
    mesh = _build_mesh(args.domain, args.n, args.refine)
    if args.out:
        write_mesh(mesh, args.out)
    print(
        f"domain={mesh.domain_tag.value} vertices={mesh.num_vertices} "
        f"triangles={mesh.num_triangles} boundary_edges={mesh.num_boundary_edges} "
        f"area={FLOAT_FMT.format(mesh.area())}"
    )
    return 0


def _cmd_solve(args) -> int:
    problem, case = _problem_from_args(args)
    if case is not None and args.domain != "square":
        raise ExpressionError(f"case {case.name!r} is defined on the unit square")
    mesh = _build_mesh(args.domain, args.n, 0)
    space = build_space(mesh, args.degree)
    solution = solve_neumann(
        space,
        problem,
        harmonic_degree=args.kmax,
        strict=args.strict,
        strict_tol=args.strict_tol,
        rel_tol=args.rel_tol,
        max_iter=args.max_iter,
    )
    d = solution.diagnostics
    print(f"dofs={space.dof_count} cg_iterations={d.cg_iterations[0]}+{d.cg_iterations[1]}")
    print(f"compat_max={FLOAT_FMT.format(d.compat_max)}")
    print(f"flux_mismatch={FLOAT_FMT.format(d.flux_mismatch)}")
    if case is not None:
        err_sigma = l2_error(solution.sigma_h, case.sigma_exact)
        err_s = l2_error(solution.s_h, case.u_exact)
        print(f"l2_sigma={FLOAT_FMT.format(err_sigma)}")
        print(f"l2_s={FLOAT_FMT.format(err_s)}")
    if args.out:
        write_vtk(
            args.out,
            mesh,
            {"sigma": solution.sigma_h.vertex_values(), "s": solution.s_h.vertex_values()},
        )
    return 0


def _cmd_converge(args) -> int:
    case = cases()[args.case]
    problem = NeumannProblem(case.f, case.g, case.h)
    rows = []
    prev = None
    for level in range(args.levels):
        n = args.n0 * 2**level
        space = build_space(unit_square_mesh(n), args.degree)
        solution = solve_neumann(space, problem, rel_tol=args.rel_tol)
        err_sigma = l2_error(solution.sigma_h, case.sigma_exact)
        err_s = l2_error(solution.s_h, case.u_exact)
        if prev is None:
            rate_sigma = rate_s = ""
        else:
            rate_sigma = FLOAT_FMT.format(np.log2(prev[0] / err_sigma))
            rate_s = FLOAT_FMT.format(np.log2(prev[1] / err_s))
        prev = (err_sigma, err_s)
        rows.append(
            [
                str(level),
                FLOAT_FMT.format(1.0 / n),
                str(space.dof_count),
                FLOAT_FMT.format(err_sigma),
                FLOAT_FMT.format(err_s),
                rate_sigma,
                rate_s,
                FLOAT_FMT.format(solution.diagnostics.flux_mismatch),
                FLOAT_FMT.format(solution.diagnostics.compat_max),
            ]
        )
    header = "level,h,dofs,l2_sigma,l2_s,rate_sigma,rate_s,flux_mismatch,compat_max"
    text = header + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)
    return 0


def _harmonic_labels(kmax: int) -> list[str]:
    """Labels of ``harmonic_basis(kmax)`` in its order."""
    labels = ["1"]
    for k in range(1, kmax + 1):
        labels += [f"Re (x+iy)^{k}", f"Im (x+iy)^{k}"]
    return labels


def _cmd_compat(args) -> int:
    problem, _ = _problem_from_args(args)
    check = _strict_check(args.strict, args.strict_tol)
    space = build_space(_build_mesh("square", args.n, 0), args.degree)
    residuals = compatibility_residual(space, problem, harmonic_basis(args.kmax))
    for label, r in zip(_harmonic_labels(args.kmax), residuals, strict=True):
        print(f"r[{label}] = {FLOAT_FMT.format(r)}")
    print(f"compat_max={FLOAT_FMT.format(float(np.abs(residuals).max()))}")
    check(residuals)
    return 0


def _cmd_flux(args) -> int:
    problem, _ = _problem_from_args(args)
    space = build_space(_build_mesh("square", args.n, 0), args.degree)
    solution = solve_neumann(space, problem, rel_tol=args.rel_tol)
    print(f"flux_mismatch={FLOAT_FMT.format(solution.diagnostics.flux_mismatch)}")
    print(f"total_flux={FLOAT_FMT.format(solution.flux.total())}")
    return 0


def _cmd_overdet(args) -> int:
    p = parse_expression(args.p)
    for level in range(args.levels):
        n = args.n * 2**level
        space = build_space(unit_square_mesh(n), args.degree)
        flux = overdetermined_check(space, p, rel_tol=args.rel_tol).flux
        print(
            f"n={n} flux_l2={FLOAT_FMT.format(flux.l2_mismatch())} "
            f"total_flux={FLOAT_FMT.format(flux.total())}"
        )
    return 0


def _cmd_complementing(args) -> int:
    result = complementing_check()
    print("symbols: 1 + t^2, t + t^3 modulo (t - i)^2")
    print(f"remainder 1: {result.remainder1}")
    print(f"remainder 2: {result.remainder2}")
    dep = "true" if result.linearly_dependent else "false"
    factor = str(result.factor) if result.factor is not None else "none"
    print(f"dependent: {dep}, factor: {factor}")
    control = laplace_complementing_check()
    print(f"control (Laplace flux symbol t mod t - i): remainder {control}")
    return 0


def _count(minimum: int):
    """argparse type of a count argument: an integer of at least ``minimum``."""

    def count(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    return count


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=sorted(cases()), help="built-in manufactured case")
    p.add_argument("--f", help="volume source expression in x, y")
    p.add_argument("--g", help="Laplacian trace expression")
    p.add_argument("--h", help="Laplacian flux expression")


def _add_solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_count(1), default=16, help="cells per side (default 16)")
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharm",
        description="Fourth-order Neumann problems via cascaded Poisson solves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate a mesh and optionally write it")
    p.add_argument("--domain", choices=("square", "disk"), default="square")
    p.add_argument("--n", type=_count(1), default=8, help="cells per side, or rings for the disk")
    p.add_argument("--refine", type=_count(0), default=0, help="uniform refinement passes")
    p.add_argument("--out", help="output mesh file")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", help="solve the cascade and report diagnostics")
    _add_data_options(p)
    _add_solver_options(p)
    p.add_argument("--domain", choices=("square", "disk"), default="square")
    p.add_argument("--kmax", type=int, default=DEFAULT_HARMONIC_DEGREE)
    p.add_argument("--strict", action="store_true", help="fail on incompatible data")
    p.add_argument("--strict-tol", type=float, default=DEFAULT_STRICT_TOL)
    p.add_argument("--out", help="VTK output with sigma and s point data")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("converge", help="refinement study on a manufactured case")
    p.add_argument("--case", choices=sorted(cases()), required=True)
    p.add_argument("--levels", type=_count(1), default=4)
    p.add_argument("--n0", type=_count(1), default=8, help="coarsest cells per side")
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--out", help="CSV output (stdout when omitted)")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("compat", help="compatibility residuals against harmonic polynomials")
    _add_data_options(p)
    p.add_argument("--n", type=_count(1), default=32)
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--kmax", type=int, default=DEFAULT_HARMONIC_DEGREE)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--strict-tol", type=float, default=DEFAULT_STRICT_TOL)
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("flux", help="recovered boundary flux versus the h datum")
    _add_data_options(p)
    _add_solver_options(p)
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("overdet", help="overdetermined solvability diagnostics")
    p.add_argument("--p", required=True, help="source expression in x, y")
    p.add_argument("--n", type=_count(1), default=8, help="coarsest cells per side")
    p.add_argument("--levels", type=_count(1), default=3)
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_overdet)

    p = sub.add_parser("complementing", help="exact boundary-symbol independence check")
    p.set_defaults(func=_cmd_complementing)

    return parser


def run(argv: list[str]) -> int:
    """Parse arguments and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ExpressionError, MeshFormatError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, NotSPDError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CompatibilityError as exc:
        print(f"incompatible data: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
