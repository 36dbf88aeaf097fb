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

# Input limits, checked before any mesh is built. 2**21 triangles is the square
# at n = 1024, above the largest ladder the benchmarks run (P1 n = 512).
MAX_TRIANGLES = 2**21
MAX_KMAX = 64
# Bits of a power of two Python ints in an expression; a larger one is refused,
# not computed, since exact integer arithmetic has no bound of its own.
MAX_POWER_BITS = 2**16


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


class _Powers(ast.NodeTransformer):
    """Turns each ``a ** b`` into ``_power(a, b)``."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("_power", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


def _power(base, exponent):
    """``base ** exponent``; for two Python ints, a result beyond MAX_POWER_BITS
    raises ArithmeticError instead of being computed."""
    if isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1:
        if exponent * (abs(base).bit_length() - 1) > MAX_POWER_BITS:
            raise ArithmeticError(f"integer power {base}**{exponent} is too large")
    return base**exponent


def parse_expression(text: str):
    """Compile an arithmetic expression in x, y, pi into a vectorized
    callable. Supports + - * / ^ (or **), unary signs, numeric literals
    and the functions sin, cos, exp."""
    prepared = text.replace("^", "**")
    try:
        tree = ast.parse(prepared, mode="eval")
        _check_node(tree)
        tree = ast.fix_missing_locations(_Powers().visit(tree))
        code = compile(tree, "<expression>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except RecursionError:
        raise ExpressionError(f"expression {text[:40]!r}... is nested too deeply") from None
    env = {"pi": np.pi, "_power": _power, **_ALLOWED_CALLS}

    def func(x, y):
        # no numpy warning for 1/x at x = 0: the data evaluator rejects inf as DataError
        try:
            with np.errstate(all="ignore"):
                return eval(code, {"__builtins__": {}}, {"x": x, "y": y, **env})
        except (ArithmeticError, TypeError) as exc:  # 1/0; sin of an int beyond int64
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


def _check_size(domain: str, n: int, refine: int) -> None:
    """Refuse, before anything is built, a mesh of more than MAX_TRIANGLES
    triangles: the square has 2 n^2, the disk 6 n^2, times 4 per refinement."""
    triangles = (2 if domain == "square" else 6) * n * n
    while refine and triangles <= MAX_TRIANGLES:  # at most 11 passes, however large refine
        triangles, refine = 4 * triangles, refine - 1
    if triangles > MAX_TRIANGLES:
        raise ValueError(f"the mesh would exceed the limit of {MAX_TRIANGLES} triangles")


def _build_mesh(domain: str, n: int, refine: int) -> Mesh:
    _check_size(domain, n, refine)
    mesh = unit_square_mesh(n) if domain == "square" else unit_disk_mesh(n)
    for _ in range(refine):
        mesh = refine_uniform(mesh)
    return mesh


def _ladder(n0: int, levels: int, degree: int):
    """(n, space of ``degree`` on unit_square_mesh(n)) for n = n0 * 2**level, level by
    level; the finest mesh is checked against the size limit before any is built."""
    _check_size("square", n0, levels - 1)  # n0 * 2**k cells per side: n0 refined k times
    sizes = (n0 * 2**level for level in range(levels))
    return ((n, build_space(unit_square_mesh(n), degree)) for n in sizes)


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
    for level, (n, space) in enumerate(_ladder(args.n0, args.levels, args.degree)):
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
    space = build_space(_build_mesh("square", args.n, 0), 1)  # the residuals read only the mesh
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
    for n, space in _ladder(args.n, args.levels, args.degree):
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


def _count(minimum: int, maximum: int | None = None):
    """argparse type of a count argument: an integer of at least ``minimum``
    and, if given, at most ``maximum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return count


# argparse reads "--f -x" as two options; the "=" form keeps a leading minus
_MINUS_HINT = "; one that starts with a minus sign goes after '=', as in --%(dest)s=-x"


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=sorted(cases()), help="built-in manufactured case")
    p.add_argument("--f", help=f"volume source expression in x, y{_MINUS_HINT}")
    p.add_argument("--g", help=f"Laplacian trace expression{_MINUS_HINT}")
    p.add_argument("--h", help=f"Laplacian flux expression{_MINUS_HINT}")


def _add_solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_count(1), default=16, help="cells per side (default 16)")
    p.add_argument("--degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error on one stderr line, without the usage text."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--kmax", type=_count(0, MAX_KMAX), default=DEFAULT_HARMONIC_DEGREE)
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
    p.add_argument("--kmax", type=_count(0, MAX_KMAX), default=DEFAULT_HARMONIC_DEGREE)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--strict-tol", type=float, default=DEFAULT_STRICT_TOL)
    p.set_defaults(func=_cmd_compat)

    p = sub.add_parser("flux", help="recovered boundary flux versus the h datum")
    _add_data_options(p)
    _add_solver_options(p)
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("overdet", help="overdetermined solvability diagnostics")
    p.add_argument("--p", required=True, help=f"source expression in x, y{_MINUS_HINT}")
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
        # an overflow numpy would warn about is a numerical failure, not a stray stderr line
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ExpressionError, MeshFormatError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, NotSPDError, FloatingPointError) as exc:
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


if __name__ == "__main__":
    main()
