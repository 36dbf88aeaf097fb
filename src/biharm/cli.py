"""Command line front end.

Subcommands: mesh, solve, converge, compat, flux, overdet, complementing. Each checks all
its options first, in ``run``, then its expressions and the mesh size, and only then
builds a mesh. Exit codes: 0 success, 1 usage or input error, 2 numerical failure, 3
compatibility violation under --strict. Identical invocations give byte-identical output.
"""

from __future__ import annotations

import argparse
import ast
import errno
import operator
import os
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
from .fem import _data_values, boundary_geometry, build_space
from .manufactured import cases, l2_error
from .mesh import (
    Mesh,
    _cast,
    _write_text,
    refine_uniform,
    unit_disk_mesh,
    unit_square_mesh,
    write_mesh,
)
from .poisson import _solve_with_flux, overdetermined_check
from .polynomials import complementing_check, harmonic_basis, laplace_complementing_check
from .sparse import NonConvergenceError, NotSPDError, _check_cg_budget

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


def _power(base, exponent):
    """``base ** exponent``; for two Python ints, a result beyond MAX_POWER_BITS
    raises ArithmeticError instead of being computed."""
    if isinstance(base, int) and isinstance(exponent, int) and abs(base) > 1:
        if exponent * (abs(base).bit_length() - 1) > MAX_POWER_BITS:
            raise ArithmeticError(f"integer power {base}**{exponent} is too large")
    return base**exponent


_ALLOWED_CALLS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ALLOWED_NAMES = {"x": lambda x, y: x, "y": lambda x, y: y, "pi": lambda x, y: np.pi}
_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: _power,
}
_ALLOWED_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _closure(node: ast.AST):
    """The function (x, y) -> value of an allowed expression node, built on its
    operands' functions; any other node raises ExpressionError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _ALLOWED_BINOPS:
        op, left, right = _ALLOWED_BINOPS[type(node.op)], _closure(node.left), _closure(node.right)
        return lambda x, y: op(left(x, y), right(x, y))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _ALLOWED_UNARYOPS:
        op, operand = _ALLOWED_UNARYOPS[type(node.op)], _closure(node.operand)
        return lambda x, y: op(operand(x, y))
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return lambda x, y, value=node.value: value
    if isinstance(node, ast.Name) and node.id in _ALLOWED_NAMES:
        return _ALLOWED_NAMES[node.id]
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in _ALLOWED_CALLS or len(node.args) != 1 or node.keywords:
            raise ExpressionError(
                f"only {', '.join(sorted(_ALLOWED_CALLS))} calls with one argument are allowed"
            )
        call, arg = _ALLOWED_CALLS[name], _closure(node.args[0])
        return lambda x, y: call(arg(x, y))
    raise ExpressionError(f"disallowed syntax: {ast.dump(node)[:60]}")


def parse_expression(text: str):
    """Translate an arithmetic expression in x, y, pi, once, into a vectorized
    callable of nested numpy operations; the text is never eval'd. Supports
    + - * / ^ (or **), unary signs, numeric literals and the functions sin,
    cos, exp."""
    too_deep = f"expression {text[:40]!r}... is nested too deeply"
    try:
        body = _closure(ast.parse(text.replace("^", "**"), mode="eval").body)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # the parser's own stack overflows as MemoryError
        raise ExpressionError(too_deep) from None

    def func(x, y):
        # no numpy warning for 1/x at x = 0: the data evaluator rejects inf as DataError
        try:
            with np.errstate(all="ignore"):
                return body(x, y)
        except (ArithmeticError, TypeError) as exc:  # 1/0; sin of an int beyond int64
            raise ExpressionError(f"cannot evaluate expression {text!r}: {exc}") from None
        except RecursionError:
            raise ExpressionError(too_deep) from None

    return func


def write_vtk(path, mesh: Mesh, fields: dict[str, np.ndarray]) -> None:
    """Write a legacy ASCII VTK unstructured grid with vertex scalar fields, in
    place as write_mesh does. A name that is not ASCII, or not one token (empty
    or with whitespace: a reader reads ``SCALARS <name>`` by tokens), raises
    ValueError before the open."""
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
        if name.split() != [name]:
            raise ValueError(f"field name {name!r} is not one token")
        values = _cast(values, float)
        if values.shape != (mesh.num_vertices,):
            raise ValueError(f"field {name!r} is not a per-vertex array")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(FLOAT_FMT.format(v) for v in values)
    _write_text(path, "\n".join(lines) + "\n")


def _check_size(domain: str, n: int, refine: int) -> None:
    """Refuse, before anything is built, a mesh of more than MAX_TRIANGLES
    triangles: the square has 2 n^2, the disk 6 n^2, times 4 per refinement."""
    triangles = (2 if domain == "square" else 6) * n * n
    while refine and triangles <= MAX_TRIANGLES:  # at most 11 passes, however large refine
        triangles, refine = 4 * triangles, refine - 1
    if triangles > MAX_TRIANGLES:
        raise ValueError(f"the mesh would exceed the limit of {MAX_TRIANGLES} triangles")


def _check_out(path: str | None) -> None:
    """Raise, before any work, the OSError that writing ``path`` would raise: a
    stat of its parent fails, the parent is not a directory, or ``path`` is one."""
    if not path:
        return
    parent = Path(path).parent
    try:
        parent.stat()
    except OSError as exc:  # missing, or below a regular file
        raise OSError(exc.errno, exc.strerror, path) from None
    if not parent.is_dir():
        raise OSError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if Path(path).is_dir():
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)


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


def _level_errors(space, problem: NeumannProblem, case, rel_tol: float):
    """The cascade on one level of the study: the L2 errors of sigma_h and s_h and
    the diagnostics. Only these leave: the solution, which keeps the space with its
    operators and held points alive, is not kept through the next level's solve."""
    solution = solve_neumann(space, problem, rel_tol=rel_tol)
    err_sigma = l2_error(solution.sigma_h, case.sigma_exact)
    return err_sigma, l2_error(solution.s_h, case.u_exact), solution.diagnostics


def _cmd_converge(args) -> int:
    case = cases()[args.case]
    problem = NeumannProblem(case.f, case.g, case.h)
    rows = []
    prev = None
    for level, (n, space) in enumerate(_ladder(args.n0, args.levels, args.degree)):
        err_sigma, err_s, diagnostics = _level_errors(space, problem, case, args.rel_tol)
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
                FLOAT_FMT.format(diagnostics.flux_mismatch),
                FLOAT_FMT.format(diagnostics.compat_max),
            ]
        )
    header = "level,h,dofs,l2_sigma,l2_s,rate_sigma,rate_s,flux_mismatch,compat_max"
    text = header + "\n" + "\n".join(",".join(row) for row in rows) + "\n"
    if args.out:
        _write_text(args.out, text)
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
    space = build_space(_build_mesh("square", args.n, 0), 1)  # the residuals read only the mesh
    residuals = compatibility_residual(space, problem, harmonic_basis(args.kmax))
    for label, r in zip(_harmonic_labels(args.kmax), residuals, strict=True):
        print(f"r[{label}] = {FLOAT_FMT.format(r)}")
    print(f"compat_max={FLOAT_FMT.format(float(np.abs(residuals).max()))}")
    _strict_check(args.strict, args.strict_tol)(residuals)
    return 0


def _cmd_flux(args) -> int:
    problem, _ = _problem_from_args(args)
    space = build_space(_build_mesh("square", args.n, 0), args.degree)
    h = _data_values(problem.h, *boundary_geometry(space.mesh)[:2])  # a bad h fails before CG
    _, flux = _solve_with_flux(space, problem.f, problem.g, args.rel_tol, args.max_iter)
    print(f"flux_mismatch={FLOAT_FMT.format(flux.l2_mismatch(h))}")
    print(f"total_flux={FLOAT_FMT.format(flux.total())}")
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


# the names of manufactured.cases(), fixed here so that building the parser
# builds no case
_CASE_NAMES = ("bubble", "sine")

# argparse reads "--f -x" as two options; the "=" form keeps a leading minus
_MINUS_HINT = "; one that starts with a minus sign goes after '=', as in --%(dest)s=-x"


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", choices=_CASE_NAMES, help="built-in manufactured case")
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
    p.add_argument("--case", choices=_CASE_NAMES, required=True)
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
        _check_out(getattr(args, "out", None))
        _strict_check(getattr(args, "strict", False), getattr(args, "strict_tol", 0.0))
        _check_cg_budget(getattr(args, "rel_tol", 1.0), getattr(args, "max_iter", None))
        # an overflow numpy would warn about is a numerical failure, not a stray stderr line
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonConvergenceError, NotSPDError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except CompatibilityError as exc:
        print(f"incompatible data: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
