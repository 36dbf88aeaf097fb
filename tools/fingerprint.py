"""Fingerprint of the library's results: one SHA-256 per result, over a fixed matrix.

    python tools/fingerprint.py                   # the hashes of this tree's src/
    python tools/fingerprint.py --against REV     # the results that differ at REV

The matrix: ``unit_square_mesh(40)`` and ``refine_uniform(unit_disk_mesh(12))``
(3,200 and 3,456 triangles, so every moment table spans more than one block of
2,048), P1 and P2; on the square the sine and bubble cases, and on both meshes an
``--f``-style expression, the constant 1/3 and ``Polynomial2D`` data. For each it
hashes the cascade's ``sigma_h``, ``s_h``, residuals at kmax 3 and 7, the flux
functional and projection, ``flux_mismatch``, ``cg_iterations``, the L2 errors of
both fields (against the exact fields of a manufactured case, else against zero)
and one ``weak_form_residual``.

``--against REV`` runs this same script, in the same Python, on the ``src/`` of
REV, a git revision extracted with ``git archive`` or a directory that holds a
``src/biharm`` tree, and lists the results whose hashes differ; the exit status
is 1 if any does. No hash is kept in the repository: the bits follow the numpy,
scipy and BLAS builds, so only two runs on one machine compare.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _sha256(value) -> str:
    import numpy as np

    array = np.asarray(value)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + np.ascontiguousarray(array).tobytes()).hexdigest()


def fingerprints():
    """(name, SHA-256) of every result of the matrix, from the ``biharm`` on sys.path."""
    from fractions import Fraction

    from biharm.biharmonic import (
        NeumannProblem,
        compatibility_residual,
        solve_neumann,
        weak_form_residual,
    )
    from biharm.cli import parse_expression
    from biharm.fem import build_space
    from biharm.manufactured import case_bubble, case_sine, l2_error
    from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
    from biharm.polynomials import Polynomial2D, harmonic_basis

    x, y = Polynomial2D.x(), Polynomial2D.y()
    expressions = ("exp(x)*cos(2*y) - x*y", "sin(x*y)", "1 + x")
    polynomial = Fraction(3, 2) - 2 * x + x * y**2 + Fraction(5, 4) * y**3
    anywhere = {
        "expression": (NeumannProblem(*map(parse_expression, expressions)), None),
        "third": (NeumannProblem(1 / 3, 1 / 3, 1 / 3), None),
        "polynomial": (NeumannProblem(polynomial, x * y, 1 + x), None),
    }
    cases = {c.name: (NeumannProblem(c.f, c.g, c.h), c) for c in (case_sine(), case_bubble())}
    meshes = {
        "square": (unit_square_mesh(40), {**cases, **anywhere}),
        "disk": (refine_uniform(unit_disk_mesh(12)), anywhere),
    }
    r = x**4 * y**2 - y**5  # lap r of degree 4, bilap r of degree 2
    for mesh_name, (mesh, data) in meshes.items():
        for degree in (1, 2):
            space = build_space(mesh, degree)
            for data_name, (problem, case) in data.items():
                sol = solve_neumann(space, problem)
                sigma, u = (case.sigma_exact, case.u_exact) if case else (0.0, 0.0)
                results = {
                    "sigma_h": sol.sigma_h.coeffs,
                    "s_h": sol.s_h.coeffs,
                    "residuals_kmax3": sol.diagnostics.compat_residuals,
                    "residuals_kmax7": compatibility_residual(space, problem, harmonic_basis(7)),
                    "flux_functional": sol.flux.functional,
                    "flux_projected": sol.flux.projected,
                    "flux_mismatch": sol.diagnostics.flux_mismatch,
                    "cg_iterations": sol.diagnostics.cg_iterations,
                    "l2_error_sigma": l2_error(sol.sigma_h, sigma),
                    "l2_error_s": l2_error(sol.s_h, u),
                    "weak_form_residual": weak_form_residual(sol, r),
                }
                for name, value in results.items():
                    yield f"{mesh_name}/P{degree}/{data_name}/{name}", _sha256(value)


def _run(src: Path) -> subprocess.Popen:
    """This script in a child process of the same Python, on the library at ``src``."""
    command = [sys.executable, __file__, "--src", str(src)]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True)


def _hashes(child: subprocess.Popen) -> dict[str, str]:
    out, _ = child.communicate()
    if child.returncode:
        raise SystemExit(f"fingerprint of {child.args[-1]} failed, exit status {child.returncode}")
    return {name: digest for digest, name in (line.split() for line in out.splitlines())}


def compare(against: str) -> int:
    """Print the results whose hashes differ between this tree and ``against``;
    1 if any does, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(against)
        if not (tree / "src" / "biharm").is_dir():
            tree = Path(tmp)
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", "--format=tar", against, "src"],
                capture_output=True,
                check=True,
            ).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        here, there = _run(ROOT / "src"), _run(tree / "src")  # both at once
        ours, theirs = _hashes(here), _hashes(there)
    differ = [name for name in {**ours, **theirs} if ours.get(name) != theirs.get(name)]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(ours)} results differ against {against}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="git revision, or directory with src/biharm")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the library source to hash")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.against)
    sys.path.insert(0, str(args.src.resolve()))
    for name, digest in fingerprints():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
