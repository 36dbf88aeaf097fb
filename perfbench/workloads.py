"""The three benchmark workloads: seeded inputs, one operation, its gate.

A workload is built once per process (its set-up), then ``compute(k)`` runs
operation ``k`` and ``check(k, out)`` returns the reasons the output is wrong,
empty when it passes. Inputs depend only on the seed and ``k``, so a repeated
``k`` repeats the same work. The library is reached only through module
attributes (``mesh.unit_disk_mesh``, not a ``from`` import), so that a
``tracing.Tracer`` sees every call.

Sizes: ``full`` is the measured size; ``smoke`` is a tiny size of the same
operation, checked by the same gates, for the self-tests.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from biharm import biharmonic, cli, fem, manufactured, mesh, polynomials


class ConvergeP1Square:
    """``biharm converge`` on the sine case: P1 at n0, 2 n0, ... per level.

    The operation is fixed; the seed does not change it.
    """

    name = "converge-p1-square"
    group = (0,)
    N0 = 32
    # Three levels, n = 32..128, take about 2.5 s; a fourth (n = 256) makes an
    # op of about 9 s, too few per run for a steady median.
    LEVELS = {"full": 3, "smoke": 2}
    # (dofs, l2_sigma, l2_s) per level, recorded at the seed.
    REFERENCE = (
        (1089, 2.665659906886e-02, 2.495765296851e-03),
        (4225, 6.671704764979e-03, 6.253618233689e-04),
        (16641, 1.668399559672e-03, 1.564294848700e-04),
        (66049, 4.171294922061e-04, 3.911293905384e-05),
    )
    RATE_WINDOW = (1.95, 2.05)
    COMPAT_TOL = 1e-9
    ERROR_RTOL = 1e-6

    def __init__(self, seed: int, size: str, workdir: Path):
        self.levels = self.LEVELS[size]
        self.out = workdir / "converge.csv"

    def compute(self, k: int):
        argv = ["converge", "--case", "sine", "--levels", str(self.levels), "--n0", str(self.N0)]
        code = cli.run([*argv, "--out", str(self.out)])
        return code, self.out.read_text(encoding="ascii") if code == 0 else ""

    def check(self, k: int, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        header, *lines = text.splitlines()
        columns = header.split(",")
        rows = [dict(zip(columns, line.split(","))) for line in lines]
        if len(rows) != self.levels:
            return [f"{len(rows)} rows, expected {self.levels}"]
        problems = []
        lo, hi = self.RATE_WINDOW
        for level, (row, (dofs, l2_sigma, l2_s)) in enumerate(zip(rows, self.REFERENCE)):
            if int(row["dofs"]) != dofs:
                problems.append(f"level {level}: dofs {row['dofs']} != {dofs}")
            for key, ref in (("l2_sigma", l2_sigma), ("l2_s", l2_s)):
                if abs(float(row[key]) - ref) > self.ERROR_RTOL * ref:
                    problems.append(f"level {level}: {key} {row[key]} != {ref:.12e}")
            if float(row["compat_max"]) > self.COMPAT_TOL:
                problems.append(f"level {level}: compat_max {row['compat_max']}")
            if level > 0:
                for key in ("rate_sigma", "rate_s"):
                    if not lo <= float(row[key]) <= hi:
                        problems.append(f"level {level}: {key} {row[key]} outside [{lo}, {hi}]")
        return problems


class SweepP2Square:
    """Repeated ``solve_neumann`` on one P2 space: the h-consistency study.

    Operations come in pairs (2j, 2j + 1) on the bubble case scaled by alpha_j;
    the second member shifts h by c_j. h enters no solve, so the pair's fields
    are bit-identical and only the residual r(1) moves, by -c_j times the
    boundary length 4.
    """

    name = "sweep-p2-square"
    group = (0, 1)
    SIZES = {"full": 96, "smoke": 8}
    BOUNDARY_LENGTH = 4.0
    COMPAT_TOL = 1e-9
    SHIFT_TOL = 1e-9

    def __init__(self, seed: int, size: str, workdir: Path):
        self.space = fem.build_space(mesh.unit_square_mesh(self.SIZES[size]), 2)
        self.case = manufactured.case_bubble()
        self.seed = seed
        self.unshifted: dict[int, object] = {}

    def data(self, k: int) -> tuple[float, float]:
        """(alpha, c) of operation k; c is 0 on the first member of a pair."""
        rng = np.random.default_rng([self.seed, k // 2])
        alpha = float(rng.uniform(0.5, 2.0))
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0))
        return alpha, c * (k % 2)

    def compute(self, k: int):
        alpha, c = self.data(k)
        case = self.case
        problem = biharmonic.NeumannProblem(
            f=lambda x, y: alpha * case.f(x, y),
            g=lambda x, y: alpha * case.g(x, y),
            h=lambda x, y: alpha * case.h(x, y) + c,
        )
        return biharmonic.solve_neumann(self.space, problem)

    def check(self, k: int, out) -> list[str]:
        alpha, c = self.data(k)
        residuals = out.diagnostics.compat_residuals
        if k % 2 == 0:
            self.unshifted[k // 2] = out
            worst = float(np.abs(residuals).max())
            if worst > self.COMPAT_TOL * alpha:
                return [f"compatible data give residual {worst:.3e}"]
            return []
        base = self.unshifted.pop(k // 2, None)
        if base is None:
            return ["first member of the pair is missing"]
        problems = []
        for key in ("sigma_h", "s_h"):
            if getattr(out, key).coeffs.tobytes() != getattr(base, key).coeffs.tobytes():
                problems.append(f"{key} differs from the unshifted solve")
        shift = float(residuals[0] - base.diagnostics.compat_residuals[0])
        if abs(shift + c * self.BOUNDARY_LENGTH) > self.SHIFT_TOL:
            problems.append(f"r(1) moved by {shift!r}, expected {-c * self.BOUNDARY_LENGTH!r}")
        return problems


class TriageDisk:
    """Solve-free consistency check of data on a refined polygonal disk.

    One operation builds the mesh, round-trips it through the text format,
    builds the P1 space and takes the compatibility residuals of a compatible
    triple and of its copy with h shifted by delta. The triple comes from a
    quadratic sigma drawn from the seed: f = laplace(sigma), g = sigma and
    h = grad(sigma) . n with n the normal of the polygon edge.
    """

    name = "triage-disk"
    group = (0,)
    SIZES = {"full": 32, "smoke": 4}
    # One refinement (24,576 triangles) takes about 2.2 s an op; a second
    # makes it about 8 s, too few per run for a steady median.
    REFINEMENTS = 1
    HARMONIC_DEGREE = 4
    COMPAT_TOL = 1e-10
    SHIFT_TOL = 1e-9

    def __init__(self, seed: int, size: str, workdir: Path):
        self.rings = self.SIZES[size]
        self.edges = 6 * self.rings  # sides of the regular polygon
        self.seed = seed

    def data(self, k: int):
        """Coefficients of sigma = p0 x^2 + p1 x y + p2 y^2 + p3 x + p4 y + p5,
        and the shift delta."""
        rng = np.random.default_rng([self.seed, k])
        return rng.uniform(-1.0, 1.0, 6), float(rng.uniform(0.1, 1.0))

    def triple(self, p, delta: float):
        n_edges = self.edges

        def f(x, y):
            return np.full(np.shape(x), 2.0 * (p[0] + p[2]))

        def g(x, y):
            return p[0] * x**2 + p[1] * x * y + p[2] * y**2 + p[3] * x + p[4] * y + p[5]

        def h(x, y):
            # Boundary points lie inside polygon edges, never on a vertex.
            edge = np.floor(np.mod(np.arctan2(y, x), 2.0 * np.pi) * n_edges / (2.0 * np.pi))
            normal = 2.0 * np.pi * (edge + 0.5) / n_edges
            sx = 2.0 * p[0] * x + p[1] * y + p[3]
            sy = p[1] * x + 2.0 * p[2] * y + p[4]
            return sx * np.cos(normal) + sy * np.sin(normal) + delta

        return biharmonic.NeumannProblem(f=f, g=g, h=h)

    def compute(self, k: int):
        p, delta = self.data(k)
        built = mesh.unit_disk_mesh(self.rings)
        for _ in range(self.REFINEMENTS):
            built = mesh.refine_uniform(built)
        buffer = io.StringIO()
        mesh.write_mesh(built, buffer)
        buffer.seek(0)
        read = mesh.read_mesh(buffer)
        space = fem.build_space(read, 1)
        residuals = [
            biharmonic.compatibility_residual(
                space, self.triple(p, shift), polynomials.harmonic_basis(self.HARMONIC_DEGREE)
            )
            for shift in (0.0, delta)
        ]
        return built, read, residuals

    def check(self, k: int, out) -> list[str]:
        built, read, (compatible, shifted) = out
        _, delta = self.data(k)
        problems = [
            f"mesh {key} changed in the text round trip"
            for key in ("vertices", "triangles", "boundary_edges")
            if getattr(built, key).tobytes() != getattr(read, key).tobytes()
        ]
        if read.domain_tag is not built.domain_tag:
            problems.append("mesh domain tag changed in the text round trip")
        worst = float(np.abs(compatible).max())
        if worst > self.COMPAT_TOL:
            problems.append(f"compatible data give residual {worst:.3e}")
        perimeter = 2.0 * self.edges * math.sin(math.pi / self.edges)
        shift = float(shifted[0] - compatible[0])
        if abs(shift + delta * perimeter) > self.SHIFT_TOL:
            problems.append(f"r(1) moved by {shift!r}, expected {-delta * perimeter!r}")
        return problems


WORKLOADS = {w.name: w for w in (ConvergeP1Square, SweepP2Square, TriageDisk)}
