"""Diagnostics do not depend on the BLAS thread count.

The quadrature sums behind the compatibility residuals and the error norms
make no BLAS call, so a run with one OpenBLAS/OpenMP thread and a run with
two print the same bytes. A dot product handed to BLAS splits its sum across
threads once it is long enough, and the last bits would then follow the
thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import biharm

# 24,576 triangles: long enough that a threaded BLAS reduction would split
CHILD = """
import numpy as np
from biharm import NeumannProblem, build_space, compatibility_residual, harmonic_basis
from biharm.manufactured import case_sine, l2_error
from biharm.fem import interpolate
from biharm.mesh import refine_uniform, unit_disk_mesh

space = build_space(refine_uniform(unit_disk_mesh(32)), 1)
problem = NeumannProblem(
    lambda x, y: np.exp(x) * np.cos(2.0 * y),
    lambda x, y: np.sin(3.0 * x * y),
    lambda x, y: np.exp(y) - x,
)
print(compatibility_residual(space, problem, harmonic_basis(4)).tobytes().hex())
case = case_sine()
print(l2_error(interpolate(space, case.sigma_exact), case.sigma_exact).hex())
"""


def run_child(threads: int) -> str:
    src = Path(biharm.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_residuals_and_l2_error_are_the_same_bytes_at_one_and_two_blas_threads():
    one, two = run_child(1), run_child(2)
    assert len(one.splitlines()) == 2
    assert one == two
