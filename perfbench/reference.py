"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's machine is a few vCPUs of a shared host whose speed drifts by
tens of percent over minutes, with the same drift in wall and CPU time. An
operation's time divided by the time of this kernel, run next to it in the
same process, cancels that drift and stays put unless the operation itself
changes. The kernel uses no biharm code, so no change to biharm moves it.

It mixes the three kinds of work the workloads do, in about equal time:
interpreted Python with dict lookups (mesh refinement), sparse-matrix
assembly from triplets, and conjugate-gradient iterations of CSR matvecs
and vector updates.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
import scipy.sparse

GRID = 200  # 40,000 unknowns, about 200,000 nonzeros
CG_ITERATIONS = 125
ASSEMBLIES = 9
PYTHON_EDGES = 60_000


@functools.cache
def _laplacian_triplets(n: int):
    index = np.arange(n * n).reshape(n, n)
    rows, cols = [index.ravel()], [index.ravel()]
    vals = [np.full(n * n, 4.0)]
    for a, b in ((index[:, :-1], index[:, 1:]), (index[:-1, :], index[1:, :])):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [np.full(a.size, -1.0)] * 2
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)



def _python_work(count: int) -> int:
    midpoints: dict[tuple[int, int], int] = {}
    for i in range(count):
        a, b = (i * 7919) % count, (i * 104729 + 1) % count
        key = (a, b) if a < b else (b, a)
        if key not in midpoints:
            midpoints[key] = len(midpoints)
    return len(midpoints)


def _assembly(times: int) -> scipy.sparse.csr_matrix:
    rows, cols, vals = _laplacian_triplets(GRID)
    shape = (GRID * GRID, GRID * GRID)
    for _ in range(times):
        matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    return matrix


def _cg(matrix: scipy.sparse.csr_matrix, iterations: int) -> float:
    b = np.ones(matrix.shape[0])
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rz = float(r @ r)
    for _ in range(iterations):
        ap = matrix @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rz_new = float(r @ r)
        p = r + (rz_new / rz) * p
        rz = rz_new
    return rz


def measure(passes: int) -> tuple[float, float]:
    """Median wall and process CPU seconds of ``passes`` passes of the kernel,
    each pass the same work."""
    walls, cpus = [], []
    for _ in range(passes):
        wall, cpu = time.perf_counter(), time.process_time()
        _python_work(PYTHON_EDGES)
        _cg(_assembly(ASSEMBLIES), CG_ITERATIONS)
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)
