"""Sparse operators and a preconditioned conjugate gradient solver.

Operators are ``scipy.sparse.csr_array`` objects in canonical form, built by
``from_triplets``: duplicate triplets are summed, sums that come to zero are
not stored, and column indices are sorted within each row. The CG solver is
written out longhand because its failure behavior is part of the contract: it
reports iteration counts, raises a typed error carrying the residual when the
iteration budget runs out or a value turns non-finite, and detects loss of
positive definiteness through the p^T A p curvature term. It allocates nothing
per iteration: the matvec runs scipy's CSR kernel into a reused buffer and the
updates run in place, with the same floating-point operations as ``a @ p`` and
fresh temporaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from .mesh import _cast, _integer

__all__ = [
    "SparseMatrix",
    "from_triplets",
    "matvec",
    "CGResult",
    "cg_solve",
    "NonConvergenceError",
    "NotSPDError",
]


class NonConvergenceError(RuntimeError):
    """CG exhausted its iteration budget or met a non-finite value; carries
    the iteration reached and the last residual norm (or the non-finite
    value)."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"conjugate gradient did not converge in {iterations} iterations "
            f"(residual {residual:.6e})"
        )


class NotSPDError(RuntimeError):
    """The operator is not symmetric positive definite (p^T A p <= 0 observed)."""


class SparseMatrix(scipy.sparse.csr_array):
    """A ``scipy.sparse.csr_array`` in canonical form: column indices strictly
    increasing inside each row, no duplicates and no stored zeros. It compares
    as scipy arrays do: ``==`` is elementwise, and it does not hash.

    Its two members are read by name by ``perfbench/tracing.py``, which
    records ``column_indices`` and times ``submatrix``; they go once the
    benchmark reads ``indices`` and indexing instead (ROADMAP item 1).
    """

    @property
    def column_indices(self) -> np.ndarray:
        return self.indices

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> SparseMatrix:
        """Subblock with the given row and column index sets, in their order;
        indices are cast to int64 by ``mesh._cast``, so a boolean mask raises."""
        sub = self[_cast(rows, np.int64)][:, _cast(cols, np.int64)]
        sub.sort_indices()
        return sub


def from_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    entries: np.ndarray,
    shape: tuple[int, int],
) -> SparseMatrix:
    """Build a SparseMatrix from (row, col, value) triplets.

    Triplets hitting the same position are summed, and a position whose sum
    is zero is not stored. Indices outside ``shape`` raise ValueError.
    int32 indices are taken as they are where the matrix stores int32 anyway
    (shape and triplet count below 2**31); other indices are cast to int64
    and entries to float by ``mesh._cast``, so a fraction, a bool or a string
    raises ValueError.
    """
    int32 = all(getattr(k, "dtype", None) == np.int32 for k in (rows, cols))
    index = np.int32 if int32 and max(shape) < 2**31 and rows.size < 2**31 else np.int64
    rows, cols = _cast(rows, index).ravel(), _cast(cols, index).ravel()
    entries = _cast(entries, float).ravel()
    if not (rows.shape == cols.shape == entries.shape):
        raise ValueError("rows, cols and entries must have matching lengths")
    nr, nc = shape
    if rows.size and (rows.min() < 0 or rows.max() >= nr):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= nc):
        raise ValueError("column index out of range")
    # coo_matrix, not coo_array: it stores int32 indices wherever they fit,
    # copying int64 input down and taking int32 input as it is
    a = SparseMatrix(scipy.sparse.coo_matrix((entries, (rows, cols)), shape=shape))
    a.eliminate_zeros()  # the conversion summed duplicates and sorted each row
    return a


def matvec(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    x = _cast(x, float)
    if x.shape != (a.shape[1],):
        raise ValueError(f"vector length {x.shape} does not match matrix shape {a.shape}")
    return a @ x


@dataclass(frozen=True, eq=False)
class CGResult:
    """Solution vector plus the iteration count and final residual norm."""

    x: np.ndarray
    iterations: int
    residual: float


def _check_cg_budget(rel_tol: float, max_iter: int | None) -> int | None:
    """ValueError unless rel_tol is a real number (not a bool), finite and > 0,
    and max_iter is None or an integer of at least 0; returns max_iter as an
    int or None. Solvers that may return before any CG runs call it too, so a
    bad budget is an input error whatever the size of the system."""
    real = not isinstance(rel_tol, bool) and isinstance(rel_tol, numbers.Real)
    if not (real and math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol!r}")
    return None if max_iter is None else _integer(max_iter, "max_iter", 0)


def cg_solve(
    a: SparseMatrix,
    b: np.ndarray,
    rel_tol: float = 1e-10,
    max_iter: int | None = None,
) -> CGResult:
    """Solve A x = b for symmetric positive definite A by Jacobi-preconditioned
    conjugate gradients.

    Parameters
    ----------
    rel_tol : stop when ||r||_2 <= rel_tol * ||b||_2; finite and positive
    max_iter : iteration budget, default 10 * n; an integer of at least 0

    Raises
    ------
    NonConvergenceError
        when the budget is exhausted; the exception carries the residual.
        Also raised at once, with the iteration reached and the offending
        value, when ||b||, p^T A p or the residual norm is not finite.
    NotSPDError
        when a search direction has nonpositive curvature p^T A p, or the
        diagonal preconditioner meets a nonpositive diagonal entry.
    ValueError
        on mismatched shapes, a rel_tol that is not a real number, finite
        and > 0, or a max_iter that is not an integer >= 0.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    b = _cast(b, float)
    if b.shape != (n,):
        raise ValueError("right-hand side length does not match matrix")
    max_iter = _check_cg_budget(rel_tol, max_iter)
    max_iter = 10 * n if max_iter is None else max_iter

    diag = a.diagonal()
    if n and diag.min() <= 0:
        raise NotSPDError("nonpositive diagonal entry")

    # Iterate on b * 2**-e, largest entry in [0.5, 1): exact scaling, so tiny or
    # huge data neither underflow nor overflow and results scale back bit for bit.
    e = math.frexp(float(np.abs(b).max(initial=0.0)))[1]
    r = np.ldexp(b, -e)
    b_norm = math.sqrt(r @ r)
    if not math.isfinite(b_norm):
        raise NonConvergenceError(0, b_norm)
    x = np.zeros(n)
    if b_norm == 0.0:
        return CGResult(x, 0, 0.0)

    # One set of work vectors for the whole solve. Each matvec is the CSR
    # kernel that ``a @ p`` runs, into a buffer zeroed the way it zeroes its
    # fresh output, so every iterate is bit for bit the allocating loop's.
    indptr, indices, data = a.indptr, a.indices, a.data
    z = r / diag
    p = z.copy()
    ap = np.empty(n)
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        ap.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, p, ap)
        pap = float(p @ ap)
        if not math.isfinite(pap):
            raise NonConvergenceError(k, pap)
        if pap <= 0.0:
            raise NotSPDError(f"nonpositive curvature p^T A p = {math.ldexp(pap, 2 * e):.6e}")
        alpha = rz / pap
        x += np.multiply(p, alpha, out=z)  # z is dead until it is formed from the new r
        r -= np.multiply(ap, alpha, out=z)
        res = math.sqrt(r @ r)
        if not math.isfinite(res):
            raise NonConvergenceError(k, res)
        if res <= rel_tol * b_norm:
            return CGResult(np.ldexp(x, e), k, math.ldexp(res, e))
        np.divide(r, diag, out=z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise NonConvergenceError(max_iter, math.ldexp(math.sqrt(r @ r), e))
