"""CSR construction and the conjugate gradient solver."""

import re

import numpy as np
import pytest

from biharm.fem import assemble_mass, assemble_stiffness, build_space
from biharm.mesh import unit_square_mesh
from biharm.sparse import (
    NonConvergenceError,
    NotSPDError,
    SparseMatrix,
    cg_solve,
    from_triplets,
    matvec,
)


def dense_from_triplets(rows, cols, vals, shape):
    # independent reference: accumulate into a dense array one entry at a time
    a = np.zeros(shape)
    for r, c, v in zip(rows, cols, vals):
        a[r, c] += v
    return a


def test_duplicate_triplets_are_summed():
    a = from_triplets([0, 0, 1], [1, 1, 0], [2.0, 3.0, -1.0], shape=(2, 2))
    assert a.nnz == 2
    expected = np.array([[0.0, 5.0], [-1.0, 0.0]])
    assert np.array_equal(a.toarray(), expected)


def test_csr_invariants_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 40))
        rows = rng.integers(0, n, size=k)
        cols = rng.integers(0, n, size=k)
        vals = rng.standard_normal(k)
        a = from_triplets(rows, cols, vals, shape=(n, n))
        assert np.array_equal(a.row_offsets[[0, -1]], [0, a.nnz])
        assert np.all(np.diff(a.row_offsets) >= 0)
        for i in range(n):
            sl = slice(a.row_offsets[i], a.row_offsets[i + 1])
            ci = a.column_indices[sl]
            assert np.all(np.diff(ci) > 0)  # sorted, no duplicates
        dense = dense_from_triplets(rows, cols, vals, (n, n))
        assert np.allclose(a.toarray(), dense, atol=1e-15)


def test_matvec_matches_dense():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 6, size=30)
    cols = rng.integers(0, 5, size=30)
    vals = rng.standard_normal(30)
    a = from_triplets(rows, cols, vals, shape=(6, 5))
    x = rng.standard_normal(5)
    dense = dense_from_triplets(rows, cols, vals, (6, 5))
    assert np.allclose(a @ x, dense @ x, atol=1e-14)
    assert np.allclose(matvec(a, x), dense @ x, atol=1e-14)


def test_from_triplets_rejects_bad_input():
    with pytest.raises(ValueError):
        from_triplets([0, 1], [0], [1.0, 2.0], shape=(2, 2))
    with pytest.raises(ValueError):
        from_triplets([0, 2], [0, 0], [1.0, 1.0], shape=(2, 2))
    with pytest.raises(ValueError):
        from_triplets([0, 1], [0, -1], [1.0, 1.0], shape=(2, 2))


def test_submatrix_picks_block():
    a = from_triplets([0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0], shape=(3, 3))
    sub = a.submatrix(np.array([2, 0]), np.array([2, 0]))
    assert np.array_equal(sub.toarray(), np.array([[3.0, 0.0], [0.0, 1.0]]))


def test_cg_identity():
    a = from_triplets(range(4), range(4), np.ones(4), shape=(4, 4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    res = cg_solve(a, b)
    assert np.allclose(res.x, b, atol=1e-12)
    assert res.iterations <= 2


def test_cg_zero_rhs():
    a = from_triplets(range(3), range(3), [2.0, 2.0, 2.0], shape=(3, 3))
    res = cg_solve(a, np.zeros(3))
    assert np.array_equal(res.x, np.zeros(3))
    assert res.iterations == 0
    assert res.residual == 0.0


def test_cg_matches_dense_factorization():
    # regularized Laplacian on a coarse mesh: SPD, under 200 dofs
    space = build_space(unit_square_mesh(8), 1)
    assert space.dof_count <= 200
    a = SparseMatrix(
        (assemble_stiffness(space).csr + assemble_mass(space).csr).tocsr()
    )
    rng = np.random.default_rng(3)
    b = rng.standard_normal(space.dof_count)
    res = cg_solve(a, b, rel_tol=1e-12)
    x_ref = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    assert 0 < res.iterations <= 10 * space.dof_count
    assert res.residual <= 1e-12 * np.linalg.norm(b)


def test_cg_nonconvergence_carries_state():
    space = build_space(unit_square_mesh(8), 1)
    a = SparseMatrix(
        (assemble_stiffness(space).csr + assemble_mass(space).csr).tocsr()
    )
    b = np.ones(space.dof_count)
    with pytest.raises(NonConvergenceError) as err:
        cg_solve(a, b, rel_tol=1e-14, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 0


def test_cg_stops_at_once_on_nan_right_hand_side():
    space = build_space(unit_square_mesh(8), 1)
    a = assemble_stiffness(space).submatrix(np.arange(1, 10), np.arange(1, 10))
    b = np.ones(9)
    b[4] = np.nan
    with pytest.raises(NonConvergenceError) as err:
        cg_solve(a, b)
    assert err.value.iterations <= 1
    assert not np.isfinite(err.value.residual)


def test_cg_stops_at_once_on_infinite_curvature():
    a = from_triplets([0, 0, 1, 1], [0, 1, 0, 1], [1.0, np.inf, np.inf, 1.0], shape=(2, 2))
    with pytest.raises(NonConvergenceError) as err:
        cg_solve(a, np.array([1.0, 0.5]))
    assert err.value.iterations == 1
    assert err.value.residual == np.inf


def test_cg_and_matvec_reject_mismatched_shapes():
    square = from_triplets([0, 1], [0, 1], [1.0, 1.0], shape=(2, 2))
    wide = from_triplets([0, 1], [0, 2], [1.0, 1.0], shape=(2, 3))
    with pytest.raises(ValueError, match="^matrix must be square$"):
        cg_solve(wide, np.ones(2))
    with pytest.raises(ValueError, match="^right-hand side length does not match matrix$"):
        cg_solve(square, np.ones(3))
    message = "vector length (3,) does not match matrix shape (2, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        matvec(square, np.ones(3))


def test_cg_rejects_negative_diagonal():
    a = from_triplets([0, 1], [0, 1], [1.0, -1.0], shape=(2, 2))
    with pytest.raises(NotSPDError):
        cg_solve(a, np.array([1.0, 1.0]))


def test_cg_detects_indefinite_despite_positive_diagonal():
    # [[1, 2], [2, 1]] has positive diagonal but eigenvalues 3 and -1
    a = from_triplets([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 2.0, 2.0, 1.0], shape=(2, 2))
    with pytest.raises(NotSPDError):
        cg_solve(a, np.array([1.0, -1.0]))


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, 0.0, -1.0])
def test_cg_rejects_a_tolerance_it_cannot_meet(rel_tol):
    # without the check, a NaN tolerance iterates until p underflows and
    # then reports a false NotSPDError
    space = build_space(unit_square_mesh(8), 1)
    a = assemble_stiffness(space).submatrix(np.arange(1, 10), np.arange(1, 10))
    with pytest.raises(ValueError, match="rel_tol"):
        cg_solve(a, np.ones(9), rel_tol=rel_tol)


def test_cg_rejects_a_negative_budget_and_takes_zero():
    a = from_triplets([0, 1], [0, 1], [2.0, 3.0], shape=(2, 2))
    b = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve(a, b, max_iter=-1)
    with pytest.raises(NonConvergenceError) as err:
        cg_solve(a, b, max_iter=0)
    assert err.value.iterations == 0
    assert cg_solve(a, np.zeros(2), max_iter=0).iterations == 0


def test_values_not_writeable_through_wrapper():
    a = from_triplets([0, 1], [1, 0], [1.0, 2.0], shape=(2, 2))
    before = a.toarray()
    x = a @ np.array([1.0, 1.0])
    x[0] = 99.0  # mutating the result must not touch the matrix
    assert np.array_equal(a.toarray(), before)


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["tiny", "huge"])
def test_cg_is_exact_under_power_of_two_scaling_of_the_data(scale):
    # p^T A p of the unscaled iteration would underflow (tiny) or overflow (huge)
    space = build_space(unit_square_mesh(8), 1)
    a = SparseMatrix(
        (assemble_stiffness(space).csr + assemble_mass(space).csr).tocsr()
    )
    b = np.random.default_rng(5).standard_normal(space.dof_count)
    ref = cg_solve(a, b)
    res = cg_solve(a, b * scale)
    assert res.iterations == ref.iterations
    assert res.x.tobytes() == (ref.x * scale).tobytes()
    assert res.residual == ref.residual * scale
