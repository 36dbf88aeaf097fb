"""CSR construction and the conjugate gradient solver."""

import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse._sparsetools import csr_matvec

from biharm import fem
from biharm.fem import assemble_mass, assemble_stiffness, build_space
from biharm.mesh import refine_uniform, unit_disk_mesh, unit_square_mesh
from biharm.poisson import _operators
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


def assert_canonical(a):
    """A canonical SparseMatrix: a scipy CSR array whose rows hold strictly
    increasing column indices and no stored zeros, so it needs no sorting or
    summing before the CG kernel reads its arrays."""
    assert isinstance(a, SparseMatrix)
    assert isinstance(a, scipy.sparse.csr_array)
    assert np.array_equal(a.indptr[[0, -1]], [0, a.nnz])
    assert np.all(np.diff(a.indptr) >= 0)
    for i in range(a.shape[0]):
        ci = a.indices[a.indptr[i] : a.indptr[i + 1]]
        assert np.all(np.diff(ci) > 0)  # sorted, no duplicates
    assert np.all(a.data != 0.0)
    assert a.has_canonical_format


def test_csr_invariants_random():
    rng, picker = np.random.default_rng(42), np.random.default_rng(43)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, 40))
        rows = rng.integers(0, n, size=k)
        cols = rng.integers(0, n, size=k)
        vals = rng.standard_normal(k)
        vals[::5] = 0.0  # explicit zeros are not stored either
        a = from_triplets(rows, cols, vals, shape=(n, n))
        assert_canonical(a)
        dense = dense_from_triplets(rows, cols, vals, (n, n))
        assert np.allclose(a.toarray(), dense, atol=1e-15)
        picked = picker.permutation(n)[: int(picker.integers(1, n + 1))]
        sub = a.submatrix(picked, picked[::-1])
        assert_canonical(sub)
        assert np.array_equal(sub.toarray(), a.toarray()[np.ix_(picked, picked[::-1])])


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
    for index in (list, np.int32):  # int32 input is taken as it is, and checked alike
        with pytest.raises(ValueError, match="row index out of range"):
            from_triplets(index([0, 2]), index([0, 0]), [1.0, 1.0], shape=(2, 2))
        with pytest.raises(ValueError, match="column index out of range"):
            from_triplets(index([0, 1]), index([0, -1]), [1.0, 1.0], shape=(2, 2))


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_triplets_are_int32_and_build_the_bytes_of_int64_triplets(degree, monkeypatch):
    # int32 triplets are taken as they are; int64 ones are copied down to int32
    # by the conversion; the two then sort and sum alike
    triplets = []

    def recording(rows, cols, entries, shape):
        triplets.append((rows, cols, entries, shape))
        return from_triplets(rows, cols, entries, shape)

    monkeypatch.setattr(fem, "from_triplets", recording)
    space = build_space(refine_uniform(unit_disk_mesh(4)), degree)
    for assemble in (assemble_stiffness, assemble_mass):
        a = assemble(space)
        rows, cols, entries, shape = triplets[-1]
        assert rows.dtype == cols.dtype == np.int32
        wide = from_triplets(rows.astype(np.int64), cols.astype(np.int64), entries, shape)
        assert a.indices.dtype == wide.indices.dtype == np.int32
        for name in ("data", "indices", "indptr"):
            assert getattr(a, name).tobytes() == getattr(wide, name).tobytes()


def test_int32_triplets_give_int64_indices_where_the_shape_needs_them():
    # 2**31 columns need int64 indices, so int32 input is read as int64; a
    # triplet count of 2**31 would too, but is too large to build in a test
    last = 2**31 - 1
    for index in (np.int32, np.int64):
        a = from_triplets(index([0, 1]), index([0, last]), [1.0, 2.0], shape=(2, 2**31))
        assert a.indices.dtype == a.indptr.dtype == np.int64
        assert a.indices.tolist() == [0, last]


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
    a = assemble_stiffness(space) + assemble_mass(space)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(space.dof_count)
    res = cg_solve(a, b, rel_tol=1e-12)
    x_ref = np.linalg.solve(a.toarray(), b)
    assert np.linalg.norm(res.x - x_ref) / np.linalg.norm(x_ref) < 1e-9
    assert 0 < res.iterations <= 10 * space.dof_count
    assert res.residual <= 1e-12 * np.linalg.norm(b)


def test_cg_nonconvergence_carries_state():
    space = build_space(unit_square_mesh(8), 1)
    a = assemble_stiffness(space) + assemble_mass(space)
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


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, 0.0, -1.0, True, "1e-10", None, 1j])
def test_cg_rejects_a_tolerance_it_cannot_meet(rel_tol):
    # without the check, a NaN tolerance iterates until p underflows and
    # then reports a false NotSPDError; True ran with a tolerance of 1.0, and
    # a string failed in math.isfinite with a bare TypeError
    space = build_space(unit_square_mesh(8), 1)
    a = assemble_stiffness(space).submatrix(np.arange(1, 10), np.arange(1, 10))
    with pytest.raises(ValueError, match="^rel_tol must be finite and positive, got "):
        cg_solve(a, np.ones(9), rel_tol=rel_tol)
    assert cg_solve(a, np.ones(9), rel_tol=np.float64(1e-10)).residual <= 1e-10 * 3.0  # ||b|| = 3


def test_cg_rejects_a_negative_budget_and_takes_zero():
    a = from_triplets([0, 1], [0, 1], [2.0, 3.0], shape=(2, 2))
    b = np.array([1.0, 1.0])
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve(a, b, max_iter=-1)
    with pytest.raises(NonConvergenceError) as err:
        cg_solve(a, b, max_iter=0)
    assert err.value.iterations == 0
    assert cg_solve(a, np.zeros(2), max_iter=0).iterations == 0


@pytest.mark.parametrize("max_iter", [True, False, 2.0, 1.5, math.nan, "3"])
def test_cg_refuses_a_budget_that_is_not_an_integer(max_iter):
    # a bool is an int to Python: True once ran one iteration and then reported
    # "did not converge in True iterations"; a float failed inside range()
    a = from_triplets([0, 1], [0, 1], [2.0, 3.0], shape=(2, 2))
    with pytest.raises(ValueError, match="^max_iter must be an integer of at least 0, got "):
        cg_solve(a, np.ones(2), max_iter=max_iter)
    assert cg_solve(a, np.ones(2), max_iter=np.int64(1)).iterations == 1


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
    a = assemble_stiffness(space) + assemble_mass(space)
    b = np.random.default_rng(5).standard_normal(space.dof_count)
    ref = cg_solve(a, b)
    res = cg_solve(a, b * scale)
    assert res.iterations == ref.iterations
    assert res.x.tobytes() == (ref.x * scale).tobytes()
    assert res.residual == ref.residual * scale


def allocating_cg(a, b, rel_tol=1e-10, max_iter=None):
    """The conjugate gradient loop as it was written before it reused its
    vectors: a fresh ``a @ p`` and fresh temporaries every iteration. The
    reference for the in-place loop, which must agree with it bit for bit."""
    n = a.shape[0]
    max_iter = 10 * n if max_iter is None else max_iter
    diag = a.diagonal()
    if n and diag.min() <= 0:
        raise NotSPDError("nonpositive diagonal entry")
    e = math.frexp(float(np.abs(b).max(initial=0.0)))[1]
    r = np.ldexp(b, -e)
    b_norm = float(np.linalg.norm(r))
    if not math.isfinite(b_norm):
        raise NonConvergenceError(0, b_norm)
    x = np.zeros(n)
    if b_norm == 0.0:
        return x, 0, 0.0
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    for k in range(1, max_iter + 1):
        ap = a @ p
        pap = float(p @ ap)
        if not math.isfinite(pap):
            raise NonConvergenceError(k, pap)
        if pap <= 0.0:
            raise NotSPDError(f"nonpositive curvature p^T A p = {math.ldexp(pap, 2 * e):.6e}")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if not math.isfinite(res):
            raise NonConvergenceError(k, res)
        if res <= rel_tol * b_norm:
            return np.ldexp(x, e), k, math.ldexp(res, e)
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(max_iter, math.ldexp(float(np.linalg.norm(r)), e))


CG_MESHES = {"square": unit_square_mesh(12), "disk": refine_uniform(unit_disk_mesh(4))}


def _cg_operators():
    """P1 and P2 A_ii on the square and the refined disk, and the P1 boundary
    mass matrix of each mesh: the three operators the cascade solves with."""
    for name, mesh in sorted(CG_MESHES.items()):
        for degree in (1, 2):
            ops = _operators(build_space(mesh, degree))
            yield f"{name}-P{degree}-A_ii", ops.a_ii
            if degree == 1:
                yield f"{name}-boundary-mass", ops.boundary_mass


CG_OPERATORS = dict(_cg_operators())


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(CG_MESHES))
def test_every_operator_is_a_canonical_sparse_matrix_with_int32_indices(name, degree):
    # the benchmark tracer reads column_indices of every CG operand, and int32
    # indices keep the CSR arrays as small as from_triplets has always built them
    ops = _operators(build_space(CG_MESHES[name], degree))
    fields = {f.name: f.type for f in dataclasses.fields(ops)}
    assert fields.pop("interior") == "np.ndarray"
    assert set(fields.values()) == {"SparseMatrix"}
    for field in fields:
        a = getattr(ops, field)
        assert_canonical(a)
        assert a.indices.dtype == a.indptr.dtype == np.int32
        assert a.column_indices is a.indices


@pytest.mark.parametrize("name", sorted(CG_OPERATORS))
def test_cg_is_bit_identical_to_the_allocating_loop(name):
    a = CG_OPERATORS[name]
    b = np.random.default_rng(11).standard_normal(a.shape[0])
    x, iterations, residual = allocating_cg(a, b)
    res = cg_solve(a, b)
    assert res.x.tobytes() == x.tobytes()
    assert res.iterations == iterations > 1
    assert res.residual.hex() == residual.hex()


def test_cg_runs_out_of_budget_where_the_allocating_loop_does():
    for a in CG_OPERATORS.values():
        b = np.random.default_rng(12).standard_normal(a.shape[0])
        with pytest.raises(NonConvergenceError) as expected:
            allocating_cg(a, b, max_iter=7)
        with pytest.raises(NonConvergenceError) as err:
            cg_solve(a, b, max_iter=7)
        assert err.value.iterations == expected.value.iterations == 7
        assert err.value.residual.hex() == expected.value.residual.hex()


def test_cg_meets_indefiniteness_where_the_allocating_loop_does():
    # 1-D Laplacian with its last diagonal entry lowered: positive diagonal,
    # one negative eigenvalue, met after a few iterations
    n = 20
    main = np.full(n, 2.0)
    main[-1] = 0.1
    rows = np.r_[np.arange(n), np.arange(n - 1), np.arange(1, n)]
    cols = np.r_[np.arange(n), np.arange(1, n), np.arange(n - 1)]
    a = from_triplets(rows, cols, np.r_[main, -np.ones(2 * (n - 1))], shape=(n, n))
    b = np.linspace(1.0, -1.0, n)
    with pytest.raises(NotSPDError) as expected:
        allocating_cg(a, b)
    with pytest.raises(NotSPDError) as err:
        cg_solve(a, b)
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith("nonpositive curvature")


def test_a_second_solve_leaves_the_first_result_unchanged():
    a = CG_OPERATORS["square-P1-A_ii"]
    rng = np.random.default_rng(13)
    first = cg_solve(a, rng.standard_normal(a.shape[0]))
    kept = first.x.copy()
    second = cg_solve(a, rng.standard_normal(a.shape[0]))
    assert not np.shares_memory(first.x, second.x)
    assert first.x.tobytes() == kept.tobytes()
    assert second.x.tobytes() != kept.tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_the_csr_kernel_is_what_scipy_matmul_runs(index_dtype):
    # cg_solve calls scipy's private CSR matvec kernel; a scipy upgrade that
    # changes it or its arguments fails here before any solve goes wrong
    a = CG_OPERATORS["disk-P2-A_ii"].copy()
    a.indices = a.indices.astype(index_dtype)
    a.indptr = a.indptr.astype(index_dtype)
    n = a.shape[0]
    x = np.random.default_rng(14).standard_normal(n)
    x[::5] = -0.0
    out = np.full(n, np.nan)  # a reused buffer, zeroed the way cg_solve zeroes it
    out.fill(0.0)
    csr_matvec(n, n, a.indptr, a.indices, a.data, x, out)
    expected = a @ x
    assert a.indices.dtype == index_dtype
    assert out.tobytes() == expected.tobytes()

    b = np.random.default_rng(15).standard_normal(n)
    x_ref, iterations, residual = allocating_cg(a, b)
    res = cg_solve(a, b)
    assert (res.x.tobytes(), res.iterations, res.residual) == (x_ref.tobytes(), iterations, residual)


def test_duplicates_that_cancel_to_zero_are_not_stored():
    a = from_triplets([0, 0, 1, 1], [1, 1, 0, 1], [2.5, -2.5, 1.0, 0.0], shape=(2, 2))
    assert a.nnz == 1
    assert np.array_equal(a.column_indices, [0])
    assert np.array_equal(a.indptr, [0, 0, 1])
    assert np.array_equal(a.toarray(), [[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_without_stored_zeros_multiplies_bit_for_bit(degree, monkeypatch):
    # the zeros of the P1 stiffness on the square (and of P2's) are exact
    # cancellations; dropping them changes no product
    triplets = []

    def recording(rows, cols, entries, shape):
        triplets.append((rows, cols, entries, shape))
        return from_triplets(rows, cols, entries, shape)

    monkeypatch.setattr(fem, "from_triplets", recording)
    space = build_space(unit_square_mesh(12), degree)
    k = assemble_stiffness(space)
    rows, cols, entries, shape = triplets[-1]
    keeping = scipy.sparse.coo_matrix(
        (np.ravel(entries), (np.ravel(rows), np.ravel(cols))), shape=shape
    ).tocsr()
    keeping.sort_indices()
    assert keeping.nnz > k.nnz
    assert np.count_nonzero(keeping.data) == k.nnz
    rng = np.random.default_rng(16 + degree)
    for x in (rng.standard_normal(shape[1]), np.where(rng.random(shape[1]) < 0.5, -0.0, 1.0)):
        assert (k @ x).tobytes() == (keeping @ x).tobytes()
        assert matvec(k, x).tobytes() == (keeping @ x).tobytes()


def test_cg_rejects_a_diagonal_entry_summed_to_zero():
    # the zero is not stored, and the diagonal still reads it as 0
    a = from_triplets([0, 0, 1], [0, 0, 1], [1.0, -1.0, 2.0], shape=(2, 2))
    assert a.nnz == 1
    with pytest.raises(NotSPDError, match="nonpositive diagonal entry"):
        cg_solve(a, np.array([1.0, 1.0]))
