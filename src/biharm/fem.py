"""Lagrange finite element spaces on triangle meshes.

Degree 1 and 2 spaces, Gauss quadrature, and vectorized assembly of
stiffness, mass and volume-load forms and of the boundary trace mass.
Stiffness assembly and field gradients run one pass over the rule's points
and never build the (T, n_local, nq, 2) gradient array; triplets are int32.
Triangle rules of order 1-6 are conical products of tabulated Gauss-Jacobi
and Gauss-Legendre factors, with every weight positive; the boundary has
one rule, 3-point Gauss-Legendre, exact to degree 5. Basis tables read a
rule's stored barycentric coordinates.

Sign conventions: the stiffness matrix is the Dirichlet form
``A[i, j] = (grad phi_j, grad phi_i)``; load vectors are plain
``(q, phi_i)`` inner products. Data callables receive numpy coordinate
arrays and must broadcast (constants returned as scalars are fine). The
arrays are read-only: a callable that writes into them raises ValueError.

Meshes, rules and fields hold read-only copies of their arrays
(``mesh._owned``); a space derives its arrays from its mesh and degree, a P1
space sharing the mesh's. All compare by identity. Triangle and boundary
geometry are built once per mesh, from x and y coordinate columns gathered
by index, never (..., 2) rows, and held on it. A space holds the points of
its default volume rule, built once, which the load and the L2 errors read, and
at P2 a cascade's one evaluation of f and the compatibility table, which walks
them as one run of rows in blocks of 2,048 triangles; other rules' points are
formed per block of triangles by the formula of ``quad_points``.
Every datum goes through ``_data_values``; a non-finite one raises
``DataError`` before any assembly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .mesh import Mesh, _cast, _edge_numbering, _integer, _owned
from .sparse import SparseMatrix, from_triplets

__all__ = [
    "DataError",
    "QuadratureRule",
    "triangle_quadrature",
    "FeSpace",
    "build_space",
    "ScalarField",
    "interpolate",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "boundary_mass_matrix",
    "boundary_l2_error",
]

MAX_TRIANGLE_ORDER = 6

# The 1-D Gauss rules on [-1, 1] that the conical product reaches, n = 1..4
# points (n = (order + 2) // 2 and order <= MAX_TRIANGLE_ORDER), as (nodes,
# weights): the exact float64 values of SciPy's roots_jacobi(n, 1, 0) (weight
# 1 - x) and roots_legendre(n). Tabulated so that no process loads SciPy's
# special-function module, 25 modules deep, for eight small rules.
_GAUSS_JACOBI_1_0 = {
    1: ((-0.3333333333333333,), (2.0,)),
    2: ((-0.6898979485566357, 0.2898979485566358), (1.2721655269759087, 0.7278344730240913)),
    3: (
        (-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167),
    ),
    4: (
        (-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234),
    ),
}
_GAUSS_LEGENDRE = {
    1: ((0.0,), (2.0,)),
    2: ((-0.5773502691896257, 0.5773502691896257), (1.0, 1.0)),
    3: (
        (-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555558, 0.8888888888888883, 0.5555555555555558),
    ),
    4: (
        (-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526),
        (0.3478548451374538, 0.6521451548625462, 0.6521451548625462, 0.3478548451374538),
    ),
}


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature points in barycentric coordinates with reference weights.

    Weights sum to the reference measure: 1/2 on the triangle, 1 on the
    unit segment. All weights are positive and all points interior.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _owned(self.points, float))
        object.__setattr__(self, "weights", _owned(self.weights, float))


def triangle_quadrature(order: int) -> QuadratureRule:
    """Rule integrating all bivariate polynomials of total degree <= order
    exactly over the reference triangle (0,0), (1,0), (0,1), for an order in
    1..MAX_TRIANGLE_ORDER. There is one rule object per order, for ``4`` and
    ``np.int64(4)`` alike."""
    return _conical_product(_integer(order, "triangle quadrature order", 1, MAX_TRIANGLE_ORDER))


@lru_cache(maxsize=None)
def _conical_product(order: int) -> QuadratureRule:
    """The conical product of an n-point Gauss-Jacobi rule (weight 1 - x) with
    an n-point Gauss-Legendre rule, n = ceil((order + 1) / 2), both read from
    the tables above. The Legendre factor is SciPy's, not
    ``np.polynomial.legendre.leggauss``: the two libraries solve for the
    roots and normalise the weights by different recipes, and differ in the
    last bit (weights at n = 3, nodes and weights at n = 4), which would move
    every volume integral.
    """
    n = (order + 2) // 2
    xj, wj = map(np.array, _GAUSS_JACOBI_1_0[n])
    xl, wl = map(np.array, _GAUSS_LEGENDRE[n])
    u = (xj + 1.0) / 2.0  # absorbs the (1 - x) area factor
    wu = wj / 4.0
    v = (xl + 1.0) / 2.0
    wv = wl / 2.0
    x = np.repeat(u, n)
    y = np.tile(v, n) * (1.0 - x)
    w = np.repeat(wu, n) * np.tile(wv, n)
    bary = np.column_stack([1.0 - x - y, x, y])
    return QuadratureRule(bary, w)


@lru_cache(maxsize=None)
def default_boundary_rule() -> QuadratureRule:
    """The one boundary rule: 3-point Gauss-Legendre on the unit segment, exact
    for degree <= 5, with points (1 - t, t).

    The points come from ``np.polynomial.legendre.leggauss``, whose bits the
    boundary terms have always used; they differ from the triangle rules'
    Legendre factor, SciPy's, in the last bit.
    """
    t, w = np.polynomial.legendre.leggauss(3)
    t = (t + 1.0) / 2.0
    return QuadratureRule(np.column_stack([1.0 - t, t]), w / 2.0)


def _raise_on_overflow() -> np.errstate:
    """Scope of a diagnostic's arithmetic: an overflow or invalid value raises
    FloatingPointError instead of warning and returning inf or nan. Data are
    evaluated outside it, so a datum that is not finite stays a DataError."""
    return np.errstate(over="raise", invalid="raise")


def _reference_basis(degree: int, rule: QuadratureRule) -> np.ndarray:
    """Basis values at a triangle rule's points, shape (n_local, nq)."""
    l0, l1, l2 = rule.points.T
    if degree == 1:
        return np.stack([l0, l1, l2])
    return np.stack(
        [
            l0 * (2 * l0 - 1),
            l1 * (2 * l1 - 1),
            l2 * (2 * l2 - 1),
            4 * l0 * l1,
            4 * l1 * l2,
            4 * l2 * l0,
        ]
    )


def _reference_gradients(degree: int, rule: QuadratureRule) -> np.ndarray:
    """Basis gradients at a triangle rule's points, shape (n_local, nq, 2); P1
    gradients are constant, so at degree 1 the shape is (3, 1, 2)."""
    l0, l1, l2 = rule.points.T
    d0 = np.array([-1.0, -1.0])
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    if degree == 1:
        return np.stack([d0, d1, d2])[:, None, :]
    out = np.empty((6, len(l0), 2))
    out[0] = (4 * l0 - 1)[:, None] * d0
    out[1] = (4 * l1 - 1)[:, None] * d1
    out[2] = (4 * l2 - 1)[:, None] * d2
    out[3] = 4 * (l0[:, None] * d1 + l1[:, None] * d0)
    out[4] = 4 * (l1[:, None] * d2 + l2[:, None] * d1)
    out[5] = 4 * (l2[:, None] * d0 + l0[:, None] * d2)
    return out


def _segment_basis(degree: int, rule: QuadratureRule) -> np.ndarray:
    """Trace basis on a boundary edge at a segment rule's points, shape (n_local, nq).

    Local order matches ``FeSpace.boundary_edge_positions``: start vertex,
    end vertex, then the midpoint dof for degree 2.
    """
    s, t = rule.points.T
    if degree == 1:
        return np.stack([s, t])
    return np.stack([s * (1.0 - 2.0 * t), t * (2.0 * t - 1.0), 4.0 * t * s])


@dataclass(frozen=True, eq=False)
class FeSpace:
    """Continuous Lagrange space of degree 1 or 2 on a triangle mesh.

    Every field is derived from the mesh and the degree. dof numbering: vertex
    dofs keep vertex indices; degree-2 midpoint dofs follow, ordered by the
    lexicographic enumeration of undirected mesh edges. ``boundary_dofs`` sorts
    the dofs supported on boundary edges, and row k of ``boundary_edge_positions``
    holds the positions in ``boundary_dofs`` of the dofs of boundary edge k in
    trace-basis order, so ``boundary_dofs[boundary_edge_positions]`` is the
    boundary edge dof map. A P1 space shares its mesh's vertices and triangles;
    the other arrays are read-only copies.
    """

    mesh: Mesh
    degree: int
    dof_coordinates: np.ndarray = field(init=False)
    element_dof_map: np.ndarray = field(init=False)
    boundary_dofs: np.ndarray = field(init=False)
    boundary_edge_positions: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "degree", _integer(self.degree, "degree", 1, 2))
        mesh = self.mesh
        if self.degree == 1:
            coords, dof_map, edge_dofs = mesh.vertices, mesh.triangles, mesh.boundary_edges
        else:
            _, nodes, sides, boundary = _edge_numbering(mesh)
            coords, dof_map = _owned(nodes), _owned(np.column_stack([mesh.triangles, sides]))
            edge_dofs = np.column_stack([mesh.boundary_edges, boundary])
        boundary_dofs, inverse = np.unique(edge_dofs, return_inverse=True)
        object.__setattr__(self, "dof_coordinates", coords)
        object.__setattr__(self, "element_dof_map", dof_map)
        object.__setattr__(self, "boundary_dofs", _owned(boundary_dofs))
        object.__setattr__(self, "boundary_edge_positions", _owned(inverse.reshape(edge_dofs.shape)))

    @property
    def dof_count(self) -> int:
        return len(self.dof_coordinates)


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """The Lagrange space of the given degree over the mesh: ``FeSpace(mesh, degree)``."""
    return FeSpace(mesh, degree)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Finite element function: a space plus a read-only copy of its dofs.

    ``solver_iterations`` is diagnostic metadata left by the producing
    linear solve, when there was one.
    """

    space: FeSpace
    coeffs: np.ndarray
    solver_iterations: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _owned(self.coeffs, float))
        if self.coeffs.shape != (self.space.dof_count,):
            raise ValueError("coefficient vector length does not match space")

    def vertex_values(self) -> np.ndarray:
        """Values at mesh vertices (the leading vertex dofs)."""
        return self.coeffs[: self.space.mesh.num_vertices]


def _built_once(owner, key: str, build):
    """``build(owner)``, built on first use and kept in the frozen owner's
    ``__dict__``; the owner's arrays are read-only copies, so it cannot go stale."""
    value = owner.__dict__.get(key)
    if value is None:
        value = build(owner)
        owner.__dict__[key] = value
    return value


class DataError(ValueError):
    """A datum, callable or constant, took a value that is not a real number
    (complex or non-numeric), a non-finite value, or one too large for a float."""


def _data_values(q, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of a callable or constant datum at (x, y), as a float array
    broadcast to the shape of x; raises ``DataError`` on a complex or
    non-numeric value, checked before the float cast so an imaginary part is
    never dropped, on a non-finite value, or on a Python number too large for
    a float."""
    try:
        raw = np.asarray(q(x, y) if callable(q) else q)
        if raw.dtype.kind not in "biuf":  # an object array may hold Python ints beyond int64
            for v in raw.flat:
                if not isinstance(v, numbers.Real):
                    raise DataError(f"datum is not a real number: {v}")
        values = np.broadcast_to(raw.astype(float, copy=False), x.shape)
    except OverflowError as exc:
        raise DataError(f"datum overflows a float: {exc}") from None
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        where = f"({x.flat[k]:.6g}, {y.flat[k]:.6g})"
        raise DataError(f"datum is {values.flat[k]} at (x, y) = {where}")
    return values


def interpolate(space: FeSpace, func) -> ScalarField:
    """Nodal interpolant: evaluate a callable (or constant) at dof coordinates."""
    return ScalarField(space, _data_values(func, *space.dof_coordinates.T))


def triangle_geometry(mesh: Mesh):
    """Affine maps of all triangles: origins, Jacobians, determinants and
    inverse transposes, stacked over triangles; built once per mesh."""
    return _built_once(mesh, "_triangle_geometry", _affine_maps)


def _affine_maps(mesh: Mesh):
    (x0, x1, x2), (y0, y1, y2) = (mesh.vertices[:, k].take(mesh.triangles.T) for k in (0, 1))
    a, b, c, d = x1 - x0, x2 - x0, y1 - y0, y2 - y0  # rows x, y; columns: sides from p0
    jac = _owned(np.stack([a, b, c, d], -1).reshape(-1, 2, 2))
    det = a * d - b * c
    inv_jt = np.stack([np.stack([d, -c], -1), np.stack([-b, a], -1)], 1) / det[:, None, None]
    return _owned(np.column_stack([x0, y0])), jac, _owned(det), _owned(inv_jt)


def quad_points(mesh: Mesh, rule: QuadratureRule):
    """Physical coordinates of the rule's points on every triangle: a pair of
    C-contiguous (T, nq) arrays x, y."""
    origin, jac, _, _ = triangle_geometry(mesh)
    return tuple(p.T.copy() for p in _mapped_points(origin, jac, rule))


def _mapped_points(origin, jac, rule: QuadratureRule):
    """x and y = ``origin + (J[:, a, 0] r0 + J[:, a, 1] r1)`` of the rule's points,
    formed (nq, T) from contiguous 1-D columns so each broadcast runs a T-long
    inner loop; the caller copies them into the (T, nq) layout."""
    r0, r1 = rule.points[:, 1, None], rule.points[:, 2, None]
    return [origin[:, a].copy() + (jac[:, a, 0].copy() * r0 + jac[:, a, 1].copy() * r1) for a in (0, 1)]


def _volume_points(space: FeSpace):
    """``quad_points`` of the space's default volume rule, built once per space and
    held read-only (``mesh._owned``), so the load, the L2 errors and, at P2, a
    cascade's one evaluation of f and the compatibility table read one set."""
    rule = default_volume_rule(space.degree)
    return _built_once(space, "_volume_points", lambda s: tuple(map(_owned, quad_points(s.mesh, rule))))


def _held_points(space: FeSpace, rule: QuadratureRule):
    """``_volume_points(space)`` if the space holds ``rule``'s points, else None."""
    return _volume_points(space) if rule is default_volume_rule(space.degree) else None


def _point_blocks(space: FeSpace, rule: QuadratureRule, size: int):
    """Read-only ``(rows, x, y)`` in element order, x and y the rows ``rows`` of
    ``quad_points(space.mesh, rule)`` bit for bit: the held points themselves as one
    run of all rows (``_held_points``), else blocks of ``size`` triangles formed by
    ``quad_points``' formula, frozen by ``mesh._owned`` (their one copy)."""
    held = _held_points(space, rule)
    if held is not None:
        yield slice(0, len(held[0])), *held
        return
    origin, jac, _, _ = triangle_geometry(space.mesh)
    for start in range(0, len(origin), size):
        block = slice(start, start + size)
        yield block, *(_owned(p.T) for p in _mapped_points(origin[block], jac[block], rule))


def integrate(mesh: Mesh, rule: QuadratureRule, values: np.ndarray) -> float:
    """Integrate per-point values (T, nq) over the mesh with the given rule.

    Two passes, neither a BLAS call, so the bits do not depend on the BLAS
    thread count: each triangle's rule sum over its points, then numpy's
    pairwise sum over triangles of determinant times rule sum."""
    _, _, det, _ = triangle_geometry(mesh)
    return float(_element_sum(det, np.einsum("tq,q->t", values, rule.weights)))


def _element_sum(sizes: np.ndarray, rule_sums: np.ndarray) -> np.ndarray:
    """The second pass of every integral: numpy's pairwise sum along the last axis of
    element size (determinant or edge length) times rule sum, scaled in place."""
    return np.multiply(rule_sums, sizes, out=rule_sums).sum(axis=-1)


def field_values(fe_field: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """Field values at the rule's points on every triangle, shape (T, nq)."""
    return _field_rows(fe_field, rule, slice(None))


def _field_rows(fe_field: ScalarField, rule: QuadratureRule, rows: slice) -> np.ndarray:
    """The rows ``rows`` of ``field_values(fe_field, rule)``, bit for bit."""
    space = fe_field.space
    basis = _reference_basis(space.degree, rule)
    return np.einsum("tl,lq->tq", fe_field.coeffs[space.element_dof_map[rows]], basis)


def field_gradients(fe_field: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """Field gradients at the rule's points on every triangle, shape (T, nq, 2).
    At each point the basis gradients come from ``_point_gradients`` and each
    component sums coefficient times gradient over the local basis, from zero,
    in basis order: the sum an einsum over the basis axis forms."""
    space = fe_field.space
    gref = _reference_gradients(space.degree, rule)
    _, _, _, inv_jt = triangle_geometry(space.mesh)
    coeffs = fe_field.coeffs[space.element_dof_map.T]  # (n_local, T)
    sums, term = np.zeros((gref.shape[1], 2, len(inv_jt))), np.empty(len(inv_jt))
    for q, g in enumerate(_point_gradients(gref, inv_jt, gref.shape[1])):
        for a in (0, 1):
            for c, gl in zip(coeffs, g[a]):
                sums[q, a] += np.multiply(c, gl, out=term)
    # a P1 field has one gradient per triangle, broadcast over the points
    return np.broadcast_to(sums.transpose(2, 0, 1), (len(inv_jt), len(rule.weights), 2)).copy()


def _point_gradients(gref, inv_jt, n_points: int):
    """For each of ``n_points`` rule points, every triangle's basis gradients
    g (2, n_local, T): the inverse-transposed Jacobian times the reference
    gradients ``gref`` (n_local, nq, 2). Each is formed into one reused buffer,
    so a step must read it before the next. P1 gradients are constant: they are
    formed at the first point only."""
    n_local, n_tri = len(gref), len(inv_jt)
    jt = [[inv_jt[:, a, b].copy() for b in (0, 1)] for a in (0, 1)]  # contiguous columns
    g, term = np.empty((2, n_local, n_tri)), np.empty((n_local, n_tri))
    for q in range(n_points):
        if q < gref.shape[1]:
            for a in (0, 1):
                np.multiply(jt[a][0], gref[:, q, 0, None], out=g[a])
                g[a] += np.multiply(jt[a][1], gref[:, q, 1, None], out=term)
        yield g


def default_volume_rule(degree: int) -> QuadratureRule:
    """Volume rule used for loads and error norms: order 2*degree + 2."""
    return triangle_quadrature(2 * degree + 2)


def assemble_stiffness(space: FeSpace) -> SparseMatrix:
    """Assemble A[i, j] = integral of grad phi_j . grad phi_i.

    One pass over the rule's points: at each, every triangle's gradients g
    are formed into reused (2, n_local, T) buffers and ``(g_l * g_m) * w``
    is added into an accumulator, x component then y, the order in which an
    einsum over the points sums it. Only the pairs l <= m are formed and
    each local block mirrors them, so the result is exactly symmetric.
    """
    rule = default_volume_rule(space.degree)
    _, _, det, inv_jt = triangle_geometry(space.mesh)
    local = _local_stiffness(_reference_gradients(space.degree, rule), rule.weights, det, inv_jt)
    return _scatter(space.element_dof_map, local, space.dof_count)


def _local_stiffness(gref, weights, det, inv_jt) -> np.ndarray:
    """Local stiffness blocks (T, n_local, n_local). The loop over points
    allocates nothing: every step writes into a buffer made before it."""
    n_local, n_tri = len(gref), len(det)
    first, second = np.triu_indices(n_local)  # the pairs l <= m, row by row
    starts = np.searchsorted(first, np.arange(n_local + 1))
    products, acc = np.empty((len(first), n_tri)), np.zeros((len(first), n_tri))
    for g, w in zip(_point_gradients(gref, inv_jt, len(weights)), weights):
        for ga in g:
            for l in range(n_local):
                np.multiply(ga[l], ga[l:], out=products[starts[l] : starts[l + 1]])
            products *= w
            acc += products
    acc *= det
    local = np.empty((n_tri, n_local, n_local))
    local[:, first, second] = local[:, second, first] = acc.T
    return local


def assemble_mass(space: FeSpace) -> SparseMatrix:
    """Assemble M[i, j] = integral of phi_j phi_i."""
    rule = default_volume_rule(space.degree)
    basis = _reference_basis(space.degree, rule)
    _, _, det, _ = triangle_geometry(space.mesh)
    return _mass(basis, rule.weights, det, space.element_dof_map, space.dof_count)


def _mass(basis, weights, sizes, dof_map, n: int) -> SparseMatrix:
    """The reference mass matrix of ``basis`` (n_local, nq) on a rule of the
    given weights, scaled by each element's size (Jacobian determinant or edge
    length) and summed into an n x n matrix at ``dof_map``."""
    ref_local = np.einsum("lq,mq,q->lm", basis, basis, weights)
    return _scatter(dof_map, sizes[:, None, None] * ref_local[None, :, :], n)


def _scatter(dof_map: np.ndarray, local: np.ndarray, n: int) -> SparseMatrix:
    """Sum each local matrix ``local[k]`` into an n x n matrix at ``dof_map[k]``."""
    n_local = dof_map.shape[1]
    if n < 2**31:  # int32 triplets, the index type the matrix stores
        dof_map = dof_map.astype(np.int32)
    rows = np.repeat(dof_map, n_local, axis=1).ravel()
    cols = np.tile(dof_map, (1, n_local)).ravel()
    return from_triplets(rows, cols, local.ravel(), shape=(n, n))


def assemble_load(space: FeSpace, q) -> np.ndarray:
    """Assemble the load vector b[i] = integral of q phi_i for callable q."""
    rule = default_volume_rule(space.degree)
    basis = _reference_basis(space.degree, rule)
    _, _, det, _ = triangle_geometry(space.mesh)
    vals = _data_values(q, *_volume_points(space))
    local = np.einsum("lq,tq,q->tl", basis, vals, rule.weights) * det[:, None]
    return np.bincount(space.element_dof_map.ravel(), local.ravel(), space.dof_count)


def boundary_geometry(mesh: Mesh):
    """Quadrature geometry of every boundary edge on the default boundary rule:
    physical coordinates x, y (B, nq), edge lengths (B,) and outward unit
    normals (B, 2); built once per mesh. Normals are the CCW tangent rotated
    by -90 degrees, which points out of the domain."""
    return _built_once(mesh, "_boundary_geometry", _boundary_maps)


def _boundary_maps(mesh: Mesh):
    (xa, xb), (ya, yb) = (mesh.vertices[:, k].take(mesh.boundary_edges.T) for k in (0, 1))
    tx, ty = xb - xa, yb - ya
    lengths = np.sqrt(tx * tx + ty * ty)
    normals = np.column_stack([ty / lengths, -tx / lengths])
    t = default_boundary_rule().points[:, 1]
    x = xa[:, None] + t[None, :] * tx[:, None]
    y = ya[:, None] + t[None, :] * ty[:, None]
    return tuple(map(_owned, (x, y, lengths, normals)))


def boundary_integrate(mesh: Mesh, values: np.ndarray) -> float:
    """Integrate per-point values (B, nq) over the boundary on the default
    boundary rule, summed as ``integrate`` sums: each edge's rule sum, then
    numpy's pairwise sum over edges of length times rule sum; no BLAS call."""
    _, _, lengths, _ = boundary_geometry(mesh)
    return float(_element_sum(lengths, np.einsum("eq,q->e", values, default_boundary_rule().weights)))


def boundary_mass_matrix(space: FeSpace) -> SparseMatrix:
    """Mass matrix of the boundary trace space, indexed by the position of
    each dof inside the sorted ``space.boundary_dofs`` array."""
    rule = default_boundary_rule()
    tr = _segment_basis(space.degree, rule)
    _, _, lengths, _ = boundary_geometry(space.mesh)
    n = len(space.boundary_dofs)
    return _mass(tr, rule.weights, lengths, space.boundary_edge_positions, n)


def boundary_l2_error(space: FeSpace, boundary_coeffs: np.ndarray, func=None) -> float:
    """L2 norm over the boundary of (trace-space function - func).

    ``boundary_coeffs`` is indexed like ``space.boundary_dofs``; ``func``
    may be a callable, a constant, or None for the plain norm. A norm beyond
    float range raises FloatingPointError.
    """
    coeffs = _cast(boundary_coeffs, float)
    if coeffs.shape != space.boundary_dofs.shape:
        raise ValueError("coefficient vector length does not match the boundary dofs")
    x, y, _, _ = boundary_geometry(space.mesh)
    target = None if func is None else _data_values(func, x, y)
    tr = _segment_basis(space.degree, default_boundary_rule())
    with _raise_on_overflow():
        vals = np.einsum("el,lq->eq", coeffs[space.boundary_edge_positions], tr)
        if target is not None:
            vals = vals - target
        return float(np.sqrt(boundary_integrate(space.mesh, vals**2)))
