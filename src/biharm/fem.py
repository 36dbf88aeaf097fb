"""Lagrange finite element spaces on triangle meshes.

Degree 1 and 2 spaces, Gauss quadrature on triangles and boundary
segments, and vectorized assembly of stiffness, mass, volume-load and
boundary-load forms. Triangle rules come from a conical product of
Gauss-Jacobi and Gauss-Legendre points, which keeps every weight positive
and is exact to machine precision for all supported polynomial orders.

Sign conventions: the stiffness matrix is the Dirichlet form
``A[i, j] = (grad phi_j, grad phi_i)``; load vectors are plain
``(q, phi_i)`` inner products. Data callables receive numpy coordinate
arrays and must broadcast (constants returned as scalars are fine).

Triangle geometry is built once per mesh and kept on the immutable mesh
as read-only arrays; every datum, callable or constant, goes through one
evaluator, ``_data_values``, which raises ``DataError`` on a non-finite
value before the value reaches any assembly or solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .mesh import Mesh, _edge_numbering
from .sparse import SparseMatrix, from_triplets

__all__ = [
    "DataError",
    "QuadratureRule",
    "triangle_quadrature",
    "segment_quadrature",
    "FeSpace",
    "build_space",
    "ScalarField",
    "interpolate",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_load",
    "assemble_boundary_load",
    "boundary_mass_matrix",
    "boundary_l2_error",
]

MAX_TRIANGLE_ORDER = 6
MAX_SEGMENT_ORDER = 11


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points in barycentric coordinates with reference weights.

    Weights sum to the reference measure: 1/2 on the triangle, 1 on the
    unit segment. All weights are positive and all points interior.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        p.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)


@lru_cache(maxsize=None)
def triangle_quadrature(order: int) -> QuadratureRule:
    """Rule integrating all bivariate polynomials of total degree <= order
    exactly over the reference triangle (0,0), (1,0), (0,1).

    Built as the conical product of an n-point Gauss-Jacobi rule (weight
    1 - x) with an n-point Gauss-Legendre rule, n = ceil((order + 1) / 2).
    """
    if not 1 <= order <= MAX_TRIANGLE_ORDER:
        raise ValueError(f"triangle quadrature order must be in 1..{MAX_TRIANGLE_ORDER}")
    n = (order + 2) // 2
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    xl, wl = roots_legendre(n)
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
def segment_quadrature(order: int) -> QuadratureRule:
    """Gauss-Legendre rule on the unit segment, exact for degree <= order."""
    if not 1 <= order <= MAX_SEGMENT_ORDER:
        raise ValueError(f"segment quadrature order must be in 1..{MAX_SEGMENT_ORDER}")
    n = (order + 2) // 2
    t, w = np.polynomial.legendre.leggauss(n)
    t = (t + 1.0) / 2.0
    w = w / 2.0
    bary = np.column_stack([1.0 - t, t])
    return QuadratureRule(bary, w)


def _reference_basis(degree: int, pts: np.ndarray) -> np.ndarray:
    """Basis values at reference points, shape (n_local, nq)."""
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
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


def _reference_gradients(degree: int, pts: np.ndarray) -> np.ndarray:
    """Basis gradients at reference points, shape (n_local, nq, 2)."""
    nq = pts.shape[0]
    x, y = pts[:, 0], pts[:, 1]
    l0, l1, l2 = 1.0 - x - y, x, y
    d0 = np.array([-1.0, -1.0])
    d1 = np.array([1.0, 0.0])
    d2 = np.array([0.0, 1.0])
    if degree == 1:
        return np.broadcast_to(np.stack([d0, d1, d2])[:, None, :], (3, nq, 2)).copy()
    out = np.empty((6, nq, 2))
    out[0] = (4 * l0 - 1)[:, None] * d0
    out[1] = (4 * l1 - 1)[:, None] * d1
    out[2] = (4 * l2 - 1)[:, None] * d2
    out[3] = 4 * (l0[:, None] * d1 + l1[:, None] * d0)
    out[4] = 4 * (l1[:, None] * d2 + l2[:, None] * d1)
    out[5] = 4 * (l2[:, None] * d0 + l0[:, None] * d2)
    return out


def _segment_basis(degree: int, t: np.ndarray) -> np.ndarray:
    """Trace basis on a boundary edge at parameters t, shape (n_local, nq).

    Local order matches the boundary edge dof map: start vertex, end
    vertex, then the midpoint dof for degree 2.
    """
    if degree == 1:
        return np.stack([1.0 - t, t])
    return np.stack([(1.0 - t) * (1.0 - 2.0 * t), t * (2.0 * t - 1.0), 4.0 * t * (1.0 - t)])


@dataclass(frozen=True)
class FeSpace:
    """Continuous Lagrange space of degree 1 or 2 on a triangle mesh.

    dof numbering: vertex dofs keep vertex indices; degree-2 midpoint dofs
    follow, ordered by the lexicographic enumeration of undirected mesh
    edges. ``boundary_edge_dof_map`` row k lists the dofs supported on
    boundary edge k in trace-basis order; ``boundary_dofs`` sorts their union.
    """

    mesh: Mesh
    degree: int
    dof_count: int
    dof_coordinates: np.ndarray
    element_dof_map: np.ndarray
    boundary_dofs: np.ndarray
    boundary_edge_dof_map: np.ndarray

    def __post_init__(self):
        for arr in (
            self.dof_coordinates,
            self.element_dof_map,
            self.boundary_dofs,
            self.boundary_edge_dof_map,
        ):
            np.asarray(arr).flags.writeable = False

    def boundary_positions(self, dofs: np.ndarray) -> np.ndarray:
        """Positions of the given boundary dofs (any shape) in the sorted boundary set."""
        pos = np.searchsorted(self.boundary_dofs, dofs)
        # a dof above the largest boundary dof lands one past the end
        if not np.array_equal(self.boundary_dofs.take(pos, mode="clip"), dofs):
            raise ValueError("dof is not a boundary dof")
        return pos


def build_space(mesh: Mesh, degree: int) -> FeSpace:
    """Construct the Lagrange space of the given degree over the mesh."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")

    nv = mesh.num_vertices
    tris = mesh.triangles
    if degree == 1:
        dof_coords = mesh.vertices.copy()
        element_dofs = tris.copy()
        bedge_dofs = mesh.boundary_edges[:, :2].copy()
    else:
        edges, sides, boundary = _edge_numbering(mesh)
        element_dofs = np.column_stack([tris, nv + sides])
        midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        dof_coords = np.vstack([mesh.vertices, midpoints])
        bedge_dofs = np.column_stack([mesh.boundary_edges[:, :2], nv + boundary])

    space = FeSpace(
        mesh=mesh,
        degree=degree,
        dof_count=len(dof_coords),
        dof_coordinates=dof_coords,
        element_dof_map=element_dofs,
        boundary_dofs=np.unique(bedge_dofs),
        boundary_edge_dof_map=bedge_dofs,
    )
    assert len(np.unique(element_dofs)) == space.dof_count, "unreferenced dof"
    return space


@dataclass(frozen=True)
class ScalarField:
    """Finite element function: a space plus its dof coefficient vector.

    ``solver_iterations`` is diagnostic metadata left by the producing
    linear solve, when there was one; it does not affect equality.
    """

    space: FeSpace
    coeffs: np.ndarray
    solver_iterations: int | None = field(default=None, compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.space.dof_count,):
            raise ValueError("coefficient vector length does not match space")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def vertex_values(self) -> np.ndarray:
        """Values at mesh vertices (the leading vertex dofs)."""
        return self.coeffs[: self.space.mesh.num_vertices]


def _built_once(owner, key: str, build):
    """``build(owner)``, built on first use and kept in the frozen owner's
    ``__dict__``; the owner's arrays are read-only, so it cannot go stale."""
    value = owner.__dict__.get(key)
    if value is None:
        value = build(owner)
        owner.__dict__[key] = value
    return value


class DataError(ValueError):
    """A datum, callable or constant, took a non-finite value."""


def _data_values(q, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values of a callable or constant datum at (x, y), as a float array
    broadcast to the shape of x; raises ``DataError`` on a non-finite value."""
    values = np.broadcast_to(np.asarray(q(x, y) if callable(q) else q, dtype=float), x.shape)
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
    p = mesh.vertices[mesh.triangles]
    a = p[:, 1, 0] - p[:, 0, 0]
    b = p[:, 2, 0] - p[:, 0, 0]
    c = p[:, 1, 1] - p[:, 0, 1]
    d = p[:, 2, 1] - p[:, 0, 1]
    det = a * d - b * c
    inv_jt = np.empty((len(p), 2, 2))
    inv_jt[:, 0, 0] = d
    inv_jt[:, 0, 1] = -c
    inv_jt[:, 1, 0] = -b
    inv_jt[:, 1, 1] = a
    inv_jt /= det[:, None, None]
    maps = (p[:, 0].copy(), np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], 1), det, inv_jt)
    for arr in maps:
        arr.flags.writeable = False
    return maps


def quad_points(mesh: Mesh, rule: QuadratureRule):
    """Physical coordinates of the rule's points on every triangle: a pair of
    C-contiguous (T, nq) arrays x, y."""
    origin, jac, _, _ = triangle_geometry(mesh)
    r0, r1 = rule.points[:, 1], rule.points[:, 2]
    return tuple(
        origin[:, a, None] + (jac[:, a, 0, None] * r0 + jac[:, a, 1, None] * r1) for a in (0, 1)
    )


def integrate(mesh: Mesh, rule: QuadratureRule, values: np.ndarray) -> float:
    """Integrate per-point values (T, nq) over the mesh with the given rule."""
    _, _, det, _ = triangle_geometry(mesh)
    return float(np.einsum("tq,q,t->", values, rule.weights, det))


def field_values(fe_field: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """Field values at the rule's points on every triangle, shape (T, nq)."""
    space = fe_field.space
    basis = _reference_basis(space.degree, rule.points[:, 1:])
    return np.einsum("tl,lq->tq", fe_field.coeffs[space.element_dof_map], basis)


def field_gradients(fe_field: ScalarField, rule: QuadratureRule) -> np.ndarray:
    """Field gradients at the rule's points on every triangle, shape (T, nq, 2)."""
    space = fe_field.space
    _, _, _, inv_jt = triangle_geometry(space.mesh)
    gphys = _physical_gradients(space.degree, rule, inv_jt)
    return np.einsum("tl,tlqa->tqa", fe_field.coeffs[space.element_dof_map], gphys)


def _physical_gradients(degree: int, rule: QuadratureRule, inv_jt: np.ndarray) -> np.ndarray:
    """Basis gradients at the rule's points on every triangle, shape (T, n_local, nq, 2):
    the inverse-transposed Jacobian times each reference gradient, as two broadcast
    products summed in the order an einsum over the shared axis sums them."""
    gref = _reference_gradients(degree, rule.points[:, 1:])
    inv = inv_jt[:, None, None]
    return inv[..., 0] * gref[None, :, :, None, 0] + inv[..., 1] * gref[None, :, :, None, 1]


def default_volume_rule(degree: int) -> QuadratureRule:
    """Volume rule used for loads and error norms: order 2*degree + 2."""
    return triangle_quadrature(2 * degree + 2)


DEFAULT_BOUNDARY_ORDER = 5


def default_boundary_rule() -> QuadratureRule:
    return segment_quadrature(DEFAULT_BOUNDARY_ORDER)


def assemble_stiffness(space: FeSpace) -> SparseMatrix:
    """Assemble A[i, j] = integral of grad phi_j . grad phi_i.

    The result is exactly symmetric: local blocks are symmetrized before
    the triplets are summed.
    """
    rule = default_volume_rule(space.degree)
    _, _, det, inv_jt = triangle_geometry(space.mesh)
    gphys = _physical_gradients(space.degree, rule, inv_jt)
    local = np.einsum("tlqa,tmqa,q->tlm", gphys, gphys, rule.weights)
    local *= det[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _scatter(space.element_dof_map, local, space.dof_count)


def assemble_mass(space: FeSpace) -> SparseMatrix:
    """Assemble M[i, j] = integral of phi_j phi_i."""
    rule = default_volume_rule(space.degree)
    basis = _reference_basis(space.degree, rule.points[:, 1:])
    _, _, det, _ = triangle_geometry(space.mesh)
    ref_local = np.einsum("lq,mq,q->lm", basis, basis, rule.weights)
    local = det[:, None, None] * ref_local[None, :, :]
    return _scatter(space.element_dof_map, local, space.dof_count)


def _scatter(dof_map: np.ndarray, local: np.ndarray, n: int) -> SparseMatrix:
    """Sum each local matrix ``local[k]`` into an n x n matrix at ``dof_map[k]``."""
    n_local = dof_map.shape[1]
    rows = np.repeat(dof_map, n_local, axis=1).ravel()
    cols = np.tile(dof_map, (1, n_local)).ravel()
    return from_triplets(rows, cols, local.ravel(), shape=(n, n))


def assemble_load(space: FeSpace, q) -> np.ndarray:
    """Assemble the load vector b[i] = integral of q phi_i for callable q."""
    rule = default_volume_rule(space.degree)
    basis = _reference_basis(space.degree, rule.points[:, 1:])
    _, _, det, _ = triangle_geometry(space.mesh)
    x, y = quad_points(space.mesh, rule)
    vals = _data_values(q, x, y)
    local = np.einsum("lq,tq,q->tl", basis, vals, rule.weights) * det[:, None]
    b = np.zeros(space.dof_count)
    np.add.at(b, space.element_dof_map, local)
    return b


def boundary_geometry(mesh: Mesh, rule: QuadratureRule, markers=None):
    """Per-boundary-edge quadrature geometry.

    Returns (edge_ids, x, y, lengths, normals): selected boundary edge
    indices, physical quadrature coordinates (B, nq), edge lengths (B,)
    and outward unit normals (B, 2). Normals are the CCW tangent rotated
    by -90 degrees, which points out of the domain.
    """
    edges = mesh.boundary_edges
    ids = np.arange(len(edges))
    if markers is not None:
        marker_set = {markers} if np.isscalar(markers) else set(int(m) for m in markers)
        ids = ids[np.isin(edges[:, 2], list(marker_set))]
    sel = edges[ids]
    pa = mesh.vertices[sel[:, 0]]
    pb = mesh.vertices[sel[:, 1]]
    tangent = pb - pa
    lengths = np.linalg.norm(tangent, axis=1)
    normals = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]
    t = rule.points[:, 1]
    x = pa[:, 0, None] + t[None, :] * tangent[:, 0, None]
    y = pa[:, 1, None] + t[None, :] * tangent[:, 1, None]
    return ids, x, y, lengths, normals


def assemble_boundary_load(space: FeSpace, mu, markers=None) -> np.ndarray:
    """Assemble b[i] = boundary integral of mu phi_i over the marked sides.

    ``markers`` selects boundary side labels (scalar or iterable); None
    means the whole boundary.
    """
    rule = default_boundary_rule()
    ids, x, y, lengths, _ = boundary_geometry(space.mesh, rule, markers)
    b = np.zeros(space.dof_count)
    if len(ids) == 0:
        return b
    vals = _data_values(mu, x, y)
    tr = _segment_basis(space.degree, rule.points[:, 1])
    local = np.einsum("lq,eq,q->el", tr, vals, rule.weights) * lengths[:, None]
    np.add.at(b, space.boundary_edge_dof_map[ids], local)
    return b


def boundary_mass_matrix(space: FeSpace) -> SparseMatrix:
    """Mass matrix of the boundary trace space, indexed by the position of
    each dof inside the sorted ``space.boundary_dofs`` array."""
    rule = default_boundary_rule()
    tr = _segment_basis(space.degree, rule.points[:, 1])
    ref_local = np.einsum("lq,mq,q->lm", tr, tr, rule.weights)
    _, _, _, lengths, _ = boundary_geometry(space.mesh, rule)
    local = lengths[:, None, None] * ref_local[None, :, :]
    positions = space.boundary_positions(space.boundary_edge_dof_map)
    return _scatter(positions, local, len(space.boundary_dofs))


def boundary_l2_error(space: FeSpace, boundary_coeffs: np.ndarray, func=None) -> float:
    """L2 norm over the boundary of (trace-space function - func).

    ``boundary_coeffs`` is indexed like ``space.boundary_dofs``; ``func``
    may be a callable, a constant, or None for the plain norm.
    """
    rule = default_boundary_rule()
    _, x, y, lengths, _ = boundary_geometry(space.mesh, rule)
    tr = _segment_basis(space.degree, rule.points[:, 1])
    positions = space.boundary_positions(space.boundary_edge_dof_map)
    vals = np.einsum("el,lq->eq", boundary_coeffs[positions], tr)
    if func is not None:
        vals = vals - _data_values(func, x, y)
    sq = np.einsum("eq,q,e->", vals**2, rule.weights, lengths)
    return float(np.sqrt(sq))
