"""Triangle meshes of the unit square and of a polygonal unit disk.

Meshes are immutable: vertex coordinates, counterclockwise triangles and
oriented boundary edges (domain on the left, so the outward normal is the
tangent rotated by -90 degrees). Every constructor and the text-format
reader validate the full invariant set: positive triangle areas, area sum
equal to the shoelace area of the boundary loop, interior edges shared by
exactly two triangles and boundary edges by exactly one, a single closed
boundary loop, and the Euler relation V - E + F = 1.

Construction, refinement and validation are array operations. Every edge
is named by one integer key, lo * V + hi for its sorted endpoint indices;
ascending keys list the edges in lexicographic (lo, hi) order, which is the
order that numbers refinement midpoints and degree-2 dofs.
"""

from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import IO, TextIO

import numpy as np

__all__ = [
    "DomainTag",
    "Mesh",
    "MeshValidationError",
    "MeshFormatError",
    "unit_square_mesh",
    "unit_disk_mesh",
    "refine_uniform",
    "write_mesh",
    "read_mesh",
]

AREA_RTOL = 1e-12

# Text format magic line; version suffix guards future layout changes.
FORMAT_MAGIC = "biharm-mesh v1"


class DomainTag(enum.Enum):
    UNIT_SQUARE = "unit_square"
    UNIT_DISK_POLYGON = "unit_disk_polygon"


class MeshValidationError(ValueError):
    """A mesh invariant does not hold; ``triangle`` indexes the one at fault, if any."""

    def __init__(self, message: str, triangle: int | None = None):
        self.triangle = triangle
        super().__init__(message)


class MeshFormatError(ValueError):
    """Mesh file is malformed; carries the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with oriented boundary.

    Parameters
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, each row counterclockwise
    boundary_edges : (B, 3) int array of (start, end, marker), oriented so
        the domain lies on the left
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        b = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 2:
            raise MeshValidationError("vertices must be a (V, 2) array")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshValidationError("triangles must be a (T, 3) array")
        if b.ndim != 2 or b.shape[1] != 3:
            raise MeshValidationError("boundary_edges must be a (B, 3) array")
        for arr in (v, t, b):
            arr.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "boundary_edges", b)
        self.validate()

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    @property
    def domain_tag(self) -> DomainTag:
        """UNIT_SQUARE when every vertex lies in [0,1]^2 (to 1e-12) and the areas sum
        to 1 (to AREA_RTOL); any other domain, disk or not, is UNIT_DISK_POLYGON."""
        v = self.vertices
        in_square = v.min() >= -1e-12 and v.max() <= 1 + 1e-12
        if in_square and abs(self.area() - 1.0) <= AREA_RTOL:
            return DomainTag.UNIT_SQUARE
        return DomainTag.UNIT_DISK_POLYGON

    def signed_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(self.signed_areas().sum())

    def undirected_edges(self) -> np.ndarray:
        """Distinct undirected edges as sorted (lo, hi) pairs, lexicographic."""
        return _edge_numbering(self)[0]

    def boundary_loop(self) -> np.ndarray:
        """Boundary vertices in traversal order; raises unless one closed loop."""
        edges = self.boundary_edges
        succ = {int(a): int(b) for a, b, _ in edges}
        if len(succ) != len(edges):
            raise MeshValidationError("boundary vertex repeats as an edge start")
        start = int(edges[0, 0])
        loop = [start]
        cur = succ[start]
        while cur != start:
            loop.append(cur)
            if cur not in succ:
                raise MeshValidationError("boundary walk left the edge set")
            cur = succ[cur]
            if len(loop) > len(edges):
                raise MeshValidationError("boundary walk does not close")
        if len(loop) != len(edges):
            raise MeshValidationError("boundary edges form more than one loop")
        return np.array(loop, dtype=np.int64)

    def validate(self) -> None:
        """Check all mesh invariants; raise MeshValidationError on the first failure."""
        v, t, b = self.vertices, self.triangles, self.boundary_edges
        if not np.isfinite(v).all():
            raise MeshValidationError("non-finite vertex coordinate")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshValidationError("triangle vertex index out of range")
        if b.size and (b[:, :2].min() < 0 or b[:, :2].max() >= len(v)):
            raise MeshValidationError("boundary edge vertex index out of range")
        if len(t) == 0:
            raise MeshValidationError("mesh has no triangles")

        with np.errstate(over="ignore", invalid="ignore"):  # huge coordinates: refused below
            areas = self.signed_areas()
        if not np.isfinite(areas).all():
            bad = int(np.argmin(np.isfinite(areas)))
            raise MeshValidationError(f"triangle {bad} has an area beyond float range", triangle=bad)
        if not (areas > 0).all():
            bad = int(np.argmin(areas))
            raise MeshValidationError(
                f"triangle {bad} is not counterclockwise (signed area {areas[bad]:.3e})",
                triangle=bad,
            )

        # Edge incidence: directed edges of CCW triangles. No directed edge repeats, so an
        # undirected edge is seen once (boundary) or twice, in opposite directions (interior).
        nv = len(v)
        heads = np.roll(t, -1, axis=1)
        directed = np.sort(_edge_key(t, heads, nv), axis=None)
        if (directed[1:] == directed[:-1]).any():
            raise MeshValidationError("duplicated directed edge (overlapping triangles)")
        und_unique, counts = np.unique(
            _edge_key(np.minimum(t, heads), np.maximum(t, heads), nv), return_counts=True
        )
        lo, hi = np.sort(b[:, :2], axis=1).T
        if not np.array_equal(np.unique(_edge_key(lo, hi, nv)), und_unique[counts == 1]):
            raise MeshValidationError(
                "boundary_edges do not match the triangulation's once-seen edges"
            )
        listed = _edge_key(b[:, 0], b[:, 1], nv)
        found = directed[np.searchsorted(directed, listed).clip(max=len(directed) - 1)] == listed
        if not found.all():
            a, bb = b[np.argmin(found), :2]
            raise MeshValidationError(
                f"boundary edge ({a}, {bb}) disagrees with triangle orientation"
            )

        loop = self.boundary_loop()

        # Area consistency: triangle areas against the shoelace of the loop.
        pts = v[loop]
        nxt = np.roll(pts, -1, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan sum mismatches
            loop_area = 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]))
            total = float(areas.sum())
        if not abs(total - loop_area) <= AREA_RTOL * max(abs(loop_area), 1.0) < np.inf:
            raise MeshValidationError(
                f"triangle area sum {total!r} mismatches boundary loop area {loop_area!r}"
            )

        euler = len(v) - len(und_unique) + len(t)
        if euler != 1:
            raise MeshValidationError(f"Euler relation violated: V - E + F = {euler}")


def _edge_key(a, b, nv: int):
    """Integer key a * nv + b of the edge from vertex a to vertex b.

    With a <= b it names the undirected edge; ascending keys then list the
    edges in lexicographic (a, b) order and divmod(key, nv) gives (a, b).
    """
    return a * nv + b


def _edge_numbering(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Number the undirected edges in lexicographic (lo, hi) order.

    Returns the (E, 2) sorted pairs, the (T, 3) numbers of each triangle's
    sides v0v1, v1v2, v2v0, and the number of each boundary edge. Refinement
    midpoints and degree-2 dofs are appended in this order.
    """
    nv = mesh.num_vertices
    t = mesh.triangles
    heads = np.roll(t, -1, axis=1)
    keys, inverse = np.unique(
        _edge_key(np.minimum(t, heads), np.maximum(t, heads), nv), return_inverse=True
    )
    lo, hi = np.sort(mesh.boundary_edges[:, :2], axis=1).T
    boundary = np.searchsorted(keys, _edge_key(lo, hi, nv))
    return np.column_stack(np.divmod(keys, nv)), inverse.reshape(t.shape), boundary


def unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with n cells per side.

    Each grid cell is split along its bottom-left to top-right diagonal,
    giving (n+1)^2 vertices and 2 n^2 triangles. Boundary markers: 0 on
    y=0, 1 on x=1, 2 on y=1, 3 on x=0, with the loop oriented
    counterclockwise.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    g = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(g, g)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cell (i, j) has lower-left vertex j * (n + 1) + i; cells row by row
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    # loop starts: bottom left to right, right bottom to top, top right to
    # left, left top to bottom
    k = np.arange(n)
    loop = np.concatenate([k, k * (n + 1) + n, n * (n + 1) + n - k, (n - k) * (n + 1)])
    edges = np.column_stack([loop, np.roll(loop, -1), np.repeat(np.arange(4), n)])

    return Mesh(vertices, tris, edges)


def unit_disk_mesh(rings: int) -> Mesh:
    """Polygonal approximation of the unit disk from concentric rings.

    Ring k (1 <= k <= rings) carries 6k vertices at radius k/rings, plus
    the center vertex; the strip between consecutive rings is filled with
    a fan of triangles. ``rings=1`` gives the regular hexagon (7 vertices,
    6 triangles). All boundary edges carry marker 0. The mesh covers the
    inscribed polygon, not the exact disk.
    """
    if rings < 1:
        raise ValueError("rings must be at least 1")
    verts = [np.zeros((1, 2))]
    tris = []
    inner, n_in = 0, 1  # the center acts as ring 0
    s = np.arange(6)[:, None]
    for k in range(1, rings + 1):
        outer, n_out = inner + n_in, 6 * k
        theta = 2.0 * np.pi * np.arange(n_out) / n_out
        r = k / rings
        verts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
        # sector s spans outer vertices O[0..k] and inner vertices I[0..k-1];
        # it holds k triangles (O[j], O[j+1], I[j]), then k - 1 triangles
        # (O[j+1], I[j+1], I[j])
        O = outer + (s * k + np.arange(k + 1)) % n_out
        I = inner + (s * (k - 1) + np.arange(k)) % n_in
        up = np.stack([O[:, :-1], O[:, 1:], I], axis=-1)
        down = np.stack([O[:, 1:-1], I[:, 1:], I[:, :-1]], axis=-1)
        tris.append(np.concatenate([up, down], axis=1).reshape(-1, 3))
        inner, n_in = outer, n_out

    m = np.arange(n_out)
    edges = np.column_stack([outer + m, outer + (m + 1) % n_out, np.zeros_like(m)])

    return Mesh(np.vstack(verts), np.vstack(tris), edges)


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four by edge midpoints.

    Original vertices keep their indices and coordinates; midpoint
    vertices are appended in lexicographic edge order. Boundary edges are
    split in two, inheriting marker and orientation, so markers, the loop
    and the total area are all preserved.
    """
    edges, sides, boundary = _edge_numbering(mesh)
    mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    base = mesh.num_vertices

    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = (base + sides).T
    tris = np.stack(
        [v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1
    ).reshape(-1, 3)

    a, b, marker = mesh.boundary_edges.T
    m = base + boundary
    bedges = np.stack([a, m, marker, m, b, marker], axis=1).reshape(-1, 3)

    return Mesh(vertices, tris, bedges)


def write_mesh(mesh: Mesh, destination: str | Path | TextIO) -> None:
    """Write the plain-text mesh format; coordinates as repr, which round-trips float64."""
    text = f"{FORMAT_MAGIC}\n"
    for name, rows, row in (
        ("vertices", mesh.vertices, "%r %r\n"),
        ("triangles", mesh.triangles, "%d %d %d\n"),
        ("boundary", mesh.boundary_edges, "%d %d %d\n"),
    ):
        text += f"{name} {len(rows)}\n" + (row * len(rows)) % tuple(rows.ravel().tolist())
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="ascii")


def read_mesh(source: str | Path | IO) -> Mesh:
    """Read the plain-text mesh format and validate all mesh invariants.

    Rows are ASCII decimal tokens, parsed by numpy a section at a time. A
    malformed line, a byte a file or stream cannot decode (a path or a binary
    stream is read as ASCII) or a clockwise triangle raises MeshFormatError
    with its 1-based line; every other invariant is ``Mesh.validate``'s, and
    its failure is a MeshFormatError too."""
    try:
        # a text stream decodes the rest in one call; a path or binary stream is ASCII
        text = source.read() if hasattr(source, "read") else Path(source).read_bytes()
        if isinstance(text, bytes):
            text = text.decode("ascii")
    except UnicodeDecodeError as err:  # err.object holds every byte that call decoded
        data, k = err.object, err.start
        line = len((data[:k].decode(err.encoding) + "^").splitlines())
        raise MeshFormatError(f"non-ASCII byte {data[k]:#x}", line=line) from None
    lines = text.splitlines()
    stripped = list(map(str.strip, lines))
    numbers = list(compress(range(1, len(lines) + 1), stripped))  # file line of each text
    texts = list(compress(stripped, stripped))  # the non-blank lines
    if not texts:
        raise MeshFormatError("unexpected end of file", line=len(lines) or 1)
    if texts[0] != FORMAT_MAGIC:
        raise MeshFormatError(
            f"bad header {texts[0]!r}, expected {FORMAT_MAGIC!r}", line=numbers[0]
        )
    pos, sections = 1, []
    for name, what, width, dtype in (
        ("vertices", "vertex", 2, float),
        ("triangles", "triangle", 3, np.int64),
        ("boundary", "boundary edge", 3, np.int64),
    ):
        if pos == len(texts):
            raise MeshFormatError("unexpected end of file", line=len(lines) or 1)
        ln, text = numbers[pos], texts[pos]
        parts = text.split()
        if len(parts) != 2 or parts[0] != name:
            raise MeshFormatError(f"expected '{name} <count>', got {text!r}", line=ln)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad {name} count {parts[1]!r}", line=ln) from None
        if count < 0:
            raise MeshFormatError(f"negative {name} count", line=ln)
        start, pos = pos + 1, min(pos + 1 + count, len(texts))
        values = _parse(texts[start:pos], width, dtype)
        if values is None or len(values) < count:
            # Line by line, the same parser finds the first bad line; int64 overflow comes last.
            first = None  # the first line of ASCII integers that int64 cannot hold
            for k in (k for k in range(start, pos) if _parse([texts[k]], width, dtype) is None):
                if dtype is float or not re.fullmatch(r"[+-]?[0-9]+(\s+[+-]?[0-9]+){2}", texts[k]):
                    raise MeshFormatError(f"bad {what} line {texts[k]!r}", line=numbers[k])
                first = k if first is None else first
            if pos - start < count:
                raise MeshFormatError("unexpected end of file", line=len(lines) or 1)
            raise MeshFormatError(f"integer out of range in {texts[first]!r}", line=numbers[first])
        sections.append((start, values))
    (_, vertices), (first_triangle, triangles), (_, bedges) = sections
    if pos < len(texts):
        raise MeshFormatError(
            f"unexpected content after the boundary section: {texts[pos]!r}", line=numbers[pos]
        )

    try:
        return Mesh(vertices, triangles, bedges)
    except MeshValidationError as exc:
        line = None if exc.triangle is None else numbers[first_triangle + exc.triangle]
        raise MeshFormatError(str(exc), line=line) from exc


def _parse(block: list[str], width: int, dtype) -> np.ndarray | None:
    """The lines of ``block`` as a (len(block), width) array; None if any is malformed."""
    if not block:  # loadtxt warns on empty input
        return np.empty((0, width), dtype)
    try:
        with warnings.catch_warnings():  # numpy 1.x reads a bad integer as a float, with a warning
            warnings.simplefilter("error", DeprecationWarning)
            values = np.loadtxt(block, dtype, comments=None, ndmin=2)
    except (ValueError, DeprecationWarning):
        return None
    return values if values.shape == (len(block), width) else None
