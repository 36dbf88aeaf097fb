"""Triangle meshes of the unit square and of a polygonal unit disk.

A mesh is its vertex coordinates and counterclockwise triangles, held like
every array of a frozen object: as a read-only copy taken once by
``_owned``, so no caller's alias can change it, and such objects compare by
identity. Every constructor and the text-format reader validate the full
invariant set: positive triangle areas, every vertex in a triangle, interior
edges shared by exactly two triangles and boundary edges by exactly one, a
single closed boundary loop, and the Euler relation V - E + F = 1.
Validation reads the boundary off the triangles: its edges are the directed
triangle sides seen once, oriented with the domain on the left (so the
outward normal is the tangent rotated by -90 degrees). Green's identity then
makes the area sum equal to the shoelace area of the loop: interior edges
cancel in pairs.

Construction, refinement and validation are array operations, which gather
vertex coordinates as x and y columns, never as (..., 2) rows. The edge from
a to b is keyed 2 * (lo * V + hi) + (a > b) for its sorted endpoints lo, hi;
without the direction bit the key names the undirected edge, and ascending
keys list the edges in lexicographic (lo, hi) order. One edge numbering in
that order places a node at each edge midpoint, after the vertices: the nodes
are the vertices of the refined mesh and the dofs of a degree-2 space.
"""

from __future__ import annotations

import enum
import re
import warnings
from dataclasses import dataclass, field
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
FORMAT_MAGIC = "biharm-mesh v2"


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


def _owned(array, dtype=None, error: type[ValueError] = ValueError) -> np.ndarray:
    """A read-only C-contiguous copy of ``array``: the one way an array enters a
    frozen object, so the object's cached operators cannot go stale. A cast to
    ``dtype`` keeps every value, NaN as NaN, or raises ``error``: it never
    drops an imaginary part, truncates an index or parses a string."""
    try:
        source = np.asarray(array)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a lossy cast warns; the check below refuses it
            owned = np.array(source, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"not an array of {np.dtype(dtype)}: {exc}") from None
    if owned.dtype != source.dtype:
        nan = (owned != owned) & (source != source) & (source.imag == 0)  # NaN stays NaN
        changed = (owned != source) & ~nan
        if changed.any():
            value = source.flat[np.argmax(changed)]
            raise error(f"a cast from {source.dtype} to {owned.dtype} would change the value {value}")
    owned.flags.writeable = False
    return owned


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation; validation derives its oriented boundary.

    Parameters
    ----------
    vertices : (V, 2) float array
    triangles : (T, 3) int array, each row counterclockwise

    ``boundary_edges`` is the read-only (B, 2) int array of (start, end)
    pairs, oriented so the domain lies on the left and walked as one loop
    from the smallest boundary vertex.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", _owned(self.vertices, float, MeshValidationError))
        object.__setattr__(self, "triangles", _owned(self.triangles, np.int64, MeshValidationError))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshValidationError("vertices must be a (V, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshValidationError("triangles must be a (T, 3) array")
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
        (x0, x1, x2), (y0, y1, y2) = (self.vertices[:, k].take(self.triangles.T) for k in (0, 1))
        return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    def area(self) -> float:
        return float(self.signed_areas().sum())

    def undirected_edges(self) -> np.ndarray:
        """Distinct undirected edges as sorted (lo, hi) pairs, lexicographic."""
        return _edge_numbering(self)[0]

    def boundary_loop(self) -> np.ndarray:
        """Boundary vertices in traversal order, from the smallest."""
        return self.boundary_edges[:, 0]

    def validate(self) -> None:
        """Check all mesh invariants and derive ``boundary_edges``; raise
        MeshValidationError on the first failure.

        One sort of the triangles' directed-edge keys finds overlaps (a repeated
        key), the boundary (the keys whose undirected edge is seen once) and the
        E of the Euler relation. Each CCW triangle at a vertex, and each interior
        edge there, starts one directed edge and ends one, so every vertex starts
        as many boundary edges as it ends. With no start repeated, the successor
        map permutes the starts and the walk from the smallest one closes. The
        area sum is not checked: it equals the loop's shoelace area, so only
        rounding could fail such a check.
        """
        v, t = self.vertices, self.triangles
        if not np.isfinite(v).all():
            raise MeshValidationError("non-finite vertex coordinate")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshValidationError("triangle vertex index out of range")
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

        # No directed edge of CCW triangles repeats, so an undirected edge is seen once
        # (boundary) or twice, in opposite directions (interior), its keys side by side.
        nv = len(v)
        keys = np.sort(_directed_key(t, np.roll(t, -1, axis=1), nv), axis=None)
        if (keys[1:] == keys[:-1]).any():
            raise MeshValidationError("duplicated directed edge (overlapping triangles)")
        # cut[k]: keys k - 1 and k name different undirected edges (always at both ends)
        cut = np.ones(len(keys) + 1, dtype=bool)
        np.not_equal(keys[1:] >> 1, keys[:-1] >> 1, out=cut[1:-1])
        once = keys[cut[:-1] & cut[1:]]
        uses = np.bincount(t.ravel(), minlength=nv)
        if not uses.all():
            raise MeshValidationError(f"vertex {int(np.argmin(uses))} is in no triangle")

        lo, hi = np.divmod(once >> 1, nv)
        backward = (once & 1).astype(bool)  # the edge runs from hi to lo
        succ = dict(zip(np.where(backward, hi, lo).tolist(), np.where(backward, lo, hi).tolist()))
        if len(succ) != len(once):
            raise MeshValidationError("boundary vertex repeats as an edge start")
        loop = [min(succ)]
        while (cur := succ[loop[-1]]) != loop[0]:
            loop.append(cur)
        if len(loop) != len(once):
            raise MeshValidationError("boundary edges form more than one loop")

        euler = nv - (int(cut.sum()) - 1) + len(t)
        if euler != 1:
            raise MeshValidationError(f"Euler relation violated: V - E + F = {euler}")

        starts = np.array(loop, dtype=np.int64)
        edges = np.column_stack([starts, np.roll(starts, -1)])
        object.__setattr__(self, "boundary_edges", _owned(edges))


def _directed_key(a, b, nv: int):
    """Integer key 2 * (lo * nv + hi) + (a > b) of the edge from vertex a to vertex b.
    Without its direction bit, key >> 1 names the undirected edge: ascending such
    keys list the edges in lexicographic (lo, hi) order, and divmod gives (lo, hi)."""
    return 2 * (np.minimum(a, b) * nv + np.maximum(a, b)) + (a > b)


def _edge_numbering(mesh: Mesh) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Number the undirected edges in lexicographic (lo, hi) order and place a
    node at the midpoint of each.

    Returns the (E, 2) sorted pairs; the (V + E, 2) nodes, the vertices and
    then the midpoints in edge order; the (T, 3) node numbers of the midpoints
    of each triangle's sides v0v1, v1v2, v2v0; and the node number of each
    boundary edge's midpoint. These nodes are the vertices of the refined mesh
    and the dofs of the degree-2 space.
    """
    nv = mesh.num_vertices
    t = mesh.triangles
    undirected = _directed_key(t, np.roll(t, -1, axis=1), nv) >> 1
    keys, inverse = np.unique(undirected, return_inverse=True)
    lo, hi = np.divmod(keys, nv)
    mids = np.column_stack([0.5 * (c.take(lo) + c.take(hi)) for c in mesh.vertices.T])
    boundary = np.searchsorted(keys, _directed_key(*mesh.boundary_edges.T, nv) >> 1)
    nodes = np.vstack([mesh.vertices, mids])
    return np.column_stack([lo, hi]), nodes, nv + inverse.reshape(t.shape), nv + boundary


def unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with n cells per side.

    Each grid cell is split along its bottom-left to top-right diagonal,
    giving (n+1)^2 vertices and 2 n^2 triangles. The boundary loop runs
    counterclockwise from the corner (0, 0), vertex 0.
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
    return Mesh(vertices, tris)


def unit_disk_mesh(rings: int) -> Mesh:
    """Polygonal approximation of the unit disk from concentric rings.

    Ring k (1 <= k <= rings) carries 6k vertices at radius k/rings, plus
    the center vertex; the strip between consecutive rings is filled with
    a fan of triangles. ``rings=1`` gives the regular hexagon (7 vertices,
    6 triangles). The boundary loop is the outer ring, counterclockwise from
    its vertex at angle 0. The mesh covers the inscribed polygon, not the
    exact disk.
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
    return Mesh(np.vstack(verts), np.vstack(tris))


def refine_uniform(mesh: Mesh) -> Mesh:
    """Split every triangle into four by edge midpoints.

    Original vertices keep their indices and coordinates; midpoint
    vertices are appended in lexicographic edge order. Each boundary edge is
    split in two, so the loop keeps its start vertex and gains a midpoint
    after each of its vertices, and the total area is preserved.
    """
    _, vertices, sides, _ = _edge_numbering(mesh)
    v0, v1, v2 = mesh.triangles.T
    m01, m12, m20 = sides.T
    tris = np.stack(
        [v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20], axis=1
    ).reshape(-1, 3)
    return Mesh(vertices, tris)


def write_mesh(mesh: Mesh, destination: str | Path | TextIO) -> None:
    """Write the plain-text mesh format; coordinates as repr, which round-trips float64."""
    text = f"{FORMAT_MAGIC}\n"
    for name, rows, row in (
        ("vertices", mesh.vertices, "%r %r\n"),
        ("triangles", mesh.triangles, "%d %d %d\n"),
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
    (_, vertices), (first_triangle, triangles) = sections
    if pos < len(texts):
        raise MeshFormatError(
            f"unexpected content after the triangles section: {texts[pos]!r}", line=numbers[pos]
        )

    try:
        return Mesh(vertices, triangles)
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
