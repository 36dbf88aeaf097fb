"""Property tests of the mesh layer on random squares, disks and refinements."""

import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm.mesh import (
    Mesh,
    MeshFormatError,
    MeshValidationError,
    read_mesh,
    refine_uniform,
    unit_disk_mesh,
    unit_square_mesh,
    write_mesh,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def meshes(draw, max_refine=2):
    if draw(st.booleans()):
        mesh = unit_square_mesh(draw(st.integers(1, 8)))
    else:
        mesh = unit_disk_mesh(draw(st.integers(1, 5)))
    for _ in range(draw(st.integers(0, max_refine))):
        mesh = refine_uniform(mesh)
    return mesh


def edge_oracle(triangles):
    """Undirected edges and their incidence counts, in plain Python."""
    counts = {}
    for a, b, c in triangles.tolist():
        for p, q in ((a, b), (b, c), (c, a)):
            key = (min(p, q), max(p, q))
            counts[key] = counts.get(key, 0) + 1
    return counts


@PROPERTY_SETTINGS
@given(meshes())
def test_invariants_hold(mesh):
    mesh.validate()
    assert (mesh.signed_areas() > 0).all()
    counts = edge_oracle(mesh.triangles)
    assert set(counts.values()) <= {1, 2}
    once = {e for e, c in counts.items() if c == 1}
    assert once == {(min(a, b), max(a, b)) for a, b, _ in mesh.boundary_edges.tolist()}
    assert mesh.num_vertices - len(counts) + mesh.num_triangles == 1
    assert len(mesh.boundary_loop()) == mesh.num_boundary_edges


@PROPERTY_SETTINGS
@given(meshes())
def test_undirected_edges_match_oracle(mesh):
    edges = mesh.undirected_edges()
    assert edges.tolist() == [list(e) for e in sorted(edge_oracle(mesh.triangles))]


@PROPERTY_SETTINGS
@given(meshes())
def test_text_round_trip_is_bit_exact(mesh):
    buf = io.StringIO()
    write_mesh(mesh, buf)
    again = read_mesh(io.StringIO(buf.getvalue()))
    assert again.vertices.tobytes() == mesh.vertices.tobytes()
    assert np.array_equal(again.triangles, mesh.triangles)
    assert np.array_equal(again.boundary_edges, mesh.boundary_edges)
    rewritten = io.StringIO()
    write_mesh(again, rewritten)
    assert rewritten.getvalue() == buf.getvalue()


@PROPERTY_SETTINGS
@given(meshes(max_refine=1))
def test_refinement_keeps_area_markers_and_loop(mesh):
    fine = refine_uniform(mesh)
    assert abs(fine.area() - mesh.area()) <= 1e-12 * abs(mesh.area())
    assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)
    # each boundary edge becomes two halves with its marker, in loop order
    assert np.array_equal(fine.boundary_edges[::2, 0], mesh.boundary_edges[:, 0])
    assert np.array_equal(fine.boundary_edges[1::2, 1], mesh.boundary_edges[:, 1])
    assert np.array_equal(fine.boundary_edges[::2, 2], mesh.boundary_edges[:, 2])
    assert np.array_equal(fine.boundary_edges[1::2, 2], mesh.boundary_edges[:, 2])
    loop, fine_loop = mesh.boundary_loop(), fine.boundary_loop()
    assert np.array_equal(fine_loop[::2], loop)
    mids = 0.5 * (mesh.vertices[loop] + mesh.vertices[np.roll(loop, -1)])
    assert np.array_equal(fine.vertices[fine_loop[1::2]], mids)


def three_pass_accepts(vertices, triangles, boundary):
    """Accept or reject as validation did before it sorted one array of
    directed-edge keys: counterclockwise triangles; three edge passes (no
    repeated directed edge, the listed edges equal as undirected edges to the
    ones seen once, each listed edge a directed triangle edge); one boundary
    loop; and V - E + F = 1. The loop-area check of that validation, which only
    rounding can fail, is left out."""
    t, b, nv = triangles, boundary, len(vertices)
    p = vertices[t]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if not (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0).all():
        return False
    heads = np.roll(t, -1, axis=1)
    directed = np.sort(t * nv + heads, axis=None)
    if (directed[1:] == directed[:-1]).any():
        return False
    undirected = np.minimum(t, heads) * nv + np.maximum(t, heads)
    und_unique, counts = np.unique(undirected, return_counts=True)
    lo, hi = np.sort(b[:, :2], axis=1).T
    if not np.array_equal(np.unique(lo * nv + hi), und_unique[counts == 1]):
        return False
    listed = b[:, 0] * nv + b[:, 1]
    found = directed[np.searchsorted(directed, listed).clip(max=len(directed) - 1)] == listed
    if not found.all():
        return False
    succ = dict(zip(b[:, 0].tolist(), b[:, 1].tolist()))
    if len(succ) != len(b):
        return False
    loop = [int(b[0, 0])]
    while (cur := succ[loop[-1]]) != loop[0]:
        loop.append(cur)
    return len(loop) == len(b) and nv - len(und_unique) + len(t) == 1


SMALL_MESHES = [
    unit_square_mesh(1),
    unit_square_mesh(3),
    unit_disk_mesh(1),
    unit_disk_mesh(2),
    refine_uniform(unit_disk_mesh(1)),
]


@st.composite
def corrupted_meshes(draw):
    """The arrays of a small valid mesh after zero to three edits: a boundary
    edge reversed, dropped, duplicated or added, every boundary edge reversed
    (a clockwise loop), or a triangle flipped or repeated."""
    mesh = draw(st.sampled_from(SMALL_MESHES))
    t, b = mesh.triangles.tolist(), mesh.boundary_edges.tolist()
    for _ in range(draw(st.integers(0, 3))):
        edits = ["reverse", "drop", "duplicate", "add", "reverse-all", "flip", "repeat"]
        edit = draw(st.sampled_from(edits))
        if edit in ("reverse", "drop", "duplicate") and b:
            k = draw(st.integers(0, len(b) - 1))
            if edit == "reverse":
                b[k] = [b[k][1], b[k][0], b[k][2]]
            elif edit == "drop":
                del b[k]
            else:
                b.insert(draw(st.integers(0, len(b))), b[k])
        elif edit == "reverse-all":
            b = [[q, p, m] for p, q, m in b]
        elif edit == "add":
            vertex = st.integers(0, mesh.num_vertices - 1)
            pair = draw(st.lists(vertex, min_size=2, max_size=2, unique=True))
            b.insert(draw(st.integers(0, len(b))), pair + [0])
        elif edit in ("flip", "repeat"):
            k = draw(st.integers(0, len(t) - 1))
            if edit == "flip":
                t[k] = t[k][::-1]
            else:
                r = draw(st.integers(0, 2))  # the same triangle, from any of its corners
                t.append(t[k][r:] + t[k][:r])
    return mesh.vertices, np.array(t, dtype=np.int64), np.array(b, dtype=np.int64).reshape(-1, 3)


@settings(max_examples=80, deadline=None)
@given(corrupted_meshes())
def test_validation_agrees_with_the_three_pass_oracle(arrays):
    try:
        Mesh(*arrays)
        accepted = True
    except MeshValidationError:
        accepted = False
    assert accepted == three_pass_accepts(*arrays)


def _seed_text():
    buf = io.StringIO()
    write_mesh(refine_uniform(unit_square_mesh(1)), buf)
    return buf.getvalue()


SEED_LINES = _seed_text().splitlines()
TOKENS = ["0", "-1", "1", "7", "0.5", "nan", "inf", "-1e308", "1e308", "x", "é", "1_0"]
TOKENS += ["99999999999999999999", "", "biharm-mesh v1", "vertices", "boundary 2"]


@st.composite
def mutated_mesh_texts(draw):
    """The text of a small valid mesh with one to three edits: a token, a line
    dropped, repeated or swapped, or the text cut short."""
    lines = list(SEED_LINES)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["token", "drop", "repeat", "swap", "cut"]))
        if edit == "token":
            tokens = lines[k].split() or [""]
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[k] = " ".join(tokens)
        elif edit == "drop":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            text = "\n".join(lines)
            lines = text[: draw(st.integers(0, len(text)))].split("\n")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=40, deadline=None)
@given(mutated_mesh_texts(), st.sampled_from(["text", "bytes", "path"]))
def test_read_gives_a_mesh_or_a_format_error(text, form):
    # any other exception, or a warning, fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.mesh"
        path.write_bytes(text.encode("utf-8"))
        sources = {"text": io.StringIO(text), "bytes": io.BytesIO(path.read_bytes()), "path": path}
        try:
            mesh = read_mesh(sources[form])
        except MeshFormatError:
            return
    assert mesh.vertices.tobytes() == read_mesh(io.StringIO(text)).vertices.tobytes()
