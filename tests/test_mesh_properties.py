"""Property tests of the mesh layer on random squares, disks and refinements."""

import io
import tempfile
from collections import Counter
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
    assert once == {(min(a, b), max(a, b)) for a, b in mesh.boundary_edges.tolist()}
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
    # each boundary edge becomes two halves, in loop order
    assert np.array_equal(fine.boundary_edges[::2, 0], mesh.boundary_edges[:, 0])
    assert np.array_equal(fine.boundary_edges[1::2, 1], mesh.boundary_edges[:, 1])
    loop, fine_loop = mesh.boundary_loop(), fine.boundary_loop()
    assert np.array_equal(fine_loop[::2], loop)
    mids = 0.5 * (mesh.vertices[loop] + mesh.vertices[np.roll(loop, -1)])
    assert np.array_equal(fine.vertices[fine_loop[1::2]], mids)


def three_pass_boundary(vertices, triangles):
    """The boundary validation derives, or None where it rejects, in plain
    Python: counterclockwise triangles; three edge passes (no repeated directed
    edge, every vertex used, and the directed edges whose undirected edge is
    seen once, no two of them from one vertex); their walk as one loop from
    the smallest start; and V - E + F = 1."""
    t, nv = triangles.tolist(), len(vertices)
    p = vertices[triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    if not (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0).all():
        return None
    directed = [(a, b) for tri in t for a, b in zip(tri, tri[1:] + tri[:1])]
    if len(set(directed)) != len(directed) or len({v for tri in t for v in tri}) != nv:
        return None
    seen = Counter(frozenset(e) for e in directed)
    succ = {}
    for a, b in directed:
        if seen[frozenset((a, b))] == 1:
            if a in succ:
                return None
            succ[a] = b
    loop = [min(succ)]
    while (cur := succ[loop[-1]]) != loop[0]:
        loop.append(cur)
    if len(loop) != len(succ) or nv - len(seen) + len(t) != 1:
        return None
    return [[a, b] for a, b in zip(loop, loop[1:] + loop[:1])]


SMALL_MESHES = [
    unit_square_mesh(1),
    unit_square_mesh(3),
    unit_disk_mesh(1),
    unit_disk_mesh(2),
    refine_uniform(unit_disk_mesh(1)),
]


@st.composite
def corrupted_meshes(draw):
    """The arrays of a small valid mesh after zero to three edits: its vertices
    relabelled, or a triangle flipped, repeated, dropped or added."""
    mesh = draw(st.sampled_from(SMALL_MESHES))
    v, t = mesh.vertices, mesh.triangles.tolist()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["relabel", "flip", "repeat", "drop", "add"]))
        if edit == "relabel":
            perm = draw(st.permutations(range(len(v))))
            v = v[np.argsort(perm)]  # old vertex i is new vertex perm[i]
            t = [[perm[a] for a in tri] for tri in t]
        elif edit == "add":
            tri = draw(st.lists(st.integers(0, len(v) - 1), min_size=3, max_size=3, unique=True))
            t.insert(draw(st.integers(0, len(t))), tri)
        elif t:
            k = draw(st.integers(0, len(t) - 1))
            if edit == "flip":
                t[k] = t[k][::-1]
            elif edit == "repeat":
                r = draw(st.integers(0, 2))  # the same triangle, from any of its corners
                t.append(t[k][r:] + t[k][:r])
            else:
                del t[k]
    return v, np.array(t, dtype=np.int64).reshape(-1, 3)


@settings(max_examples=80, deadline=None)
@given(corrupted_meshes())
def test_validation_agrees_with_the_three_pass_oracle(arrays):
    expected = three_pass_boundary(*arrays)
    try:
        mesh = Mesh(*arrays)
    except MeshValidationError:
        assert expected is None
    else:
        assert mesh.boundary_edges.tolist() == expected


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
