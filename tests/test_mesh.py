"""Mesh generation, invariants, refinement, and text-format round trips."""

import io
import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from biharm.biharmonic import NeumannProblem, solve_neumann, weak_form_residual
from biharm.fem import build_space
from biharm.mesh import (
    DomainTag,
    Mesh,
    MeshFormatError,
    MeshValidationError,
    read_mesh,
    refine_uniform,
    unit_disk_mesh,
    unit_square_mesh,
    write_mesh,
)
from biharm.polynomials import Polynomial2D


def shoelace(points):
    nxt = np.roll(points, -1, axis=0)
    return 0.5 * float(np.sum(points[:, 0] * nxt[:, 1] - nxt[:, 0] * points[:, 1]))


def test_square_counts():
    m = unit_square_mesh(8)
    assert m.num_vertices == 81
    assert m.num_triangles == 128
    assert m.num_boundary_edges == 32


def test_square_smallest():
    m = unit_square_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_boundary_edges == 4
    with pytest.raises(ValueError):
        unit_square_mesh(0)


def test_square_area_and_orientation():
    m = unit_square_mesh(5)
    assert (m.signed_areas() > 0).all()
    assert abs(m.area() - 1.0) < 1e-14


def test_square_side_markers():
    m = unit_square_mesh(4)
    for a, b, marker in m.boundary_edges:
        pa, pb = m.vertices[a], m.vertices[b]
        if marker == 0:
            assert pa[1] == 0 and pb[1] == 0
        elif marker == 1:
            assert pa[0] == 1 and pb[0] == 1
        elif marker == 2:
            assert pa[1] == 1 and pb[1] == 1
        elif marker == 3:
            assert pa[0] == 0 and pb[0] == 0
        else:
            raise AssertionError(f"unexpected marker {marker}")
    assert sorted(set(m.boundary_edges[:, 2])) == [0, 1, 2, 3]


def test_square_boundary_outward_normals():
    m = unit_square_mesh(3)
    centroid = np.array([0.5, 0.5])
    for a, b, _ in m.boundary_edges:
        pa, pb = m.vertices[a], m.vertices[b]
        tangent = pb - pa
        normal = np.array([tangent[1], -tangent[0]])
        midpoint = 0.5 * (pa + pb)
        assert normal @ (midpoint - centroid) > 0  # points away from the center


def test_disk_smallest_is_hexagon():
    m = unit_disk_mesh(1)
    assert m.num_vertices == 7
    assert m.num_triangles == 6
    assert m.num_boundary_edges == 6
    assert abs(m.area() - 3.0 * math.sqrt(3.0) / 2.0) < 1e-12


@pytest.mark.parametrize("rings", [1, 2, 3, 4])
def test_disk_counts_and_shoelace_area(rings):
    m = unit_disk_mesh(rings)
    assert m.num_boundary_edges == 6 * rings
    assert m.num_vertices == 1 + 3 * rings * (rings + 1)
    assert m.num_triangles == 6 * rings**2
    # inscribed polygon with 6*rings vertices on the unit circle
    exact = 3.0 * rings * math.sin(math.pi / (3.0 * rings))
    assert abs(m.area() - exact) < 1e-12
    loop_area = shoelace(m.vertices[m.boundary_loop()])
    assert abs(m.area() - loop_area) < 1e-12


def test_disk_rejects_zero_rings():
    with pytest.raises(ValueError):
        unit_disk_mesh(0)


def test_refine_counts_and_area():
    m = unit_square_mesh(3)
    r = refine_uniform(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert r.num_boundary_edges == 2 * m.num_boundary_edges
    assert abs(r.area() - m.area()) < 1e-12
    assert np.array_equal(r.vertices[: m.num_vertices], m.vertices)
    assert set(r.boundary_edges[:, 2]) == set(m.boundary_edges[:, 2])


def test_refine_twice_keeps_originals():
    m = unit_disk_mesh(2)
    rr = refine_uniform(refine_uniform(m))
    assert np.array_equal(rr.vertices[: m.num_vertices], m.vertices)
    assert abs(rr.area() - m.area()) < 1e-12
    assert rr.domain_tag is m.domain_tag


def test_refined_square_matches_direct():
    # refining n=2 produces the same vertex set as building n=4 directly
    r = refine_uniform(unit_square_mesh(2))
    d = unit_square_mesh(4)
    assert r.num_vertices == d.num_vertices
    r_set = {tuple(v) for v in np.round(r.vertices, 12)}
    d_set = {tuple(v) for v in np.round(d.vertices, 12)}
    assert r_set == d_set


def test_validation_rejects_clockwise_triangle():
    with pytest.raises(MeshValidationError, match="counterclockwise"):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 2, 1]]),
            np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]]),
        )


def test_validation_rejects_wrong_boundary_orientation():
    # (1, 0) traverses the bottom edge against the triangle orientation
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.array([[1, 0, 0], [1, 2, 0], [2, 0, 0]]),
        )


def test_validation_rejects_unused_vertex():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
            np.array([[0, 1, 2]]),
            np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]]),
        )


def test_validation_rejects_incomplete_boundary():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.array([[0, 1, 0], [1, 2, 0]]),
        )


def test_validation_rejects_out_of_range_index():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 7]]),
            np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]]),
        )


def test_mesh_arrays_immutable():
    m = unit_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 3


@pytest.mark.parametrize(
    "mesh",
    [unit_square_mesh(3), unit_disk_mesh(2), refine_uniform(unit_disk_mesh(1))],
    ids=["square", "disk", "refined-disk"],
)
def test_roundtrip_bit_identical(mesh, tmp_path):
    path = tmp_path / "out.mesh"
    write_mesh(mesh, path)
    again = read_mesh(path)
    assert np.array_equal(mesh.vertices, again.vertices)
    assert np.array_equal(mesh.triangles, again.triangles)
    assert np.array_equal(mesh.boundary_edges, again.boundary_edges)
    assert again.domain_tag is mesh.domain_tag
    # writing the reread mesh reproduces the file byte for byte
    buf = io.StringIO()
    write_mesh(again, buf)
    assert buf.getvalue() == path.read_text(encoding="ascii")


def test_read_rejects_empty_file():
    with pytest.raises(MeshFormatError):
        read_mesh(io.StringIO(""))


def test_read_rejects_bad_header():
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO("not-a-mesh\n"))
    assert err.value.line == 1


def test_read_rejects_bad_vertex_line():
    text = "biharm-mesh v1\nvertices 1\n0.0 oops\n"
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO(text))
    assert err.value.line == 3


def test_read_rejects_truncated_file():
    good = io.StringIO()
    write_mesh(unit_square_mesh(1), good)
    lines = good.getvalue().splitlines()[:-1]
    with pytest.raises(MeshFormatError):
        read_mesh(io.StringIO("\n".join(lines)))


def test_read_reports_line_of_clockwise_triangle():
    good = io.StringIO()
    mesh = unit_square_mesh(1)
    write_mesh(mesh, good)
    lines = good.getvalue().splitlines()
    # triangle section starts after header + vertices; flip the first triangle
    tri_line = 2 + mesh.num_vertices + 1
    a, b, c = lines[tri_line].split()
    lines[tri_line] = f"{a} {c} {b}"
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO("\n".join(lines)))
    assert err.value.line == tri_line + 1  # 1-based


@pytest.mark.parametrize(
    "triangle, boundary, message",
    [
        ("0 1 9", "0 1 0", None),
        ("0 1 99999999999999999999", "0 1 0", "^line 7: integer out of range"),
        ("0 1 2", "0 99999999999999999999 0", "^line 9: integer out of range"),
    ],
    ids=["triangle", "triangle-beyond-int64", "boundary-beyond-int64"],
)
def test_read_rejects_index_out_of_range(triangle, boundary, message):
    text = f"biharm-mesh v1\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\ntriangles 1\n{triangle}\nboundary 3\n{boundary}\n1 2 0\n2 0 0\n"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO(text))


def _f_string_mesh_text(mesh):
    """The mesh text written one f-string per line."""
    return "".join(
        [
            "biharm-mesh v1\n",
            f"vertices {mesh.num_vertices}\n",
            *(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()),
            f"triangles {mesh.num_triangles}\n",
            *(f"{a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()),
            f"boundary {mesh.num_boundary_edges}\n",
            *(f"{a} {b} {m}\n" for a, b, m in mesh.boundary_edges.tolist()),
        ]
    )


def _edge_value_mesh():
    # one counterclockwise triangle whose coordinates are float edge cases
    vertices = [[-1e300, -0.0], [1e16, 5e-324], [float(np.nextafter(1.0, 2.0)), 1e-05]]
    boundary = [[0, 1, 0], [1, 2, 0], [2, 0, 0]]
    return Mesh(np.array(vertices), [[0, 1, 2]], boundary)


@pytest.mark.parametrize(
    "mesh",
    [_edge_value_mesh(), unit_square_mesh(3), refine_uniform(unit_disk_mesh(2))],
    ids=["edge-values", "square", "refined-disk"],
)
def test_write_matches_per_line_f_strings_and_reads_back_bit_exact(mesh):
    buf = io.StringIO()
    write_mesh(mesh, buf)
    assert buf.getvalue() == _f_string_mesh_text(mesh)
    again = read_mesh(io.StringIO(buf.getvalue()))
    for name in ("vertices", "triangles", "boundary_edges"):
        assert getattr(again, name).tobytes() == getattr(mesh, name).tobytes()


_ONE_TRIANGLE = (
    "biharm-mesh v1\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
    "triangles 1\n0 1 2\nboundary 3\n0 1 0\n1 2 0\n2 0 0\n"
)


@pytest.mark.parametrize(
    "line, replacement, what",
    [
        (5, "0.0 1_0.0", "vertex"),
        (5, "0.0 ١.0", "vertex"),
        (7, "0_0 1 2", "triangle"),
        (7, "0 1 ٢", "triangle"),
        (9, "0 1 0_0", "boundary edge"),
        (9, "0 1 ٠", "boundary edge"),
    ],
    ids=[
        "vertex-underscore",
        "vertex-arabic-digit",
        "triangle-underscore",
        "triangle-arabic-digit",
        "boundary-underscore",
        "boundary-arabic-digit",
    ],
)
def test_read_rejects_underscores_and_non_ascii_digits(line, replacement, what):
    # float() and int() accept each of these replacements; the mesh
    # grammar takes ASCII decimal tokens only
    lines = _ONE_TRIANGLE.splitlines()
    lines[line - 1] = replacement
    message = f"^line {line}: bad {what} line {re.escape(repr(replacement))}$"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "first, rows, what",
    [
        (3, ["0.0 0.0 1.0", "0.0", "0.0 1.0"], "vertex"),
        (9, ["0 1", "0 1 2 0", "2 0 0"], "boundary edge"),
    ],
    ids=["vertices", "boundary"],
)
def test_read_rejects_ragged_block_with_the_right_token_count(first, rows, what):
    lines = _ONE_TRIANGLE.splitlines()
    lines[first - 1 : first + 2] = rows
    message = f"^line {first}: bad {what} line {re.escape(repr(rows[0]))}$"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "boundary, message",
    [
        ("0 99999999999999999999 0\n1 2 x\n2 0 0", "^line 10: bad boundary edge line '1 2 x'$"),
        (
            "0 99999999999999999999 0\n1 2 -99999999999999999999\n2 0 0",
            "^line 9: integer out of range",
        ),
        ("0 99999999999999999999 0\n1 2 0", "^line 10: unexpected end of file$"),
    ],
    ids=["bad-line-after-overflow", "two-overflows", "end-of-file-after-overflow"],
)
def test_read_reports_int64_overflow_after_other_faults_of_its_section(boundary, message):
    text = _ONE_TRIANGLE.split("boundary 3\n")[0] + "boundary 3\n" + boundary
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO(text))


def _numpy1_loadtxt(loadtxt):
    """loadtxt as numpy 1.23-1.26 reads an integer it cannot parse: via float, with a warning."""

    def read(block, dtype, **kwargs):
        try:
            return loadtxt(block, dtype, **kwargs)
        except ValueError:
            if dtype is float:
                raise
            values = loadtxt(block, float, **kwargs)
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return values.astype(dtype)

    return read


@pytest.mark.parametrize("numpy1", [False, True], ids=["installed-numpy", "numpy-1-loadtxt"])
@pytest.mark.parametrize(
    "line, replacement, message",
    [
        (7, "0 1.5 2", "bad triangle line '0 1.5 2'"),
        (7, "0 1 1e0", "bad triangle line '0 1 1e0'"),
        (9, "0 1 0.0", "bad boundary edge line '0 1 0.0'"),
        (7, "0 1 99999999999999999999", "integer out of range in '0 1 99999999999999999999'"),
    ],
    ids=["triangle-fraction", "triangle-exponent", "boundary-float", "triangle-overflow"],
)
def test_read_rejects_float_tokens_in_integer_sections(
    monkeypatch, numpy1, line, replacement, message
):
    # numpy 1.x only warns where it reads such a token through float; outside
    # __main__ that warning is hidden, so the reader must not rely on seeing it
    if numpy1:
        monkeypatch.setattr(np, "loadtxt", _numpy1_loadtxt(np.loadtxt))
    lines = _ONE_TRIANGLE.splitlines()
    lines[line - 1] = replacement
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(MeshFormatError, match=f"^line {line}: {re.escape(message)}$"):
            read_mesh(io.StringIO("\n".join(lines)))


def test_read_stops_at_the_first_bad_line(monkeypatch):
    # the bulk parse, then one line at a time up to the bad line, not the whole section
    calls, loadtxt = [], np.loadtxt

    def counted(block, *args, **kwargs):
        calls.append(block)
        return loadtxt(block, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    rows = ["0.0 0.0", "0.0 x"] + ["0.0 0.0"] * 1000
    text = "biharm-mesh v1\nvertices 1002\n" + "\n".join(rows)
    with pytest.raises(MeshFormatError, match="^line 4: bad vertex line '0.0 x'$"):
        read_mesh(io.StringIO(text))
    assert [len(block) for block in calls] == [1002, 1, 1]


@pytest.mark.parametrize("vertices", ["vertices 0\n", "vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"])
def test_empty_sections_reach_validation_without_warnings(vertices):
    text = f"biharm-mesh v1\n{vertices}triangles 0\nboundary 0\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match="^mesh has no triangles$"):
            read_mesh(io.StringIO(text))


def test_read_leaves_non_finite_vertices_to_validation_without_warnings():
    # inf - inf in the orientation check would warn before validation ran
    text = _ONE_TRIANGLE.replace("1.0 0.0", "inf inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match="^non-finite vertex coordinate$"):
            read_mesh(io.StringIO(text))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_reports_line_of_non_ascii_byte(tmp_path, newline):
    path = tmp_path / "latin1.mesh"
    text = _ONE_TRIANGLE.replace("\n", newline).replace("vertices", "vértices")
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(MeshFormatError, match="^line 2: non-ASCII byte 0xe9$"):
        read_mesh(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_read_reports_line_of_non_ascii_byte_in_a_stream(tmp_path, newline):
    # the stream's own decoding fails inside read(), not the mesh parser's
    path = tmp_path / "latin1.mesh"
    text = _ONE_TRIANGLE.replace("\n", newline).replace("vertices", "vértices")
    path.write_bytes(text.encode("latin-1"))
    with open(path, encoding="ascii") as stream:
        with pytest.raises(MeshFormatError, match="^line 2: non-ASCII byte 0xe9$"):
            read_mesh(stream)


def _small_mesh(vertices, triangles, boundary):
    return Mesh(np.array(vertices, dtype=float), triangles, boundary)


def test_validation_rejects_non_finite_vertex():
    with pytest.raises(MeshValidationError, match="non-finite vertex coordinate"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]], [[0, 1, 0], [1, 2, 0], [2, 0, 0]]
        )


def test_validation_rejects_empty_triangulation():
    with pytest.raises(MeshValidationError, match="mesh has no triangles"):
        _small_mesh([[0.0, 0.0], [1.0, 0.0]], np.empty((0, 3)), np.empty((0, 3)))


def test_validation_rejects_duplicated_directed_edge():
    # the same triangle listed twice overlaps itself
    with pytest.raises(MeshValidationError, match="duplicated directed edge"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0, 1, 2], [1, 2, 0]],
            [[0, 1, 0], [1, 2, 0], [2, 0, 0]],
        )


def test_validation_rejects_edge_shared_by_three_triangles():
    # of three CCW triangles on the edge (0, 1), two run it in the same direction
    with pytest.raises(MeshValidationError, match="duplicated directed edge"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
            [[1, 2, 0], [2, 0, 0], [0, 3, 0], [3, 1, 0], [1, 4, 0], [4, 0, 0]],
        )


def test_validation_rejects_boundary_vertex_starting_two_edges():
    # two triangles touching only at vertex 0 (a bowtie)
    with pytest.raises(MeshValidationError, match="repeats as an edge start"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [[0, 1, 2], [0, 3, 4]],
            [[0, 1, 0], [1, 2, 0], [2, 0, 0], [0, 3, 0], [3, 4, 0], [4, 0, 0]],
        )


def test_validation_rejects_two_boundary_loops():
    with pytest.raises(MeshValidationError, match="more than one loop"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 2.0], [2.0, 3.0]],
            [[0, 1, 2], [3, 4, 5]],
            [[0, 1, 0], [1, 2, 0], [2, 0, 0], [3, 4, 0], [4, 5, 0], [5, 3, 0]],
        )


def test_validation_rejects_loop_area_mismatch():
    # far from the origin the shoelace sum cancels catastrophically, while
    # the triangle areas are formed from coordinate differences
    off = 1e8 + 0.1
    with pytest.raises(MeshValidationError, match="mismatches boundary loop area"):
        _small_mesh(
            [[off, off], [off + 1.0, off], [off, off + 1.0]],
            [[0, 1, 2]],
            [[0, 1, 0], [1, 2, 0], [2, 0, 0]],
        )


@pytest.mark.parametrize("trailer", ["garbage here\n", None], ids=["garbage", "second-mesh"])
def test_read_rejects_trailing_content(trailer):
    buf = io.StringIO()
    write_mesh(unit_square_mesh(1), buf)
    good = buf.getvalue()
    text = good + "\n  \n" + (trailer or good)
    first_extra = len(good.splitlines()) + 3  # 1-based, after one blank and one spaces line
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO(text))
    assert err.value.line == first_extra


def test_read_binary_stream_as_ascii():
    with pytest.raises(MeshFormatError, match="^line 1: unexpected end of file$"):
        read_mesh(io.BytesIO(b"biharm-mesh v1\n"))
    text = _ONE_TRIANGLE.replace("vertices", "vértices")
    with pytest.raises(MeshFormatError, match="^line 2: non-ASCII byte 0xc3$"):
        read_mesh(io.BytesIO(text.encode("utf-8")))


def test_binary_stream_round_trip_is_bit_exact():
    mesh = refine_uniform(unit_disk_mesh(5))
    stream = io.StringIO()
    write_mesh(mesh, stream)
    back = read_mesh(io.BytesIO(stream.getvalue().encode("ascii")))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert np.array_equal(back.boundary_edges, mesh.boundary_edges)
    assert back.domain_tag is mesh.domain_tag


def _submesh(mesh, keep):
    """The mesh of the kept triangles: vertices renumbered, boundary rebuilt from
    the directed edges seen once, all with marker 0."""
    used, tris = np.unique(mesh.triangles[keep], return_inverse=True)
    tris = tris.reshape(-1, 3)
    directed = [(a, b) for t in tris.tolist() for a, b in zip(t, t[1:] + t[:1])]
    seen = Counter(frozenset(e) for e in directed)
    boundary = [(a, b, 0) for a, b in directed if seen[frozenset((a, b))] == 1]
    return Mesh(mesh.vertices[used], tris, boundary)


def _l_shape(n):
    """[0,1]^2 without its top right quarter, from unit_square_mesh(n), n even."""
    mesh = unit_square_mesh(n)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return _submesh(mesh, ~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5)))


def _small_square(n):
    """[0.25,0.75]^2: inside the unit square, a quarter of its area."""
    mesh = unit_square_mesh(n)
    return Mesh(0.25 + 0.5 * mesh.vertices, mesh.triangles, mesh.boundary_edges)


def _read_back(mesh):
    buf = io.StringIO()
    write_mesh(mesh, buf)
    return read_mesh(io.StringIO(buf.getvalue()))


@pytest.mark.parametrize("build", [_l_shape, _small_square], ids=["l-shape", "small-square"])
def test_domain_inside_the_unit_square_is_not_the_unit_square(build):
    # the bounding box lies in [0,1]^2, but the domain is not the square
    mesh = build(4)
    for m in (mesh, _read_back(mesh)):
        assert m.domain_tag is DomainTag.UNIT_DISK_POLYGON
        sol = solve_neumann(build_space(m, 2), NeumannProblem(1.0, 0.0, 0.0))
        x, y = Polynomial2D.x(), Polynomial2D.y()
        one = Polynomial2D.constant(1)
        with pytest.raises(ValueError, match="unit square only"):
            weak_form_residual(sol, (x * (one - x)) ** 2 * (y * (one - y)) ** 2)


def test_perturbed_interior_vertices_keep_the_unit_square():
    mesh = unit_square_mesh(6)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.boundary_edges[:, 0]] = False
    rng = np.random.default_rng(7)
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(-0.04, 0.04, size=(interior.sum(), 2))
    moved = Mesh(vertices, mesh.triangles, mesh.boundary_edges)
    assert not np.array_equal(moved.vertices, mesh.vertices)
    for m in (moved, _read_back(moved)):
        assert m.domain_tag is DomainTag.UNIT_SQUARE


@pytest.mark.parametrize(
    "mesh, tag",
    [
        (unit_square_mesh(1), DomainTag.UNIT_SQUARE),
        (unit_square_mesh(7), DomainTag.UNIT_SQUARE),
        (refine_uniform(unit_square_mesh(3)), DomainTag.UNIT_SQUARE),
        (refine_uniform(refine_uniform(unit_square_mesh(5))), DomainTag.UNIT_SQUARE),
        (unit_disk_mesh(1), DomainTag.UNIT_DISK_POLYGON),
        (unit_disk_mesh(6), DomainTag.UNIT_DISK_POLYGON),
        (refine_uniform(unit_disk_mesh(2)), DomainTag.UNIT_DISK_POLYGON),
        (refine_uniform(refine_uniform(unit_disk_mesh(3))), DomainTag.UNIT_DISK_POLYGON),
    ],
    ids=[
        "square-1",
        "square-7",
        "refined-square",
        "twice-refined-square",
        "disk-1",
        "disk-6",
        "refined-disk",
        "twice-refined-disk",
    ],
)
def test_domain_tag_is_read_off_the_three_arrays(mesh, tag):
    rebuilt = Mesh(mesh.vertices, mesh.triangles, mesh.boundary_edges)
    for m in (mesh, rebuilt, _read_back(mesh)):
        assert m.domain_tag is tag


def test_clockwise_triangle_names_its_index_and_file_line():
    mesh = unit_square_mesh(2)
    tris = mesh.triangles.copy()
    tris[5] = tris[5, ::-1]
    with pytest.raises(MeshValidationError, match="^triangle 5 is not counterclockwise") as err:
        Mesh(mesh.vertices, tris, mesh.boundary_edges)
    assert err.value.triangle == 5
    buf = io.StringIO()
    write_mesh(mesh, buf)
    lines = buf.getvalue().splitlines()
    first = 2 + mesh.num_vertices + 1  # 0-based index of the first triangle line
    lines[first + 5] = " ".join(map(str, tris[5]))
    lines.insert(first + 2, "")  # a blank line moves the file line, not the triangle index
    with pytest.raises(MeshFormatError, match="triangle 5 is not counterclockwise") as err:
        read_mesh(io.StringIO("\n".join(lines)))
    assert err.value.line == (first + 5) + 1 + 1  # the blank line, then 1-based


@pytest.mark.parametrize(
    "vertices, message",
    [
        ("0.0 0.0\n1e308 0.0\n0.0 1e308", "^line 7: triangle 0 has an area beyond float range$"),
        ("-1e308 0.0\n1e308 0.0\n0.0 1.0", "^line 7: triangle 0 has an area beyond float range$"),
        ("1e160 1e160\n1.0000000001e160 1e160\n1e160 1.0000000001e160", "mismatches"),
    ],
    ids=["area-overflow", "difference-overflow", "loop-area-overflow"],
)
def test_huge_coordinates_are_a_format_error_without_warnings(vertices, message):
    text = _ONE_TRIANGLE.replace("0.0 0.0\n1.0 0.0\n0.0 1.0", vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match=message):
            read_mesh(io.StringIO(text))
