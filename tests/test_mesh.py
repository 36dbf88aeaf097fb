"""Mesh generation, invariants, refinement, and text-format round trips."""

import errno
import io
import math
import os
import re
import warnings

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


def test_square_boundary_outward_normals():
    m = unit_square_mesh(3)
    centroid = np.array([0.5, 0.5])
    for a, b in m.boundary_edges:
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


@pytest.mark.parametrize("builder", [unit_square_mesh, unit_disk_mesh])
@pytest.mark.parametrize("size", [True, 2.0, np.float64(2.0), "2", None])
def test_builders_refuse_a_size_that_is_not_an_integer(builder, size):
    # True once built the n = 1 mesh; 2.0 raised a bare TypeError
    with pytest.raises(ValueError, match="must be an integer of at least 1"):
        builder(size)


@pytest.mark.parametrize("builder", [unit_square_mesh, unit_disk_mesh])
def test_builders_take_a_numpy_integer_size(builder):
    a, b = builder(np.int64(3)), builder(3)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes()


def test_refine_counts_and_area():
    m = unit_square_mesh(3)
    r = refine_uniform(m)
    assert r.num_triangles == 4 * m.num_triangles
    assert r.num_boundary_edges == 2 * m.num_boundary_edges
    assert abs(r.area() - m.area()) < 1e-12
    assert np.array_equal(r.vertices[: m.num_vertices], m.vertices)


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


def _listed_boundary(kind, n, refinements):
    """The boundary edges as the constructors listed them before validation
    derived them: the square's sides bottom, right, top, left from vertex 0;
    the disk's outer ring from its vertex at angle 0; each refinement splitting
    every edge at its midpoint, numbered base + the rank of its (lo, hi) key."""
    if kind == "square":
        k = np.arange(n)
        loop = np.concatenate([k, k * (n + 1) + n, n * (n + 1) + n - k, (n - k) * (n + 1)])
        mesh = unit_square_mesh(n)
    else:
        outer, m = 1 + 3 * n * (n - 1), np.arange(6 * n)  # vertices inside the outer ring
        loop = outer + m
        mesh = unit_disk_mesh(n)
    edges = np.column_stack([loop, np.roll(loop, -1)])
    for _ in range(refinements):
        nv, t = mesh.num_vertices, mesh.triangles
        heads = np.roll(t, -1, axis=1)
        keys = np.unique(np.minimum(t, heads) * nv + np.maximum(t, heads))
        a, b = edges.T
        mid = nv + np.searchsorted(keys, np.minimum(a, b) * nv + np.maximum(a, b))
        edges = np.stack([a, mid, mid, b], axis=1).reshape(-1, 2)
        mesh = refine_uniform(mesh)
    return mesh, edges


@pytest.mark.parametrize("refinements", [0, 1, 2])
@pytest.mark.parametrize(
    "kind, n",
    [("square", n) for n in (1, 2, 3, 7, 16, 33, 128)]
    + [("disk", n) for n in (1, 2, 3, 5, 12, 32)],
)
def test_derived_boundary_is_the_listed_boundary_byte_for_byte(kind, n, refinements):
    # the same edges in the same order, so every boundary sum keeps its bits
    mesh, listed = _listed_boundary(kind, n, refinements)
    assert mesh.boundary_edges.dtype == np.int64
    assert mesh.boundary_edges.shape == listed.shape
    assert mesh.boundary_edges.tobytes() == listed.tobytes()
    assert mesh.boundary_loop().tobytes() == listed[:, 0].tobytes()


@pytest.mark.parametrize(
    "kind, n", [("square", n) for n in range(1, 41)] + [("disk", n) for n in range(1, 13)]
)
def test_builder_meshes_equal_their_validated_copies(kind, n):
    # the builders skip validation, so what they set must be what it derives
    meshes = [unit_square_mesh(n) if kind == "square" else unit_disk_mesh(n)]
    for _ in range(2):
        meshes.append(refine_uniform(meshes[-1]))
    for mesh in meshes:
        checked = Mesh(mesh.vertices, mesh.triangles)
        for name in ("vertices", "triangles", "boundary_edges"):
            built, derived = getattr(mesh, name), getattr(checked, name)
            assert built.dtype == derived.dtype and built.shape == derived.shape, name
            assert built.tobytes() == derived.tobytes(), name
            assert built.flags.c_contiguous and not built.flags.writeable, name


def test_validate_runs_for_arrays_from_outside_and_not_for_builders(monkeypatch):
    calls = []
    validate = Mesh.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Mesh, "validate", counted)
    square, disk = unit_square_mesh(3), unit_disk_mesh(2)
    fine = refine_uniform(disk)
    assert calls == []
    text = io.StringIO()
    write_mesh(fine, text)
    read = read_mesh(io.StringIO(text.getvalue()))
    assert calls == [read]
    copy = Mesh(square.vertices, square.triangles)
    assert calls == [read, copy]


def _padded_lines(text):
    """The lines of ``text`` with blank lines before each and after the last,
    some padded with blanks, and the file line of each original line (1-based)."""
    padded, file_line = [], []
    for k, line in enumerate(text.splitlines()):
        padded += ["", "  \t"] if k % 2 else [" "]
        padded.append(f" \t{line}  " if k % 3 else line)
        file_line.append(len(padded))
    return padded + ["", "\t "], file_line


def test_blank_and_padded_lines_read_to_the_same_mesh():
    mesh = refine_uniform(unit_disk_mesh(2))
    text = io.StringIO()
    write_mesh(mesh, text)
    padded, _ = _padded_lines(text.getvalue())
    again = read_mesh(io.StringIO("\n".join(padded)))
    for name in ("vertices", "triangles", "boundary_edges"):
        assert getattr(again, name).tobytes() == getattr(mesh, name).tobytes()


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        (0, "biharm-mesh v1", "bad header"),
        (1, "vertices x", "bad vertices count"),
        (3, "0.0 x", "bad vertex line"),
        (5, "triangles -1", "negative triangles count"),
        (6, "0 2 1", "triangle 0 is not counterclockwise"),
        (6, "0 1", "bad triangle line"),
        (6, "0 1 99999999999999999999", "integer out of range"),
    ],
    ids=["header", "count", "vertex", "negative-count", "clockwise", "triangle", "int64"],
)
def test_blank_and_padded_lines_keep_the_file_line_of_a_fault(line, replacement, message):
    lines = _ONE_TRIANGLE.splitlines()
    lines[line] = replacement
    padded, file_line = _padded_lines("\n".join(lines))
    with pytest.raises(MeshFormatError, match=f"^line {file_line[line]}: {message}"):
        read_mesh(io.StringIO("\n".join(padded)))


def test_validation_rejects_clockwise_triangle():
    with pytest.raises(MeshValidationError, match="counterclockwise"):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 2, 1]]),
        )


def test_validation_rejects_unused_vertex():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
            np.array([[0, 1, 2]]),
        )


def test_validation_rejects_out_of_range_index():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 7]]),
        )


@pytest.mark.parametrize(
    "part, width, message",
    [
        ("vertices", 1, "vertices must be a (V, 2) array"),
        ("triangles", 2, "triangles must be a (T, 3) array"),
    ],
)
def test_validation_rejects_arrays_of_the_wrong_width(part, width, message):
    m = unit_square_mesh(1)
    arrays = {"vertices": m.vertices, "triangles": m.triangles}
    arrays[part] = arrays[part][:, :width]
    with pytest.raises(MeshValidationError, match=f"^{re.escape(message)}$"):
        Mesh(**arrays)


def test_mesh_arrays_immutable():
    m = unit_square_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 7.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 3
    with pytest.raises(ValueError):
        m.boundary_edges[0, 0] = 3


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


def _text(mesh) -> str:
    buf = io.StringIO()
    write_mesh(mesh, buf)
    return buf.getvalue()


def test_rewrite_keeps_the_file_and_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.mesh"
    write_mesh(unit_square_mesh(8), path)
    os.chmod(path, 0o640)
    before = os.stat(path)
    small = unit_square_mesh(2)
    write_mesh(small, path)  # far shorter than the file it replaces
    after = os.stat(path)
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert path.read_text(encoding="ascii") == _text(small)
    again = read_mesh(path)
    assert np.array_equal(again.vertices, small.vertices)
    assert np.array_equal(again.triangles, small.triangles)


def test_a_failed_rewrite_leaves_its_prefix_and_no_old_tail(tmp_path, monkeypatch):
    path = tmp_path / "out.mesh"
    write_mesh(unit_square_mesh(8), path)
    real_write, calls = os.write, []

    def full_disk(fd, data):  # takes 100 bytes, then the disk is full
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:100])

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError):
        write_mesh(unit_square_mesh(4), path)
    monkeypatch.undo()
    assert path.read_text(encoding="ascii") == _text(unit_square_mesh(4))[:100]


def test_write_through_a_symlink_lands_in_its_target(tmp_path):
    target, link = tmp_path / "target.mesh", tmp_path / "link.mesh"
    write_mesh(unit_square_mesh(4), target)
    link.symlink_to(target)
    mesh = unit_square_mesh(1)
    write_mesh(mesh, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="ascii") == _text(mesh)


def test_read_rejects_empty_file():
    with pytest.raises(MeshFormatError):
        read_mesh(io.StringIO(""))


def test_read_rejects_bad_header():
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO("not-a-mesh\n"))
    assert err.value.line == 1


def test_read_refuses_a_version_1_file_by_its_header():
    text = (
        "biharm-mesh v1\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"
        "triangles 1\n0 1 2\nboundary 3\n0 1 0\n1 2 0\n2 0 0\n"
    )
    message = "^line 1: bad header 'biharm-mesh v1', expected 'biharm-mesh v2'$"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO(text))


def test_read_rejects_bad_vertex_line():
    text = "biharm-mesh v2\nvertices 1\n0.0 oops\n"
    with pytest.raises(MeshFormatError) as err:
        read_mesh(io.StringIO(text))
    assert err.value.line == 3


@pytest.mark.parametrize(
    "count, message",
    [
        ("four", "line 2: bad vertices count 'four'"),
        ("-4", "line 2: negative vertices count"),
        # int() takes both; the rows' grammar, ASCII decimal digits, does not
        ("0_4", "line 2: bad vertices count '0_4'"),
        ("\u0664", "line 2: bad vertices count '\u0664'"),  # an Arabic-Indic 4
        ("1" * 5000, f"line 2: bad vertices count '{'1' * 5000}'"),  # beyond int()'s digit limit
    ],
    ids=["word", "negative", "underscore", "arabic-digit", "5000-digits"],
)
def test_read_rejects_a_bad_section_count(count, message):
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$") as err:
        read_mesh(io.StringIO(f"biharm-mesh v2\nvertices {count}\n0.0 0.0\n"))
    assert err.value.line == 2


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
    "triangle, message",
    [("0 1 9", None), ("0 1 99999999999999999999", "^line 7: integer out of range")],
    ids=["triangle", "triangle-beyond-int64"],
)
def test_read_rejects_index_out_of_range(triangle, message):
    text = f"biharm-mesh v2\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\ntriangles 1\n{triangle}\n"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO(text))


def _f_string_mesh_text(mesh):
    """The mesh text written one f-string per line."""
    return "".join(
        [
            "biharm-mesh v2\n",
            f"vertices {mesh.num_vertices}\n",
            *(f"{x!r} {y!r}\n" for x, y in mesh.vertices.tolist()),
            f"triangles {mesh.num_triangles}\n",
            *(f"{a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()),
        ]
    )


def _edge_value_mesh():
    # one counterclockwise triangle whose coordinates are float edge cases
    vertices = [[-1e300, -0.0], [1e16, 5e-324], [float(np.nextafter(1.0, 2.0)), 1e-05]]
    return Mesh(np.array(vertices), [[0, 1, 2]])


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


_ONE_TRIANGLE = "biharm-mesh v2\nvertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\ntriangles 1\n0 1 2\n"


@pytest.mark.parametrize(
    "line, replacement, what",
    [
        (5, "0.0 1_0.0", "vertex"),
        (5, "0.0 ١.0", "vertex"),
        (7, "0_0 1 2", "triangle"),
        (7, "0 1 ٢", "triangle"),
    ],
    ids=[
        "vertex-underscore",
        "vertex-arabic-digit",
        "triangle-underscore",
        "triangle-arabic-digit",
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
        (7, ["0 1", "0 1 2 0", "2 0 1"], "triangle"),
    ],
    ids=["vertices", "triangles"],
)
def test_read_rejects_ragged_block_with_the_right_token_count(first, rows, what):
    lines = _ONE_TRIANGLE.replace("triangles 1", "triangles 3").splitlines()
    lines[first - 1 : first + 2] = rows
    message = f"^line {first}: bad {what} line {re.escape(repr(rows[0]))}$"
    with pytest.raises(MeshFormatError, match=message):
        read_mesh(io.StringIO("\n".join(lines)))


@pytest.mark.parametrize(
    "triangles, message",
    [
        ("0 99999999999999999999 2\n1 2 x\n2 0 1", "^line 8: bad triangle line '1 2 x'$"),
        (
            "0 99999999999999999999 2\n1 2 -99999999999999999999\n2 0 1",
            "^line 7: integer out of range",
        ),
        ("0 99999999999999999999 2\n1 2 0", "^line 8: unexpected end of file$"),
    ],
    ids=["bad-line-after-overflow", "two-overflows", "end-of-file-after-overflow"],
)
def test_read_reports_int64_overflow_after_other_faults_of_its_section(triangles, message):
    text = _ONE_TRIANGLE.split("triangles 1\n")[0] + "triangles 3\n" + triangles
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
        (7, "0 1 99999999999999999999", "integer out of range in '0 1 99999999999999999999'"),
    ],
    ids=["triangle-fraction", "triangle-exponent", "triangle-overflow"],
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
    text = "biharm-mesh v2\nvertices 1002\n" + "\n".join(rows)
    with pytest.raises(MeshFormatError, match="^line 4: bad vertex line '0.0 x'$"):
        read_mesh(io.StringIO(text))
    assert [len(block) for block in calls] == [1002, 1, 1]


@pytest.mark.parametrize("vertices", ["vertices 0\n", "vertices 3\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"])
def test_empty_sections_reach_validation_without_warnings(vertices):
    text = f"biharm-mesh v2\n{vertices}triangles 0\n"
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


def _small_mesh(vertices, triangles):
    return Mesh(np.array(vertices, dtype=float), triangles)


def test_validation_rejects_non_finite_vertex():
    with pytest.raises(MeshValidationError, match="non-finite vertex coordinate"):
        _small_mesh([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]], [[0, 1, 2]])


def test_validation_rejects_empty_triangulation():
    with pytest.raises(MeshValidationError, match="mesh has no triangles"):
        _small_mesh([[0.0, 0.0], [1.0, 0.0]], np.empty((0, 3)))


def test_validation_rejects_duplicated_directed_edge():
    # the same triangle listed twice overlaps itself
    with pytest.raises(MeshValidationError, match="duplicated directed edge"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            [[0, 1, 2], [1, 2, 0]],
        )


def test_validation_rejects_edge_shared_by_three_triangles():
    # of three CCW triangles on the edge (0, 1), two run it in the same direction
    with pytest.raises(MeshValidationError, match="duplicated directed edge"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]],
            [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
        )


def test_validation_rejects_boundary_vertex_starting_two_edges():
    # two triangles touching only at vertex 0 (a bowtie)
    with pytest.raises(MeshValidationError, match="repeats as an edge start"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            [[0, 1, 2], [0, 3, 4]],
        )


def test_validation_rejects_two_boundary_loops():
    with pytest.raises(MeshValidationError, match="more than one loop"):
        _small_mesh(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 2.0], [2.0, 3.0]],
            [[0, 1, 2], [3, 4, 5]],
        )


def _strip(turn=3.0 * np.pi, step=np.pi / 8, radii=(1.0, 1.5, 2.0)):
    """Vertices and CCW triangles of a strip of quads between
    rings of the given radii, winding from angle 0 to ``turn``; vertex
    ring * (steps + 1) + k sits at angle k * step on ring ``ring``."""
    steps = round(turn / step)
    theta = step * np.arange(steps + 1)
    vertices = np.concatenate([r * np.column_stack([np.cos(theta), np.sin(theta)]) for r in radii])
    n, k = steps + 1, np.arange(steps)
    triangles = []
    for ring in range(len(radii) - 1):
        a, b = ring * n + k, ring * n + k + 1
        triangles += [np.stack([a, a + n, b + n], axis=1), np.stack([a, b + n, b], axis=1)]
    return vertices, np.concatenate(triangles)


def test_validation_rejects_vertex_in_no_triangle():
    # a strip winding 3 pi passes over itself; joining its middle-ring vertex at
    # 5 pi / 2 to the one at pi / 2, at the same point, leaves V - E + F = 0 on the
    # used vertices, and counting the unused one too gives the 1 of a disk
    vertices, triangles = _strip()
    strip = Mesh(vertices, triangles)
    assert (strip.num_vertices, strip.num_triangles) == (75, 96)
    middle = 25  # first vertex of the middle ring; 25 angles per ring
    assert np.allclose(vertices[middle + 20], vertices[middle + 4])
    joined = np.where(triangles == middle + 20, middle + 4, triangles)
    with pytest.raises(MeshValidationError, match="^vertex 45 is in no triangle$"):
        Mesh(vertices, joined)
    buf = io.StringIO()
    write_mesh(strip, buf)
    rows = buf.getvalue().splitlines()
    first = 3 + len(vertices)  # after the header, the vertices and 'triangles 96'
    rows[first : first + len(triangles)] = [f"{a} {b} {c}" for a, b, c in joined.tolist()]
    with pytest.raises(MeshFormatError, match="^vertex 45 is in no triangle$"):
        read_mesh(io.StringIO("\n".join(rows)))


OFF = 1e8 + 0.1


@pytest.mark.parametrize(
    "vertices, area",
    [
        ([[OFF, OFF], [OFF + 1.0, OFF], [OFF, OFF + 1.0]], 0.5),
        ([[1e160, 1e160], [1.0000000001e160, 1e160], [1e160, 1.0000000001e160]], 5e299),
    ],
    ids=["offset-1e8", "corners-1e160"],
)
def test_valid_triangle_far_from_the_origin_is_accepted_without_warnings(vertices, area):
    # the shoelace sum of the loop cancels catastrophically here, while the
    # triangle areas are formed from coordinate differences
    rows = "\n".join(f"{x!r} {y!r}" for x, y in vertices)
    text = _ONE_TRIANGLE.replace("0.0 0.0\n1.0 0.0\n0.0 1.0", rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mesh in (_small_mesh(vertices, [[0, 1, 2]]), read_mesh(io.StringIO(text))):
            assert mesh.area() == pytest.approx(area, rel=1e-4)


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
        read_mesh(io.BytesIO(b"biharm-mesh v2\n"))
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
    """The mesh of the kept triangles, its vertices renumbered."""
    used, tris = np.unique(mesh.triangles[keep], return_inverse=True)
    return Mesh(mesh.vertices[used], tris.reshape(-1, 3))


def _l_shape(n):
    """[0,1]^2 without its top right quarter, from unit_square_mesh(n), n even."""
    mesh = unit_square_mesh(n)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    return _submesh(mesh, ~((centroids[:, 0] > 0.5) & (centroids[:, 1] > 0.5)))


def _small_square(n):
    """[0.25,0.75]^2: inside the unit square, a quarter of its area."""
    mesh = unit_square_mesh(n)
    return Mesh(0.25 + 0.5 * mesh.vertices, mesh.triangles)


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
        # the weak form defect needs no particular domain
        assert math.isfinite(weak_form_residual(sol, (x * (one - x)) ** 2 * (y * (one - y)) ** 2))


def test_perturbed_interior_vertices_keep_the_unit_square():
    mesh = unit_square_mesh(6)
    interior = np.ones(mesh.num_vertices, dtype=bool)
    interior[mesh.boundary_edges[:, 0]] = False
    rng = np.random.default_rng(7)
    vertices = mesh.vertices.copy()
    vertices[interior] += rng.uniform(-0.04, 0.04, size=(interior.sum(), 2))
    moved = Mesh(vertices, mesh.triangles)
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
    rebuilt = Mesh(mesh.vertices, mesh.triangles)
    for m in (mesh, rebuilt, _read_back(mesh)):
        assert m.domain_tag is tag


def test_clockwise_triangle_names_its_index_and_file_line():
    mesh = unit_square_mesh(2)
    tris = mesh.triangles.copy()
    tris[5] = tris[5, ::-1]
    with pytest.raises(MeshValidationError, match="^triangle 5 is not counterclockwise") as err:
        Mesh(mesh.vertices, tris)
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
    ],
    ids=["area-overflow", "difference-overflow"],
)
def test_huge_coordinates_are_a_format_error_without_warnings(vertices, message):
    text = _ONE_TRIANGLE.replace("0.0 0.0\n1.0 0.0\n0.0 1.0", vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFormatError, match=message):
            read_mesh(io.StringIO(text))
