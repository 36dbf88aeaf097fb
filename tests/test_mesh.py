"""Mesh generation, invariants, refinement, and text-format round trips."""

import io
import math

import numpy as np
import pytest

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
            DomainTag.UNIT_SQUARE,
        )


def test_validation_rejects_wrong_boundary_orientation():
    # (1, 0) traverses the bottom edge against the triangle orientation
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.array([[1, 0, 0], [1, 2, 0], [2, 0, 0]]),
            DomainTag.UNIT_SQUARE,
        )


def test_validation_rejects_unused_vertex():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]]),
            np.array([[0, 1, 2]]),
            np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]]),
            DomainTag.UNIT_SQUARE,
        )


def test_validation_rejects_incomplete_boundary():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 2]]),
            np.array([[0, 1, 0], [1, 2, 0]]),
            DomainTag.UNIT_SQUARE,
        )


def test_validation_rejects_out_of_range_index():
    with pytest.raises(MeshValidationError):
        Mesh(
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([[0, 1, 7]]),
            np.array([[0, 1, 0], [1, 2, 0], [2, 0, 0]]),
            DomainTag.UNIT_SQUARE,
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


def test_read_stream_and_explicit_tag():
    buf = io.StringIO()
    write_mesh(unit_square_mesh(2), buf)
    buf.seek(0)
    m = read_mesh(buf, domain_tag=DomainTag.UNIT_DISK_POLYGON)
    assert m.domain_tag is DomainTag.UNIT_DISK_POLYGON


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


def _small_mesh(vertices, triangles, boundary):
    return Mesh(np.array(vertices, dtype=float), triangles, boundary, DomainTag.UNIT_DISK_POLYGON)


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
