"""Build the two structured meshes, refine them, and round-trip a file.

Every mesh is valid: positive triangle areas, counterclockwise orientation,
a single closed boundary loop, and an Euler characteristic of 1 for a simply
connected surface. The builders make their meshes so by construction; the
mesh read back from the file is checked by ``Mesh.validate``.
"""

import tempfile
from pathlib import Path

import numpy as np

from biharm.mesh import read_mesh, refine_uniform, unit_disk_mesh, unit_square_mesh, write_mesh

square = unit_square_mesh(8)
print("unit square, n=8")
print("  vertices =", square.num_vertices)
print("  triangles =", square.num_triangles)
print("  boundary edges =", square.num_boundary_edges)
print("  area =", square.area())

disk = unit_disk_mesh(4)
print("polygonal unit disk, 4 rings")
print("  vertices =", disk.num_vertices)
print("  area =", disk.area(), " (pi =", np.pi, ")")

# uniform refinement quarters every triangle and preserves the area exactly
fine = refine_uniform(disk)
print("after refinement:", fine.num_triangles, "triangles, area =", fine.area())

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "disk.mesh"
    write_mesh(fine, path)
    again = read_mesh(path)
    print("file round trip bit-identical:", np.array_equal(again.vertices, fine.vertices))
