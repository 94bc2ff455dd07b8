"""Legacy ASCII VTK export (UNSTRUCTURED_GRID, cell type 9)."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh


def write_vtk(path, mesh: Mesh, point_scalars: dict | None = None,
              point_vectors: dict | None = None):
    """Write the mesh and nodal fields as a legacy VTK file.

    ``point_scalars`` maps names to (n_nodes,) arrays, ``point_vectors`` to
    (n_nodes, 2) or flat (2*n_nodes,) arrays (padded with z = 0).
    """
    point_scalars = point_scalars or {}
    point_vectors = point_vectors or {}
    n, m = mesh.n_nodes, mesh.n_elements
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 2.0\n")
        f.write("amfrac fields\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {n} double\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.10g} {y:.10g} 0\n")
        f.write(f"CELLS {m} {5 * m}\n")
        for conn in mesh.elements:
            f.write("4 " + " ".join(str(int(c)) for c in conn) + "\n")
        f.write(f"CELL_TYPES {m}\n")
        f.write("9\n" * m)
        if point_scalars or point_vectors:
            f.write(f"POINT_DATA {n}\n")
        for name, vals in point_scalars.items():
            f.write(f"SCALARS {name} double\n")
            f.write("LOOKUP_TABLE default\n")
            for v in np.asarray(vals):
                f.write(f"{v:.10g}\n")
        for name, vals in point_vectors.items():
            arr = np.asarray(vals)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 2)
            f.write(f"VECTORS {name} double\n")
            for vx, vy in arr:
                f.write(f"{vx:.10g} {vy:.10g} 0\n")
