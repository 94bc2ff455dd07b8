"""Structured quadrilateral meshes for the fracture specimens.

Two specimen families are supported: a unit-square compact-tension style
plate with a zero-width mid-height slit, and an L-shaped plate.  Both are
built as graded tensor-product grids (cell sizes halve in bands toward the
refined region), which keeps the mesh conforming without hanging nodes.
All coordinates are quantized to the fine cell size, so geometric anchors
(notch line, re-entrant corner) always coincide with grid lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MeshConfigError(ValueError):
    """Raised for inconsistent mesh generation requests."""


# 2x2 Gauss rule on [-1, 1]^2 (reference square)
_GP = 1.0 / math.sqrt(3.0)
GAUSS_POINTS_2X2 = np.array(
    [(-_GP, -_GP), (_GP, -_GP), (_GP, _GP), (-_GP, _GP)]
)
GAUSS_WEIGHTS_2X2 = np.ones(4)


def shape_functions(xi: float, eta: float) -> np.ndarray:
    """Bilinear shape functions on the reference square, CCW node order."""
    return 0.25 * np.array(
        [
            (1 - xi) * (1 - eta),
            (1 + xi) * (1 - eta),
            (1 + xi) * (1 + eta),
            (1 - xi) * (1 + eta),
        ]
    )


def shape_gradients(xi: float, eta: float) -> np.ndarray:
    """Reference-coordinate gradients of the bilinear shape functions, (4, 2)."""
    return 0.25 * np.array(
        [
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -(1 + xi)],
            [(1 + eta), (1 + xi)],
            [-(1 + eta), (1 - xi)],
        ]
    )


@dataclass(eq=False)
class Mesh:
    """Conforming 4-node quadrilateral mesh.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array
        Node coordinates in mm.
    elements : (n_elements, 4) int array
        Counter-clockwise connectivity.
    boundary_sets : dict[str, np.ndarray]
        Named node index sets; every specimen provides "clamped" and
        "loaded".
    notch_faces : list[tuple[tuple[int, int], tuple[int, int]]]
        Pairs of coincident edges forming the zero-width slit; empty when
        the mesh has no slit.

    The mesh is immutable after construction and safe to share read-only.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_sets: dict = field(default_factory=dict)
    notch_faces: list = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_coords(self) -> np.ndarray:
        """Coordinates of the 4 nodes of every element, (n_elements, 4, 2)."""
        return self.nodes[self.elements]

    def element_areas(self) -> np.ndarray:
        """Element areas by the shoelace formula."""
        xy = self.element_coords()
        x, y = xy[:, :, 0], xy[:, :, 1]
        return 0.5 * np.abs(
            np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        )

    def area(self) -> float:
        return float(self.element_areas().sum())

    def notch_node_pairs(self) -> list:
        """Distinct (original, duplicate) node pairs along the slit."""
        pairs = set()
        for (a0, a1), (b0, b1) in self.notch_faces:
            if a0 != b0:
                pairs.add((a0, b0))
            if a1 != b1:
                pairs.add((a1, b1))
        return sorted(pairs)


def _graded_cell_sizes(gap_units: int, coarse_units: int, fine: float) -> list:
    """Cell sizes (outward from the fine band) covering ``gap_units`` of fine
    cells, doubling until the coarse size is reached.  All sizes lie in
    [fine, coarse_units*fine] and sum exactly to ``gap_units*fine``."""
    if gap_units <= 0:
        return []
    sizes_units = []
    step = 1
    used = 0
    while True:
        step = min(2 * step, coarse_units)
        if used + step > gap_units or step >= coarse_units:
            break
        sizes_units.append(step)
        used += step
    rem = gap_units - used
    n_fill, r = divmod(rem, coarse_units)
    if r > 0:
        sizes_units.append(r)
    sizes_units.extend([coarse_units] * n_fill)
    return [s * fine for s in sizes_units]


def _to_units(value: float, fine: float, what: str) -> int:
    units = value / fine
    if abs(units - round(units)) > 1e-9 * max(1.0, abs(units)):
        raise MeshConfigError(
            f"{what} = {value} is not an integer multiple of fine_h = {fine}"
        )
    return int(round(units))


def graded_ticks(length: float, coarse_h: float, fine_h: float,
                 band: tuple | None) -> np.ndarray:
    """1D grid coordinates on [0, length] with spacing ``fine_h`` inside
    ``band`` and graded (size-doubling) cells toward ``coarse_h`` outside."""
    if fine_h <= 0 or coarse_h <= 0:
        raise MeshConfigError("cell sizes must be positive")
    if fine_h > coarse_h:
        raise MeshConfigError(f"fine_h = {fine_h} exceeds coarse_h = {coarse_h}")
    n_total = _to_units(length, fine_h, "domain length")
    coarse_units = max(1, int(coarse_h / fine_h + 1e-9))
    if band is None:
        band_lo = band_hi = 0
    else:
        lo, hi = band
        lo, hi = max(0.0, lo), min(length, hi)
        if hi <= lo:
            raise MeshConfigError(f"degenerate refinement band {band}")
        # snap the requested band outward onto the fine grid
        band_lo = int(math.floor(lo / fine_h + 1e-9))
        band_hi = int(math.ceil(hi / fine_h - 1e-9))
        band_lo = max(0, min(band_lo, n_total))
        band_hi = max(band_lo, min(band_hi, n_total))
    sizes = list(reversed(_graded_cell_sizes(band_lo, coarse_units, fine_h)))
    sizes += [fine_h] * (band_hi - band_lo)
    sizes += _graded_cell_sizes(n_total - band_hi, coarse_units, fine_h)
    ticks = np.concatenate([[0.0], np.cumsum(sizes)])
    ticks[-1] = length
    return ticks


def _tensor_grid(xt: np.ndarray, yt: np.ndarray):
    nx, ny = len(xt) - 1, len(yt) - 1
    X, Y = np.meshgrid(xt, yt)  # row-major in y
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(i, j):
        return j * (nx + 1) + i

    elems = []
    for j in range(ny):
        for i in range(nx):
            elems.append([nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)])
    return nodes, np.array(elems, dtype=np.int64), nid


def build_ct_mesh(side_len: float, coarse_h: float, fine_h: float,
                  refine_band: tuple | None = None,
                  notch: bool = True) -> Mesh:
    """Square plate of ``side_len`` with an optional mid-height slit.

    The slit runs from the left edge to mid-span at half height and is
    realized by node duplication, so the two lips share coordinates but no
    stiffness coupling.  ``refine_band`` is ``((x0, x1), (y0, y1))``; the
    default refines the expected crack corridor ahead of the slit tip.
    Boundary sets: "clamped" (left edge) and "loaded" (right edge).
    """
    L = float(side_len)
    if refine_band is None:
        if fine_h < coarse_h:
            refine_band = ((0.45 * L, L), (0.375 * L, 0.625 * L))
        else:
            refine_band = None
    if refine_band is not None:
        (x0, x1), (y0, y1) = refine_band
        if not (0 <= x0 < x1 <= L and 0 <= y0 < y1 <= L):
            raise MeshConfigError(f"refinement band {refine_band} outside domain")
        xband, yband = (x0, x1), (y0, y1)
    else:
        xband = yband = None

    xt = graded_ticks(L, coarse_h, fine_h, xband)
    yt = graded_ticks(L, coarse_h, fine_h, yband)

    y_mid = 0.5 * L
    x_tip = 0.5 * L
    if notch:
        # slit line and tip must be grid lines
        if not np.any(np.isclose(yt, y_mid, atol=1e-12 * L)):
            raise MeshConfigError("mid-height slit line is not a grid line")
        if not np.any(np.isclose(xt, x_tip, atol=1e-12 * L)):
            raise MeshConfigError("slit tip is not on a grid line")

    nodes, elements, nid = _tensor_grid(xt, yt)
    nx, ny = len(xt) - 1, len(yt) - 1

    left = np.array([nid(0, j) for j in range(ny + 1)], dtype=np.int64)
    right = np.array([nid(nx, j) for j in range(ny + 1)], dtype=np.int64)

    notch_faces = []
    if notch:
        j_mid = int(np.argmin(np.abs(yt - y_mid)))
        slit_cols = [i for i in range(nx + 1) if xt[i] < x_tip - 1e-12 * L]
        dup_of = {}
        new_nodes = []
        for i in slit_cols:
            n = nid(i, j_mid)
            dup_of[n] = nodes.shape[0] + len(new_nodes)
            new_nodes.append(nodes[n])
        if new_nodes:
            nodes = np.vstack([nodes, np.array(new_nodes)])
        # elements whose bottom edge lies on the slit switch to the duplicates
        elements = elements.copy()
        for j in (j_mid,):
            if j >= ny:
                continue
            for i in range(nx):
                e = j * nx + i
                conn = elements[e]
                elements[e] = [dup_of.get(n, n) for n in conn]
        # coincident edge pairs along the slit
        cols = slit_cols + [int(np.argmin(np.abs(xt - x_tip)))]
        for a, b in zip(cols[:-1], cols[1:]):
            n0, n1 = nid(a, j_mid), nid(b, j_mid)
            notch_faces.append(
                ((n0, n1), (dup_of.get(n0, n0), dup_of.get(n1, n1)))
            )
        if dup_of:
            # both slit lips at x=0 belong to the clamped edge
            extra = [dup_of[n] for n in left if n in dup_of]
            left = np.concatenate([left, np.array(extra, dtype=np.int64)])

    return Mesh(
        nodes=nodes,
        elements=elements,
        boundary_sets={"clamped": np.sort(left), "loaded": np.sort(right)},
        notch_faces=notch_faces,
    )


def build_lshape_mesh(leg_len: float, coarse_h: float, fine_h: float,
                      refine_band: tuple | None = None) -> Mesh:
    """L-shaped plate: the (2*leg_len)^2 square minus its upper-right
    quadrant.  Refinement concentrates around the re-entrant corner where
    the crack initiates.  Boundary sets: "clamped" (bottom edge) and
    "loaded" (top face of the right leg within one coarse cell of its tip).
    """
    leg = float(leg_len)
    S = 2.0 * leg
    if refine_band is None:
        if fine_h < coarse_h:
            refine_band = ((0.34 * S, 0.54 * S), (0.44 * S, 0.55 * S))
        else:
            refine_band = None
    if refine_band is not None:
        (x0, x1), (y0, y1) = refine_band
        xband, yband = (x0, x1), (y0, y1)
    else:
        xband = yband = None

    xt = graded_ticks(S, coarse_h, fine_h, xband)
    yt = graded_ticks(S, coarse_h, fine_h, yband)
    for ticks, name in ((xt, "x"), (yt, "y")):
        if not np.any(np.isclose(ticks, leg, atol=1e-12 * S)):
            raise MeshConfigError(f"re-entrant corner is not on a {name} grid line")

    nodes_full, elements_full, _ = _tensor_grid(xt, yt)
    centers = nodes_full[elements_full].mean(axis=1)
    keep = ~((centers[:, 0] > leg) & (centers[:, 1] > leg))
    elements_kept = elements_full[keep]

    used = np.unique(elements_kept)
    remap = -np.ones(nodes_full.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    nodes = nodes_full[used]
    elements = remap[elements_kept]

    tol = 1e-9 * S
    clamped = np.where(np.abs(nodes[:, 1]) < tol)[0]
    on_leg_top = (np.abs(nodes[:, 1] - leg) < tol) & (nodes[:, 0] >= S - coarse_h - tol)
    loaded = np.where(on_leg_top)[0]
    if loaded.size == 0 or clamped.size == 0:
        raise MeshConfigError("empty boundary set on L-shaped plate")

    return Mesh(
        nodes=nodes,
        elements=elements.astype(np.int64),
        boundary_sets={"clamped": clamped.astype(np.int64),
                       "loaded": loaded.astype(np.int64)},
        notch_faces=[],
    )

