"""Structured quadrilateral meshes for the fracture specimens.

Two specimen families are supported: a unit-square compact-tension style
plate with a zero-width mid-height slit, and an L-shaped plate.  Both are
graded tensor-product grids (cell sizes halve in bands toward the refined
region), which keeps the mesh conforming without hanging nodes, and both
builders are index arithmetic on the one grid of ``_tensor_grid``: the slit
duplicates the slit-row nodes left of its tip, and the L-shape drops the
cells of the cut quadrant.  No list of slit edges is kept; the two lips are
the pairs of coincident nodes.  All coordinates are quantized to the fine
cell size, so geometric anchors (notch line, re-entrant corner) always
coincide with grid lines.
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

    A zero-width slit is a row of duplicated nodes: each lip node and its
    duplicate share coordinates and no element.

    The mesh is immutable after construction and safe to share read-only.
    """

    nodes: np.ndarray
    elements: np.ndarray
    boundary_sets: dict = field(default_factory=dict)

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
    coarse_units = _to_units(coarse_h, fine_h, "coarse_h")
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
    """Nodes of the tensor grid ``xt`` x ``yt``, row-major (x fastest), and
    its cells, row-major, as counter-clockwise elements."""
    nx, ny = len(xt) - 1, len(yt) - 1
    X, Y = np.meshgrid(xt, yt)
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    n = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1)
         + np.arange(nx, dtype=np.int64)).ravel()
    elements = np.column_stack([n, n + 1, n + nx + 2, n + nx + 1])
    return nodes, elements


def _axis_bands(refine_band, default, coarse_h: float, fine_h: float):
    """Refinement bands ``(xband, yband)``: ``refine_band`` if given, else
    ``default`` on a graded grid (``fine_h < coarse_h``) and no band,
    ``(None, None)``, on a uniform one."""
    if refine_band is not None:
        return refine_band
    return default if fine_h < coarse_h else (None, None)


def check_slit_on_grid(x, y, side_len: float) -> None:
    """Raise ``MeshConfigError`` unless the mid-height slit line and the
    slit tip of a plate of ``side_len`` lie on the grid lines through the
    x and y coordinates ``x`` and ``y``."""
    half = 0.5 * side_len
    if not np.any(np.isclose(y, half, atol=1e-12 * side_len)):
        raise MeshConfigError("mid-height slit line is not a grid line")
    if not np.any(np.isclose(x, half, atol=1e-12 * side_len)):
        raise MeshConfigError("slit tip is not on a grid line")


def build_ct_mesh(side_len: float, coarse_h: float, fine_h: float,
                  refine_band: tuple | None = None,
                  notch: bool = True) -> Mesh:
    """Square plate of ``side_len`` with an optional mid-height slit.

    The slit runs from the left edge to mid-span at half height and is
    realized by node duplication, so the two lips share coordinates but no
    stiffness coupling.  ``refine_band`` is ``((x0, x1), (y0, y1))``; the
    default refines the expected crack corridor ahead of the slit tip.
    Boundary sets: "clamped" (left edge, both lips at the slit mouth) and
    "loaded" (right edge).
    """
    L = float(side_len)
    xband, yband = _axis_bands(
        refine_band, ((0.45 * L, L), (0.375 * L, 0.625 * L)), coarse_h, fine_h)
    if xband is not None and not all(0 <= lo < hi <= L for lo, hi in (xband, yband)):
        raise MeshConfigError(f"refinement band {(xband, yband)} outside domain")

    xt = graded_ticks(L, coarse_h, fine_h, xband)
    yt = graded_ticks(L, coarse_h, fine_h, yband)

    y_mid = 0.5 * L
    x_tip = 0.5 * L
    if notch:
        check_slit_on_grid(xt, yt, L)

    nodes, elements = _tensor_grid(xt, yt)
    nx = len(xt) - 1
    left = np.arange(0, nodes.shape[0], nx + 1, dtype=np.int64)
    right = left + nx

    if notch:
        # the slit-row nodes left of the tip get duplicates, and the row of
        # elements above the slit moves onto them; the tip node stays single
        j_mid = int(np.argmin(np.abs(yt - y_mid)))
        lip = j_mid * (nx + 1) + np.flatnonzero(xt < x_tip - 1e-12 * L)
        to_dup = np.arange(nodes.shape[0] + lip.size, dtype=np.int64)
        to_dup[lip] = to_dup[nodes.shape[0]:]
        row = slice(j_mid * nx, (j_mid + 1) * nx)
        elements[row] = to_dup[elements[row]]
        nodes = np.vstack([nodes, nodes[lip]])
        left = np.append(left, to_dup[lip[0]])

    return Mesh(nodes, elements, {"clamped": left, "loaded": right})


def build_lshape_mesh(leg_len: float, coarse_h: float, fine_h: float,
                      refine_band: tuple | None = None) -> Mesh:
    """L-shaped plate: the (2*leg_len)^2 square minus its upper-right
    quadrant.  Refinement concentrates around the re-entrant corner where
    the crack initiates.  Boundary sets: "clamped" (bottom edge) and
    "loaded" (top face of the right leg within one coarse cell of its tip).
    """
    leg = float(leg_len)
    S = 2.0 * leg
    xband, yband = _axis_bands(
        refine_band, ((0.34 * S, 0.54 * S), (0.44 * S, 0.55 * S)), coarse_h, fine_h)
    xt = graded_ticks(S, coarse_h, fine_h, xband)
    yt = graded_ticks(S, coarse_h, fine_h, yband)
    for ticks, name in ((xt, "x"), (yt, "y")):
        if not np.any(np.isclose(ticks, leg, atol=1e-12 * S)):
            raise MeshConfigError(f"re-entrant corner is not on a {name} grid line")

    nodes, elements = _tensor_grid(xt, yt)
    centers = nodes[elements].mean(axis=1)
    elements = elements[~((centers[:, 0] > leg) & (centers[:, 1] > leg))]
    # drop the nodes of the cut quadrant and number the rest in grid order
    used, inverse = np.unique(elements, return_inverse=True)
    nodes = nodes[used]
    elements = inverse.reshape(elements.shape)

    tol = 1e-9 * S
    clamped = np.flatnonzero(np.abs(nodes[:, 1]) < tol)
    loaded = np.flatnonzero((np.abs(nodes[:, 1] - leg) < tol)
                            & (nodes[:, 0] >= S - coarse_h - tol))
    if loaded.size == 0 or clamped.size == 0:
        raise MeshConfigError("empty boundary set on L-shaped plate")

    return Mesh(nodes, elements, {"clamped": clamped, "loaded": loaded})
