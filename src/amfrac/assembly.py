"""Bilinear-quadrilateral evaluation and assembly of energies, gradients,
operators and field norms.

All integrals use the 2x2 Gauss rule; the same quadrature backs the total
energy, its partial gradients, the stiffness/damage operators and the
L^alpha field norm, so the staggered solvers minimize exactly the assembled
energy.

Per-mesh data is cached on first use (meshes are immutable after
construction), in ``element_data(mesh)``:

- built with the cache: Gauss-point shape values, Jacobian weights,
  gradients and strain matrices, and the lumped nodal weights.  A nodal
  field reaches the Gauss points by one gather (``gauss``) and Gauss-point
  values return to the nodes by one ``np.bincount`` (``scatter``); the
  energy, the stiffness, the lumped weights and the L^alpha ball all go
  through these two;
- built when first needed: one ``SparsePattern`` for the n-node operators
  (and one for the 2n-dof stiffness, which only ``assemble_K`` reads),
  with the map from element entries to CSR data slots.  Every operator is
  then a data vector on its pattern: assembly is one ``np.bincount`` and
  ``Q = H + c1 M + c2 L`` is arithmetic on data vectors.  Also the mass
  and Laplacian data and the H1 Gram matrix;
- built when first needed: one band ``order`` of the nodes, the narrower
  of the two coordinate sweeps, x-major and y-major (the x-major one on a
  tie).  On a tensor-product grid a sweep is a level structure line by
  line (Gibbs, Poole & Stockmeyer, SIAM J. Numer. Anal. 13, 1976) and its
  half-bandwidth is about the number of nodes on one line, so the sweep
  whose lines cross the fewer ticks wins.  A dof order takes both dofs of
  a node in turn, so its half-bandwidth is ``2 kd + 1``.  Every system the
  solvers factor is symmetric positive definite, so band Cholesky in that
  order applies.  Each ``Band`` maps an operator's entries into a LAPACK
  band array, filled by one ``np.bincount``: ``node_band`` from the
  node-pattern data vectors, whose rows a damage system pins to identity
  rows instead of gathering a sub-block, so that one band serves every
  active set; and, for the last Dirichlet mask, ``free_band`` from the
  element stiffness entries between two free dofs, so the displacement
  solve builds no CSR operator and no pinned rows;
- built when first needed: the strain and gradient operators of all Gauss
  points of an element in one matrix each (``strain_op``, ``grad_op``),
  so a field's strains or gradients are one batched product;
- for the last input only (``memo``): the element products ``B' C B`` of
  the last material; the Gauss-point elastic density and the damage
  quadratic ``z_quadratic``, keyed on the bytes of ``u`` and on the
  material fields they read.  The damage solve, the energy and the dual
  distance of one step then share one evaluation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import (
    GAUSS_POINTS_2X2,
    GAUSS_WEIGHTS_2X2,
    Mesh,
    shape_functions,
    shape_gradients,
)
from .model import (
    DIRICHLET_RAMP,
    LoadProgram,
    MaterialModel,
    NormSpec,
    PRESET_AT,
    degradation,
    fracture_density,
)

@dataclass(eq=False)
class State:
    """Solver state: physical time, nodal displacements (2 dofs/node) and
    nodal damage (1 dof/node)."""

    t: float
    u: np.ndarray
    z: np.ndarray


class SparsePattern:
    """CSR pattern of a symmetric operator assembled from element matrices.

    ``slot`` maps each element entry to its slot in the CSR data vector, so
    an assembly is one ``np.bincount`` (``fill``) and a sum of operators is
    a sum of data vectors.  Column indices are sorted.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, n: int):
        keys, self.slot = np.unique(rows.ravel() * n + cols.ravel(),
                                    return_inverse=True)
        self.n = n
        self.nnz = keys.size
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys // n, minlength=n), out=self.indptr[1:])

    def fill(self, vals: np.ndarray) -> np.ndarray:
        """Data vector of the operator with element entries ``vals``."""
        return np.bincount(self.slot, weights=vals.ravel(), minlength=self.nnz)

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The operator with data vector ``data`` (shared, not copied)."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))


class Band:
    """An operator on the unknowns outside the mask ``fixed``, as a band
    matrix in LAPACK lower band storage.

    The operator's entries have the rows ``rows`` and columns ``cols``:
    CSR slots, or element entries, which are summed where they repeat.
    ``dofs`` are the unknowns of the band in the order ``perm``: row ``i``
    of the band matrix is unknown ``dofs[i]``, and ``kd`` is its
    half-bandwidth.  ``where`` maps the entries ``entries`` that lie in the
    lower band into the column-major ``(kd + 1, n)`` band array, which
    holds entry ``(i, j)``, ``i >= j``, at ``[i - j, j]``.  ``couple`` are
    the entries from a row of the band to a fixed column, ``couple_rows``
    their band rows and ``couple_cols`` their fixed unknowns.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, perm: np.ndarray,
                 fixed: np.ndarray):
        self.dofs = perm[~fixed[perm]]
        n = self.n = self.dofs.size
        pos = np.full(fixed.size, -1)
        pos[self.dofs] = np.arange(n)
        cols = cols.ravel()
        prow, pcol = pos[rows.ravel()], pos[cols]
        lower = (prow >= pcol) & (pcol >= 0)
        self.entries = np.flatnonzero(lower)
        offset = prow[lower] - pcol[lower]
        self.kd = int(offset.max(initial=0))
        self.where = offset + (self.kd + 1) * pcol[lower]
        cross = (prow >= 0) & (pcol < 0)
        self.couple = np.flatnonzero(cross)
        self.couple_rows, self.couple_cols = prow[cross], cols[cross]

    @cached_property
    def _ends(self) -> tuple:
        """Band column and band row of each entry of ``where``."""
        col, offset = np.divmod(self.where, self.kd + 1)
        return col, col + offset

    def fill(self, vals: np.ndarray, pinned: np.ndarray | None = None
             ) -> np.ndarray:
        """Band array for the entry values ``vals``.  The rows of the mask
        ``pinned`` (over all unknowns) become identity rows: their
        off-diagonal entries, in row and column, are zero and their
        diagonal is one."""
        v = vals.ravel()[self.entries]
        if pinned is not None:
            p = pinned[self.dofs]
            col, row = self._ends
            v[p[col] | p[row]] = 0.0
        flat = np.bincount(self.where, weights=v,
                           minlength=(self.kd + 1) * self.n)
        if pinned is not None:
            flat[(self.kd + 1) * np.flatnonzero(p)] = 1.0
        return flat.reshape((self.kd + 1, self.n), order="F")

    def coupling(self, vals: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``A[band][:, fixed] @ u[fixed]`` in band order, for the entry
        values ``vals``."""
        return np.bincount(
            self.couple_rows,
            weights=vals.ravel()[self.couple] * u[self.couple_cols],
            minlength=self.n)


class _ElementData:
    """Per-mesh quadrature cache."""

    def __init__(self, mesh: Mesh):
        xy = mesh.element_coords()  # (nel, 4, 2)
        nel = mesh.n_elements
        nq = len(GAUSS_POINTS_2X2)
        self.N = np.array([shape_functions(*gp) for gp in GAUSS_POINTS_2X2])  # (q,4)
        self.NN = np.einsum("qa,qb->qab", self.N, self.N)  # (q,4,4)
        self.wdet = np.empty((nel, nq))
        self.dNdx = np.empty((nel, nq, 4, 2))
        for q, (xi, eta) in enumerate(GAUSS_POINTS_2X2):
            dN = shape_gradients(xi, eta)  # (4,2)
            J = np.einsum("eni,nj->eij", xy, dN)
            det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            if np.any(det <= 0):
                raise ValueError("non-positive Jacobian in mesh")
            Jinv = np.empty_like(J)
            Jinv[:, 0, 0] = J[:, 1, 1] / det
            Jinv[:, 1, 1] = J[:, 0, 0] / det
            Jinv[:, 0, 1] = -J[:, 0, 1] / det
            Jinv[:, 1, 0] = -J[:, 1, 0] / det
            self.wdet[:, q] = GAUSS_WEIGHTS_2X2[q] * det
            self.dNdx[:, q] = np.einsum("nj,eji->eni", dN, Jinv)

        # strain-displacement matrices, engineering shear convention
        self.B = np.zeros((nel, nq, 3, 8))
        self.B[:, :, 0, 0::2] = self.dNdx[:, :, :, 0]
        self.B[:, :, 1, 1::2] = self.dNdx[:, :, :, 1]
        self.B[:, :, 2, 0::2] = self.dNdx[:, :, :, 1]
        self.B[:, :, 2, 1::2] = self.dNdx[:, :, :, 0]

        conn = mesh.elements
        self.conn = conn
        self.n_nodes = mesh.n_nodes
        self.node_xy = mesh.nodes
        self.udofs = np.empty((nel, 8), dtype=np.int64)
        self.udofs[:, 0::2] = 2 * conn
        self.udofs[:, 1::2] = 2 * conn + 1

        # w_i = integral of the i-th hat function
        self.lumped = self.scatter(self.wdet)
        self.lumped.flags.writeable = False
        self._last = {}

    def gauss(self, v: np.ndarray) -> np.ndarray:
        """Values ``v_q`` of the nodal field ``v`` at the Gauss points,
        (nel, nq)."""
        return v[self.conn] @ self.N.T

    def scatter(self, c: np.ndarray) -> np.ndarray:
        """Nodal vector ``sum_q c_eq N_qa`` summed over the elements at each
        node ``a``, for Gauss-point values ``c`` (nel, nq): the transpose of
        ``gauss``."""
        return np.bincount(self.conn.ravel(), weights=(c @ self.N).ravel(),
                           minlength=self.n_nodes)

    # The patterns, the band order and the bands are built on first use: a
    # mesh that is only measured never pays for them.
    @cached_property
    def order(self) -> np.ndarray:
        """The band order of the nodes: the narrower of the two coordinate
        sweeps, x-major and y-major, measured on the element connectivity
        (the x-major one on a tie).  On a tensor-product grid each orders
        the nodes line by line, so a node couples only to the neighbouring
        lines."""
        x, y = self.node_xy.T

        def width(sweep):
            return np.ptp(np.argsort(sweep)[self.conn], axis=1).max(initial=0)

        return min(np.lexsort((y, x)), np.lexsort((x, y)), key=width)

    @cached_property
    def dof_pattern(self) -> SparsePattern:
        """Pattern of the 2n-dof operators (stiffness)."""
        return SparsePattern(np.repeat(self.udofs, 8, axis=1),
                             np.tile(self.udofs, (1, 8)), 2 * self.n_nodes)

    def free_band(self, mask: np.ndarray) -> Band:
        """The stiffness band of the free dofs of the Dirichlet ``mask``,
        filled from the element entries; the dofs of a node follow each
        other in the node ``order``.  Kept for the last mask."""
        return self.memo("free_band", mask.tobytes(), lambda: Band(
            np.repeat(self.udofs, 8, axis=1), np.tile(self.udofs, (1, 8)),
            np.column_stack([2 * self.order, 2 * self.order + 1]).ravel(),
            mask))

    @cached_property
    def strain_op(self) -> np.ndarray:
        """``B`` as (nel, 8, nq * 3): entry ``[e, j, 3q + i]`` is strain
        ``i`` at Gauss point ``q`` of element ``e`` per unit of its dof
        ``j``."""
        nel, nq = self.wdet.shape
        return self.B.transpose(0, 3, 1, 2).reshape(nel, 8, nq * 3)

    @cached_property
    def grad_op(self) -> np.ndarray:
        """The shape gradients as (nel, 4, 2 * nq): entry ``[e, a, i nq +
        q]`` is component ``i`` of the gradient of node ``a``'s shape
        function at Gauss point ``q`` of element ``e``."""
        nel, nq = self.wdet.shape
        return self.dNdx.transpose(0, 2, 3, 1).reshape(nel, 4, 2 * nq)

    @cached_property
    def node_pattern(self) -> SparsePattern:
        """Pattern of the n-node operators (mass, Laplacian, damage Hessian,
        ball curvature)."""
        return SparsePattern(np.repeat(self.conn, 4, axis=1),
                             np.tile(self.conn, (1, 4)), self.n_nodes)

    @cached_property
    def node_band(self) -> Band:
        """The band of the node-pattern operators, filled from their data
        vectors, in the node ``order``."""
        p = self.node_pattern
        return Band(np.repeat(np.arange(p.n), np.diff(p.indptr)), p.indices,
                    self.order, np.zeros(p.n, dtype=bool))

    def node_operator(self, gauss_coef: np.ndarray) -> np.ndarray:
        """Node-pattern data of ``sum_q c_eq N_qa N_qb`` over the elements,
        for Gauss-point coefficients ``c``."""
        nq = self.NN.shape[0]
        return self.node_pattern.fill(
            np.reshape(gauss_coef, (-1, nq)) @ self.NN.reshape(nq, -1))

    @cached_property
    def mass(self) -> sp.csr_matrix:
        return self.node_pattern.matrix(self.node_operator(self.wdet))

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        vals = np.einsum("eq,eqai,eqbi->eab", self.wdet, self.dNdx, self.dNdx)
        return self.node_pattern.matrix(self.node_pattern.fill(vals))

    @cached_property
    def h1_gram(self) -> sp.csr_matrix:
        """Gram matrix M + L of the H1 norm."""
        return self.node_pattern.matrix(self.mass.data + self.laplacian.data)

    def memo(self, name: str, key: tuple, build):
        """``build()``, remembered under ``name`` for the last ``key``
        only: a one-entry cache for values that each step asks for again
        with the same inputs."""
        last = self._last.get(name)
        if last is None or last[0] != key:
            last = self._last[name] = (key, build())
        return last[1]


_CACHE: "weakref.WeakKeyDictionary[Mesh, _ElementData]" = weakref.WeakKeyDictionary()


def element_data(mesh: Mesh) -> _ElementData:
    data = _CACHE.get(mesh)
    if data is None:
        data = _ElementData(mesh)
        _CACHE[mesh] = data
    return data


def lumped_weights(mesh: Mesh) -> np.ndarray:
    """Per-node lumped weights w_i = integral of the i-th hat function with
    the 2x2 Gauss rule.  They are positive and sum to the mesh area.  The
    array is cached per mesh and read-only."""
    return element_data(mesh).lumped


norm_quadrature_weights = lumped_weights  # public name, exported by amfrac


def mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    return element_data(mesh).mass


# ---------------------------------------------------------------------------
# Gauss-point fields
# ---------------------------------------------------------------------------

def _check_state_dims(mesh: Mesh, u: np.ndarray | None, z: np.ndarray | None):
    if u is not None and u.shape != (2 * mesh.n_nodes,):
        raise ValueError(
            f"displacement vector of size {u.shape} does not match mesh "
            f"({2 * mesh.n_nodes} dofs)"
        )
    if z is not None and z.shape != (mesh.n_nodes,):
        raise ValueError(
            f"damage vector of size {z.shape} does not match mesh "
            f"({mesh.n_nodes} nodes)"
        )


def strains_at_gauss(u: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Engineering strain (eps_xx, eps_yy, gamma_xy) at Gauss points,
    (nel, nq, 3)."""
    data = element_data(mesh)
    eps = u[data.udofs][:, None, :] @ data.strain_op
    return eps.reshape(data.wdet.shape + (3,))


def elastic_density_at_gauss(u: np.ndarray, mesh: Mesh,
                             model: MaterialModel) -> np.ndarray:
    """Undegraded elastic energy density (C eps):eps at Gauss points,
    (nel, nq).  Evaluated once for each distinct ``u`` and ``C`` in turn;
    the array is read-only."""
    def build():
        eps = strains_at_gauss(u, mesh)
        psi = ((eps @ model.C) * eps).sum(-1)
        psi.flags.writeable = False
        return psi

    return element_data(mesh).memo(
        "psi", (u.tobytes(), model.C.tobytes()), build)


# ---------------------------------------------------------------------------
# Energies and gradients
# ---------------------------------------------------------------------------

def total_energy(state: State, mesh: Mesh, model: MaterialModel,
                 load: LoadProgram) -> float:
    """Total stored energy minus the external-load pairing.

    In displacement control the loading enters through the boundary data,
    not through a load term.
    """
    _check_state_dims(mesh, state.u, state.z)
    data = element_data(mesh)
    psi = elastic_density_at_gauss(state.u, mesh, model)
    zq = data.gauss(state.z)
    gz = (state.z[data.conn][:, None, :] @ data.grad_op).reshape(
        zq.shape[0], 2, -1)
    gz_sq = gz[:, 0] * gz[:, 0] + gz[:, 1] * gz[:, 1]
    dens = (0.5 * degradation(zq, model.eta) * psi
            + fracture_density(zq, gz_sq, model))
    energy = float(np.sum(data.wdet * dens))
    f = load.force_vector(mesh, state.t)
    return energy - float(f @ state.u)


def element_stiffness(z: np.ndarray, mesh: Mesh,
                      model: MaterialModel) -> np.ndarray:
    """Element matrices of the degraded stiffness, (nel, 64): entry
    ``[e, 8a + b]`` couples the dofs ``a`` and ``b`` of element ``e``."""
    _check_state_dims(mesh, None, z)
    data = element_data(mesh)
    coef = data.wdet * degradation(data.gauss(z), model.eta)
    btcb = data.memo("btcb", model.C.tobytes(), lambda: np.einsum(
        "eqia,ij,eqjb->eqab", data.B, model.C, data.B))
    nel, nq = coef.shape
    return (coef[:, None, :] @ btcb.reshape(nel, nq, -1)).reshape(nel, -1)


def assemble_K(z: np.ndarray, mesh: Mesh, model: MaterialModel) -> sp.csr_matrix:
    """Degraded stiffness operator; symmetric, SPD after Dirichlet
    elimination because the degradation factor is bounded below by eta."""
    pattern = element_data(mesh).dof_pattern
    return pattern.matrix(pattern.fill(element_stiffness(z, mesh, model)))


def grad_u(state: State, mesh: Mesh, model: MaterialModel,
           load: LoadProgram) -> np.ndarray:
    """Assembled displacement residual K(z) u - f(t) (pre-elimination)."""
    _check_state_dims(mesh, state.u, state.z)
    K = assemble_K(state.z, mesh, model)
    return K @ state.u - load.force_vector(mesh, state.t)


def z_quadratic(u: np.ndarray, mesh: Mesh, model: MaterialModel):
    """Quadratic form of the damage-dependent energy at fixed displacement:

        energy(z; u) = 1/2 z' Q z - b' z + c0

    (load term excluded; it does not involve z).  Assembled once for each
    distinct ``u`` and material in turn: the damage solve and the step's
    diagnostics share it.  ``Q``'s data and ``b`` are read-only.
    """
    _check_state_dims(mesh, u, None)
    key = (u.tobytes(), model.C.tobytes(), model.preset, model.eta,
           model.g_c, model.theta, model.kappa_E)
    return element_data(mesh).memo(
        "z_quadratic", key, lambda: _z_quadratic(u, mesh, model))


def _z_quadratic(u: np.ndarray, mesh: Mesh, model: MaterialModel):
    data = element_data(mesh)
    psi = elastic_density_at_gauss(u, mesh, model)
    h = data.node_operator(data.wdet * psi)
    M, Klap = data.mass.data, data.laplacian.data
    n = mesh.n_nodes
    area = float(data.wdet.sum())
    e0 = 0.5 * model.eta * float(np.sum(data.wdet * psi))
    if model.preset == PRESET_AT:
        gc, th = model.g_c, model.theta
        q = h + (gc / (2.0 * th)) * M + (2.0 * gc * th) * Klap
        b = (gc / (2.0 * th)) * (data.mass @ np.ones(n))
        c0 = gc / (4.0 * th) * area + e0
    else:
        q = h + model.kappa_E * (M + Klap)
        b = np.zeros(n)
        c0 = e0
    q.flags.writeable = False
    b.flags.writeable = False
    return data.node_pattern.matrix(q), b, c0


def grad_z(state: State, mesh: Mesh, model: MaterialModel):
    """Damage gradient of the energy.

    Returns ``(g, d)``: the assembled gradient vector and the nodal density
    ``d_i = g_i / w_i`` with lumped weights, the Riesz identification used
    by the pointwise dual-distance formula.
    """
    Q, b, _ = z_quadratic(state.u, mesh, model)
    g = Q @ state.z - b
    return g, g / lumped_weights(mesh)


# ---------------------------------------------------------------------------
# Field norms
# ---------------------------------------------------------------------------

class VNorm:
    """The arc-length norm ``N(v) = ||v||_V`` of nodal fields on one mesh,
    through its power sum ``S``: ``N = S^(1/a)`` with ``S = sum_q w_q
    |v_q|^alpha`` and ``a = alpha`` (L^alpha), or ``S = v' G v`` and
    ``a = 2`` (H1).  The damage solve writes the ball ``N <= rho`` as
    ``S/a <= rho^a/a``: it has the same KKT points, and its Hessian is a
    plain sum over Gauss points, smooth at ``v = 0`` for ``a >= 2``.
    """

    def __init__(self, mesh: Mesh, norm: NormSpec):
        self.norm = norm
        self.data = element_data(mesh)
        self.a = 2.0 if norm.kind == "h1" else norm.alpha
        if norm.kind == "h1":
            self.G = self.data.h1_gram

    def _gauss(self, v: np.ndarray) -> np.ndarray:
        """``gauss(v)``, kept for the last ``v``: ``parts`` and ``curvature``
        of one bordered step share it."""
        return self.data.memo("ball_gauss", v.tobytes(),
                              lambda: self.data.gauss(v))

    def _eval(self, v: np.ndarray):
        """``N`` and what the derivatives of ``S`` read: ``G v`` (H1) or
        ``v_q`` (L^alpha)."""
        if self.norm.kind == "h1":
            Gv = self.G @ v
            return math.sqrt(float(v @ Gv)), Gv
        vq = self._gauss(v)
        S = float(np.sum(self.data.wdet * np.abs(vq) ** self.a))
        return S ** (1.0 / self.a), vq

    def value(self, v: np.ndarray) -> float:
        return self._eval(v)[0]

    def parts(self, v: np.ndarray):
        """``N`` and the gradient of ``S/a`` at v: ``G v`` (H1) or ``sum_q
        w_q sign(v_q) |v_q|^(alpha-1) N_q`` (L^alpha)."""
        N, p = self._eval(v)
        if self.norm.kind == "lalpha":
            p = self.data.scatter(
                np.copysign(self.data.wdet * np.abs(p) ** (self.a - 1.0), p))
        return N, p

    def curvature(self, v: np.ndarray) -> np.ndarray:
        """Node-pattern data of the Hessian of ``S/a`` at v: ``G`` (H1) or
        ``(alpha - 1) sum_q w_q |v_q|^(alpha-2) N_q N_q'`` (L^alpha), which
        for ``alpha < 2`` is infinite where some ``v_q = 0``."""
        if self.norm.kind == "h1":
            return self.G.data
        D = self.data.wdet * np.abs(self._gauss(v)) ** (self.a - 2.0)
        return self.data.node_operator((self.a - 1.0) * D)


def field_norm_V(dz: np.ndarray, mesh: Mesh, norm: NormSpec) -> float:
    """Norm of a nodal increment field used by the arc-length ball."""
    _check_state_dims(mesh, None, dz)
    return VNorm(mesh, norm).value(dz)


def dual_norm_lumped(d: np.ndarray, weights: np.ndarray, norm: NormSpec) -> float:
    """Lumped dual norm of a nodal density ``d``: ``(sum_i w_i |d_i|^alpha')
    ^(1/alpha')`` with ``alpha' = alpha / (alpha - 1)`` for the L^alpha
    ball, an L^2 surrogate for the H1 ball.  A functional vector ``g``
    has the density ``g / weights``."""
    if norm.kind == "lalpha":
        ap = norm.alpha / (norm.alpha - 1.0)
        return float(np.sum(weights * np.abs(d) ** ap) ** (1.0 / ap))
    return float(np.sqrt(np.sum(weights * d ** 2)))


# ---------------------------------------------------------------------------
# Reactions
# ---------------------------------------------------------------------------

def reaction_force(state: State, mesh: Mesh, model: MaterialModel,
                   load: LoadProgram, node_set: str = "loaded") -> float:
    """Reaction along the load direction on a Dirichlet node set (N)."""
    if load.mode != DIRICHLET_RAMP:
        raise ValueError("reaction_force is defined for displacement control only")
    r = grad_u(state, mesh, model, load)
    nodes = mesh.boundary_sets[node_set]
    d = np.asarray(load.direction)
    return float(d[0] * r[2 * nodes].sum() + d[1] * r[2 * nodes + 1].sum())
