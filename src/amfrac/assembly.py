"""Bilinear-quadrilateral evaluation and assembly of energies, gradients,
operators and field norms.

All integrals use the 2x2 Gauss rule; the same quadrature backs the total
energy, its partial gradients, the stiffness/damage operators and the
L^alpha field norm, so the staggered solvers minimize exactly the assembled
energy.

Per-mesh data is cached on first use (meshes are immutable after
construction), in ``element_data(mesh)``:

- built with the cache: Gauss-point shape values, Jacobian weights,
  gradients and strain matrices, and the lumped nodal weights.  The shape
  values and reference gradients of the rule are module constants.  Each
  Jacobian entry is one (nel, nq) array for all Gauss points at once:
  coordinate times reference gradient, summed over the four nodes in
  turn.  One check rejects a det that is not positive and finite at any
  point; then come the inverse entries, ``dNdx[..., i] = g_x inv_0i + g_y
  inv_1i`` and ``wdet = w_q det``.  A nodal field reaches the Gauss points
  by one gather (``gauss``) and Gauss-point values return to the nodes by
  one ``np.bincount`` (``scatter``); the energy, the stiffness, the lumped
  weights and the L^alpha ball all go through these two;
- built when first needed: one ``SparsePattern`` for the n-node operators
  (and one for the 2n-dof stiffness, which only ``assemble_K`` reads),
  with the map from element entries to CSR data slots.  Every operator is
  then a data vector on its pattern: assembly is one ``np.bincount`` and
  ``Q = H + c1 M + c2 L`` is arithmetic on data vectors.  Also the mass
  and Laplacian data and the H1 Gram matrix.  The Laplacian's element
  entries are a running total over the Gauss points in turn, from zero, of
  ``(w_q g_x)_a g_x,b + (w_q g_y)_a g_y,b``;
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
- built when first needed: the strain-displacement matrices ``B`` and the
  strain and gradient operators of all Gauss points of an element in one
  matrix each (``strain_op``, a view of ``B``, and ``grad_op``), so a
  field's strains or gradients are one batched product;
- for the last input only (``memo``), keyed on the material model, which
  cannot change: the element products ``B' C B``; the damage quadratic's
  terms that do not depend on ``u``: ``kappa_E (M + L)`` for ANALYSIS,
  and ``c1 M``, ``c2 L``, ``b = c1 M 1`` and ``g_c/(4 theta)`` times the
  area for AT; and, keyed also on the bytes of ``u``, the Gauss-point
  elastic density and the damage quadratic ``z_quadratic``.  The damage
  solve, the energy and the dual distance of one step then share one
  evaluation.  The key holds the model, so its id cannot be reused while
  the entry lives.  ``B' C B`` has two non-zero products in each
  node-pair block of a plane-strain ``C`` (``_btcb``).

The summation orders above are a contract: the bits of every trace
depend on them.  They are the orders of the ``np.einsum`` calls that these
sums replaced (its C loop sums from +0.0, so an exact zero is +0.0), in a
third to a half of their time.  A ``matmul`` is as fast, but it sums in
BLAS's order: on the ``lshape`` preset mesh it moves ``wdet`` by up to
3e-14 relative, and with it every field record.
"""

from __future__ import annotations

import copy
import math
import weakref
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

    @cached_property
    def _operator(self) -> sp.csr_matrix:
        return sp.csr_matrix((np.zeros(self.nnz), self.indices, self.indptr),
                             shape=(self.n, self.n))

    def matrix(self, data: np.ndarray) -> sp.csr_matrix:
        """The operator with data vector ``data`` (shared, not copied): a
        shallow copy of one operator of the pattern with its data replaced,
        so the pattern is checked once rather than by every construction."""
        op = copy.copy(self._operator)
        op.data = data
        return op


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


# The 2x2 rule on the reference square, the same for every mesh: shape
# values (q, a), their products (q, a, b) and gradients (q, a, j).
_N = np.array([shape_functions(*gp) for gp in GAUSS_POINTS_2X2])
_NN = _N[:, :, None] * _N[:, None, :]
_DN = np.array([shape_gradients(*gp) for gp in GAUSS_POINTS_2X2])
for _a in (_N, _NN, _DN):
    _a.flags.writeable = False


class _ElementData:
    """Per-mesh quadrature cache."""

    def __init__(self, mesh: Mesh):
        xy = mesh.element_coords()  # (nel, 4, 2)
        nel = mesh.n_elements
        nq = len(GAUSS_POINTS_2X2)
        self.N, self.NN = _N, _NN
        gx, gy = _DN[..., 0], _DN[..., 1]  # (q,4) each

        def jac(c, g):
            """``sum_a c_ea g_qa`` over the nodes in turn, (nel, nq)."""
            return (c[:, 0, None] * g[:, 0] + c[:, 1, None] * g[:, 1]
                    + c[:, 2, None] * g[:, 2] + c[:, 3, None] * g[:, 3])

        x, y = xy[..., 0], xy[..., 1]
        with np.errstate(invalid="ignore", over="ignore"):  # checked below
            j00, j01, j10, j11 = (jac(x, gx), jac(x, gy), jac(y, gx),
                                  jac(y, gy))
            det = j00 * j11 - j01 * j10
        # one check for every Gauss point: NaN fails both comparisons, and
        # det is finite only where all of J is
        if not np.all((det > 0) & (det < np.inf)):
            raise ValueError("non-finite or non-positive Jacobian in mesh")
        i00, i11 = (j11 / det)[..., None], (j00 / det)[..., None]
        i01, i10 = (-j01 / det)[..., None], (-j10 / det)[..., None]
        self.wdet = GAUSS_WEIGHTS_2X2 * det
        self.dNdx = np.empty((nel, nq, 4, 2))
        self.dNdx[..., 0] = gx * i00 + gy * i10
        self.dNdx[..., 1] = gx * i01 + gy * i11

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

    # The patterns, the band order, the bands and the strain matrices are
    # built on first use: a mesh that is only measured never pays for them.
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
    def B(self) -> np.ndarray:
        """The strain-displacement matrices (nel, nq, 3, 8), engineering
        shear convention."""
        dNdx = self.dNdx
        B = np.zeros(dNdx.shape[:2] + (3, 8))
        B[:, :, 0, 0::2] = dNdx[:, :, :, 0]
        B[:, :, 1, 1::2] = dNdx[:, :, :, 1]
        B[:, :, 2, 0::2] = dNdx[:, :, :, 1]
        B[:, :, 2, 1::2] = dNdx[:, :, :, 0]
        return B

    @cached_property
    def strain_op(self) -> np.ndarray:
        """``B`` as (nel, 8, nq * 3), a view of it: entry ``[e, j, 3q + i]``
        is strain ``i`` at Gauss point ``q`` of element ``e`` per unit of
        its dof ``j``."""
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
        vals = np.zeros((self.conn.shape[0], 4, 4))
        for q in range(self.wdet.shape[1]):
            g = self.dNdx[:, q]
            wg = self.wdet[:, q, None, None] * g
            vals += (wg[:, :, None, 0] * g[:, None, :, 0]
                     + wg[:, :, None, 1] * g[:, None, :, 1])
        return self.node_pattern.matrix(self.node_pattern.fill(vals))

    @cached_property
    def h1_gram(self) -> sp.csr_matrix:
        """Gram matrix M + L of the H1 norm."""
        return self.node_pattern.matrix(self.mass.data + self.laplacian.data)

    def memo(self, name: str, key, build):
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
    (nel, nq).  Evaluated once for each distinct ``u`` and model in turn;
    the array is read-only."""
    def build():
        eps = strains_at_gauss(u, mesh)
        # one 2-D product and an explicit sum over the three components:
        # the same bits as the stacked product and ``.sum(-1)``, in a
        # fraction of the time
        ce = (eps.reshape(-1, 3) @ model.C).reshape(eps.shape) * eps
        psi = ce[..., 0] + ce[..., 1] + ce[..., 2]
        psi.flags.writeable = False
        return psi

    return element_data(mesh).memo("psi", (u.tobytes(), model), build)


# ---------------------------------------------------------------------------
# Energies and gradients
# ---------------------------------------------------------------------------

def total_energy(t: float, u: np.ndarray, z: np.ndarray, mesh: Mesh,
                 model: MaterialModel, load: LoadProgram) -> float:
    """Total stored energy minus the external-load pairing.

    In displacement control the loading enters through the boundary data,
    not through a load term.
    """
    _check_state_dims(mesh, u, z)
    data = element_data(mesh)
    psi = elastic_density_at_gauss(u, mesh, model)
    zq = data.gauss(z)
    gz = (z[data.conn][:, None, :] @ data.grad_op).reshape(
        zq.shape[0], 2, -1)
    gz_sq = gz[:, 0] * gz[:, 0] + gz[:, 1] * gz[:, 1]
    dens = (0.5 * degradation(zq, model.eta) * psi
            + fracture_density(zq, gz_sq, model))
    energy = float(np.sum(data.wdet * dens))
    f = load.force_vector(mesh, t)
    return energy - float(f @ u)


def element_stiffness(z: np.ndarray, mesh: Mesh,
                      model: MaterialModel) -> np.ndarray:
    """Element matrices of the degraded stiffness, (nel, 64): entry
    ``[e, 8a + b]`` couples the dofs ``a`` and ``b`` of element ``e``."""
    _check_state_dims(mesh, None, z)
    data = element_data(mesh)
    coef = data.wdet * degradation(data.gauss(z), model.eta)
    btcb = data.memo("btcb", model, lambda: _btcb(data, model.C))
    nel, nq = coef.shape
    return (coef[:, None, :] @ btcb.reshape(nel, nq, -1)).reshape(nel, -1)


def _btcb(data: _ElementData, C: np.ndarray) -> np.ndarray:
    """The products ``B' C B`` at every Gauss point, (nel, nq, 8, 8), for a
    plane-strain Voigt ``C``, whose shear row and column are zero but on
    the diagonal.  The block of dofs ``(a, r)`` and ``(b, s)`` (``r, s`` = 0
    for x, 1 for y) has two non-zero terms: ``(g_ar C_rs) g_bs + (g_ar'
    C_22) g_bs'`` with ``r' = 1 - r``."""
    if C[0, 2] or C[1, 2] or C[2, 0] or C[2, 1]:
        raise ValueError("B'C B needs a Voigt C with uncoupled shear")
    nel, nq = data.wdet.shape
    g = data.dNdx[..., 0, None], data.dNdx[..., 1, None]  # (nel, nq, 4, 1)
    out = np.empty((nel, nq, 4, 2, 4, 2))
    for r in (0, 1):
        for s in (0, 1):
            out[:, :, :, r, :, s] = (
                (g[r] * C[r, s]) * g[s].swapaxes(-1, -2)
                + (g[1 - r] * C[2, 2]) * g[1 - s].swapaxes(-1, -2))
    out += 0.0  # a sum from +0.0: an exact zero is +0.0, never -0.0
    return out.reshape(nel, nq, 8, 8)


def assemble_K(z: np.ndarray, mesh: Mesh, model: MaterialModel) -> sp.csr_matrix:
    """Degraded stiffness operator; symmetric, SPD after Dirichlet
    elimination because the degradation factor is bounded below by eta."""
    pattern = element_data(mesh).dof_pattern
    return pattern.matrix(pattern.fill(element_stiffness(z, mesh, model)))


def grad_u(t: float, u: np.ndarray, z: np.ndarray, mesh: Mesh,
           model: MaterialModel, load: LoadProgram) -> np.ndarray:
    """Assembled displacement residual K(z) u - f(t) (pre-elimination)."""
    _check_state_dims(mesh, u, z)
    K = assemble_K(z, mesh, model)
    return K @ u - load.force_vector(mesh, t)


def z_quadratic(u: np.ndarray, mesh: Mesh, model: MaterialModel):
    """Quadratic form of the damage-dependent energy at fixed displacement:

        energy(z; u) = 1/2 z' Q z - b' z + c0

    (load term excluded; it does not involve z).  Assembled once for each
    distinct ``u`` and material in turn: the damage solve and the step's
    diagnostics share it.  ``Q``'s data and ``b`` are read-only.
    """
    _check_state_dims(mesh, u, None)
    return element_data(mesh).memo("z_quadratic", (u.tobytes(), model),
                                   lambda: _z_quadratic(u, mesh, model))


def _z_constants(mesh: Mesh, model: MaterialModel):
    """The terms of ``_z_quadratic`` that do not depend on ``u``: the data
    added to ``H`` (one vector for ANALYSIS, ``c1 M`` and ``c2 L`` in turn
    for AT), ``b`` and the constant of ``c0``.  Kept for the last model."""
    data = element_data(mesh)

    def build():
        M, Klap = data.mass.data, data.laplacian.data
        n = mesh.n_nodes
        if model.preset == PRESET_AT:
            gc, th = model.g_c, model.theta
            terms = ((gc / (2.0 * th)) * M, (2.0 * gc * th) * Klap)
            b = (gc / (2.0 * th)) * (data.mass @ np.ones(n))
            c = gc / (4.0 * th) * float(data.wdet.sum())
        else:
            terms = (model.kappa_E * (M + Klap),)
            b = np.zeros(n)
            c = None
        b.flags.writeable = False
        return terms, b, c

    return data.memo("z_constants", model, build)


def _z_quadratic(u: np.ndarray, mesh: Mesh, model: MaterialModel):
    data = element_data(mesh)
    psi = elastic_density_at_gauss(u, mesh, model)
    q = data.node_operator(data.wdet * psi)
    e0 = 0.5 * model.eta * float(np.sum(data.wdet * psi))
    terms, b, c = _z_constants(mesh, model)
    for term in terms:  # summed in the order h + c1 M + c2 L
        q += term
    q.flags.writeable = False
    return data.node_pattern.matrix(q), b, e0 if c is None else c + e0


def grad_z(u: np.ndarray, z: np.ndarray, mesh: Mesh, model: MaterialModel):
    """Damage gradient of the energy.

    Returns ``(g, d)``: the assembled gradient vector and the nodal density
    ``d_i = g_i / w_i`` with lumped weights, the Riesz identification used
    by the pointwise dual-distance formula.
    """
    Q, b, _ = z_quadratic(u, mesh, model)
    g = Q @ z - b
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

def reaction_force(t: float, u: np.ndarray, z: np.ndarray, mesh: Mesh,
                   model: MaterialModel, load: LoadProgram) -> float:
    """Reaction along the load direction on the "loaded" node set (N)."""
    if load.mode != DIRICHLET_RAMP:
        raise ValueError("reaction_force is defined for displacement control only")
    r = grad_u(t, u, z, mesh, model, load)
    nodes = mesh.boundary_sets["loaded"]
    dx, dy = load.direction
    return float(dx * r[2 * nodes].sum() + dy * r[2 * nodes + 1].sum())
