"""Independent reference implementations used as test oracles.

Everything here is written with its own shape functions, its own Gauss
rules (arbitrary order via numpy.polynomial) and, but for the vectorized
L^alpha norm, plain element loops, so a disagreement with the package
points at the package.  The mesh references are the loop builders that the
array builders of ``amfrac.mesh`` replaced; they share only the 1D ticks
(``graded_ticks``) with the package.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import scipy.sparse as sp

from amfrac.mesh import graded_ticks


def gauss_rule(order: int):
    """Tensor-product Gauss points/weights on [-1, 1]^2."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    points, weights = [], []
    for i, xi in enumerate(pts):
        for j, eta in enumerate(pts):
            points.append((xi, eta))
            weights.append(wts[i] * wts[j])
    return np.array(points), np.array(weights)


def ref_shape(xi, eta):
    return 0.25 * np.array([
        (1 - xi) * (1 - eta),
        (1 + xi) * (1 - eta),
        (1 + xi) * (1 + eta),
        (1 - xi) * (1 + eta),
    ])


def ref_shape_grad(xi, eta):
    return 0.25 * np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -(1 + xi)],
        [(1 + eta), (1 + xi)],
        [-(1 + eta), (1 - xi)],
    ])


def element_quadrature(coords, order):
    """Yields (weight*detJ, N, dNdx) at each Gauss point of one element."""
    points, weights = gauss_rule(order)
    for (xi, eta), wq in zip(points, weights):
        N = ref_shape(xi, eta)
        dN = ref_shape_grad(xi, eta)
        J = coords.T @ dN  # (2, 2)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        dNdx = dN @ np.linalg.inv(J)
        yield wq * det, N, dNdx


def ref_mass_matrix(mesh, order=2):
    n = mesh.n_nodes
    M = np.zeros((n, n))
    for conn in mesh.elements:
        coords = mesh.nodes[conn]
        for w, N, _ in element_quadrature(coords, order):
            M[np.ix_(conn, conn)] += w * np.outer(N, N)
    return M


def ref_element_stiffness(coords, C, degradation, order=2):
    """8x8 plane-strain stiffness of one element with a constant
    degradation factor."""
    K = np.zeros((8, 8))
    for w, _, dNdx in element_quadrature(coords, order):
        B = np.zeros((3, 8))
        B[0, 0::2] = dNdx[:, 0]
        B[1, 1::2] = dNdx[:, 1]
        B[2, 0::2] = dNdx[:, 1]
        B[2, 1::2] = dNdx[:, 0]
        K += w * degradation * (B.T @ C @ B)
    return K


def ref_btcb(B, C):
    """Products ``B' C B`` of the strain matrices ``B`` (nel, nq, 3, 8) at
    each element and Gauss point, (nel, nq, 8, 8), by one einsum."""
    return np.einsum("eqia,ij,eqjb->eqab", B, C, B)


def ref_gauss_interpolation(mesh, order=2):
    """Interpolation of nodal fields to the Gauss points as a sparse
    operator ``P`` built from COO triplets, one row per element and Gauss
    point, and the weights ``w`` (Gauss weight times Jacobian) of its
    rows."""
    rows, cols, vals, w = [], [], [], []
    for conn in mesh.elements:
        for wq, N, _ in element_quadrature(mesh.nodes[conn], order):
            rows += [len(w)] * 4
            cols += list(conn)
            vals += list(N)
            w.append(wq)
    P = sp.coo_matrix((vals, (rows, cols)), shape=(len(w), mesh.n_nodes))
    return P.tocsr(), np.array(w)


def ref_total_energy(t, u, z, mesh, model, load, order=4):
    """Total energy with an arbitrary Gauss order, independent loops."""
    total = 0.0
    for conn in mesh.elements:
        coords = mesh.nodes[conn]
        ue = np.empty(8)
        ue[0::2] = u[2 * conn]
        ue[1::2] = u[2 * conn + 1]
        ze = z[conn]
        for w, N, dNdx in element_quadrature(coords, order):
            B = np.zeros((3, 8))
            B[0, 0::2] = dNdx[:, 0]
            B[1, 1::2] = dNdx[:, 1]
            B[2, 0::2] = dNdx[:, 1]
            B[2, 1::2] = dNdx[:, 0]
            eps = B @ ue
            psi = eps @ (model.C @ eps)
            zq = N @ ze
            gz = dNdx.T @ ze
            if model.preset == "AT":
                frac = model.g_c * ((1 - zq) ** 2 / (4 * model.theta)
                                    + model.theta * (gz @ gz))
            else:
                frac = 0.5 * model.kappa_E * (zq ** 2 + gz @ gz)
            total += w * (0.5 * (zq ** 2 + model.eta) * psi + frac)
    f = load.force_vector(mesh, t)
    return total - float(f @ u)


def ref_field_norm_lalpha(dz, mesh, alpha, order=4):
    """(integral |dz|^alpha)^(1/alpha) by a Gauss rule of ``order``^2
    points, one pass over all elements per point."""
    coords = mesh.nodes[mesh.elements]  # (n_elements, 4, 2)
    ze = dz[mesh.elements]
    acc = 0.0
    for (xi, eta), wq in zip(*gauss_rule(order)):
        J = np.einsum("eai,aj->eij", coords, ref_shape_grad(xi, eta))
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        acc += np.sum(wq * det * np.abs(ze @ ref_shape(xi, eta)) ** alpha)
    return acc ** (1.0 / alpha)


def ref_brute_force_z_step(u, z_prev, rho, model, grid_step):
    """Grid minimization of the scalar damage step objective over
    ``np.linspace`` with ``np.argmin``: the numpy evaluation that
    ``zerodim.brute_force_z_step`` reproduces in Python floats."""
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    lo = max(0.0, z_prev - rho)
    hi = z_prev
    n = max(1, int(math.ceil((hi - lo) / grid_step)))
    grid = np.linspace(lo, hi, n + 1)
    c = model.a * u * u + model.kappa_E
    vals = 0.5 * c * grid ** 2 + model.kappa_R * (z_prev - grid)
    return float(grid[int(np.argmin(vals))])


def ref_z_step(u, z_prev, rho, model):
    """The closed-form damage step with the builtins ``min`` and ``max``:
    the evaluation that ``zerodim.z_step`` reproduces with comparisons, bit
    for bit."""
    lo = max(0.0, z_prev - rho)
    c = model.a * u * u + model.kappa_E
    z = min(max(model.kappa_R / c, lo), z_prev)
    if math.isnan(z_prev):  # min(x, nan) is x
        z = z_prev
    g = c * z - model.kappa_R
    ball_side = z_prev - rho >= 0.0 and z == lo
    mu = max(0.0, g) if ball_side else 0.0  # ball pushes from below
    lam = max(0.0, -g) if z == z_prev else 0.0
    return z, mu, lam


def z_step_bits(step, *args):
    """``(z, mu, lam)`` of a damage step as bytes, so that -0.0 and NaN
    compare exactly, or the name of the exception the step raises."""
    try:
        return struct.pack("<3d", *step(*args))
    except ZeroDivisionError as exc:
        return type(exc).__name__


def fd_gradient(fun, x, rel_step=1e-6):
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    scale = max(1.0, float(np.abs(x).max()))
    h = rel_step * scale
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2 * h)
    return g


def smooth_random_field(mesh, rng, amplitude=1.0, offset=0.0):
    """Random global cubic polynomial sampled at the nodes: smooth but
    genuinely random, so quadrature comparisons converge under refinement."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    xs = (x - x.min()) / max(np.ptp(x), 1e-30)
    ys = (y - y.min()) / max(np.ptp(y), 1e-30)
    field = np.zeros(mesh.n_nodes)
    for i in range(4):
        for j in range(4 - i):
            field += rng.normal() * xs ** i * ys ** j
    field /= max(np.abs(field).max(), 1e-30)
    return offset + amplitude * field


def _ref_tensor_grid(xt, yt):
    """Row-major nodes, counter-clockwise elements and the node index
    ``nid(i, j)`` of the tensor grid, by loops."""
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


def ref_build_ct_mesh(side_len, coarse_h, fine_h, refine_band=None, notch=True):
    """Slit square plate by element and node loops: ``(nodes, elements,
    boundary_sets)`` as ``amfrac.build_ct_mesh`` builds them."""
    L = float(side_len)
    if refine_band is None and fine_h < coarse_h:
        refine_band = ((0.45 * L, L), (0.375 * L, 0.625 * L))
    xband, yband = refine_band if refine_band is not None else (None, None)
    xt = graded_ticks(L, coarse_h, fine_h, xband)
    yt = graded_ticks(L, coarse_h, fine_h, yband)
    nodes, elements, nid = _ref_tensor_grid(xt, yt)
    nx, ny = len(xt) - 1, len(yt) - 1
    left = np.array([nid(0, j) for j in range(ny + 1)], dtype=np.int64)
    right = np.array([nid(nx, j) for j in range(ny + 1)], dtype=np.int64)
    if notch:
        j_mid = int(np.argmin(np.abs(yt - 0.5 * L)))
        dup_of = {}
        new_nodes = []
        for i in range(nx + 1):
            if xt[i] < 0.5 * L - 1e-12 * L:
                n = nid(i, j_mid)
                dup_of[n] = nodes.shape[0] + len(new_nodes)
                new_nodes.append(nodes[n])
        nodes = np.vstack([nodes, np.array(new_nodes)])
        # the elements above the slit switch to the duplicates
        elements = elements.copy()
        for i in range(nx):
            e = j_mid * nx + i
            elements[e] = [dup_of.get(n, n) for n in elements[e]]
        extra = [dup_of[n] for n in left if n in dup_of]
        left = np.concatenate([left, np.array(extra, dtype=np.int64)])
    return nodes, elements, {"clamped": np.sort(left), "loaded": np.sort(right)}


def ref_build_lshape_mesh(leg_len, coarse_h, fine_h, refine_band=None):
    """L-shaped plate by a node renumbering table: ``(nodes, elements,
    boundary_sets)`` as ``amfrac.build_lshape_mesh`` builds them."""
    leg = float(leg_len)
    S = 2.0 * leg
    if refine_band is None and fine_h < coarse_h:
        refine_band = ((0.34 * S, 0.54 * S), (0.44 * S, 0.55 * S))
    xband, yband = refine_band if refine_band is not None else (None, None)
    xt = graded_ticks(S, coarse_h, fine_h, xband)
    yt = graded_ticks(S, coarse_h, fine_h, yband)
    nodes_full, elements_full, _ = _ref_tensor_grid(xt, yt)
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
    return nodes, elements.astype(np.int64), {
        "clamped": clamped.astype(np.int64), "loaded": loaded.astype(np.int64)}


def _bisect(f, lo, hi, iters=200):
    """A root of ``f`` between ``lo`` and ``hi``, where ``f`` changes
    sign, by bisection to the last bit."""
    lo_positive = f(lo) > 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_min(f, lo, hi, iters=60):
    """The least value of a unimodal ``f`` on ``[lo, hi]``, by golden
    section search."""
    g = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    fa, fb = f(a), f(b)
    for _ in range(iters):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - g * (hi - lo)
            fa = f(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + g * (hi - lo)
            fb = f(b)
    return min(fa, fb, f(lo), f(hi))


class ScalarBV:
    """The exact balanced-viscosity (BV) solution of the scalar model
    ``E = 1/2 (z^2 + eta) a u^2 - ell(t) u + 1/2 kappa_E z^2`` with
    ``R(v) = kappa_R |v|`` on ``v <= 0``, from ``z(0) = 1`` up to time
    ``T``, for parameters whose branch folds (``ZeroDimModel()``).

    With ``u`` eliminated, a damage value is stable where
    ``d_z I(t, z) = z (ell^2 / (a (z^2 + eta)^2) + kappa_E) <= kappa_R``.
    The solution is elastic (``z = 1``) up to ``t_on``, then follows the
    stable branch ``ell(t)^2 = a (kappa_R / z - kappa_E) (z^2 + eta)^2``
    down to its fold at ``(t_star, z_minus)``, jumps at fixed ``t_star``
    down to ``z_plus``, the next point of the branch below, and follows the
    lower branch from there.  Everything is ``math`` floats, bisection and
    golden-section search.
    """

    def __init__(self, model, T=1.0):
        self.a, self.eta = model.a, model.eta
        self.kappa_E, self.kappa_R = model.kappa_E, model.kappa_R
        self.ell_rate, self.T = model.ell_rate, T
        kE, kR, eta = self.kappa_E, self.kappa_R, self.eta
        self.t_on = self.branch_t(1.0)
        # the fold points of the branch solve 4 kE z^3 - 3 kR z^2 + kR eta
        # = 0; the cubic is least at z = kR / (2 kE), between its two roots
        fold = lambda z: 4.0 * kE * z ** 3 - 3.0 * kR * z * z + kR * eta
        z_turn = kR / (2.0 * kE)
        self.z_minus = _bisect(fold, z_turn, 1.0)
        z_low_fold = _bisect(fold, 0.0, z_turn)
        self.t_star = self.branch_t(self.z_minus)
        self.z_plus = _bisect(lambda z: self.branch_t(z) - self.t_star,
                              1e-6 * z_low_fold, z_low_fold)
        self.z_end = _bisect(lambda z: self.branch_t(z) - T,
                             1e-9 * self.z_plus, self.z_plus)

    def branch_t(self, z):
        """The time at which ``z`` is on the stable branch."""
        return (math.sqrt(self.a * (self.kappa_R / z - self.kappa_E))
                * (z * z + self.eta) / self.ell_rate)

    def distance(self, t, z):
        """Euclidean distance of ``(t, z)`` to the solution's graph in the
        (t, z) plane, the vertical jump segment included.  A branch piece
        is searched only when its bounding box is nearer than the pieces
        before it."""
        def box(t_lo, t_hi, z_lo, z_hi):
            return math.hypot(max(t_lo - t, 0.0, t - t_hi),
                              max(z_lo - z, 0.0, z - z_hi))

        def sq(s):
            return (self.branch_t(s) - t) ** 2 + (s - z) ** 2

        best = min(box(0.0, self.t_on, 1.0, 1.0),
                   box(self.t_star, self.t_star, self.z_plus, self.z_minus))
        for t_lo, t_hi, z_lo, z_hi in (
                (self.t_on, self.t_star, self.z_minus, 1.0),
                (self.t_star, self.T, self.z_end, self.z_plus)):
            if box(t_lo, t_hi, z_lo, z_hi) < best:
                best = min(best, math.sqrt(_golden_min(sq, z_lo, z_hi)))
        return best
