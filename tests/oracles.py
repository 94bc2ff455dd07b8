"""Independent reference implementations used as test oracles.

Everything here is written with its own shape functions, its own Gauss
rules (arbitrary order via numpy.polynomial) and plain element loops, so a
disagreement with the package points at the package.
"""

from __future__ import annotations

import math

import numpy as np


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
    acc = 0.0
    for conn in mesh.elements:
        coords = mesh.nodes[conn]
        ze = dz[conn]
        for w, N, _ in element_quadrature(coords, order):
            acc += w * abs(N @ ze) ** alpha
    return acc ** (1.0 / alpha)


def ref_brute_force_z_step(t, u, z_prev, rho, model, grid_step):
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
