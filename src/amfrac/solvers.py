"""Inner minimizations of the staggered scheme.

The displacement subproblem is a symmetric positive definite linear solve
after Dirichlet elimination.  The damage subproblem minimizes a convex
quadratic under the nodal irreversibility bound ``z <= z_prev`` and the
arc-length ball ``||z - z_prev||_V <= rho``.  The box ``0 <= z <= z_prev``
is handled by a primal-dual active-set method, i.e. semismooth Newton on its
complementarity conditions (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13,
2002): each pass pins the active nodes to ``z_prev`` (upper side) or to 0
(lower side) and solves for the free ones exactly.  When the box solution
leaves the ball it is retracted onto the sphere along the ray from
``z_prev``, and bordered Newton steps on the free values and the ball
multiplier take over, the active sets being updated after each step.  On
the feasible cone the L^alpha ball is smooth; its gradient singularity at
``z = z_prev`` is removed by a negligible regularization of the alpha-th
power sum (``assembly.VNorm``).

Every system factored here is symmetric positive definite (the stiffness
because ``eta > 0``; ``Q = H + c1 M + c2 L`` with ``c1 > 0`` plus the ball
curvature ``mu sum_q D_q N_q N_q'``, ``mu >= 0``; the negative rank-one
part of the L^alpha curvature goes through Sherman-Morrison), so ``splu``
factors it by LAPACK band Cholesky in the one band order of its pattern,
the narrower of the two coordinate sweeps of the nodes
(``assembly.BandLayout``).  Constrained values are not sliced out: their
rows are pinned to identity rows with zero coupling, so the free values
solve the free block's system and the pinned ones equal their right-hand
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .assembly import (
    BandLayout,
    VNorm,
    dual_norm_lumped,
    element_data,
    lumped_weights,
    assemble_K,
    z_quadratic,
)
from .mesh import Mesh
from .model import LoadProgram, MaterialModel, SchemeParams


class SolverFailure(RuntimeError):
    """Inner solver did not converge; carries the last residuals."""

    def __init__(self, message: str, **residuals):
        super().__init__(message + (f" ({residuals})" if residuals else ""))
        self.residuals = residuals


# ---------------------------------------------------------------------------
# Displacement solve
# ---------------------------------------------------------------------------

def splu(ab: np.ndarray) -> SimpleNamespace:
    """Cholesky factor of the symmetric positive definite matrix whose lower
    band is ``ab`` (LAPACK storage, overwritten); its ``solve`` takes one
    right-hand side or several as columns.  Raises ``SolverFailure`` with
    the order of the first leading minor that is not positive definite."""
    c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverFailure("band Cholesky failed: matrix is not positive "
                            "definite", leading_minor=int(info))
    return SimpleNamespace(solve=lambda b: dpbtrs(c, b, lower=1)[0])


def _factor(band: BandLayout, data: np.ndarray, pinned: np.ndarray):
    """Solver of the operator with data vector ``data`` on the pattern of
    ``band``, the rows ``pinned`` replaced by identity rows.  Right-hand
    sides and solutions are in the operator's numbering."""
    lu = splu(band.fill(data, pinned))

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[band.perm] = lu.solve(b[band.perm])
        return x

    return solve


def solve_u(t: float, z: np.ndarray, mesh: Mesh, model: MaterialModel,
            load: LoadProgram) -> np.ndarray:
    """Equilibrium displacement at fixed damage: the unique minimizer of the
    displacement-quadratic energy under the current Dirichlet data."""
    K = assemble_K(z, mesh, model)
    f = load.force_vector(mesh, t)
    mask, values = load.dirichlet_dofs(mesh)
    u = values(t)  # zero on the free dofs
    solve = _factor(element_data(mesh).dof_pattern.band, K.data, mask)
    u = solve(np.where(mask, u, f - K @ u))
    # one step of iterative refinement keeps the equilibrium residual at
    # round-off even on badly graded meshes
    u += solve(np.where(mask, 0.0, f - K @ u))
    return u


# ---------------------------------------------------------------------------
# Ball-constraint machinery
# ---------------------------------------------------------------------------

def _solve_with_rank1(solve, c: float, a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (H + c a a') x = rhs given a solver of H; ``rhs`` may hold
    several right-hand sides as columns.  Raises ``SolverFailure`` when the
    update makes the matrix singular."""
    x = solve(rhs)
    if c == 0.0:
        return x
    y = solve(a)
    denom = 1.0 + c * float(a @ y)
    if abs(denom) < 1e-14:
        raise SolverFailure("rank-one update makes the bordered system "
                            "singular", denominator=denom)
    return x - np.multiply.outer(y, (c / denom) * (a @ x))


def _bordered_step(Q, btot, z, z_prev, mu, band, active, ball: VNorm, rho):
    """One Newton step on the ball-active KKT equalities in ``(z_F, mu)``:

        (Q z - btot + mu gN(v))_F = 0,   N(v) = rho,   v = z - z_prev,

    with the box-active nodes (mask ``active``) held at their values by
    pinned rows.  Updates ``z`` in place and returns the new multiplier."""
    N, gN, curv, a, c = ball.newton_parts(z - z_prev, mu)
    solve = _factor(band, Q.data + curv, active)
    g = np.where(active, 0.0, gN)
    r = np.where(active, 0.0, Q @ z - btot + mu * gN)
    s = _solve_with_rank1(solve, c, np.where(active, 0.0, a),
                          np.column_stack([r, g]))
    dmu = (N - rho - float(g @ s[:, 0])) / float(g @ s[:, 1])
    z -= s[:, 0] + dmu * s[:, 1]
    return mu + dmu


# ---------------------------------------------------------------------------
# Damage solve
# ---------------------------------------------------------------------------

_MAX_ITERATIONS = 50  # box solves and bordered Newton steps per damage solve


@dataclass(eq=False)
class ZSolveReport:
    """Solution and KKT certificates of one damage subproblem.

    ``al_iters`` counts the solver's passes: the first one plus one for each
    change of the box-active sets or of the ball status.  ``newton_iters``
    counts linear solves, one factorization each (box solves and bordered
    Newton steps); a pass with every node box-active solves nothing.
    ``lam`` is the multiplier of ``z <= z_prev`` and ``lower_clamps`` the
    number of nodes that the last pass held at ``z = 0`` (a retraction onto
    the sphere in that pass can lift them slightly).
    """

    z: np.ndarray
    lam: np.ndarray
    mu: float
    xi: np.ndarray
    xi_norm_dual: float
    constraint_active: bool
    stationarity_residual: float
    al_iters: int
    newton_iters: int
    dz_norm_V: float
    lower_clamps: int = 0
    converged: bool = True


def solve_z(t: float, u: np.ndarray, z_prev: np.ndarray, rho: float,
            mesh: Mesh, model: MaterialModel, params: SchemeParams) -> ZSolveReport:
    """Damage update: minimize the damage-quadratic energy plus dissipation
    subject to ``0 <= z <= z_prev`` (nodal) and ``||z - z_prev||_V <= rho``.

    ``rho = inf`` disables the ball (plain staggered step).  Raises
    ``SolverFailure`` with its residuals when the KKT tolerances are not met.
    """
    Q, b, _ = z_quadratic(u, mesh, model)
    w = lumped_weights(mesh)
    btot = b + model.r_coefficient * w
    n = z_prev.size
    norm = params.norm_V
    has_ball = np.isfinite(rho)
    ball = VNorm(mesh, norm)
    band = element_data(mesh).node_pattern.band

    g0 = Q @ z_prev - btot
    stat_scale = max(1.0, dual_norm_lumped(g0 / w, w, norm))
    feas_tol = params.tol_constraint
    ball_tol = params.tol_constraint * max(1.0, rho) if has_ball else 0.0
    # a free node re-enters the upper set only above round-off, so a node
    # released with a multiplier of -0.0 cannot flip back and forth; the
    # lower bound emerges from the objective, so it enters only beyond
    # tolerance
    enter_tol = 1e-3 * feas_tol

    z = z_prev.copy()
    active = g0 < 0.0  # lam0 = btot - Q z_prev > 0
    lower = np.zeros(n, dtype=bool)  # held at z = 0
    mu, ball_on = 0.0, False
    N, gN = 0.0, None
    box_sets = set()
    passes, solves, new_pass = 0, 0, True
    stat = math.inf

    def failure(message):
        v = z - z_prev
        return SolverFailure(
            message, stationarity=stat,
            box_violation=float(np.maximum(0.0, v).max(initial=0.0)),
            ball_violation=max(0.0, N - rho) if has_ball else 0.0,
            passes=passes)

    for _ in range(_MAX_ITERATIONS):
        passes += new_pass
        pinned = active | lower
        free = ~pinned
        pin = np.where(active, z_prev, 0.0)
        z[pinned] = pin[pinned]
        if ball_on:
            if free.any():
                mu = _bordered_step(Q, btot, z, z_prev, mu, band, pinned, ball,
                                    rho)
                solves += 1
        else:
            # a box pass depends on the active sets alone: a repeat is a cycle
            key = active.tobytes() + lower.tobytes()
            if key in box_sets:
                raise failure("damage active set cycles")
            box_sets.add(key)
            if free.any():
                rhs = btot - Q @ pin
                z = _factor(band, Q.data, pinned)(np.where(pinned, pin, rhs))
                solves += 1

        was_on = ball_on
        v = z - z_prev
        if has_ball:
            N, gN = ball.grad(v)
            if N > rho:
                # retract onto the sphere; N is 1-homogeneous and the ray
                # from z_prev keeps v <= 0 wherever it already was
                v *= rho / N
                z = z_prev + v
                N, gN = ball.grad(v)
                if not ball_on:
                    # least-squares multiplier of the retracted point; a
                    # negative fit starts at 0 rather than dropping the ball
                    # straight back into the same box pass
                    ball_on = True
                    r = (Q @ z - btot)[free]
                    g = gN[free]
                    mu = max(0.0, -float(r @ g) / float(g @ g))
            if mu < 0.0:
                ball_on, mu = False, 0.0

        r = Q @ z - btot
        if ball_on:
            r += mu * gN
        lam = np.where(active, -r, 0.0)
        new_active = np.where(active, lam >= 0.0, v > enter_tol)
        # the lower multiplier is r itself: release a node where it is < 0
        new_lower = np.where(lower, r >= 0.0, free & (z < -feas_tol))
        stat = dual_norm_lumped(np.where(pinned, 0.0, r) / w, w, norm)
        new_pass = not (np.array_equal(new_active, active)
                        and np.array_equal(new_lower, lower)
                        and ball_on == was_on)
        if not new_pass and (not ball_on or (
                stat <= params.tol_newton * stat_scale
                and abs(N - rho) <= ball_tol)):
            break
        active, lower = new_active, new_lower
    else:
        raise failure("damage solve exhausted its iteration budget")

    box_viol = float(np.maximum(0.0, v).max(initial=0.0))
    g2 = N - rho if has_ball else -math.inf
    if not (box_viol <= 10 * feas_tol and g2 <= 10 * ball_tol
            and stat <= 10 * params.tol_newton * stat_scale):
        raise failure("damage subproblem did not reach its KKT tolerance")

    dz_norm = ball.value(z - z_prev)

    if ball_on and mu > 0.0:
        _, gN = ball.grad(z - z_prev)
        xi = mu * gN
    else:
        xi = np.zeros(n)
    return ZSolveReport(
        z=z,
        lam=lam,
        mu=mu,
        xi=xi,
        xi_norm_dual=dual_norm_lumped(xi / w, w, norm) if np.any(xi) else 0.0,
        constraint_active=bool(has_ball and
                               dz_norm >= rho - 10 * max(feas_tol, ball_tol)),
        stationarity_residual=stat,
        al_iters=passes,
        newton_iters=solves,
        dz_norm_V=dz_norm,
        lower_clamps=int(np.count_nonzero(lower)),
    )
