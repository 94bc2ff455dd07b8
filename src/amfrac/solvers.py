"""Inner minimizations of the staggered scheme.

The displacement subproblem is a symmetric positive definite linear solve
on the free dofs: its band is filled straight from the element stiffness
(``assembly.Band``), and the prescribed values enter the right-hand
side through the free-to-pinned element entries.  The damage subproblem
minimizes a convex quadratic under the nodal irreversibility bound
``z <= z_prev`` and the arc-length ball ``||z - z_prev||_V <= rho``.  The
box ``0 <= z <= z_prev`` is handled by a primal-dual active-set method,
i.e. semismooth Newton on its complementarity conditions (Hintermueller,
Ito & Kunisch, SIAM J. Optim. 13, 2002): each pass pins the active nodes
to ``z_prev`` (upper side) or to 0 (lower side) and solves for the free
ones exactly.  When the box solution leaves the ball it is retracted onto
the sphere along the ray from ``z_prev``, and bordered Newton steps on the
free values and the ball multiplier take over, the active sets being
updated after each step.  When the Schur pivot of a bordered step is not
positive (the free values cannot move the ball, e.g. when the ball's
gradient vanishes on them), or when no value is free, the pass releases
the ball (``nu = 0``) and runs a box pass instead.  The ball binds exactly
when the solve ends with ``nu > 0``: that pass met the sphere within the
ball tolerance, so the increment fills the ball.  The report says so
(``ZSolveReport.constraint_active``), and the evolution loop reads it as a
jump.  The steps write the ball as its power sum, ``S(v)/a <= rho^a/a``
with ``N(v) = S(v)^(1/a)`` (``assembly.VNorm``): the same KKT points as
``N(v) <= rho``, and a Hessian that is a sum over Gauss points.  Its multiplier ``nu`` gives
the one of ``N <= rho`` as ``mu = nu N^(a-1)``.  The gradient of ``S`` is
evaluated only while the ball binds.  For ``a < 2`` the Hessian of ``S``
is infinite on an element where ``v`` vanishes; the step raises
``SolverFailure`` once such an element has a free node.

Each pass ends with one evaluation of the ball at its ``v``: ``N`` after
a box pass, ``N`` with the gradient of ``S`` (``VNorm.parts``) while the
ball is on, and ``parts`` again at the retracted ``v`` after a
retraction.  The norm of the increment that the time update reads is
measured once, by the step record (``assembly.field_norm_V``).  A pass
with no node pinned hands the band no pin mask, and as a box pass solves
``Q z = btot`` as it is.

A solve may start from the report of an earlier solve of a nearby
subproblem (``solve_z(..., start)``): the AM loop passes each damage solve
but its first the previous iterate's report, whose ``z_prev`` and ball are
the same and whose ``u`` moved a little.  The first pass then takes the
start's final box-active sets in place of the nodes where the box binds at
``z_prev``; when the start's ball was binding (``nu > 0``) it also takes
the start's ``z`` and ``nu`` with the ball on, so that pass is a bordered
Newton step rather than a box pass, a retraction and the steps after it.
The subproblem has one minimizer (``Q`` is SPD and the box and the ball
are convex), and the passes, exit test and acceptance are those of a cold
solve, so the start changes only the path to it.

Every system factored here is symmetric positive definite (the stiffness
because ``eta > 0``; ``Q = H + c1 M + c2 L`` with ``c1 > 0`` plus the ball
curvature ``nu grad^2(S/a)``, ``nu >= 0``), so ``splu`` factors it by
LAPACK band Cholesky in the one band order of the mesh, the narrower of
the two coordinate sweeps of the nodes (``assembly.Band``).  The damage
solve's box-active values are not sliced out: their rows are pinned to
identity rows with zero coupling, so the free values solve the free
block's system and the pinned ones equal their right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .assembly import (
    Band,
    VNorm,
    dual_norm_lumped,
    element_data,
    element_stiffness,
    lumped_weights,
    z_quadratic,
)
# not called here: perfbench still patches this name to time assemblies
# (ROADMAP item 8 frees it)
from .assembly import assemble_K  # noqa: F401
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


def solve_u(t: float, z: np.ndarray, mesh: Mesh, model: MaterialModel,
            load: LoadProgram) -> np.ndarray:
    """Equilibrium displacement at fixed damage: the unique minimizer of the
    displacement-quadratic energy under the current Dirichlet data, from one
    band Cholesky solve of the free block: it is backward stable, so the
    free residual is at round-off of ``max|K| max|u|``.  With no load at all
    the minimizer is ``u = 0`` (``K`` is SPD) and nothing is factored."""
    f = load.force_vector(mesh, t)
    mask, values = load.dirichlet_dofs(mesh)
    u = values(t)  # zero on the free dofs
    prescribed = u.any()
    if not (prescribed or f.any()):
        return u
    block = element_data(mesh).free_band(mask)
    vals = element_stiffness(z, mesh, model)
    rhs = f[block.dofs]
    if prescribed:
        rhs -= block.coupling(vals, u)
    u[block.dofs] = splu(block.fill(vals)).solve(rhs)
    return u


# ---------------------------------------------------------------------------
# Damage solve
# ---------------------------------------------------------------------------

def _solver(band: Band, ab: np.ndarray):
    """Solver of the band array ``ab`` of ``band``.  Right-hand sides and
    solutions are in the operator's numbering."""
    lu = splu(ab)

    def solve(b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[band.dofs] = lu.solve(b[band.dofs])
        return x

    return solve


def _bordered_step(Q, btot, z, z_prev, nu, band, pinned, ball: VNorm, rho):
    """One Newton step on the ball-active KKT equalities in ``(z_F, nu)``:

        (Q z - btot + nu grad(S/a))_F = 0,   (S - rho^a) / a = 0,

    at ``v = z - z_prev``, with the box-active nodes (mask ``pinned``, None
    when there are none) held at their values by pinned rows.  Updates
    ``z`` in place and returns the new multiplier, or returns None and
    leaves ``z`` as it is when the Schur pivot ``g' A^-1 g`` of the
    bordered system is not positive: then the free values cannot move the
    ball."""
    v = z - z_prev
    N, g = ball.parts(v)
    # for a < 2 the curvature is infinite on an element where v vanishes;
    # the pinned rows drop it unless the element has a free node
    with np.errstate(divide="ignore", invalid="ignore"):
        ab = band.fill(Q.data + nu * ball.curvature(v), pinned)
    if not np.isfinite(ab).all():
        raise SolverFailure("damage solve: the ball curvature is infinite "
                            "on the free block", alpha=ball.a)
    solve = _solver(band, ab)
    r = Q @ z - btot
    if pinned is not None:
        g = np.where(pinned, 0.0, g)
        r = np.where(pinned, 0.0, r)
    r += nu * g
    s = solve(np.column_stack([r, g]))
    pivot = float(g @ s[:, 1])
    if not pivot > 0.0:
        return None
    a = ball.a
    dnu = ((N ** a - rho ** a) / a - float(g @ s[:, 0])) / pivot
    z -= s[:, 0] + dnu * s[:, 1]
    return nu + dnu


_MAX_ITERATIONS = 50  # box solves and bordered Newton steps per damage solve


@dataclass(eq=False)
class ZSolveReport:
    """Solution and KKT certificates of one damage subproblem.

    ``al_iters`` counts the solver's passes: the first one plus one for each
    change of the box-active sets or of the ball status between passes (a
    ball released within a pass starts none).  ``newton_iters`` counts
    linear solves, one factorization each (box solves and bordered Newton
    steps, also one that releases the ball); a pass with every node
    box-active solves nothing.
    ``lam`` is the multiplier of ``z <= z_prev`` and ``lower_clamps`` the
    number of nodes that the last pass held at ``z = 0`` (a retraction onto
    the sphere in that pass can lift them slightly).  ``mu = nu N^(a-1)``
    is the multiplier of ``N(z - z_prev) <= rho``, for the multiplier
    ``nu`` of its power-sum form, and ``xi = nu grad(S/a) = mu grad N``.
    ``nu`` is 0 unless the ball binds at the end, and ``constraint_active``
    (``nu > 0``) is the one flag of a binding ball: a solve ends with
    ``nu > 0`` only when its last pass measured the increment within the
    ball tolerance of ``rho``, so the increment fills the ball.  ``active``
    and ``lower`` are the last pass's box-active sets, at ``z = z_prev``
    and at ``z = 0``: with ``nu`` and ``z`` they are what a later solve
    starts from.
    """

    z: np.ndarray
    lam: np.ndarray
    active: np.ndarray
    lower: np.ndarray
    nu: float
    mu: float
    xi: np.ndarray
    xi_norm_dual: float
    stationarity_residual: float
    al_iters: int
    newton_iters: int
    lower_clamps: int = 0
    converged: bool = True

    @property
    def constraint_active(self) -> bool:
        """True when the ball binds: its multiplier ``nu`` is positive."""
        return bool(self.nu > 0.0)


def solve_z(u: np.ndarray, z_prev: np.ndarray, rho: float, mesh: Mesh,
            model: MaterialModel, params: SchemeParams,
            start: ZSolveReport | None = None) -> ZSolveReport:
    """Damage update: minimize the damage-quadratic energy plus dissipation
    subject to ``0 <= z <= z_prev`` (nodal) and ``||z - z_prev||_V <= rho``.

    An infinite radius never binds: ``N > inf`` is False, so no pass
    retracts and ``nu`` stays 0, and ``rho = inf`` is the plain staggered
    step through the same passes, each of which still measures the ball.
    ``start``, the report of a solve with the same ``z_prev`` and ``rho``,
    gives the first pass its active sets and, if its ball was binding, its
    ``z`` and ``nu`` (module docstring).  Raises ``SolverFailure`` with its
    residuals when the KKT tolerances are not met.
    """
    Q, b, _ = z_quadratic(u, mesh, model)
    w = lumped_weights(mesh)
    btot = b + model.r_coefficient * w
    n = z_prev.size
    norm = params.norm_V
    ball = VNorm(mesh, norm)
    band = element_data(mesh).node_band

    g0 = Q @ z_prev - btot
    stat_scale = max(1.0, dual_norm_lumped(g0 / w, w, norm))
    feas_tol = params.tol_constraint
    ball_tol = params.tol_constraint * max(1.0, rho)
    # a free node re-enters the upper set only above round-off, so a node
    # released with a multiplier of -0.0 cannot flip back and forth; the
    # lower bound emerges from the objective, so it enters only beyond
    # tolerance
    enter_tol = 1e-3 * feas_tol

    z = z_prev.copy()
    nu, ball_on = 0.0, False  # multiplier of S/a <= rho^a/a
    if start is None:
        active = g0 < 0.0  # lam0 = btot - Q z_prev > 0
        lower = np.zeros(n, dtype=bool)  # held at z = 0
    else:
        active, lower = start.active, start.lower
        if start.nu > 0.0:
            z, nu, ball_on = start.z.copy(), start.nu, True
    N, gS = 0.0, None
    box_sets = set()
    passes, solves, new_pass = 0, 0, True
    stat = math.inf

    def failure(message):
        v = z - z_prev
        return SolverFailure(
            message, stationarity=stat,
            box_violation=float(np.maximum(0.0, v).max(initial=0.0)),
            ball_violation=max(0.0, N - rho),
            passes=passes)

    for _ in range(_MAX_ITERATIONS):
        passes += new_pass
        pinned = active | lower
        free = ~pinned
        mask = pinned if pinned.any() else None
        if mask is not None:
            pin = np.where(active, z_prev, 0.0)
            z[pinned] = pin[pinned]
        if ball_on:
            if free.any():
                nu = _bordered_step(Q, btot, z, z_prev, nu, band, mask,
                                    ball, rho)
                solves += 1
            else:
                nu = None
            if nu is None:  # the free block cannot move the ball
                ball_on, nu = False, 0.0
        if not ball_on:
            # a box pass depends on the active sets alone: a repeat is a cycle
            key = active.tobytes() + lower.tobytes()
            if key in box_sets:
                raise failure("damage active set cycles")
            box_sets.add(key)
            if free.any():
                rhs = (btot if mask is None
                       else np.where(pinned, pin, btot - Q @ pin))
                z = _solver(band, band.fill(Q.data, mask))(rhs)
                solves += 1

        was_on = ball_on
        v = z - z_prev
        # the gradient of S is read only while the ball binds
        if ball_on:
            N, gS = ball.parts(v)
        else:
            N = ball.value(v)
        retracted = N > rho
        if retracted:
            # retract onto the sphere; N is 1-homogeneous and the ray from
            # z_prev keeps v <= 0 wherever it already was
            v *= rho / N
            z = z_prev + v
            N, gS = ball.parts(v)
        r = Q @ z - btot
        if retracted and not ball_on:
            # least-squares multiplier of the retracted point; a negative
            # fit starts at 0 rather than dropping the ball straight back
            # into the same box pass
            ball_on = True
            g = gS[free]
            nu = max(0.0, -float(r[free] @ g) / float(g @ g))
        if nu < 0.0:
            ball_on, nu = False, 0.0
        if ball_on:
            r += nu * gS
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
    if not (box_viol <= 10 * feas_tol and N - rho <= 10 * ball_tol
            and stat <= 10 * params.tol_newton * stat_scale):
        raise failure("damage subproblem did not reach its KKT tolerance")

    xi = nu * gS if nu > 0.0 else np.zeros(n)
    return ZSolveReport(
        z=z,
        lam=lam,
        active=active,
        lower=lower,
        nu=nu,
        mu=nu * N ** (ball.a - 1.0),
        xi=xi,
        xi_norm_dual=dual_norm_lumped(xi / w, w, norm) if np.any(xi) else 0.0,
        stationarity_residual=stat,
        al_iters=passes,
        newton_iters=solves,
        lower_clamps=int(np.count_nonzero(lower)),
    )
