"""Numerical certificates for computed traces: dual distance to the
stable set, complementarity between time advance and local stability, the
discrete energy-dissipation ledger, and arc-length interpolants.

The dual distance is evaluated in closed form: with the unidirectional
dissipation, the stable multipliers are exactly the densities bounded below
by ``-kappa_R``, so the distance of the negative damage gradient to that
set is the dual-norm of the positive part of ``density - kappa_R``.  A time
step can only advance while this distance vanishes at the preceding
iterate.  A jump is exempt: the step after a binding ball, whose time
increment the evolution loop sets to exactly 0, so ``dt == 0.0`` is the
test of a jump here.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .assembly import dual_norm_lumped, grad_z, lumped_weights
from .mesh import Mesh
from .model import DIRICHLET_RAMP, LoadProgram, MaterialModel, NormSpec

if TYPE_CHECKING:
    from .driver import Trace


def stable_set_distance(density: np.ndarray, weights: np.ndarray,
                        kappa: float, norm: NormSpec, at_zero=False) -> float:
    """Closed-form dual distance for a nodal driving-force density.

    The stable multipliers are the densities bounded below by ``-kappa``,
    plus, at the nodes of the mask ``at_zero`` (``z = 0``), the normal cone
    of ``z >= 0``, which takes up any force toward negative ``z``.  So the
    pointwise projection leaves the positive part of ``density - kappa``
    off ``at_zero`` and nothing on it, and the distance is its dual norm
    (L^{alpha'} for the L^alpha ball, an L^2 surrogate for H1).
    """
    excess = np.where(at_zero, 0.0, np.maximum(density, kappa) - kappa)
    return dual_norm_lumped(excess, weights, norm)


def dual_distance(u: np.ndarray, z: np.ndarray, mesh: Mesh,
                  model: MaterialModel, norm: NormSpec) -> float:
    """Distance (in the dual of the ball norm) from the negative damage
    gradient to the set of stable multipliers, ``z >= 0`` being active
    where ``z == 0`` (the damage solve pins exact zeros).

    Zero exactly at locally stable states; positive while the damage field
    is being driven.  For the H1 ball this returns an L2 surrogate
    (``norm.dual_is_surrogate`` is then True).
    """
    _, d = grad_z(u, z, mesh, model)
    return stable_set_distance(d, lumped_weights(mesh), model.r_coefficient,
                               norm, at_zero=z == 0.0)


@dataclass
class ComplementarityViolation:
    k: int
    dt: float
    preceding_distance: float


def complementarity_check(trace: Trace) -> list:
    """Flags steps that advanced physical time although the preceding
    iterate was not locally stable.

    A time increment at step k other than exactly 0 requires an inactive
    ball at step k-1, hence a dual distance there within
    ``10 * tol_newton``; jump steps (``dt == 0.0``, the step after a
    binding ball) are exempt regardless of the distance.  Any other
    increment advances, a round-off one or a NaN included, and a NaN
    distance is not within the tolerance.
    """
    dist_tol = 10.0 * trace.scheme.tol_newton
    out = []
    recs = trace.records
    for k in range(1, len(recs)):
        if (recs[k].dt != 0.0
                and not recs[k - 1].dual_distance <= dist_tol):
            out.append(ComplementarityViolation(
                k=recs[k].k, dt=recs[k].dt,
                preceding_distance=recs[k - 1].dual_distance))
    return out


# ---------------------------------------------------------------------------
# Interpolants over artificial time
# ---------------------------------------------------------------------------

class InterpolantView:
    """Piecewise affine / piecewise constant reconstructions of a trace over
    the artificial-time grid ``s_k = k * rho``, k = -1 .. N.

    The virtual entry at k = -1 carries the initial time, the initial
    damage field and the first displacement solve, so a jump at the initial
    time is part of the reconstruction.  Field accessors need the fields of
    the bracketing steps and raise ``KeyError`` if the run did not store
    them (``driver._store_snapshot``).
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.rho = trace.scheme.rho
        recs = trace.records
        self.t_grid = np.concatenate([[recs[0].t], [r.t for r in recs]])
        self.s_grid = self.rho * np.arange(-1, len(recs))
        self.s_final = self.s_grid[-1]
        self._s_list = self.s_grid.tolist()  # bisect needs a sequence

    def _locate(self, s: float, closed_right: bool) -> int:
        """Index k >= 0 such that s lies in the k-th interval
        [s_{k-1}, s_k) (or (s_{k-1}, s_k] when closed_right)."""
        if s < self.s_grid[0] - 1e-12 * self.rho or s > self.s_final + 1e-12 * self.rho:
            raise ValueError(f"s = {s} outside [{self.s_grid[0]}, {self.s_final}]")
        s = min(max(s, self.s_grid[0]), self.s_final)
        if closed_right:
            k = bisect.bisect_left(self._s_list, s) - 1
        else:
            k = bisect.bisect_right(self._s_list, s) - 1
        return int(min(max(k, 0), len(self.s_grid) - 2))

    # -- time ---------------------------------------------------------------
    def t_hat(self, s: float) -> float:
        k = self._locate(s, closed_right=False)
        s0 = self.s_grid[k]
        return float(self.t_grid[k]
                     + (s - s0) / self.rho * (self.t_grid[k + 1] - self.t_grid[k]))

    def t_lower(self, s: float) -> float:
        # the left-constant reconstruction attains T at the endpoint
        if s >= self.s_final:
            self._locate(s, closed_right=False)  # range check
            return float(self.t_grid[-1])
        return float(self.t_grid[self._locate(s, closed_right=False)])

    def t_upper(self, s: float) -> float:
        return float(self.t_grid[self._locate(s, closed_right=True) + 1])

    # -- fields -------------------------------------------------------------
    def _affine(self, s: float, i: int) -> np.ndarray:
        """Affine interpolant of field ``i`` (0: u, 1: z) at s."""
        k = self._locate(s, closed_right=False)
        f0 = self.trace.snapshot(k - 1)[i]
        f1 = self.trace.snapshot(k)[i]
        lam = (s - self.s_grid[k]) / self.rho
        return (1.0 - lam) * f0 + lam * f1

    def z_hat(self, s: float) -> np.ndarray:
        return self._affine(s, 1)

    def u_hat(self, s: float) -> np.ndarray:
        return self._affine(s, 0)

    def z_lower(self, s: float) -> np.ndarray:
        k = self._locate(s, closed_right=False)
        if s >= self.s_final:
            k += 1
        return self.trace.snapshot(k - 1)[1]

    def z_upper(self, s: float) -> np.ndarray:
        return self.trace.snapshot(self._locate(s, closed_right=True))[1]


def sample_interpolants(trace: Trace, s_values) -> dict:
    """Evaluate all interpolants at the given artificial times.

    Returns a dict with keys ``t_hat, u_hat, z_hat, t_lower, z_lower,
    t_upper, z_upper``; field entries are lists of arrays (of floats for
    the scalar model).
    """
    view = InterpolantView(trace)
    s_values = np.atleast_1d(s_values)
    out = {name: [getattr(view, name)(s) for s in s_values]
           for name in ("t_hat", "u_hat", "z_hat", "t_lower", "z_lower",
                        "t_upper", "z_upper")}
    for name in ("t_hat", "t_lower", "t_upper"):
        out[name] = np.array(out[name])
    return out


# ---------------------------------------------------------------------------
# Energy-dissipation ledger
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class BalanceRow:
    k: int
    dE: float
    R_inc: float
    visc: float
    work: float
    residual: float
    cum_residual: float


@dataclass
class BalanceReport:
    """Per-step energy ledger.

    Row k covers the artificial-time interval ((k-1) rho, k rho] and closes
    the identity  dE + R_inc + visc - work = residual  by construction; the
    testable content is how the accumulated residual scales with rho.  In
    displacement control the work column is a trapezoidal reaction-force
    work and the ledger is flagged as a non-exact variant.
    """

    rows: list = field(default_factory=list)
    work_mode: str = "traction"

    @property
    def cumulative_residual(self) -> float:
        return self.rows[-1].cum_residual if self.rows else 0.0


def energy_balance(trace: Trace, load: LoadProgram | None) -> BalanceReport:
    """Build the per-step ledger from the recorded trace scalars.

    The dissipation and viscous integrands are constant on each interval
    (exact integrals); the work term uses the trapezoidal rule on the
    affine interpolants, which is exact for linear load ramps.  ``load``
    is read only on a Dirichlet trace, for its prescribed displacement.
    """
    recs = trace.records
    dirichlet = trace.load_mode == DIRICHLET_RAMP
    report = BalanceReport(
        work_mode="dirichlet_reaction" if dirichlet else "traction")
    cum = 0.0
    e_prev = trace.energy_init
    power_prev = recs[0].load_power
    reaction_prev = recs[0].reaction
    t_prev = recs[0].t
    for r in recs:
        dE = r.energy - e_prev
        visc = r.dz_norm_V * r.dual_distance
        if dirichlet:
            work = 0.5 * (r.reaction + reaction_prev) * (
                load.ubar(r.t) - load.ubar(t_prev))
        else:
            # d/dt energy contribution is -<l'(t), u>; trapezoid over the
            # interval with t_hat' constant there
            work = -0.5 * (r.load_power + power_prev) * (r.t - t_prev)
        residual = dE + r.R_increment + visc - work
        cum += residual
        report.rows.append(BalanceRow(
            k=r.k, dE=dE, R_inc=r.R_increment, visc=visc, work=work,
            residual=residual, cum_residual=cum))
        e_prev = r.energy
        power_prev = r.load_power
        reaction_prev = r.reaction
        t_prev = r.t
    return report


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

@dataclass
class InvariantReport:
    """Measured structural properties of a trace.  The damage-field
    figures ``z_min``, ``z_max`` and ``irreversibility_violation`` are None
    for a trace without fields (``trace.z0`` is None), such as one read
    back from ``trace.csv``."""

    rho: float
    time_decrease_max: float
    z_min: float | None
    z_max: float | None
    irreversibility_violation: float | None
    dz_over_rho_max: float
    dt_min: float
    dt_max: float
    final_time_error: float
    normalization_max_error: float
    last_normalization_le_one: bool
    am_unconverged_steps: int

    def verdicts(self) -> dict:
        """Pass (True) or fail (False) per property, by name; None for the
        field checks of a trace without fields."""
        tol = 1e-8
        fields = self.z_min is not None
        return {
            "monotone time": self.time_decrease_max <= 0.0,
            "z within [0, 1]": (self.z_min >= -tol
                                and self.z_max <= 1.0 + tol) if fields else None,
            "irreversibility": (self.irreversibility_violation <= tol
                                if fields else None),
            "dt within [0, rho]": (self.dt_min >= 0.0
                                   and self.dt_max <= self.rho * (1.0 + 1e-12)),
            "dz within ball": self.dz_over_rho_max <= 1.0 + 1e-6,
            "final time reached": self.final_time_error == 0.0,
            "normalization identity": self.normalization_max_error <= tol,
            "last step bounded": self.last_normalization_le_one,
            "AM converged": self.am_unconverged_steps == 0,
        }

    def ok(self) -> bool:
        """No property fails (unchecked field properties do not count)."""
        return False not in self.verdicts().values()


_BLOCK_VALUES = 1 << 16  # damage values per stacked block of the check


def check_trace_invariants(trace: Trace) -> InvariantReport:
    """Verify the proven structural properties on a stored trace.

    The bound and irreversibility checks read the stored damage (arrays,
    or floats for the scalar model) in step order: ``0 <= z <= 1`` on each,
    and ``z`` nonincreasing from ``z0`` through consecutive stored steps,
    so a trace that holds the fields of some steps only is checked on
    those; a trace without fields skips them.  ``z0`` and the stored steps
    are stacked in blocks of about ``_BLOCK_VALUES`` values, each starting
    at the last step of the one before, so a long trace holds one block at
    a time.  The reductions propagate NaN, so a NaN anywhere fails the
    verdict that reads it.
    """
    recs = trace.records
    rho = trace.scheme.rho
    z_min = z_max = irr = None
    if trace.z0 is not None:
        zs = [trace.z0] + [trace.snapshots[k][1]
                           for k in sorted(trace.snapshots)]
        step = max(1, _BLOCK_VALUES // np.size(trace.z0))
        lows, highs, rises = [math.inf], [-math.inf], [-math.inf]
        for i in range(0, len(zs) - 1, step):
            block = np.array(zs[i:i + step + 1])
            lows.append(block[1:].min())
            highs.append(block[1:].max())
            rises.append(np.diff(block, axis=0).max())
        z_min, z_max, irr = (float(np.min(lows)), float(np.max(highs)),
                             float(np.max(rises)))
    dt = np.array([r.dt for r in recs])
    last = (recs[-1].dt + recs[-2].dz_norm_V) / rho if len(recs) > 1 else 0.0
    return InvariantReport(
        rho=rho,
        time_decrease_max=float(np.max(-np.diff(trace.times()), initial=0.0)),
        z_min=z_min,
        z_max=z_max,
        irreversibility_violation=irr,
        dz_over_rho_max=float(np.max([r.dz_norm_V / rho for r in recs])),
        dt_min=float(dt.min()),
        dt_max=float(dt.max()),
        final_time_error=abs(recs[-1].t - trace.scheme.T),
        normalization_max_error=float(
            np.abs(normalization_residuals(trace)).max(initial=0.0)),
        last_normalization_le_one=last <= 1.0 + 1e-8,
        am_unconverged_steps=sum(not r.am_converged for r in recs),
    )


def normalization_residuals(trace: Trace) -> np.ndarray:
    """(dt_{k} + ||z_{k-1} - z_{k-2}||_V) / rho - 1 for the interior steps
    k = 1 .. N-1 (the final step is clamped at T and only bounded by 1)."""
    recs = trace.records
    rho = trace.scheme.rho
    vals = [
        (recs[k].dt + recs[k - 1].dz_norm_V) / rho - 1.0
        for k in range(1, len(recs) - 1)
    ]
    return np.array(vals)
