"""Scalar (single displacement, single damage value) rate-independent toy
system with an exhaustive brute-force oracle.

The energy is ``E(t, u, z) = 1/2 (z^2 + eta) a u^2 - ell(t) u
+ 1/2 kappa_E z^2`` with the unidirectional dissipation
``R(v) = kappa_R |v|`` on ``v <= 0`` and the absolute value as ball norm.
It preserves the separately-quadratic structure of the field model.
``ScalarProblem`` implements the subproblem interface of ``driver.evolve``,
so a scalar run goes through the same evolution loop and AM loop as a
field run.  Both of its solves are closed form, the damage step a clipped
quotient, and every code path of the adaptive scheme (staggered loop, ball
constraint, irreversibility bound, time update, dual distance) is
exercised against closed forms and against grid search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .driver import StepRecord, Trace, evolve
from .model import TRACTION_RAMP, ModelConfigError, SchemeParams
from .solvers import SolverFailure

_GRID_STEP = 1e-4  # cell of the grid oracle behind check_oracle


@dataclass(eq=False)
class ZeroDimModel:
    """Defaults give an elastic phase, then a stable softening branch that
    folds mid-run: the increment series throttles, oscillates at onset and
    collapses into a jump (kappa_E must stay below kappa_R for an elastic
    phase and above 0.75*kappa_R for the branch to fold before z = 0).
    Every field must be finite, and a, eta and kappa_E positive."""

    a: float = 1.0
    eta: float = 1e-3
    kappa_E: float = 0.85
    kappa_R: float = 1.0
    ell_rate: float = 1.0

    def __post_init__(self):
        # NaN fails every comparison
        if not (0.0 < self.a < math.inf and 0.0 < self.eta < math.inf
                and 0.0 < self.kappa_E < math.inf):
            raise ModelConfigError(
                f"stiffness a = {self.a}, floor eta = {self.eta} and kappa_E "
                f"= {self.kappa_E} must be positive and finite")
        if not (-math.inf < self.kappa_R < math.inf
                and -math.inf < self.ell_rate < math.inf):
            raise ModelConfigError(f"kappa_R = {self.kappa_R} and ell_rate = "
                                   f"{self.ell_rate} must be finite")

    def ell(self, t: float) -> float:
        return self.ell_rate * t

    def energy(self, t: float, u: float, z: float) -> float:
        return (0.5 * (z * z + self.eta) * self.a * u * u
                - self.ell(t) * u + 0.5 * self.kappa_E * z * z)

    def u_min(self, t: float, z: float) -> float:
        """Closed-form displacement minimizer at fixed damage."""
        return self.ell_rate * t / ((z * z + self.eta) * self.a)

    def dz_energy(self, u: float, z: float) -> float:
        """Damage derivative of the energy (the scalar 'density')."""
        return (self.a * u * u + self.kappa_E) * z

    def dual_distance(self, u: float, z: float) -> float:
        return max(0.0, self.dz_energy(u, z) - self.kappa_R)


def z_step(t: float, u: float, z_prev: float, rho: float,
           model: ZeroDimModel):
    """The damage step in closed form.

    Minimizes ``E(t, u, .) + R(. - z_prev)``, ``c z^2 / 2 - kappa_R z`` plus
    a constant with ``c = a u^2 + kappa_E``, over ``[lo, z_prev]``, ``lo =
    max(0, z_prev - rho)``: ``z = min(max(kappa_R / c, lo), z_prev)``, NaN
    if ``z_prev`` is.  Returns (z, mu, lam) with the multipliers of the ball
    (lower) and irreversibility (upper) bounds read off the bound ``z``
    equals.  Comparisons stand in for ``min`` and ``max``, each picking the
    operand the builtin returns (``max(a, b)`` is ``b if b > a else a``), so
    the result is the builtin evaluation's bit for bit, -0.0 and NaN included.
    """
    lo = z_prev - rho
    if not lo > 0.0:  # max(0.0, z_prev - rho)
        lo = 0.0
    c = model.a * u * u + model.kappa_E
    kappa_R = model.kappa_R
    z = kappa_R / c
    # min(max(z, lo), z_prev), and NaN when z_prev is (min(x, nan) is x)
    if lo > z:
        z = lo
    if z_prev < z or z_prev != z_prev:
        z = z_prev
    g = c * z - kappa_R
    ball_side = z_prev - rho >= 0.0 and z == lo
    mu = g if ball_side and g > 0.0 else 0.0  # ball pushes from below
    lam = -g if g < 0.0 and z == z_prev else 0.0
    return z, mu, lam


def brute_force_z_step(t: float, u: float, z_prev: float, rho: float,
                       model: ZeroDimModel,
                       grid_step: float = _GRID_STEP) -> float:
    """Exhaustive grid minimization of the damage step objective
    ``(c/2) g^2 + kappa_R (z_prev - g)``, ``c = a u^2 + kappa_E``.

    The grid is ``np.linspace(lo, hi, n + 1)`` on the feasible interval
    ``[max(0, z_prev - rho), z_prev]`` with ``n = ceil((hi - lo) /
    grid_step)`` cells (at least one): point ``i`` is ``i * step + lo``
    with ``step = (hi - lo) / n`` and the last point is ``hi``.  The first
    minimum wins on ties, as ``np.argmin``.  It is evaluated in Python
    floats, one point at a time, so a call costs O(n) with no numpy
    overhead, and it returns the numpy evaluation's grid point bit for bit.
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    # max(0.0, z_prev - rho) and max(1, ceil(...)) without builtin calls,
    # which cost as much as a short grid
    lo = z_prev - rho
    if not lo > 0.0:
        lo = 0.0
    hi = z_prev
    n = math.ceil((hi - lo) / grid_step)
    if n < 1:
        n = 1
    step = (hi - lo) / n
    half_c = 0.5 * (model.a * u * u + model.kappa_E)
    kappa_R = model.kappa_R
    best_g, best = lo, half_c * (lo * lo) + kappa_R * (z_prev - lo)
    for i in range(1, n):
        g = i * step + lo
        v = half_c * (g * g) + kappa_R * (z_prev - g)
        if v < best:
            best_g, best = g, v
    if half_c * (hi * hi) + kappa_R * (z_prev - hi) < best:
        best_g = hi
    return best_g


class ScalarProblem:
    """The scalar system as the subproblem of ``driver.evolve``.

    Both solves are closed form and every quantity is a Python float, so
    the AM iteration makes no numpy call, also with ``check_oracle`` on:
    that option cross-checks every damage solve against the exhaustive grid
    oracle, itself evaluated in Python floats, and raises when the two
    differ by more than two grid cells.
    """

    sup = staticmethod(abs)
    load_mode = TRACTION_RAMP

    def __init__(self, model: ZeroDimModel, params: SchemeParams,
                 check_oracle: bool = False):
        self.model, self.params = model, params
        self.check_oracle = check_oracle
        self.solve_u = model.u_min
        self.energy = model.energy

    def solve_z(self, t, u, z_prev, rho):
        """The damage value and, as the report, its ball multiplier."""
        z, mu, _ = z_step(t, u, z_prev, rho, self.model)
        if self.check_oracle:
            z_ref = brute_force_z_step(t, u, z_prev, rho, self.model,
                                       _GRID_STEP)
            if not abs(z - z_ref) <= 2.0 * _GRID_STEP:  # NaN fails too
                raise SolverFailure("scalar damage step disagrees with "
                                    "the grid oracle", z=z, oracle=z_ref)
        return z, mu

    @staticmethod
    def predict(z_prev, z_pp):
        """``min(z_prev, max(0, 2 z_prev - z_pp))``, the secant prediction
        of the next damage value, with comparisons as in ``z_step``."""
        z = 2.0 * z_prev - z_pp
        if not z > 0.0:
            z = 0.0
        return z if z < z_prev else z_prev

    @staticmethod
    def energy_bound(t, last, u_prev, z_prev):
        """``E(t, u_prev, z_prev)`` from the last record: the load is a
        traction ramp, so the energy falls by the load power times the
        time increment."""
        return last.energy - (t - last.t) * last.load_power

    @staticmethod
    def fields(u: float, z: float):
        return np.array([u]), np.array([z])

    def record(self, k, t, dt, res, z_prev) -> StepRecord:
        model = self.model
        u, z = res.u, res.z
        dz_norm = abs(z - z_prev)
        return StepRecord(
            k=k,
            t=t,
            dt=dt,
            dz_norm_V=dz_norm,
            am_iters=res.iters,
            energy=model.energy(t, u, z),
            R_increment=model.kappa_R * dz_norm,
            reaction=0.0,
            dual_distance=model.dual_distance(u, z),
            xi_norm=res.z_report,
            ball_active=(z_prev - z) >= self.params.rho - 1e-12,
            load_power=model.ell_rate * u,
            am_converged=res.converged,
            # the closed-form damage solve meets its KKT conditions exactly
            stationarity=0.0,
        )


def run_zero_dim(model: ZeroDimModel, params: SchemeParams,
                 z0: float = 1.0, check_oracle: bool = False,
                 record_hook=None) -> Trace:
    """Full adaptive evolution of the scalar system (see ``driver.evolve``).

    With ``check_oracle`` every damage solve is cross-checked against the
    exhaustive grid oracle (within two grid cells); a mismatch raises.
    """
    return evolve(ScalarProblem(model, params, check_oracle), z0,
                  record_hook=record_hook)
