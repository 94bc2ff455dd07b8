"""The evolution loop of the adaptive scheme and its finite-element
subproblem.

Each outer step alternates the displacement and damage minimizations at a
frozen time until the iterates stop moving (``am_loop``), then advances the
physical time by ``rho - ||z_k - z_{k-1}||_V`` (clamped to ``[0, rho]`` and
to the final time).  Vanishing time increments signal jumps: the evolution
switches to the artificial arc-length parameterization while the crack
advances.

``evolve`` is the one outer loop behind every run: the adaptive field run
(``run``), the staggered baseline on a prescribed time grid
(``run_pure_am``, the same loop with ``rho = inf``) and the scalar model
(``zerodim.run_zero_dim``).  It sees the model only through a subproblem:
``params``, ``load_mode``, ``solve_u(t, z)``, ``solve_z(t, u, z_prev, rho)
-> (z, report)``, ``energy(t, u, z)``, the sup-norm ``sup(x)`` of the AM
stopping rule, the per-step ``record(k, t, dt, res, z_prev) ->
StepRecord``, which carries ``||z - z_prev||_V`` for the time update,
``fields(u, z)``, the snapshot of one step as a pair of arrays, and the two
methods of the predicted start below.  ``FieldProblem`` is the
finite-element implementation and ``zerodim.ScalarProblem`` the
closed-form scalar one.

Predicted start.  The artificial time advances by the same ``rho`` at
every step, so the last damage increment predicts the next one: from step
k = 1 on (with ``z_{-1} = z0``), the AM loop's first displacement solve
sees ``predict(z_{k-1}, z_{k-2}) = min(z_{k-1}, max(0, 2 z_{k-1} -
z_{k-2}))`` in place of ``z_{k-1}``.  Every damage solve keeps ``z_{k-1}``
as its irreversibility bound and ball centre; the stopping rule is
unchanged.  Plain AM from ``z_{k-1}`` decreases the energy at each solve,
so its step meets the one-step bound ``E_k + R_k <= B_k = E(t_k, u~_{k-1},
z_{k-1})``, where ``u~_{k-1}`` is ``u_{k-1}`` with its Dirichlet values
moved to ``t_k``.  ``energy_bound(t, last, u_prev, z_prev)`` gives ``B_k``
from the last record ``last``; it is evaluated before the loop.  A
predicted step that breaks the bound (beyond round-off) is redone from
``z_{k-1}``, that result is kept, and its record has ``am_redone`` set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import State, field_norm_V, lumped_weights, reaction_force, total_energy
from .mesh import Mesh
from .model import (
    DIRICHLET_RAMP,
    LoadProgram,
    MaterialModel,
    SchemeParams,
    dissipation_R,
)
from .solvers import SolverFailure, solve_u, solve_z


@dataclass
class StepRecord:
    """One outer-step row of a run trace."""

    k: int
    t: float
    dt: float
    dz_norm_V: float
    am_iters: int
    energy: float
    R_increment: float
    reaction: float
    dual_distance: float
    xi_norm: float
    ball_active: bool
    load_power: float = 0.0
    stationarity: float = 0.0
    am_redone: bool = False
    am_converged: bool = True


@dataclass(eq=False)
class Trace:
    """Ordered step records plus the data needed to rebuild interpolants."""

    records: list = field(default_factory=list)
    scheme: SchemeParams = None
    z0: np.ndarray = None
    u_init: np.ndarray = None
    energy_init: float = 0.0
    snapshots: dict = field(default_factory=dict)
    load_mode: str = DIRICHLET_RAMP
    aborted: bool = False

    @property
    def dual_surrogate(self) -> bool:
        """True when the scheme's dual distance is only an L2 surrogate."""
        return self.scheme.norm_V.dual_is_surrogate

    @property
    def n_steps(self) -> int:
        """Index N of the last record (records run k = 0 .. N)."""
        return self.records[-1].k

    @property
    def s_final(self) -> float:
        """Total artificial time N * rho."""
        return self.n_steps * self.scheme.rho

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def snapshot(self, k: int):
        if k == -1:
            return self.u_init, self.z0
        if k not in self.snapshots:
            raise KeyError(f"no stored fields for step {k} (snapshot evicted)")
        return self.snapshots[k]


@dataclass(eq=False)
class AMResult:
    """Outcome of one AM loop; ``z_report`` is the subproblem's report of
    the last damage solve."""

    u: np.ndarray
    z: np.ndarray
    iters: int
    first_u: np.ndarray
    z_report: object
    converged: bool


def am_loop(problem, t: float, z_prev, rho: float, u_prev=None,
            z_start=None) -> AMResult:
    """Alternate displacement/damage minimization at frozen time ``t``.

    The first displacement solve sees ``z_start`` (default: the previous
    damage field ``z_prev``); every damage solve is bounded by and centred
    on ``z_prev``.  Iterates to a Cauchy-type stopping rule; the returned
    pair is a fixpoint of the staggered map to tolerance.  The loop ends on
    a damage solve, so the damage KKT certificates hold exactly for the
    returned displacement.
    """
    sup = problem.sup
    tol = problem.params.tol_am
    z_i = z_prev if z_start is None else z_start
    u_ref = u_prev
    first_u = report = None
    converged = False
    i = 0
    for i in range(1, problem.params.max_am_iters + 1):
        u_i = problem.solve_u(t, z_i)
        if i == 1:
            first_u = u_i
        z_new, report = problem.solve_z(t, u_i, z_prev, rho)
        if u_ref is None:
            du = math.inf
        else:
            u_scale = sup(u_i)  # max(sup(u_i), 1e-12), without the call
            du = sup(u_i - u_ref) / (1e-12 if 1e-12 > u_scale else u_scale)
        dz = sup(z_new - z_i)
        u_ref, z_i = u_i, z_new
        if du <= tol and dz <= tol:  # a NaN in either is not converged
            converged = True
            break
    # positional: the scalar model runs this once per step
    return AMResult(u_ref, z_i, i, first_u, report, converged)


def time_update(t_k: float, dz_norm_V: float, rho: float, T: float) -> float:
    """Adaptive update ``t_{k+1} = min(t_k + rho - ||dz||_V, T)``.

    The increment is clamped non-negative against round-off overshoot of
    the ball radius.  An increment beyond the radius, or NaN, raises
    ``SolverFailure``.
    """
    if not dz_norm_V <= rho * (1.0 + 1e-6) + 1e-12:  # NaN fails too
        raise SolverFailure(
            "damage increment exceeds the arc-length radius or is NaN",
            dz_norm_V=dz_norm_V, rho=rho)
    dz = min(dz_norm_V, rho)
    # associate as t + (rho - dz): keeps dt >= 0 exactly when dz == rho
    return min(t_k + (rho - dz), T)


def _breaks_bound(record: StepRecord, bound: float) -> bool:
    """True when ``E_k + R_k`` exceeds the one-step bound ``B`` by more
    than round-off, ``1e-12 max(1, |B|)`` (a NaN does not break it)."""
    if bound > 1.0:
        limit = bound * (1.0 + 1e-12)
    elif bound < -1.0:
        limit = bound * (1.0 - 1e-12)
    else:
        limit = bound + 1e-12
    return record.energy + record.R_increment > limit


def _store_snapshot(k: int, dt: float, prev_dt: float, is_final: bool,
                    params: SchemeParams) -> bool:
    if params.store_all_snapshots:
        return True
    onset = dt <= 1e-14 and prev_dt > 1e-14
    return k == 0 or is_final or onset or k % params.snapshot_stride == 0


def evolve(problem, z0, times: np.ndarray | None = None,
           record_hook=None) -> Trace:
    """Evolution from ``t = 0`` until the step at the final time is done.

    Without ``times`` the steps are adaptive (radius ``params.rho``, time
    update ``time_update``).  With ``times`` the ball is switched off
    (``rho = inf``) and step k runs at ``times[k]``.  The first step (k = 0)
    re-minimizes at the initial time against ``z0``, so a jump at the
    initial time is detected.  A ``SolverFailure`` aborts the run with the
    partial trace attached as ``partial_trace``.
    """
    if not (np.min(z0) >= 0.0 and np.max(z0) <= 1.0):
        raise ValueError("initial damage must lie in [0, 1]")
    params = problem.params
    adaptive = times is None
    rho = params.rho if adaptive else math.inf
    max_steps = params.max_steps or (10 * math.ceil(params.T / params.rho)
                                     + 100000)
    trace = Trace(scheme=params, z0=np.array(z0, ndmin=1),
                  load_mode=problem.load_mode)
    z_prev = z_pp = z0
    u_prev = None
    t = t_prev = 0.0 if adaptive else times[0]
    k = 0
    try:
        while True:
            if k == 0:
                res = am_loop(problem, t, z_prev, rho)
                trace.u_init = np.array(res.first_u, ndmin=1)
                trace.energy_init = problem.energy(0.0, res.first_u, z0)
                record = problem.record(k, t, 0.0, res, z_prev)
            else:
                # before the loop, so that a bound evaluated at a new
                # displacement does not evict what the record reuses
                bound = problem.energy_bound(t, trace.records[-1], u_prev,
                                             z_prev)
                res = am_loop(problem, t, z_prev, rho, u_prev,
                              problem.predict(z_prev, z_pp))
                dt = t - t_prev
                record = problem.record(k, t, dt, res, z_prev)
                if _breaks_bound(record, bound):
                    res = am_loop(problem, t, z_prev, rho, u_prev)
                    record = problem.record(k, t, dt, res, z_prev)
                    record.am_redone = True
            prev_dt = trace.records[-1].dt if trace.records else 1.0
            is_final = t >= params.T if adaptive else k == len(times) - 1
            if _store_snapshot(k, record.dt, prev_dt, is_final, params):
                trace.snapshots[k] = problem.fields(res.u, res.z)
            trace.records.append(record)
            if record_hook is not None:
                record_hook(record)
            if is_final:
                return trace
            if not adaptive:
                t_next = times[k + 1]
            elif k + 1 > max_steps:
                raise SolverFailure("step budget exhausted before reaching T",
                                    steps=k, t=t)
            else:
                t_next = time_update(t, record.dz_norm_V, params.rho, params.T)
            z_pp, z_prev, u_prev = z_prev, res.z, res.u
            t_prev, t = t, t_next
            k += 1
    except SolverFailure as exc:
        trace.aborted = True
        exc.partial_trace = trace
        raise


class FieldProblem:
    """The finite-element subproblem of ``evolve``: mesh, material and
    load program."""

    def __init__(self, mesh: Mesh, model: MaterialModel, load: LoadProgram,
                 params: SchemeParams):
        self.mesh, self.model, self.load, self.params = mesh, model, load, params
        self.load_mode = load.mode
        self.weights = lumped_weights(mesh)
        self.f1 = load.force_rate_vector(mesh)

    def solve_u(self, t, z):
        return solve_u(t, z, self.mesh, self.model, self.load)

    def solve_z(self, t, u, z_prev, rho):
        report = solve_z(t, u, z_prev, rho, self.mesh, self.model, self.params)
        return report.z, report

    def energy(self, t, u, z) -> float:
        return total_energy(State(t, u, z), self.mesh, self.model, self.load)

    def dissipation(self, dz) -> float:
        return dissipation_R(dz, self.model, self.weights,
                             tol=self.params.tol_constraint)

    @staticmethod
    def sup(x) -> float:
        return float(np.abs(x).max(initial=0.0))

    @staticmethod
    def predict(z_prev, z_pp):
        """Secant prediction of the next damage field, clipped to
        ``[0, z_prev]``."""
        return np.minimum(z_prev, np.maximum(0.0, 2.0 * z_prev - z_pp))

    def energy_bound(self, t, last: StepRecord, u_prev, z_prev) -> float:
        """``E(t, u~, z_prev)``, with ``u~`` the last displacement
        ``u_prev`` with its Dirichlet values moved to ``t``."""
        if self.load_mode == DIRICHLET_RAMP:
            mask, values = self.load.dirichlet_dofs(self.mesh)
            return self.energy(t, np.where(mask, values(t), u_prev), z_prev)
        return last.energy - (t - last.t) * last.load_power

    @staticmethod
    def fields(u, z):
        return u.copy(), z.copy()

    def record(self, k, t, dt, res: AMResult, z_prev) -> StepRecord:
        from .diagnostics import dual_distance  # diagnostics imports Trace

        state = State(t, res.u, res.z)
        dz = res.z - z_prev
        rep = res.z_report
        return StepRecord(
            k=k,
            t=t,
            dt=dt,
            dz_norm_V=field_norm_V(dz, self.mesh, self.params.norm_V),
            am_iters=res.iters,
            energy=self.energy(t, res.u, res.z),
            R_increment=self.dissipation(dz),
            reaction=(reaction_force(state, self.mesh, self.model, self.load)
                      if self.load.mode == DIRICHLET_RAMP else 0.0),
            dual_distance=dual_distance(state, self.mesh, self.model,
                                        self.params.norm_V),
            xi_norm=rep.xi_norm_dual,
            ball_active=rep.constraint_active,
            load_power=float(self.f1 @ res.u),
            am_converged=res.converged,
            stationarity=rep.stationarity_residual,
        )


def run(mesh: Mesh, model: MaterialModel, load: LoadProgram,
        params: SchemeParams, z0: np.ndarray, record_hook=None) -> Trace:
    """Full adaptive evolution from ``t = 0`` until the final time is
    reached and the step at ``T`` is completed (see ``evolve``)."""
    return evolve(FieldProblem(mesh, model, load, params), z0,
                  record_hook=record_hook)


def run_pure_am(mesh: Mesh, model: MaterialModel, load: LoadProgram,
                params: SchemeParams, z0: np.ndarray, n_steps: int,
                times: np.ndarray | None = None, record_hook=None) -> Trace:
    """Staggered baseline on a prescribed time grid without the arc-length
    ball (infinite-radius behavior).

    ``times`` overrides the uniform grid; it must start at 0.  Useful to
    replay the adaptive scheme's grid for step-by-step comparisons.
    """
    if times is None:
        times = np.linspace(0.0, params.T, n_steps + 1)
    times = np.asarray(times, dtype=float)
    if abs(times[0]) > 0:
        raise ValueError("time grid must start at 0")
    return evolve(FieldProblem(mesh, model, load, params), z0, times=times,
                  record_hook=record_hook)
