"""The evolution loop of the adaptive scheme and its finite-element
subproblem.

Each outer step alternates the displacement and damage minimizations at a
frozen time until the iterates stop moving (``am_loop``), then advances the
physical time by ``rho - ||z_k - z_{k-1}||_V`` (clamped to ``[0, rho]`` and
to the final time).  A step whose damage solve ends with the ball binding
(the record's ``ball_active``) is a jump: its increment fills the ball,
and time advances by exactly 0, so the evolution runs in the artificial
arc-length parameterization while the crack advances.  A jump is nothing
else: every consumer reads ``ball_active`` or ``dt == 0.0``.

``evolve`` is the one outer loop behind every run: the adaptive field run
(``run``), the staggered baseline on the time grid ``times`` that it is
given (``run_pure_am``, the same loop and the same damage solve with
``rho = inf``, a ball that never binds) and the scalar model
(``zerodim.run_zero_dim``).  It sees the model only through a subproblem:
``params``, ``load_mode``, ``solve_u(t, z)``, ``solve_z(u, z_prev, rho,
start) -> (z, report)``, where ``start`` is None for the first damage
solve of an AM loop and the previous solve's report after it,
``energy(t, u, z)``, the sup-norm ``sup(x)`` of the AM stopping rule, the
per-step ``record(k, t, dt, res, z_prev) -> StepRecord``, which carries
``||z - z_prev||_V`` for the time update, ``predict(z_prev, z_pp)`` and,
under a Dirichlet load only, ``energy_bound(t, u_prev, z_prev)``, and
``z_solve_ignores_start``, true when a damage solve's result depends on
``(u, z_prev, rho)`` alone (see "Exact fixpoint" below).  A trace keeps
what the subproblem returned, uncopied, since nothing writes
to a returned value: ``solve_u`` writes only into the fresh ``values(t)``,
``solve_z`` only into a copy of ``z_prev`` or of its start's ``z``, and
``predict`` builds new arrays.  Only the caller's ``z0`` is copied, and a
float stays a float.  ``FieldProblem`` is the finite-element
implementation and ``zerodim.ScalarProblem`` the closed-form scalar one.

Predicted start.  The artificial time advances by the same ``rho`` at
every step, so the last damage increment predicts the next one: the AM
loop's first displacement solve sees ``predict(z_{k-1}, z_{k-2}) =
min(z_{k-1}, max(0, 2 z_{k-1} - z_{k-2}))`` in place of ``z_{k-1}``.
Every damage solve keeps ``z_{k-1}`` as its irreversibility bound and ball
centre; the stopping rule is unchanged.  Plain AM from ``z_{k-1}``
decreases the energy at each solve, so its step meets the one-step bound
``E_k + R_k <= B_k = E(t_k, u~_{k-1}, z_{k-1})``, where ``u~_{k-1}`` is
``u_{k-1}`` with its Dirichlet values moved to ``t_k``.  A predicted step
that breaks the bound (beyond round-off) is redone from ``z_{k-1}``, that
result is kept, and its record has ``am_redone`` set.  Under a traction
ramp ``B_k = E_{k-1} - (t_k - t_{k-1}) P_{k-1}``, with ``P`` the load
power of the last record; under a Dirichlet load ``energy_bound`` gives
it.  Step 0 runs through the same body with ``z_{-2} = z_{-1} = z0``, so
its prediction is ``z0``, and with ``B_0 = +inf``: there is no previous
state to bound it.

Exact fixpoint.  An AM iteration whose damage solve returns exactly the
damage it was given leaves the next iteration nothing new: its
displacement solve would see the same ``(t, z)``, and its damage solve the
subproblem just solved.  When the damage solve ignores its ``start`` (the
scalar model's closed-form step), that iteration would repeat the last one
bit for bit, so ``am_loop`` evaluates its stopping rule without running it
(counted in ``am_iters``, not solved); about a third of a fine-``rho``
scalar run's iterations are such repeats.  A field damage solve
warm-starts from the report it is given, and re-solving from its own
report re-polishes the multiplier and the stationarity residual in the
last bits (seen on a coarse L-panel under the H1 ball), so a field run
solves every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .assembly import (field_norm_V, lumped_weights, reaction_force,
                       total_energy)
from .mesh import Mesh
from .model import (
    DIRICHLET_RAMP,
    TRACTION_RAMP,
    LoadProgram,
    MaterialModel,
    SchemeParams,
    dissipation_R,
)
from .solvers import SolverFailure, solve_u, solve_z


@dataclass(slots=True)
class StepRecord:
    """One outer-step row of a run trace (slotted: a scalar run keeps one
    per step)."""

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
    z0: np.ndarray | float = None
    u_init: np.ndarray | float = None
    energy_init: float = 0.0
    snapshots: dict = field(default_factory=dict)
    load_mode: str = DIRICHLET_RAMP
    aborted: bool = False

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
        """``(u, z)`` of step ``k`` as the subproblem returned them (floats
        for the scalar model); ``k = -1`` gives ``(u_init, z0)``."""
        if k == -1:
            return self.u_init, self.z0
        if k not in self.snapshots:
            raise KeyError(f"the run stored no fields for step {k}")
        return self.snapshots[k]


@dataclass(eq=False)
class AMResult:
    """Outcome of one AM loop: the last displacement and damage iterates,
    the number of iterations, the subproblem's report of the last damage
    solve and whether the stopping rule was met."""

    u: np.ndarray
    z: np.ndarray
    iters: int
    z_report: object
    converged: bool


def am_loop(problem, t: float, z_prev, rho: float, u_prev=None,
            z_start=None) -> AMResult:
    """Alternate displacement/damage minimization at frozen time ``t``.

    The first displacement solve sees ``z_start`` (default: the previous
    damage field ``z_prev``); every damage solve is bounded by and centred
    on ``z_prev``, and each one after the first starts from the report of
    the one before (the subproblem's ``start``).  Iterates to a
    Cauchy-type stopping rule; the returned pair is a fixpoint of the
    staggered map to tolerance.  The loop ends on a damage solve, so the
    damage KKT certificates hold exactly for the returned displacement.

    Exact fixpoint.  When iteration ``i`` does not stop but its damage
    solve returned exactly the damage its displacement solve was given
    (``dz == 0.0``), iteration ``i + 1`` would see the same ``(t, z)``
    and the subproblem ``(u_i, z_prev, rho)`` just solved.  If the
    problem's ``z_solve_ignores_start``, its rule is evaluated without
    the two solves: ``du = sup(u_i - u_i) / max(sup(u_i), 1e-12)`` (0,
    or NaN for a non-finite ``u_i``) and ``dz = 0``.  If it stops, the
    loop returns ``u_i``, the last damage and its report with ``iters =
    i + 1``, the iterations the rule took; without ``i < max_am_iters``
    there is no iteration ``i + 1``.  A damage solve that ignores its
    start repeats its result bit for bit, so this is the iteration the
    solves would compute; a field solve warm-starts from its report, and
    re-solving re-polishes that report in round-off, so it solves on.
    """
    sup = problem.sup
    tol = problem.params.tol_am
    max_iters = problem.params.max_am_iters
    repeat_exit = problem.z_solve_ignores_start
    z_i = z_prev if z_start is None else z_start
    u_ref = u_prev
    report = None
    converged = False
    i = 0
    for i in range(1, max_iters + 1):
        u_i = problem.solve_u(t, z_i)
        z_new, report = problem.solve_z(u_i, z_prev, rho, report)
        u_scale = sup(u_i)  # max(sup(u_i), 1e-12), without the call
        if u_scale < 1e-12:
            u_scale = 1e-12
        du = math.inf if u_ref is None else sup(u_i - u_ref) / u_scale
        dz = sup(z_new - z_i)
        u_ref, z_i = u_i, z_new
        if du <= tol and dz <= tol:  # a NaN in either is not converged
            converged = True
            break
        # the damage solve returned its input (NaN fails ==): the rule of
        # iteration i + 1, whose two solves would repeat these (docstring)
        if (dz == 0.0 and repeat_exit and i < max_iters
                and sup(u_i - u_i) / u_scale <= tol):
            i += 1
            converged = True
            break
    # positional: the scalar model runs this once per step
    return AMResult(u_ref, z_i, i, report, converged)


def time_update(t_k: float, dz_norm_V: float, rho: float, T: float,
                ball_active: bool) -> float:
    """Adaptive update ``t_{k+1} = min(t_k + rho - ||dz||_V, T)``.

    When the ball binds (``ball_active``) the increment fills it,
    ``||dz||_V = rho`` at the KKT point, and ``t_{k+1} = t_k`` exactly.
    Otherwise the increment is clamped non-negative against round-off
    overshoot of the ball radius.  An increment beyond the radius, or NaN,
    raises ``SolverFailure``, on a jump too.
    """
    if not dz_norm_V <= rho * (1.0 + 1e-6) + 1e-12:  # NaN fails too
        raise SolverFailure(
            "damage increment exceeds the arc-length radius or is NaN",
            dz_norm_V=dz_norm_V, rho=rho)
    dz = rho if ball_active else min(dz_norm_V, rho)
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
    """Whether a run keeps the fields of step ``k``: its first and last
    step, each jump onset and every ``snapshot_stride``-th step, or every
    step with ``store_all_snapshots``."""
    if params.store_all_snapshots:
        return True
    onset = dt == 0.0 and prev_dt != 0.0
    return k == 0 or is_final or onset or k % params.snapshot_stride == 0


def _step_budget(params: SchemeParams) -> int:
    """Steps an adaptive run may take before it fails: ten times the
    ``ceil(T / rho)`` steps of a run without jumps, plus 100000."""
    return 10 * math.ceil(params.T / params.rho) + 100000


def evolve(problem, z0, times: np.ndarray | None = None,
           record_hook=None) -> Trace:
    """Evolution from ``t = 0`` until the step at the final time is done.

    Without ``times`` the steps are adaptive (radius ``params.rho``, time
    update ``time_update``).  With ``times`` the radius is infinite
    (``rho = inf``), so the ball never binds, and step k runs at
    ``times[k]``.  Every step, the first (k = 0) included, runs the
    predicted AM loop of the module docstring; step 0 re-minimizes at the
    initial time against ``z0``, so a jump at the initial time is
    detected.  ``trace.u_init`` is the displacement solve at ``z0`` and
    the initial time.  A ``SolverFailure`` aborts the run with the partial
    trace attached as ``partial_trace``.
    """
    if not (np.min(z0) >= 0.0 and np.max(z0) <= 1.0):
        raise ValueError("initial damage must lie in [0, 1]")
    params = problem.params
    adaptive = times is None
    rho = params.rho if adaptive else math.inf
    max_steps = _step_budget(params)
    traction = problem.load_mode == TRACTION_RAMP
    z0 = z0 if isinstance(z0, float) else np.array(z0)
    trace = Trace(scheme=params, z0=z0, load_mode=problem.load_mode)
    z_prev = z_pp = z0
    u_prev = None
    t = t_prev = 0.0 if adaptive else times[0]
    bound = math.inf
    k = 0
    try:
        trace.u_init = u_init = problem.solve_u(t, z0)
        trace.energy_init = problem.energy(0.0, u_init, z0)
        while True:
            res = am_loop(problem, t, z_prev, rho, u_prev,
                          problem.predict(z_prev, z_pp))
            record = problem.record(k, t, t - t_prev, res, z_prev)
            if _breaks_bound(record, bound):
                res = am_loop(problem, t, z_prev, rho, u_prev)
                record = problem.record(k, t, t - t_prev, res, z_prev)
                record.am_redone = True
            prev_dt = trace.records[-1].dt if trace.records else 1.0
            is_final = t >= params.T if adaptive else k == len(times) - 1
            if _store_snapshot(k, record.dt, prev_dt, is_final, params):
                trace.snapshots[k] = (res.u, res.z)
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
                t_next = time_update(t, record.dz_norm_V, params.rho, params.T,
                                     record.ball_active)
            # after the record, so that a bound evaluated at a new
            # displacement does not evict what the record reuses
            if traction:
                bound = record.energy - (t_next - t) * record.load_power
            else:
                bound = problem.energy_bound(t_next, res.u, res.z)
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

    # the damage solve warm-starts from its start's report
    z_solve_ignores_start = False

    def __init__(self, mesh: Mesh, model: MaterialModel, load: LoadProgram,
                 params: SchemeParams):
        self.mesh, self.model, self.load, self.params = mesh, model, load, params
        self.load_mode = load.mode
        self.weights = lumped_weights(mesh)
        self.f1 = load.force_rate_vector(mesh)

    def solve_u(self, t, z):
        return solve_u(t, z, self.mesh, self.model, self.load)

    def solve_z(self, u, z_prev, rho, start):
        report = solve_z(u, z_prev, rho, self.mesh, self.model, self.params,
                         start)
        return report.z, report

    def energy(self, t, u, z) -> float:
        return total_energy(t, u, z, self.mesh, self.model, self.load)

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

    def energy_bound(self, t, u_prev, z_prev) -> float:
        """``E(t, u~, z_prev)`` under a Dirichlet load, with ``u~`` the last
        displacement ``u_prev`` with its Dirichlet values moved to ``t``."""
        mask, values = self.load.dirichlet_dofs(self.mesh)
        return self.energy(t, np.where(mask, values(t), u_prev), z_prev)

    def record(self, k, t, dt, res: AMResult, z_prev) -> StepRecord:
        u, z = res.u, res.z
        dz = z - z_prev
        rep = res.z_report
        return StepRecord(
            k=k,
            t=t,
            dt=dt,
            dz_norm_V=field_norm_V(dz, self.mesh, self.params.norm_V),
            am_iters=res.iters,
            energy=self.energy(t, u, z),
            R_increment=self.dissipation(dz),
            reaction=(reaction_force(t, u, z, self.mesh, self.model, self.load)
                      if self.load.mode == DIRICHLET_RAMP else 0.0),
            dual_distance=diagnostics.dual_distance(
                u, z, self.mesh, self.model, self.params.norm_V),
            xi_norm=rep.xi_norm_dual,
            ball_active=rep.constraint_active,
            load_power=float(self.f1 @ u),
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
                params: SchemeParams, z0: np.ndarray, times: np.ndarray,
                record_hook=None) -> Trace:
    """Staggered baseline: step k runs at ``times[k]`` with an infinite
    ball radius, which never binds (see ``evolve``).

    ``times`` is a non-empty, finite, non-decreasing 1-D grid from 0
    (else ``ValueError``), such as ``np.linspace(0, params.T, n + 1)`` or
    an adaptive run's ``Trace.times()``, for step-by-step comparisons.
    """
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and times.size > 0 and times[0] == 0.0
            and np.isfinite(times).all() and (np.diff(times) >= 0.0).all()):
        raise ValueError("time grid must be non-empty, 1-D, finite and "
                         "non-decreasing, and start at 0")
    return evolve(FieldProblem(mesh, model, load, params), z0, times=times,
                  record_hook=record_hook)
