"""Measurement of one workload at one seed: untraced end-to-end metrics,
or the traced per-layer split."""

from __future__ import annotations

import dataclasses
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import amfrac.zerodim
from amfrac.solvers import SolverFailure

import checks
import hostspeed
import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 0.1

END_TO_END = {"run_s": "s", "setup_s": "s", "step_s_p50": "s",
              "step_s_p90": "s", "peak_rss_mb": "MB", "pass_frac": "fraction"}

# per-layer metric -> unit; names not produced by a run are reported absent
PER_LAYER = {
    "driver.steps": "count", "driver.jump_steps": "count",
    "driver.ball_active_steps": "count", "driver.am_iters": "count",
    "driver.am_iters_max": "count", "driver.am_unconverged_steps": "count",
    "driver.am_loop.self_s": "s", "driver.run.self_s": "s",
    "solvers.solve_z.calls": "count", "solvers.solve_z.s": "s",
    "solvers.solve_z.self_s": "s", "solvers.solve_z.factorizations": "count",
    "solvers.solve_z.factorizations_per_call": "ratio",
    "solvers.solve_z.factor_s": "s", "solvers.solve_z.lu_solve_s": "s",
    "solvers.solve_z.al_iters": "count", "solvers.solve_z.newton_iters": "count",
    "solvers.solve_z.ball_active_calls": "count",
    "solvers.solve_z.lower_clamps": "count",
    "solvers.solve_z.unconverged_calls": "count",
    "solvers.solve_u.calls": "count", "solvers.solve_u.s": "s",
    "solvers.solve_u.self_s": "s", "solvers.solve_u.factor_s": "s",
    "solvers.solve_u.lu_solve_s": "s",
    "assembly.assemble_K.calls": "count", "assembly.assemble_K.s": "s",
    "assembly.z_quadratic.s": "s",
    "assembly.total_energy.calls": "count", "assembly.total_energy.s": "s",
    "assembly.reaction_force.s": "s", "assembly.field_norm_V.s": "s",
    "diagnostics.dual_distance.s": "s", "diagnostics.step_s": "s",
    "model.load.s": "s", "model.dissipation_R.s": "s",
    "zerodim.z_step.calls": "count", "zerodim.z_step.s": "s",
    "zerodim.oracle.calls": "count", "zerodim.oracle.s": "s",
    "zerodim.run.self_s": "s",
    "mesh.nodes": "count", "mesh.elements": "count", "mesh.build_s": "s",
    "assembly.element_data.s": "s",
    "diagnostics.ledger_cum_residual": "energy",
    "diagnostics.normalization_max_err": "ratio",
    "diagnostics.ref_rel_err": "ratio",
    "trace.run_s": "s", "trace.overhead_s": "s",
}

# a metric that reads a ZSolveReport field: field -> metric
_REPORT_METRICS = {f"ZSolveReport.{f}": f"solvers.solve_z.{c}"
                   for f, c in {**tracing.Z_REPORT_COUNTS,
                                "converged": "unconverged_calls"}.items()}


def _absent(metric: str, missing: set) -> bool:
    """True when ``metric`` reads a wrapped name or report field that the
    program no longer has."""
    for token in missing:
        if metric.startswith(token) or _REPORT_METRICS.get(token) == metric:
            return True
        if token == tracing.SPLU and ("factor" in metric or "lu_solve" in metric):
            return True
    return False


def host() -> dict:
    """Host and library versions, recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _setup(spec: workloads.Spec) -> tuple:
    """Build the problem repeatedly for ``SETUP_BUDGET_S``.  Returns the
    last problem and each build's (total, mesh, quadrature cache) seconds.
    One build takes milliseconds or less, too little to time once; set-up
    runs before every repetition, so a burst of load on the host moves few
    of the samples whose median is reported."""
    times = []
    t_start = time.perf_counter()
    while (len(times) < SETUP_MIN_REPS
           or time.perf_counter() - t_start < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        problem = workloads.build(spec)
        times.append((time.perf_counter() - t0, problem.mesh_build_s,
                      problem.element_data_s))
    return problem, times


def _timed_run(problem: workloads.Problem, tracer: tracing.Tracer | None = None):
    """One run. Returns (trace or None, error or None, run_s, step times)."""
    stamps = []

    def hook(_record):
        stamps.append(time.perf_counter())

    def timed_step_record(*args, **kwargs):
        record = step_record(*args, **kwargs)
        stamps.append(time.perf_counter())
        return record

    root = "zerodim.run" if problem.spec.is_scalar else tracing.RUN
    trace, error = None, None
    with (tracing.patched(amfrac.zerodim, "StepRecord", timed_step_record)
          as step_record,
          tracer.installed() if tracer is not None else nullcontext()):
        t0 = time.perf_counter()
        i = tracer.open(root) if tracer is not None else None
        try:
            trace = workloads.run(problem, record_hook=hook)
        except SolverFailure as exc:
            error = exc
        finally:
            if tracer is not None:
                tracer.close(i)
            t1 = time.perf_counter()
    steps = np.diff(np.array([t0] + stamps))
    return trace, error, t1 - t0, steps


def _deadline_loop(seconds: float, attempt):
    """Call ``attempt()`` until the next call would pass ``seconds``; at
    least once.  ``attempt`` returns the wall time it took."""
    t_end = time.perf_counter() + seconds
    while True:
        took = attempt()
        if time.perf_counter() + took > t_end:
            return


def measure(name: str, seed: int, seconds: float, trace: bool,
            reduced: bool = False) -> dict:
    """The benchmark result of one invocation, as printed by run.py."""
    spec = workloads.spec(name, seed, reduced)
    reference = (checks.load_reference(name)
                 if seed == workloads.DEFAULT_SEED and not reduced else None)
    setups = []
    failures = []
    runs = {"untraced": [], "traced": []}
    peak_rss = []

    def attempt(tracer=None):
        t0 = time.perf_counter()
        job_before = hostspeed.job_seconds()
        problem, setup_times = _setup(spec)
        tr, err, run_s, steps = _timed_run(problem, tracer)
        speed = hostspeed.NOMINAL_S / (0.5 * (job_before + hostspeed.job_seconds()))
        setups.extend((total * speed, *split) for total, *split in setup_times)
        reasons = checks.gate(tr, err, reference)
        failures.extend(reasons)
        kind = "traced" if tracer else "untraced"
        runs[kind].append(
            {"trace": tr, "run_s": run_s, "steps": steps, "speed": speed,
             "ok": not reasons, "tracer": tracer, "problem": problem,
             "am_iters": sum(r.am_iters for r in tr.records) if tr else None})
        # only the fastest traced repetition is reported; drop the spans,
        # fields and meshes of the others so memory stays flat
        keep = _fastest(runs["traced"]) if tracer else None
        for r in runs[kind]:
            if r is not keep:
                r["trace"] = r["tracer"] = r["problem"] = None
        if not peak_rss:
            # memory only grows with later repetitions (allocator
            # fragmentation), so the first one defines the figure
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return time.perf_counter() - t0

    if not trace:
        _deadline_loop(seconds, attempt)
        metrics = _end_to_end(runs["untraced"], setups, peak_rss[0])
    else:
        _deadline_loop(seconds, lambda: attempt() + attempt(tracing.Tracer()))
        metrics = _per_layer(runs, setups, reference)
    attempted = len(runs["untraced"]) + len(runs["traced"])
    failed = sum(not r["ok"] for r in runs["untraced"] + runs["traced"])
    reps = [{"kind": kind, "run_s": r["run_s"], "host_speed": r["speed"],
             "steps": len(r["steps"]),
             "am_iters": r["am_iters"], "ok": r["ok"]}
            for kind, rs in runs.items() for r in rs]
    return {"inputs": dataclasses.asdict(spec), "host": host(), "reps": reps,
            "failures": failures[:20],
            "absent": sorted(set(_units(trace)) - set(metrics)),
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": unit}
                                   for k, unit in _units(trace).items()
                                   if k in metrics}}}


def _units(trace: bool) -> dict:
    return PER_LAYER if trace else END_TO_END


def _end_to_end(runs: list, setups: list, peak_rss_mb: float) -> dict:
    """Times in seconds of the unloaded host (see hostspeed.py).  Load only
    ever slows a repetition down, so the least value over the repetitions
    is the steadiest estimate of the program's own cost."""
    steps = _least_step_times(runs)
    return {"run_s": min(r["run_s"] * r["speed"] for r in runs),
            "setup_s": statistics.median(t[0] for t in setups),
            "step_s_p50": float(np.percentile(steps, 50)),
            "step_s_p90": float(np.percentile(steps, 90)),
            "peak_rss_mb": peak_rss_mb,
            "pass_frac": sum(r["ok"] for r in runs) / len(runs)}


def _least_step_times(runs: list) -> np.ndarray:
    """Each outer step's least time over the repetitions.  Every repetition
    runs the same steps on the same inputs, so a burst of host load that
    slowed step k in one repetition is absent from another; if the step
    counts differ (a run failed), the fastest repetition's times."""
    if len({len(r["steps"]) for r in runs}) == 1:
        return np.min([r["steps"] * r["speed"] for r in runs], axis=0)
    best = min(runs, key=lambda r: r["run_s"] * r["speed"])
    return best["steps"] * best["speed"]


def _fastest(runs: list) -> dict:
    return min(runs, key=lambda r: r["run_s"])


def _per_layer(runs: dict, setups: list, reference) -> dict:
    traced = _fastest(runs["traced"])
    problem = traced["problem"]
    untraced_s = _fastest(runs["untraced"])["run_s"]
    tracer = traced["tracer"]
    summ = tracer.summary()
    spans, split, counts = summ["spans"], summ["split"], summ["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    m = {}
    for layer, root in (("driver.run", tracing.RUN), ("zerodim.run", "zerodim.run")):
        m[f"{layer}.self_s"] = span(root, "self_s")
    m["driver.am_loop.self_s"] = span(tracing.AM_LOOP, "self_s")
    for solver, key in ((tracing.SOLVE_Z, "solvers.solve_z"),
                        (tracing.SOLVE_U, "solvers.solve_u")):
        for k in ("calls", "s", "self_s"):
            m[f"{key}.{k}"] = span(solver, k)
        m[f"{key}.factor_s"] = split[(solver, "factor_s")]
        m[f"{key}.lu_solve_s"] = split[(solver, "lu_solve_s")]
    fz = split[(tracing.SOLVE_Z, "factorizations")]
    m["solvers.solve_z.factorizations"] = int(fz)
    m["solvers.solve_z.factorizations_per_call"] = (
        fz / m["solvers.solve_z.calls"] if m["solvers.solve_z.calls"] else 0.0)
    for k, v in counts.items():
        m[f"solvers.solve_z.{k}"] = v
    for name in ("assemble_K", "total_energy"):
        m[f"assembly.{name}.calls"] = span(f"assembly.{name}", "calls")
    for name in ("assembly.assemble_K", "assembly.z_quadratic",
                 "assembly.total_energy", "assembly.reaction_force",
                 "assembly.field_norm_V", "diagnostics.dual_distance",
                 "model.load", "model.dissipation_R",
                 "zerodim.z_step", "zerodim.oracle"):
        m[f"{name}.s"] = span(name, "s")
    for name in ("zerodim.z_step", "zerodim.oracle"):
        m[f"{name}.calls"] = span(name, "calls")
    m["diagnostics.step_s"] = summ["step_diag_s"]

    mesh = problem.mesh
    m["mesh.nodes"] = mesh.n_nodes if mesh is not None else 0
    m["mesh.elements"] = mesh.n_elements if mesh is not None else 0
    m["mesh.build_s"] = statistics.median(t[1] for t in setups)
    m["assembly.element_data.s"] = statistics.median(t[2] for t in setups)

    tr = traced["trace"]
    if tr is not None:
        recs = tr.records
        m["driver.steps"] = len(recs)
        m["driver.jump_steps"] = sum(r.dt <= 1e-14 for r in recs[1:])
        m["driver.ball_active_steps"] = sum(bool(r.ball_active) for r in recs)
        m["driver.am_iters"] = sum(r.am_iters for r in recs)
        m["driver.am_iters_max"] = max(r.am_iters for r in recs)
        m["driver.am_unconverged_steps"] = sum(not r.am_converged for r in recs)
        for k, v in checks.accuracy(tr, problem.load, reference).items():
            m[f"diagnostics.{k}"] = v
    m["trace.run_s"] = traced["run_s"]
    m["trace.overhead_s"] = traced["run_s"] - untraced_s

    m = {k: v for k, v in m.items() if not _absent(k, summ["missing"])}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_csv(OUT_DIR / f"spans-{problem.spec.name}-seed{problem.spec.seed}.csv")
    return m
