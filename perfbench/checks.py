"""Correctness gate of one benchmark run and the committed references.

A run passes when it reached T without ``SolverFailure``, its trace holds
the scheme's invariants and complementarity, every outer step's AM loop
converged, and (for the default seed) it agrees with the reference in
``reference/<workload>.json``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import amfrac as af
from amfrac.model import DIRICHLET_RAMP

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CURVE_POINTS = 200  # the reference keeps about this many curve samples


def summary(trace: af.Trace, stride: int | None = None) -> dict:
    """What the reference pins down: step count, final energy, and the
    reaction curve (Dirichlet) or load-power curve (traction), sampled
    every ``stride`` steps over the step index k = s / rho."""
    recs = trace.records
    if stride is None:
        stride = max(1, len(recs) // CURVE_POINTS)
    dirichlet = trace.load_mode == DIRICHLET_RAMP
    curve = [r.reaction if dirichlet else r.load_power for r in recs]
    return {"steps": len(recs), "final_energy": recs[-1].energy,
            "curve_kind": "reaction" if dirichlet else "load_power",
            "curve_stride": stride, "curve": curve[::stride]}


def deviation(trace: af.Trace, ref: dict) -> dict:
    """Deviation of a trace from a reference summary: step-count
    difference, relative final-energy error and the largest curve
    difference over the common samples relative to the curve's range."""
    got = summary(trace, ref["curve_stride"])
    m = min(len(got["curve"]), len(ref["curve"]))
    scale = max(max(abs(c) for c in ref["curve"]), 1e-300)
    curve_err = max(abs(a - b) for a, b in zip(got["curve"][:m], ref["curve"][:m]))
    e_ref = ref["final_energy"]
    return {"steps": abs(got["steps"] - ref["steps"]),
            "energy": abs(got["final_energy"] - e_ref) / max(abs(e_ref), 1e-300),
            "curve": curve_err / scale}


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)


def gate(trace: af.Trace | None, error: Exception | None,
         reference: dict | None) -> list:
    """Reasons the run fails; empty when it passes."""
    if error is not None:
        return [f"{type(error).__name__}: {error}"]
    reasons = []
    inv = af.check_trace_invariants(trace)
    if not inv.ok():
        reasons.append(f"trace invariants: {inv}")
    comp = af.complementarity_check(trace)
    if comp:
        reasons.append(f"complementarity: {len(comp)} violations, first {comp[0]}")
    unconverged = [r.k for r in trace.records if not r.am_converged]
    if unconverged:
        reasons.append(f"AM loop unconverged at steps {unconverged[:10]}")
    if reference is not None:
        dev = deviation(trace, reference["summary"])
        tol = reference["tolerance"]
        for key, value in dev.items():
            if not value <= tol[key]:
                reasons.append(f"reference {key}: deviation {value:.3g} "
                               f"exceeds {tol[key]:.3g}")
    return reasons


def accuracy(trace: af.Trace, load: af.LoadProgram,
             reference: dict | None) -> dict:
    """Accuracy figures reported by the traced run (not gated here).

    ``ref_rel_err`` is -1 when the seed has no reference (held-out seeds)
    and 1e300 when the deviation is not finite (JSON has no infinity).
    """
    inv = af.check_trace_invariants(trace)
    ref_err = -1.0
    if reference is not None:
        dev = deviation(trace, reference["summary"])
        ref_err = max(dev["energy"], dev["curve"])
    cum = af.energy_balance(trace, load).cumulative_residual
    return {"ledger_cum_residual": abs(cum),
            "normalization_max_err": inv.normalization_max_error,
            "ref_rel_err": ref_err if math.isfinite(ref_err) else 1e300}
