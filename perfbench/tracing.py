"""Spans recorded from outside the program.

Each public function of interest is replaced, for the length of one run,
by a wrapper that records a span (name, start, end, parent) in memory.
Functions are bound by ``from .x import y`` in the module that calls them,
so each is patched under its caller's name; patching only the defining
module would catch nothing.  ``splu`` returns a proxy whose ``solve`` is
timed too, which splits factorization from triangular solves per caller.

A name that no longer exists is skipped and the metrics that depend on it
are reported absent; the rest of the traced run goes on.  Private helpers
(``_polish`` and the like) are never wrapped: their time is the self time
of the public function that calls them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import amfrac.assembly
import amfrac.diagnostics
import amfrac.driver
import amfrac.model
import amfrac.solvers
import amfrac.zerodim

SPLU = "scipy.splu"
LU_SOLVE = "scipy.lu_solve"
SOLVE_U = "solvers.solve_u"
SOLVE_Z = "solvers.solve_z"
AM_LOOP = "driver.am_loop"
RUN = "driver.run"

# (owner, attribute, span name); owners are the modules that call the name
PATCHES = (
    (amfrac.driver, "am_loop", AM_LOOP),
    (amfrac.driver, "solve_u", SOLVE_U),
    (amfrac.driver, "solve_z", SOLVE_Z),
    (amfrac.driver, "total_energy", "assembly.total_energy"),
    (amfrac.driver, "dissipation_R", "model.dissipation_R"),
    (amfrac.driver, "reaction_force", "assembly.reaction_force"),
    (amfrac.driver, "field_norm_V", "assembly.field_norm_V"),
    (amfrac.solvers, "assemble_K", "assembly.assemble_K"),
    (amfrac.solvers, "z_quadratic", "assembly.z_quadratic"),
    (amfrac.solvers, "splu", SPLU),
    (amfrac.assembly, "assemble_K", "assembly.assemble_K"),
    (amfrac.diagnostics, "dual_distance", "diagnostics.dual_distance"),
    (amfrac.model.LoadProgram, "dirichlet_dofs", "model.load"),
    (amfrac.model.LoadProgram, "force_vector", "model.load"),
    (amfrac.zerodim, "z_step", "zerodim.z_step"),
    (amfrac.zerodim, "brute_force_z_step", "zerodim.oracle"),
)

# ZSolveReport fields summed over damage solves: field -> counter name
Z_REPORT_COUNTS = {
    "al_iters": "al_iters",
    "newton_iters": "newton_iters",
    "constraint_active": "ball_active_calls",
    "lower_clamps": "lower_clamps",
}


@contextmanager
def patched(owner, attr: str, replacement):
    """Set ``owner.attr`` to ``replacement`` and restore it on exit."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans of one traced run, kept in memory as parallel lists."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.counts: dict = {f: 0 for f in Z_REPORT_COUNTS.values()}
        self.counts["unconverged_calls"] = 0
        # span names whose function, or ZSolveReport fields, were not found
        self.missing: set = set()

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            return on_result(out) if on_result is not None else out

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_lu(self, lu):
        return _TimedLU(lu, self)

    def _count_z_report(self, report):
        for fld, counter in Z_REPORT_COUNTS.items():
            value = getattr(report, fld, None)
            if value is None:
                self.missing.add(f"ZSolveReport.{fld}")
            else:
                self.counts[counter] += int(value)
        converged = getattr(report, "converged", None)
        if converged is None:
            self.missing.add("ZSolveReport.converged")
        else:
            self.counts["unconverged_calls"] += int(not converged)
        return report

    @contextmanager
    def installed(self):
        """Install every wrapper whose name exists; restore all on exit."""
        hooks = {SPLU: self._timed_lu, SOLVE_Z: self._count_z_report}
        saved = []
        try:
            for owner, attr, name in PATCHES:
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.add(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus the
        factor/solve split of ``splu`` by its nearest solver ancestor and
        the time of direct children of ``driver.run`` other than
        ``am_loop`` (the per-step diagnostics of ``run``)."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict = {}
        for i in range(n):
            row = out.setdefault(self.names[i], {"calls": 0, "s": 0.0,
                                                 "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        split = {(s, k): 0.0 for s in (SOLVE_U, SOLVE_Z)
                 for k in ("factor_s", "lu_solve_s", "factorizations")}
        step_diag = 0.0
        for i in range(n):
            name = self.names[i]
            p = self.parents[i]
            if p >= 0 and self.names[p] == RUN and name != AM_LOOP:
                step_diag += dur[i]
            if name not in (SPLU, LU_SOLVE):
                continue
            while p >= 0 and self.names[p] not in (SOLVE_U, SOLVE_Z):
                p = self.parents[p]
            if p < 0:
                continue
            solver = self.names[p]
            if name == SPLU:
                split[(solver, "factor_s")] += dur[i]
                split[(solver, "factorizations")] += 1
            else:
                split[(solver, "lu_solve_s")] += dur[i]
        return {"spans": out, "split": split, "step_diag_s": step_diag,
                "counts": dict(self.counts), "missing": set(self.missing)}

    def write_csv(self, path):
        """All spans, one per line: index, parent, name, start, end (s)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            f.write("index,parent,name,start_s,end_s\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{self.parents[i]},{name},"
                        f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")


class _TimedLU:
    """Proxy of a SuperLU factorization whose ``solve`` records a span."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        i = self._tracer.open(LU_SOLVE)
        try:
            return self._lu.solve(*args, **kwargs)
        finally:
            self._tracer.close(i)

    def __getattr__(self, name):
        return getattr(self._lu, name)
