"""Tests of the benchmark itself, at reduced size (about a minute):

    python3 -m pytest -q perfbench/test_bench.py
"""

import dataclasses
import json

import pytest

from prepare import ROOT, prepare

prepare()

import amfrac.driver  # noqa: E402
import amfrac.solvers  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]


def _records(trace):
    return [dataclasses.astuple(r) for r in trace.records]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_and_trace_scalars_repeat_exactly(name):
    spec = workloads.spec(name, reduced=True)
    first = workloads.run(workloads.build(spec))
    second = workloads.run(workloads.build(spec))
    assert _records(first) == _records(second)

    a = bench.measure(name, 0, 0.0, trace=True, reduced=True)["result"]
    b = bench.measure(name, 0, 0.0, trace=True, reduced=True)["result"]
    assert a["correct"] and b["correct"]
    counts = {k for k, v in a["metrics"].items() if v["unit"] == "count"}
    assert {"driver.steps", "driver.jump_steps", "driver.am_iters",
            "solvers.solve_z.factorizations", "solvers.solve_z.newton_iters",
            "solvers.solve_z.al_iters", "zerodim.z_step.calls"} <= counts
    assert ({k: a["metrics"][k]["value"] for k in counts}
            == {k: b["metrics"][k]["value"] for k in counts})


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"),
                                           (True, "per_layer")])
def test_printed_metrics_match_declaration(trace, section):
    want = {m["name"]: m["unit"] for m in DECLARED[section]}
    for name in NAMES:
        out = bench.measure(name, 1, 0.0, trace=trace, reduced=True)
        got = {k: v["unit"] for k, v in out["result"]["metrics"].items()}
        assert got == want, name
        assert out["absent"] == []


def test_self_times_account_for_the_traced_run():
    problem = workloads.build(workloads.spec("crack_growth", reduced=True))
    tracer = tracing.Tracer()
    _, error, run_s, _ = bench._timed_run(problem, tracer)
    assert error is None
    spans = tracer.summary()["spans"]
    total_self = sum(row["self_s"] for row in spans.values())
    assert total_self == pytest.approx(spans[tracing.RUN]["s"], rel=1e-9)
    assert spans[tracing.RUN]["s"] <= run_s
    assert {tracing.AM_LOOP, tracing.SOLVE_U, tracing.SOLVE_Z, tracing.SPLU,
            tracing.LU_SOLVE, "assembly.assemble_K"} <= set(spans)


def test_missing_wrapped_name_marks_metrics_absent(monkeypatch):
    monkeypatch.delattr(amfrac.solvers, "splu")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {tracing.SPLU}
    absent = [k for k in bench.PER_LAYER if bench._absent(k, tracer.missing)]
    assert sorted(absent) == sorted([
        "solvers.solve_z.factorizations",
        "solvers.solve_z.factorizations_per_call",
        "solvers.solve_z.factor_s", "solvers.solve_z.lu_solve_s",
        "solvers.solve_u.factor_s", "solvers.solve_u.lu_solve_s"])


class _WithoutALIters:
    """A damage-solve report from a solver that has no AL passes."""

    def __init__(self, report):
        self._report = report

    def __getattr__(self, name):
        if name == "al_iters":
            raise AttributeError(name)
        return getattr(self._report, name)


def test_missing_report_field_leaves_the_rest_of_the_traced_run(monkeypatch):
    solve_z = amfrac.driver.solve_z
    monkeypatch.setattr(amfrac.driver, "solve_z",
                        lambda *a, **kw: _WithoutALIters(solve_z(*a, **kw)))
    out = bench.measure("traction_jumps", 1, 0.0, trace=True, reduced=True)
    assert out["absent"] == ["solvers.solve_z.al_iters"]
    assert out["result"]["correct"]
    assert out["result"]["metrics"]["solvers.solve_z.newton_iters"]["value"] > 0
