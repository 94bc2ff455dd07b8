"""The program names that perfbench replaces at run time to measure it
from outside: they exist, and the runs call them through the module
globals that perfbench patches."""

import importlib.util
from pathlib import Path

import numpy as np

import amfrac as af
import amfrac.zerodim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_field_run(record_hook=None):
    """Displacement-controlled run on a 25-node plate: 9 steps."""
    mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
    model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                             preset="AT", g_c=1e6, theta=0.1)
    params = af.SchemeParams(rho=0.125, T=1.0,
                             norm_V=af.NormSpec("lalpha", 4.0))
    load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                          ubar_rate=0.1)
    return af.run(mesh, model, load, params, np.full(mesh.n_nodes, 0.9),
                  record_hook=record_hook)


def scalar_run():
    return af.run_zero_dim(af.ZeroDimModel(),
                           af.SchemeParams(rho=0.05, T=1.0),
                           check_oracle=True)


def test_every_patched_name_exists_and_is_called():
    tracing = load_tracing()
    for owner, attr, span in tracing.PATCHES:
        assert callable(getattr(owner, attr, None)), \
            f"{owner.__name__}.{attr} ({span}) is gone"
    tracer = tracing.Tracer()
    with tracer.installed():
        small_field_run()
        scalar_run()
    assert not tracer.missing
    assert set(tracer.names) >= {span for _, _, span in tracing.PATCHES}


def test_scalar_run_builds_one_step_record_per_record(monkeypatch):
    built = []
    step_record = amfrac.zerodim.StepRecord

    def counting(*args, **kwargs):
        built.append(step_record(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(amfrac.zerodim, "StepRecord", counting)
    trace = scalar_run()
    assert built == trace.records
    assert all(a is b for a, b in zip(built, trace.records))


def test_field_run_calls_record_hook_once_per_record():
    seen = []
    trace = small_field_run(record_hook=seen.append)
    assert len(seen) == len(trace.records)
    assert all(a is b for a, b in zip(seen, trace.records))
