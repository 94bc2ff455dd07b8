"""Shared fixtures: small cached runs reused across test modules."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import amfrac as af


@pytest.fixture(scope="session")
def ct_coarse_setup():
    """Small notched plate, AT preset, displacement-controlled."""
    mesh = af.build_ct_mesh(1.0, 0.125, 0.125)
    model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                             preset="AT", g_c=1.0, theta=0.1)
    params = af.SchemeParams(rho=0.02, T=1.0,
                             norm_V=af.NormSpec("lalpha", 4.0),
                             store_all_snapshots=True)
    load = af.LoadProgram(mode="DIRICHLET_RAMP", T=params.T, direction=(0, 1),
                          ubar_rate=0.3)
    return mesh, model, load, params


@pytest.fixture(scope="session")
def ct_coarse_trace(ct_coarse_setup):
    mesh, model, load, params = ct_coarse_setup
    trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
    return mesh, model, load, params, trace


@pytest.fixture(scope="session")
def analysis_traction_setup():
    """Unnotched square under a traction ramp, quadratic-regularizer preset
    with a nonzero dissipation constant (the exact-ledger configuration)."""
    mesh = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
    model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02,
                             preset="ANALYSIS", kappa_E=0.15, kappa_R=0.08)
    params = af.SchemeParams(rho=0.05, T=1.0,
                             norm_V=af.NormSpec("lalpha", 4.0),
                             store_all_snapshots=True)
    load = af.LoadProgram(mode="TRACTION_RAMP", T=params.T, direction=(1, 0),
                          traction_rate=3.0)
    return mesh, model, load, params


@pytest.fixture(scope="session")
def analysis_traction_trace(analysis_traction_setup):
    mesh, model, load, params = analysis_traction_setup
    trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
    return mesh, model, load, params, trace


@pytest.fixture(scope="session")
def zerodim_trace():
    from amfrac.zerodim import ZeroDimModel, run_zero_dim
    zm = ZeroDimModel()
    params = af.SchemeParams(rho=0.02, T=1.0,
                             norm_V=af.NormSpec("lalpha", 2.0),
                             store_all_snapshots=True)
    return zm, params, run_zero_dim(zm, params)


@pytest.fixture(scope="session")
def h1_trace():
    mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
    model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                             preset="AT", g_c=1.0, theta=0.1)
    params = af.SchemeParams(rho=0.05, T=0.5, norm_V=af.NormSpec("h1"),
                             store_all_snapshots=True)
    load = af.LoadProgram(mode="DIRICHLET_RAMP", T=params.T, direction=(0, 1),
                          ubar_rate=0.6)
    trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
    return mesh, model, load, params, trace
