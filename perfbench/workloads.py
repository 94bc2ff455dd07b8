"""The benchmark's fixed workloads, built only through the public API.

Seed 0 gives the inputs of the table in README.md exactly.  Any other seed
draws the load rate (and kappa_E for ``scalar``) from a band of +-1 % around
those values: narrow enough that each workload keeps the property it was
chosen for, wide enough that a change tuned to one input does not pass
unseen.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import numpy as np

import amfrac as af
from amfrac.assembly import element_data
from amfrac.model import DIRICHLET_RAMP, TRACTION_RAMP

NAMES = ("crack_growth", "traction_jumps", "precrack_fine", "scalar")
DEFAULT_SEED = 0
BAND = 0.01

_CT_MATERIAL = dict(young_E=100.0, poisson_nu=0.3, eta=1e-4, g_c=1.0,
                    theta=0.025, preset="AT")
_ANALYSIS_MATERIAL = dict(young_E=30.0, poisson_nu=0.2, eta=0.02,
                          preset="ANALYSIS", kappa_E=0.15, kappa_R=0.08)


@dataclass(frozen=True)
class Spec:
    """Inputs of one workload at one seed (plain data, printed with results)."""

    name: str
    seed: int
    rho: float
    T: float = 1.0
    alpha: float = 4.0
    mesh: tuple = ()            # build_ct_mesh(side, coarse_h, fine_h)
    notch: bool = True
    material: dict = field(default_factory=dict)
    load: dict = field(default_factory=dict)
    zerodim: dict = field(default_factory=dict)

    @property
    def is_scalar(self) -> bool:
        return not self.mesh


def spec(name: str, seed: int = DEFAULT_SEED, reduced: bool = False) -> Spec:
    """Inputs of workload ``name`` at ``seed``.

    ``reduced`` shrinks mesh and step count for the benchmark's own tests;
    it keeps the load path and preset of the full workload.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    rng = random.Random(f"{name}:{seed}")

    def draw(base: float) -> float:
        if seed == DEFAULT_SEED:
            return base
        return base * (1.0 + rng.uniform(-BAND, BAND))

    coarse = (1.0, 0.125, 0.125)
    if name == "crack_growth":
        return Spec(name, seed, rho=0.02 if reduced else 0.01,
                    mesh=coarse if reduced else (1.0, 0.1, 0.05),
                    material=_CT_MATERIAL,
                    load=dict(mode=DIRICHLET_RAMP, direction=(0.0, 1.0),
                              ubar_rate=draw(0.35)))
    if name == "traction_jumps":
        return Spec(name, seed, rho=0.05 if reduced else 0.02,
                    mesh=coarse if reduced else (1.0, 0.05, 0.05),
                    notch=False, material=_ANALYSIS_MATERIAL,
                    load=dict(mode=TRACTION_RAMP, direction=(1.0, 0.0),
                              traction_rate=draw(3.0)))
    if name == "precrack_fine":
        return Spec(name, seed, rho=0.05 if reduced else 0.01,
                    mesh=coarse if reduced else (1.0, 0.1, 0.0125),
                    material=_CT_MATERIAL,
                    load=dict(mode=DIRICHLET_RAMP, direction=(0.0, 1.0),
                              ubar_rate=draw(0.1)))
    # the fold needs 0.75 kappa_R < kappa_E < kappa_R; the band keeps it
    return Spec(name, seed, rho=0.02 if reduced else 1e-4, alpha=2.0,
                zerodim=dict(kappa_E=draw(0.85), ell_rate=draw(1.0)))


@dataclass(eq=False)
class Problem:
    """Everything a run needs, built by ``build``."""

    spec: Spec
    params: af.SchemeParams
    load: af.LoadProgram
    mesh: af.Mesh | None = None
    model: af.MaterialModel | None = None
    zmodel: af.ZeroDimModel | None = None
    mesh_build_s: float = 0.0
    element_data_s: float = 0.0


def build(s: Spec) -> Problem:
    """Set-up of one run: mesh, quadrature cache, model, load and params."""
    params = af.SchemeParams(rho=s.rho, T=s.T,
                             norm_V=af.NormSpec("lalpha", s.alpha),
                             store_all_snapshots=True)
    if s.is_scalar:
        zmodel = af.ZeroDimModel(**s.zerodim)
        # the ledger's work term reads the scalar load as a traction ramp
        load = af.LoadProgram(mode=TRACTION_RAMP, T=s.T, direction=(1.0, 0.0),
                              traction_rate=zmodel.ell_rate)
        return Problem(s, params, load, zmodel=zmodel)
    t0 = time.perf_counter()
    mesh = af.build_ct_mesh(*s.mesh, notch=s.notch)
    t1 = time.perf_counter()
    element_data(mesh)
    t2 = time.perf_counter()
    model = af.MaterialModel(**s.material)
    load = af.LoadProgram(T=s.T, **s.load)
    return Problem(s, params, load, mesh=mesh, model=model,
                   mesh_build_s=t1 - t0, element_data_s=t2 - t1)


def run(p: Problem, record_hook=None) -> af.Trace:
    """One run from t = 0 to T, as ``amfrac run`` does it (``check_oracle``
    on for the scalar model)."""
    if p.spec.is_scalar:
        return af.run_zero_dim(p.zmodel, p.params, check_oracle=True)
    return af.run(p.mesh, p.model, p.load, p.params, np.ones(p.mesh.n_nodes),
                  record_hook=record_hook)
