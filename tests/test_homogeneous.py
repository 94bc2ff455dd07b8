"""A field run that is the scalar model: the homogeneous specimen."""

import math

import numpy as np
import pytest

import amfrac as af

RHO = 0.02


@pytest.fixture(scope="module")
def scalar_records():
    return af.run_zero_dim(af.ZeroDimModel(),
                           af.SchemeParams(rho=RHO, T=1.0)).records


@pytest.mark.parametrize("norm", [
    af.NormSpec("lalpha", 2.0), af.NormSpec("lalpha", 4.0),
    af.NormSpec("lalpha", 1.5), af.NormSpec("h1")],
    ids=["L2", "L4", "L1.5", "H1"])
def test_homogeneous_specimen_reproduces_the_scalar_model(norm,
                                                          scalar_records):
    """The unnotched unit plate under a traction ramp along x, with
    ``poisson_nu = 0`` and the ANALYSIS preset carrying the constants of
    ``ZeroDimModel()``, gives the scalar model's trace record for record.

    Why the two runs agree: with nu = 0, uniaxial stress fits the clamped
    left edge, so the strain is uniform and the elastic energy is
    ``1/2 (z^2 + eta) a u^2`` with ``a = young_E``, and the load power is
    ``ell(t) u``.  The consistent mass has ``M 1 = w`` (its row sums are
    the lumped weights) and the Laplacian ``L 1 = 0``, so a uniform ``z``
    solves every damage subproblem from a uniform start.  On the unit plate
    ``||v||_V = |v|`` for a uniform ``v``, for every L^alpha and for H1, so
    the ball and the dissipation are the scalar ones.  The field's damage
    solve stops at its Newton tolerance, so its dual distance and ball
    multiplier agree to a few ``tol_newton``.

    What it cannot see: the gradient term (``L z = 0``), the H1 dual
    surrogate, the notch, the Dirichlet coupling of a displacement ramp,
    and a cycling active set of a damage solve.
    """
    zm = af.ZeroDimModel()
    mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
    assert mesh.n_nodes == 25
    model = af.MaterialModel(young_E=zm.a, poisson_nu=0.0, preset="ANALYSIS",
                             eta=zm.eta, kappa_E=zm.kappa_E,
                             kappa_R=zm.kappa_R)
    load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1.0, 0.0),
                          traction_rate=zm.ell_rate)
    params = af.SchemeParams(rho=RHO, T=1.0, norm_V=norm)
    field = af.run(mesh, model, load, params, np.ones(mesh.n_nodes)).records

    assert len(field) == len(scalar_records)
    assert any(r.ball_active for r in scalar_records)
    dual_tol = 10.0 * params.tol_newton
    for f, s in zip(field, scalar_records):
        assert (f.k, f.am_iters, f.ball_active) == (s.k, s.am_iters,
                                                   s.ball_active)
        for name in ("t", "dt", "dz_norm_V", "R_increment"):
            assert abs(getattr(f, name) - getattr(s, name)) <= 1e-12, name
        for name in ("energy", "load_power"):
            assert math.isclose(getattr(f, name), getattr(s, name),
                                rel_tol=1e-11, abs_tol=0.0), name
        for name in ("dual_distance", "xi_norm"):
            assert abs(getattr(f, name) - getattr(s, name)) <= dual_tol, name
