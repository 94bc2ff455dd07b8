"""Dual distance, complementarity, interpolants and the energy ledger."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import amfrac as af
from amfrac import diagnostics
from amfrac.diagnostics import (
    InterpolantView,
    check_trace_invariants,
    complementarity_check,
    energy_balance,
    normalization_residuals,
    sample_interpolants,
    stable_set_distance,
)
from amfrac.model import TRACTION_RAMP
from amfrac.zerodim import ZeroDimModel, run_zero_dim


def projection_oracle(density, weights, kappa, alpha):
    """Distance by per-node bounded scalar minimization over the stable
    set, then dual-norm aggregation."""
    ap = alpha / (alpha - 1.0)
    residuals = np.empty_like(density)
    span = max(1.0, np.abs(density).max()) * 3
    for i, d in enumerate(density):
        res = minimize_scalar(lambda s: abs(-d - s) ** ap,
                              bounds=(-kappa, -kappa + span),
                              method="bounded",
                              options={"xatol": 1e-13})
        # polish with the boundary candidate (Brent stalls on boundary minima)
        best = min((res.x, -kappa), key=lambda s: abs(-d - s))
        residuals[i] = abs(-d - best)
    return float(np.sum(weights * residuals ** ap) ** (1.0 / ap))


class TestDualDistance:
    def test_stable_density_gives_zero(self):
        w = np.array([0.2, 0.3, 0.5])
        d = np.array([-1.0, 0.3, 0.5])
        assert stable_set_distance(d, w, 0.5, af.NormSpec("lalpha", 4.0)) == 0.0

    def test_single_node_formula(self):
        # one unit-weight node with density kappa + 2 at alpha = 2
        w = np.array([1.0])
        d = np.array([3.0])
        assert stable_set_distance(d, w, 1.0, af.NormSpec("lalpha", 2.0)) == \
            pytest.approx(2.0)

    @pytest.mark.parametrize("alpha", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_matches_projection_oracle(self, alpha, kappa):
        rng = np.random.default_rng(int(alpha * 10 + kappa))
        for _ in range(10):
            n = rng.integers(3, 25)
            w = rng.uniform(0.1, 2.0, n)
            d = rng.normal(0, 2.0, n)
            closed = stable_set_distance(d, w, kappa,
                                         af.NormSpec("lalpha", alpha))
            ref = projection_oracle(d, w, kappa, alpha)
            assert closed == pytest.approx(ref, rel=1e-8, abs=1e-10)

    def test_lower_bound_takes_up_the_force_at_zero(self):
        # a force toward negative z beyond kappa at every node: where z = 0
        # the normal cone of z >= 0 balances it, elsewhere it counts
        w = np.array([0.2, 0.3, 0.5])
        d = np.array([2.0, 3.0, 0.1])
        norm = af.NormSpec("lalpha", 2.0)
        at_zero = np.array([True, False, False])
        assert stable_set_distance(d, w, 0.5, norm,
                                   at_zero=np.ones(3, dtype=bool)) == 0.0
        assert stable_set_distance(d, w, 0.5, norm, at_zero=at_zero) == \
            pytest.approx(math.sqrt(0.3 * 2.5 ** 2))
        assert stable_set_distance(d, w, 0.5, norm) == \
            pytest.approx(math.sqrt(0.2 * 1.5 ** 2 + 0.3 * 2.5 ** 2))

    def test_state_level_evaluation(self, ct_coarse_setup):
        mesh, model, load, params = ct_coarse_setup
        # strongly driven state has positive distance; intact unloaded has 0
        assert af.dual_distance(np.zeros(2 * mesh.n_nodes),
                                np.full(mesh.n_nodes, 0.8), mesh, model,
                                params.norm_V) == 0.0
        u = af.solve_u(1.0, np.ones(mesh.n_nodes), mesh, model, load)
        assert af.dual_distance(u, np.ones(mesh.n_nodes), mesh, model,
                                params.norm_V) > 0.0


class TestComplementarity:
    def test_no_violations_on_converged_traces(self, ct_coarse_trace,
                                               analysis_traction_trace,
                                               zerodim_trace):
        for pack in (ct_coarse_trace, analysis_traction_trace):
            trace = pack[-1]
            assert complementarity_check(trace) == []
        assert complementarity_check(zerodim_trace[-1]) == []

    def test_jump_steps_are_exempt(self, zerodim_trace):
        _, _, trace = zerodim_trace
        jump_ks = [r.k for r in trace.records if r.dt == 0.0 and r.k > 0]
        assert jump_ks, "fixture must contain a jump"
        # distances during the jump are positive, yet no violation is flagged
        assert any(trace.records[k - 1].dual_distance > 1e-6 for k in jump_ks)
        assert complementarity_check(trace) == []

    def test_no_violations_on_the_coarse_lshape(self, tmp_path):
        # the coarse L-shaped panel holds nodes at z = 0 while the ball is
        # active; their force toward negative z is no instability.  If the
        # run stops before T (its ball-active damage solve can cycle), the
        # partial trace is checked.
        from amfrac.cli import load_config
        from amfrac.solvers import SolverFailure

        path = tmp_path / "lshape.cfg"
        path.write_text("[experiment]\nname = lshape\n"
                        "[mesh]\ncoarse_h = 50\nfine_h = 25\n")
        cfg = load_config(path)
        try:
            trace = af.run(cfg.mesh, cfg.material, cfg.load, cfg.scheme,
                           cfg.z0)
        except SolverFailure as exc:
            trace = exc.partial_trace
        assert trace.n_steps > 200
        assert complementarity_check(trace) == []

    def test_fault_injection_detected(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        tampered = copy.deepcopy(trace)
        advancing = [r.k for r in tampered.records[1:] if r.dt > 0.0]
        k = advancing[len(advancing) // 2]
        tampered.records[k - 1].dual_distance = 1.0
        violations = complementarity_check(tampered)
        assert any(v.k == k for v in violations)


class TestInterpolants:
    def test_grid_point_agreement(self, ct_coarse_trace):
        *_, params, trace = ct_coarse_trace[:3], ct_coarse_trace[3], ct_coarse_trace[4]
        rho = trace.scheme.rho
        view = InterpolantView(trace)
        for k in (0, 1, trace.n_steps // 2, trace.n_steps):
            s = k * rho
            t_k = trace.records[k].t
            assert view.t_hat(s) == pytest.approx(t_k, abs=1e-14)
            assert view.t_lower(s) == pytest.approx(t_k, abs=1e-14)
            assert view.t_upper(s) == pytest.approx(t_k, abs=1e-14)

    def test_affine_midpoint(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        rho = trace.scheme.rho
        view = InterpolantView(trace)
        k = trace.n_steps // 2
        s = (k + 0.5) * rho
        t_mid = 0.5 * (trace.records[k].t + trace.records[k + 1].t)
        assert view.t_hat(s) == pytest.approx(t_mid, rel=1e-12)
        _, z0 = trace.snapshot(k)
        _, z1 = trace.snapshot(k + 1)
        assert np.allclose(view.z_hat(s), 0.5 * (z0 + z1))

    def test_final_time_reached(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        view = InterpolantView(trace)
        assert view.t_hat(view.s_final) == trace.scheme.T
        assert view.t_lower(view.s_final) == trace.scheme.T

    def test_initial_interval_uses_virtual_entry(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        rho = trace.scheme.rho
        view = InterpolantView(trace)
        s = -0.5 * rho
        assert view.t_hat(s) == trace.records[0].t
        z_mid = view.z_hat(s)
        _, z0 = trace.snapshot(0)
        assert np.allclose(z_mid, 0.5 * (trace.z0 + z0))
        u_mid = view.u_hat(s)
        assert np.allclose(u_mid, 0.5 * (trace.u_init + trace.snapshot(0)[0]))

    def test_out_of_range_rejected(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        view = InterpolantView(trace)
        with pytest.raises(ValueError):
            view.t_hat(view.s_final + trace.scheme.rho)
        with pytest.raises(ValueError):
            view.z_hat(-2 * trace.scheme.rho)

    def test_missing_snapshot_raises(self, ct_coarse_setup):
        import dataclasses
        mesh, model, load, params = ct_coarse_setup
        sparse = dataclasses.replace(params, store_all_snapshots=False,
                                     snapshot_stride=1000)
        trace = af.run(mesh, model, load, sparse, np.ones(mesh.n_nodes))
        view = InterpolantView(trace)
        missing = next(k for k in range(1, trace.n_steps)
                       if k not in trace.snapshots)
        with pytest.raises(KeyError):
            view.z_hat((missing - 0.5) * sparse.rho)

    def test_sampler_shapes(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        rho = trace.scheme.rho
        s_vals = np.linspace(0, trace.s_final, 7)
        out = sample_interpolants(trace, s_vals)
        assert out["t_hat"].shape == (7,)
        assert len(out["z_hat"]) == 7

    def test_normalization_identity_sampled(self, ct_coarse_trace):
        """t_hat'(s) + |z_hat'(s - rho)|_V = 1 on [0, S - rho]."""
        *_, trace = ct_coarse_trace
        rho = trace.scheme.rho
        recs = trace.records
        rng = np.random.default_rng(99)
        view = InterpolantView(trace)
        h = 1e-4 * rho
        for _ in range(100):
            # sample away from grid points so the slope is well defined
            k = int(rng.integers(1, trace.n_steps))
            frac = rng.uniform(0.1, 0.9)
            s = (k - 1 + frac) * rho
            if s > trace.s_final - rho:
                continue
            tp = (view.t_hat(s + h) - view.t_hat(s - h)) / (2 * h)
            # |z_hat'| on the interval containing s - rho
            kk = int(math.floor((s - rho) / rho)) + 1
            dz_rate = recs[kk].dz_norm_V / rho
            assert tp + dz_rate == pytest.approx(1.0, abs=1e-8)

    def test_long_trace_matches_a_fresh_list_per_call(self):
        """The bisection runs on a grid built once; on a 20001-step scalar
        trace it gives the values of a bisection on ``list(s_grid)``
        rebuilt at every call."""
        import bisect

        class ListPerCall(InterpolantView):
            def _locate(self, s, closed_right):
                s = min(max(s, self.s_grid[0]), self.s_final)
                find = bisect.bisect_left if closed_right else bisect.bisect_right
                k = find(list(self.s_grid), s) - 1
                return int(min(max(k, 0), len(self.s_grid) - 2))

        trace = run_zero_dim(ZeroDimModel(kappa_E=0.85),
                             af.SchemeParams(rho=1e-4, T=1.0,
                                             norm_V=af.NormSpec("lalpha", 2.0),
                                             store_all_snapshots=True))
        assert len(trace.records) == 20001
        view, ref = InterpolantView(trace), ListPerCall(trace)
        s_vals = np.concatenate([
            np.linspace(-trace.scheme.rho, trace.s_final, 100),
            np.random.default_rng(7).uniform(-trace.scheme.rho,
                                             trace.s_final, 100)])
        for s in s_vals:
            assert view.t_hat(s) == ref.t_hat(s)
            assert np.array_equal(view.z_hat(s), ref.z_hat(s))
            assert np.array_equal(view.u_hat(s), ref.u_hat(s))

    def test_interpolant_lipschitz_bound(self, ct_coarse_trace,
                                         zerodim_trace):
        for trace in (ct_coarse_trace[-1], zerodim_trace[-1]):
            rho = trace.scheme.rho
            assert max(r.dz_norm_V for r in trace.records) / rho <= 1 + 1e-8


class TestNormalizationResiduals:
    def test_interior_steps(self, ct_coarse_trace, zerodim_trace):
        for trace in (ct_coarse_trace[-1], zerodim_trace[-1]):
            res = normalization_residuals(trace)
            assert np.abs(res).max() <= 1e-8
            recs = trace.records
            last = (recs[-1].dt + recs[-2].dz_norm_V) / trace.scheme.rho
            assert last <= 1 + 1e-8


class TestInvariantReport:
    # each edit replaces fields of one record, given that record, the one
    # before it and rho; k = 50 is a step in the middle of the scalar run
    @pytest.mark.parametrize("k, edit, failed", [
        (50, lambda r, prev, rho: dict(t=prev.t - 1e-9), ["monotone time"]),
        (50, lambda r, prev, rho: dict(dt=-1e-3),
         ["dt within [0, rho]", "normalization identity"]),
        (50, lambda r, prev, rho: dict(dt=2 * rho),
         ["dt within [0, rho]", "normalization identity"]),
        (50, lambda r, prev, rho: dict(dz_norm_V=2 * rho),
         ["dz within ball", "normalization identity"]),
        (-1, lambda r, prev, rho: dict(t=r.t - 1e-3), ["final time reached"]),
        (-1, lambda r, prev, rho: dict(dt=rho), ["last step bounded"]),
    ], ids=["time-decrease", "dt-negative", "dt-above-rho", "dz-outside-ball",
            "final-time-short", "last-step-full"])
    def test_time_decrease_fails_monotone_time(self, zerodim_trace, k, edit,
                                               failed):
        """Every verdict on the scalars of ``trace.csv`` fails on an edit of
        one record, and only the verdicts that the edit breaks fail."""
        trace = zerodim_trace[-1]
        assert check_trace_invariants(trace).ok()
        recs = list(trace.records)
        recs[k] = dataclasses.replace(
            recs[k], **edit(recs[k], recs[k - 1], trace.scheme.rho))
        report = check_trace_invariants(dataclasses.replace(trace, records=recs))
        assert [name for name, ok in report.verdicts().items()
                if ok is False] == failed
        assert not report.ok()

    @pytest.mark.parametrize("stored_step, shift, failed", [
        (-2, 1e-3, ["irreversibility"]),
        (-1, None, ["z within [0, 1]"]),
    ], ids=["irreversibility", "z-below-0"])
    def test_partial_trace_is_checked_on_its_stored_steps(self, stored_step,
                                                          shift, failed):
        """A run with the default ``store_all_snapshots=False`` keeps some
        fields; irreversibility runs from z0 through the stored steps, and
        the bounds of z hold at each of them.  ``shift`` raises a stored
        step's z above that of the stored step before it; without one, the
        z of the stored step is set to -0.1.  The scalar snapshots are
        floats."""
        trace = run_zero_dim(ZeroDimModel(), af.SchemeParams(rho=0.02, T=1.0))
        stored = sorted(trace.snapshots)
        assert 1 < len(stored) < len(trace.records)
        assert check_trace_invariants(trace).ok()
        k = stored[stored_step]
        u, z = trace.snapshots[k]
        if shift is None:
            z = -0.1
        else:
            z = trace.snapshots[stored[stored_step - 1]][1] + shift
            assert z <= 1.0
        report = check_trace_invariants(
            dataclasses.replace(trace, snapshots={**trace.snapshots, k: (u, z)}))
        assert [name for name, ok in report.verdicts().items()
                if ok is False] == failed

    def test_blocked_check_matches_a_per_snapshot_reduction(
            self, analysis_traction_trace):
        """Over more stored steps than one stacked block holds, the field
        figures are those of a reduction over one snapshot at a time, also
        when the extremes sit at a block boundary: the step that starts a
        block holds the least value, and the rise out of it is the largest.
        """
        trace = analysis_traction_trace[-1]
        n = trace.z0.size
        per_block = diagnostics._BLOCK_VALUES // n
        count = 2 * per_block + 5
        rng = np.random.default_rng(4)
        scale = rng.uniform(0.5, 1.0, n)
        stored = [scale * (1.0 - 0.5 * j / count) for j in range(1, count + 1)]
        # zs = [z0] + stored: the second block starts at zs[per_block]
        stored[per_block - 1][3] = -0.25
        stored[0][7] = 1.5
        snapshots = {j: (None, z) for j, z in enumerate(stored)}
        report = check_trace_invariants(
            dataclasses.replace(trace, snapshots=snapshots))
        rises = [(b - a).max() for a, b in zip([trace.z0] + stored, stored)]
        assert report.z_min == min(z.min() for z in stored) == -0.25
        assert report.z_max == max(z.max() for z in stored) == 1.5
        assert report.irreversibility_violation == max(rises)
        assert max(rises) == rises[per_block] > rises[0] > 0.0


class TestNaNFailsItsVerdict:
    """A NaN in a trace fails the certificate that reads it: the checks
    reduce with NaN-propagating operations and test ``not x <= tol``."""

    @pytest.fixture(scope="class")
    def trace(self):
        trace = run_zero_dim(ZeroDimModel(), af.SchemeParams(rho=0.05, T=1))
        assert check_trace_invariants(trace).ok()
        assert complementarity_check(trace) == []
        return trace

    @staticmethod
    def failed(report):
        return [name for name, ok in report.verdicts().items() if ok is False]

    def test_nan_dz_norm_of_the_last_record(self, trace):
        recs = list(trace.records)
        recs[-1] = dataclasses.replace(recs[-1], dz_norm_V=math.nan)
        report = check_trace_invariants(dataclasses.replace(trace, records=recs))
        assert self.failed(report) == ["dz within ball"]
        assert not report.ok()

    def test_all_nan_stored_damage_snapshot(self, trace):
        stored = sorted(trace.snapshots)
        k = stored[len(stored) // 2]
        u, z = trace.snapshots[k]
        snapshots = {**trace.snapshots, k: (u, np.full_like(z, math.nan))}
        report = check_trace_invariants(
            dataclasses.replace(trace, snapshots=snapshots))
        assert self.failed(report) == ["z within [0, 1]", "irreversibility"]

    @pytest.mark.parametrize("where", [0, 0.5, -1],
                             ids=["first", "middle", "last"])
    def test_nan_float_snapshot_of_a_scalar_trace(self, trace, where):
        """A scalar trace stores floats; a NaN one fails both field
        verdicts wherever it sits in the stacked check."""
        stored = sorted(trace.snapshots)
        k = stored[int(where * (len(stored) - 1)) if where else 0]
        u, z = trace.snapshots[k]
        assert type(z) is float
        snapshots = {**trace.snapshots, k: (u, math.nan)}
        report = check_trace_invariants(
            dataclasses.replace(trace, snapshots=snapshots))
        assert self.failed(report) == ["z within [0, 1]", "irreversibility"]

    def test_nan_dual_distance_before_an_advancing_step(self, trace):
        recs = list(trace.records)
        k = next(r.k for r in recs[1:] if r.dt > 0.0)
        recs[k - 1] = dataclasses.replace(recs[k - 1], dual_distance=math.nan)
        violations = complementarity_check(
            dataclasses.replace(trace, records=recs))
        assert [v.k for v in violations] == [k]
        assert math.isnan(violations[0].preceding_distance)


class TestEnergyBalance:
    def test_frozen_run_closes_exactly(self):
        # constant (zero-rate) load and a stationary damage field: every
        # ledger row vanishes
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=10.0, poisson_nu=0.2, eta=1e-3,
                                 preset="AT", g_c=1.0, theta=0.2)
        params = af.SchemeParams(rho=0.25, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 4.0),
                                 store_all_snapshots=True)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=0.0)
        trace = af.run(mesh, model, load, params,
                       np.full(mesh.n_nodes, 0.8))
        report = energy_balance(trace, load)
        assert report.work_mode == "traction"
        for row in report.rows:
            assert abs(row.residual) <= 1e-10

    def test_rows_close_by_construction(self, analysis_traction_trace):
        mesh, model, load, params, trace = analysis_traction_trace
        report = energy_balance(trace, load)
        for row in report.rows:
            assert row.dE + row.R_inc + row.visc - row.work - row.residual \
                == pytest.approx(0.0, abs=1e-14 * max(1.0, abs(row.dE)))
        cum = np.cumsum([r.residual for r in report.rows])
        assert cum[-1] == pytest.approx(report.cumulative_residual)

    def test_dirichlet_ledger_flagged(self, ct_coarse_trace):
        mesh, model, load, params, trace = ct_coarse_trace
        report = energy_balance(trace, load)
        assert report.work_mode == "dirichlet_reaction"

    def test_zerodim_ledger_matches_chain_rule_quadrature(self, zerodim_trace):
        """The ledger's closing residual equals the dense s-quadrature of
        the analytic interpolant mismatch (chain rule along the affine
        reconstruction)."""
        zm, params, trace = zerodim_trace
        load = af.LoadProgram(mode=TRACTION_RAMP, T=params.T,
                              direction=(1, 0), traction_rate=zm.ell_rate)
        report = energy_balance(trace, load)
        rho = params.rho
        recs = trace.records
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(6)

        for k in range(len(recs)):
            u0, z0 = trace.snapshot(k - 1)  # floats, k = -1 the initial entry
            u1, z1 = trace.snapshot(k)
            t0 = recs[k - 1].t if k > 0 else recs[0].t
            t1 = recs[k].t
            du, dz, dt = (u1 - u0) / rho, (z1 - z0) / rho, (t1 - t0) / rho
            acc = 0.0
            for x, wq in zip(gauss_x, gauss_w):
                lam = 0.5 * (x + 1.0)
                uh = u0 + lam * rho * du
                zh = z0 + lam * rho * dz
                th = t0 + lam * rho * dt
                dze_hat = (zm.a * uh * uh + zm.kappa_E) * zh
                dze_bar = (zm.a * u1 * u1 + zm.kappa_E) * z1
                due_hat = (zh * zh + zm.eta) * zm.a * uh - zm.ell(th)
                acc += 0.5 * rho * wq * ((dze_hat - dze_bar) * dz
                                         + due_hat * du)
            scale = max(1.0, abs(report.rows[k].residual))
            assert report.rows[k].residual == pytest.approx(
                acc, abs=1e-9 * scale)

    def test_remainder_shrinks_with_rho_zerodim(self):
        """Halving the arc length halves the accumulated remainder (checked
        in the smooth-response regime of the scalar model)."""
        zm = ZeroDimModel(a=1.0, eta=0.5, kappa_E=0.4, kappa_R=0.6,
                          ell_rate=1.0)
        load = af.LoadProgram(mode=TRACTION_RAMP, T=2.0, direction=(1, 0),
                              traction_rate=zm.ell_rate)
        cums = []
        for rho in (0.05, 0.025):
            params = af.SchemeParams(rho=rho, T=2.0,
                                     norm_V=af.NormSpec("lalpha", 2.0),
                                     store_all_snapshots=True)
            trace = run_zero_dim(zm, params)
            cums.append(abs(energy_balance(trace, load).cumulative_residual))
        ratio = cums[0] / cums[1]
        assert 1.5 <= ratio <= 3.0, (cums, ratio)


class TestStabilityCertificate:
    def test_dissipation_dominates_linearized_descent(self, ct_coarse_setup):
        """At a converged damage solve the linearized energy decrease along
        any feasible direction never beats the dissipation."""
        mesh, model, load, params = ct_coarse_setup
        from amfrac.assembly import z_quadratic, lumped_weights
        z_prev = np.ones(mesh.n_nodes)
        u = 2.5 * af.solve_u(1.0, z_prev, mesh, model, load)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        Q, b, _ = z_quadratic(u, mesh, model)
        g_energy = Q @ rep.z - b
        w = lumped_weights(mesh)
        kr = model.r_coefficient
        rng = np.random.default_rng(55)
        for _ in range(50):
            v = -rng.uniform(0, 1, mesh.n_nodes)
            R_v = kr * float(w @ np.abs(v))
            lhs = -float((rep.xi + g_energy) @ v)
            assert lhs <= R_v + 10 * params.tol_newton * max(
                1.0, float(np.abs(g_energy) @ np.abs(v)))
