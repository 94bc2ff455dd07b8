"""Scalar toy system: closed-form solves against the exhaustive oracle."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import amfrac as af
import amfrac.zerodim as zerodim
from amfrac.diagnostics import check_trace_invariants, complementarity_check
from amfrac.model import ModelConfigError
from amfrac.zerodim import (
    ScalarProblem,
    ZeroDimModel,
    brute_force_z_step,
    run_zero_dim,
    z_step,
)
from oracles import ScalarBV, ref_brute_force_z_step, ref_z_step, z_step_bits


class TestZStep:
    def test_no_displacement_keeps_z(self):
        zm = ZeroDimModel()  # kappa_R > kappa_E * z_prev: no decrease
        z, mu, lam = z_step(0.0, 0.0, 0.8, 0.1, zm)
        assert z == pytest.approx(0.8)
        assert mu == 0.0
        oracle = brute_force_z_step(0.0, 0.0, 0.8, 0.1, zm)
        assert abs(z - oracle) <= 2e-4

    def test_zero_radius_is_singleton(self):
        zm = ZeroDimModel()
        z, _, _ = z_step(0.3, 2.0, 0.7, 0.0, zm)
        assert z == pytest.approx(0.7)
        assert brute_force_z_step(0.3, 2.0, 0.7, 0.0, zm) == pytest.approx(0.7)

    def test_saturated_ball_without_restoring_terms(self):
        zm = ZeroDimModel(kappa_E=1e-12, kappa_R=0.0)
        z, mu, _ = z_step(0.0, 10.0, 0.9, 0.2, zm)
        assert z == pytest.approx(max(0.0, 0.9 - 0.2))
        assert mu > 0.0  # ball multiplier pushes from below
        z2, _, _ = z_step(0.0, 10.0, 0.1, 0.5, zm)
        assert z2 == pytest.approx(0.0, abs=1e-12)

    def test_oracle_equivalence_random(self):
        zm = ZeroDimModel()
        rng = np.random.default_rng(42)
        grid_step = 1e-4
        for _ in range(200):
            t = rng.uniform(0.0, 1.0)
            u = rng.uniform(0.0, 3.0)
            z_prev = rng.uniform(0.0, 1.0)
            rho = rng.uniform(1e-3, 0.5)
            z, _, _ = z_step(t, u, z_prev, rho, zm)
            oracle = brute_force_z_step(t, u, z_prev, rho, zm, grid_step)
            assert abs(z - oracle) <= 2 * grid_step

    def test_closed_form_and_multipliers(self):
        """The clipped minimizer, its multipliers on the bound it equals
        (the ball's only where the ball gives the lower bound), and the
        stationarity ``c z - kappa_R - mu + lam = 0`` to round-off."""
        rng = np.random.default_rng(18)
        for _ in range(3000):
            zm = ZeroDimModel(a=rng.uniform(0.1, 3.0),
                              kappa_E=rng.uniform(0.01, 2.0),
                              kappa_R=rng.uniform(0.0, 2.0))
            u, z_prev = rng.uniform(0.0, 3.0), rng.uniform(0.0, 1.0)
            rho = 10.0 ** rng.uniform(-6.0, 0.0)
            z, mu, lam = z_step(0.0, u, z_prev, rho, zm)
            c = zm.a * u * u + zm.kappa_E
            lo = max(0.0, z_prev - rho)
            assert z == min(max(zm.kappa_R / c, lo), z_prev)
            assert mu >= 0.0 and lam >= 0.0
            if mu > 0.0:
                assert z == lo and z_prev - rho >= 0.0
            if lam > 0.0:
                assert z == z_prev
            residual = c * z - zm.kappa_R - mu + lam
            assert abs(residual) <= 4e-16 * (c * z + zm.kappa_R)

    def test_grid_step_validation(self):
        with pytest.raises(ValueError):
            brute_force_z_step(0.0, 1.0, 0.5, 0.1, ZeroDimModel(), 0.0)


class TestZStepIdentity:
    """``z_step`` with comparisons against its builtin evaluation
    ``ref_z_step``, compared bit for bit."""

    @staticmethod
    def assert_same(t, u, z_prev, rho, zm):
        got = z_step_bits(z_step, t, u, z_prev, rho, zm)
        assert got == z_step_bits(ref_z_step, t, u, z_prev, rho, zm), \
            (u, z_prev, rho, vars(zm))

    def test_random_inputs(self):
        rng = np.random.default_rng(12)
        for _ in range(3000):
            zm = ZeroDimModel(a=rng.uniform(0.1, 3.0),
                              kappa_E=rng.uniform(0.0, 2.0),
                              kappa_R=rng.uniform(0.0, 2.0))
            rho = 10.0 ** rng.uniform(-6.0, 0.0)
            self.assert_same(rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0),
                             rng.uniform(0.0, 1.0), rho, zm)

    def test_edge_table(self):
        """Every combination of special values: rho = 0 and rho >= z_prev,
        z_prev = 0 and u = 0, either sign of zero, 1e-300, +-inf and NaN,
        and either sign of kappa_R (with kappa_R = -0.0 a clip can land
        on -0.0)."""
        special = (0.0, -0.0, 1e-300, 0.3, 0.5, 1.0, 2.0, -1.0, math.inf,
                   -math.inf, math.nan)
        for kappa_E, kappa_R in itertools.product(
                (0.0, -0.0, 0.85, 2.0), (0.0, -0.0, 1.0, -1.0, math.nan)):
            zm = SimpleNamespace(a=1.0, kappa_E=kappa_E, kappa_R=kappa_R)
            for u, z_prev, rho in itertools.product(
                    (0.0, -0.0, 1e-300, 1.0, 3.0, math.nan), special, special):
                self.assert_same(0.3, u, z_prev, rho, zm)

    @pytest.mark.parametrize("u, z_prev, rho", [
        (math.nan, 0.8, 0.1), (1.0, math.nan, 0.1)])
    def test_nan_input_gives_nan(self, u, z_prev, rho):
        zm = ZeroDimModel()
        self.assert_same(0.3, u, z_prev, rho, zm)
        assert math.isnan(z_step(0.3, u, z_prev, rho, zm)[0])

    def test_scalar_run_with_the_reference_step(self, monkeypatch):
        zm = ZeroDimModel()
        params = af.SchemeParams(rho=1e-3, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 2.0),
                                 store_all_snapshots=True)
        trace = run_zero_dim(zm, params)
        monkeypatch.setattr(zerodim, "z_step", ref_z_step)
        ref = run_zero_dim(zm, params)
        assert repr(trace.records) == repr(ref.records)

        def snapshot_bytes(tr):
            return {k: (u.tobytes(), z.tobytes())
                    for k, (u, z) in tr.snapshots.items()}

        assert snapshot_bytes(trace) == snapshot_bytes(ref)


class TestGridOracle:
    """``brute_force_z_step`` in Python floats against its numpy reference
    (``np.linspace`` and ``np.argmin``), compared under ``==``."""

    @staticmethod
    def assert_same(t, u, z_prev, rho, zm, grid_step):
        z = brute_force_z_step(t, u, z_prev, rho, zm, grid_step)
        z_ref = ref_brute_force_z_step(t, u, z_prev, rho, zm, grid_step)
        assert z == z_ref, (u, z_prev, rho, grid_step)

    def test_random_inputs_match_the_numpy_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(1500):
            zm = ZeroDimModel(a=rng.uniform(0.1, 3.0),
                              kappa_E=rng.uniform(0.0, 2.0),
                              kappa_R=rng.uniform(0.0, 2.0))
            grid_step = 10.0 ** rng.uniform(-5.0, -1.0)
            cells = 10.0 ** rng.uniform(0.0, math.log10(5000.0))
            z_prev = rng.uniform(0.0, 1.0)
            rho = cells * grid_step
            self.assert_same(rng.uniform(0.0, 1.0), rng.uniform(0.0, 3.0),
                             z_prev, rho, zm, grid_step)

    def test_flat_minimum_is_decided_by_round_off(self):
        """Cells of 1e-9 to 1e-7 around the interior minimizer: neighbouring
        objective values differ in their last bits, so the argmin depends
        on the exact order of every operation."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            zm = ZeroDimModel(kappa_E=rng.uniform(1.0, 2.0),
                              kappa_R=rng.uniform(0.1, 1.0))
            u = rng.uniform(0.0, 1.0)
            z_min = zm.kappa_R / (zm.a * u * u + zm.kappa_E)
            grid_step = 10.0 ** rng.uniform(-9.0, -7.0)
            rho = int(rng.integers(50, 2000)) * grid_step
            z_prev = z_min + rng.uniform(0.2, 0.8) * rho
            self.assert_same(0.0, u, z_prev, rho, zm, grid_step)

    @pytest.mark.parametrize("cells", [1, 2, 3, 7, 200, 1000, 5000])
    def test_grid_sizes(self, cells):
        zm = ZeroDimModel()
        grid_step = 1e-4
        rho = 0.9999 * cells * grid_step
        assert math.ceil((0.9 - (0.9 - rho)) / grid_step) == cells
        for u in (0.0, 0.7, 1.3, 3.0):
            self.assert_same(0.0, u, 0.9, rho, zm, grid_step)

    @pytest.mark.parametrize("z_prev, rho", [
        (0.7, 0.0),      # zero radius: lo == hi
        (0.0, 0.1),      # no damage left: lo == hi == 0
        (0.05, 0.3),     # z_prev < rho: the grid starts at 0
        (0.3, 0.3),      # z_prev == rho
        (0.7, 1e-3),     # (hi - lo) / grid_step is 10 + round-off: 11 cells
    ])
    def test_edge_intervals(self, z_prev, rho):
        rng = np.random.default_rng(3)
        for _ in range(20):
            zm = ZeroDimModel(kappa_E=rng.uniform(0.0, 2.0),
                              kappa_R=rng.uniform(0.0, 2.0))
            self.assert_same(0.0, rng.uniform(0.0, 3.0), z_prev, rho, zm,
                             1e-4)

    def test_round_off_adds_a_cell(self):
        # the premise of the last case of test_edge_intervals
        assert math.ceil((0.7 - (0.7 - 1e-3)) / 1e-4) == 11

    def test_ties_keep_the_first_minimum(self):
        # u = 0 and kappa_R = kappa_E = 0: the objective is 0 everywhere;
        # a stand-in, since the model requires kappa_E > 0
        zm = SimpleNamespace(a=1.0, kappa_E=0.0, kappa_R=0.0)
        for z_prev, rho in ((0.9, 0.05), (0.3, 0.5), (0.5, 0.0)):
            z = brute_force_z_step(0.0, 0.0, z_prev, rho, zm)
            assert z == max(0.0, z_prev - rho)
            self.assert_same(0.0, 0.0, z_prev, rho, zm, 1e-4)

    def test_scalar_run_with_the_reference_oracle(self, monkeypatch):
        """Each oracle call of a run equals the reference on its inputs,
        and a run with the reference in its place gives equal records."""
        zm = ZeroDimModel()
        mismatches, calls = [], []
        fast = zerodim.brute_force_z_step

        def both(*args):
            z, z_ref = fast(*args), ref_brute_force_z_step(*args)
            calls.append(args)
            if z != z_ref:
                mismatches.append(args)
            return z_ref

        for rho in (0.02, 1e-3):
            params = af.SchemeParams(rho=rho, T=1.0,
                                     norm_V=af.NormSpec("lalpha", 2.0))
            records = run_zero_dim(zm, params, check_oracle=True).records
            monkeypatch.setattr(zerodim, "brute_force_z_step", both)
            with_ref = run_zero_dim(zm, params, check_oracle=True).records
            monkeypatch.undo()
            assert with_ref == records
        assert len(calls) > 1000 and not mismatches

    @pytest.mark.parametrize("error", [3 * zerodim._GRID_STEP, math.nan],
                             ids=["three-cells", "nan"])
    def test_check_catches_a_wrong_damage_step(self, monkeypatch, error):
        def wrong_step(*args):
            z, mu, lam = z_step(*args)
            return z + error, mu, lam

        monkeypatch.setattr(zerodim, "z_step", wrong_step)
        params = af.SchemeParams(rho=0.02, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 2.0))
        with pytest.raises(af.SolverFailure, match="grid oracle"):
            run_zero_dim(ZeroDimModel(), params, check_oracle=True)


class TestRunZeroDim:
    def test_full_traces_match_oracle(self):
        zm = ZeroDimModel()
        for rho, T in ((0.05, 1.0), (0.02, 1.0), (0.01, 0.8)):
            params = af.SchemeParams(rho=rho, T=T,
                                     norm_V=af.NormSpec("lalpha", 2.0),
                                     store_all_snapshots=True)
            trace = run_zero_dim(zm, params, check_oracle=True)
            assert trace.records[-1].t == T

    def test_jump_block_exists(self, zerodim_trace):
        # the load ramp is tuned so the damage field collapses mid-run
        _, params, trace = zerodim_trace
        dts = [r.dt for r in trace.records[1:]]
        best = cur = 0
        for d in dts:
            cur = cur + 1 if d <= 1e-12 else 0
            best = max(best, cur)
        assert best >= 5

    def test_structural_invariants(self, zerodim_trace):
        _, _, trace = zerodim_trace
        assert check_trace_invariants(trace).ok()
        assert complementarity_check(trace) == []

    def test_evolution_monotone(self, zerodim_trace):
        _, _, trace = zerodim_trace
        zs = [trace.snapshot(k)[1][0] for k in range(trace.n_steps + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(zs[:-1], zs[1:]))
        assert 0.0 <= min(zs) and max(zs) <= 1.0

    def test_adaptive_throttling_near_onset(self):
        """Qualitative jump-onset pattern for two radii: the increment
        series drops from full steps to (near) zero through partial steps,
        and the onset region shows non-monotone increments."""
        zm = ZeroDimModel()
        for rho in (0.02, 0.002):
            params = af.SchemeParams(rho=rho, T=1.0,
                                     norm_V=af.NormSpec("lalpha", 2.0),
                                     store_all_snapshots=True)
            trace = run_zero_dim(zm, params)
            dts = np.array([r.dt for r in trace.records])
            jump = np.where(dts[1:] <= 1e-12)[0]
            assert jump.size >= 3, f"rho={rho} must jump"
            onset = jump[0] + 1
            window = dts[max(1, onset - 10):onset + 10]
            # partial increments appear (neither all-full nor all-zero)
            partial = (window > 1e-12) & (window < rho * (1 - 1e-9))
            assert partial.any()
            diffs = np.diff(window)
            assert (diffs > 1e-15).any() and (diffs < -1e-15).any(), \
                "onset region oscillates"

    @pytest.mark.parametrize("start, count, redone", [("plain", 49, 0),
                                                      ("predicted", 97, 1)],
                             ids=["plain", "predicted"])
    def test_am_converged_is_the_stopping_rule(self, monkeypatch, start,
                                               count, redone):
        # with two AM iterations allowed, a step that meets the stopping
        # rule on its second iteration is converged; the replay starts each
        # step k >= 1 from min(z_prev, max(0, 2 z_prev - z_pp)), or from
        # z_prev under the plain start and on a redone step
        zm = ZeroDimModel()
        params = af.SchemeParams(rho=0.02, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 2.0),
                                 max_am_iters=2, store_all_snapshots=True)
        if start == "plain":
            monkeypatch.setattr(ScalarProblem, "predict",
                                staticmethod(lambda z_prev, z_pp: z_prev))
        trace = run_zero_dim(zm, params)
        expected = []
        u_prev, z_prev, z_pp = None, 1.0, 1.0
        for r in trace.records:
            z_i = z_prev
            if start == "predicted" and r.k > 0 and not r.am_redone:
                z_i = min(z_prev, max(0.0, 2.0 * z_prev - z_pp))
            u_ref, converged = u_prev, False
            for _ in range(params.max_am_iters):
                u = zm.u_min(r.t, z_i)
                z, _, _ = z_step(r.t, u, z_prev, params.rho, zm)
                du = (abs(u - u_ref) / max(abs(u), 1e-12)
                      if u_ref is not None else math.inf)
                converged = max(du, abs(z - z_i)) <= params.tol_am
                u_ref, z_i = u, z
                if converged:
                    break
            expected.append(converged)
            z_pp = z_prev
            (u_prev,), (z_prev,) = trace.snapshot(r.k)
            assert (u_prev, z_prev) == (u_ref, z_i)
        assert [r.am_converged for r in trace.records] == expected
        assert sum(r.am_iters == 2 and r.am_converged
                   for r in trace.records) == count
        # the predicted run breaks the energy bound once, so the replay
        # covers a redone step too
        assert sum(r.am_redone for r in trace.records) == redone

    def test_partial_trace_on_step_budget(self):
        params = af.SchemeParams(rho=0.02, T=1.0, max_steps=3)
        with pytest.raises(af.SolverFailure) as err:
            run_zero_dim(ZeroDimModel(), params)
        partial = err.value.partial_trace
        assert partial.aborted
        assert len(partial.records) == 4

    @pytest.mark.parametrize("field", ["a", "eta", "kappa_E", "kappa_R",
                                       "ell_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_model_rejects_non_finite_fields(self, field, bad):
        with pytest.raises(ModelConfigError, match=field):
            ZeroDimModel(**{field: bad})

    def test_z0_validation(self):
        with pytest.raises(ValueError):
            run_zero_dim(ZeroDimModel(),
                         af.SchemeParams(rho=0.1, T=1.0), z0=1.5)


class TestBalancedViscosity:
    """Traces against the exact BV solution of ``ZeroDimModel()``: the
    incremental solutions converge to it as rho -> 0."""

    def test_exact_solution(self):
        zm = ZeroDimModel()
        bv = ScalarBV(zm)
        assert bv.t_on == pytest.approx(0.387686, abs=1e-6)
        assert bv.t_star == pytest.approx(0.41494565, abs=1e-8)
        assert bv.z_minus == pytest.approx(0.88197, abs=1e-5)
        assert bv.z_plus == pytest.approx(5.81e-6, rel=1e-3)
        # both ends of the jump are on the branch at t_star
        for z in (bv.z_minus, bv.z_plus):
            u = zm.u_min(bv.t_star, z)
            assert zm.dz_energy(u, z) == pytest.approx(zm.kappa_R, rel=1e-9)

    def test_graph_distance_converges(self):
        zm = ZeroDimModel()
        bv = ScalarBV(zm)
        rhos = (0.01, 0.005, 0.0025, 0.00125, 6.25e-4, 3.125e-4)
        dists = []
        for rho in rhos:
            params = af.SchemeParams(rho=rho, T=1.0,
                                     norm_V=af.NormSpec("lalpha", 2.0),
                                     store_all_snapshots=True)
            trace = run_zero_dim(zm, params)
            dists.append(max(bv.distance(r.t, trace.snapshot(r.k)[1][0])
                             for r in trace.records))
        # the order varies from one level to the next: fit it over all
        order = np.polyfit(np.log(rhos), np.log(dists), 1)[0]
        assert order >= 0.8, dists
        assert dists[-1] < 1e-3
