"""Outer loop: staggered fixpoints, the adaptive time update and full runs."""

import math

import numpy as np
import pytest

import amfrac as af
from amfrac.diagnostics import check_trace_invariants
from amfrac.driver import FieldProblem, evolve
from amfrac.solvers import SolverFailure
from amfrac.zerodim import ScalarProblem, ZeroDimModel, run_zero_dim


class TestTimeUpdate:
    def test_formula(self):
        assert af.time_update(0.0, 0.03, 0.1, 1.0) == pytest.approx(0.07)

    def test_jump_regime(self):
        assert af.time_update(0.42, 0.1, 0.1, 1.0) == 0.42

    def test_clamp_at_final_time(self):
        assert af.time_update(0.95, 0.0, 0.1, 1.0) == 1.0

    def test_round_off_overshoot_clamped(self):
        t = af.time_update(0.5, 0.1 * (1 + 1e-9), 0.1, 1.0)
        assert t == 0.5

    def test_inconsistent_increment_rejected(self):
        with pytest.raises(SolverFailure):
            af.time_update(0.0, 0.2, 0.1, 1.0)

    def test_nan_increment_rejected(self):
        with pytest.raises(SolverFailure, match="NaN") as err:
            af.time_update(0.3, math.nan, 0.1, 1.0)
        assert math.isnan(err.value.residuals["dz_norm_V"])

    def test_nan_increment_stops_the_run(self, monkeypatch):
        # a damage step that turns NaN mid-run ends it with a partial
        # trace, instead of stepping at t = NaN until the step budget
        import amfrac.zerodim as zerodim

        step = zerodim.z_step

        def nan_late(t, *args):
            z, mu, lam = step(t, *args)
            return (math.nan if t > 0.3 else z), mu, lam

        monkeypatch.setattr(zerodim, "z_step", nan_late)
        params = af.SchemeParams(rho=0.02, T=1.0, max_am_iters=5)
        with pytest.raises(SolverFailure, match="NaN") as err:
            zerodim.run_zero_dim(zerodim.ZeroDimModel(), params)
        records = err.value.partial_trace.records
        assert records[-1].t > 0.3 and math.isnan(records[-1].dz_norm_V)
        assert not records[-1].am_converged
        assert all(r.t <= 0.3 for r in records[:-1])


class _StubProblem:
    """Scalar subproblem with a fixed displacement and a scripted sequence
    of damage solves (the last one repeats)."""

    sup = staticmethod(abs)

    def __init__(self, z_values, max_am_iters=4):
        self.params = af.SchemeParams(rho=0.1, T=1.0,
                                      max_am_iters=max_am_iters)
        self.z_values = list(z_values)
        self.calls = 0

    def solve_u(self, t, z):
        return 1.0

    def solve_z(self, t, u, z_prev, rho):
        z = self.z_values[min(self.calls, len(self.z_values) - 1)]
        self.calls += 1
        return z, None


class TestAMLoop:
    def test_stub_converges_on_a_repeated_iterate(self):
        res = af.am_loop(_StubProblem([0.5]), 0.0, 1.0, 0.1)
        assert (res.converged, res.iters, res.z) == (True, 2, 0.5)

    def test_nan_damage_iterate_is_not_converged(self):
        # du = 0 on the second iteration; a NaN dz must not hide behind it
        problem = _StubProblem([0.5, math.nan])
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert not res.converged
        assert res.iters == problem.params.max_am_iters
        assert math.isnan(res.z)

    def test_fixpoint_is_invariant(self, ct_coarse_setup):
        # a locally stable state (inactive ball) is a fixpoint of the map:
        # re-running the loop at the same time must return it in one pass
        mesh, model, load, params = ct_coarse_setup
        z0 = np.ones(mesh.n_nodes)
        t = 0.15
        problem = FieldProblem(mesh, model, load, params)
        res1 = af.am_loop(problem, t, z0, params.rho)
        assert not res1.z_report.constraint_active, "need a relaxed state"
        res2 = af.am_loop(problem, t, res1.z, params.rho, u_prev=res1.u)
        assert res2.iters == 1
        assert np.abs(res2.z - res1.z).max() <= params.tol_am
        assert np.abs(res2.u - res1.u).max() <= \
            params.tol_am * max(1.0, np.abs(res1.u).max())

    def test_monotone_energy_dissipation(self, ct_coarse_setup):
        # energy plus dissipation after each damage solve of an AM loop; the
        # sequence starts at the first solve (the previous step's
        # displacement is inadmissible at the new time)
        class Recording(FieldProblem):
            def __init__(self, *args):
                super().__init__(*args)
                self.histories, self.current = {}, []

            def solve_z(self, t, u, z_prev, rho):
                z, report = super().solve_z(t, u, z_prev, rho)
                self.current.append(self.energy(t, u, z)
                                    + self.dissipation(z - z_prev))
                return z, report

            def record(self, k, *args):
                self.histories[k], self.current = self.current, []
                return super().record(k, *args)

        mesh, model, load, params = ct_coarse_setup
        problem = Recording(mesh, model, load, params)
        evolve(problem, np.ones(mesh.n_nodes))
        assert problem.histories
        for hist in problem.histories.values():
            h = np.array(hist)
            if len(h) < 2:
                continue
            scale = max(np.abs(h).max(), 1e-300)
            assert np.diff(h).max() <= 1e-10 * scale

    def test_fixpoint_conditions_hold(self, ct_coarse_setup):
        mesh, model, load, params = ct_coarse_setup
        t = 0.6
        res = af.am_loop(FieldProblem(mesh, model, load, params), t,
                         np.ones(mesh.n_nodes), params.rho)
        # damage KKT is exact for the returned displacement
        assert res.z_report.stationarity_residual <= 10 * params.tol_newton
        # displacement equilibrium holds to the staggered tolerance
        r = af.grad_u(af.State(t, res.u, res.z), mesh, model, load)
        mask, _ = load.dirichlet_dofs(mesh)
        scale = np.abs(af.assemble_K(res.z, mesh, model).diagonal()).max() * \
            max(1.0, np.abs(res.u).max())
        assert np.abs(r[~mask]).max() <= 10 * params.tol_am * scale


class TestRun:
    def test_no_damage_run_is_uniform_grid(self):
        # huge fracture toughness freezes the damage field exactly
        # (the regularizer pulls z up against the irreversibility bound)
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=1e6, theta=0.1)
        params = af.SchemeParams(rho=0.125, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 4.0),
                                 store_all_snapshots=True)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=0.1)
        z0 = np.full(mesh.n_nodes, 0.9)
        trace = af.run(mesh, model, load, params, z0)
        assert trace.n_steps == math.ceil(params.T / params.rho)
        for r in trace.records:
            assert r.dz_norm_V == 0.0
            assert not r.ball_active
        assert all(r.dt == params.rho for r in trace.records[1:])
        _, z_final = trace.snapshot(trace.n_steps)
        assert np.array_equal(z_final, z0)

    def test_second_run_on_warm_caches_is_identical(self):
        # the first run builds the per-mesh quadrature, patterns and band
        # orders and the load's force vector; the second reuses them all
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02,
                                 preset="ANALYSIS", kappa_E=0.15, kappa_R=0.08)
        params = af.SchemeParams(rho=0.1, T=1.0, store_all_snapshots=True)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=3.0)
        z0 = np.ones(mesh.n_nodes)
        first = af.run(mesh, model, load, params, z0)
        second = af.run(mesh, model, load, params, z0)
        assert any(r.ball_active for r in first.records)
        assert second.records == first.records
        assert second.snapshots.keys() == first.snapshots.keys()
        for k, fields in first.snapshots.items():
            for a, b in zip(fields, second.snapshots[k]):
                assert np.array_equal(a, b)

    def test_invariants_on_adaptive_trace(self, ct_coarse_trace):
        *_, trace = ct_coarse_trace
        report = check_trace_invariants(trace)
        assert report.ok(), report

    def test_invariants_on_traction_trace(self, analysis_traction_trace):
        *_, trace = analysis_traction_trace
        report = check_trace_invariants(trace)
        assert report.ok(), report

    def test_final_time_exact(self, ct_coarse_trace):
        *_, params, trace = *ct_coarse_trace[:3], ct_coarse_trace[3], ct_coarse_trace[4]
        assert trace.records[-1].t == params.T

    def test_partial_trace_on_step_budget(self, ct_coarse_setup):
        mesh, model, load, params = ct_coarse_setup
        import dataclasses
        tight = dataclasses.replace(params, max_steps=3)
        with pytest.raises(SolverFailure) as err:
            af.run(mesh, model, load, tight, np.ones(mesh.n_nodes))
        partial = err.value.partial_trace
        assert partial.aborted
        assert len(partial.records) == 4

    def test_snapshot_stride_and_onsets(self, ct_coarse_setup):
        mesh, model, load, params = ct_coarse_setup
        import dataclasses
        sparse = dataclasses.replace(params, store_all_snapshots=False,
                                     snapshot_stride=7)
        trace = af.run(mesh, model, load, sparse, np.ones(mesh.n_nodes))
        stored = set(trace.snapshots)
        assert 0 in stored
        assert trace.n_steps in stored
        for k in range(0, trace.n_steps + 1, 7):
            assert k in stored
        # jump onsets are always stored
        for k in range(1, trace.n_steps + 1):
            if trace.records[k].dt <= 1e-14 and trace.records[k - 1].dt > 1e-14:
                assert k in stored


class TestPureAM:
    def test_large_radius_matches_pure_am_on_same_grid(self, ct_coarse_setup):
        """Once the radius exceeds every damage increment, the adaptive
        scheme is a staggered run; replaying its own grid without the ball
        must reproduce it step for step."""
        mesh, model, load, params = ct_coarse_setup
        import dataclasses
        z0 = np.ones(mesh.n_nodes)
        am = af.run_pure_am(mesh, model, load, params, z0, n_steps=10)
        bound = 2 * max(r.dz_norm_V for r in am.records) + \
            max(r.dt for r in am.records)
        big = dataclasses.replace(params, rho=bound)
        em = af.run(mesh, model, load, big, z0)
        assert not any(r.ball_active for r in em.records)
        replay = af.run_pure_am(mesh, model, load, big, z0, n_steps=0,
                                times=em.times())
        tol = 10 * params.tol_am
        for a, b in zip(em.records, replay.records):
            assert a.t == b.t
            assert abs(a.energy - b.energy) <= tol * max(1.0, abs(a.energy))
            assert abs(a.reaction - b.reaction) <= tol * max(1.0, abs(a.reaction))
        for k in em.snapshots:
            u1, z1 = em.snapshots[k]
            u2, z2 = replay.snapshots[k]
            assert np.abs(z1 - z2).max() <= tol
            assert np.abs(u1 - u2).max() <= tol * max(1.0, np.abs(u1).max())

    def test_elastic_phase_is_linear(self):
        # undamaged regime: reaction grows linearly with the ramp
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=1e6, theta=0.1)
        params = af.SchemeParams(rho=0.25, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 4.0))
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=0.05)
        trace = af.run_pure_am(mesh, model, load, params,
                               np.full(mesh.n_nodes, 0.9), n_steps=4)
        t = trace.times()
        F = np.array([r.reaction for r in trace.records])
        slope = F[-1] / t[-1]
        assert np.allclose(F[1:], slope * t[1:], rtol=1e-8)


class TestPredictedStart:
    """The secant start of the AM loop and the one-step energy bound that
    guards it."""

    @pytest.mark.parametrize("fixture", ["analysis_traction_trace",
                                         "ct_coarse_trace", "zerodim_trace"])
    def test_energy_bound_holds(self, request, fixture):
        """E_k + R_k <= E(t_k, u~_{k-1}, z_{k-1}) at every step k >= 1,
        with u~ the last displacement under the Dirichlet data of t_k."""
        if fixture == "zerodim_trace":
            zm, _, trace = request.getfixturevalue(fixture)

            def energy(t, u, z):  # the snapshots hold arrays of one value
                return zm.energy(t, u[0], z[0])
        else:
            mesh, model, load, _, trace = request.getfixturevalue(fixture)
            mask, values = load.dirichlet_dofs(mesh)

            def energy(t, u, z):
                u = np.where(mask, values(t), u)
                return af.total_energy(af.State(t, u, z), mesh, model, load)

        for prev, r in zip(trace.records, trace.records[1:]):
            bound = energy(r.t, *trace.snapshot(prev.k))
            assert r.energy + r.R_increment <= \
                bound + 1e-12 * max(1.0, abs(bound)), r.k

    @pytest.mark.parametrize("kind", ["scalar", "traction"])
    def test_a_broken_bound_redoes_the_step_from_plain_start(
            self, monkeypatch, analysis_traction_setup, kind):
        if kind == "scalar":
            params = af.SchemeParams(rho=0.02, T=1.0,
                                     norm_V=af.NormSpec("lalpha", 2.0))

            def run():
                return run_zero_dim(ZeroDimModel(), params).records
        else:
            mesh, model, load, params = analysis_traction_setup

            def run():
                return af.run(mesh, model, load, params,
                              np.ones(mesh.n_nodes)).records

        predicted = run()
        with monkeypatch.context() as m:
            for cls in (FieldProblem, ScalarProblem):
                m.setattr(cls, "energy_bound", lambda *args: -math.inf)
            redone = run()
        for cls in (FieldProblem, ScalarProblem):
            monkeypatch.setattr(cls, "predict",
                                lambda self, z_prev, z_pp: z_prev)
        plain = run()
        assert not any(r.am_redone for r in predicted + plain)
        assert [r.am_redone for r in redone] == [r.k > 0 for r in redone]
        for r in redone:
            r.am_redone = False
        assert repr(redone) == repr(plain)
        # the predicted start is what saves the iterations
        assert sum(r.am_iters for r in predicted) < \
            sum(r.am_iters for r in plain)
