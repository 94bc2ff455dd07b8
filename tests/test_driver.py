"""Outer loop: staggered fixpoints, the adaptive time update and full runs."""

import dataclasses
import math

import numpy as np
import pytest

import amfrac as af
import amfrac.driver as driver
from amfrac.diagnostics import (check_trace_invariants, complementarity_check,
                                normalization_residuals)
from amfrac.driver import FieldProblem, evolve
from amfrac.solvers import SolverFailure
from amfrac.zerodim import ScalarProblem, ZeroDimModel, run_zero_dim


class TestTimeUpdate:
    def test_formula(self):
        t = af.time_update(0.0, 0.03, 0.1, 1.0, False)
        assert t == pytest.approx(0.07)

    def test_jump_regime(self):
        assert af.time_update(0.42, 0.1, 0.1, 1.0, False) == 0.42

    def test_clamp_at_final_time(self):
        assert af.time_update(0.95, 0.0, 0.1, 1.0, False) == 1.0

    def test_round_off_overshoot_clamped(self):
        t = af.time_update(0.5, 0.1 * (1 + 1e-9), 0.1, 1.0, False)
        assert t == 0.5

    def test_binding_ball_stands_still_exactly(self):
        # a computed norm a hair under the radius advances no time
        assert af.time_update(0.42, 0.1 * (1 - 1e-9), 0.1, 1.0, True) == 0.42
        assert af.time_update(0.42, 0.1 * (1 - 1e-9), 0.1, 1.0,
                              False) > 0.42

    @pytest.mark.parametrize("dz", [0.2, math.nan])
    def test_binding_ball_still_checks_the_increment(self, dz):
        with pytest.raises(SolverFailure):
            af.time_update(0.3, dz, 0.1, 1.0, True)

    def test_inconsistent_increment_rejected(self):
        with pytest.raises(SolverFailure):
            af.time_update(0.0, 0.2, 0.1, 1.0, False)

    def test_nan_increment_rejected(self):
        with pytest.raises(SolverFailure, match="NaN") as err:
            af.time_update(0.3, math.nan, 0.1, 1.0, False)
        assert math.isnan(err.value.residuals["dz_norm_V"])

    def test_nan_increment_stops_the_run(self, monkeypatch):
        # a damage step that turns NaN mid-run ends it with a partial
        # trace, instead of stepping at t = NaN until the step budget; the
        # damage step takes no time, so the displacement solve before it
        # notes the time
        import amfrac.zerodim as zerodim

        u_min, step, times = zerodim.ZeroDimModel.u_min, zerodim.z_step, []

        def timed_u_min(model, t, z):
            times.append(t)
            return u_min(model, t, z)

        def nan_late(*args):
            z, mu, lam = step(*args)
            return (math.nan if times[-1] > 0.3 else z), mu, lam

        monkeypatch.setattr(zerodim.ZeroDimModel, "u_min", timed_u_min)
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
    of damage solves (the last one repeats); each solve's report is its
    index, and ``starts`` logs the start each solve was given."""

    sup = staticmethod(abs)
    z_solve_ignores_start = True

    def __init__(self, z_values, max_am_iters=4):
        self.params = af.SchemeParams(rho=0.1, T=1.0,
                                      max_am_iters=max_am_iters)
        self.z_values = list(z_values)
        self.calls = 0
        self.starts = []

    def solve_u(self, t, z):
        return 1.0

    def solve_z(self, u, z_prev, rho, start):
        z = self.z_values[min(self.calls, len(self.z_values) - 1)]
        self.starts.append(start)
        self.calls += 1
        return z, self.calls - 1


class TestAMLoop:
    def test_stub_converges_on_a_repeated_iterate(self):
        res = af.am_loop(_StubProblem([0.5]), 0.0, 1.0, 0.1)
        assert (res.converged, res.iters, res.z) == (True, 2, 0.5)

    def test_each_damage_solve_starts_from_the_previous_report(self):
        problem = _StubProblem([0.5, 0.4, 0.3, 0.3])
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert (res.converged, res.iters, res.z_report) == (True, 4, 3)
        assert problem.starts == [None, 0, 1, 2]

    def test_nan_damage_iterate_is_not_converged(self):
        # du = 0 on the second iteration; a NaN dz must not hide behind it
        problem = _StubProblem([0.5, math.nan])
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert not res.converged
        assert res.iters == problem.params.max_am_iters
        assert math.isnan(res.z)

    def test_repeated_damage_is_counted_not_resolved(self):
        # the damage solve returns its input, so iteration 2 would repeat
        # both solves: its rule is met without them
        problem = _StubProblem([1.0])
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert (res.converged, res.iters) == (True, 2)
        assert (res.u, res.z, res.z_report) == (1.0, 1.0, 0)
        assert problem.calls == 1

    @pytest.mark.parametrize("u", [math.inf, math.nan], ids=["inf", "nan"])
    def test_repeat_with_non_finite_displacement_is_not_converged(self, u):
        # du = sup(u - u) / sup(u) is NaN, so the repeat does not stop the
        # loop and every iteration runs, as without the exit
        problem = _StubProblem([1.0])
        problem.solve_u = lambda t, z: u
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert not res.converged
        assert res.iters == problem.calls == problem.params.max_am_iters

    def test_repeat_is_solved_when_the_damage_solve_reads_its_start(self):
        # a warm-started damage solve may move its report on a repeat, so
        # the second iteration runs
        problem = _StubProblem([1.0])
        problem.z_solve_ignores_start = False
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert (res.converged, res.iters, res.z_report) == (True, 2, 1)
        assert problem.calls == 2

    def test_repeat_on_the_last_iteration_is_not_converged(self):
        problem = _StubProblem([1.0], max_am_iters=1)
        res = af.am_loop(problem, 0.0, 1.0, 0.1)
        assert (res.converged, res.iters, problem.calls) == (False, 1, 1)

    def test_scalar_repeats_are_counted_not_solved(self, monkeypatch):
        # fewer damage steps than AM iterations, and each step's count is
        # the plain rule's, replayed with every iteration solved
        calls = []
        z_step = af.zerodim.z_step

        def counted(*args):
            calls.append(args)
            return z_step(*args)

        monkeypatch.setattr(af.zerodim, "z_step", counted)
        zm = ZeroDimModel()
        params = af.SchemeParams(rho=0.02, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 2.0),
                                 store_all_snapshots=True)
        trace = run_zero_dim(zm, params)
        assert len(calls) < sum(r.am_iters for r in trace.records)
        u_prev, z_prev, z_pp = None, 1.0, 1.0
        for r in trace.records:
            z_i = z_prev
            if r.k > 0 and not r.am_redone:
                z_i = min(z_prev, max(0.0, 2.0 * z_prev - z_pp))
            u_ref, converged = u_prev, False
            for iters in range(1, params.max_am_iters + 1):
                u = zm.u_min(r.t, z_i)
                z, _, _ = z_step(u, z_prev, params.rho, zm)
                du = (abs(u - u_ref) / max(abs(u), 1e-12)
                      if u_ref is not None else math.inf)
                converged = max(du, abs(z - z_i)) <= params.tol_am
                u_ref, z_i = u, z
                if converged:
                    break
            assert (r.am_iters, r.am_converged) == (iters, converged)
            z_pp = z_prev
            u_prev, z_prev = trace.snapshot(r.k)
            assert (u_prev, z_prev) == (u_ref, z_i)

    def test_field_run_takes_no_exit(self, ct_coarse_setup, monkeypatch):
        # every AM iteration of a field run runs its damage solve
        class Counting(FieldProblem):
            solves = 0

            def solve_z(self, *args):
                Counting.solves += 1
                return super().solve_z(*args)

        iters = []
        am_loop = driver.am_loop

        def counted(*args, **kwargs):
            res = am_loop(*args, **kwargs)
            iters.append(res.iters)
            return res

        monkeypatch.setattr(driver, "am_loop", counted)
        mesh, model, load, params = ct_coarse_setup
        problem = Counting(mesh, model, load,
                           dataclasses.replace(params, T=0.4))
        evolve(problem, np.ones(mesh.n_nodes))
        assert len(iters) > 1
        assert sum(iters) == Counting.solves

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

            def solve_u(self, t, z):
                self.t = t  # the time of the damage solve that follows
                return super().solve_u(t, z)

            def solve_z(self, u, z_prev, rho, start):
                z, report = super().solve_z(u, z_prev, rho, start)
                self.current.append(self.energy(self.t, u, z)
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
        r = af.grad_u(t, res.u, res.z, mesh, model, load)
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

    @pytest.mark.parametrize(
        "norm", [af.NormSpec("lalpha", a) for a in (1.5, 2.0, 3.0, 4.0, 8.0)]
        + [af.NormSpec("h1")],
        ids=lambda n: "h1" if n.kind == "h1" else f"lalpha-{n.alpha}")
    def test_every_ball_reaches_the_same_end(self, analysis_traction_setup,
                                             norm):
        # the ball shapes the damage path, not its stable end state; below
        # alpha = 2 the ball gradient must stay finite where v_q = 0
        mesh, model, load, params = analysis_traction_setup
        params = dataclasses.replace(params, norm_V=norm)
        trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
        assert trace.records[-1].t == params.T
        report = check_trace_invariants(trace)
        assert report.ok(), report
        assert complementarity_check(trace) == []
        assert trace.records[-1].energy == pytest.approx(-7.131690076664977,
                                                         rel=1e-12)

    def test_final_time_exact(self, ct_coarse_trace):
        *_, params, trace = *ct_coarse_trace[:3], ct_coarse_trace[3], ct_coarse_trace[4]
        assert trace.records[-1].t == params.T

    def test_partial_trace_on_step_budget(self, ct_coarse_setup,
                                          monkeypatch):
        mesh, model, load, params = ct_coarse_setup
        monkeypatch.setattr(driver, "_step_budget", lambda params: 3)
        with pytest.raises(SolverFailure) as err:
            af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
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
            if trace.records[k].dt == 0.0 and trace.records[k - 1].dt > 0.0:
                assert k in stored


class TestStoredValues:
    """A trace keeps what its subproblem returned, uncopied, which is safe
    because nothing writes to a returned value afterwards."""

    def test_snapshots_are_the_unwritten_last_iterates(
            self, analysis_traction_setup):
        """Every snapshot is its step's last AM iterate, the very objects
        that the last ``solve_u`` and ``solve_z`` returned, with the bytes
        they had when returned; ``u_init`` is the first solve, and the
        trace's ``z0`` does not follow a later write to the caller's."""
        mesh, model, load, params = analysis_traction_setup
        assert params.store_all_snapshots
        returned = {}  # the last result of each solve and its bytes
        first_u = []
        expected = {}

        class Recording(FieldProblem):
            # each solve also leaves its inputs as they were
            def solve_u(self, t, z):
                z_bytes = z.tobytes()
                u = super().solve_u(t, z)
                assert z.tobytes() == z_bytes
                returned["u"] = (u, u.tobytes())
                first_u.append(returned["u"])
                return u

            def solve_z(self, u, z_prev, rho, start):
                inputs = [x.tobytes() for x in (u, z_prev)]
                z, report = super().solve_z(u, z_prev, rho, start)
                assert [x.tobytes() for x in (u, z_prev)] == inputs
                returned["z"] = (z, z.tobytes())
                return z, report

        def hook(record):
            expected[record.k] = (returned["u"], returned["z"])

        z0 = np.ones(mesh.n_nodes)
        trace = evolve(Recording(mesh, model, load, params), z0,
                       record_hook=hook)
        assert sorted(trace.snapshots) == sorted(expected) == \
            list(range(len(trace.records)))
        for k, ((u, u_bytes), (z, z_bytes)) in expected.items():
            stored_u, stored_z = trace.snapshots[k]
            assert stored_u is u and stored_z is z, k
            assert (stored_u.tobytes(), stored_z.tobytes()) == \
                (u_bytes, z_bytes), k
        u, u_bytes = first_u[0]
        assert trace.u_init is u and trace.u_init.tobytes() == u_bytes
        z0[:] = 0.5
        assert trace.z0.tobytes() == np.ones(mesh.n_nodes).tobytes()

    def test_scalar_trace_holds_floats(self, zerodim_trace):
        trace = zerodim_trace[-1]
        assert type(trace.z0) is float and type(trace.u_init) is float
        assert len(trace.snapshots) == len(trace.records)
        assert all(type(u) is float and type(z) is float
                   for u, z in trace.snapshots.values())


class TestJumpDefinition:
    """A jump is a step whose damage solve ends with the ball binding: its
    record's ``ball_active`` is a positive ball multiplier, the next step
    advances time by exactly 0, and complementarity exempts exactly the
    steps with ``dt == 0.0``."""

    FIXTURES = ["analysis_traction_trace", "zerodim_trace"]

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_time_stands_still_exactly_after_a_binding_ball(self, request,
                                                            fixture):
        recs = request.getfixturevalue(fixture)[-1].records
        assert sum(r.ball_active for r in recs) >= 5, "fixture must jump"
        assert ([r.dt == 0.0 for r in recs[1:]]
                == [r.ball_active for r in recs[:-1]])

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_normalization_identity_holds(self, request, fixture):
        trace = request.getfixturevalue(fixture)[-1]
        assert np.abs(normalization_residuals(trace)).max() <= 1e-8

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_complementarity_exempts_exactly_the_jumps(self, request,
                                                       fixture):
        # with every state driven, each step that advances time is flagged,
        # also by a round-off increment such as 1e-17
        trace = request.getfixturevalue(fixture)[-1]
        recs = [dataclasses.replace(r, dual_distance=1.0)
                for r in trace.records]
        k = [r.k for r in recs[1:] if r.dt == 0.0][-1]
        recs[k] = dataclasses.replace(recs[k], dt=1e-17)
        flagged = [v.k for v in complementarity_check(
            dataclasses.replace(trace, records=recs))]
        advancing = [r.k for r in recs[1:] if r.dt != 0.0]
        assert k in flagged
        assert flagged == advancing
        assert 0 < len(advancing) < len(recs) - 2

    def test_field_ball_active_is_a_positive_multiplier(
            self, analysis_traction_setup):
        seen = []

        class Spy(FieldProblem):
            def record(self, k, t, dt, res, z_prev):
                record = super().record(k, t, dt, res, z_prev)
                seen.append((record.ball_active, res.z_report.nu > 0.0))
                return record

        mesh, model, load, params = analysis_traction_setup
        evolve(Spy(mesh, model, load, params), np.ones(mesh.n_nodes))
        assert {active for active, _ in seen} == {True, False}
        assert all(active == positive for active, positive in seen)

    def test_scalar_ball_active_is_a_positive_multiplier(self, zerodim_trace):
        # the scalar record's xi_norm is the ball multiplier mu
        recs = zerodim_trace[-1].records
        assert [r.ball_active for r in recs] == [r.xi_norm > 0.0 for r in recs]

    @pytest.mark.parametrize("mu", [0.0, 0.5])
    def test_scalar_flag_reads_the_multiplier_not_the_increment(self, mu):
        # an increment a hair under the radius is a jump exactly when the
        # ball multiplier is positive
        params = af.SchemeParams(rho=0.02, T=1.0)
        problem = ScalarProblem(ZeroDimModel(), params)
        res = driver.AMResult(u=0.5, z=0.9 - 0.02 * (1 - 1e-13), iters=1,
                              z_report=mu, converged=True)
        record = problem.record(1, 0.5, 0.0, res, 0.9)
        assert record.ball_active is (mu > 0.0)

    @pytest.mark.parametrize("kind", ["scalar", "traction"])
    def test_time_advanced_on_a_jump_is_flagged(
            self, monkeypatch, analysis_traction_setup, kind):
        update = driver.time_update

        def advance_on_jumps(t, dz_norm_V, rho, T, ball_active):
            if ball_active:
                return min(t + rho, T)
            return update(t, dz_norm_V, rho, T, False)

        monkeypatch.setattr(driver, "time_update", advance_on_jumps)
        if kind == "scalar":
            trace = run_zero_dim(ZeroDimModel(), af.SchemeParams(
                rho=0.02, T=1.0, norm_V=af.NormSpec("lalpha", 2.0)))
        else:
            mesh, model, load, params = analysis_traction_setup
            trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
        assert any(r.ball_active for r in trace.records)
        assert complementarity_check(trace)


class TestPureAM:
    def test_time_grid_must_start_at_zero(self, ct_coarse_setup):
        mesh, model, load, params = ct_coarse_setup
        with pytest.raises(ValueError, match="start at 0"):
            af.run_pure_am(mesh, model, load, params, np.ones(mesh.n_nodes),
                           [0.5, 1.0])

    @pytest.mark.parametrize("times", [
        [math.nan, 0.5, 1.0],
        [0.0, 1.0, 0.5],
        [],
        [[0.0, 0.5, 1.0]],
        [0.0, 0.5, math.inf],
    ], ids=["nan_start", "decreasing", "empty", "two_dimensional",
            "infinite"])
    def test_time_grid_must_be_a_finite_nondecreasing_line(
            self, ct_coarse_setup, times):
        mesh, model, load, params = ct_coarse_setup
        with pytest.raises(ValueError, match="time grid must be"):
            af.run_pure_am(mesh, model, load, params, np.ones(mesh.n_nodes),
                           times)

    def test_large_radius_matches_pure_am_on_same_grid(self, ct_coarse_setup):
        """Once the radius exceeds every damage increment, the adaptive
        scheme is a staggered run; replaying its own grid without the ball
        must reproduce it step for step."""
        mesh, model, load, params = ct_coarse_setup
        import dataclasses
        z0 = np.ones(mesh.n_nodes)
        am = af.run_pure_am(mesh, model, load, params, z0,
                            np.linspace(0.0, params.T, 11))
        bound = 2 * max(r.dz_norm_V for r in am.records) + \
            max(r.dt for r in am.records)
        big = dataclasses.replace(params, rho=bound)
        em = af.run(mesh, model, load, big, z0)
        assert not any(r.ball_active for r in em.records)
        replay = af.run_pure_am(mesh, model, load, big, z0, em.times())
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
                               np.full(mesh.n_nodes, 0.9),
                               np.linspace(0.0, params.T, 5))
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

            energy = zm.energy  # the snapshots hold floats
        else:
            mesh, model, load, _, trace = request.getfixturevalue(fixture)
            mask, values = load.dirichlet_dofs(mesh)

            def energy(t, u, z):
                u = np.where(mask, values(t), u)
                return af.total_energy(t, u, z, mesh, model, load)

        for prev, r in zip(trace.records, trace.records[1:]):
            bound = energy(r.t, *trace.snapshot(prev.k))
            assert r.energy + r.R_increment <= \
                bound + 1e-12 * max(1.0, abs(bound)), r.k

    def test_first_solve_of_every_loop_and_redo_starts_cold(
            self, monkeypatch, analysis_traction_setup):
        """The first damage solve of each AM loop, the guard's redo
        included, gets no start; every later one gets the report of the
        solve before it."""
        loops = []

        class Logging(FieldProblem):
            def solve_z(self, u, z_prev, rho, start):
                z, report = super().solve_z(u, z_prev, rho, start)
                loops[-1].append((start, report))
                return z, report

        am_loop = driver.am_loop

        def logged_am_loop(*args, **kwargs):
            loops.append([])
            return am_loop(*args, **kwargs)

        monkeypatch.setattr(driver, "am_loop", logged_am_loop)
        # every finite bound breaks, so each step after step 0 is redone
        monkeypatch.setattr(driver, "_breaks_bound",
                            lambda record, bound: bound < math.inf)
        mesh, model, load, params = analysis_traction_setup
        trace = evolve(Logging(mesh, model, load, params),
                       np.ones(mesh.n_nodes))
        assert len(loops) == 2 * len(trace.records) - 1
        assert max(len(solves) for solves in loops) > 1
        for solves in loops:
            starts = [start for start, _ in solves]
            assert starts[0] is None
            assert all(start is report for start, (_, report)
                       in zip(starts[1:], solves))

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
            # every finite bound breaks; step 0's bound is +inf
            m.setattr(driver, "_breaks_bound",
                      lambda record, bound: bound < math.inf)
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
