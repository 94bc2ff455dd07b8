"""Displacement solve and the constrained damage solve with its KKT
certificates."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar
from scipy.sparse.linalg import spsolve

import amfrac as af
import amfrac.assembly
import amfrac.solvers
from amfrac.assembly import VNorm, element_data, z_quadratic, lumped_weights
from amfrac.mesh import Mesh
from amfrac.solvers import SolverFailure


def default_params(rho=0.05, alpha=4.0, **kw):
    return af.SchemeParams(rho=rho, T=1.0,
                           norm_V=af.NormSpec("lalpha", alpha), **kw)


def dof_order(order):
    """The dof order that takes both dofs of each node in the node
    ``order``."""
    return np.column_stack([2 * order, 2 * order + 1]).ravel()


def half_bandwidth(pattern, perm):
    """Half-bandwidth of the pattern's operator in the order ``perm``: row
    ``i`` of the reordered operator is row ``perm[i]``."""
    pos = np.empty(pattern.n, dtype=np.intp)
    pos[perm] = np.arange(pattern.n)
    rows = np.repeat(pos, np.diff(pattern.indptr))
    return int(np.abs(rows - pos[pattern.indices]).max(initial=0))


def dense_lower(ab):
    """The lower triangle held by the LAPACK lower band array ``ab``."""
    n = ab.shape[1]
    L = np.zeros((n, n))
    for d in range(ab.shape[0]):
        i = np.arange(n - d)
        L[i + d, i] = ab[d, :n - d]
    return L


class TestSolveU:
    def test_zero_load_gives_zero(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        model = af.MaterialModel(young_E=50.0, poisson_nu=0.3)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=0.5)
        u = af.solve_u(0.0, np.ones(mesh.n_nodes), mesh, model, load)
        assert np.abs(u).max() == 0.0

    def test_no_load_factors_nothing(self, monkeypatch):
        """At t = 0 under a traction load the minimizer is u = 0, since K is
        SPD: it comes back exact, with nothing factored."""
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=3.0)

        def splu(ab):
            raise AssertionError("solve_u factored a matrix")

        monkeypatch.setattr(amfrac.solvers, "splu", splu)
        z = np.random.default_rng(2).uniform(0.2, 1.0, mesh.n_nodes)
        u = af.solve_u(0.0, z, mesh, model, load)
        assert u.shape == (2 * mesh.n_nodes,)
        assert np.all(u == 0.0)

    def test_uniform_uniaxial_strain(self):
        # nu = 0, unnotched: the ramp produces a uniform strain field
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=10.0, poisson_nu=0.0, eta=1e-4)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(1, 0),
                              ubar_rate=0.25)
        t = 0.8
        u = af.solve_u(t, np.ones(mesh.n_nodes), mesh, model, load)
        expected = load.ubar(t) * mesh.nodes[:, 0]
        assert np.allclose(u[0::2], expected, atol=1e-12)
        assert np.allclose(u[1::2], 0.0, atol=1e-12)

    def test_equilibrium_residual(self):
        """One back-substitution leaves the free residual at round-off of
        ``max|K| max|u|``: on the three benchmark plates and the L-shaped
        panel (``notch`` None), and on a plate whose mid-height band is
        fully broken, for either floor ``eta`` and load mode; the damage is
        random elsewhere."""
        plates = [((1.0, 0.1, 0.05), True, 1e-4, "DIRICHLET_RAMP", False),
                  ((1.0, 0.05, 0.05), False, 1e-4, "TRACTION_RAMP", False),
                  ((1.0, 0.1, 0.0125), True, 1e-4, "DIRICHLET_RAMP", False),
                  ((250.0, 50.0, 2.0), None, 1e-4, "DIRICHLET_RAMP", False)]
        broken = [((1.0, 0.1, 0.0125), True, eta, mode, True)
                  for eta in (1e-4, 1e-8)
                  for mode in ("DIRICHLET_RAMP", "TRACTION_RAMP")]
        for case in plates + broken:
            mesh_args, notch, eta, mode, band = case
            mesh = (af.build_lshape_mesh(*mesh_args) if notch is None
                    else af.build_ct_mesh(*mesh_args, notch=notch))
            model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=eta)
            load = af.LoadProgram(mode=mode, T=1.0, direction=(0, 1),
                                  ubar_rate=0.3, traction_rate=3.0)
            z = np.random.default_rng(1).uniform(0.0, 1.0, mesh.n_nodes)
            if band:
                z[np.abs(mesh.nodes[:, 1] - 0.5) <= 0.0125 + 1e-12] = 0.0
            t = 0.6
            u = af.solve_u(t, z, mesh, model, load)
            r = af.grad_u(t, u, z, mesh, model, load)
            mask, values = load.dirichlet_dofs(mesh)
            K = af.assemble_K(z, mesh, model)
            scale = np.abs(K.data).max() * np.abs(u).max()
            assert np.abs(r[~mask]).max() <= 1e-14 * scale, case
            assert np.array_equal(u[mask], values(t)[mask]), case


def one_element_problem(strain=0.6):
    mesh = af.build_ct_mesh(1.0, 1.0, 1.0, notch=False)
    model = af.MaterialModel(young_E=10.0, poisson_nu=0.0, eta=1e-4,
                             preset="AT", g_c=0.5, theta=0.2)
    u = np.zeros(2 * mesh.n_nodes)
    u[0::2] = strain * mesh.nodes[:, 0]
    return mesh, model, u


def half_strained_problem():
    """5x5-node square, damaged to 0.8, strained only where x > 1/2: the
    healing drive pins the unstrained nodes to z_prev (box active), while
    the strained ones would leave a small ball."""
    mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
    model = af.MaterialModel(young_E=10.0, poisson_nu=0.0, eta=1e-4,
                             preset="AT", g_c=0.5, theta=0.2)
    u = np.zeros(2 * mesh.n_nodes)
    u[0::2] = np.maximum(mesh.nodes[:, 0] - 0.5, 0.0) ** 2
    return mesh, model, u, np.full(mesh.n_nodes, 0.8)


class TestSolveZ:
    def test_no_driving_force_keeps_z(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, preset="AT")
        params = default_params()
        z_prev = np.full(mesh.n_nodes, 0.8)
        rep = af.solve_z(np.zeros(2 * mesh.n_nodes), z_prev, params.rho,
                         mesh, model, params)
        assert np.array_equal(rep.z, z_prev)
        assert rep.stationarity_residual <= params.tol_newton
        assert not rep.constraint_active

    @pytest.mark.parametrize("rho", [0.02, 1e6])
    def test_ball_binds_exactly_when_its_multiplier_is_positive(self, rho):
        # the flag is derived from nu, not stored beside it; a binding
        # ball holds the increment on the sphere within the ball tolerance
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=rho)
        rep = af.solve_z(u, z_prev, rho, mesh, model, params)
        assert rep.constraint_active == (rep.nu > 0.0) == (rho < 1.0)
        assert "constraint_active" not in {
            f.name for f in dataclasses.fields(rep)}
        dz_norm = VNorm(mesh, params.norm_V).value(rep.z - z_prev)
        if rep.constraint_active:
            assert abs(dz_norm - rho) <= 10 * params.tol_constraint
        else:
            assert dz_norm < rho and rep.mu == 0.0

    def test_single_element_scalar_oracle(self):
        """Huge ball radius: the uniform minimizer must match a bounded
        scalar golden-section search over the uniform damage level."""
        mesh, model, u = one_element_problem()
        params = default_params(rho=1e6)
        z_prev = np.ones(mesh.n_nodes)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert np.ptp(rep.z) < 1e-9, "symmetric data gives a uniform field"
        Q, b, _ = z_quadratic(u, mesh, model)
        ones = np.ones(mesh.n_nodes)
        qq = float(ones @ (Q @ ones))
        bb = float(b @ ones)

        res = minimize_scalar(lambda c: 0.5 * qq * c * c - bb * c,
                              bounds=(0.0, 1.0), method="bounded",
                              options={"xatol": 1e-12})
        assert rep.z[0] == pytest.approx(res.x, abs=1e-7)

    def test_two_element_grid_oracle(self):
        """Ball-active solve against brute force over the symmetric nodal
        values (grid step 1e-3, agreement within 2e-3)."""
        nodes = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0],
                          [0.0, 0.5], [0.5, 0.5], [1.0, 0.5]])
        elements = np.array([[0, 1, 4, 3], [1, 2, 5, 4]])
        mesh = Mesh(nodes=nodes, elements=elements,
                    boundary_sets={"clamped": np.array([0, 3]),
                                   "loaded": np.array([2, 5])})
        model = af.MaterialModel(young_E=10.0, poisson_nu=0.0, eta=1e-4,
                                 preset="AT", g_c=0.5, theta=0.2)
        u = np.zeros(2 * mesh.n_nodes)
        u[0::2] = 0.8 * mesh.nodes[:, 0]
        rho = 0.08
        params = default_params(rho=rho)
        z_prev = np.ones(mesh.n_nodes)
        rep = af.solve_z(u, z_prev, rho, mesh, model, params)
        assert rep.constraint_active, "test problem must activate the ball"

        # mirror symmetry x -> 1-x: columns (0,3) and (2,5) coincide
        Q, b, _ = z_quadratic(u, mesh, model)

        def expand(c_out, c_mid):
            return np.array([c_out, c_mid, c_out, c_out, c_mid, c_out])

        best, best_val = None, np.inf
        # mesh area is 1/2, so the ball allows |dz| up to rho / (1/2)^(1/4)
        grid = np.arange(1.0 - 2 * rho, 1.0 + 1e-12, 1e-3)
        for c_out in grid:
            for c_mid in grid:
                z = expand(c_out, c_mid)
                if af.field_norm_V(z - z_prev, mesh, params.norm_V) > rho:
                    continue
                val = 0.5 * z @ (Q @ z) - b @ z
                if val < best_val:
                    best, best_val = z, val
        assert np.abs(rep.z - best).max() <= 2e-3

    def test_feasibility_and_objective_decrease(self):
        mesh = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.25, eta=1e-3,
                                 preset="AT", g_c=0.4, theta=0.15)
        params = default_params(rho=0.03)
        rng = np.random.default_rng(7)
        w = lumped_weights(mesh)
        for trial in range(5):
            u = rng.normal(0, 0.4, 2 * mesh.n_nodes)
            z_prev = rng.uniform(0.5, 1.0, mesh.n_nodes)
            rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
            dz = rep.z - z_prev
            assert af.field_norm_V(dz, mesh, params.norm_V) <= params.rho * (1 + 1e-6)
            assert dz.max() <= 1e-8
            assert rep.z.min() >= -1e-8
            Q, b, _ = z_quadratic(u, mesh, model)
            kr = model.r_coefficient

            def J(z):
                return 0.5 * z @ (Q @ z) - b @ z + kr * w @ (z_prev - z)

            assert J(rep.z) <= J(z_prev) + 1e-10 * max(1.0, abs(J(z_prev)))
            assert rep.lam.min() >= 0.0 and rep.mu >= 0.0
            # complementary slackness
            dz_norm = VNorm(mesh, params.norm_V).value(dz)
            assert rep.mu * (params.rho - dz_norm) <= \
                10 * params.tol_constraint * max(1.0, rep.mu)
            assert np.max(rep.lam * np.abs(dz)) <= 10 * params.tol_constraint * \
                max(1.0, rep.lam.max())

    def test_dual_distance_consistency_when_ball_active(self):
        """With the ball active and no irreversibility constraint active,
        the multiplier dual-norm must reproduce the closed-form distance of
        the converged state."""
        from amfrac.diagnostics import dual_distance
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=1.0, theta=0.1)
        params = default_params(rho=0.01)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=0.4)
        z_prev = np.ones(mesh.n_nodes)
        u = af.solve_u(0.9, z_prev, mesh, model, load)
        rep = af.solve_z(3 * u, z_prev, params.rho, mesh, model, params)
        assert rep.constraint_active
        assert rep.lam.max() == 0.0, "driving must keep the box inactive"
        dist = dual_distance(3 * u, rep.z, mesh, model, params.norm_V)
        assert abs(dist - rep.xi_norm_dual) <= 10 * params.tol_newton * \
            max(1.0, dist)

    def test_kkt_stationarity_at_success(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=20.0, poisson_nu=0.2, eta=1e-3,
                                 preset="ANALYSIS", kappa_E=0.3, kappa_R=0.1)
        params = default_params(rho=0.02, alpha=2.0)
        rng = np.random.default_rng(13)
        u = rng.normal(0, 0.5, 2 * mesh.n_nodes)
        z_prev = rng.uniform(0.6, 1.0, mesh.n_nodes)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert rep.stationarity_residual <= params.tol_newton * 10

    def test_h1_ball(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=0.5, theta=0.1)
        params = af.SchemeParams(rho=0.02, T=1.0, norm_V=af.NormSpec("h1"))
        rng = np.random.default_rng(3)
        u = rng.normal(0, 0.6, 2 * mesh.n_nodes)
        z_prev = np.ones(mesh.n_nodes)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        dzn = af.field_norm_V(rep.z - z_prev, mesh, params.norm_V)
        assert dzn <= params.rho * (1 + 1e-6)
        assert (rep.z - z_prev).max() <= 1e-8

    def test_both_constraints_slsqp_oracle(self):
        """Box-active nodes and the ball active together: the bordered
        Newton step with a non-empty active set against SLSQP."""
        mesh, model, u, z_prev = half_strained_problem()
        assert mesh.n_nodes <= 25
        params = default_params(rho=0.02)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        Q, b, _ = z_quadratic(u, mesh, model)
        Qd = Q.toarray()
        ref = minimize(
            lambda z: 0.5 * z @ Qd @ z - b @ z, z_prev,
            jac=lambda z: Qd @ z - b, method="SLSQP",
            bounds=[(None, zp) for zp in z_prev],
            constraints=[{"type": "ineq", "fun": lambda z: params.rho -
                          af.field_norm_V(z - z_prev, mesh, params.norm_V)}],
            options={"ftol": 1e-15, "maxiter": 500})
        assert ref.success
        assert np.abs(rep.z - ref.x).max() <= 1e-6
        dz = rep.z - z_prev
        assert rep.lam.min() >= 0.0 and np.count_nonzero(rep.lam) > 0
        assert rep.mu > 0.0 and rep.constraint_active
        # pinned rows return the box-active nodes bit-equal to z_prev
        assert np.array_equal(rep.z[rep.lam > 0], z_prev[rep.lam > 0])
        assert np.max(rep.lam * np.abs(dz)) <= params.tol_constraint
        dz_norm = VNorm(mesh, params.norm_V).value(dz)
        assert rep.mu * abs(params.rho - dz_norm) <= \
            10 * params.tol_constraint * rep.mu
        assert rep.stationarity_residual <= params.tol_newton

    def test_factorization_count(self, monkeypatch):
        calls = []
        splu = amfrac.solvers.splu
        monkeypatch.setattr(amfrac.solvers, "splu",
                            lambda A, **kw: calls.append(A.shape) or splu(A, **kw))
        # every node is free from the start and stays free
        mesh, model, u = one_element_problem()
        params = default_params(rho=1e6)
        rep = af.solve_z(u, np.ones(mesh.n_nodes), params.rho, mesh,
                         model, params)
        assert np.all(rep.z < 1.0) and len(calls) <= 1
        assert rep.newton_iters == len(calls)
        # every node is active: nothing to factorize
        calls.clear()
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        z_prev = np.full(mesh.n_nodes, 0.8)
        rep = af.solve_z(np.zeros(2 * mesh.n_nodes), z_prev, params.rho,
                         mesh, model, params)
        assert np.array_equal(rep.z, z_prev) and calls == []

    def test_failure_carries_residuals(self, monkeypatch):
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=1e6)
        rep = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert rep.al_iters > 1, "the first active set must be wrong"
        monkeypatch.setattr(amfrac.solvers, "_MAX_ITERATIONS", 1)
        with pytest.raises(SolverFailure) as err:
            af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert "stationarity" in err.value.residuals
        assert err.value.residuals["passes"] == 1



class TestDzNorm:
    """The damage solve measures the ball once per pass, at that pass's
    ``v``, and nothing after its last pass: the norm of the increment that
    the time update reads is the step record's ``field_norm_V``."""

    @staticmethod
    def spied_solve(monkeypatch, u, z_prev, rho, mesh, model):
        """The report, the V-norm of its increment and the norm
        evaluations of the solve in turn as ``(method, bytes of v)``."""
        calls = []

        class Spy(amfrac.assembly.VNorm):
            def value(self, v):
                calls.append(("value", v.tobytes()))
                return super().value(v)

            def parts(self, v):
                calls.append(("parts", v.tobytes()))
                return super().parts(v)

        monkeypatch.setattr(amfrac.solvers, "VNorm", Spy)
        params = default_params()  # solve_z reads its radius from rho
        rep = af.solve_z(u, z_prev, rho, mesh, model, params)
        dz_norm = VNorm(mesh, params.norm_V).value(rep.z - z_prev)
        return rep, dz_norm, calls

    def test_box_only_solve(self, monkeypatch):
        mesh, model, u, z_prev = half_strained_problem()
        rep, dz_norm, calls = self.spied_solve(monkeypatch, u, z_prev, 1e6,
                                               mesh, model)
        assert rep.nu == 0.0 and rep.al_iters > 1 and dz_norm < 1e6
        # one evaluation per pass, the last one at z - z_prev
        assert [c[0] for c in calls] == ["value"] * rep.al_iters
        assert calls[-1][1] == (rep.z - z_prev).tobytes()

    def test_ball_active_solve(self, monkeypatch):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=1.0, theta=0.1)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=0.4)
        z_prev = np.ones(mesh.n_nodes)
        u = 2.0 * af.solve_u(0.9, z_prev, mesh, model, load)
        rep, dz_norm, calls = self.spied_solve(monkeypatch, u, z_prev,
                                               0.005, mesh, model)
        assert rep.nu > 0.0 and rep.constraint_active
        assert abs(dz_norm - 0.005) <= 10 * default_params().tol_constraint
        # the last pass ended with the ball on: one evaluation, at z - z_prev
        assert calls[-1] == ("parts", (rep.z - z_prev).tobytes())

    def test_last_pass_retracted(self, monkeypatch):
        mesh, model, u, z_prev = half_strained_problem()
        rep, dz_norm, calls = self.spied_solve(monkeypatch, u, z_prev,
                                               0.02, mesh, model)
        assert rep.nu > 0.0
        assert abs(dz_norm - 0.02) <= 10 * default_params().tol_constraint
        # the last pass retracted: parts was evaluated at the scaled v,
        # which is not z - z_prev to the last bit, and no norm after it
        assert calls[-1][0] == "parts"
        assert calls[-1][1] != (rep.z - z_prev).tobytes()

    def test_infinite_radius_takes_the_path_of_an_unreached_one(
            self, monkeypatch, ct_coarse_setup):
        """The staggered step (``rho = inf``) is the damage solve of a ball
        that never binds, not a path of its own: a solve of several passes
        reports the same, and measures the ball at the same ``v``, as with
        a radius that no increment reaches."""
        mesh, model, load, params = ct_coarse_setup
        ones = np.ones(mesh.n_nodes)
        z_prev = af.solve_z(af.solve_u(2.0, ones, mesh, model, load), ones,
                            math.inf, mesh, model, params).z
        u = af.solve_u(4.0, z_prev, mesh, model, load)
        inf, inf_norm, inf_calls = self.spied_solve(
            monkeypatch, u, z_prev, math.inf, mesh, model)
        big, big_norm, big_calls = self.spied_solve(
            monkeypatch, u, z_prev, 1e6, mesh, model)
        assert inf.al_iters >= 2 and inf.active.any()
        assert inf_norm == big_norm < 1e6 and not big.constraint_active
        for name in ("z", "lam", "active", "lower"):
            assert np.array_equal(getattr(inf, name), getattr(big, name)), \
                name
        for name in ("nu", "mu", "al_iters", "newton_iters",
                     "stationarity_residual"):
            assert getattr(inf, name) == getattr(big, name), name
        assert inf_calls == big_calls


class TestWarmStart:
    """A damage solve started from the report of a nearby solve (same
    ``z_prev`` and ball) reaches the cold solve's minimizer."""

    def test_ball_active_start_saves_newton_steps(self):
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=0.02)
        start = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert start.nu > 0.0 and np.count_nonzero(start.active) > 0
        cold = af.solve_z(1.01 * u, z_prev, params.rho, mesh, model, params)
        warm = af.solve_z(1.01 * u, z_prev, params.rho, mesh, model, params,
                          start)
        assert cold.constraint_active and warm.constraint_active
        assert np.array_equal(warm.active, cold.active)
        assert np.abs(warm.z - cold.z).max() <= 10 * params.tol_constraint
        assert warm.stationarity_residual <= params.tol_newton
        dz_norm = VNorm(mesh, params.norm_V).value(warm.z - z_prev)
        assert abs(dz_norm - params.rho) <= 10 * params.tol_constraint
        assert warm.newton_iters < cold.newton_iters

    def test_own_report_ends_in_one_pass(self):
        """The start's final sets are right: one box pass returns the same
        ``z`` bit for bit."""
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=1e6)
        cold = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert cold.al_iters > 1 and cold.nu == 0.0
        warm = af.solve_z(u, z_prev, params.rho, mesh, model, params, cold)
        assert np.array_equal(warm.z, cold.z)
        assert (warm.al_iters, warm.newton_iters) == (1, 1)

    @pytest.mark.parametrize("scale", [0.1, 0.3],
                             ids=["all-box-active", "free-inside-ball"])
    def test_binding_start_releases_the_ball(self, scale):
        """Under a weaker drive the ball does not bind: a start with the ball
        on releases it, whether the box then holds every node (an empty free
        block) or leaves free nodes inside the ball."""
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=0.02)
        start = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        assert start.nu > 0.0
        cold = af.solve_z(scale * u, z_prev, params.rho, mesh, model, params)
        warm = af.solve_z(scale * u, z_prev, params.rho, mesh, model, params,
                          start)
        assert not cold.constraint_active
        assert (np.count_nonzero(~cold.active) > 0) == (scale > 0.1)
        assert not warm.constraint_active and warm.nu == 0.0 == warm.mu
        assert np.array_equal(warm.active, cold.active)
        assert np.abs(warm.z - cold.z).max() <= 10 * params.tol_constraint
        assert warm.stationarity_residual <= params.tol_newton

    def test_start_without_ball_gradient_releases_the_ball(self,
                                                          monkeypatch):
        """A binding start whose ``z`` is ``z_prev`` leaves the free nodes
        no ball gradient, so the first bordered step has a zero Schur pivot:
        the pass releases the ball for a box pass, and the solve still ends
        at the cold minimizer."""
        mesh, model, u, z_prev = half_strained_problem()
        params = default_params(rho=0.02)
        cold = af.solve_z(u, z_prev, params.rho, mesh, model, params)
        steps = []
        step = amfrac.solvers._bordered_step
        monkeypatch.setattr(amfrac.solvers, "_bordered_step",
                            lambda *a: steps.append(step(*a)) or steps[-1])
        start = dataclasses.replace(cold, z=z_prev.copy())
        warm = af.solve_z(u, z_prev, params.rho, mesh, model, params, start)
        assert steps[0] is None and len(steps) > 1
        assert warm.constraint_active
        assert np.abs(warm.z - cold.z).max() <= 10 * params.tol_constraint
        assert warm.stationarity_residual <= params.tol_newton


class TestOrderedSolves:
    """Solves through a ``Band``, in the one cached band order of the mesh,
    agree with a plain sparse solve of the sliced system."""

    @pytest.mark.parametrize("mode", ["DIRICHLET_RAMP", "TRACTION_RAMP"])
    def test_solve_u_matches_spsolve(self, mode):
        mesh = af.build_lshape_mesh(250.0, 50.0, 25.0)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02)
        load = af.LoadProgram(mode=mode, T=1.0, direction=(0, 1),
                              ubar_rate=0.5, traction_rate=2.0)
        z = np.random.default_rng(4).uniform(0.2, 1.0, mesh.n_nodes)
        t = 0.7
        u = af.solve_u(t, z, mesh, model, load)
        K = af.assemble_K(z, mesh, model)
        mask, values = load.dirichlet_dofs(mesh)
        free = ~mask
        ref = values(t)
        ref[free] = spsolve(K[free][:, free].tocsc(),
                            load.force_vector(mesh, t)[free]
                            - K[free][:, mask] @ ref[mask])
        assert np.abs(ref).max() > 0
        assert np.abs(u - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("which", ["random", "all", "one"])
    def test_pinned_rows_match_free_block(self, which):
        """Pinned rows leave the free values the solution of the free block
        ``A[F][:, F]`` and return the pinned values as given."""
        mesh = af.build_ct_mesh(1.0, 0.25, 0.125)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4,
                                 preset="AT", g_c=1.0, theta=0.1)
        rng = np.random.default_rng(5)
        n = mesh.n_nodes
        band = element_data(mesh).node_band
        A, _, _ = z_quadratic(0.05 * rng.normal(size=2 * n), mesh, model)
        pinned = {"random": rng.random(n) < 0.5,
                  "all": np.zeros(n, dtype=bool),
                  "one": np.arange(n) != n // 2}[which]
        free = ~pinned
        rhs = rng.normal(size=n)
        x = amfrac.solvers._solver(band, band.fill(A.data, pinned))(rhs)
        ref = rhs.copy()
        ref[free] = spsolve(A[free][:, free].tocsc(), rhs[free])
        assert np.array_equal(x[pinned], rhs[pinned])
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("pattern", ["node", "dof"])
    def test_band_round_trip(self, pattern):
        """The band array read back densely is the operator, filled from
        its CSR data (node) or from its element entries (dof), and a pinned
        row is an identity row with zero coupling."""
        mesh = af.build_lshape_mesh(250.0, 50.0, 25.0)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02)
        rng = np.random.default_rng(8)
        data = element_data(mesh)
        if pattern == "node":
            A, _, _ = z_quadratic(rng.normal(size=2 * mesh.n_nodes), mesh,
                                  model)
            band, vals = data.node_band, A.data
        else:
            z = rng.uniform(0.2, 1.0, mesh.n_nodes)
            A = af.assemble_K(z, mesh, model)
            band = data.free_band(np.zeros(A.shape[0], dtype=bool))
            vals = amfrac.assembly.element_stiffness(z, mesh, model)
        n = A.shape[0]

        def in_band_order(M):
            return np.tril(M[np.ix_(band.dofs, band.dofs)])

        # the stiffness is symmetric up to round-off; the band holds the
        # lower triangle of the band order
        assert band.kd < n - 1 and band.n == n
        assert np.array_equal(dense_lower(band.fill(vals)),
                              in_band_order(A.toarray()))
        pinned = rng.random(n) < 0.3
        expected = A.toarray()
        expected[pinned] = 0.0
        expected[:, pinned] = 0.0
        expected[pinned, pinned] = 1.0
        assert np.array_equal(dense_lower(band.fill(vals, pinned)),
                              in_band_order(expected))

    @pytest.mark.parametrize("mode", ["TRACTION_RAMP", "DIRICHLET_RAMP"])
    def test_free_band_round_trip(self, mode, monkeypatch):
        """The band that ``solve_u`` factors, read back densely, is the
        lower triangle of ``K[free][:, free]`` with the free dofs in the
        band order of the mesh: the traction plate of the benchmark and the
        Dirichlet mask of the L-shaped panel."""
        if mode == "TRACTION_RAMP":
            mesh = af.build_ct_mesh(1.0, 0.05, 0.05, notch=False)
        else:
            mesh = af.build_lshape_mesh(250.0, 50.0, 25.0)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02)
        load = af.LoadProgram(mode=mode, T=1.0, direction=(0, 1),
                              ubar_rate=0.5, traction_rate=2.0)
        factored = []
        splu = amfrac.solvers.splu
        monkeypatch.setattr(amfrac.solvers, "splu",
                            lambda ab: factored.append(ab.copy()) or splu(ab))
        z = np.random.default_rng(9).uniform(0.2, 1.0, mesh.n_nodes)
        af.solve_u(0.7, z, mesh, model, load)
        (ab,) = factored
        mask, _ = load.dirichlet_dofs(mesh)
        order = [d for d in dof_order(element_data(mesh).order) if not mask[d]]
        n = len(order)
        assert ab.shape[1] == n == np.count_nonzero(~mask)
        if mode == "TRACTION_RAMP":
            # the 42 clamped dofs of the left edge leave the band
            assert ab.shape == (46, 840)
        K = af.assemble_K(z, mesh, model)
        assert np.array_equal(dense_lower(ab),
                              np.tril(K[order][:, order].toarray()))

    @staticmethod
    def _small_traction_run():
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02,
                                 preset="ANALYSIS", kappa_E=0.15, kappa_R=0.08)
        params = af.SchemeParams(rho=0.05, T=1.0,
                                 norm_V=af.NormSpec("lalpha", 4.0))
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=3.0)
        trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
        assert any(r.ball_active for r in trace.records)
        return mesh, load

    def test_one_order_per_pattern_per_run(self, monkeypatch):
        """A traction run builds two bands: the node band of the damage
        solve and the band of the free dofs of the displacement solve."""
        sizes = []
        band = amfrac.assembly.Band

        def counting(*args):
            built = band(*args)
            sizes.append(built.n)
            return built

        monkeypatch.setattr(amfrac.assembly, "Band", counting)
        mesh, load = self._small_traction_run()
        mask, _ = load.dirichlet_dofs(mesh)
        assert sorted(sizes) == [mesh.n_nodes, np.count_nonzero(~mask)]

    def test_traction_run_builds_no_dof_pattern(self, monkeypatch):
        """The CSR stiffness pattern serves only ``assemble_K``, which a
        traction run does not call."""
        sizes = []
        pattern = amfrac.assembly.SparsePattern

        def counting(rows, cols, n):
            sizes.append(n)
            return pattern(rows, cols, n)

        monkeypatch.setattr(amfrac.assembly, "SparsePattern", counting)
        mesh, _ = self._small_traction_run()
        assert sizes == [mesh.n_nodes]

    @pytest.mark.parametrize("pattern", ["dof_pattern", "node_pattern"])
    @pytest.mark.parametrize("mesh, sweep", [
        (lambda: af.build_ct_mesh(1.0, 0.1, 0.05), 0),
        (lambda: af.build_ct_mesh(1.0, 0.1, 0.05, notch=False), 0),
        (lambda: af.build_lshape_mesh(250.0, 50.0, 25.0), 0),
        # fine in y everywhere and in x only near the centre: the y-major
        # sweep has the shorter lines (node kd 32 against 83)
        (lambda: af.build_ct_mesh(1, 0.1, 0.0125,
                                  refine_band=((0.45, 0.55), (0, 1))), 1),
        (lambda: af.build_lshape_mesh(250.0, 50.0, 2.0), 0),
        # a square uniform grid: both sweeps tie
        (lambda: af.build_ct_mesh(1.0, 0.25, 0.25, notch=False), 0),
        (lambda: af.build_ct_mesh(1.0, 1.0, 1.0, notch=False), 0),
    ], ids=["ct", "ct-no-notch", "lshape", "ct-y-refined", "lshape-preset",
            "uniform-tie", "single-element"])
    def test_band_order_is_no_wider_than_rcm(self, mesh, sweep, pattern):
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        mesh = mesh()
        data = element_data(mesh)
        p = getattr(data, pattern)
        if pattern == "node_pattern":
            band, order = data.node_band, data.order
        else:
            band = data.free_band(np.zeros(p.n, dtype=bool))
            order = dof_order(data.order)
            # the two dofs of a node follow each other
            assert band.kd == 2 * data.node_band.kd + 1
        rcm = reverse_cuthill_mckee(p.matrix(np.ones(p.nnz)),
                                    symmetric_mode=True)
        assert np.array_equal(band.dofs, order)
        assert np.array_equal(np.sort(order), np.arange(p.n))
        assert band.kd == half_bandwidth(p, order)
        assert band.kd <= half_bandwidth(p, rcm)
        # the narrower sweep is taken, the x-major one on a tie
        x, y = mesh.nodes.T
        sweeps = [np.lexsort((y, x)), np.lexsort((x, y))]
        widths = [half_bandwidth(data.node_pattern, s) for s in sweeps]
        assert int(np.argmin(widths)) == sweep
        assert np.array_equal(data.order, sweeps[sweep])

    def test_field_run_does_not_import_csgraph(self):
        """The band order is a coordinate sweep: importing amfrac and
        running a field problem leaves ``scipy.sparse.csgraph`` unloaded."""
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import amfrac as af
            mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
            model = af.MaterialModel(young_E=30.0, poisson_nu=0.2, eta=0.02,
                                     preset="ANALYSIS", kappa_E=0.15,
                                     kappa_R=0.08)
            params = af.SchemeParams(rho=0.05, T=0.2)
            load = af.LoadProgram(mode="TRACTION_RAMP", T=0.2,
                                  direction=(1, 0), traction_rate=3.0)
            trace = af.run(mesh, model, load, params, np.ones(mesh.n_nodes))
            print(len(trace.records), "scipy.sparse.csgraph" in sys.modules)
        """)
        src = str(Path(amfrac.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        steps, loaded = out.stdout.split()
        assert int(steps) > 1 and loaded == "False"

    def test_band_order_halves_the_traction_mesh(self):
        # the mesh of the traction_jumps benchmark: RCM gives 83 and 41
        data = element_data(af.build_ct_mesh(1.0, 0.05, 0.05, notch=False))
        dofs = data.free_band(np.zeros(2 * data.n_nodes, dtype=bool))
        assert (dofs.kd, data.node_band.kd) == (45, 22)


class TestFactorFailures:
    """The band factorization raises instead of returning a wrong
    solution."""

    def test_indefinite_band_matrix_raises(self):
        # [[1, 2, 0], [2, 1, 0], [0, 0, 1]]: the 2x2 leading minor is -3
        ab = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, 0.0]], order="F")
        with pytest.raises(SolverFailure) as err:
            amfrac.solvers.splu(ab)
        assert err.value.residuals["leading_minor"] == 2
