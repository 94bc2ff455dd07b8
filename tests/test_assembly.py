"""Energies, gradients, operators, field norms and reactions."""

import numpy as np
import pytest

import amfrac as af
from amfrac.mesh import GAUSS_POINTS_2X2
from amfrac.assembly import (
    element_data,
    elastic_density_at_gauss,
    mass_matrix,
    strains_at_gauss,
    z_quadratic,
)

from oracles import (
    element_quadrature,
    fd_gradient,
    gauss_rule,
    ref_btcb,
    ref_element_stiffness,
    ref_field_norm_lalpha,
    ref_gauss_interpolation,
    ref_mass_matrix,
    ref_shape_grad,
    ref_total_energy,
    smooth_random_field,
)


def element_oracle(coords):
    """``w_q det J_q`` and the shape gradients of one element by the loop
    oracle, with the Gauss points in the package's order."""
    points = gauss_rule(2)[0]
    order = [np.abs(points - p).sum(axis=1).argmin() for p in GAUSS_POINTS_2X2]
    w, _, dNdx = zip(*element_quadrature(coords, 2))
    return np.array(w)[order], np.array(dNdx)[order]


def unit_element_mesh():
    return af.build_ct_mesh(1.0, 1.0, 1.0, notch=False)


def small_mesh():
    return af.build_ct_mesh(1.0, 1.0 / 3.0, 1.0 / 3.0, notch=False)


def no_load(T=1.0):
    return af.LoadProgram(mode="TRACTION_RAMP", T=T, direction=(1, 0),
                          traction_rate=0.0)


class TestTotalEnergy:
    def test_unloaded_intact_state_is_zero(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=3.0, poisson_nu=0.3, preset="AT")
        u, z = np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes)
        assert abs(af.total_energy(0.0, u, z, mesh, model, no_load())) < 1e-25

    def test_uniform_strain_single_element(self):
        mesh = unit_element_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, eta=1e-13,
                                 preset="AT")
        u = np.zeros(2 * mesh.n_nodes)
        u[0::2] = mesh.nodes[:, 0]  # eps_xx = 1
        E = af.total_energy(0.0, u, np.ones(mesh.n_nodes), mesh, model,
                            no_load())
        assert E == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("preset", ["AT", "ANALYSIS"])
    def test_matches_high_order_quadrature(self, preset):
        """With elementwise-constant damage (random level) or zero strain
        the integrand degree stays within the rule, so the 2x2 evaluation
        must agree with a dense 4x4 oracle to round-off."""
        mesh = small_mesh()
        model = af.MaterialModel(young_E=2.0, poisson_nu=0.25, eta=1e-3,
                                 preset=preset, g_c=0.7, theta=0.2,
                                 kappa_E=0.9)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=1.3)
        rng = np.random.default_rng(5)
        # (a) random displacement, uniform damage level
        u = rng.normal(0, 0.2, 2 * mesh.n_nodes)
        z = np.full(mesh.n_nodes, rng.uniform(0.2, 0.9))
        ref = ref_total_energy(0.7, u, z, mesh, model, load, order=4)
        assert af.total_energy(0.7, u, z, mesh, model, load) == pytest.approx(
            ref, rel=1e-10, abs=1e-12)
        # (b) zero displacement, random bilinear damage
        z = rng.uniform(0, 1, mesh.n_nodes)
        u0 = np.zeros(2 * mesh.n_nodes)
        ref = ref_total_energy(0.3, u0, z, mesh, model, load, order=4)
        assert af.total_energy(0.3, u0, z, mesh, model, load) == pytest.approx(
            ref, rel=1e-10, abs=1e-12)

    def test_quadrature_stability_2x2_vs_3x3(self):
        """Linear displacement + bilinear damage keeps every integrand
        within both rules' exactness degree."""
        mesh = small_mesh()
        rng = np.random.default_rng(11)
        for preset in ("AT", "ANALYSIS"):
            model = af.MaterialModel(young_E=5.0, poisson_nu=0.2, eta=1e-2,
                                     preset=preset, g_c=1.1, theta=0.15,
                                     kappa_E=0.4)
            a, b, c, d = rng.normal(0, 0.3, 4)
            u = np.zeros(2 * mesh.n_nodes)
            u[0::2] = a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1]
            u[1::2] = c * mesh.nodes[:, 0] + d * mesh.nodes[:, 1]
            z = rng.uniform(0.1, 1.0, mesh.n_nodes)
            e2 = af.total_energy(0.0, u, z, mesh, model, no_load())
            e3 = ref_total_energy(0.0, u, z, mesh, model, no_load(), order=3)
            assert e2 == pytest.approx(e3, rel=1e-9)

    def test_dimension_mismatch(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0)
        with pytest.raises(ValueError):
            af.total_energy(0.0, np.zeros(3), np.ones(mesh.n_nodes), mesh,
                            model, no_load())

    def test_damage_dimension_mismatch(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0)
        with pytest.raises(ValueError, match="damage vector of size"):
            af.total_energy(0.0, np.zeros(2 * mesh.n_nodes), np.ones(3), mesh,
                            model, no_load())

    def test_clockwise_element_is_rejected(self):
        mesh = af.Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                       [0.0, 1.0]]),
                       elements=np.array([[0, 3, 2, 1]]),
                       boundary_sets={"clamped": np.array([0, 3]),
                                      "loaded": np.array([1, 2])})
        with pytest.raises(ValueError, match="non-positive Jacobian"):
            element_data(mesh)

    def test_jacobian_negative_at_one_gauss_point_is_rejected(self):
        """A dart whose Jacobian is negative at the third Gauss point only:
        one check covers every point."""
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.3], [0.0, 1.0]])
        dets = element_oracle(nodes)[0]
        assert [d < 0 for d in dets] == [False, False, True, False]
        with pytest.raises(ValueError, match="non-positive Jacobian"):
            element_data(af.Mesh(nodes=nodes, elements=np.array([[0, 1, 2, 3]])))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", [0, 1, 2, 3])
    def test_non_finite_coordinate_is_rejected(self, value, node):
        """A NaN or infinite coordinate of a skewed element.  ``y = -inf``
        at node 1 and ``y = +inf`` at node 3 make every det ``+inf``, which
        ``det > 0`` alone would accept."""
        nodes = np.array([[0.0, 0.0], [1.0, 0.2], [1.2, 1.0], [0.1, 1.0]])
        nodes[node, node % 2] = value
        with pytest.raises(ValueError, match="non-positive Jacobian"):
            element_data(af.Mesh(nodes=nodes, elements=np.array([[0, 1, 2, 3]])))


class TestGradU:
    def test_zero_state(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.3)
        u, z = np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes)
        assert np.all(af.grad_u(0.0, u, z, mesh, model, no_load()) == 0.0)

    def test_rigid_translation(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=7.0, poisson_nu=0.3)
        u = np.tile([0.4, -0.7], mesh.n_nodes)
        z = np.random.default_rng(3).uniform(0, 1, mesh.n_nodes)
        g = af.grad_u(0.0, u, z, mesh, model, no_load())
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize("preset", ["AT", "ANALYSIS"])
    def test_finite_difference_oracle(self, preset):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=4.0, poisson_nu=0.3, eta=1e-3,
                                 preset=preset, g_c=0.8, theta=0.2,
                                 kappa_E=0.6)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(0, 1),
                              traction_rate=0.9)
        rng = np.random.default_rng(17)
        u = rng.normal(0, 0.3, 2 * mesh.n_nodes)
        z = rng.uniform(0.1, 1.0, mesh.n_nodes)
        g = af.grad_u(0.6, u, z, mesh, model, load)
        g_fd = fd_gradient(
            lambda v: af.total_energy(0.6, v, z, mesh, model, load), u)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g_fd), 1.0)


class TestGradZ:
    def test_at_intact_unloaded(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, preset="AT")
        g, d = af.grad_z(np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes),
                         mesh, model)
        assert np.abs(g).max() < 1e-14
        assert np.abs(d).max() < 1e-12

    def test_analysis_mass_row_sums(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_E=1.0)
        g, _ = af.grad_z(np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes),
                         mesh, model)
        rows = ref_mass_matrix(mesh, order=2).sum(axis=1)
        assert np.allclose(g, rows, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("preset", ["AT", "ANALYSIS"])
    def test_finite_difference_oracle(self, preset):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=4.0, poisson_nu=0.3, eta=1e-3,
                                 preset=preset, g_c=0.8, theta=0.2,
                                 kappa_E=0.6)
        rng = np.random.default_rng(19)
        u = rng.normal(0, 0.3, 2 * mesh.n_nodes)
        z = rng.uniform(0.1, 1.0, mesh.n_nodes)
        g, _ = af.grad_z(u, z, mesh, model)
        g_fd = fd_gradient(
            lambda v: af.total_energy(0.0, u, v, mesh, model, no_load()), z)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g_fd), 1.0)


class TestAssembleK:
    @pytest.mark.parametrize("entry", [(0, 2), (1, 2), (2, 0), (2, 1)])
    def test_shear_coupled_elasticity_is_rejected(self, entry):
        """The stiffness sums only the products of a plane-strain ``C``;
        a ``C`` whose shear couples to a normal strain is an error, not a
        stiffness without that coupling."""
        mesh = unit_element_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.3)
        C = model.C.copy()
        C[entry] = 0.1
        object.__setattr__(model, "C", C)  # past the frozen model's guard
        with pytest.raises(ValueError, match="uncoupled shear"):
            af.assemble_K(np.ones(mesh.n_nodes), mesh, model)

    def test_single_element_matches_dense_oracle(self):
        mesh = unit_element_mesh()
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, eta=1e-14)
        K = af.assemble_K(np.ones(mesh.n_nodes), mesh, model).toarray()
        dofs = np.empty(8, dtype=int)
        dofs[0::2] = 2 * mesh.elements[0]
        dofs[1::2] = 2 * mesh.elements[0] + 1
        Kref = ref_element_stiffness(mesh.nodes[mesh.elements[0]], model.C,
                                     1.0 + 1e-14)
        assert np.allclose(K[np.ix_(dofs, dofs)], Kref, rtol=1e-12)

    def test_degradation_scaling(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=9.0, poisson_nu=0.25, eta=0.37)
        K0 = af.assemble_K(np.zeros(mesh.n_nodes), mesh, model).toarray()
        K1 = af.assemble_K(np.ones(mesh.n_nodes), mesh, model).toarray()
        assert np.allclose(K0, (0.37 / 1.37) * K1, rtol=1e-12)

    def test_rigid_modes_in_kernel(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=9.0, poisson_nu=0.25)
        K = af.assemble_K(np.ones(mesh.n_nodes), mesh, model)
        scale = np.abs(K.toarray()).max()
        for mode in (np.tile([1.0, 0.0], mesh.n_nodes),
                     np.tile([0.0, 1.0], mesh.n_nodes),
                     np.column_stack([-mesh.nodes[:, 1],
                                      mesh.nodes[:, 0]]).ravel()):
            assert np.abs(K @ mode).max() <= 1e-12 * scale

    def test_symmetry_and_spd_after_elimination(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        model = af.MaterialModel(young_E=100.0, poisson_nu=0.3, eta=1e-4)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=1.0)
        z = np.random.default_rng(2).uniform(0, 1, mesh.n_nodes)
        K = af.assemble_K(z, mesh, model)
        asym = np.abs((K - K.T).toarray()).max()
        assert asym <= 1e-12 * np.abs(K.toarray()).max()
        mask, _ = load.dirichlet_dofs(mesh)
        Kff = K.toarray()[np.ix_(~mask, ~mask)]
        np.linalg.cholesky(Kff)  # raises if not SPD


class TestFieldNorm:
    def test_constant_field_lalpha(self):
        mesh = small_mesh()
        dz = 0.37 * np.ones(mesh.n_nodes)
        for alpha in (2.0, 4.0, 8.0):
            norm = af.field_norm_V(dz, mesh, af.NormSpec("lalpha", alpha))
            assert norm == pytest.approx(0.37, rel=1e-12)

    def test_constant_field_h1(self):
        mesh = small_mesh()
        dz = 0.37 * np.ones(mesh.n_nodes)
        assert af.field_norm_V(dz, mesh, af.NormSpec("h1")) == pytest.approx(
            0.37, rel=1e-12)

    def test_alpha_monotone_on_unit_area(self):
        # power-mean inequality on the unit-area (probability) measure:
        # the norm grows with alpha, the integral of |dz|^alpha shrinks
        mesh = small_mesh()
        rng = np.random.default_rng(23)
        dz = rng.uniform(-1.0, 1.0, mesh.n_nodes)
        norms = [af.field_norm_V(dz, mesh, af.NormSpec("lalpha", a))
                 for a in (2.0, 4.0, 8.0)]
        assert norms[0] <= norms[1] + 1e-12 <= norms[2] + 2e-12
        assert norms[2] <= np.abs(dz).max() + 1e-12
        integrals = [norms[i] ** a for i, a in enumerate((2.0, 4.0, 8.0))]
        assert integrals[0] >= integrals[1] >= integrals[2]

    def test_refined_quadrature_oracle(self):
        """Smooth random field on a fine grid: the production evaluation and
        a 4x4 oracle both approximate the same integral; tolerance 1e-8."""
        mesh = af.build_ct_mesh(1.0, 1.0 / 128, 1.0 / 128, notch=False)
        rng = np.random.default_rng(29)
        dz = smooth_random_field(mesh, rng, amplitude=0.5, offset=0.8)
        norm = af.field_norm_V(dz, mesh, af.NormSpec("lalpha", 4.0))
        ref = ref_field_norm_lalpha(dz, mesh, 4.0, order=4)
        assert norm == pytest.approx(ref, rel=1e-8)

    def test_gradient_is_finite_below_alpha_2(self):
        """At alpha = 1.5 the gradient of ``S/alpha`` is finite where whole
        elements have ``v_q = 0`` and matches its finite differences."""
        from amfrac.assembly import VNorm

        mesh = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
        v = np.zeros(mesh.n_nodes)
        rng = np.random.default_rng(5)
        v[rng.choice(mesh.n_nodes, 5, replace=False)] = -rng.uniform(
            0.01, 0.1, 5)
        ball = VNorm(mesh, af.NormSpec("lalpha", 1.5))
        _, g = ball.parts(v)
        assert np.isfinite(g).all()
        fd = fd_gradient(lambda x: ball.value(x) ** 1.5 / 1.5, v)
        assert np.abs(g - fd).max() <= 1e-6 * np.abs(fd).max()

    def test_invalid_alpha(self):
        from amfrac.model import ModelConfigError
        with pytest.raises(ModelConfigError):
            af.NormSpec("lalpha", 0.5)


class TestReactionForce:
    def make(self, nu=0.0):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=10.0, poisson_nu=nu, eta=1e-4)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(1, 0),
                              ubar_rate=0.05)
        return mesh, model, load

    def test_zero_at_zero_ramp(self):
        mesh, model, load = self.make()
        u, z = np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes)
        assert af.reaction_force(0.0, u, z, mesh, model, load) == 0.0

    def test_uniform_stretch_hand_formula(self):
        # nu = 0 decouples: F = E * strain * edge length
        mesh, model, load = self.make(nu=0.0)
        t = 1.0
        u = af.solve_u(t, np.ones(mesh.n_nodes), mesh, model, load)
        expected = 10.0 * load.ubar(t) / 1.0 * 1.0 * (1 + model.eta)
        assert af.reaction_force(t, u, np.ones(mesh.n_nodes), mesh, model,
                                 load) == pytest.approx(expected, rel=1e-9)

    def test_force_balance_between_faces(self):
        mesh, model, load = self.make(nu=0.3)
        z = np.random.default_rng(31).uniform(0.5, 1.0, mesh.n_nodes)
        u = af.solve_u(0.7, z, mesh, model, load)
        f_loaded = af.reaction_force(0.7, u, z, mesh, model, load)
        # the clamped face's reaction along the load direction (x)
        r = af.grad_u(0.7, u, z, mesh, model, load)
        f_clamped = r[2 * mesh.boundary_sets["clamped"]].sum()
        assert f_loaded == pytest.approx(-f_clamped, abs=1e-8 * max(1, abs(f_loaded)))

    def test_traction_mode_unsupported(self):
        mesh = af.build_ct_mesh(1.0, 0.5, 0.5, notch=False)
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0)
        u, z = np.zeros(2 * mesh.n_nodes), np.ones(mesh.n_nodes)
        with pytest.raises(ValueError):
            af.reaction_force(0.0, u, z, mesh, model, no_load())


class TestPerDisplacementCache:
    """The elastic density and the damage quadratic are evaluated once for
    each distinct displacement and material, and handed out read-only."""

    @staticmethod
    def evaluate(u, mesh, model):
        Q, b, c0 = z_quadratic(u, mesh, model)
        return elastic_density_at_gauss(u, mesh, model), Q, b, c0

    def assert_fresh(self, got, u, model):
        # a new mesh has empty caches
        psi, Q, b, c0 = self.evaluate(u.copy(), small_mesh(), model)
        assert np.array_equal(got[0], psi)
        assert np.array_equal(got[1].toarray(), Q.toarray())
        assert np.array_equal(got[2], b) and got[3] == c0

    def test_same_inputs_reuse_the_arrays(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=6.0, poisson_nu=0.2)
        u = np.random.default_rng(4).normal(0, 0.1, 2 * mesh.n_nodes)
        first = self.evaluate(u, mesh, model)
        again = self.evaluate(u.copy(), mesh, model)
        assert all(a is b for a, b in zip(first[:3], again[:3]))

    def test_mutated_displacement_gives_new_values(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=6.0, poisson_nu=0.2)
        u = np.random.default_rng(5).normal(0, 0.1, 2 * mesh.n_nodes)
        before = self.evaluate(u, mesh, model)
        psi_before, Q_before = before[0].copy(), before[1].toarray()
        u[::3] *= 1.5
        after = self.evaluate(u, mesh, model)
        assert not np.array_equal(after[0], psi_before)
        assert not np.array_equal(after[1].toarray(), Q_before)
        self.assert_fresh(after, u, model)

    @pytest.mark.parametrize("change", [dict(young_E=9.0), dict(kappa_E=0.4)])
    def test_other_material_gives_new_values(self, change):
        mesh = small_mesh()
        base = dict(young_E=6.0, poisson_nu=0.2, preset="ANALYSIS",
                    kappa_E=0.7)
        u = np.random.default_rng(6).normal(0, 0.1, 2 * mesh.n_nodes)
        first = self.evaluate(u, mesh, af.MaterialModel(**base))
        Q_first = first[1].toarray()
        other = af.MaterialModel(**{**base, **change})
        second = self.evaluate(u, mesh, other)
        assert not np.array_equal(second[1].toarray(), Q_first)
        self.assert_fresh(second, u, other)

    def test_material_constants_never_go_stale(self):
        """The terms of the damage quadratic that do not depend on ``u`` are
        kept for the last material: an AT material, an ANALYSIS one, one
        with another ``kappa_E``, the AT one again, then with another
        ``g_c`` and another ``theta``, and an ANALYSIS one with the same
        constants as that in turn on one mesh each give the bits
        of a fresh evaluation and of ``h + c1 M + c2 L`` (AT) or ``h +
        kappa_E (M + L)`` (ANALYSIS), summed in that order."""
        mesh = small_mesh()
        u = np.random.default_rng(8).normal(0, 0.1, 2 * mesh.n_nodes)
        common = dict(young_E=6.0, poisson_nu=0.2, eta=0.01)
        for material in (dict(preset="AT", g_c=0.9, theta=0.12),
                         dict(preset="ANALYSIS", kappa_E=0.7),
                         dict(preset="ANALYSIS", kappa_E=0.4),
                         dict(preset="AT", g_c=0.9, theta=0.12),
                         dict(preset="AT", g_c=1.7, theta=0.12),
                         dict(preset="AT", g_c=1.7, theta=0.2),
                         dict(preset="ANALYSIS", g_c=1.7, theta=0.2)):
            model = af.MaterialModel(**common, **material)
            Q, b, c0 = z_quadratic(u, mesh, model)
            fresh_mesh = small_mesh()
            Q_ref, b_ref, c0_ref = z_quadratic(u.copy(), fresh_mesh, model)
            assert np.array_equal(Q.data, Q_ref.data)
            assert np.array_equal(b, b_ref) and c0 == c0_ref
            data = element_data(fresh_mesh)
            psi = elastic_density_at_gauss(u, fresh_mesh, model)
            h = data.node_operator(data.wdet * psi)
            M, L = data.mass.data, data.laplacian.data
            gc, th = model.g_c, model.theta
            if model.preset == "AT":
                q = h + (gc / (2.0 * th)) * M + (2.0 * gc * th) * L
            else:
                q = h + model.kappa_E * (M + L)
            assert np.array_equal(Q.data, q)

    def test_cached_arrays_are_read_only(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=6.0, poisson_nu=0.2, preset="AT")
        u = np.random.default_rng(7).normal(0, 0.1, 2 * mesh.n_nodes)
        psi, Q, b, _ = self.evaluate(u, mesh, model)
        for arr in (psi, Q.data, b):
            with pytest.raises(ValueError):
                arr[0] = 1.0



class TestElasticDensity:
    @pytest.mark.parametrize("nu", [0.2, 0.3])
    def test_same_bits_as_the_stacked_formula(self, nu):
        """One 2-D product and an explicit sum over the components give the
        bits of ``((eps @ C) * eps).sum(-1)`` on a graded mesh."""
        mesh = af.build_ct_mesh(1.0, 0.1, 0.05)
        model = af.MaterialModel(young_E=100.0, poisson_nu=nu)
        rng = np.random.default_rng(int(100 * nu))
        for _ in range(3):
            u = rng.normal(0, 0.1, 2 * mesh.n_nodes)
            eps = strains_at_gauss(u, mesh)
            ref = ((eps @ model.C) * eps).sum(-1)
            assert np.array_equal(elastic_density_at_gauss(u, mesh, model),
                                  ref)


class TestInternalConsistency:
    def test_energy_equals_quadratic_forms(self):
        """The damage-quadratic and stiffness forms must reproduce the
        energy exactly; the staggered solvers rely on this."""
        from amfrac.assembly import z_quadratic
        mesh = small_mesh()
        rng = np.random.default_rng(37)
        for preset in ("AT", "ANALYSIS"):
            model = af.MaterialModel(young_E=6.0, poisson_nu=0.2, eta=0.01,
                                     preset=preset, g_c=0.9, theta=0.12,
                                     kappa_E=0.5)
            u = rng.normal(0, 0.2, 2 * mesh.n_nodes)
            z = rng.uniform(0, 1, mesh.n_nodes)
            E = af.total_energy(0.0, u, z, mesh, model, no_load())
            Q, b, c0 = z_quadratic(u, mesh, model)
            E_q = 0.5 * z @ (Q @ z) - b @ z + c0
            assert E_q == pytest.approx(E, rel=1e-12, abs=1e-12)
            K = af.assemble_K(z, mesh, model)
            frac_only = af.total_energy(0.0, np.zeros_like(u), z, mesh, model,
                                        no_load())
            assert 0.5 * u @ (K @ u) + frac_only == pytest.approx(
                E, rel=1e-12, abs=1e-12)

    def test_mass_matrix_matches_oracle(self):
        mesh = small_mesh()
        M = mass_matrix(mesh).toarray()
        assert np.allclose(M, ref_mass_matrix(mesh, 2), rtol=1e-12, atol=1e-15)

    def test_elastic_density_nonnegative(self):
        mesh = small_mesh()
        model = af.MaterialModel(young_E=3.0, poisson_nu=0.4)
        rng = np.random.default_rng(41)
        u = rng.normal(0, 1, 2 * mesh.n_nodes)
        assert elastic_density_at_gauss(u, mesh, model).min() >= 0.0


def coo_operator(rows, cols, vals, n):
    """Reference assembly: element entries summed by a COO -> CSR build."""
    import scipy.sparse as sp
    return sp.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def assert_same_operator(A, ref, rtol=1e-13):
    scale = abs(ref).max()
    assert A.shape == ref.shape
    assert abs(A - ref).max() <= rtol * scale


def perturbed_mesh():
    """A 9 x 9 node grid on the unit square with its interior nodes moved
    by up to a quarter of a cell: general convex quadrilaterals, whose
    Jacobians have off-diagonal terms at every Gauss point."""
    mesh = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
    nodes = mesh.nodes.copy()
    inner = np.all((nodes > 0.0) & (nodes < 1.0), axis=1)
    nodes[inner] += np.random.default_rng(7).uniform(
        -0.03, 0.03, (int(inner.sum()), 2))
    return af.Mesh(nodes, mesh.elements, mesh.boundary_sets)


PATTERN_MESHES = {
    "ct": lambda: af.build_ct_mesh(1.0, 0.25, 0.125),
    "lshape": lambda: af.build_lshape_mesh(250.0, 50.0, 25.0),
    "perturbed": perturbed_mesh,
}


@pytest.mark.parametrize("name", sorted(PATTERN_MESHES))
def test_quadrature_matches_the_element_oracle(name):
    """``wdet``, ``dNdx`` and ``B`` of every element equal the loop
    oracle's, to round-off relative to the element's largest entry."""
    mesh = PATTERN_MESHES[name]()
    data = element_data(mesh)
    for e, conn in enumerate(mesh.elements):
        w, dNdx = element_oracle(mesh.nodes[conn])
        B = np.zeros((4, 3, 8))
        B[:, 0, 0::2] = B[:, 2, 1::2] = dNdx[..., 0]
        B[:, 1, 1::2] = B[:, 2, 0::2] = dNdx[..., 1]
        for got, ref in ((data.wdet[e], w), (data.dNdx[e], dNdx),
                         (data.B[e], B)):
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_perturbed_mesh_has_skewed_jacobians():
    """Both off-diagonal Jacobian entries are non-zero at every Gauss point
    of every element of ``perturbed_mesh``."""
    mesh = perturbed_mesh()
    for xi, eta in gauss_rule(2)[0]:
        J = mesh.element_coords().transpose(0, 2, 1) @ ref_shape_grad(xi, eta)
        assert np.all(J[:, 0, 1] != 0.0) and np.all(J[:, 1, 0] != 0.0)


@pytest.mark.parametrize("name", sorted(PATTERN_MESHES))
class TestPatternAssembly:
    """Operators filled into the cached patterns equal a COO assembly of
    the same element matrices."""

    def test_stiffness(self, name):
        mesh = PATTERN_MESHES[name]()
        model = af.MaterialModel(young_E=7.0, poisson_nu=0.3, eta=1e-3)
        data = element_data(mesh)
        z = np.random.default_rng(1).uniform(0.0, 1.0, mesh.n_nodes)
        zq = np.einsum("qa,ea->eq", data.N, z[mesh.elements])
        vals = np.einsum("eq,eqab->eab", data.wdet * (zq ** 2 + model.eta),
                         ref_btcb(data.B, model.C))
        rows = np.repeat(data.udofs, 8, axis=1)
        cols = np.tile(data.udofs, (1, 8))
        ref = coo_operator(rows, cols, vals, 2 * mesh.n_nodes)
        assert_same_operator(af.assemble_K(z, mesh, model), ref)

    @pytest.mark.parametrize("preset", ["AT", "ANALYSIS"])
    def test_mass_laplacian_and_damage_hessian(self, name, preset):
        mesh = PATTERN_MESHES[name]()
        model = af.MaterialModel(young_E=7.0, poisson_nu=0.3, eta=1e-3,
                                 preset=preset, g_c=0.7, theta=0.2,
                                 kappa_E=0.9)
        data = element_data(mesh)
        n, conn = mesh.n_nodes, mesh.elements
        rows, cols = np.repeat(conn, 4, axis=1), np.tile(conn, (1, 4))
        M = coo_operator(rows, cols,
                         np.einsum("eq,qab->eab", data.wdet, data.NN), n)
        L = coo_operator(rows, cols, np.einsum(
            "eq,eqai,eqbi->eab", data.wdet, data.dNdx, data.dNdx), n)
        assert_same_operator(mass_matrix(mesh), M)
        assert_same_operator(data.laplacian, L)
        u = 0.01 * np.random.default_rng(3).normal(size=2 * n)
        psi = elastic_density_at_gauss(u, mesh, model)
        H = coo_operator(rows, cols,
                         np.einsum("eq,qab->eab", data.wdet * psi, data.NN), n)
        if preset == "AT":
            ref = H + (0.7 / 0.4) * M + (2 * 0.7 * 0.2) * L
        else:
            ref = H + 0.9 * (M + L)
        Q, _, _ = z_quadratic(u, mesh, model)
        assert_same_operator(Q, ref)

    @pytest.mark.parametrize("kind", ["lalpha", "h1"])
    def test_ball_curvature(self, name, kind):
        """``VNorm.parts`` and ``curvature`` against a COO assembly of the
        gradient and Hessian of ``S/a`` (a = 3 for L^3, 2 for H1)."""
        import scipy.sparse as sp
        from amfrac.assembly import VNorm

        mesh = PATTERN_MESHES[name]()
        data = element_data(mesh)
        v = -np.random.default_rng(2).uniform(0.0, 0.1, mesh.n_nodes)
        ball = VNorm(mesh, af.NormSpec(kind, 3.0))
        N, g = ball.parts(v)
        if kind == "lalpha":
            P, w = ref_gauss_interpolation(mesh)
            vq = P @ v
            S = np.sum(w * np.abs(vq) ** 3.0)
            g_ref = P.T @ (w * np.sign(vq) * vq ** 2)
            ref = P.T @ sp.diags(2.0 * w * np.abs(vq)) @ P
            assert N == pytest.approx(S ** (1 / 3), rel=1e-14)
        else:
            conn = mesh.elements
            ref = coo_operator(
                np.repeat(conn, 4, axis=1), np.tile(conn, (1, 4)),
                np.einsum("eq,qab->eab", data.wdet, data.NN)
                + np.einsum("eq,eqai,eqbi->eab", data.wdet, data.dNdx,
                            data.dNdx), mesh.n_nodes)
            g_ref = ref @ v
            assert N == pytest.approx(np.sqrt(v @ g_ref), rel=1e-14)
        assert np.abs(g - g_ref).max() <= 1e-13 * np.abs(g_ref).max()
        assert_same_operator(data.node_pattern.matrix(ball.curvature(v)),
                             ref.tocsr())
