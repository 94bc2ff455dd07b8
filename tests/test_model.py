"""Material data, the two energy presets and the dissipation potential."""

import dataclasses
import math

import numpy as np
import pytest

import amfrac as af
from amfrac.model import ModelConfigError, coercivity_gamma

from oracles import element_quadrature


class TestVoigtElasticity:
    def test_nu_zero_decouples(self):
        C = af.voigt_elasticity(1.0, 0.0)
        assert np.allclose(C, np.diag([1.0, 1.0, 0.5]))

    def test_lame_formulas(self):
        E, nu = 100.0, 0.3
        lam = E * nu / ((1 + nu) * (1 - 2 * nu))
        mu = E / (2 * (1 + nu))
        C = af.voigt_elasticity(E, nu)
        expected = np.array([[lam + 2 * mu, lam, 0],
                             [lam, lam + 2 * mu, 0],
                             [0, 0, mu]])
        assert np.allclose(C, expected, rtol=1e-14)

    def test_lshape_material_spd(self):
        C = af.voigt_elasticity(25840.0, 0.18)
        assert np.all(np.linalg.eigvalsh(C) > 0)
        assert coercivity_gamma(C) > 0

    def test_incompressible_rejected(self):
        with pytest.raises(ModelConfigError):
            af.voigt_elasticity(1.0, 0.5)

    def test_coercivity_gamma_isotropic(self):
        # for lambda >= 0 the sharp constant is 2*mu
        E, nu = 10.0, 0.2
        mu = E / (2 * (1 + nu))
        assert coercivity_gamma(af.voigt_elasticity(E, nu)) == pytest.approx(2 * mu)


class TestDegradation:
    @pytest.mark.parametrize("z,eta,expected", [
        (0.0, 1e-4, 1e-4),
        (1.0, 1e-4, 1.0001),
        (0.5, 1e-2, 0.26),
    ])
    def test_values(self, z, eta, expected):
        assert af.degradation(z, eta) == pytest.approx(expected)


class TestFractureDensity:
    def test_at_undamaged(self):
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, preset="AT",
                                 g_c=1.0, theta=0.025)
        assert af.fracture_density(1.0, 0.0, model) == 0.0

    def test_at_fully_damaged(self):
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, preset="AT",
                                 g_c=1.0, theta=0.025)
        assert af.fracture_density(0.0, 0.0, model) == pytest.approx(10.0)

    def test_analysis_preset(self):
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_E=2.0)
        assert af.fracture_density(1.0, 0.0, model) == pytest.approx(1.0)


class TestDissipation:
    @pytest.fixture
    def unit_weights(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        return mesh, af.norm_quadrature_weights(mesh)

    def test_zero_increment(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_R=1.0)
        assert af.dissipation_R(np.zeros(mesh.n_nodes), model, w) == 0.0

    def test_uniform_decrement(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_R=1.0)
        dz = -0.1 * np.ones(mesh.n_nodes)
        assert af.dissipation_R(dz, model, w) == pytest.approx(0.1)

    def test_positive_entry_is_infeasible(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_R=1.0)
        dz = np.zeros(mesh.n_nodes)
        dz[3] = 1e-3
        assert af.dissipation_R(dz, model, w) == math.inf

    def test_at_preset_costs_nothing(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0, preset="AT",
                                 kappa_R=7.0)
        dz = -0.2 * np.ones(mesh.n_nodes)
        assert af.dissipation_R(dz, model, w) == 0.0

    def test_positive_one_homogeneity(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_R=0.7)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = -rng.uniform(0, 1, mesh.n_nodes)
            lam = rng.uniform(0.1, 10)
            r1 = af.dissipation_R(lam * v, model, w)
            r2 = lam * af.dissipation_R(v, model, w)
            assert r1 == pytest.approx(r2, rel=1e-12)

    def test_lower_bound_by_l1(self, unit_weights):
        mesh, w = unit_weights
        model = af.MaterialModel(young_E=1.0, poisson_nu=0.0,
                                 preset="ANALYSIS", kappa_R=0.7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = -rng.uniform(0, 1, mesh.n_nodes)
            l1 = float(np.dot(w, np.abs(v)))
            assert model.kappa_R * l1 <= af.dissipation_R(v, model, w) + 1e-14


class TestValidation:
    def test_bad_preset(self):
        with pytest.raises(ModelConfigError):
            af.MaterialModel(young_E=1.0, poisson_nu=0.0, preset="bogus")

    def test_bad_eta(self):
        with pytest.raises(ModelConfigError):
            af.MaterialModel(young_E=1.0, poisson_nu=0.0, eta=0.0)

    def test_bad_load_mode(self):
        with pytest.raises(ModelConfigError, match="unknown load mode"):
            af.LoadProgram(mode="PRESSURE_RAMP", T=1.0)

    def test_displacement_control_needs_an_axis_aligned_direction(self):
        # checked when the load is built, not in a run's displacement solve
        with pytest.raises(ModelConfigError, match="axis-aligned"):
            af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(1, 1))
        # a traction may pull in any direction
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 1))
        mask, values = load.dirichlet_dofs(
            af.build_ct_mesh(1.0, 0.5, 0.5, notch=False))
        assert not values(1.0).any()

    def test_load_direction_normalized(self):
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 2))
        assert load.direction == (0.0, 1.0)
        assert all(type(c) is float for c in load.direction)

    @pytest.mark.parametrize("mode", ["DIRICHLET_RAMP", "TRACTION_RAMP"])
    @pytest.mark.parametrize("direction", [
        (0.0, 0.0, 1.0), (0.6, 0.0, 0.8), (1.0,)])
    def test_load_direction_must_be_a_pair(self, direction, mode):
        """A direction of any other length is a config error, not a
        load on the wrong dofs or a later ``IndexError``."""
        with pytest.raises(ModelConfigError, match="direction"):
            af.LoadProgram(mode=mode, T=1.0, direction=direction)

    def test_scheme_validation(self):
        with pytest.raises(ModelConfigError):
            af.SchemeParams(rho=0.0, T=1.0)
        with pytest.raises(ModelConfigError):
            af.SchemeParams(rho=0.1, T=1.0, tol_am=0.0)
        with pytest.raises(ModelConfigError):
            af.NormSpec(kind="lalpha", alpha=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "rho", "T", "tol_am", "tol_newton", "tol_constraint"])
    def test_scheme_rejects_non_finite_values(self, field, bad):
        values = dict(rho=0.1, T=1.0)
        values[field] = bad
        with pytest.raises(ModelConfigError, match=field):
            af.SchemeParams(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "young_E", "poisson_nu", "eta", "g_c", "theta", "kappa_E", "kappa_R"])
    def test_material_rejects_non_finite_values(self, field, bad):
        values = dict(young_E=1.0, poisson_nu=0.0)
        values[field] = bad
        with pytest.raises(ModelConfigError, match=field):
            af.MaterialModel(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "T", "ubar_rate", "traction_rate", "direction"])
    def test_load_rejects_non_finite_values(self, field, bad):
        values = dict(mode="TRACTION_RAMP", T=1.0)
        values[field] = (1.0, bad) if field == "direction" else bad
        with pytest.raises(ModelConfigError, match=field):
            af.LoadProgram(**values)

    @pytest.mark.parametrize("field, bad, least", [
        ("snapshot_stride", 0, 1), ("snapshot_stride", -3, 1),
        ("snapshot_stride", 2.5, 1), ("max_am_iters", 2.5, 1)])
    def test_scheme_rejects_out_of_range_counts(self, field, bad, least):
        with pytest.raises(ModelConfigError, match=field):
            af.SchemeParams(rho=0.1, T=1.0, **{field: bad})
        assert getattr(af.SchemeParams(rho=0.1, T=1.0, **{field: least}),
                       field) == least


class TestForceRateVector:
    def test_matches_edge_loop_exactly(self, analysis_traction_setup):
        """The vectorized edge lumping adds in the same order as a loop
        over the chain's edges, so the vectors agree bit for bit."""
        mesh, _, load, _ = analysis_traction_setup
        loaded = mesh.boundary_sets["loaded"]
        pts = mesh.nodes[loaded]
        along = int(np.argmax(pts.max(axis=0) - pts.min(axis=0)))
        chain = loaded[np.argsort(pts[:, along], kind="stable")]
        d = np.asarray(load.direction)
        expected = np.zeros(2 * mesh.n_nodes)
        for a, b in zip(chain[:-1], chain[1:]):
            seg = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a])
            for node in (a, b):
                expected[2 * node] += 0.5 * seg * load.traction_rate * d[0]
                expected[2 * node + 1] += 0.5 * seg * load.traction_rate * d[1]
        assert np.any(expected)
        assert np.array_equal(load.force_rate_vector(mesh), expected)

    def test_cached_vector_follows_the_load_and_mesh(self):
        """f1 is built once per load and mesh.  The load cannot be changed;
        a variant built by ``dataclasses.replace`` on the same mesh gets
        the vector of a load built afresh, never the cached one."""
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=2.0)
        f1 = load.force_rate_vector(mesh)
        assert load.force_rate_vector(mesh) is f1 and not f1.flags.writeable
        assert np.array_equal(load.force_vector(mesh, 0.3), 0.3 * f1)

        other = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
        assert np.array_equal(load.force_rate_vector(other),
                              dataclasses.replace(load).force_rate_vector(other))
        kept = load.force_rate_vector(mesh)  # rebuilt for the first mesh
        assert np.array_equal(kept, f1)
        changes = dict(traction_rate=3.0, direction=(0.0, 1.0),
                       mode="DIRICHLET_RAMP")
        for name, value in changes.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(load, name, value)
            variant = dataclasses.replace(load, **{name: value})
            expected = af.LoadProgram(**{
                **dict(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                       traction_rate=2.0), name: value})
            assert np.array_equal(variant.force_rate_vector(mesh),
                                  expected.force_rate_vector(mesh))
            assert not np.array_equal(variant.force_rate_vector(mesh), f1)
        assert load.traction_rate == 2.0 and load.direction == (1.0, 0.0)
        assert load.force_rate_vector(mesh) is kept


class TestDirichletDofs:
    def test_cached_mask_follows_the_load_and_mesh(self):
        """The mask is built once per load and mesh, read-only, and
        ``values(t)`` is a fresh array at each call.  The load cannot be
        changed; a variant built by ``dataclasses.replace`` on the same
        mesh gets the mask and values of a load built afresh."""
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, direction=(0, 1),
                              ubar_rate=2.0)
        mask, values = load.dirichlet_dofs(mesh)
        assert load.dirichlet_dofs(mesh)[0] is mask and not mask.flags.writeable
        u = values(0.5)
        assert u is not values(0.5) and u.flags.writeable
        clamped = mesh.boundary_sets["clamped"]
        loaded = mesh.boundary_sets["loaded"]
        expected = np.zeros(2 * mesh.n_nodes, dtype=bool)
        expected[np.concatenate([2 * clamped, 2 * clamped + 1,
                                 2 * loaded + 1])] = True
        assert np.array_equal(mask, expected)
        assert np.array_equal(np.flatnonzero(u), 2 * loaded + 1)
        assert (u[2 * loaded + 1] == 1.0).all()

        def assert_fresh(load, mesh, **built):
            """``load``'s mask and values on ``mesh`` equal those of a load
            built afresh from its own fields and ``built``."""
            mask, values = load.dirichlet_dofs(mesh)
            ref = af.LoadProgram(**{**dict(
                mode=load.mode, T=load.T, direction=load.direction,
                ubar_rate=load.ubar_rate), **built})
            ref_mask, ref_values = ref.dirichlet_dofs(mesh)
            assert np.array_equal(mask, ref_mask)
            assert np.array_equal(values(0.5), ref_values(0.5))

        other = af.build_ct_mesh(1.0, 0.125, 0.125, notch=False)
        assert_fresh(load, other)
        assert load.dirichlet_dofs(other)[0].size == 2 * other.n_nodes
        assert_fresh(load, mesh)  # cached for the first mesh again

        def variant(**changes):
            (name, value), = changes.items()
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(load, name, value)
            new = dataclasses.replace(load, **changes)
            assert_fresh(new, mesh, **changes)
            return new.dirichlet_dofs(mesh)

        mask, values = variant(direction=(-1.0, 0.0))
        assert np.array_equal(np.flatnonzero(values(0.5)), 2 * loaded)
        assert (values(0.5)[2 * loaded] == -1.0).all()
        assert (variant(ubar_rate=3.0)[1](0.5)[2 * loaded + 1] == 1.5).all()
        mask, values = variant(mode="TRACTION_RAMP")
        assert np.count_nonzero(mask) == 2 * clamped.size
        assert not values(0.5).any()
        assert load.dirichlet_dofs(mesh)[0] is load.dirichlet_dofs(mesh)[0]
        assert np.array_equal(load.dirichlet_dofs(mesh)[0], expected)


def _built(cls):
    if cls is af.MaterialModel:
        return af.MaterialModel(young_E=1.0, poisson_nu=0.3)
    return af.LoadProgram(mode="TRACTION_RAMP", T=1.0, traction_rate=1.0)


class TestImmutable:
    """A built material or load cannot change, so the caches that key on
    the object itself never see a stale field."""

    @pytest.mark.parametrize("cls, name", [
        (cls, f.name) for cls in (af.MaterialModel, af.LoadProgram)
        for f in dataclasses.fields(cls)])
    def test_no_field_can_be_assigned(self, cls, name):
        obj = _built(cls)
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, before)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) is before

    def test_elasticity_matrix_is_read_only(self):
        model = _built(af.MaterialModel)
        C = model.C.copy()
        with pytest.raises(ValueError, match="read-only"):
            model.C[0, 0] = 0.0
        assert np.array_equal(model.C, C)

    def test_displacement_direction_cannot_bypass_its_check(self):
        """An oblique direction on a displacement ramp fails its axis check
        when built, and cannot be set on a built load either."""
        load = af.LoadProgram(mode="DIRICHLET_RAMP", T=1.0, ubar_rate=1.0)
        with pytest.raises(ModelConfigError, match="axis-aligned"):
            dataclasses.replace(load, direction=(0.6, 0.8))
        with pytest.raises(dataclasses.FrozenInstanceError):
            load.direction = (0.6, 0.8)
        assert load.direction == (0.0, 1.0)

    def test_variant_is_validated_and_cached_apart(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = _built(af.MaterialModel)
        with pytest.raises(ModelConfigError, match="eta"):
            dataclasses.replace(model, eta=-1.0)
        variant = dataclasses.replace(model, young_E=2.0)
        assert np.array_equal(variant.C, 2.0 * model.C)
        assert not variant.C.flags.writeable
        z = np.ones(mesh.n_nodes)
        K = af.assemble_K(z, mesh, model)
        assert np.allclose(af.assemble_K(z, mesh, variant).toarray(),
                           2.0 * K.toarray(), rtol=1e-14, atol=0.0)


class TestCoercivity:
    def test_energy_bounded_below_by_quadratic(self):
        """Certified lower bound: energy >= c1 |u|_H1^2 + c2 |z|_Z^2 - c0
        with constants computed from (gamma, eta, kappa, load)."""
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        model = af.MaterialModel(young_E=10.0, poisson_nu=0.3, eta=0.05,
                                 preset="ANALYSIS", kappa_E=0.8, kappa_R=0.5)
        load = af.LoadProgram(mode="TRACTION_RAMP", T=1.0, direction=(1, 0),
                              traction_rate=2.0)
        gamma = coercivity_gamma(model.C)

        n = mesh.n_nodes
        # scalar H1 and strain-square Gram matrices, independent assembly
        H1 = np.zeros((n, n))
        KI = np.zeros((2 * n, 2 * n))
        for conn in mesh.elements:
            coords = mesh.nodes[conn]
            dofs = np.empty(8, dtype=int)
            dofs[0::2] = 2 * conn
            dofs[1::2] = 2 * conn + 1
            for w, N, dNdx in element_quadrature(coords, 2):
                H1[np.ix_(conn, conn)] += w * (np.outer(N, N) + dNdx @ dNdx.T)
                B = np.zeros((3, 8))
                B[0, 0::2] = dNdx[:, 0]
                B[1, 1::2] = dNdx[:, 1]
                B[2, 0::2] = dNdx[:, 1]
                B[2, 1::2] = dNdx[:, 0]
                # |eps|^2 with engineering shear carries the 1/2 on gamma_xy
                KI[np.ix_(dofs, dofs)] += w * (B.T @ np.diag([1, 1, 0.5]) @ B)
        H1v = np.zeros((2 * n, 2 * n))
        H1v[0::2, 0::2] = H1
        H1v[1::2, 1::2] = H1

        mask, _ = load.dirichlet_dofs(mesh)
        free = ~mask
        KIf = KI[np.ix_(free, free)]
        H1f = H1v[np.ix_(free, free)]
        from scipy.linalg import eigh
        c_korn = eigh(KIf, H1f, eigvals_only=True)[0]
        assert c_korn > 0

        t = 1.0
        f = load.force_vector(mesh, t)[free]
        L = math.sqrt(f @ np.linalg.solve(H1f, f))  # discrete dual norm
        c1 = 0.25 * model.eta * gamma * c_korn
        c2 = 0.5 * model.kappa_E
        c0 = L ** 2 / (model.eta * gamma * c_korn)

        rng = np.random.default_rng(123)
        for _ in range(25):
            u = np.zeros(2 * n)
            u[free] = rng.normal(0, 3.0, free.sum())
            z = rng.normal(0, 2.0, n)
            E = af.total_energy(t, u, z, mesh, model, load)
            u_h1 = float(u @ (H1v @ u))
            z_z = float(z @ (H1 @ z))
            assert E >= c1 * u_h1 + c2 * z_z - c0 - 1e-9 * (1 + abs(E))
