"""Mesh construction, refinement counting, weights and the slit."""

import math

import numpy as np
import pytest

import amfrac as af
from amfrac.assembly import element_data
from amfrac.mesh import MeshConfigError, graded_ticks

from oracles import ref_build_ct_mesh, ref_build_lshape_mesh, ref_mass_matrix


def count_cells_by_enumeration(mesh, inside):
    """Brute-force cell count: enumerate the tensor grid spanned by the
    node coordinates and count the cells whose center passes ``inside``."""
    xs = np.unique(np.round(mesh.nodes[:, 0], 12))
    ys = np.unique(np.round(mesh.nodes[:, 1], 12))
    count = 0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        for y0, y1 in zip(ys[:-1], ys[1:]):
            if inside(0.5 * (x0 + x1), 0.5 * (y0 + y1)):
                count += 1
    return count


def coincident_pairs(mesh):
    """Sorted (lower, higher) index pairs of nodes at equal coordinates:
    the two lips of a slit."""
    order = np.lexsort(mesh.nodes.T)  # stable: equal nodes keep index order
    a, b = order[:-1], order[1:]
    same = np.all(mesh.nodes[a] == mesh.nodes[b], axis=1)
    return sorted(zip(a[same].tolist(), b[same].tolist()))


class TestCTMesh:
    def test_uniform_grid(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25, notch=False)
        assert mesh.n_elements == 16
        assert mesh.n_nodes == 25
        assert coincident_pairs(mesh) == []

    def test_paper_scale_count(self):
        # reference mesh in the source experiment has 3021 elements
        mesh = af.build_ct_mesh(1.0, 0.1, 0.01)
        assert 1500 <= mesh.n_elements <= 6000
        assert mesh.area() == pytest.approx(1.0, rel=1e-9)

    def test_desk_preset_count_matches_enumeration(self):
        mesh = af.build_ct_mesh(1.0, 0.05, 0.0125)
        expected = count_cells_by_enumeration(mesh, lambda x, y: True)
        assert mesh.n_elements == expected

    def test_notch_geometry(self):
        mesh = af.build_ct_mesh(1.0, 0.25, 0.25)
        pairs = coincident_pairs(mesh)
        assert pairs, "slit must duplicate nodes"
        for a, b in pairs:
            assert a != b
            assert np.allclose(mesh.nodes[a], mesh.nodes[b])
            assert mesh.nodes[a][1] == pytest.approx(0.5)
            assert mesh.nodes[a][0] < 0.5
        # tip stays single: exactly one node at (0.5, 0.5)
        at_tip = np.sum(np.all(np.isclose(mesh.nodes, [0.5, 0.5]), axis=1))
        assert at_tip == 1

    def test_boundary_sets(self):
        mesh = af.build_ct_mesh(1.0, 0.1, 0.01)
        clamped = mesh.boundary_sets["clamped"]
        loaded = mesh.boundary_sets["loaded"]
        assert clamped.size > 0 and loaded.size > 0
        assert np.allclose(mesh.nodes[clamped, 0], 0.0)
        assert np.allclose(mesh.nodes[loaded, 0], 1.0)
        # both slit lips at x = 0 are clamped
        mouth = [p for p in coincident_pairs(mesh) if mesh.nodes[p[0]][0] == 0.0]
        assert len(mouth) == 1
        assert set(mouth[0]) <= set(clamped.tolist())

    def test_errors(self):
        with pytest.raises(MeshConfigError):
            af.build_ct_mesh(1.0, 0.01, 0.1)  # fine > coarse
        with pytest.raises(MeshConfigError):
            af.build_ct_mesh(1.0, 0.1, 0.01, refine_band=((0.9, 0.2), (0.4, 0.6)))
        with pytest.raises(MeshConfigError):
            af.build_ct_mesh(1.0, 0.1, 0.01, refine_band=((2.0, 3.0), (0.4, 0.6)))
        with pytest.raises(MeshConfigError, match="positive"):
            af.build_ct_mesh(1.0, 0.1, 0.0)
        # the L-shape builder checks its band as the CT builder does: a band
        # wholly or partly outside the plate is rejected, never clipped
        with pytest.raises(MeshConfigError, match="outside"):
            af.build_lshape_mesh(250.0, 50.0, 25.0,
                                 refine_band=((600.0, 700.0), (0.0, 100.0)))
        with pytest.raises(MeshConfigError, match="outside"):
            af.build_lshape_mesh(250.0, 50.0, 12.5,
                                 refine_band=((-10.0, 600.0), (240.0, 260.0)))


class TestLShapeMesh:
    def test_uniform_l(self):
        mesh = af.build_lshape_mesh(250.0, 125.0, 125.0)
        assert mesh.n_elements == 12
        assert mesh.area() == pytest.approx(187500.0, rel=1e-9)

    def test_paper_scale_count(self):
        # reference mesh in the source experiment has 1694 elements
        mesh = af.build_lshape_mesh(250.0, 50.0, 2.0)
        assert 850 <= mesh.n_elements <= 3400
        assert mesh.area() == pytest.approx(187500.0, rel=1e-9)

    def test_desk_preset_count_matches_enumeration(self):
        mesh = af.build_lshape_mesh(250.0, 25.0, 5.0)
        expected = count_cells_by_enumeration(
            mesh, lambda x, y: not (x > 250.0 and y > 250.0))
        assert mesh.n_elements == expected

    def test_boundary_sets(self):
        mesh = af.build_lshape_mesh(250.0, 50.0, 2.0)
        clamped = mesh.boundary_sets["clamped"]
        loaded = mesh.boundary_sets["loaded"]
        assert clamped.size > 0 and loaded.size > 0
        assert np.allclose(mesh.nodes[clamped, 1], 0.0)
        assert np.allclose(mesh.nodes[loaded, 1], 250.0)
        assert mesh.nodes[loaded, 0].min() >= 450.0 - 1e-9


class TestGradedTicks:
    def test_sizes_within_bounds(self):
        ticks = graded_ticks(1.0, 0.1, 0.0125, (0.4, 0.6))
        sizes = np.diff(ticks)
        assert sizes.min() >= 0.0125 - 1e-12
        assert sizes.max() <= 0.1 + 1e-12
        assert ticks[0] == 0.0 and ticks[-1] == 1.0

    def test_band_is_fine(self):
        ticks = graded_ticks(1.0, 0.1, 0.0125, (0.4, 0.6))
        inside = (ticks >= 0.4 - 1e-12) & (ticks <= 0.6 + 1e-12)
        sizes = np.diff(ticks[inside])
        assert np.allclose(sizes, 0.0125)

    @pytest.mark.parametrize("coarse_h, fine_h", [(0.15, 0.1), (0.125, 0.05)])
    def test_coarse_h_off_the_fine_grid_is_rejected(self, coarse_h, fine_h):
        with pytest.raises(MeshConfigError, match="coarse_h"):
            graded_ticks(1.0, coarse_h, fine_h, (0.4, 0.6))

    @pytest.mark.parametrize("length, coarse_h, fine_h, band, match", [
        (1.0, 0.1, math.nan, (0.4, 0.6), "cell sizes"),
        (1.0, math.inf, 0.1, (0.4, 0.6), "cell sizes"),
        (1.0, math.nan, 0.1, (0.4, 0.6), "cell sizes"),
        (1.0, 0.1, -0.1, (0.4, 0.6), "cell sizes"),
        (math.nan, 0.1, 0.1, (0.4, 0.6), "domain length"),
        (math.inf, 0.1, 0.1, (0.4, 0.6), "domain length"),
        (1e-12, 0.1, 0.1, None, "domain length"),
        (0.0, 0.1, 0.1, None, "domain length"),
        (1.0, 0.1, 0.1, (math.nan, math.nan), "band"),
        (1.0, 0.1, 0.1, (0.4, math.nan), "band"),
        (1.0, 0.1, 0.1, (-0.1, 0.6), "band"),
        (1.0, 0.1, 0.1, (0.4, 1.1), "band"),
        (1.0, 0.1, 0.1, (0.6, 0.4), "band"),
        (1.0, 0.1, 0.1, (0.4, 0.4), "band"),
    ], ids=["fine_h=nan", "coarse_h=inf", "coarse_h=nan", "fine_h<0",
            "length=nan", "length=inf", "length<fine_h", "length=0",
            "band=nan", "band_hi=nan", "band_lo<0", "band_hi>length",
            "band_reversed", "band_empty"])
    def test_invalid_axis_is_rejected(self, length, coarse_h, fine_h, band,
                                      match):
        with pytest.raises(MeshConfigError, match=match):
            graded_ticks(length, coarse_h, fine_h, band)


class TestMeshInvariants:
    @pytest.fixture(params=["ct", "ct_fine", "lshape"])
    def mesh(self, request):
        if request.param == "ct":
            return af.build_ct_mesh(1.0, 0.25, 0.25)
        if request.param == "ct_fine":
            return af.build_ct_mesh(1.0, 0.1, 0.025)
        return af.build_lshape_mesh(250.0, 50.0, 10.0)

    def test_positive_jacobians(self, mesh):
        assert element_data(mesh).wdet.min() > 0

    def test_element_connectivity(self, mesh):
        conn = mesh.elements
        assert conn.min() >= 0 and conn.max() < mesh.n_nodes
        # 4 distinct nodes per element
        for row in conn:
            assert len(set(row.tolist())) == 4

    def test_area_conservation(self, mesh):
        total = mesh.element_areas().sum()
        target = 1.0 if mesh.nodes[:, 0].max() <= 1.0 else 187500.0
        assert total == pytest.approx(target, rel=1e-9)


class TestNormQuadratureWeights:
    def test_uniform_2x2_grid(self):
        mesh = af.build_ct_mesh(1.0, 0.5, 0.5, notch=False)
        w = af.norm_quadrature_weights(mesh)
        center = np.where(np.all(np.isclose(mesh.nodes, [0.5, 0.5]), axis=1))[0][0]
        corner = np.where(np.all(np.isclose(mesh.nodes, [0.0, 0.0]), axis=1))[0][0]
        edge = np.where(np.all(np.isclose(mesh.nodes, [0.5, 0.0]), axis=1))[0][0]
        assert w[corner] == pytest.approx(1 / 16)
        assert w[edge] == pytest.approx(1 / 8)
        assert w[center] == pytest.approx(1 / 4)

    @pytest.mark.parametrize("builder,args,area", [
        (af.build_ct_mesh, (1.0, 0.1, 0.025), 1.0),
        (af.build_lshape_mesh, (250.0, 50.0, 10.0), 187500.0),
    ])
    def test_partition_of_area(self, builder, args, area):
        mesh = builder(*args)
        w = af.norm_quadrature_weights(mesh)
        assert w.min() > 0
        assert w.sum() == pytest.approx(area, rel=1e-10)

    def test_matches_consistent_mass_row_sums(self):
        mesh = af.build_ct_mesh(1.0, 0.1, 0.025)
        w = af.norm_quadrature_weights(mesh)
        rows = ref_mass_matrix(mesh, order=2).sum(axis=1)
        assert np.allclose(w, rows, rtol=1e-12, atol=1e-15)


class TestNotchDecoupling:
    def test_stiffness_has_no_cross_slit_coupling(self):
        mesh = af.build_ct_mesh(1.0, 0.125, 0.125)
        model = af.MaterialModel(young_E=10.0, poisson_nu=0.25)
        K = af.assemble_K(np.ones(mesh.n_nodes), mesh, model).toarray()
        pairs = coincident_pairs(mesh)
        assert pairs
        for a, b in pairs:
            block = K[np.ix_([2 * a, 2 * a + 1], [2 * b, 2 * b + 1])]
            assert np.all(block == 0.0)


# the workload meshes (crack_growth, traction_jumps, precrack_fine; the
# reduced runs and the README demo share 1/8), the ct preset, uniform grids
# and a side of 2, each with and without the slit
CT_CASES = [
    ((1.0, 0.1, 0.05), {}),
    ((1.0, 0.05, 0.05), {}),
    ((1.0, 0.1, 0.0125), {}),
    ((1.0, 0.125, 0.125), {}),
    ((1.0, 0.1, 0.01), {}),
    ((1.0, 0.25, 0.25), {}),
    ((1.0, 1.0 / 3.0, 1.0 / 3.0), {"notch": False}),
    ((1.0, 1.0, 1.0), {"notch": False}),
    ((2.0, 0.2, 0.05), {}),
    ((1.0, 0.1, 0.025), {"refine_band": ((0.2, 0.8), (0.3, 0.7))}),
    ((1.0, 0.1, 0.0125), {"refine_band": ((0.0, 1.0), (0.45, 0.55))}),
    ((2.0, 0.5, 0.125), {"refine_band": ((1.0, 2.0), (0.5, 1.5))}),
]
CT_CASES += [(args, {**kw, "notch": False}) for args, kw in CT_CASES
             if kw.get("notch", True)]

# the lshape preset, uniform grids and explicit bands
LSHAPE_CASES = [
    ((250.0, 50.0, 2.0), {}),
    ((250.0, 50.0, 25.0), {}),
    ((250.0, 50.0, 10.0), {}),
    ((250.0, 25.0, 5.0), {}),
    ((250.0, 125.0, 125.0), {}),
    ((250.0, 50.0, 50.0), {}),
    ((1.0, 0.25, 0.0625), {}),
    ((250.0, 50.0, 10.0), {"refine_band": ((200.0, 300.0), (150.0, 350.0))}),
    ((250.0, 50.0, 12.5), {"refine_band": ((0.0, 500.0), (240.0, 260.0))}),
]


def assert_same_mesh(mesh, ref):
    nodes, elements, sets = ref
    assert sorted(mesh.boundary_sets) == sorted(sets)
    pairs = [(mesh.nodes, nodes), (mesh.elements, elements)]
    pairs += [(mesh.boundary_sets[name], sets[name]) for name in sets]
    for got, want in pairs:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestLoopBuilderReference:
    @pytest.mark.parametrize("args,kw", CT_CASES)
    def test_ct_mesh_equals_loop_builder(self, args, kw):
        mesh = af.build_ct_mesh(*args, **kw)
        assert_same_mesh(mesh, ref_build_ct_mesh(*args, **kw))
        if not kw.get("notch", True):
            assert coincident_pairs(mesh) == []

    @pytest.mark.parametrize("args,kw", LSHAPE_CASES)
    def test_lshape_mesh_equals_loop_builder(self, args, kw):
        assert_same_mesh(af.build_lshape_mesh(*args, **kw),
                         ref_build_lshape_mesh(*args, **kw))
