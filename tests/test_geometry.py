import numpy as np
import pytest
from scipy.special import ellipe

from qcreg import (
    CircleSpec,
    MapModel,
    OrientationError,
    QuadratureConfig,
    affine_map,
    geometry_profile,
    image_area_green,
    image_area_jacobian,
    isoperimetric_defect,
    power_spiral,
    quasicircle_length_direct,
    quasicircle_length_formula,
    radial_stretch,
    spiral_map,
)
from qcreg.geometry import _annulus_edges, _segments_toward_zero

IDENTITY = radial_stretch(1.0)
UNIT = CircleSpec(0j, 1.0)

# 2:1 ellipse oracle for affine(1, 1/3): the image of a circle of radius t
# has semi-axes (4/3) t and (2/3) t, so perimeter = 4 (4/3) E(m) t with
# m = e^2 = 1 - (1/2)^2 = 3/4, and area = (8 pi / 9) t^2.
ELLIPSE_PERIMETER = 4 * (4 / 3) * ellipe(0.75)
ELLIPSE_AREA = 8 * np.pi / 9
ELLIPSE_DEFECT = ELLIPSE_PERIMETER**2 / (4 * np.pi * ELLIPSE_AREA) - 1


class TestLengthDirect:
    def test_identity_unit_circle(self, cfg):
        (got,) = quasicircle_length_direct(IDENTITY.map, [UNIT], cfg)
        assert got == pytest.approx(2 * np.pi, rel=1e-13)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_radial_stretch_maps_to_circle_of_radius_sqrt_t(self, t, cfg):
        (got,) = quasicircle_length_direct(radial_stretch(2.0).map, [CircleSpec(0j, t)], cfg)
        assert got == pytest.approx(2 * np.pi * np.sqrt(t), rel=1e-13)

    def test_affine_matches_ellipse_perimeter(self, cfg):
        (got,) = quasicircle_length_direct(affine_map(1.0, 1 / 3).map, [UNIT], cfg)
        assert got == pytest.approx(ELLIPSE_PERIMETER, rel=1e-12)
        assert got == pytest.approx(6.4590, abs=5e-5)


class TestLengthFormula:
    def test_identity(self, cfg):
        (got,) = quasicircle_length_formula(IDENTITY.map, [UNIT], cfg)
        assert got == pytest.approx(2 * np.pi, rel=1e-13)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_radial_stretch(self, t, cfg):
        (got,) = quasicircle_length_formula(radial_stretch(2.0).map, [CircleSpec(0j, t)], cfg)
        assert got == pytest.approx(2 * np.pi * np.sqrt(t), rel=1e-13)

    def test_cross_oracle_spiral(self, cfg):
        entry = spiral_map(1.0)
        (direct,) = quasicircle_length_direct(entry.map, [UNIT], cfg)
        (formula,) = quasicircle_length_formula(entry.map, [UNIT], cfg)
        assert formula == pytest.approx(direct, rel=1e-12)

    def test_negative_jacobian_rejected(self, cfg):
        entry = affine_map(1.0, 1 / 3)
        flipped = MapModel(
            value=entry.map.value,
            partials=entry.map.partials,
            jacobian=lambda z: -np.ones(np.asarray(z).shape),
            beltrami=entry.map.beltrami,
        )
        with pytest.raises(OrientationError):
            quasicircle_length_formula(flipped, [UNIT], cfg)


class TestAreas:
    def test_identity_unit_disk(self, cfg):
        (jac,) = image_area_jacobian(IDENTITY.map, [UNIT], cfg=cfg)
        assert jac == pytest.approx(np.pi, rel=1e-13)
        (green,) = image_area_green(IDENTITY.map, [UNIT], cfg)
        assert green == pytest.approx(np.pi, rel=1e-13)

    def test_radial_stretch_quarter_disk(self, cfg):
        disk = CircleSpec(0j, 0.25)
        entry = radial_stretch(2.0)
        # image of D_t is the disk of radius t^(1/2): area pi t
        (jac,) = image_area_jacobian(entry.map, [disk], cfg=cfg)
        assert jac == pytest.approx(np.pi / 4, rel=1e-12)
        (green,) = image_area_green(entry.map, [disk], cfg)
        assert green == pytest.approx(np.pi / 4, rel=1e-12)

    def test_affine_unit_disk(self, cfg):
        entry = affine_map(1.0, 1 / 3)
        (jac,) = image_area_jacobian(entry.map, [UNIT], cfg=cfg)
        assert jac == pytest.approx(ELLIPSE_AREA, rel=1e-12)
        (green,) = image_area_green(entry.map, [UNIT], cfg)
        assert green == pytest.approx(ELLIPSE_AREA, rel=1e-12)

    def test_spiral_preserves_disk(self, cfg):
        (green,) = image_area_green(spiral_map(1.0).map, [UNIT], cfg)
        assert green == pytest.approx(np.pi, rel=1e-12)

    def test_offcenter_disk_smooth_map(self, cfg):
        # affine image area is |a|^2 - |b|^2 times pi r^2 for any center
        disk = CircleSpec(0.3 + 0.2j, 0.4)
        (got,) = image_area_jacobian(affine_map(1.0, 1 / 3).map, [disk], cfg=cfg)
        assert got == pytest.approx((8 / 9) * np.pi * 0.4**2, rel=1e-12)

    def test_stacked_disks_leave_once_converged(self):
        # J = exp(30 x): on the small annulus the angular rule converges at
        # 32 nodes, on the ring 0.5 < r < 1 only at 128; each integral has 10
        # Gauss-Legendre rings, so the calls read 20 rings until the small
        # one leaves, then 10
        sizes = []

        def jacobian(z):
            sizes.append(np.size(z))
            return np.exp(30.0 * z.real)

        model = MapModel(value=lambda z: z, partials=lambda z: (z, z), jacobian=jacobian)
        cfg = QuadratureConfig(nodes=16, max_doublings=6)
        disks, inner = [CircleSpec(0j, 0.02), CircleSpec(0j, 1.0)], [0.01, 0.5]
        both = image_area_jacobian(model, disks, cfg=cfg, r_inner=inner)
        assert sizes == [20 * 16, 20 * 32, 10 * 64, 10 * 128]
        for i in range(2):
            alone = image_area_jacobian(model, disks[i:i + 1], cfg=cfg, r_inner=inner[i:i + 1])
            assert alone == both[i]

    def test_strong_singularity_still_accurate(self, cfg):
        # K = 5: Jacobian blows up like r^(-1.6) at the origin
        entry = radial_stretch(5.0)
        (got,) = image_area_jacobian(entry.map, [CircleSpec(0j, 0.5)], cfg=cfg)
        assert got == pytest.approx(np.pi * 0.5 ** (2 / 5), rel=1e-10)


def annulus_edges_reference(t, r_inner):
    """The np.unique construction the annulus edges replaced (it pulled in
    numpy.ma on every cold run)."""
    n_oct = max(1, int(np.ceil(np.log2(t / r_inner))))
    edges = np.unique(
        np.concatenate((_segments_toward_zero(t, n_oct), [r_inner]))
    )[::-1]
    return edges[edges >= r_inner - 1e-300]


def annulus_edge_cases():
    rng = np.random.default_rng(7)
    for t in (1.0, 0.5, 2.0**-10, 3.0, 0.3, 1e-3, 0.0731, 1e5):
        fractions = [2.0, 1.0, 0.5, 0.25, 2.0**-10, 2.0**-60, 0.3, 0.999999, 1e-250 / t]
        for r in [t * f for f in fractions] + list(t * rng.uniform(1e-8, 1.5, 12)):
            yield t, r
        yield t, np.nextafter(t / 4, 0.0)
        yield t, np.nextafter(t / 4, np.inf)


def test_annulus_edges_bit_equal_to_unique_construction():
    for t, r_inner in annulus_edge_cases():
        got = _annulus_edges(t, r_inner)
        want = annulus_edges_reference(t, r_inner)
        assert got.dtype == want.dtype and np.array_equal(got, want), (t, r_inner)


class TestIsoperimetricDefect:
    def test_identity_zero(self, cfg):
        assert abs(isoperimetric_defect(IDENTITY.map, 1.0, cfg)) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_circle_images_have_zero_defect(self, t, cfg):
        assert abs(isoperimetric_defect(radial_stretch(2.0).map, t, cfg)) <= 1e-11

    def test_affine_matches_elliptic_integral_oracle(self, cfg):
        got = isoperimetric_defect(affine_map(1.0, 1 / 3).map, 0.5, cfg)
        assert got == pytest.approx(ELLIPSE_DEFECT, abs=1e-10)
        assert got == pytest.approx(0.1888, abs=5e-5)


class TestGeometryProfile:
    def test_identity_two_radii(self, cfg):
        prof = geometry_profile(IDENTITY.map, [0.5, 1.0], cfg)
        assert prof.phi == pytest.approx([np.pi / 4, np.pi], rel=1e-13)
        assert np.abs(prof.delta).max() <= 1e-12

    def test_radial_stretch_linear_phi(self, cfg):
        radii = np.geomspace(0.01, 1.0, 9)
        prof = geometry_profile(radial_stretch(2.0).map, radii, cfg)
        assert np.allclose(prof.phi, np.pi * radii, rtol=1e-11)
        assert np.abs(prof.delta).max() <= 1e-10

    def test_affine_constant_defect(self, cfg):
        radii = np.geomspace(0.1, 1.0, 7)
        prof = geometry_profile(affine_map(1.0, 1 / 3).map, radii, cfg)
        assert np.allclose(prof.delta, ELLIPSE_DEFECT, atol=1e-9)
        # both oracle pairs agree within the enforced tolerance
        assert np.abs(prof.length_formula / prof.length_direct - 1).max() <= 1e-6
        assert np.abs(prof.area_green / prof.area_jacobian - 1).max() <= 1e-6

    def test_phi_nondecreasing(self, cfg):
        prof = geometry_profile(power_spiral(0.5, 1.0).map, np.geomspace(0.05, 1, 9), cfg)
        assert np.all(np.diff(prof.phi) >= 0)

    def test_rejects_unsorted_radii(self, cfg):
        with pytest.raises(ValueError):
            geometry_profile(IDENTITY.map, [0.5, 0.25], cfg)

    def test_csv_round_trip(self, cfg, tmp_path):
        prof = geometry_profile(IDENTITY.map, [0.5, 1.0], cfg)
        path = tmp_path / "geometry.csv"
        prof.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,len_direct,len_formula,area_jac,area_green,phi,h,delta"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (2, 8)
        assert data[:, 5] == pytest.approx(prof.phi)


class TestScaleInvariance:
    def test_profile_ratios_follow_power_law(self, cfg):
        # phi(t) / (pi t^(2/K)) = 1 for the pure stretch at every radius
        K = 5.0
        radii = np.geomspace(0.01, 1.0, 7)
        prof = geometry_profile(radial_stretch(K).map, radii, cfg)
        assert np.allclose(prof.phi / (np.pi * radii ** (2 / K)), 1.0, atol=1e-9)


class TestRadiusPerturbation:
    def test_bad_radius_is_nudged_one_grid_step(self, cfg):
        # identity map whose partials blow up on a thin ring at r = 0.5:
        # the profile must retry at the log-midpoint toward the next radius
        def partials(z):
            z = np.asarray(z, complex)
            one = np.ones_like(z)
            f_x = one.copy()
            f_x[np.abs(np.abs(z) - 0.5) < 1e-9] = np.inf
            return f_x, 1j * one

        broken_ring = MapModel(
            value=lambda z: np.asarray(z, complex),
            partials=partials,
            jacobian=lambda z: np.ones(np.asarray(z).shape),
        )
        prof = geometry_profile(broken_ring, [0.25, 0.5, 1.0], cfg)
        assert prof.radii[1] == pytest.approx(np.sqrt(0.5))
        assert np.allclose(prof.phi, np.pi * prof.radii**2, rtol=1e-12)

    def test_nudge_toward_a_tiny_neighbor_does_not_underflow(self, cfg):
        # 1e-200 * 1e-150 underflows to 0, the log-midpoint 1e-175 does not;
        # a = 1e150 keeps the image areas pi a^2 t^2 above the underflow too
        entry = affine_map(1e150, 0.0)

        def partials(z):
            f_x, f_y = entry.map.partials(z)
            bad = np.abs(np.abs(z) - 1e-200) < 1e-209
            return np.where(bad, np.inf, f_x), f_y

        broken_ring = MapModel(value=entry.map.value, partials=partials,
                               jacobian=entry.map.jacobian, beltrami=entry.map.beltrami)
        prof = geometry_profile(broken_ring, [1e-200, 1e-150, 1.0], cfg)
        assert prof.radii[0] == pytest.approx(1e-175, rel=1e-15)
        assert np.allclose(prof.phi, np.pi * 1e300 * prof.radii**2, rtol=1e-12)
