import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ellipe

from qcreg import (
    BeltramiField,
    CircleSpec,
    MapModel,
    NumericalError,
    OrientationError,
    QuadratureConfig,
    affine_map,
    emit_report,
    geometry_profile,
    image_area_jacobian,
    lengths_and_area,
    power_spiral,
    radial_stretch,
    run_analysis,
    spiral_map,
)
from qcreg.config import default_config_for
from qcreg.geometry import (
    GAUSS_LEGENDRE_NODES,
    GAUSS_LEGENDRE_WEIGHTS,
    RADIAL_NODES,
    RADIAL_OCTAVES,
    _annulus_segments,
)

from conftest import entry_id

IDENTITY = radial_stretch(1.0)
UNIT = CircleSpec(0j, 1.0)

# 2:1 ellipse oracle for affine(1, 1/3): the image of a circle of radius t
# has semi-axes (4/3) t and (2/3) t, so perimeter = 4 (4/3) E(m) t with
# m = e^2 = 1 - (1/2)^2 = 3/4, and area = (8 pi / 9) t^2.
ELLIPSE_PERIMETER = 4 * (4 / 3) * ellipe(0.75)
ELLIPSE_AREA = 8 * np.pi / 9
ELLIPSE_DEFECT = ELLIPSE_PERIMETER**2 / (4 * np.pi * ELLIPSE_AREA) - 1


def length_direct(model, circle, cfg):
    """The direct-route length row of `lengths_and_area` on one circle."""
    return lengths_and_area(model, [circle], cfg)[0][0]


def length_formula(model, circle, cfg):
    """The distortion-weighted length row of `lengths_and_area` on one circle."""
    return lengths_and_area(model, [circle], cfg)[1][0]


class TestLengthDirect:
    def test_identity_unit_circle(self, cfg):
        got = length_direct(IDENTITY.map, UNIT, cfg)
        assert got == pytest.approx(2 * np.pi, rel=1e-13)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_radial_stretch_maps_to_circle_of_radius_sqrt_t(self, t, cfg):
        got = length_direct(radial_stretch(2.0).map, CircleSpec(0j, t), cfg)
        assert got == pytest.approx(2 * np.pi * np.sqrt(t), rel=1e-13)

    def test_affine_matches_ellipse_perimeter(self, cfg):
        got = length_direct(affine_map(1.0, 1 / 3).map, UNIT, cfg)
        assert got == pytest.approx(ELLIPSE_PERIMETER, rel=1e-12)
        assert got == pytest.approx(6.4590, abs=5e-5)


class TestLengthFormula:
    def test_identity(self, cfg):
        got = length_formula(IDENTITY.map, UNIT, cfg)
        assert got == pytest.approx(2 * np.pi, rel=1e-13)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_radial_stretch(self, t, cfg):
        got = length_formula(radial_stretch(2.0).map, CircleSpec(0j, t), cfg)
        assert got == pytest.approx(2 * np.pi * np.sqrt(t), rel=1e-13)

    def test_cross_oracle_spiral(self, cfg):
        entry = spiral_map(1.0)
        (direct,), (formula,), _ = lengths_and_area(entry.map, [UNIT], cfg)
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
            lengths_and_area(flipped, [UNIT], cfg)


class TestAreas:
    def test_identity_unit_disk(self, cfg):
        (jac,) = image_area_jacobian(IDENTITY.map, [UNIT], cfg=cfg)
        assert jac == pytest.approx(np.pi, rel=1e-13)
        _, _, (green,) = lengths_and_area(IDENTITY.map, [UNIT], cfg)
        assert green == pytest.approx(np.pi, rel=1e-13)

    def test_radial_stretch_quarter_disk(self, cfg):
        disk = CircleSpec(0j, 0.25)
        entry = radial_stretch(2.0)
        # image of D_t is the disk of radius t^(1/2): area pi t
        (jac,) = image_area_jacobian(entry.map, [disk], cfg=cfg)
        assert jac == pytest.approx(np.pi / 4, rel=1e-12)
        _, _, (green,) = lengths_and_area(entry.map, [disk], cfg)
        assert green == pytest.approx(np.pi / 4, rel=1e-12)

    def test_affine_unit_disk(self, cfg):
        entry = affine_map(1.0, 1 / 3)
        (jac,) = image_area_jacobian(entry.map, [UNIT], cfg=cfg)
        assert jac == pytest.approx(ELLIPSE_AREA, rel=1e-12)
        _, _, (green,) = lengths_and_area(entry.map, [UNIT], cfg)
        assert green == pytest.approx(ELLIPSE_AREA, rel=1e-12)

    def test_spiral_preserves_disk(self, cfg):
        _, _, (green,) = lengths_and_area(spiral_map(1.0).map, [UNIT], cfg)
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
        # one leaves, then 10, each ring at the 16, 16, 32, 64 angles that
        # the levels of 16, 32, 64, 128 nodes add
        sizes = []

        def jacobian(z):
            sizes.append(np.size(z))
            return np.exp(30.0 * z.real)

        model = MapModel(value=lambda z: z, partials=lambda z: (z, z), jacobian=jacobian)
        cfg = QuadratureConfig(nodes=16, max_doublings=6)
        disks, inner = [CircleSpec(0j, 0.02), CircleSpec(0j, 1.0)], [0.01, 0.5]
        both = image_area_jacobian(model, disks, cfg=cfg, r_inner=inner)
        assert sizes == [20 * 16, 20 * 16, 10 * 32, 10 * 64]
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
        np.concatenate((t * 2.0 ** -np.arange(n_oct + 1), [r_inner]))
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


def test_flat_annulus_segments_bit_equal_to_each_lone_annulus():
    # all edge cases in one vectorised build: annuli of 1 to 848 octaves
    cases = list(annulus_edge_cases())
    t, r_inner = (np.array(column) for column in zip(*cases))
    owner, outer, inner = _annulus_segments(t, r_inner)
    for i, (ti, ri) in enumerate(cases):
        want = annulus_edges_reference(ti, ri)
        mine = owner == i
        assert np.array_equal(outer[mine], want[:-1]), (ti, ri)
        assert np.array_equal(inner[mine], want[1:]), (ti, ri)


def model_of(jacobian):
    """A map whose only use is its Jacobian."""
    return MapModel(value=lambda z: z, partials=lambda z: (z, z), jacobian=jacobian)


def recording_radii(model):
    """`model` with a Jacobian that records the least |z| of every call."""
    seen = []

    def jacobian(z):
        seen.append(np.abs(z).min())
        return model.jacobian(z)

    return replace(model, jacobian=jacobian), seen


def power_law_area(entry, t):
    """Closed-form area of f(D_t): pi t^(2 alpha) for the power family, whose
    maps have |f(z)| = |z|^alpha, and (|a|^2 - |b|^2) pi t^2 for the affine."""
    p = entry.parameters
    if entry.name == "affine":
        return (abs(p["a"]) ** 2 - abs(p["b"]) ** 2) * np.pi * t * t
    alpha = p["alpha"] if entry.name == "power_spiral" else 1.0 / p.get("K", 1.0)
    return np.pi * t ** (2.0 * alpha)


DESCENT_ENTRIES = [radial_stretch(2.0), radial_stretch(5.0), spiral_map(1.2),
                   power_spiral(0.6, 0.8), power_spiral(1.7, -0.3),
                   affine_map(1.0, 0.3 - 0.2j), affine_map(2.0 + 1.0j, 0.5)]


class TestRadialDescent:
    """A whole disk descends octave by octave until its tail-corrected total
    settles to rel_tol relative, at most RADIAL_OCTAVES octaves."""

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
    @pytest.mark.parametrize("entry", DESCENT_ENTRIES, ids=entry_id)
    def test_catalog_whole_disks_meet_their_closed_forms(self, entry, t, cfg):
        model, radii = recording_radii(entry.map)
        (got,) = image_area_jacobian(model, [CircleSpec(0j, t)], cfg=cfg)
        assert got == pytest.approx(power_law_area(entry, t), rel=1e-14, abs=0)
        # the geometric tail is exact for a power law: three octaves settle it
        assert t / 8 < min(radii) < t / 4

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0])
    def test_two_powers_descend_further_and_meet_their_closed_form(self, t):
        # the tail extrapolates the slower power, so r^1.5 must fade first;
        # the error is about a fifth of the last octave's change, which is why
        # the 1e-12 check takes a rel_tol of 1e-13 (and rel_tol itself holds)
        want = 2.0 * np.pi * (t + t**2.5 / 2.5)
        for rel_tol, bound in ((1e-9, 1e-9), (1e-13, 1e-12)):
            model, radii = recording_radii(model_of(lambda z: 1.0 / np.abs(z) + np.abs(z) ** 0.5))
            cfg = QuadratureConfig(rel_tol=rel_tol)
            (got,) = image_area_jacobian(model, [CircleSpec(0j, t)], cfg=cfg)
            assert got == pytest.approx(want, rel=bound, abs=0)
            assert min(radii) < t / 16  # more than three octaves

    def test_stacked_whole_disks_equal_lone_ones(self, cfg):
        # whole disks leave the descent at different octaves; the annulus and
        # the disks still descending share each octave's calls
        model = model_of(lambda z: 1.0 / np.abs(z) + np.abs(z - 0.1) ** 0.5)
        disks = [CircleSpec(0j, 1e-3), CircleSpec(0j, 0.5), CircleSpec(0.1j, 0.3),
                 CircleSpec(0j, 1.0)]
        inner = [0.0, 0.0, 0.0, 0.5]
        both = image_area_jacobian(model, disks, cfg=cfg, r_inner=inner)
        lone = [image_area_jacobian(model, disks[i:i + 1], cfg=cfg, r_inner=inner[i:i + 1])[0]
                for i in range(len(disks))]
        assert both.tobytes() == np.array(lone).tobytes()

    @pytest.mark.parametrize("power", [-2.5, -2.0])
    def test_non_integrable_jacobian_names_the_disk(self, power, cfg):
        # |z|^-2.5 and |z|^-2 have no area near 0: each octave adds as much
        # as the one before or more, so the descent reaches its cap moving
        model = model_of(lambda z: np.abs(z) ** power)
        disk = CircleSpec(0j, 0.5)
        message = f"area of {re.escape(str(disk))} .* after {RADIAL_OCTAVES} octaves"
        with pytest.raises(NumericalError, match=message) as err:
            image_area_jacobian(model, [disk], cfg=cfg)
        assert err.value.circle == disk

    def test_integrable_singular_jacobian_passes(self, cfg):
        (got,) = image_area_jacobian(model_of(lambda z: 1.0 / np.abs(z)), [CircleSpec(0j, 0.5)],
                                     cfg=cfg)
        assert got == pytest.approx(np.pi, rel=1e-14)

    def test_annulus_whose_radius_ratio_overflows(self, cfg):
        # 1 / 5e-324 overflows: the octave count comes from the two logarithms
        (got,) = image_area_jacobian(affine_map(1.0, 0.3).map, [CircleSpec(0j, 1.0)], cfg=cfg,
                                     r_inner=[5e-324])
        assert got == pytest.approx(0.91 * np.pi, rel=1e-14)

    def test_overflowing_ring_mean_names_the_ring(self, cfg):
        # finite node values whose mean overflows
        model = model_of(lambda z: np.full(z.shape, 1.5e308))
        with pytest.raises(NumericalError, match="non-finite Jacobian on the ring of radius"):
            image_area_jacobian(model, [CircleSpec(0j, 1.0)], cfg=cfg, r_inner=[0.5])

    @pytest.mark.parametrize("disks,inner,named", [
        ((0.5, 1.0), [0.5, 0.6], 0),  # a family whose first annulus is empty
        ((0.5, 1.0), [0.25, 1.5], 1),  # the bad annulus need not be first
        ((0.5,), [0.5], 0),  # a lone disk
        ((0.5,), [0.75], 0),
        ((0.5,), [-0.2], 0),
        ((0.5,), [-0.0 - 1e-300], 0),
        ((0.5,), [np.nan], 0),
        ((0.5,), [np.inf], 0),
    ])
    def test_bad_inner_radius_names_the_disk(self, cfg, disks, inner, named):
        circles = [CircleSpec(0.25j, r) for r in disks]
        with pytest.raises(ValueError) as info:
            image_area_jacobian(radial_stretch(2.0).map, circles, cfg=cfg, r_inner=inner)
        assert str(info.value) == (f"r_inner = {inner[named]} of {circles[named]} must lie in "
                                   f"[0, {circles[named].radius}) and be finite")


def test_gauss_legendre_table_bit_equal_to_leggauss():
    # the literal table spares every cold run the numpy.polynomial import
    x, w = np.polynomial.legendre.leggauss(RADIAL_NODES)
    for got, want in ((GAUSS_LEGENDRE_NODES, x), (GAUSS_LEGENDRE_WEIGHTS, w)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


class TestIsoperimetricDefect:
    def test_identity_zero(self, cfg):
        assert abs(geometry_profile(IDENTITY.map, [1.0], cfg).delta[0]) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_circle_images_have_zero_defect(self, t, cfg):
        assert abs(geometry_profile(radial_stretch(2.0).map, [t], cfg).delta[0]) <= 1e-11

    def test_affine_matches_elliptic_integral_oracle(self, cfg):
        (got,) = geometry_profile(affine_map(1.0, 1 / 3).map, [0.5], cfg).delta
        assert got == pytest.approx(ELLIPSE_DEFECT, abs=1e-10)
        assert got == pytest.approx(0.1888, abs=5e-5)


class TestGeometryProfile:
    def test_identity_two_radii(self, cfg):
        prof = geometry_profile(IDENTITY.map, [0.5, 1.0], cfg)
        assert prof.area_jac == pytest.approx([np.pi / 4, np.pi], rel=1e-13)
        assert np.abs(prof.delta).max() <= 1e-12

    def test_radial_stretch_linear_phi(self, cfg):
        radii = np.geomspace(0.01, 1.0, 9)
        prof = geometry_profile(radial_stretch(2.0).map, radii, cfg)
        assert np.allclose(prof.area_jac, np.pi * radii, rtol=1e-11)
        assert np.abs(prof.delta).max() <= 1e-10

    def test_affine_constant_defect(self, cfg):
        radii = np.geomspace(0.1, 1.0, 7)
        prof = geometry_profile(affine_map(1.0, 1 / 3).map, radii, cfg)
        assert np.allclose(prof.delta, ELLIPSE_DEFECT, atol=1e-9)
        # both oracle pairs agree within the enforced tolerance
        assert np.abs(prof.len_formula / prof.len_direct - 1).max() <= 1e-6
        assert np.abs(prof.area_green / prof.area_jac - 1).max() <= 1e-6

    def test_phi_nondecreasing(self, cfg):
        prof = geometry_profile(power_spiral(0.5, 1.0).map, np.geomspace(0.05, 1, 9), cfg)
        assert np.all(np.diff(prof.area_jac) >= 0)

    def test_rejects_unsorted_radii(self, cfg):
        with pytest.raises(ValueError):
            geometry_profile(IDENTITY.map, [0.5, 0.25], cfg)

    def test_csv_round_trip(self, tmp_path):
        cfg = default_config_for(
            "radial_stretch(K=1)", radii=[0.5, 1.0],
            diagnostics={"geometry": True, "extremal": False},
        )
        report = run_analysis(cfg)
        prof = report.geometry_profile
        path = tmp_path / "geometry.csv"
        assert path in emit_report(report, csv_dir=tmp_path)
        header = path.read_text().splitlines()[0]
        assert header == "t,len_direct,len_formula,area_jac,area_green,h,delta"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (2, 7)
        assert data[:, 3] == pytest.approx(prof.area_jac)


class TestScaleInvariance:
    def test_profile_ratios_follow_power_law(self, cfg):
        # phi(t) / (pi t^(2/K)) = 1 for the pure stretch at every radius
        K = 5.0
        radii = np.geomspace(0.01, 1.0, 7)
        prof = geometry_profile(radial_stretch(K).map, radii, cfg)
        assert np.allclose(prof.area_jac / (np.pi * radii ** (2 / K)), 1.0, atol=1e-9)


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
        assert prof.t[1] == pytest.approx(np.sqrt(0.5))
        assert np.allclose(prof.area_jac, np.pi * prof.t**2, rtol=1e-12)

    def test_formula_checks_do_not_preempt_the_nudge(self, cfg):
        # on the ring where the partials blow up, mu also leaves the unit
        # disk: the boundary data's failure still comes first, so the radius
        # is nudged instead of failing the |mu| < 1 check
        on_ring = lambda z: np.abs(np.abs(z) - 0.5) < 1e-9

        def partials(z):
            one = np.ones_like(z)
            return np.where(on_ring(z), np.inf, one), 1j * one

        broken_ring = MapModel(
            value=lambda z: np.asarray(z, complex),
            partials=partials,
            jacobian=lambda z: np.ones(np.asarray(z).shape),
            beltrami=BeltramiField(lambda z: np.where(on_ring(z), 2.0, 0.0) + 0j, 0.0),
        )
        prof = geometry_profile(broken_ring, [0.25, 0.5, 1.0], cfg)
        assert prof.t[1] == pytest.approx(np.sqrt(0.5))
        assert np.allclose(prof.len_formula, 2 * np.pi * prof.t, rtol=1e-12)

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
        assert prof.t[0] == pytest.approx(1e-175, rel=1e-15)
        assert np.allclose(prof.area_jac, np.pi * 1e300 * prof.t**2, rtol=1e-12)

    def test_overflowing_boundary_average_is_nudged(self, cfg):
        # at t = 1e154 the Green density's node values are finite but their
        # sum overflows; the circle is nudged toward its neighbour
        prof = geometry_profile(affine_map(1.0, 0.5).map, [1e-3, 1e77, 1e154], cfg)
        assert prof.t[-1] == pytest.approx(10**115.5, rel=1e-12)
        assert np.isfinite(prof.delta).all()

    def test_overflowing_defect_is_a_numerical_error(self):
        # on 16 nodes the sums stay finite at t = 3e153, the squared length does not
        cfg = QuadratureConfig(nodes=16, max_doublings=2)
        with pytest.raises(NumericalError, match="isoperimetric defect overflows at t = 3e"):
            geometry_profile(affine_map(1.0, 0.5).map, [1e-3, 3e153], cfg)
