import math

import numpy as np
import pytest

from qcreg import (
    BeltramiField,
    CircleSpec,
    GeometryProfile,
    MatrixField,
    NumericalError,
    SingularPointError,
    affine_map,
    defect_weight_integral,
    empirical_holder,
    epsilon_decompose,
    epsilon_distortion_margin,
    epsilon_weight_integral,
    extremality_report,
    geometry_profile,
    power_spiral,
    radial_stretch,
    spiral_map,
    stretch_factor,
    superlevel_lower_density,
    validate_field,
)
from conftest import random_points

ELLIPSE_DEFECT = 0.18882714427582514  # len^2/(4 pi area) - 1 for the 2:1 ellipse


def angular_field(offset, k_max=None):
    """mu(z) = (z / conj z) * offset, radial-stretch-like with constant eps."""
    return BeltramiField(
        mu=lambda z: (z / np.conj(z)) * offset,
        k_max=abs(offset) if k_max is None else k_max,
        singular_points=(0j,),
    )


def synthetic_profile(radii, delta):
    """GeometryProfile with prescribed defect values and consistent columns."""
    radii = np.asarray(radii, float)
    delta = np.asarray(delta, float)
    area = np.pi * radii**2
    length = np.sqrt(4 * np.pi * area * (1 + delta))
    return GeometryProfile(
        t=radii,
        len_direct=length,
        len_formula=length,
        area_jac=area,
        area_green=area,
        h=area / length**2,
        delta=delta,
    )


class TestStretchFactor:
    @pytest.mark.parametrize("k", [0.0, 1 / 3, 0.9, 1 - 1e-12])
    def test_inverts_the_distortion_ratio(self, k):
        K = BeltramiField(mu=lambda z: np.zeros_like(z), k_max=k).distortion_ratio
        assert stretch_factor(K) == pytest.approx(k, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("K", [0.5, -1.0, np.inf, np.nan])
    def test_rejects_a_bad_K(self, K):
        with pytest.raises(ValueError, match="need a finite K >= 1"):
            stretch_factor(K)
        with pytest.raises(ValueError, match="need a finite K >= 1"):
            MatrixField(BeltramiField(mu=lambda z: np.zeros_like(z), k_max=0.0), K)


class TestEpsilonDecompose:
    def test_radial_stretch_is_exactly_radial(self, rng):
        field = radial_stretch(2.0).map.beltrami
        z = random_points(rng, 256)
        eps = epsilon_decompose(field, 2.0, z)
        assert np.abs(eps).max() <= 1e-15

    def test_zero_field_gives_constant_k(self, rng):
        field = BeltramiField(mu=lambda z: np.zeros_like(z), k_max=0.0)
        z = random_points(rng, 64)
        eps = epsilon_decompose(field, 2.0, z)
        assert np.allclose(eps, 1 / 3)

    def test_spiral_real_part(self, rng):
        # Re eps = k + gamma^2 / (4 + gamma^2) for the rotation map
        gamma = 1.5
        entry = spiral_map(gamma)
        K = entry.map.beltrami.distortion_ratio
        z = random_points(rng, 128)
        eps = epsilon_decompose(entry.map.beltrami, K, z)
        expect = stretch_factor(K) + gamma**2 / (4 + gamma**2)
        assert np.allclose(eps.real, expect, atol=1e-12)

    def test_round_trip_reproduces_mu(self, rng):
        for entry in (radial_stretch(2.0), spiral_map(1.0), affine_map(1.0, 1 / 3)):
            field = entry.map.beltrami
            K = field.distortion_ratio
            k = stretch_factor(K)
            z = random_points(rng, 512)
            eps = epsilon_decompose(field, K, z)
            rebuilt = (z / np.conj(z)) * (-k + eps)
            assert np.abs(rebuilt - field(z)).max() <= 1e-12

    def test_real_part_nonnegative_for_valid_fields(self, rng):
        for entry in (radial_stretch(3.0), spiral_map(2.0), power_spiral(0.5, 1.0)):
            field = entry.map.beltrami
            z = random_points(rng, 2048)
            eps = epsilon_decompose(field, field.distortion_ratio, z)
            assert eps.real.min() >= -1e-9

    def test_origin_rejected(self):
        field = radial_stretch(2.0).map.beltrami
        with pytest.raises(SingularPointError):
            epsilon_decompose(field, 2.0, np.array([0j]))


class TestEpsilonWeightIntegral:
    def test_pure_stretch_is_flat_zero(self, cfg):
        field = radial_stretch(2.0).map.beltrami
        prof = epsilon_weight_integral(field, 2.0, np.geomspace(1e-3, 1, 17), cfg)
        assert np.abs(prof.eps_re_avg).max() <= 1e-14
        assert np.abs(prof.W).max() <= 1e-13
        assert np.abs(prof.ratio_W).max() <= 1e-13

    def test_constant_offset_closed_form(self, cfg):
        # Re eps = 0.1 everywhere: W(t) = 0.1 log(1/t), ratio identically 0.1
        field = angular_field(-1 / 3 + 0.1, k_max=1 / 3)
        radii = np.geomspace(1e-3, 1.0, 33)
        prof = epsilon_weight_integral(field, 2.0, radii, cfg)
        assert np.allclose(prof.eps_re_avg, 0.1, atol=1e-13)
        assert np.allclose(prof.W, 0.1 * np.log(1.0 / radii), atol=1e-12)
        interior = radii < 1.0
        assert np.allclose(prof.ratio_W[interior], 0.1, atol=1e-12)
        assert prof.ratio_W[-1] == 0.0  # anchor convention

    def test_piecewise_plateau(self, cfg):
        # offset 0.1 on [1/4, 1], zero below: W plateaus at 0.1 log 4
        def mu(z):
            off = np.where(np.abs(z) >= 0.25, -1 / 3 + 0.1, -1 / 3 + 0j)
            return (z / np.conj(z)) * off

        field = BeltramiField(mu=mu, k_max=1 / 3, singular_points=(0j,))
        radii = np.geomspace(2.0**-6, 1.0, 61)  # hits 1/4 on the grid
        prof = epsilon_weight_integral(field, 2.0, radii, cfg)
        plateau = 0.1 * np.log(4.0)
        cell = np.log(radii[1] / radii[0])
        below = radii <= 0.25 / 2
        assert np.abs(prof.W[below] - plateau).max() <= 0.1 * cell + 1e-12
        # ratio decays toward zero below the jump
        ratios = prof.ratio_W[below]
        assert ratios[0] < ratios[-1]
        assert ratios[0] <= (plateau + 0.1 * cell) / np.log(1 / radii[0]) + 1e-9

    def test_grid_refinement_agreement(self, cfg):
        # radially varying offset: refined grid must reproduce the coarse W
        k = 1 / 3

        def mu(z):
            a = k * (0.5 + 0.3 * np.sin(np.log(np.abs(z))))
            return (z / np.conj(z)) * (-k + a)

        field = BeltramiField(mu=mu, k_max=k, singular_points=(0j,))
        coarse_r = np.geomspace(1e-2, 1.0, 129)
        fine_r = np.geomspace(1e-2, 1.0, 257)
        coarse = epsilon_weight_integral(field, 2.0, coarse_r, cfg)
        fine = epsilon_weight_integral(field, 2.0, fine_r, cfg)
        shared = fine.W[::2]  # coarse grid is every second refined point
        mask = coarse.W > 1e-3
        rel = np.abs(coarse.W - shared)[mask] / coarse.W[mask]
        assert rel.max() <= 1e-4

    def test_catalog_field_refinement_exact(self, cfg):
        # constant-in-r averages integrate exactly on any log grid
        field = spiral_map(1.0).map.beltrami
        K = field.distortion_ratio
        a = epsilon_weight_integral(field, K, np.geomspace(1e-2, 1, 33), cfg)
        b = epsilon_weight_integral(field, K, np.geomspace(1e-2, 1, 65), cfg)
        assert np.abs(a.W - b.W[::2]).max() <= 1e-12

    def test_rejects_bad_radii(self, cfg):
        field = spiral_map(1.0).map.beltrami
        with pytest.raises(ValueError):
            epsilon_weight_integral(field, 2.0, [0.5, 0.25], cfg)


class TestDefectWeightIntegral:
    def test_zero_defect(self):
        prof = synthetic_profile(np.geomspace(0.01, 1, 17), np.zeros(17))
        out = defect_weight_integral(prof)
        assert np.abs(out.I).max() == 0.0
        assert np.abs(out.ratio_I).max() == 0.0

    def test_constant_defect_closed_form(self):
        radii = np.geomspace(0.01, 1, 33)
        d0 = 0.25
        out = defect_weight_integral(synthetic_profile(radii, np.full(33, d0)))
        assert np.allclose(out.I, d0 * np.log(1.0 / radii), atol=1e-12)
        assert np.allclose(out.ratio_I[:-1], d0, atol=1e-12)

    def test_affine_profile_flags_structure(self, cfg):
        radii = np.geomspace(0.05, 1.0, 17)
        geo = geometry_profile(affine_map(1.0, 1 / 3).map, radii, cfg)
        out = defect_weight_integral(geo)
        assert np.allclose(out.ratio_I[:-1], ELLIPSE_DEFECT, atol=1e-9)


class TestSuperlevelDensity:
    def test_constant_above_threshold(self):
        r = np.geomspace(1e-4, 1, 200)
        assert superlevel_lower_density(zip(r, np.full(200, 0.2)), 0.1, r) == pytest.approx(1.0)

    def test_zero_defect(self):
        r = np.geomspace(1e-4, 1, 200)
        assert superlevel_lower_density(zip(r, np.zeros(200)), 0.1, r) == pytest.approx(0.0)

    def test_dyadic_blocks_match_geometric_series(self):
        # delta = 2 delta0 on blocks [2^-(2k+1), 2^-2k]: at gamma = 2^-(2k+1)
        # the covered fraction is an exact geometric series
        delta0 = 0.05
        r = np.geomspace(2.0**-16, 1.0, 16 * 64)
        level = np.floor(-np.log2(r)).astype(int)
        delta = np.where((level % 2 == 0) & (level > 0), 2 * delta0, 0.0)
        gammas = [2.0 ** -(2 * k + 1) for k in range(1, 5)]

        def exact_measure(g):
            total = 0.0
            for j in range(60):
                lo, hi = min(2.0 ** -(2 * j + 1), g), min(2.0 ** -(2 * j), g)
                total += max(hi - lo, 0.0)
            return total

        exact = min(exact_measure(g) / g for g in gammas)
        assert exact == pytest.approx(1 / 3, abs=1e-12)
        got = superlevel_lower_density(zip(r, delta), delta0, gammas)
        assert got == pytest.approx(exact, abs=5e-2)

    def test_requires_positive_threshold_and_grid(self):
        with pytest.raises(ValueError):
            superlevel_lower_density([(0.5, 1.0)], 0.0, [0.5])
        with pytest.raises(ValueError):
            superlevel_lower_density([(0.5, 1.0)], 0.1, [])

    # a nan delta0 used to give 0.0, the zero-density signature of an
    # extremal field, where delta0 = 0.1 gives 1.0
    SAMPLES = [(0.01, 0.5), (0.1, 0.5), (1.0, 0.5)]

    def test_rejects_a_nan_threshold(self):
        assert superlevel_lower_density(self.SAMPLES, 0.1, [0.5, 1.0]) == 1.0
        with pytest.raises(ValueError, match="^delta0 must be a finite real number, got nan"):
            superlevel_lower_density(self.SAMPLES, math.nan, [0.5, 1.0])

    def test_rejects_a_negative_scale(self):
        # used to give -0.0
        with pytest.raises(ValueError, match=r"^gamma_grid\[1\] must be positive, got -1"):
            superlevel_lower_density(self.SAMPLES, 0.1, [0.5, -1.0])

    def test_rejects_a_zero_scale(self):
        # used to divide by zero
        with pytest.raises(ValueError, match=r"^gamma_grid\[0\] must be positive, got 0"):
            superlevel_lower_density(self.SAMPLES, 0.1, [0, 1.0])

    def test_rejects_a_nan_scale(self):
        # used to give inf
        with pytest.raises(ValueError, match=r"^gamma_grid\[0\] must be a finite real number"):
            superlevel_lower_density(self.SAMPLES, 0.1, [math.nan])


class TestEmpiricalHolder:
    def test_identity_area_estimator_within_correction(self, cfg):
        out = empirical_holder(geometry_profile(radial_stretch(1.0).map, [0.01, 0.1, 0.5], cfg))
        for t, from_area in out:
            bound = abs(np.log(np.pi)) / (2 * abs(np.log(t))) + 1e-9
            assert abs(from_area - 1.0) <= bound

    def test_radial_stretch_converges_to_half(self, cfg):
        out = empirical_holder(geometry_profile(radial_stretch(2.0).map, [1e-6, 1e-4, 1e-2], cfg))
        for t, from_area in out:
            bound = abs(np.log(np.pi)) / (2 * abs(np.log(t))) + 1e-9
            assert abs(from_area - 0.5) <= bound

    def test_spiral_tends_to_one(self, cfg):
        (t, from_area), = empirical_holder(geometry_profile(spiral_map(1.0).map, [1e-4], cfg))
        assert abs(from_area - 1.0) <= 1.0 / abs(np.log(t))

    def test_rejects_radii_outside_unit_interval(self, cfg):
        model = radial_stretch(2.0).map
        assert [t for t, _ in empirical_holder(geometry_profile(model, [0.5, 1.5], cfg))] == [0.5]
        with pytest.raises(NumericalError, match="no profile radius below 1"):
            empirical_holder(geometry_profile(model, [1.0, 1.5], cfg))


class TestExtremalityReport:
    def _diagnostics(self, entry, cfg, radii=None):
        field = validate_field(entry.map.beltrami)
        K = field.distortion_ratio
        radii = np.geomspace(1e-3, 1.0, 17) if radii is None else radii
        eps = epsilon_weight_integral(field, K, radii, cfg)
        geo = geometry_profile(entry.map, radii, cfg)
        defect = defect_weight_integral(geo)
        est = empirical_holder(geo)
        return eps, defect, est

    def test_radial_stretch_consistent(self, cfg):
        eps, defect, est = self._diagnostics(radial_stretch(2.0), cfg)
        verdict = extremality_report(eps, defect, est)
        assert verdict.consistent
        assert verdict.min_ratio_W <= 1e-9
        assert verdict.min_ratio_I <= 1e-9

    def test_affine_inconsistent(self, cfg):
        eps, defect, est = self._diagnostics(affine_map(1.0, 1 / 3), cfg)
        verdict = extremality_report(eps, defect, est)
        assert not verdict.consistent
        assert verdict.min_ratio_I == pytest.approx(ELLIPSE_DEFECT, abs=1e-3)

    def test_spiral_inconsistent_for_its_own_K(self, cfg):
        eps, defect, est = self._diagnostics(spiral_map(1.0), cfg)
        verdict = extremality_report(eps, defect, est)
        assert not verdict.consistent
        assert verdict.min_ratio_W > 0.01
        # alpha estimate sits near 1, far above 1/K
        assert verdict.alpha_gap > 0.1

    def test_misaligned_radii_rejected(self, cfg):
        eps, defect, est = self._diagnostics(radial_stretch(2.0), cfg)
        other = defect_weight_integral(
            synthetic_profile(np.geomspace(1e-2, 1, 17), np.zeros(17))
        )
        with pytest.raises(ValueError):
            extremality_report(eps, other, est)

    def test_rejects_a_nan_threshold(self, cfg):
        # no ratio is below nan, so the verdict was always `inconsistent`
        eps, defect, est = self._diagnostics(radial_stretch(2.0), cfg)
        assert extremality_report(eps, defect, est, threshold=0.01).consistent
        with pytest.raises(ValueError, match="^threshold must be a finite real number, got nan"):
            extremality_report(eps, defect, est, threshold=math.nan)


class TestEpsilonDistortionBound:
    def test_equality_case_radial_stretch(self, domain, cfg):
        field = radial_stretch(2.0).map.beltrami
        margin = epsilon_distortion_margin(field, 2.0, domain.admissible_circles(), cfg)
        assert abs(margin) <= 1e-12  # g = K and <Re eps> = 0 exactly

    def test_random_fields_stay_below_bound(self, domain, cfg, rng):
        # eps confined to the disk of radius k about k keeps |mu| <= k
        K = 2.0
        k = stretch_factor(K)
        circles = domain.admissible_circles()
        for _ in range(20):
            a, b, c, d = rng.normal(size=4)

            def mu(z, a=a, b=b, c=c, d=d):
                rho = 0.98 * k * (0.5 + 0.5 * np.sin(a * z.real + b * z.imag + c))
                psi = d + a * z.imag - b * z.real
                eps = k + rho * np.exp(1j * psi)
                return (z / np.conj(z)) * (-k + eps)

            field = BeltramiField(mu=mu, k_max=k, singular_points=(0j,))
            margin = epsilon_distortion_margin(field, K, circles, cfg)
            assert margin <= 1e-9
