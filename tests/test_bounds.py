import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ellipe

from qcreg import (
    BeltramiField,
    FieldValidationError,
    RunReport,
    distortion_constant,
    distortion_integrand,
    emit_report,
    gronwall_check,
    holder_lower_bound,
    isoperimetric_constant,
    mori_consistency,
    radial_stretch,
    regularity_report,
    spiral_map,
    affine_map,
    validate_field,
)

# independent ellipse oracle for the affine roundness factor
ELLIPSE_PERIMETER = 4 * (4 / 3) * ellipe(0.75)
AFFINE_ISO_SUP = 4 * np.pi * (8 * np.pi / 9) / ELLIPSE_PERIMETER**2


def constant_field(value):
    return BeltramiField(
        mu=lambda z: np.full(np.asarray(z).shape, complex(value)), k_max=abs(value)
    )


class TestDistortionIntegrand:
    def test_zero_coefficient(self):
        assert distortion_integrand(0j, 1.0 + 0j) == pytest.approx(1.0)

    def test_stretch_direction(self):
        # mu = -k eta^2: symbolic value |1 + k|^2 / (1 - k^2) = (1+k)/(1-k)
        k = 1 / 3
        eta = np.exp(0.7j)
        got = distortion_integrand(-k * eta**2, eta)
        assert got == pytest.approx((1 + k) / (1 - k), abs=1e-14)
        assert got == pytest.approx(2.0)

    def test_conformal_direction(self):
        # mu = +k eta^2: |1 - k|^2 / (1 - k^2) = (1-k)/(1+k)
        k = 1 / 3
        eta = np.exp(-1.2j)
        got = distortion_integrand(k * eta**2, eta)
        assert got == pytest.approx((1 - k) / (1 + k), abs=1e-14)
        assert got == pytest.approx(0.5)

    def test_rejects_degenerate_mu(self):
        with pytest.raises(FieldValidationError):
            distortion_integrand(1.0 + 0j, 1.0 + 0j)

    @given(
        st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
        st.floats(0, 2 * np.pi),
    )
    def test_nonnegative_and_bounded(self, mu, phase):
        eta = np.exp(1j * phase)
        val = float(distortion_integrand(mu, eta))
        k = abs(mu)
        assert 0.0 <= val <= (1 + k) / (1 - k) + 1e-12


class TestDistortionConstant:
    def test_zero_field(self, domain, cfg):
        res = distortion_constant(constant_field(0.0), domain, cfg)
        assert res.value == pytest.approx(1.0)

    def test_constant_third(self, domain, cfg):
        # oracle: (1 + |c|^2) / (1 - |c|^2) = (10/9)/(8/9) = 1.25
        res = distortion_constant(constant_field(1 / 3), domain, cfg)
        assert res.value == pytest.approx(1.25, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_spiral_field_is_conformal_on_average(self, gamma, domain, cfg):
        # the integrand simplifies to exactly 1 on origin-centered circles
        field = spiral_map(gamma).map.beltrami
        res = distortion_constant(field, domain, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("K", [1.5, 2.0, 5.0])
    def test_radial_stretch_attains_K(self, K, domain, cfg):
        res = distortion_constant(radial_stretch(K).map.beltrami, domain, cfg)
        assert res.value == pytest.approx(K, abs=1e-11)


class TestIsoperimetricConstant:
    def test_identity(self, domain, cfg):
        res = isoperimetric_constant(radial_stretch(1.0).map, domain, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_radial_stretch_images_are_disks(self, domain, cfg):
        res = isoperimetric_constant(radial_stretch(2.0).map, domain, cfg)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_affine_matches_ellipse_oracle(self, domain, cfg):
        res = isoperimetric_constant(affine_map(1.0, 1 / 3).map, domain, cfg)
        assert res.value == pytest.approx(AFFINE_ISO_SUP, abs=1e-10)
        assert res.value == pytest.approx(0.8412, abs=5e-5)

    def test_never_exceeds_one(self, domain, cfg):
        for entry in (radial_stretch(3.0), spiral_map(2.0), affine_map(1.0, 0.5j)):
            res = isoperimetric_constant(entry.map, domain, cfg)
            assert res.value <= 1.0 + 1e-6


class TestHolderLowerBound:
    def test_classic_exponent(self):
        assert holder_lower_bound(1.0, 2.0) == pytest.approx(0.5)

    def test_conformal_case(self):
        assert holder_lower_bound(1.0, 1.0) == pytest.approx(1.0)

    def test_affine_product(self):
        got = holder_lower_bound(AFFINE_ISO_SUP, 1.25)
        assert got == pytest.approx(0.9510, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            holder_lower_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            holder_lower_bound(1.0, -2.0)


class TestMoriConsistency:
    def test_zero_field(self, domain, cfg):
        rep = mori_consistency(constant_field(0.0), domain, cfg)
        assert rep.passed and rep.max_average == pytest.approx(1.0)

    def test_radial_stretch_equality_case(self, domain, cfg):
        field = radial_stretch(2.0).map.beltrami
        rep = mori_consistency(field, domain, cfg)
        assert rep.passed
        assert rep.max_average == pytest.approx(2.0, abs=1e-11)
        assert abs(rep.worst_margin) <= 1e-9

    def test_random_bounded_fields(self, domain, cfg, rng):
        # |mu| <= 1/3 pointwise forces averages <= 2 by (1+|mu|)/(1-|mu|)
        for _ in range(10):
            a, b, phase = rng.normal(size=3)
            amp = rng.uniform(0, 1 / 3)

            def mu(z, a=a, b=b, phase=phase, amp=amp):
                return amp * np.exp(1j * (phase + a * z.real + b * z.imag))

            rep = mori_consistency(BeltramiField(mu=mu, k_max=1 / 3), domain, cfg)
            assert rep.max_average <= 2.0 + 1e-9
            assert rep.passed


class TestGronwallCheck:
    def test_identity_equality(self):
        t = np.geomspace(0.01, 1.0, 20)
        verdict = gronwall_check(list(zip(t, np.pi * t**2)), exponent=2.0)
        assert verdict.passed
        assert abs(verdict.worst_margin) <= 1e-12
        assert abs(verdict.endpoint_margin) <= 1e-12

    def test_radial_stretch_equality(self):
        # K = 2 has A C = 2: phi(t) = pi t with exponent 1 is the equality case
        t = np.geomspace(0.01, 1.0, 20)
        verdict = gronwall_check(list(zip(t, np.pi * t)), exponent=1.0)
        assert verdict.passed
        assert abs(verdict.worst_margin) <= 1e-12

    def test_constructed_violation(self):
        t = np.geomspace(0.01, 1.0, 20)
        verdict = gronwall_check(list(zip(t, np.pi * t**0.8)), exponent=1.0)
        assert not verdict.passed
        assert verdict.worst_margin > 0

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            gronwall_check([(0.5, 1.0), (0.25, 0.5)], exponent=1.0)

    def test_nonpositive_phi_rejected(self):
        with pytest.raises(ValueError):
            gronwall_check([(0.25, -1.0), (0.5, 1.0)], exponent=1.0)


class TestRegularityReport:
    def test_radial_stretch_recovers_classic_exponent(self, domain, cfg):
        rep = regularity_report(radial_stretch(2.0).map, domain, cfg)
        assert rep.alpha_improved == pytest.approx(0.5, abs=1e-6)
        assert rep.alpha_distortion == pytest.approx(0.5, abs=1e-9)
        assert rep.alpha_classical == pytest.approx(0.5)
        assert rep.gronwall.passed
        assert rep.mori.passed

    def test_affine_improvement_over_distortion_only(self, domain, cfg):
        rep = regularity_report(affine_map(1.0, 1 / 3).map, domain, cfg)
        assert rep.alpha_distortion == pytest.approx(0.8, abs=1e-9)
        assert rep.alpha_improved > rep.alpha_distortion
        assert rep.alpha_improved == pytest.approx(1 / (AFFINE_ISO_SUP * 1.25), abs=1e-9)

    def test_field_only_degrades_to_distortion_bound(self, domain, cfg):
        field = validate_field(constant_field(1 / 3))
        rep = regularity_report(field, domain, cfg)
        assert rep.isoperimetric_sup == 1.0
        assert rep.isoperimetric_argmax is None
        assert rep.gronwall is None
        assert rep.alpha_improved == pytest.approx(rep.alpha_distortion)

    def test_bound_ordering(self, domain, cfg):
        for entry in (radial_stretch(1.5), spiral_map(1.0), affine_map(1.0, 1 / 3)):
            rep = regularity_report(entry.map, domain, cfg)
            assert rep.alpha_improved >= rep.alpha_distortion - 1e-12
            assert rep.alpha_distortion >= rep.alpha_classical - 1e-9

    def test_spiral_distortion_bound_is_one_despite_K(self, domain, cfg):
        rep = regularity_report(spiral_map(1.0).map, domain, cfg)
        assert rep.alpha_distortion == pytest.approx(1.0, abs=1e-9)
        assert rep.alpha_classical < 1.0

    def test_csv_row_shape(self, domain, cfg, tmp_path):
        rep = regularity_report(radial_stretch(2.0).map, domain, cfg)
        run = RunReport("radial_stretch(K=2)", "catalog", rep, *[None] * 6, provenance={})
        (path,) = emit_report(run, csv_dir=tmp_path)
        header, row = path.read_text().strip().splitlines()
        assert header.split(",")[0] == "distortion_sup"
        assert len(header.split(",")) == len(row.split(","))
