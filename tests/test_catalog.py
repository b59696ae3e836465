import numpy as np
import pytest

from qcreg import (
    ConfigError,
    affine_map,
    beltrami_of,
    catalog_names,
    entry_from_spec,
    list_catalog,
    power_spiral,
    radial_stretch,
    spiral_map,
    validate_field,
)
from conftest import random_points


class TestRadialStretch:
    def test_rejects_K_below_one(self):
        with pytest.raises(ValueError):
            radial_stretch(0.5)

    def test_identity_case(self, rng):
        entry = radial_stretch(1.0)
        z = random_points(rng, 32)
        assert np.allclose(entry.map.value(z), z)
        assert np.allclose(entry.map.beltrami(z), 0.0)
        assert entry.exact_exponent == 1.0

    def test_closed_form_value(self):
        # K = 2: f(4) = 4 * 4^(-1/2) = 2
        entry = radial_stretch(2.0)
        assert entry.map.value(np.array([4.0 + 0j]))[0] == pytest.approx(2.0)

    def test_mu_at_i(self):
        # mu = -k z / conj(z); at z = i this is -(1/3)(i / -i) = 1/3
        entry = radial_stretch(2.0)
        assert entry.map.beltrami(np.array([1j]))[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_fixes_origin(self):
        assert radial_stretch(3.0).map.value(np.zeros(1, complex))[0] == 0

    def test_exponent_and_field_bound(self):
        entry = radial_stretch(2.0)
        assert entry.exact_exponent == pytest.approx(0.5)
        assert entry.map.beltrami.k_max == pytest.approx(1 / 3)
        validate_field(entry.map.beltrami)  # passes certification

    def test_maps_circles_to_circles(self, rng):
        # |f| on the circle of radius t is t^(1/K)
        entry = radial_stretch(2.0)
        for t in (0.1, 0.5, 0.9):
            z = t * np.exp(1j * rng.uniform(0, 2 * np.pi, 32))
            assert np.allclose(np.abs(entry.map.value(z)), t**0.5, rtol=1e-13)


class TestSpiralMap:
    def test_gamma_zero_is_identity(self, rng):
        z = random_points(rng, 32)
        assert np.allclose(spiral_map(0.0).map.value(z), z)

    def test_modulus_preserved_exactly(self, rng):
        entry = spiral_map(2.0)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        assert np.allclose(np.abs(entry.map.value(z)), 1.0, atol=1e-15)

    def test_k_max_gamma_two(self):
        # |c| = gamma / sqrt(4 + gamma^2) = 2 / sqrt(8)
        entry = spiral_map(2.0)
        expect = 2 / np.sqrt(8.0)
        assert entry.map.beltrami.k_max == pytest.approx(expect, abs=1e-15)
        K = (1 + expect) / (1 - expect)
        assert K == pytest.approx((np.sqrt(8) + 2) / (np.sqrt(8) - 2))

    def test_exact_exponent_is_one(self):
        assert spiral_map(1.0).exact_exponent == 1.0


class TestAffineMap:
    def test_identity(self, rng):
        z = random_points(rng, 16)
        assert np.allclose(affine_map(1.0, 0.0).map.value(z), z)

    def test_direct_algebra(self):
        # a=1, b=1/3: f(x + iy) = (4/3) x + i (2/3) y
        entry = affine_map(1.0, 1 / 3)
        z = np.array([0.6 + 0.9j])
        assert entry.map.value(z)[0] == pytest.approx(0.8 + 0.6j)
        assert entry.map.beltrami(z)[0] == pytest.approx(1 / 3)
        assert entry.map.jacobian(z)[0] == pytest.approx(8 / 9)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            affine_map(1.0, 1.0)
        with pytest.raises(ValueError):
            affine_map(1.0, 2.0)

    @pytest.mark.parametrize(
        "a, b, message",
        [(np.inf, 0.0, "finite"), (1.0, np.nan, "finite"), (complex(1, np.inf), 0.0, "finite"),
         (1e200, 0.0, "overflows"), (1e308 + 1e308j, 0.0, "overflows"),
         (1e-200, 0.0, "not a positive float"), (5e-324, 0.0, "not a positive float")],
        ids=str,
    )
    def test_non_finite_parameters_or_jacobian_rejected(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            affine_map(a, b)

    @pytest.mark.parametrize("spec", ["affine(a=1e200,b=0)", "affine(a=inf,b=0)",
                                      "affine(a=1,b=nan)", "affine(a=1e-170,b=0)"])
    def test_spec_with_bad_parameters_is_a_config_error(self, spec):
        with pytest.raises(ConfigError, match="bad parameters for affine"):
            entry_from_spec(spec)

    def test_jacobian_formula_unchanged(self):
        a, b = 1.0 + 0.25j, 0.3 - 0.2j
        z = np.array([0.1 + 0.2j])
        assert affine_map(a, b).map.jacobian(z)[0] == abs(a) ** 2 - abs(b) ** 2


class TestPowerSpiral:
    def test_alpha_one_gamma_zero_is_identity(self, rng):
        z = random_points(rng, 16)
        assert np.allclose(power_spiral(1.0, 0.0).map.value(z), z)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            power_spiral(0.0)
        with pytest.raises(ValueError):
            power_spiral(-1.0)

    def test_k_max_half_one(self):
        # |mu| = |(-1/2 + i)/(3/2 + i)| = sqrt(5/13)
        entry = power_spiral(0.5, 1.0)
        assert entry.map.beltrami.k_max == pytest.approx(np.sqrt(5 / 13), abs=1e-15)

    def test_specializes_to_radial_stretch(self, rng):
        z = random_points(rng, 512)
        a, b = power_spiral(1 / 2, 0.0), radial_stretch(2.0)
        assert np.abs(a.map.value(z) - b.map.value(z)).max() <= 1e-12
        assert np.abs(a.map.beltrami(z) - b.map.beltrami(z)).max() <= 1e-12
        assert np.abs(a.map.jacobian(z) - b.map.jacobian(z)).max() <= 1e-12

    def test_specializes_to_spiral(self, rng):
        z = random_points(rng, 512)
        a, b = power_spiral(1.0, 1.5), spiral_map(1.5)
        assert np.abs(a.map.value(z) - b.map.value(z)).max() <= 1e-12
        assert np.abs(a.map.beltrami(z) - b.map.beltrami(z)).max() <= 1e-12

    def test_exponent_capped_at_one(self):
        assert power_spiral(2.0).exact_exponent == 1.0
        assert power_spiral(0.25).exact_exponent == 0.25


@pytest.mark.parametrize(
    "entry",
    [radial_stretch(2.0), radial_stretch(5.0), spiral_map(1.0), affine_map(1.0, 1 / 3),
     power_spiral(0.5, 1.0)],
    ids=lambda e: e.spec_string(),
)
def test_derivative_quotient_matches_closed_form_everywhere(entry, rng):
    # 10^6 random points: the quotient of Wirtinger derivatives must equal
    # the attached closed-form coefficient
    z = random_points(rng, 1_000_000)
    got = beltrami_of(entry.map, z)
    assert np.abs(got - entry.map.beltrami(z)).max() <= 1e-10


class TestSpecStrings:
    def test_radial_stretch_spec(self):
        entry = entry_from_spec("radial_stretch(K=2)")
        assert entry.parameters == {"K": 2.0}

    def test_spiral_spec_with_spaces(self):
        entry = entry_from_spec(" spiral( gamma = 1.5 ) ")
        assert entry.parameters == {"gamma": 1.5}

    def test_affine_complex_parameter(self):
        entry = entry_from_spec("affine(a=1,b=0.1+0.2j)")
        assert entry.parameters["b"] == pytest.approx(0.1 + 0.2j)

    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ConfigError) as err:
            entry_from_spec("nosuchmap()")
        for name in catalog_names():
            assert name in str(err.value)

    def test_bad_parameter_name(self):
        with pytest.raises(ConfigError):
            entry_from_spec("radial_stretch(Q=2)")

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ConfigError, match=r"'gamma' given twice in 'spiral\(gamma=1, gamma=2\)'"):
            entry_from_spec("spiral(gamma=1, gamma=2)")

    def test_positional_rejected(self):
        with pytest.raises(ConfigError):
            entry_from_spec("radial_stretch(2)")

    def test_invalid_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            entry_from_spec("radial_stretch(K=0.5)")

    def test_round_trip_through_spec_string(self):
        entry = entry_from_spec("power_spiral(alpha=0.5,gamma=1.0)")
        again = entry_from_spec(entry.spec_string())
        assert again.parameters == entry.parameters

    def test_listing_covers_all_names(self):
        listed = {row["name"] for row in list_catalog()}
        assert listed == set(catalog_names())
