import sys
import threading
import types
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qcreg import (
    CircleSpec,
    ConfigError,
    MapModel,
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
from qcreg.extremal import empirical_holder
from qcreg.geometry import geometry_profile, lengths_and_area
from conftest import entry_id, random_points


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
    ids=entry_id,
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

    def test_listing_covers_all_names(self):
        listed = {row["name"] for row in list_catalog()}
        assert listed == set(catalog_names())


# -- the power family shares |z|^s between value and partials -----------------

#: one entry of every power family (the affine family has no power)
POWER_SPECS = ["radial_stretch(K=2.5)", "spiral(gamma=0.9)", "power_spiral(alpha=0.7,gamma=-0.8)"]


def power_exponent(entry) -> complex:
    """s = alpha - 1 + i gamma of a power family, f(z) = z |z|^s."""
    params = entry.parameters
    if entry.name == "radial_stretch":
        alpha, gamma = 1.0 / params["K"], 0.0
    elif entry.name == "spiral":
        alpha, gamma = 1.0, params["gamma"]
    else:
        alpha, gamma = params["alpha"], params["gamma"]
    return (alpha - 1.0) + 1j * gamma


def power_of_modulus(z, s):
    """|z|^s as e^{Re s L} (cos(Im s L) + i sin(Im s L)), L = log|z|."""
    with np.errstate(all="ignore"):
        log_r = np.log(np.abs(z))
        rho = np.exp(s.real * log_r)
        return rho * np.cos(s.imag * log_r) + 1j * (rho * np.sin(s.imag * log_r))


def uncached_power_callables(entry):
    """`value` and `partials` of a power family written without a shared power:
    each call takes |z|^s itself, and `value` multiplies on the masked copy."""
    s = power_exponent(entry)

    def value(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        nz = z != 0
        with np.errstate(all="ignore"):
            out[nz] = z[nz] * power_of_modulus(z[nz], s)
        return out

    def partials(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(all="ignore"):
            m = power_of_modulus(z, s)
            f_z = (1.0 + s / 2.0) * m
            f_zbar = (s / 2.0) * m * (z / np.conj(z))
            return f_z + f_zbar, 1j * (f_z - f_zbar)

    return value, partials


def uncached_model(entry):
    value, partials = uncached_power_callables(entry)
    return replace(entry.map, value=value, partials=partials)


def node_array(rows=64, n=512, shift=0.0):
    """(rows, n) points on circles about the origin and off it, z = 0 included.

    64 x 512 = 2^15 points, four times the batch cap: 512 KiB of complex,
    above the size from which numpy reuses the buffers of temporaries.
    """
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    radii = np.geomspace(1e-3, 1.0, rows)[:, None]
    centers = (0.3 * np.exp(1j * np.arange(rows)) * (np.arange(rows) % 3 > 0))[:, None]
    z = radii * np.exp(1j * (theta + shift)) + centers
    z[0, 0] = z[rows // 2, 7] = 0.0
    return z


def assert_same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def assert_same_partials(got, want):
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)


class TestSharedPower:
    @pytest.mark.parametrize("spec", POWER_SPECS)
    @pytest.mark.parametrize("order", ["pv", "vp", "vv", "pp", "pvpv"])
    @pytest.mark.parametrize("shape", [(64, 512), (4, 16)], ids=["2^15", "small"])
    def test_bitwise_equal_to_the_uncached_formulas(self, spec, order, shape):
        model = entry_from_spec(spec).map
        value, partials = uncached_power_callables(entry_from_spec(spec))
        z = node_array(*shape)
        for call in order:
            if call == "v":
                assert_same_bits(model.value(z), value(z))
            else:
                assert_same_partials(model.partials(z), partials(z))

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_array_changed_in_place_between_calls(self, spec):
        model = entry_from_spec(spec).map
        value, partials = uncached_power_callables(entry_from_spec(spec))
        z = node_array()
        model.partials(z)
        z[3:9] *= 1.7
        z[1, 1] = 0.0
        assert_same_bits(model.value(z), value(z))
        z[20] = z[21]  # only a part changes
        assert_same_partials(model.partials(z), partials(z))
        assert_same_bits(model.value(z), value(z))

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_copies_of_the_nodes_and_0d_input(self, spec):
        model = entry_from_spec(spec).map
        value, partials = uncached_power_callables(entry_from_spec(spec))
        z = node_array()
        model.partials(z)
        assert_same_bits(model.value(z.copy()), value(z))
        for point in (0j, 0.25 - 0.5j):
            got = model.value(np.asarray(point))
            assert got.shape == () and got.dtype == complex
            assert_same_bits(got, value(np.asarray(point)))

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_threads_on_different_arrays(self, spec):
        # more threads than cores and a short switch interval, so calls on
        # different arrays interleave between the cache lookup and the store
        model = entry_from_spec(spec).map
        value, partials = uncached_power_callables(entry_from_spec(spec))
        arrays = [node_array(shift=0.01 * k) for k in range(4)]
        expected = [(*partials(z), value(z)) for z in arrays]
        start = threading.Barrier(len(arrays))
        mismatches, finished = [], []

        def work(k):
            z = arrays[k]
            start.wait(timeout=60)
            for _ in range(20):
                got = (*model.partials(z), model.value(z))
                if not all(np.array_equal(g.view(np.uint8), w.view(np.uint8))
                           for g, w in zip(got, expected[k])):
                    mismatches.append(k)
            finished.append(k)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(arrays))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(len(arrays)))
        assert not mismatches

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_through_the_callables_the_tracer_wraps(self, spec):
        tracing = types.ModuleType("bench_tracing")
        source = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        exec(compile(source.read_text(), str(source), "exec"), tracing.__dict__)
        tracer = tracing.Tracer()
        entry = tracer._entry_from_spec(entry_from_spec)(spec)
        value, partials = uncached_power_callables(entry)
        z = node_array()
        assert_same_partials(entry.map.partials(z), partials(z))
        assert_same_bits(entry.map.value(z), value(z))
        assert_same_bits(entry.map.value(z[:2]), value(z[:2]))
        assert tracer.counts == {"catalog.partials.points": z.size,
                                 "catalog.value.points": z.size + z[:2].size}

    def test_map_model_fields_unchanged(self):
        assert [f.name for f in fields(MapModel)] == [
            "value", "partials", "jacobian", "beltrami", "singular_points"]


class TestPowerKernel:
    """|z|^s from one real logarithm per node, against the complex power."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="longdouble has no more precision than float64 here")
    @pytest.mark.parametrize("spec", ["radial_stretch(K=2)", "spiral(gamma=1.7)",
                                      "power_spiral(alpha=0.6,gamma=1.3)",
                                      "power_spiral(alpha=2,gamma=1)",
                                      "power_spiral(alpha=0.3,gamma=-2.5)"])
    def test_value_as_accurate_as_the_complex_power(self, spec):
        # |z| from 1e-20 to 10: the error grows with |Im s log|z||, whose
        # float64 product both kernels round the same way; they differ only
        # in the last rounding of log, exp, cos and sin (under 1 ulp)
        entry = entry_from_spec(spec)
        s = power_exponent(entry)
        rng = np.random.default_rng(19)
        z = 10.0 ** rng.uniform(-20.0, 1.0, 100_000) * np.exp(2j * np.pi * rng.random(100_000))
        x, y = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
        log_r = np.log(np.abs(z).astype(np.longdouble))
        rho = np.exp(np.longdouble(s.real) * log_r)
        phase = np.longdouble(s.imag) * log_r
        m_re, m_im = rho * np.cos(phase), rho * np.sin(phase)
        want_re, want_im = x * m_re - y * m_im, x * m_im + y * m_re

        def max_ulps(got):
            err = np.hypot(got.real - want_re, got.imag - want_im) / np.hypot(want_re, want_im)
            return float(err.max() / np.finfo(np.float64).eps)

        with np.errstate(all="ignore"):
            complex_power = z * np.abs(z) ** s
        assert max_ulps(entry.map.value(z)) <= max_ulps(complex_power) + 1.0

    @pytest.mark.parametrize("spec", [*POWER_SPECS, "power_spiral(alpha=2,gamma=1)",
                                      "power_spiral(alpha=2,gamma=0)"])
    def test_origin(self, spec):
        # the power is nan at z = 0 for every s != 0 (it was 0 for Re s > 0):
        # the map value stays 0 there and the partials stay non-finite
        model = entry_from_spec(spec).map
        z = np.array([0.0, 0.5 - 0.25j, 0.0, -0.1j])
        for points in (z, np.asarray(0j)):
            value = model.value(points)
            f_x, f_y = model.partials(points)
            origin = points == 0
            assert np.all(value[origin] == 0)
            assert not np.isfinite(f_x[origin]).any() and not np.isfinite(f_y[origin]).any()
            assert np.isfinite(value).all()
            assert np.isfinite(f_x[~origin]).all() and np.isfinite(f_y[~origin]).all()


class TestPipelineBytes:
    """The analysis layers give the same bits on the shared power as on the
    uncached formulas."""

    CIRCLES = [CircleSpec(c, r) for c in (0j, 0.4, -0.3 + 0.3j)
               for r in np.geomspace(0.05, 0.55, 24).tolist()]
    RADII = np.geomspace(1e-3, 1.0, 33)

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_length_and_area(self, spec):
        entry = entry_from_spec(spec)
        got = lengths_and_area(entry.map, self.CIRCLES)
        want = lengths_and_area(uncached_model(entry), self.CIRCLES)
        assert_same_partials(got, want)

    @pytest.mark.parametrize("spec", POWER_SPECS)
    def test_geometry_profile_and_empirical_holder(self, spec):
        entry = entry_from_spec(spec)
        old = uncached_model(entry)
        got, want = geometry_profile(entry.map, self.RADII), geometry_profile(old, self.RADII)
        for name in got._fields:
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert empirical_holder(got) == empirical_holder(want)
