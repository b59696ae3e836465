import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import qmc

from qcreg import (
    BeltramiField,
    build_config,
    CircleSpec,
    DomainSpec,
    FieldValidationError,
    SampledField,
    SingularPointError,
    beltrami_of,
    derive_beltrami,
    disk_samples,
    distortion_constant,
    radial_stretch,
    spiral_map,
    affine_map,
    power_spiral,
    validate_field,
    wirtinger_from_cartesian,
)
from conftest import entry_id, random_points

ALL_ENTRIES = [
    radial_stretch(1.0),
    radial_stretch(2.0),
    radial_stretch(5.0),
    spiral_map(1.0),
    affine_map(1.0, 1 / 3),
    power_spiral(0.5, 1.0),
]


class TestCircleAndDomain:
    def test_circle_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            CircleSpec(0j, 0.0)
        with pytest.raises(ValueError):
            CircleSpec(0j, -1.0)
        with pytest.raises(ValueError):
            CircleSpec(complex("nan"), 1.0)

    def test_records_are_immutable_and_replace_revalidates(self):
        circle, domain = CircleSpec(1, 2), DomainSpec(centers=(0,), radii=(0.5,))
        assert repr(circle) == "CircleSpec(center=(1+0j), radius=2.0)"
        assert repr(domain) == (
            "DomainSpec(centers=(0j,), radii=(0.5,), outer_center=0j, outer_radius=1.0, "
            "inner_radius=0.0, margin=0.0)"
        )
        for record, name in ((circle, "radius"), (domain, "margin"), (domain, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.25)
        assert circle._replace(radius=3) == CircleSpec(1, 3.0)
        with pytest.raises(ValueError, match="radius must be positive"):
            circle._replace(radius=-1.0)

    def test_domain_requires_increasing_radii(self):
        with pytest.raises(ValueError):
            DomainSpec(centers=(0j,), radii=(0.5, 0.5))
        with pytest.raises(ValueError):
            DomainSpec(centers=(0j,), radii=(0.5, 0.1))

    @pytest.mark.parametrize("margin", [-0.5, -1e-300, float("nan")])
    def test_domain_rejects_a_negative_margin(self, margin):
        # a negative margin would admit circles outside the outer disk
        with pytest.raises(ValueError, match="margin"):
            DomainSpec(centers=(0j,), radii=(0.5, 1.5), margin=margin)

    @pytest.mark.parametrize("name", ["outer_radius", "inner_radius", "margin"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, True, "1e-9"], ids=repr)
    def test_domain_rejects_a_bound_that_is_not_a_finite_real(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
            DomainSpec(centers=(0j,), radii=(0.5,), **{name: value})

    def test_origin_disk_is_the_default_config_domain(self):
        assert DomainSpec.origin_disk() == build_config({"subject": "spiral(gamma=1)"}).domain

    def test_admissible_filtering(self):
        dom = DomainSpec(centers=(0j, 0.5 + 0j), radii=(0.25, 0.75), outer_radius=1.0)
        circles = dom.admissible_circles()
        # (0.5, 0.75) pokes outside the unit disk and must be dropped
        assert len(circles) == 3
        assert all(abs(c.center) + c.radius <= 1.0 + 1e-9 for c in circles)

    def test_annulus_domain(self):
        dom = DomainSpec(
            centers=(0.6 + 0j,), radii=(0.05, 0.1), inner_radius=0.3, outer_radius=1.0
        )
        assert len(dom.admissible_circles()) == 2
        dom2 = DomainSpec(
            centers=(0.35 + 0j,), radii=(0.1,), inner_radius=0.3, outer_radius=1.0
        )
        assert dom2.admissible_circles() == []

    # the fit slack scales with the domain: 1e-12 regardless of scale would
    # admit circles ten times a small outer disk, or circles around its hole
    def test_fit_slack_scales_with_a_small_disk(self):
        dom = DomainSpec(centers=(0j,), radii=(1e-13, 5e-13, 1e-12), outer_radius=1e-13)
        assert dom.admissible_circles() == [CircleSpec(0j, 1e-13)]

    def test_fit_slack_scales_with_a_small_annulus(self):
        ring = DomainSpec(centers=(0j,), radii=(5e-14,), outer_radius=1e-13, inner_radius=5e-14)
        assert ring.admissible_circles() == []

    def test_fit_slack_scales_with_a_far_domain(self):
        # the circle touches the outer one, but 1e6 + 0.3 rounds 4.7e-11 outward
        far = DomainSpec(centers=(1e6 + 0.3 + 0j,), radii=(0.7, 0.7 + 1e-5),
                         outer_center=1e6 + 0j)
        assert far.admissible_circles() == [CircleSpec(1e6 + 0.3, 0.7)]

    def test_admissible_circles_are_built_once(self):
        dom = DomainSpec(centers=(0j, 0.5 + 0j), radii=(0.25, 0.75), outer_radius=1.0)
        first = dom.admissible_circles()
        expected = [CircleSpec(0j, 0.25), CircleSpec(0j, 0.75), CircleSpec(0.5 + 0j, 0.25)]
        assert first == expected
        first.clear()  # the caller's list is a copy
        again = dom.admissible_circles()
        assert again == expected
        assert all(a is b for a, b in zip(again, dom.admissible_circles()))
        assert dom == DomainSpec(centers=(0j, 0.5 + 0j), radii=(0.25, 0.75), outer_radius=1.0)

    def test_family_sizes_are_counted_with_the_circles(self, monkeypatch):
        # (0.5, 0.75) does not fit, and the second 0.5 center is a family of its own
        dom = DomainSpec(centers=(0j, 0.5 + 0j, 0.9j, 0.5 + 0j), radii=(0.25, 0.75))
        assert dom.family_sizes() == (2, 1, 0, 1)
        assert sum(dom.family_sizes()) == len(dom.admissible_circles())
        monkeypatch.setattr(DomainSpec, "fits", lambda *a: pytest.fail("fits called again"))
        assert dom.family_sizes() == (2, 1, 0, 1)

    def test_equal_domains_share_their_circles(self):
        make = lambda: DomainSpec(centers=(0j, 0.5 + 0j), radii=(0.25, 0.75))
        first, second = make(), make()
        assert first is not second and first == second and hash(first) == hash(second)
        circles = first.admissible_circles()
        circles.append(CircleSpec(0j, 0.5))  # a caller's edit reaches no later call
        assert second.admissible_circles() == first.admissible_circles() == circles[:-1]

    def test_signed_zero_centers_keep_their_sign(self):
        plus = DomainSpec(centers=(complex(0.0, 0.0),), radii=(0.5,))
        minus = DomainSpec(centers=(complex(-0.0, 0.0),), radii=(0.5,))
        assert plus == minus
        for domain in (plus, minus, plus):
            (circle,) = domain.admissible_circles()
            assert repr(circle.center) == repr(domain.centers[0])

    @pytest.mark.parametrize("change", [{"margin": -1.0}, {"radii": (0.5, 0.25)},
                                        {"inner_radius": 2.0}])
    def test_replace_revalidates_the_domain(self, change):
        domain = DomainSpec(centers=(0j,), radii=(0.25, 0.5))
        with pytest.raises(ValueError):
            domain._replace(**change)


class TestWirtinger:
    def test_identity_map(self):
        f_z, f_zb = wirtinger_from_cartesian(1.0, 1j)
        assert f_z == pytest.approx(1.0)
        assert f_zb == pytest.approx(0.0)

    def test_conjugation_map(self):
        f_z, f_zb = wirtinger_from_cartesian(1.0, -1j)
        assert f_z == pytest.approx(0.0)
        assert f_zb == pytest.approx(1.0)

    def test_mixed_map(self):
        # f = z + conj(z)/3 has f_x = 4/3, f_y = 2i/3
        f_z, f_zb = wirtinger_from_cartesian(4 / 3, 2j / 3)
        assert f_z == pytest.approx(1.0)
        assert f_zb == pytest.approx(1 / 3)

    @given(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    )
    def test_roundtrip(self, f_x, f_y):
        f_z, f_zb = wirtinger_from_cartesian(f_x, f_y)
        assert complex(f_z + f_zb) == pytest.approx(f_x, abs=1e-9)
        assert complex(1j * (f_z - f_zb)) == pytest.approx(f_y, abs=1e-9)


class TestBeltramiOf:
    def test_identity(self, rng):
        z = random_points(rng, 64)
        assert np.allclose(beltrami_of(radial_stretch(1.0).map, z), 0.0)

    def test_radial_stretch_value(self):
        # K = 2 at z = 1: mu = -k z/conj(z) = -1/3
        got = beltrami_of(radial_stretch(2.0).map, np.array([1.0 + 0j]))
        assert got[0] == pytest.approx(-1 / 3, abs=1e-14)

    def test_mixed_map_constant(self, rng):
        z = random_points(rng, 64)
        got = beltrami_of(affine_map(1.0, 1 / 3).map, z)
        assert np.allclose(got, 1 / 3, atol=1e-14)

    def test_singular_point_error(self):
        degenerate = affine_map(1.0, 0.0)
        broken = type(degenerate.map)(
            value=degenerate.map.value,
            partials=lambda z: (np.zeros_like(z), np.zeros_like(z)),
            jacobian=degenerate.map.jacobian,
        )
        with pytest.raises(SingularPointError):
            beltrami_of(broken, np.array([1.0 + 0j]))

    @pytest.mark.parametrize("entry", ALL_ENTRIES, ids=entry_id)
    def test_agrees_with_attached_field(self, entry, rng):
        z = random_points(rng, 4096)
        got = beltrami_of(entry.map, z)
        assert np.abs(got - entry.map.beltrami(z)).max() <= 1e-12


@pytest.mark.parametrize("entry", ALL_ENTRIES, ids=entry_id)
class TestMapIdentities:
    """Pointwise identities tying partials, coefficient and Jacobian together."""

    def test_jacobian_identity(self, entry, rng):
        z = random_points(rng, 2048)
        f_x, f_y = entry.map.partials(z)
        jac = entry.map.jacobian(z)
        rel = np.abs((np.conj(f_x) * f_y).imag - jac) / np.abs(jac)
        assert rel.max() <= 1e-10

    def test_partials_ratio_identity(self, entry, rng):
        # f_y = i (1 - mu) / (1 + mu) f_x
        z = random_points(rng, 2048)
        f_x, f_y = entry.map.partials(z)
        mu = entry.map.beltrami(z)
        expect = 1j * (1 - mu) / (1 + mu) * f_x
        assert np.abs(f_y - expect).max() <= 1e-10 * np.abs(f_y).max()

    def test_jacobian_from_fx_identity(self, entry, rng):
        # J = (1 - |mu|^2) / |1 + mu|^2 |f_x|^2
        z = random_points(rng, 2048)
        f_x, _ = entry.map.partials(z)
        mu = entry.map.beltrami(z)
        jac = entry.map.jacobian(z)
        expect = (1 - np.abs(mu) ** 2) / np.abs(1 + mu) ** 2 * np.abs(f_x) ** 2
        assert np.abs(jac - expect).max() <= 1e-10 * np.abs(jac).max()


class TestValidateField:
    def test_zero_field_accepted(self):
        field = BeltramiField(mu=lambda z: np.zeros_like(z), k_max=0.0)
        out = validate_field(field, 0.0)
        assert out.verified_k_max == 0.0
        assert out.distortion_ratio == pytest.approx(1.0)

    def test_constant_third_accepted(self):
        field = BeltramiField(mu=lambda z: np.full(z.shape, 1 / 3 + 0j), k_max=1 / 3)
        out = validate_field(field, 1 / 3)
        assert out.verified_k_max == pytest.approx(1 / 3)
        assert out.distortion_ratio == pytest.approx(2.0)

    def test_bound_exceeded_rejected(self):
        field = BeltramiField(mu=lambda z: np.full(z.shape, 0.5 + 0j), k_max=0.9)
        with pytest.raises(FieldValidationError):
            validate_field(field, 1 / 3)

    def test_degenerate_rejected(self):
        field = BeltramiField(mu=lambda z: np.ones(z.shape, dtype=complex), k_max=0.0)
        with pytest.raises(FieldValidationError):
            validate_field(field, 0.999999)

    def test_k_max_range_enforced(self):
        with pytest.raises(ValueError):
            BeltramiField(mu=lambda z: z, k_max=1.0)

    def test_checked_wrapper_keeps_certifying(self):
        # declared bound holds on the valid sample region but the wrapped
        # evaluator still rejects out-of-bound values seen later
        field = BeltramiField(
            mu=lambda z: np.where(np.abs(z) <= 1.0, 0.1 + 0j, 0.9 + 0j),
            k_max=0.2,
        )
        out = validate_field(field, 0.2)
        assert np.allclose(out(np.array([0.5 + 0j])), 0.1)
        with pytest.raises(FieldValidationError):
            out(np.array([3.0 + 0j]))

    def test_rejection_at_use_names_the_point(self, cfg):
        # within the bound on the unit disk where the sample lies, above it
        # beyond: a circle average over |z| = 1.5 must name a point off the disk
        field = BeltramiField(
            mu=lambda z: np.where(np.abs(z) <= 1.0, 0.1 + 0j, 0.5 + 0j), k_max=0.2
        )
        out = validate_field(field)
        domain = DomainSpec(centers=(0j,), radii=(0.5, 1.5), outer_radius=2.0)
        with pytest.raises(
            FieldValidationError, match=r"\|mu\| = 0\.5 exceeds declared bound k_max = 0\.2 "
            r"in evaluation at z = "
        ) as err:
            distortion_constant(out, domain, cfg)
        assert abs(complex(str(err.value).split("z = ")[1])) > 1.0

    def test_sample_rejection_names_the_point(self):
        field = BeltramiField(mu=lambda z: np.where(z.real > 0.5, 0.9 + 0j, 0j), k_max=0.2)
        with pytest.raises(FieldValidationError, match="in validation sample at z = ") as err:
            validate_field(field)
        assert complex(str(err.value).split("z = ")[1]).real > 0.5

    def test_singular_points_excluded_from_sample(self):
        entry = radial_stretch(2.0)
        out = validate_field(entry.map.beltrami)
        assert out.verified_k_max == pytest.approx(1 / 3, abs=1e-12)

    def test_validation_sample_is_built_once(self, monkeypatch):
        import qcreg.plane as plane

        sample = plane._validation_points(())
        calls = []
        monkeypatch.setattr(plane, "disk_samples", lambda *a: calls.append(a))
        assert plane._validation_points(()) is sample and calls == []
        assert not sample.flags.writeable
        assert np.array_equal(sample, disk_samples(plane.VALIDATION_SAMPLES))
        # a singular point leaves the cached sample whole
        trimmed = plane._validation_points((sample[7],))
        assert trimmed.size == sample.size - 1
        assert np.array_equal(plane._validation_points(()), sample)

    def test_derive_beltrami(self):
        entry = affine_map(1.0, 0.25)
        stripped = type(entry.map)(
            value=entry.map.value,
            partials=entry.map.partials,
            jacobian=entry.map.jacobian,
        )
        derived = derive_beltrami(stripped)
        z = np.array([0.3 + 0.4j])
        assert derived(z)[0] == pytest.approx(0.25, abs=1e-12)


class TestDiskSamples:
    def test_deterministic_and_inside(self):
        a = disk_samples(512)
        b = disk_samples(512)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= 1.0
        assert np.abs(a).min() > 0.0  # origin excluded

    def test_translated(self):
        pts = disk_samples(128, center=2 + 1j, radius=0.5)
        assert np.abs(pts - (2 + 1j)).max() <= 0.5

    @staticmethod
    def _scipy_reference(n, center=0j, radius=1.0):
        sampler = qmc.Halton(d=2, scramble=False)
        sampler.fast_forward(1)
        uv = sampler.random(n)
        r = radius * np.sqrt(uv[:, 0])
        theta = 2.0 * np.pi * uv[:, 1]
        return center + r * np.exp(1j * theta)

    @pytest.mark.parametrize("n", [1, 7, 4096, 5000])
    def test_bit_identical_to_scipy_halton(self, n):
        assert np.array_equal(disk_samples(n), self._scipy_reference(n))

    def test_bit_identical_to_scipy_halton_on_scaled_disk(self):
        pts = disk_samples(4096, center=-0.7 + 2.5j, radius=3.25)
        assert np.array_equal(pts, self._scipy_reference(4096, -0.7 + 2.5j, 3.25))


class TestSampledField:
    def _grid(self, fn, k_max, n=65, half_width=1.1, interpolation="bilinear"):
        h = 2 * half_width / (n - 1)
        xs = -half_width + h * np.arange(n)
        zz = xs[None, :] + 1j * xs[:, None]
        return SampledField(
            origin=complex(-half_width, -half_width),
            spacing=h,
            values=fn(zz),
            k_max=k_max,
            interpolation=interpolation,
        )

    def test_bilinear_reproduces_linear_field(self):
        fn = lambda z: 0.1 * z.real + 0.2j * z.imag
        grid = self._grid(fn, k_max=0.5)
        z = np.array([0.3 + 0.4j, -0.25 + 0.1j, 0.0 + 0j])
        assert np.abs(grid.evaluate(z) - fn(z)).max() <= 1e-12

    def test_nearest_snaps_to_grid(self):
        fn = lambda z: np.where(z.real > 0, 0.2 + 0j, -0.2 + 0j)
        grid = self._grid(fn, k_max=0.3, interpolation="nearest")
        assert grid.evaluate(np.array([0.5 + 0j]))[0] == pytest.approx(0.2)
        assert grid.evaluate(np.array([-0.5 + 0j]))[0] == pytest.approx(-0.2)

    def test_values_above_bound_rejected(self):
        with pytest.raises(FieldValidationError):
            self._grid(lambda z: np.full(z.shape, 0.9 + 0j), k_max=0.3)

    def test_as_beltrami_validates(self):
        grid = self._grid(lambda z: np.full(z.shape, 0.25 + 0j), k_max=0.3)
        field = validate_field(grid.as_beltrami())
        assert field.verified_k_max == pytest.approx(0.25)

    def test_interpolated_values_stay_bounded(self, rng):
        vals = 0.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, (33, 33)))
        grid = SampledField(origin=-1 - 1j, spacing=2 / 32, values=vals, k_max=0.3)
        z = random_points(rng, 2000, r_max=0.99)
        assert np.abs(grid.evaluate(z)).max() <= 0.3 + 1e-12
