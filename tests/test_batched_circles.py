"""Circle families averaged together, against lone-circle oracles.

A family is evaluated as stacked (m, N) rows per doubling level, so a
circle's nodes sit in a larger array than when it is averaged alone. The
batches stay under MAX_BATCH_NODES, below numpy's size for reusing the
buffers of temporaries in place, so a circle's value in a family is
bit-identical to its lone value (ULPS = 0), and it converges at the same
level, so the work stays the same.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import qcreg.bounds
import qcreg.geometry
from qcreg import (
    CircleSpec,
    DomainSpec,
    NumericalError,
    OrientationError,
    QuadratureConfig,
    SampledField,
    affine_map,
    circular_average,
    distortion_constant,
    epsilon_decompose,
    epsilon_weight_integral,
    geometry_profile,
    image_area_jacobian,
    isoperimetric_constant,
    power_spiral,
    quasicircle_length_formula,
    radial_stretch,
    regularity_report,
    spiral_map,
    sup_over_circles,
    validate_field,
)
from qcreg.bounds import distortion_average, distortion_integrand, isoperimetric_ratio
from qcreg.geometry import length_and_area
from qcreg.quadrature import MAX_BATCH_NODES, TIE_ULPS, _argmax_stable, level_nodes

#: largest distance in units in the last place between a batched and a lone value
ULPS = 0

CFG = QuadratureConfig()

FAMILIES = {
    "radial_stretch": radial_stretch(2.5).map,
    "spiral": spiral_map(1.2).map,
    "affine": affine_map(1.0, 0.3 - 0.2j).map,
    "power_spiral": power_spiral(0.6, 0.8).map,
}


def ring_domain():
    """The origin plus 8 centers on a ring of radius 0.4, 32 log-spaced radii."""
    ring = [
        complex(round(0.4 * math.cos(a), 4), round(0.4 * math.sin(a), 4))
        for a in np.arange(8) * math.pi / 4
    ]
    return DomainSpec(centers=(0j, *ring), radii=tuple(np.geomspace(0.05, 1.0, 32)))


def lone_distortion(field, circle, levels):
    """Family-of-one average of the distortion weight, written on the angles alone."""

    def integrand(nodes):
        theta = nodes.theta
        levels[circle] = levels.get(circle, 0) + 1
        unit = np.exp(1j * theta)
        return distortion_integrand(field(circle.center + circle.radius * unit), unit)[None]

    (value,) = circular_average(integrand, [circle], CFG)
    return value


def lone_roundness(model, circle, levels):
    """One-circle 4 pi area / length^2 from the speed and Green rows."""

    def integrand(nodes):
        theta = nodes.theta
        levels[circle] = levels.get(circle, 0) + 1
        z = circle.center + circle.radius * np.exp(1j * theta)
        f_x, f_y = model.partials(z)
        dgamma = circle.radius * (-np.sin(theta) * f_x + np.cos(theta) * f_y)
        return np.stack((np.abs(dgamma), (np.conj(model.value(z)) * dgamma).imag))[:, None]

    (speed,), (green,) = circular_average(integrand, [circle], CFG)
    length, area = 2.0 * np.pi * speed, np.pi * green
    return 4.0 * np.pi * area / (length * length)


@pytest.fixture
def batch_levels(monkeypatch):
    """Number of doubling levels each circle of a family average was evaluated
    at (a circle sits in one batch per level)."""
    levels = {}
    average = qcreg.bounds.circular_average

    def recording(integrand, circles, cfg):
        def recorded(nodes):
            for c in nodes.circles:
                levels[c] = levels.get(c, 0) + 1
            return integrand(nodes)

        return average(recorded, circles, cfg)

    for module in (qcreg.bounds, qcreg.geometry):
        monkeypatch.setattr(module, "circular_average", recording)
    return levels


def assert_close_in_ulps(batched, lone):
    for circle, value in batched:
        assert abs(value - lone[circle]) <= ULPS * math.ulp(lone[circle]), circle


class TestBatchedAgainstLoneCircles:
    def test_ring_domain_has_240_circles(self):
        assert len(ring_domain().admissible_circles()) == 240

    @pytest.mark.parametrize("name", FAMILIES)
    def test_distortion_values_and_levels(self, name, batch_levels):
        field = FAMILIES[name].beltrami
        domain = ring_domain()
        sup = distortion_constant(field, domain, CFG)
        lone_levels = {}
        lone = {c: lone_distortion(field, c, lone_levels) for c in domain.admissible_circles()}
        assert_close_in_ulps(sup.per_circle, lone)
        assert batch_levels == lone_levels

    @pytest.mark.parametrize("name", FAMILIES)
    def test_roundness_values_and_levels(self, name, batch_levels):
        model = FAMILIES[name]
        domain = ring_domain()
        sup = isoperimetric_constant(model, domain, CFG)
        lone_levels = {}
        lone = {c: lone_roundness(model, c, lone_levels) for c in domain.admissible_circles()}
        assert_close_in_ulps(sup.per_circle, lone)
        assert batch_levels == lone_levels


class TestOnePassForCAndA:
    """A map's C and A come from one pass over its circles: the distortion,
    speed and Green rows are stacked, each with its own convergence test."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_circle_values_equal_the_separate_passes(self, name):
        model = FAMILIES[name]
        domain = ring_domain()
        circles = domain.admissible_circles()
        c_sup, a_sup = qcreg.bounds._map_suprema(model, model.beltrami, domain, CFG)
        for sup, separate in ((c_sup, distortion_average(model.beltrami, circles, CFG)),
                              (a_sup, isoperimetric_ratio(model, circles, CFG))):
            assert [c for c, _ in sup.per_circle] == circles
            values = np.array([v for _, v in sup.per_circle])
            assert values.tobytes() == separate.tobytes()
        assert c_sup == distortion_constant(model.beltrami, domain, CFG)
        assert a_sup == isoperimetric_constant(model, domain, CFG)
        report = regularity_report(model, domain, CFG)
        assert (report.distortion_sup, report.distortion_argmax) == (c_sup.value, c_sup.argmax)
        assert (report.isoperimetric_sup, report.isoperimetric_argmax) == (a_sup.value,
                                                                           a_sup.argmax)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_levels_are_those_of_the_a_pass(self, name, batch_levels):
        # the distortion row never outlasts the speed and Green rows of a
        # catalog map, so the map is evaluated where the A pass alone did
        model = FAMILIES[name]
        domain = ring_domain()
        qcreg.bounds._map_suprema(model, model.beltrami, domain, CFG)
        fused = dict(batch_levels)
        batch_levels.clear()
        isoperimetric_constant(model, domain, CFG)
        assert fused == batch_levels


def wavy_grid(interpolation, n=65):
    """A spatially varying mu grid on [-1.05, 1.05]^2."""
    x = np.linspace(-1.05, 1.05, n)
    z = x[None, :] + 1j * x[:, None]
    mu = 0.4 * np.exp(1j * (1.3 * z.real - 0.7 * z.imag)) * (0.5 + 0.5 * np.cos(2 * z.real))
    return SampledField(origin=-1.05 - 1.05j, spacing=2.1 / (n - 1), values=mu,
                        k_max=0.4, interpolation=interpolation)


#: the profile radii of a default analysis
PROFILE_RADII = np.geomspace(1e-3, 1.0, 65)


def assert_family_equals_lone(rows, circles):
    """`rows(family)` gives k stacked rows of per-circle values, or one row;
    every value of the whole family must carry the bits of the circle's
    family of one."""
    family = np.atleast_2d(rows(circles))
    lone = np.column_stack([np.atleast_2d(rows(circles[i:i + 1])) for i in range(len(circles))])
    assert family.shape == lone.shape
    differ = family.view(np.uint64) != lone.view(np.uint64)
    assert not differ.any(), f"{differ.sum()} of {differ.size} values differ from the lone ones"


class TestFamilyEqualsLone:
    """Exact equality of every stacked-row quantity of a report with the
    lone-circle evaluation (the catalog distortion rows are
    TestBatchedAgainstLoneCircles's, at ULPS = 0)."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_speed_and_green_rows(self, name):
        model = FAMILIES[name]
        assert_family_equals_lone(
            lambda circles: length_and_area(model, circles, CFG),
            ring_domain().admissible_circles(),
        )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_length_formula_rows(self, name):
        model = FAMILIES[name]
        circles = [CircleSpec(0j, float(t)) for t in PROFILE_RADII]
        assert_family_equals_lone(
            lambda family: quasicircle_length_formula(model, family, CFG), circles
        )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_epsilon_rows(self, name):
        field = validate_field(FAMILIES[name].beltrami)
        K = field.distortion_ratio
        circles = [CircleSpec(0j, float(t)) for t in PROFILE_RADII]

        def rows(family):
            return circular_average(
                lambda nodes: epsilon_decompose(field, K, nodes.points).real, family, CFG
            )

        assert_family_equals_lone(rows, circles)
        # the profile's averages are these rows
        assert np.array_equal(epsilon_weight_integral(field, K, PROFILE_RADII, CFG).eps_re_avg,
                              rows(circles))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_jacobian_areas(self, name):
        model = FAMILIES[name]
        disks = [CircleSpec(0j, float(t)) for t in PROFILE_RADII[::2]]
        inner = np.concatenate(([0.0], PROFILE_RADII[:-1:2]))
        family = image_area_jacobian(model, disks, CFG, r_inner=inner)
        lone = [image_area_jacobian(model, disks[i:i + 1], CFG, r_inner=inner[i:i + 1])[0]
                for i in range(len(disks))]
        assert family.tobytes() == np.array(lone).tobytes()

    @pytest.mark.parametrize("interpolation", ["nearest", "bilinear"])
    def test_sampled_field_distortion_rows(self, interpolation):
        field = validate_field(wavy_grid(interpolation).as_beltrami())
        assert_family_equals_lone(
            lambda circles: distortion_average(field, circles, CFG),
            DomainSpec.origin_disk().admissible_circles(),
        )


class TestNonFiniteInOneCircle:
    def test_integrand_nan_names_the_first_bad_circle_and_node(self):
        circles = [CircleSpec(0j, r) for r in (0.2, 0.5, 0.8)]
        theta, _ = level_nodes(CFG.nodes, True)

        def integrand(nodes):
            out = np.ones((len(nodes.circles), nodes.theta.size))
            for i, circle in enumerate(nodes.circles):
                if circle.radius == 0.5:
                    out[i, 7] = np.nan
                if circle.radius == 0.8:  # a later circle goes bad too
                    out[i, 3] = np.inf
            return out

        where = rf"theta = {theta[7]:.12g} on circle\(center=0j, radius=0.5\)"
        with pytest.raises(NumericalError, match=where) as err:
            circular_average(integrand, circles, CFG)
        assert err.value.circle == circles[1]

    def test_map_with_nan_partials_on_one_circle(self):
        model = radial_stretch(2.0).map
        domain = ring_domain()
        bad = domain.admissible_circles()[100]

        def partials(z):
            f_x, f_y = model.partials(z)
            on_bad = np.abs(np.abs(z - bad.center) - bad.radius) < 1e-12
            return np.where(on_bad, np.nan, f_x), f_y

        broken = replace(model, partials=partials)
        with pytest.raises(NumericalError, match=f"radius={bad.radius}") as err:
            isoperimetric_constant(broken, domain, CFG)
        assert err.value.circle == bad


class TestTiePolicy:
    CIRCLES = [
        CircleSpec(0.1 + 0j, 0.3),
        CircleSpec(0j, 0.5),
        CircleSpec(0j, 0.2),
        CircleSpec(-0.1 + 0j, 0.2),
    ]

    def test_one_ulp_apart_ties_and_the_first_circle_wins(self):
        top = 2.0
        values = [top, top, math.nextafter(top, 0.0), 1.0]
        assert _argmax_stable(self.CIRCLES, values) == 2

    def test_beyond_the_tie_slack_the_maximum_wins(self):
        top = 2.0
        values = [1.0, top, top - (TIE_ULPS + 1) * math.ulp(top), 1.0]
        assert _argmax_stable(self.CIRCLES, values) == 1

    def test_value_is_the_exact_maximum(self):
        top = 3.0
        below = math.nextafter(top, 0.0)
        domain = DomainSpec(centers=(0j,), radii=(0.2, 0.4, 0.6))
        res = sup_over_circles(lambda circles: [below, top, 1.0], domain)
        assert res.argmax == CircleSpec(0j, 0.2)
        assert res.value == top

    def test_permuted_circles_give_the_same_argmax(self, rng):
        top = 2.0
        values = [top, math.nextafter(top, 0.0), math.nextafter(top, 4.0), top, 0.5]
        circles = [CircleSpec(0.2j, 0.3), CircleSpec(0j, 0.3), CircleSpec(-0.2 + 0j, 0.3),
                   CircleSpec(0j, 0.6), CircleSpec(0j, 0.1)]
        best = circles[_argmax_stable(circles, values)]
        assert best == CircleSpec(-0.2 + 0j, 0.3)
        for _ in range(10):
            perm = rng.permutation(len(circles))
            shuffled = [circles[i] for i in perm]
            assert shuffled[_argmax_stable(shuffled, [values[i] for i in perm])] == best

    def test_permuted_domain_centers_give_the_same_sup(self):
        field = affine_map(1.0, 0.25 + 0.1j).map.beltrami  # C is the same on every circle
        radii = tuple(np.geomspace(0.05, 0.5, 6))
        centers = (0j, 0.3 + 0.1j, -0.2 - 0.2j)
        results = [
            distortion_constant(field, DomainSpec(centers=order, radii=radii), CFG)
            for order in (centers, centers[::-1], centers[1:] + centers[:1])
        ]
        assert len({(r.value, r.argmax) for r in results}) == 1


class TestEvaluationCap:
    def test_node_arrays_stay_below_numpys_elision_size(self):
        # numpy reuses the buffer of a temporary of 256 KiB or more in place,
        # which reorders complex products: a 16-byte complex node array of
        # the cap must stay below that, or a row's bits depend on its family
        assert MAX_BATCH_NODES * 16 < 256 * 1024

    def test_nearest_grid_at_the_full_budget(self, monkeypatch):
        field = validate_field(wavy_grid("nearest").as_beltrami())
        sizes, levels = [], {}
        average = qcreg.bounds.circular_average

        def recording(integrand, circles, cfg):
            def recorded(nodes):
                sizes.append(nodes.size)
                for c in nodes.circles:  # a circle sits in one batch per level
                    levels[c] = levels.get(c, 0) + 1
                return integrand(nodes)

            return average(recorded, circles, cfg)

        monkeypatch.setattr(qcreg.bounds, "circular_average", recording)
        regularity_report(field, DomainSpec.origin_disk(), CFG)
        assert max(levels.values()) == CFG.max_doublings + 1  # the full budget
        assert max(sizes) <= MAX_BATCH_NODES
        assert sizes[0] == 16 * CFG.nodes  # the first level is one batch

    def test_jacobian_batches_of_a_profile(self):
        sizes = []
        model = radial_stretch(2.0).map

        def jacobian(z):
            sizes.append(np.size(z))
            return model.jacobian(z)

        geometry_profile(replace(model, jacobian=jacobian), np.geomspace(1e-3, 1.0, 33), CFG)
        # the whole disk's 600 rings and the 32 annulus increments' 10 rings
        # each are evaluated together, in batches under the cap
        assert max(sizes) <= MAX_BATCH_NODES
        assert sum(sizes) == 487936  # the points of TestWorkCounts, in fewer calls
        # both the 33 length-formula circles and the 920 rings converge at the
        # second level, and each level evaluates 256 angles per row, in
        # batches of as many whole rows as the cap holds
        batches = lambda rows: math.ceil(rows / (MAX_BATCH_NODES // CFG.nodes))
        assert len(sizes) == 2 * batches(33) + 2 * batches(920)


class TestRingChecks:
    @pytest.mark.parametrize("bad_value, error", [(np.nan, NumericalError), (-1.0, OrientationError)])
    def test_bad_jacobian_names_the_ring(self, bad_value, error):
        model = affine_map(1.0, 0.2).map

        def jacobian(z):
            return np.where(np.abs(z) > 0.3, bad_value, model.jacobian(z))

        disks = [CircleSpec(0j, 0.2), CircleSpec(0j, 0.5)]
        with pytest.raises(error, match="Jacobian on the ring of radius 0.3") as err:
            image_area_jacobian(replace(model, jacobian=jacobian), disks, cfg=CFG, r_inner=[0.0, 0.2])
        assert type(err.value) is error
