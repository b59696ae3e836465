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
from scipy.special import ellipe

import qcreg.bounds
import qcreg.geometry
from qcreg import (
    CircleSpec,
    DomainSpec,
    NumericalError,
    OrientationError,
    QuadratureConfig,
    affine_map,
    circular_average,
    distortion_constant,
    epsilon_decompose,
    epsilon_weight_integral,
    geometry_profile,
    image_area_jacobian,
    isoperimetric_constant,
    lengths_and_area,
    radial_stretch,
    regularity_report,
    sup_over_circles,
    validate_field,
)
from qcreg.bounds import _map_rows, distortion_average, distortion_integrand
from qcreg.quadrature import MAX_BATCH_NODES, TIE_ULPS, SupResult, _argmax_stable, level_nodes

from conftest import FAMILIES, PROFILE_RADII, ring_domain, wavy_grid

#: largest distance in units in the last place between a batched and a lone value
ULPS = 0

CFG = QuadratureConfig()

#: mu = KAPPA z / conj(z) of the power families, KAPPA = s / (s + 2) for
#: f(z) = z |z|^s, and the constant mu = b / a of the affine map
KAPPA = {
    "radial_stretch": (1 / 2.5 - 1) / (1 / 2.5 + 1),
    "spiral": 1.2j / (2 + 1.2j),
    "power_spiral": (-0.4 + 0.8j) / (1.6 + 0.8j),
}
AFFINE_MU = 0.3 - 0.2j

#: largest relative error allowed against a closed form
ORACLE_TOL = 1e-12


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
        circles = ring_domain().admissible_circles()
        values = distortion_average(field, circles, CFG)
        lone_levels = {}
        lone = {c: lone_distortion(field, c, lone_levels) for c in circles}
        assert_close_in_ulps(zip(circles, values), lone)
        assert batch_levels == lone_levels

    @pytest.mark.parametrize("name", FAMILIES)
    def test_roundness_values_and_levels(self, name, batch_levels):
        # the A row of the one C and A pass; the distortion row never outlasts
        # the speed and Green rows, so every circle is evaluated at the levels
        # of its lone roundness
        model = FAMILIES[name]
        circles = ring_domain().admissible_circles()
        _, roundness, _ = _map_rows(model, model.beltrami, circles, CFG)
        lone_levels = {}
        lone = {c: lone_roundness(model, c, lone_levels) for c in circles}
        assert_close_in_ulps(zip(circles, roundness), lone)
        assert batch_levels == lone_levels


class TestOnePassForCAndA:
    """A map's C and A come from one pass over its circles: the distortion,
    speed and Green rows are stacked, each with its own convergence test,
    and `sup_over_circles` reduces the C and A rows."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_per_circle_values_equal_the_separate_passes(self, name):
        model = FAMILIES[name]
        domain = ring_domain()
        circles = domain.admissible_circles()
        rows = _map_rows(model, model.beltrami, circles, CFG)
        assert rows[0].tobytes() == distortion_average(model.beltrami, circles, CFG).tobytes()
        report = regularity_report(model, domain, CFG)
        c_sup = SupResult(report.distortion_sup, report.distortion_argmax)
        a_sup = SupResult(report.isoperimetric_sup, report.isoperimetric_argmax)
        for sup, row in zip((c_sup, a_sup), rows):
            assert sup == SupResult(row.max(), circles[_argmax_stable(circles, row.tolist())])
        assert c_sup == distortion_constant(model.beltrami, domain, CFG)
        assert a_sup == isoperimetric_constant(model, domain, CFG)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_levels_are_those_of_the_a_pass(self, name, batch_levels):
        # the distortion row never outlasts the speed and Green rows of a
        # catalog map, so the map is evaluated where those rows alone are
        model = FAMILIES[name]
        domain = ring_domain()
        isoperimetric_constant(model, domain, CFG)
        assert batch_levels == family_levels(speed_and_green(model), domain.admissible_circles())


def speed_and_green(model):
    """Integrand of the speed and Green rows alone, written on the nodes."""

    def integrand(nodes):
        z = nodes.points
        f_x, f_y = model.partials(z)
        dgamma = nodes.radius * (-np.sin(nodes.theta) * f_x + np.cos(nodes.theta) * f_y)
        return np.stack((np.abs(dgamma), (np.conj(model.value(z)) * dgamma).imag))

    return integrand


def length_formula(model):
    """Integrand of the distortion-weighted length row alone."""

    def integrand(nodes):
        z = nodes.points
        weight = distortion_integrand(model.beltrami(z), nodes.unit)
        return np.sqrt(weight) * np.sqrt(model.jacobian(z)) * nodes.radius

    return integrand


def family_levels(integrand, circles):
    """Number of doubling levels at which each circle of a family average of
    `integrand` is evaluated."""
    levels = {}

    def recorded(nodes):
        for c in nodes.circles:
            levels[c] = levels.get(c, 0) + 1
        return integrand(nodes)

    circular_average(recorded, circles, CFG)
    return levels


class TestClosedForms:
    """Every catalog family has a closed-form circle average: mu = kappa z / conj(z)
    averages, with the distortion weight, to
    C(c, r) = (1 + |kappa|^2 - 2 Re kappa q) / (1 - |kappa|^2), q = max(0, 1 - |c|^2 / r^2),
    and a constant mu to (1 + |mu|^2) / (1 - |mu|^2). An affine map sends
    every circle to the same ellipse, and a power map every origin circle to
    a circle, so their A is closed form too."""

    @pytest.mark.parametrize("name", KAPPA)
    def test_power_family_distortion_on_every_circle(self, name):
        kappa = KAPPA[name]
        circles = ring_domain().admissible_circles()
        center = np.array([c.center for c in circles])
        radius = np.array([c.radius for c in circles])
        q = np.maximum(0.0, 1.0 - np.abs(center) ** 2 / radius**2)
        exact = (1 + abs(kappa) ** 2 - 2 * kappa.real * q) / (1 - abs(kappa) ** 2)
        got = distortion_average(FAMILIES[name].beltrami, circles, CFG)
        assert np.abs(got / exact - 1).max() <= ORACLE_TOL

    def test_affine_distortion_on_every_circle(self):
        exact = (1 + abs(AFFINE_MU) ** 2) / (1 - abs(AFFINE_MU) ** 2)
        got = distortion_average(FAMILIES["affine"].beltrami,
                                 ring_domain().admissible_circles(), CFG)
        assert np.abs(got / exact - 1).max() <= ORACLE_TOL

    def test_affine_roundness_is_the_ellipse_on_every_circle(self):
        # f(z) = z + b conj(z): semi-axes (1 + |b|) r and (1 - |b|) r, so
        # A = 4 pi (pi a_s b_s) / (4 a_s E(m))^2 with m = 1 - (b_s / a_s)^2
        ratio = (1 - abs(AFFINE_MU)) / (1 + abs(AFFINE_MU))
        exact = np.pi**2 * ratio / (4 * ellipe(1 - ratio**2) ** 2)
        model = FAMILIES["affine"]
        _, got, _ = _map_rows(model, model.beltrami, ring_domain().admissible_circles(), CFG)
        assert np.abs(got / exact - 1).max() <= ORACLE_TOL

    @pytest.mark.parametrize("name", KAPPA)
    def test_power_family_roundness_is_one_on_origin_circles(self, name):
        model = FAMILIES[name]
        origin = [c for c in ring_domain().admissible_circles() if c.center == 0]
        assert len(origin) == 32
        _, got, _ = _map_rows(model, model.beltrami, origin, CFG)
        assert np.abs(got - 1).max() <= ORACLE_TOL



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
        # all three rows of the profile pass, on the circles of the C and A pass
        model = FAMILIES[name]
        assert_family_equals_lone(
            lambda circles: lengths_and_area(model, circles, CFG),
            ring_domain().admissible_circles(),
        )

    @pytest.mark.parametrize("name", FAMILIES)
    def test_length_formula_rows(self, name):
        # all three rows of the profile pass, on the profile circles
        model = FAMILIES[name]
        circles = [CircleSpec(0j, float(t)) for t in PROFILE_RADII]
        assert_family_equals_lone(lambda family: lengths_and_area(model, family, CFG), circles)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_profile_pass_levels_are_those_of_the_slower_route(self, name, batch_levels):
        # each circle is evaluated at the levels of the slower of the speed and
        # Green rows and the length formula, so no map point is added
        model = FAMILIES[name]
        circles = [CircleSpec(0j, float(t)) for t in PROFILE_RADII]
        lengths_and_area(model, circles, CFG)
        direct = family_levels(speed_and_green(model), circles)
        formula = family_levels(length_formula(model), circles)
        assert batch_levels == {c: max(direct[c], formula[c]) for c in circles}

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
        circles = DomainSpec(centers=(0j,), radii=(0.2, 0.4, 0.6)).admissible_circles()
        res = sup_over_circles(circles, [below, top, 1.0])
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
        # the 32 annulus increments' 10 rings each and the whole disk's first
        # two octaves are evaluated together, in batches under the cap; the
        # power-law tail has settled after one more octave of 10 rings
        assert max(sizes) <= MAX_BATCH_NODES
        assert sum(sizes) == 98048  # the points of TestWorkCounts, in fewer calls
        # both the 33 circles of the profile's one boundary pass and the 350
        # rings settle at the first level on the Fourier tail of their 256
        # angles, evaluated in batches of as many whole rows as the cap holds
        batches = lambda rows: math.ceil(rows / (MAX_BATCH_NODES // CFG.nodes))
        assert len(sizes) == batches(33) + batches(340) + batches(10)


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
