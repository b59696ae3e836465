import math

import numpy as np
import pytest

import qcreg.bounds
import qcreg.quadrature
from qcreg import (
    CircleSpec,
    ConfigError,
    DomainSpec,
    NumericalError,
    QuadratureConfig,
    circular_average,
    radial_stretch,
    regularity_report,
    spiral_map,
    sup_over_circles,
)
from qcreg.bounds import distortion_average, distortion_constant, distortion_integrand
from qcreg.plane import to_json
from qcreg.quadrature import MAX_CIRCLE_NODES, SupResult, level_nodes, refine

UNIT = CircleSpec(0j, 1.0)


def theta_average(f, cfg=QuadratureConfig()):
    """Average of f(theta) on the unit circle, as a family of one."""
    (value,) = circular_average(lambda nodes: f(nodes.theta)[None, :], [UNIT], cfg)
    return value


class TestConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=100)

    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=8)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)

    @pytest.mark.parametrize("rel_tol", [math.inf, math.nan, True, "1e-9", None], ids=repr)
    def test_rejects_a_tolerance_that_is_not_a_finite_real(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be a finite real number"):
            QuadratureConfig(rel_tol=rel_tol)

    def test_tolerance_is_stored_as_a_float(self):
        cfg = QuadratureConfig(rel_tol=np.float32(0.5))
        assert type(cfg.rel_tol) is float and to_json(cfg)["rel_tol"] == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [{"nodes": 16.5}, {"nodes": 256.0}, {"nodes": True}, {"nodes": "256"},
         {"max_doublings": 2.5}, {"max_doublings": True}, {"max_doublings": None}],
        ids=str,
    )
    def test_rejects_non_integers(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"nodes": 2**21, "max_doublings": 0}, {"nodes": 2**15, "max_doublings": 6},
         {"nodes": 16, "max_doublings": 17}, {"nodes": 2**50}, {"max_doublings": 10**12}],
        ids=str,
    )
    def test_rejects_rules_above_the_node_ceiling(self, kwargs):
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            QuadratureConfig(**kwargs)

    def test_rules_up_to_the_ceiling_are_valid(self):
        QuadratureConfig(nodes=512, max_doublings=6)  # the largest rule the tests use
        QuadratureConfig(nodes=MAX_CIRCLE_NODES, max_doublings=0)
        QuadratureConfig(nodes=16, max_doublings=16)

    def test_numpy_integers_stored_as_int(self):
        cfg = QuadratureConfig(nodes=np.int64(64), max_doublings=np.int32(3))
        assert type(cfg.nodes) is int and type(cfg.max_doublings) is int
        assert to_json(cfg) == {"nodes": 64, "max_doublings": 3, "rel_tol": 1e-9}


class TestCircularAverage:
    def test_constant(self):
        assert theta_average(lambda t: np.ones_like(t)) == pytest.approx(1.0)

    def test_cosine_averages_to_zero(self):
        assert abs(theta_average(np.cos)) <= 1e-15

    def test_distortion_style_integrand(self):
        # oracle: mean over theta of |1 - c e^{-2 i theta}|^2 = 1 + |c|^2
        # for c = 1/3 that is 10/9; cross-checked against a 2^16-node sum
        c = 1 / 3
        integrand = lambda t: np.abs(1 - c * np.exp(-2j * t)) ** 2
        got = theta_average(integrand)
        assert got == pytest.approx(10 / 9, abs=1e-13)
        theta = 2 * np.pi * (np.arange(2**16) + 0.5) / 2**16
        assert got == pytest.approx(float(integrand(theta).mean()), abs=1e-13)

    @pytest.mark.parametrize("degree", [1, 3, 17, 127])
    def test_exact_for_trig_polynomials(self, degree, rng):
        # trapezoid with any phase offset integrates e^{i k theta} exactly
        # for 0 < k < nodes, so polynomials below degree nodes/2 are exact
        coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)

        def poly(theta):
            acc = np.full_like(theta, 2.0)
            for k, c in enumerate(coeffs, start=1):
                acc = acc + (c * np.exp(1j * k * theta)).real
            return acc

        cfg = QuadratureConfig(nodes=256, max_doublings=0)
        assert theta_average(poly, cfg) == pytest.approx(2.0, abs=1e-13)

    def test_doubling_converges_smooth(self):
        cfg = QuadratureConfig(nodes=16, max_doublings=10, rel_tol=1e-12)
        got = theta_average(lambda t: np.exp(np.sin(t)), cfg)
        theta = 2 * np.pi * (np.arange(2**15) + 0.5) / 2**15
        assert got == pytest.approx(float(np.exp(np.sin(theta)).mean()), rel=1e-11)

    def test_doubling_changes_catalog_integrand_below_tol(self):
        entry = radial_stretch(2.0)
        cfg_a = QuadratureConfig(nodes=256, max_doublings=6, rel_tol=1e-9)
        cfg_b = QuadratureConfig(nodes=512, max_doublings=6, rel_tol=1e-9)
        circle = CircleSpec(0j, 0.5)
        (a,) = distortion_average(entry.map.beltrami, [circle], cfg_a)
        (b,) = distortion_average(entry.map.beltrami, [circle], cfg_b)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_nonfinite_integrand_names_node(self):
        def bad(theta):
            out = np.ones_like(theta)
            out[3] = np.inf
            return out

        with pytest.raises(NumericalError) as err:
            theta_average(bad, QuadratureConfig(max_doublings=0))
        assert "theta" in str(err.value)

    def test_overflowing_average_names_the_circle(self):
        # every node is finite, their sum is not
        with pytest.raises(NumericalError, match="average overflows on circle") as err:
            theta_average(lambda t: np.full_like(t, 1e308), QuadratureConfig(max_doublings=0))
        assert err.value.circle is not None


def node_index(theta):
    """The integers i of theta = 2 pi (i + 1/2) / MAX_CIRCLE_NODES."""
    x = theta * (MAX_CIRCLE_NODES / (2.0 * np.pi)) - 0.5
    index = np.rint(x)
    assert np.abs(x - index).max() < 1e-6
    return index.astype(np.int64)


#: every rule size a config can reach, 16 to MAX_CIRCLE_NODES
RULE_SIZES = [1 << k for k in range(4, MAX_CIRCLE_NODES.bit_length())]

#: a configuration whose rows converge only where successive levels agree bitwise
NO_EARLY_STOP = QuadratureConfig(nodes=16, max_doublings=5, rel_tol=1e-300)


class TestNestedRule:
    # level_nodes.__wrapped__ skips the cache, so the large levels are not kept

    @pytest.mark.parametrize("n0, doublings", [(16, 10), (256, 6), (1 << 13, 7)])
    def test_levels_are_disjoint_and_make_up_the_finest_rule(self, n0, doublings):
        levels = [node_index(level_nodes.__wrapped__(n0 << k, k == 0)[0])
                  for k in range(doublings + 1)]
        assert [index.size for index in levels] == [n0] + [n0 << (k - 1)
                                                           for k in range(1, doublings + 1)]
        union = np.concatenate(levels)
        assert np.unique(union).size == union.size  # pairwise disjoint
        n = n0 << doublings
        assert np.array_equal(np.sort(union), np.arange(n) * (MAX_CIRCLE_NODES // n))

    @pytest.mark.parametrize("first", [True, False])
    def test_no_node_on_an_axis(self, first):
        half_step = np.pi / MAX_CIRCLE_NODES
        for n in RULE_SIZES:
            theta, unit = level_nodes.__wrapped__(n, first)
            to_axis = np.mod(theta, np.pi / 2)
            assert np.minimum(to_axis, np.pi / 2 - to_axis).min() >= 0.99 * half_step, n
            assert (unit.real != 0).all() and (unit.imag != 0).all(), n

    @pytest.mark.parametrize("degree", [20, 200, 600])
    def test_nested_average_is_the_one_shot_mean_of_trig_polynomials(self, degree, rng):
        coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        coeffs /= np.abs(coeffs).sum()  # values in [1, 3], mean 2
        k = np.arange(1, degree + 1)
        poly = lambda theta: 2.0 + (np.exp(1j * np.outer(theta, k)) @ coeffs).real
        theta, _ = level_nodes(NO_EARLY_STOP.nodes << NO_EARLY_STOP.max_doublings, True)
        one_shot = float(poly(theta).mean())
        assert abs(theta_average(poly, NO_EARLY_STOP) - one_shot) <= 4 * math.ulp(one_shot)

    def test_nested_average_is_the_one_shot_mean_of_a_catalog_integrand(self):
        field = spiral_map(1.2).map.beltrami
        circle = CircleSpec(0.3 + 0.1j, 0.5)
        _, unit = level_nodes(NO_EARLY_STOP.nodes << NO_EARLY_STOP.max_doublings, True)
        one_shot = float(distortion_integrand(field(circle.center + circle.radius * unit),
                                              unit).mean())
        (nested,) = distortion_average(field, [circle], NO_EARLY_STOP)
        assert abs(nested - one_shot) <= 4 * math.ulp(one_shot)


class ScriptedEvaluate:
    """An `evaluate` for `refine` that reads each row's estimate per level from
    a script, {(row, item): [estimate at level 0, level 1, ...]}, and records
    its calls as (node count, items, refining mask)."""

    def __init__(self, script, nodes):
        self.script, self.nodes, self.calls = script, nodes, []
        self.rows = 1 + max(row for row, _ in script)

    def __call__(self, n, items, refining):
        self.calls.append((n, items.tolist(), np.array(refining)))
        level = (n // self.nodes).bit_length() - 1
        return np.array([[self.script[row, i][level] for i in items] for row in range(self.rows)])


class TestRefine:
    CFG = QuadratureConfig(nodes=16, max_doublings=4)
    # item 0: row 0 converges at level 2, row 1 at level 1, so it leaves after level 2
    # item 1: row 0 converges at level 1 (its later values must not count),
    #         row 1 at level 4, the last level
    # item 2: row 0 never converges, row 1 converges at level 1
    SCRIPT = {
        (0, 0): [1.0, 2.0, 2.0, 5.0, 7.0], (1, 0): [3.0, 3.0, 8.0, 8.0, 8.0],
        (0, 1): [1.0, 1.0, 9.0, 9.0, 9.0], (1, 1): [1.0, 2.0, 3.0, 4.0, 4.0],
        (0, 2): [1.0, 2.0, 3.0, 4.0, 5.0], (1, 2): [0.0, 0.0, 6.0, 6.0, 6.0],
    }

    def run(self):
        evaluate = ScriptedEvaluate(self.SCRIPT, self.CFG.nodes)
        return refine(evaluate, 3, self.CFG), evaluate.calls

    def test_each_row_keeps_the_value_of_its_converged_level(self):
        est, _ = self.run()
        assert est.tolist() == [[2.0, 1.0, 5.0], [3.0, 4.0, 0.0]]

    def test_converged_items_are_not_evaluated_again(self):
        _, calls = self.run()
        assert [(n, items) for n, items, _ in calls] == [
            (16, [0, 1, 2]), (32, [0, 1, 2]), (64, [0, 1, 2]), (128, [1, 2]), (256, [1, 2]),
        ]

    def test_evaluate_receives_the_refining_mask(self):
        _, calls = self.run()
        masks = [mask.tolist() for _, _, mask in calls]
        assert masks == [
            [[True, True, True]],  # the first level: every row refines
            [[True, True, True], [True, True, True]],
            [[True, False, True], [False, True, False]],
            [[False, True], [True, False]],
            [[False, True], [True, False]],
        ]

    def test_an_item_that_never_converges_keeps_its_last_estimate(self):
        est, calls = self.run()
        assert sum(2 in items for _, items, _ in calls) == self.CFG.max_doublings + 1
        assert est[0, 2] == self.SCRIPT[0, 2][-1]

    def test_one_row_per_item(self):
        script = {(0, 0): [5.0, 5.0, 1.0], (0, 1): [1.0, 2.0, 3.0]}
        evaluate = ScriptedEvaluate(script, 16)

        def one_row(n, items, refining):
            return evaluate(n, items, refining)[0]

        est = refine(one_row, 2, QuadratureConfig(nodes=16, max_doublings=2))
        assert est.shape == (2,) and est.tolist() == [5.0, 3.0]

    def test_tolerance_is_relative_with_a_floor_of_one(self):
        # 1e3 -> 1e3 + 5e-7 moves by 5e-10 relative, 1e-12 -> 9e-10 by less
        # than 1e-9 absolute: both converge; 1 -> 1 + 2e-9 moves by 2e-9
        script = {(0, 0): [1e3, 1e3 + 5e-7, 0.0], (0, 1): [1e-12, 9e-10, 0.0],
                  (0, 2): [1.0, 1.0 + 2e-9, 1.0 + 2e-9]}
        evaluate = ScriptedEvaluate(script, 16)
        refine(evaluate, 3, QuadratureConfig(nodes=16, max_doublings=2, rel_tol=1e-9))
        assert [items for _, items, _ in evaluate.calls] == [[0, 1, 2], [0, 1, 2], [2]]


class TestSupOverCircles:
    def test_constant_functional(self, domain):
        circles = domain.admissible_circles()
        res = sup_over_circles(circles, [4.5] * len(circles))
        assert res.value == 4.5
        # every circle ties, so the smallest radius (then center) wins
        first = min(circles, key=lambda c: (c.radius, c.center.real, c.center.imag))
        assert res == SupResult(4.5, first)

    def test_stacked_rows_are_reduced_one_by_one(self, domain):
        circles = domain.admissible_circles()
        radius = np.array([c.radius for c in circles])
        rows = np.stack((radius, -radius, np.full(radius.size, 2.0)))
        stacked = sup_over_circles(circles, rows)
        assert isinstance(stacked, tuple) and len(stacked) == 3
        for sup, row in zip(stacked, rows):
            assert sup == sup_over_circles(circles, row)
        assert stacked[0].argmax.radius == radius.max()
        assert stacked[1].argmax.radius == radius.min()

    def test_non_finite_stacked_value_names_the_first_bad_row_and_circle(self, domain):
        circles = domain.admissible_circles()
        rows = np.ones((2, len(circles)))
        rows[1, 1] = np.nan
        rows[1, 3] = np.inf
        with pytest.raises(NumericalError) as err:
            sup_over_circles(circles, rows)
        assert err.value.circle == circles[1]

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (1, 2, 3)])
    def test_values_of_the_wrong_shape_are_rejected(self, shape):
        circles = DomainSpec(centers=(0j,), radii=(0.2, 0.4)).admissible_circles()
        with pytest.raises(ValueError, match="expected 2 values per row"):
            sup_over_circles(circles, np.zeros(shape))

    def test_no_circle_is_rejected(self):
        with pytest.raises(ValueError):
            sup_over_circles([], [])

    def test_radius_functional_peaks_at_largest(self):
        dom = DomainSpec(centers=(0j,), radii=tuple(np.linspace(0.1, 1.0, 10)))
        circles = dom.admissible_circles()
        res = sup_over_circles(circles, [c.radius for c in circles])
        assert res.value == pytest.approx(1.0)
        assert res.argmax.radius == pytest.approx(1.0)

    def test_constant_distortion_for_radial_stretch(self, domain, cfg):
        entry = radial_stretch(2.0)
        values = distortion_average(entry.map.beltrami, domain.admissible_circles(), cfg)
        assert np.allclose(values, 2.0, atol=1e-12)
        res = distortion_constant(entry.map.beltrami, domain, cfg)
        assert res.value == values.max()

    @pytest.mark.parametrize("subject", ["field", "map"])
    def test_empty_admissible_set_is_error_before_any_average(self, subject, monkeypatch):
        def no_average(*args, **kwargs):
            raise AssertionError("an average ran")

        for module in (qcreg.bounds, qcreg.quadrature):
            monkeypatch.setattr(module, "circular_average", no_average)
        dom = DomainSpec(centers=(5 + 0j,), radii=(0.5,), outer_radius=1.0)
        entry = radial_stretch(2.0)
        with pytest.raises(ConfigError, match="no admissible circle fits"):
            regularity_report(entry.map if subject == "map" else entry.map.beltrami, dom)

    def test_permutation_invariance(self, rng):
        radii = tuple(np.geomspace(0.1, 0.9, 12))
        dom = DomainSpec(centers=(0j, 0.05 + 0.05j), radii=radii)
        fn = lambda c: np.sin(7 * c.radius) + 0.1 * c.center.real
        circles = dom.admissible_circles()
        base = sup_over_circles(circles, [fn(c) for c in circles])

        perm = rng.permutation(len(circles))
        shuffled = [circles[i] for i in perm]
        values = [fn(c) for c in shuffled]
        assert max(values) == pytest.approx(base.value, abs=0)
