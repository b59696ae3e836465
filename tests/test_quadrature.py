import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qcreg.bounds
import qcreg.geometry
import qcreg.quadrature
from qcreg import (
    CircleSpec,
    ConfigError,
    DomainSpec,
    NumericalError,
    QuadratureConfig,
    affine_map,
    circular_average,
    geometry_profile,
    image_area_jacobian,
    radial_stretch,
    regularity_report,
    spiral_map,
    sup_over_circles,
    validate_field,
)
from qcreg.bounds import distortion_average, distortion_constant, distortion_integrand
from qcreg.plane import to_json
from qcreg.quadrature import (MAX_CIRCLE_NODES, CircleNodes, SupResult, level_nodes, refine,
                              tail_settled)

from conftest import FAMILIES, PROFILE_RADII, ring_domain, wavy_grid

UNIT = CircleSpec(0j, 1.0)


def counted_average(f, cfg):
    """Average of f(theta) on the unit circle as a family of one, and the
    number of levels it was evaluated at."""
    calls = []

    def integrand(nodes):
        calls.append(nodes.theta.size)
        return f(nodes.theta)[None, :]

    (value,) = circular_average(integrand, [UNIT], cfg)
    return value, len(calls)


def theta_average(f, cfg=QuadratureConfig()):
    """Average of f(theta) on the unit circle, as a family of one."""
    return counted_average(f, cfg)[0]


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


def trig_row(ks, amplitude=1e-6):
    """2 + amplitude * sum of cos(k theta) over the frequencies ks: mean 2."""
    ks = np.asarray(ks, dtype=float)
    return lambda theta: 2.0 + amplitude * np.cos(np.outer(theta, ks)).sum(axis=1)


class TestFourierTailRule:
    """A row settles at its first level exactly when its discrete Fourier
    coefficients with N/4 <= k <= N/2 are all at most rel_tol max(1, |mean|)."""

    @pytest.mark.parametrize("nodes", [16, 256])
    def test_a_constant_settles_at_the_first_level_with_its_mean(self, nodes):
        cfg = QuadratureConfig(nodes=nodes)
        assert counted_average(lambda t: np.full(t.size, 2.5), cfg) == (2.5, 1)

    @pytest.mark.parametrize("nodes", [16, 256])
    def test_a_trig_polynomial_below_a_quarter_of_the_nodes_settles(self, nodes, rng):
        degree = nodes // 4 - 1
        coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        k = np.arange(1, degree + 1)
        poly = lambda theta: 2.0 + (np.exp(1j * np.outer(theta, k)) @ coeffs).real
        value, levels = counted_average(poly, QuadratureConfig(nodes=nodes))
        assert levels == 1
        assert abs(value - 2.0) <= 1e-14

    @pytest.mark.parametrize("nodes", [16, 256])
    def test_content_anywhere_in_the_upper_half_does_not_settle(self, nodes):
        cfg = QuadratureConfig(nodes=nodes)
        theta, _ = level_nodes(nodes, True)
        for k in range(nodes // 4, nodes // 2 + 1):
            rows = trig_row([k])(theta)[None]
            assert not tail_settled(rows, cfg.rel_tol * np.abs(rows.mean(axis=-1))).any(), k
        # through the average: the doubling test settles it one level later
        for k in (nodes // 4, nodes // 2):
            value, levels = counted_average(trig_row([k]), cfg)
            assert levels == 2 and abs(value - 2.0) <= 1e-15

    @pytest.mark.parametrize("mean, amplitude, settles", [
        (1e-3, 1.9e-9, True), (1e-3, 2.1e-9, False),  # a floor of 1 below |mean| = 1
        (1e3, 1.9e-6, True), (1e3, 2.1e-6, False),  # relative to |mean| above it
    ])
    def test_the_tail_is_judged_at_rel_tol_max_1_mean(self, mean, amplitude, settles):
        # a cos(80 theta) term has the coefficient amplitude / 2 at k = 80
        cfg = QuadratureConfig()
        row = lambda t: mean + amplitude * np.cos(80 * t)
        assert counted_average(row, cfg)[1] == (1 if settles else 2)

    def test_a_row_whose_top_coefficient_vanishes_does_not_settle(self):
        cfg = QuadratureConfig()
        n = cfg.nodes
        row = trig_row(range(n // 4, n // 2))  # every upper frequency but N/2
        theta, _ = level_nodes(n, True)
        coeffs = np.abs(np.fft.rfft(row(theta))) / n
        assert coeffs[n // 2] <= 1e-15 < 1e-7 <= coeffs[n // 4:n // 2].min()
        assert not tail_settled(row(theta)[None], [cfg.rel_tol * 2.0])[0]
        value, levels = counted_average(row, cfg)
        assert levels == 2 and abs(value - 2.0) <= 1e-14

    def test_a_row_whose_transform_overflows_does_not_settle(self):
        cfg = QuadratureConfig(nodes=256, max_doublings=1)
        theta, _ = level_nodes(cfg.nodes, True)
        # a square wave of +-1e308 that flips every 8 nodes: each partial sum
        # of numpy's 8-way pairwise mean stays finite and the mean is 0, but
        # its low harmonics sum N / 2 nodes of 1e308
        huge = lambda t: np.where(np.arange(t.size) // 8 % 2, -1e308, 1e308)
        with np.errstate(all="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = huge(theta)[None]
            mean = samples.mean(axis=-1)
            assert mean.tolist() == [0.0]
            with np.errstate(all="ignore"):
                assert not np.isfinite(np.fft.rfft(samples)).all()
            assert not tail_settled(samples, cfg.rel_tol * np.maximum(1.0, np.abs(mean)))[0]
            # huge at the first level only: the second level is evaluated
            _, levels = counted_average(lambda t: huge(t) if t.size == cfg.nodes else 0 * t, cfg)
            assert levels == 2

    def test_a_term_at_a_multiple_of_the_node_count_is_the_rules_limit(self):
        # 1 + cos(N theta) samples as a constant near 2 on the first level's
        # N nodes: its upper spectrum is empty, so it settles there at the
        # aliased value; the doubling test sees the term once the upper
        # spectrum keeps the row refining
        cfg = QuadratureConfig()
        n = cfg.nodes
        aliased = lambda t: 1.0 + np.cos(n * t)
        value, levels = counted_average(aliased, cfg)
        assert levels == 1 and abs(value - 2.0) <= 1e-6
        wobbled = lambda t: aliased(t) + 1e-6 * np.cos(n // 2 * t)
        value, levels = counted_average(wobbled, cfg)
        assert levels == 3 and abs(value - 1.0) <= 1e-15


class FirstLevel:
    """Records every circular average a run takes: its integrand, and for each
    circle the samples of its rows at the first level, their settle decisions
    and the values returned; and every ring of the Jacobian areas whose first
    angular level was tested: its center, radius, mean and decision."""

    def __init__(self, monkeypatch):
        self.averages, self.rings = [], []
        average = qcreg.quadrature.circular_average
        settle = qcreg.quadrature.tail_settled
        ring_mean = qcreg.geometry._ring_mean_jacobian

        def recording_settle(rows, bound):
            settled = settle(rows, bound)
            record = self.averages[-1]
            for j, circle in enumerate(record["batch"]):
                record["rows"][circle] = (rows[:, j], settled[:, j])
            return settled

        def recording_average(integrand, circles, cfg=QuadratureConfig()):
            record = {"integrand": integrand, "rows": {}, "batch": ()}
            self.averages.append(record)

            def recorded(nodes):
                record["batch"] = nodes.circles
                return integrand(nodes)

            values = average(recorded, circles, cfg)
            record["values"] = dict(zip(circles, np.atleast_2d(values).T))
            return values

        def recording_ring_mean(map_model, center, radii, unit, rel_tol=None):
            mean, settled = ring_mean(map_model, center, radii, unit, rel_tol)
            if settled is not None:
                self.rings.extend((map_model, c, r, m, s)
                                  for c, r, m, s in zip(center, radii, mean, settled))
            return mean, settled

        monkeypatch.setattr(qcreg.quadrature, "tail_settled", recording_settle)
        monkeypatch.setattr(qcreg.geometry, "_ring_mean_jacobian", recording_ring_mean)
        for name, module in list(sys.modules.items()):
            if name.startswith("qcreg") and getattr(module, "circular_average", None) is average:
                monkeypatch.setattr(module, "circular_average", recording_average)

    def decisions(self):
        """{circle: settle decision per row} of every average, in order."""
        return [{c: settled.tolist() for c, (_, settled) in rec["rows"].items()}
                for rec in self.averages]


#: nodes of the one-shot oracle mean
ORACLE_NODES = 1 << 14


def oracle_means(integrand, circle):
    """Means of the integrand's rows over the first ORACLE_NODES-node rule."""
    theta, unit = level_nodes(ORACLE_NODES, True)
    nodes = CircleNodes((circle,), theta, unit, np.array([[circle.center]]),
                        np.array([[circle.radius]]))
    vals = np.asarray(integrand(nodes), dtype=float)
    return (vals if vals.ndim == 3 else vals[None]).mean(axis=-1)[:, 0]


def assert_settled_circles_meet_the_oracle(record, cfg):
    """Every settled row returns its first level's mean, within rel_tol
    max(1, |v|) of the oracle; returns the number of settled rows."""
    count = 0
    for circle, (rows, settled) in record["rows"].items():
        if not settled.any():
            continue
        first = rows.mean(axis=-1)
        value = record["values"][circle]
        oracle = oracle_means(record["integrand"], circle)
        for i in np.flatnonzero(settled):
            assert value[i] == first[i], (circle, i)
            assert abs(value[i] - oracle[i]) <= cfg.rel_tol * max(1.0, abs(value[i])), (circle, i)
            count += 1
    return count


class TestSettledAgainstTheOracle:
    """Every row and ring the first level settles is within the tolerance of
    a one-shot 2**14-node mean: one catalog subject per family on the
    catalog-batch domain and profile radii, and sampled mu grids."""

    CFG = QuadratureConfig()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_catalog_circles_and_rings(self, name, monkeypatch):
        model = FAMILIES[name]
        first = FirstLevel(monkeypatch)
        regularity_report(model, ring_domain(), self.CFG)
        geometry_profile(model, PROFILE_RADII, self.CFG, K=validate_field(model.beltrami).distortion_ratio)
        assert len(first.averages) == 2  # the C and A pass, the profile pass
        settled = [assert_settled_circles_meet_the_oracle(rec, self.CFG) for rec in first.averages]
        assert min(settled) > 0
        _, unit = level_nodes(ORACLE_NODES, True)
        rings = [ring for ring in first.rings if ring[4]]
        assert rings
        for map_model, center, radius, mean, _ in rings:
            oracle = float(map_model.jacobian(center + radius * unit).mean())
            assert abs(mean - oracle) <= self.CFG.rel_tol * abs(mean), (center, radius)

    @pytest.mark.parametrize("interpolation", ["nearest", "bilinear"])
    def test_sampled_grid_circles(self, interpolation, monkeypatch):
        field = validate_field(wavy_grid(interpolation, n=33).as_beltrami())
        # small circles inside one cell settle, larger ones cross cell edges
        domain = DomainSpec(centers=(0j, 0.3 + 0.2j, -0.41 + 0.1j),
                            radii=tuple(np.geomspace(0.005, 1.0, 16)))
        first = FirstLevel(monkeypatch)
        distortion_average(field, domain.admissible_circles(), self.CFG)
        (record,) = first.averages
        assert assert_settled_circles_meet_the_oracle(record, self.CFG) > 0
        assert not all(settled.all() for _, settled in record["rows"].values())


class TestSettleDecisionsFamilyEqualsLone:
    """On the catalog-batch domain each circle's settle decisions and values
    are those of its family of one, bit for bit."""

    CFG = QuadratureConfig()

    @pytest.mark.parametrize("name", FAMILIES)
    def test_c_and_a_pass(self, name, monkeypatch):
        model = FAMILIES[name]
        circles = ring_domain().admissible_circles()
        first = FirstLevel(monkeypatch)
        family = qcreg.bounds._map_rows(model, model.beltrami, circles, self.CFG)
        lone = np.column_stack([qcreg.bounds._map_rows(model, model.beltrami, [c], self.CFG)
                                for c in circles])
        assert family.tobytes() == lone.tobytes()
        (together,), alone = first.decisions()[:1], first.decisions()[1:]
        assert together == {c: d for one in alone for c, d in one.items()}
        # the rule settles some rows and leaves others to the doubling test;
        # every row of the affine map is a trigonometric polynomial and settles
        flat = [s for d in together.values() for s in d]
        assert any(flat) and (name == "affine" or not all(flat))

    @pytest.mark.parametrize("name", FAMILIES)
    def test_ring_jacobians(self, name, monkeypatch):
        model = FAMILIES[name]
        disks = [CircleSpec(0j, float(t)) for t in PROFILE_RADII]
        inner = np.concatenate(([0.0], PROFILE_RADII[:-1]))
        first = FirstLevel(monkeypatch)
        family = image_area_jacobian(model, disks, self.CFG, r_inner=inner)
        together, first.rings = first.rings, []
        lone = [image_area_jacobian(model, disks[i:i + 1], self.CFG, r_inner=inner[i:i + 1])[0]
                for i in range(len(disks))]
        assert family.tobytes() == np.array(lone).tobytes()
        key = lambda ring: (ring[2], ring[3], ring[4])
        assert sorted(map(key, together)) == sorted(map(key, first.rings))


class TestRingIntegralsSettleTogether:
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    def test_an_integral_settles_only_when_all_its_rings_do(self, scale, monkeypatch):
        # J = scale (1 + 5e-9 cos(100 theta)) beyond |z| = 0.55 and scale
        # inside: the term lies in the upper half of the 256-node spectrum,
        # its coefficient 2.5 rel_tol times the ring's own mean, with no floor
        # of 1, so the annulus [0.2, 0.4] has only smooth rings and
        # [0.45, 0.65] smooth and rough ones
        model = affine_map(1.0, 0.0).map
        jacobian = lambda z: scale * (1.0 + np.where(np.abs(z) > 0.55,
                                                     5e-9 * np.cos(100 * np.angle(z)), 0.0))
        calls = []

        def recorded(z):
            calls.append(np.abs(z))
            return jacobian(z)

        first = FirstLevel(monkeypatch)
        disks = [CircleSpec(0j, 0.4), CircleSpec(0j, 0.65)]
        areas = image_area_jacobian(replace(model, jacobian=recorded), disks, QuadratureConfig(),
                                    r_inner=[0.2, 0.45])
        outer = [s for _, _, r, _, s in first.rings if r > 0.45]  # settle decisions
        assert any(outer) and not all(outer)
        assert all(s for _, _, r, _, s in first.rings if r < 0.45)
        # the first level takes both annuli in one call; the rough annulus
        # alone refines, only its rough rings, and converges at the second
        # level, its settled rings keeping their first means
        assert len(calls) == 2
        assert (calls[0] < 0.41).any() and (calls[0] > 0.44).any()
        assert (calls[1] > 0.44).all() and calls[1].shape[0] == outer.count(False) < 10
        exact = scale * np.pi * np.array([0.4**2 - 0.2**2, 0.65**2 - 0.45**2])
        assert np.abs(areas / exact - 1).max() <= 1e-13


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
