"""One boundary pass per circle: shared results equal the separate routes bit for bit.

Every comparison here is exact (`==`): stacking integrands, reusing a
profile's Green areas or a precomputed supremum must not move a single ULP,
because the reports are promised byte-identical.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

import qcreg.bounds
import qcreg.elliptic
import qcreg.geometry
import qcreg.quadrature
import qcreg.reporting
from qcreg import (
    BeltramiField,
    CircleSpec,
    DomainSpec,
    MapModel,
    NumericalError,
    QuadratureConfig,
    affine_map,
    beltrami_of,
    build_config,
    circular_average,
    comparison_bounds,
    elliptic_holder_bound,
    empirical_holder,
    geometry_profile,
    image_area_green,
    lengths_and_area,
    matrix_field_from_function,
    matrix_from_beltrami,
    mori_consistency,
    power_spiral,
    radial_stretch,
    regularity_report,
    run_analysis,
    spiral_map,
    validate_matrix_field,
)
from qcreg.bounds import distortion_integrand
from qcreg.quadrature import CircleNodes, level_nodes

UNIT = CircleSpec(0j, 1.0)
CFG = QuadratureConfig(nodes=256, max_doublings=4)

MAPS = [
    radial_stretch(2.0).map,
    spiral_map(1.0).map,
    affine_map(1.0, 0.3 - 0.2j).map,
    power_spiral(0.6, 0.8).map,
]
MAP_IDS = ["radial_stretch", "spiral", "affine", "power_spiral"]
CIRCLES = [CircleSpec(0j, 0.05), CircleSpec(0j, 0.7), CircleSpec(0.4 + 0.0j, 0.3),
           CircleSpec(-0.2 + 0.3j, 0.15)]


def level_row(settle_at):
    """Row averaging to the rule size n until `settle_at` nodes, then constant.

    A later level's nodes carry 2 min(n, s) - min(n / 2, s), so the mean of
    the level before and theirs is min(n, s), exactly.
    """

    def row(theta, n):
        value = min(n, settle_at)
        if n > CFG.nodes:
            value = 2 * value - min(n // 2, settle_at)
        return np.full(theta.size, float(value))

    return row


def smooth_row(theta, n):
    return np.abs(1.0 - (1 / 3) * np.exp(-2j * theta)) ** 2 + 0.1 * np.cos(5 * theta)


def unit_average(f):
    """Averages of f(theta, n), one (N',) row or (k, N') rows at the angles a
    level evaluates, n the size of its whole rule, on UNIT as a family of one:
    a tuple of one float per row."""
    levels = []

    def integrand(nodes):
        levels.append(CFG.nodes << len(levels))  # one call per level
        return np.asarray(f(nodes.theta, levels[-1]))[..., None, :]

    est = circular_average(integrand, [UNIT], CFG)
    return tuple(est.reshape(-1).tolist())


class TestStackedAverage:
    def test_rows_converging_at_different_levels(self):
        rows = [smooth_row, level_row(512), level_row(1024), lambda t, n: 1.0 + np.cos(256 * t)]
        stacked = unit_average(lambda t, n: np.stack([r(t, n) for r in rows]))
        separate = tuple(unit_average(r)[0] for r in rows)
        assert stacked == separate
        assert stacked[1:3] == (512.0, 1024.0)

    def test_row_that_exhausts_the_budget(self):
        never = level_row(np.inf)
        rows = [smooth_row, never]
        stacked = unit_average(lambda t, n: np.stack([r(t, n) for r in rows]))
        separate = tuple(unit_average(r)[0] for r in rows)
        assert stacked == separate
        assert stacked[1] == CFG.nodes * 2.0**CFG.max_doublings

    def test_nan_in_a_converged_row_does_not_raise(self):
        def late_nan(theta, n):
            out = np.full(theta.size, 2.0)
            if n >= 1024:
                out[7] = np.nan
            return out

        stacked = unit_average(lambda t, n: np.stack([late_nan(t, n), level_row(2048)(t, n)]))
        assert stacked == (2.0, 2048.0)

    def test_nan_in_a_refining_row_names_the_node(self):
        def early_nan(theta, n):
            out = np.ones(theta.size)
            if n >= 512:
                out[3] = np.inf
            return out

        theta, _ = level_nodes(512, False)  # the angles the 512-node level adds
        with pytest.raises(NumericalError, match=f"theta = {theta[3]:.12g} on circle"):
            unit_average(lambda t, n: np.stack([early_nan(t, n), level_row(4096)(t, n)]))
        with pytest.raises(NumericalError, match=f"theta = {theta[3]:.12g} on circle"):
            unit_average(lambda t, n: np.stack([level_row(4096)(t, n), early_nan(t, n)]))

    def test_converged_rows_do_not_name_the_node(self):
        def nan_at(node, from_size):
            def row(theta, n):
                out = np.full(theta.size, 2.0)
                if n >= from_size:
                    out[node] = np.nan
                return out

            return row

        # row 0 converges at 512 nodes and turns NaN at node 1 from 1024 on;
        # row 1 is still refining when it turns NaN at node 5
        rows = [nan_at(1, 1024), lambda t, n: level_row(4096)(t, n) + nan_at(5, 1024)(t, n)]
        theta, _ = level_nodes(1024, False)
        with pytest.raises(NumericalError, match=f"theta = {theta[5]:.12g} on circle"):
            unit_average(lambda t, n: np.stack([r(t, n) for r in rows]))


class TestNodeCache:
    def test_cached_arrays_are_read_only(self):
        for first in (True, False):
            for arr in level_nodes(256, first):
                assert not arr.flags.writeable
            assert level_nodes(256, first) is level_nodes(256, first)

    @pytest.mark.parametrize("circle", CIRCLES)
    def test_circle_nodes_match_circle_at(self, circle):
        theta, unit = level_nodes(512, True)
        assert np.array_equal(unit, np.exp(1j * theta))
        nodes = CircleNodes((circle,), theta, unit,
                            np.array([[circle.center]]), np.array([[circle.radius]]))
        assert np.array_equal(nodes.points[0], circle.center + circle.radius * np.exp(1j * theta))


def single_route(model, circle, row):
    """Row `row` of `lengths_and_area` averaged alone on one circle, as its
    route was before the rows were stacked: 0 the speed |d gamma|, 1 the
    distortion-weighted length density, 2 the Green density."""

    def integrand(nodes):
        z, dgamma, _ = qcreg.geometry._boundary_data(model, nodes)
        if row == 0:
            return np.abs(dgamma)
        if row == 2:
            return qcreg.geometry._green_density(model, z, dgamma)
        weight = distortion_integrand(model.beltrami(z), nodes.unit)
        return np.sqrt(weight) * np.sqrt(model.jacobian(z)) * nodes.radius

    (value,) = circular_average(integrand, [circle], CFG)
    return value


class TestBoundaryPass:
    @pytest.mark.parametrize("model", MAPS, ids=MAP_IDS)
    @pytest.mark.parametrize("circle", CIRCLES)
    def test_length_and_area_equal_the_single_routes(self, model, circle):
        (length,), (formula,), (area,) = lengths_and_area(model, [circle], CFG)
        assert length == 2.0 * np.pi * single_route(model, circle, 0)
        assert formula == 2.0 * np.pi * single_route(model, circle, 1)
        assert area == np.pi * single_route(model, circle, 2)
        assert area == image_area_green(model, [circle], CFG)[0]
        # the A row of a map's C and A pass is the roundness of these rows
        (_, (ratio,)) = qcreg.bounds._map_rows(model, model.beltrami, [circle], CFG)
        assert ratio == 4.0 * np.pi * area / (length * length)

    @pytest.mark.parametrize("model", MAPS, ids=MAP_IDS)
    def test_geometry_profile_columns_equal_the_single_routes(self, model):
        radii = np.geomspace(0.01, 1.0, 6)
        prof = geometry_profile(model, radii, CFG)
        for i, t in enumerate(prof.radii):
            circle = CircleSpec(0j, float(t))
            assert prof.length_direct[i] == 2.0 * np.pi * single_route(model, circle, 0)
            assert prof.length_formula[i] == 2.0 * np.pi * single_route(model, circle, 1)
            assert prof.area_green[i] == image_area_green(model, [circle], CFG)[0]


def domain_with_offsets():
    return DomainSpec(centers=(0j, 0.3 + 0.1j), radii=tuple(np.geomspace(0.05, 0.6, 5)))


class TestNoSecondC:
    @pytest.mark.parametrize("model", MAPS, ids=MAP_IDS)
    def test_regularity_mori_equals_mori_consistency(self, model):
        domain = domain_with_offsets()
        rep = regularity_report(model, domain, CFG)
        assert rep.mori == mori_consistency(model.beltrami, domain, CFG)

    def test_field_subject_mori_equals_mori_consistency(self):
        field = spiral_map(0.7).map.beltrami
        domain = domain_with_offsets()
        assert regularity_report(field, domain, CFG).mori == mori_consistency(field, domain, CFG)

    def test_elliptic_mori_and_comparison_with_precomputed_bound(self):
        matrix = validate_matrix_field(varying_matrix_field())
        domain = domain_with_offsets()
        improved = elliptic_holder_bound(matrix, domain, CFG)
        assert improved.mori == mori_consistency(matrix.beltrami, domain, CFG)
        rep = comparison_bounds(matrix, domain, improved)
        assert rep.alpha_divergence == improved.alpha_distortion == improved.alpha_improved

    @pytest.mark.parametrize("source", ["function", "bilinear", "nearest"])
    def test_divergence_bound_equals_the_normal_form_supremum(self, source, tmp_path):
        # for det A = 1, <eta, A eta> is the distortion weight, so the
        # supremum of its circle averages is C again
        if source == "function":
            matrix = validate_matrix_field(varying_matrix_field())
        else:
            matrix = validate_matrix_field(matrix_grid_65(tmp_path, source))
        domain = domain_with_offsets()
        rep = comparison_bounds(matrix, domain, elliptic_holder_bound(matrix, domain, CFG))
        oracle = normal_form_sup(matrix, domain, CFG)
        assert abs(1.0 / rep.alpha_divergence - oracle) <= 1e-12 * oracle


def normal_form_sup(matrix, domain, cfg):
    """Oracle: sup over the domain's circles of the circle average of <eta, A eta>."""

    def average(circle):
        def integrand(nodes):
            theta = nodes.theta
            a11, a12, a22 = matrix(circle.center + circle.radius * np.exp(1j * theta))
            c, s = np.cos(theta), np.sin(theta)
            return (a11 * c * c + 2.0 * a12 * c * s + a22 * s * s)[None]

        (value,) = circular_average(integrand, [circle], cfg)
        return value

    return max(average(circle) for circle in domain.admissible_circles())


def matrix_grid_65_entries():
    """Node entries (a11, a12, a22) and K of a smooth varying det-1 field
    sampled on 65^2 nodes over [-1.05, 1.05]^2."""
    x = np.linspace(-1.05, 1.05, 65)
    z = x[None, :] + 1j * x[:, None]
    mu = 0.4 * np.exp(1j * (1.3 * z.real - 0.7 * z.imag)) * (0.5 + 0.5 * np.cos(2 * z.real))
    return matrix_from_beltrami(mu), (1 + 0.4) / (1 - 0.4)


def write_matrix_grid_65(tmp_path):
    """The grid of `matrix_grid_65_entries` as a CSV; returns its path."""
    from qcreg import save_matrix_field

    entries, K = matrix_grid_65_entries()
    path = tmp_path / "matrix.csv"
    save_matrix_field(path, entries, origin=-1.05 - 1.05j, spacing=2.1 / 64, K=K)
    return path


def matrix_grid_65(tmp_path, interpolation):
    """The grid of `write_matrix_grid_65`, loaded back."""
    from qcreg import load_matrix_field

    return load_matrix_field(write_matrix_grid_65(tmp_path), interpolation)


def varying_matrix_field():
    """Smooth det-1 field rebuilt pointwise from mu(z) = 0.3 e^{i Re z} z."""

    def fn(z):
        a11, a12, a22 = matrix_from_beltrami(0.3 * np.exp(1j * z.real) * z)
        return np.stack([np.stack([a11, a12], -1), np.stack([a12, a22], -1)], -2)

    K = (1 + 0.3) / (1 - 0.3)
    return matrix_field_from_function(fn, K)


class TestNoSecondGreenArea:
    def test_profile_areas_equal_computed_areas(self):
        model = power_spiral(0.6, 0.8).map
        radii = np.geomspace(1e-3, 1.0, 9)
        prof = geometry_profile(model, radii, CFG)
        interior = radii[radii < 1.0]
        areas = image_area_green(model, [CircleSpec(0j, t) for t in interior.tolist()], CFG)
        expected = [(t, float(np.log(a) / (2.0 * np.log(t))))
                    for t, a in zip(interior.tolist(), areas)]
        assert empirical_holder(prof) == expected

    def test_partials_taken_once_per_boundary_node(self):
        # a map without a field forms mu from the boundary pass's own partials
        model = replace(power_spiral(0.6, 1.3).map, beltrami=None)
        radii = np.geomspace(1e-3, 1.0, 65)
        counted = CountingModel(model)
        got = geometry_profile(counted.model, radii)
        assert counted.points["value"] == counted.points["partials"] == 33280
        # the two-call route: mu from a second partials call, in `beltrami_of`
        field = BeltramiField(mu=lambda z: beltrami_of(model, z), k_max=0.99)
        want = geometry_profile(replace(model, beltrami=field), radii)
        for name in got._fields:
            assert np.array_equal(getattr(got, name), getattr(want, name))


class CountingModel:
    """A MapModel whose callables count the points they are handed."""

    def __init__(self, model: MapModel):
        self.points = {"value": 0, "partials": 0, "jacobian": 0}

        def counted(name):
            fn = getattr(model, name)

            def wrapper(z):
                self.points[name] += np.size(z)
                return fn(z)

            return wrapper

        self.model = replace(model, **{name: counted(name) for name in self.points})


@pytest.fixture
def work_counts(monkeypatch):
    """Count map points, C suprema and circular averages of a run_analysis."""
    counts = {"distortion_constant": 0, "circular_average": 0}
    models = []
    entry_from_spec = qcreg.reporting.entry_from_spec

    def counted_entry(spec):
        entry = entry_from_spec(spec)
        models.append(CountingModel(entry.map))
        return replace(entry, map=models[-1].model)

    def calls(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(qcreg.reporting, "entry_from_spec", counted_entry)
    dist = calls("distortion_constant", qcreg.bounds.distortion_constant)
    monkeypatch.setattr(qcreg.bounds, "distortion_constant", dist)
    avg = calls("circular_average", qcreg.quadrature.circular_average)
    for name, module in list(sys.modules.items()):
        if name.startswith("qcreg") and getattr(module, "circular_average", None) is circular_average:
            monkeypatch.setattr(module, "circular_average", avg)
    return counts, models


class TestWorkCounts:
    def test_default_catalog_run(self, work_counts):
        counts, models = work_counts
        run_analysis(build_config({"subject": "radial_stretch(K=2)"}))
        (model,) = models
        # one average per circle family: C and A together on 16 circles, 25
        # Gronwall areas, both lengths and the Green area on 33 radii, 33
        # epsilon averages; the holder estimates reuse the profile's areas and
        # make no value call, and each doubling evaluates only the angles it adds
        assert counts == {"distortion_constant": 0, "circular_average": 4}
        assert model.points == {"value": 37888, "partials": 37888, "jacobian": 487936}

    def test_regularity_report_computes_c_once(self, work_counts):
        counts, _ = work_counts
        regularity_report(spiral_map(1.0).map, domain_with_offsets(), CFG)
        # C and A in one pass over the circles, then the Gronwall areas
        assert counts == {"distortion_constant": 0, "circular_average": 2}

    def test_matrix_run_computes_c_once(self, work_counts, tmp_path):
        from qcreg import save_matrix_field

        n = 17
        shape = (n, n)
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, (np.full(shape, 0.5), np.zeros(shape), np.full(shape, 2.0)),
                          origin=-1.2 - 1.2j, spacing=2.4 / (n - 1), K=2.0)
        counts, _ = work_counts
        run_analysis(build_config({"subject": str(path)}))
        # C on the 16 circles of the default domain, and nothing else
        assert counts == {"distortion_constant": 1, "circular_average": 1}

    def test_comparison_with_precomputed_bound_averages_nothing(self, work_counts):
        matrix = validate_matrix_field(varying_matrix_field())
        domain = domain_with_offsets()
        improved = elliptic_holder_bound(matrix, domain, CFG)
        counts, _ = work_counts
        before = dict(counts)
        comparison_bounds(matrix, domain, improved)
        assert counts == before


def json_keys(payload):
    """Every key of a JSON payload, at any depth."""
    if isinstance(payload, dict):
        return set(payload) | {k for v in payload.values() for k in json_keys(v)}
    if isinstance(payload, list):
        return {k for v in payload for k in json_keys(v)}
    return set()


class TestOneReportPath:
    """A matrix subject's report is the regularity report of its distortion coefficient."""

    def test_function_field(self):
        matrix = varying_matrix_field()
        domain = domain_with_offsets()
        expected = regularity_report(validate_matrix_field(matrix).beltrami,
                                     domain, CFG)
        assert elliptic_holder_bound(matrix, domain, CFG) == expected

    @pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
    def test_matrix_grid_run(self, tmp_path, interpolation):
        path = write_matrix_grid_65(tmp_path)
        cfg = build_config({"subject": str(path), "interpolation": interpolation})
        report = run_analysis(cfg)
        matrix = validate_matrix_field(matrix_grid_65(tmp_path, interpolation))
        expected = regularity_report(matrix.beltrami, cfg.domain, cfg.quadrature)
        assert report.regularity == expected

        payload = report.to_json_dict()
        assert set(payload["elliptic"]) == {
            "alpha_eigen_ratio", "alpha_divergence", "lambda_min", "lambda_max", "sample_count"
        }
        assert payload["elliptic"]["alpha_divergence"] == payload["regularity"]["alpha_distortion"]
        assert "max_average" not in json_keys(payload)

    @pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
    def test_matrix_grid_and_its_mu_grid_share_one_report(self, tmp_path, interpolation):
        # the mu grid holds the bridge of the matrix grid's nodes, bit for bit
        from qcreg import SampledField, beltrami_from_entries, save_sampled_field

        matrix_path = write_matrix_grid_65(tmp_path)
        entries, K = matrix_grid_65_entries()
        mu_path = tmp_path / "mu.csv"
        save_sampled_field(mu_path, SampledField(
            origin=-1.05 - 1.05j, spacing=2.1 / 64, values=beltrami_from_entries(*entries),
            k_max=(K - 1.0) / (K + 1.0)))
        reports = [
            run_analysis(build_config({"subject": str(path), "interpolation": interpolation}))
            for path in (matrix_path, mu_path)
        ]
        assert [r.subject_kind for r in reports] == ["matrix", "sampled-mu"]
        assert reports[0].regularity == reports[1].regularity

    def test_grid_report_rebuilds_no_matrix(self, tmp_path, monkeypatch):
        # the regularity pass of a grid subject reads its mu grid: no node
        # goes mu -> A -> mu
        matrix = validate_matrix_field(matrix_grid_65(tmp_path, "bilinear"))
        calls = {"matrix_from_beltrami": 0, "beltrami_from_entries": 0}
        for name in calls:
            fn = getattr(qcreg.elliptic, name)

            def counted(*args, name=name, fn=fn):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(qcreg.elliptic, name, counted)
        elliptic_holder_bound(matrix, domain_with_offsets(), CFG)
        assert calls == {"matrix_from_beltrami": 0, "beltrami_from_entries": 0}
        matrix.eigenvalues(np.array([0.1j]))  # where A is needed, it is rebuilt
        assert calls["matrix_from_beltrami"] == 1

    def test_no_report_repeats_the_c_supremum(self, tmp_path):
        from qcreg import SampledField, save_sampled_field

        x = np.linspace(-1.05, 1.05, 33)
        mu = 0.3 * np.exp(1j * (x[None, :] + 2j * x[:, None]).real)
        path = tmp_path / "mu.csv"
        save_sampled_field(path, SampledField(origin=-1.05 - 1.05j, spacing=2.1 / 32,
                                              values=mu, k_max=0.3))
        for subject in ("radial_stretch(K=2)", str(path)):
            payload = run_analysis(build_config({"subject": subject})).to_json_dict()
            assert payload["regularity"]["mori"]
            assert "max_average" not in json_keys(payload)
