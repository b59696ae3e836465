"""A sampled grid must cover every disk an analysis evaluates it on.

`SampledField.evaluate` raises ConfigError, naming the point and the hull,
at a query more than HULL_SLACK cells outside the grid hull, so no number
is computed from edge values extended as constants. `run_analysis` checks
every disk first (ConfigError, CLI exit 1), naming the disk and the hull.
"""

import json

import numpy as np
import pytest

from qcreg import (
    CircleSpec,
    ConfigError,
    DomainSpec,
    SampledField,
    load_matrix_field,
    regularity_report,
    run_analysis,
    save_matrix_field,
    save_sampled_field,
    validate_field,
)
from qcreg.cli import main
from qcreg.config import build_config
from qcreg.plane import HULL_SLACK

from test_config_cli import write_matrix_grid, write_mu_grid


def tiny_grid(tmp_path):
    """3x3 grid at 0.5+0.5i with spacing 0.01: covers [0.5, 0.52]^2 only."""
    path = tmp_path / "tiny.csv"
    field = SampledField(origin=0.5 + 0.5j, spacing=0.01, values=np.full((3, 3), 0.2 + 0j),
                         k_max=0.3)
    save_sampled_field(path, field)
    return path


class TestRequireCovers:
    GRID = SampledField(origin=-1.0 + 0.5j, spacing=0.25, values=np.zeros((5, 9)), k_max=0.1)

    def test_disk_inside_and_touching_passes(self):
        self.GRID.require_covers(CircleSpec(0.5 + 1.0j, 0.5), "disk")  # hull [-1, 1] x [0.5, 1.5]
        self.GRID.require_covers(CircleSpec(0.0 + 1.0j, 0.25), "disk")

    @pytest.mark.parametrize("center", [-0.6 + 1.0j, 0.6 + 1.0j, 0.9j, 1.1j])
    def test_each_side_is_checked(self, center):
        disk = CircleSpec(center, 0.45)
        with pytest.raises(ConfigError, match=r"^my disk CircleSpec\(.*\) leaves the grid hull "
                                              r"\[-1\.0, 1\.0\] x \[0\.5, 1\.5\]$"):
            self.GRID.require_covers(disk, "my disk")

    def test_round_off_at_the_hull_edge_passes(self):
        n = 50  # the last node lands at 0.9999999999999998, one ulp inside the unit disk
        grid = SampledField(origin=-1 - 1j, spacing=2.0 / (n - 1), values=np.zeros((n, n)),
                            k_max=0.1)
        assert -1 + (n - 1) * grid.spacing < 1.0
        grid.require_covers(CircleSpec(0j, 1.0), "unit disk")


class TestEvaluateOutsideTheHull:
    TINY = SampledField(origin=0.5 + 0.5j, spacing=0.01, values=np.full((3, 3), 0.2 + 0j),
                        k_max=0.3)
    HULL = r"outside the grid hull \[0\.5, 0\.52\] x \[0\.5, 0\.52\]$"

    @pytest.mark.parametrize("validated", [True, False])
    def test_regularity_report_on_the_origin_disk_raises(self, validated):
        field = self.TINY.as_beltrami()
        with pytest.raises(ConfigError, match=r"^sampled field evaluated at \(.*\), " + self.HULL):
            regularity_report(validate_field(field) if validated else field,
                              DomainSpec.origin_disk())

    @pytest.mark.parametrize("interpolation", ["nearest", "bilinear"])
    def test_the_first_point_outside_is_named(self, interpolation):
        grid = SampledField(self.TINY.origin, self.TINY.spacing, self.TINY.values,
                            self.TINY.k_max, interpolation)
        z = np.array([0.51 + 0.51j, 0.53 + 0.51j, 0.4 + 0.4j])
        with pytest.raises(ConfigError, match=r"^sampled field evaluated at \(0\.53\+0\.51j\), "
                                              + self.HULL):
            grid.evaluate(z)

    @pytest.mark.parametrize("side", [1, -1, 1j, -1j])
    def test_slack_is_clamped_and_beyond_it_raises(self, side):
        # the hull's centre is one cell from each of its sides
        h = self.TINY.spacing
        centre = 0.51 + 0.51j
        inside = centre + side * h * (1 + 0.5 * HULL_SLACK)
        outside = centre + side * h * (1 + 2 * HULL_SLACK)
        assert self.TINY.evaluate(np.array([inside]))[0] == 0.2
        with pytest.raises(ConfigError, match=self.HULL):
            self.TINY.evaluate(np.array([outside]))

    def test_scalar_and_empty_queries(self):
        assert self.TINY.evaluate(0.51 + 0.51j) == 0.2
        assert self.TINY.evaluate(np.empty((0,), dtype=complex)).shape == (0,)
        with pytest.raises(ConfigError, match=self.HULL):
            self.TINY.evaluate(0j)


class TestSampledMu:
    def test_tiny_grid_exits_one_naming_the_validation_disk(self, tmp_path, capsys):
        assert main(["analyze", "--subject", str(tiny_grid(tmp_path))]) == 1
        err = capsys.readouterr().err
        assert "the validation disk CircleSpec(center=0j, radius=1.0)" in err
        assert "leaves the grid hull [0.5, 0.52] x [0.5, 0.52]" in err

    def test_admissible_circle_outside_the_hull(self, tmp_path):
        cfg = build_config({"subject": str(write_mu_grid(tmp_path)),
                            "domain": {"radii": [0.5, 1.0, 1.3], "outer_radius": 1.5}})
        with pytest.raises(ConfigError, match=r"admissible circle CircleSpec\(center=0j, "
                                              r"radius=1\.3\) leaves the grid hull"):
            run_analysis(cfg)

    def test_profile_circle_checked_only_when_it_is_evaluated(self, tmp_path):
        raw = {"subject": str(write_mu_grid(tmp_path)), "radii": [0.5, 1.3]}
        with pytest.raises(ConfigError, match=r"^the largest profile circle CircleSpec\("
                                              r"center=0j, radius=1\.3\) leaves"):
            run_analysis(build_config(raw))
        report = run_analysis(build_config({**raw, "diagnostics": {"extremal": False}}))
        assert report.epsilon_profile is None

    def test_covering_grid_still_runs(self, tmp_path):
        report = run_analysis(build_config({"subject": str(write_mu_grid(tmp_path))}))
        assert report.regularity.distortion_sup > 1.0


class TestMatrix:
    def test_small_matrix_grid_exits_one(self, tmp_path, capsys):
        n = 5
        path = tmp_path / "small.csv"
        shape = (n, n)
        save_matrix_field(path, (np.ones(shape), np.zeros(shape), np.ones(shape)),
                          origin=-0.5 - 0.5j, spacing=0.25, K=2.0)
        assert main(["elliptic", "--subject", str(path)]) == 1
        err = capsys.readouterr().err
        assert "the validation disk CircleSpec(center=0j, radius=1.0) leaves the grid hull " \
               "[-0.5, 0.5] x [-0.5, 0.5]" in err

    def test_eigenvalue_sample_disk_outside_the_hull(self, tmp_path, capsys):
        cfg = {"subject": str(write_matrix_grid(tmp_path)),
               "domain": {"radii": [0.5, 1.0], "outer_radius": 1.5}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["elliptic", "--config", str(path)]) == 1
        assert "the eigenvalue sample disk CircleSpec(center=0j, radius=1.5) leaves the grid " \
               "hull" in capsys.readouterr().err

    def test_loaded_matrix_field_carries_its_grid(self, tmp_path):
        field = load_matrix_field(write_matrix_grid(tmp_path))
        assert field.grid.origin == -1.2 - 1.2j and field.grid.shape == (17, 17)
