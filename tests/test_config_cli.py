import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcreg import (
    CircleSpec,
    ConfigError,
    DomainSpec,
    QuadratureConfig,
    SampledField,
    catalog_names,
    emit_report,
    run_analysis,
    save_matrix_field,
    save_sampled_field,
)
from qcreg.cli import build_parser, main
from qcreg.config import DEFAULTS, build_config, default_config_for, read_config
from qcreg.bounds import distortion_average
from qcreg.reporting import report_json_bytes


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args):
    """Run `python -m qcreg ARGS` on this checkout's sources."""
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + old if old else ""))
    return subprocess.run([sys.executable, "-m", "qcreg", *args], capture_output=True, env=env)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def write_mu_grid(tmp_path, value=0.25, name="mu.csv"):
    n = 33
    h = 2.4 / (n - 1)
    grid = SampledField(
        origin=-1.2 - 1.2j,
        spacing=h,
        values=np.full((n, n), value, dtype=complex),
        k_max=abs(value) + 1e-12,
    )
    path = tmp_path / name
    save_sampled_field(path, grid)
    return path


def write_matrix_grid(tmp_path, name="matrix.csv"):
    n = 17
    h = 2.4 / (n - 1)
    shape = (n, n)
    path = tmp_path / name
    save_matrix_field(
        path,
        (np.full(shape, 0.5), np.zeros(shape), np.full(shape, 2.0)),
        origin=-1.2 - 1.2j,
        spacing=h,
        K=2.0,
    )
    return path


BAD_RADII = [
    {"count": "abc"},
    {"count": None},
    {"count": 16.7},
    {"count": True},
    {"count": -3},
    {"min": "0.01"},
    {"min": 0.0},
    {"max": float("nan")},
    ["a", 0.5],
    [[0.1, 0.2]],
]
BAD_RADII_IDS = [json.dumps(r) for r in BAD_RADII]


class TestRadiiValidation:
    @pytest.mark.parametrize("radii", BAD_RADII, ids=BAD_RADII_IDS)
    def test_profile_radii_rejected(self, radii):
        with pytest.raises(ConfigError, match=r"^radii"):
            build_config({"subject": "radial_stretch(K=2)", "radii": radii})

    @pytest.mark.parametrize("radii", BAD_RADII, ids=BAD_RADII_IDS)
    def test_domain_radii_rejected(self, radii):
        with pytest.raises(ConfigError, match=r"^domain\.radii"):
            build_config({"subject": "radial_stretch(K=2)", "domain": {"radii": radii}})

    @pytest.mark.parametrize("radii,count,largest", [({"max": 0.5}, 16, 0.5),
                                                      ({"count": 4}, 4, 1.0)])
    def test_a_partial_domain_radii_object_takes_the_domain_defaults(self, radii, count,
                                                                     largest):
        # the profile radii's defaults (1e-3 .. 1, 33 radii) filled it in
        cfg = build_config({"subject": "radial_stretch(K=2)", "domain": {"radii": radii}})
        assert cfg.domain.radii == tuple(np.geomspace(0.05, largest, count))
        assert cfg.profile_radii.size == 33

    def test_numpy_scalars_accepted(self):
        cfg = build_config(
            {"subject": "radial_stretch(K=2)",
             "radii": {"min": np.float64(0.01), "count": np.int64(5)}}
        )
        assert cfg.profile_radii.size == 5
        assert cfg.profile_radii[0] == pytest.approx(0.01)


# (config fragment, key the ConfigError must name)
BAD_CONFIGS = [
    ({"domain": {"centers": [["a", 0]]}}, "domain.centers[0]"),
    ({"domain": {"centers": [[0]]}}, "domain.centers[0]"),
    ({"domain": {"centers": [[0, 0], [0.1, None]]}}, "domain.centers[1]"),
    ({"domain": {"centers": []}}, "domain.centers"),
    ({"domain": {"centers": "origin"}}, "domain.centers"),
    ({"domain": {"outer_center": [0]}}, "domain.outer_center"),
    ({"domain": {"outer_center": ["0", "0"]}}, "domain.outer_center"),
    ({"domain": {"outer_radius": None}}, "domain.outer_radius"),
    ({"domain": {"inner_radius": 2}}, "domain.inner_radius"),
    ({"domain": {"outer_radius": 0.5, "inner_radius": 0.5}}, "domain.inner_radius"),
    ({"domain": {"margin": "0.1"}}, "domain.margin"),
    # a negative margin admits circles outside the outer disk
    ({"domain": {"margin": -0.5, "radii": {"min": 0.05, "max": 1.5, "count": 8}}},
     "domain.margin"),
    ({"domain": 5}, "domain"),
    ({"threshold": "x"}, "threshold"),
    ({"threshold": None}, "threshold"),
    ({"threshold": 0}, "threshold"),
    ({"threshold": -1}, "threshold"),
    ({"threshold": float("inf")}, "threshold"),
    ({"quadrature": {"nodes": None}}, "quadrature.nodes"),
    ({"quadrature": {"nodes": 16.5}}, "quadrature.nodes"),
    ({"quadrature": {"nodes": "256"}}, "quadrature.nodes"),
    ({"quadrature": {"nodes": 24}}, "quadrature.nodes"),
    ({"quadrature": {"max_doublings": 2.5}}, "quadrature.max_doublings"),
    ({"quadrature": {"max_doublings": True}}, "quadrature.max_doublings"),
    ({"quadrature": {"rel_tol": "1e-9"}}, "quadrature.rel_tol"),
    ({"diagnostics": {"geometry": "no"}}, "diagnostics.geometry"),
    ({"diagnostics": {"extremal": 1}}, "diagnostics.extremal"),
    ({"output_json": 5}, "output_json"),
]
BAD_CONFIG_IDS = [json.dumps(c) for c, _ in BAD_CONFIGS]


class TestConfigValidation:
    @pytest.mark.parametrize("fragment,key", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_build_config_names_the_key(self, fragment, key):
        with pytest.raises(ConfigError) as info:
            build_config({"subject": "radial_stretch(K=2)", **fragment})
        assert str(info.value).startswith(key + " ")

    @pytest.mark.parametrize("fragment,key", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_analyze_config_exits_1(self, tmp_path, capsys, fragment, key):
        cfg_path = write_config(tmp_path, {"subject": "radial_stretch(K=2)", **fragment})
        assert main(["analyze", "--config", str(cfg_path)]) == 1
        assert f"config error: {key} " in capsys.readouterr().err

    def test_valid_values_resolve_as_before(self):
        cfg = build_config({
            "subject": "radial_stretch(K=2)",
            "domain": {"centers": [[0, 0], [0.25, -0.5]], "outer_center": [0, 0],
                       "outer_radius": 1, "margin": 0},
            "quadrature": {"nodes": 64, "max_doublings": 0},
            "diagnostics": {"geometry": False, "extremal": False},
            "threshold": 1,
        })
        assert cfg.domain.centers == (0j, 0.25 - 0.5j)
        assert (cfg.quadrature.nodes, cfg.quadrature.max_doublings) == (64, 0)
        assert (cfg.run_geometry, cfg.run_extremal, cfg.threshold) == (False, False, 1.0)
        assert cfg.resolved["domain"]["outer_radius"] == 1

    def test_equal_domains_give_equal_config_hashes(self):
        # the provenance held the domain as written, so integers hashed apart
        default = build_config({"subject": "radial_stretch(K=2)"})
        spelled = build_config({"subject": "radial_stretch(K=2)", "domain": {
            "centers": [[0, 0]], "radii": {"min": 0.05, "max": 1, "count": 16},
            "outer_center": [0, 0], "outer_radius": 1, "inner_radius": 0, "margin": 0}})
        assert spelled.domain == default.domain
        assert spelled.resolved == default.resolved
        assert spelled.config_hash() == default.config_hash()


def hash_oracle(cfg):
    """hashlib's SHA-256 of the canonical JSON of the resolved config."""
    canon = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class TestConfigHash:
    # config_hash takes the interpreter's built-in sha256 so that no run loads
    # OpenSSL; the digest must stay hashlib's, the one reports always carried
    @pytest.mark.parametrize("subject", [
        lambda tmp_path: "radial_stretch(K=2)",
        write_mu_grid,
        write_matrix_grid,
        # the name's bytes are UTF-8; under an ASCII filesystem encoding
        # Python spells it with surrogate escapes
        lambda tmp_path: write_mu_grid(tmp_path, name=os.fsdecode("grille-μ-é.csv".encode())),
    ], ids=["catalog", "sampled-mu", "matrix", "non-ascii-path"])
    def test_digest_is_hashlibs(self, tmp_path, subject):
        cfg = build_config({"subject": str(subject(tmp_path)), "radii": {"count": 5}})
        assert cfg.config_hash() == hash_oracle(cfg)

    def test_hashlib_fallback_gives_the_same_digest(self):
        # a build with neither built-in module (_sha2 from 3.12, _sha256
        # before) falls back to hashlib
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "from qcreg.config import build_config\n"
             "print(build_config({'subject': 'radial_stretch(K=2)'}).config_hash(),"
             " 'hashlib' in sys.modules)"],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        cfg = build_config({"subject": "radial_stretch(K=2)"})
        assert proc.stdout.split() == [hash_oracle(cfg), "True"]


class TestLoadConfig:
    def test_minimal_subject_fills_defaults(self, tmp_path):
        cfg = build_config(read_config(write_config(tmp_path, {"subject": "radial_stretch(K=2)"})))
        assert cfg.quadrature == QuadratureConfig()
        assert cfg.domain.radii[0] == pytest.approx(0.05)
        assert cfg.profile_radii.size == 33
        assert cfg.run_geometry and cfg.run_extremal

    def test_radii_object_makes_log_spacing(self, tmp_path):
        cfg = build_config(read_config(
            write_config(
                tmp_path, {"subject": "spiral(gamma=1)", "radii": {"min": 1e-4, "count": 64}}
            )
        ))
        assert cfg.profile_radii.size == 64
        assert cfg.profile_radii[0] == pytest.approx(1e-4)
        ratios = cfg.profile_radii[1:] / cfg.profile_radii[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_unknown_subject_lists_catalog(self, tmp_path):
        with pytest.raises(ConfigError, match="radial_stretch"):
            build_config(read_config(write_config(tmp_path, {"subject": "nosuchmap()"})))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            build_config(read_config(
                write_config(tmp_path, {"subject": "spiral(gamma=1)", "nodez": 1})
            ))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "subject": "radial_stretch(K=2)",\n broken\n}')
        with pytest.raises(ConfigError, match="line 3"):
            build_config(read_config(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            build_config(read_config(tmp_path / "absent.json"))

    def test_subject_kind_sniffs_headers(self, tmp_path):
        mu = write_mu_grid(tmp_path)
        matrix = write_matrix_grid(tmp_path)
        assert build_config({"subject": str(mu)}).subject_kind == "sampled-mu"
        assert build_config({"subject": str(matrix)}).subject_kind == "matrix"

    @pytest.mark.parametrize("subject, message", [
        ("nosuchmap()", "radial_stretch"),
        ("absent.csv", "cannot read subject file"),
    ])
    def test_build_config_classifies_the_subject(self, subject, message):
        with pytest.raises(ConfigError, match=message):
            build_config({"subject": subject})
        assert build_config({"subject": "spiral(gamma=1)"}).subject_kind == "catalog"


class TestRunAnalysis:
    def test_radial_stretch_full_run(self):
        cfg = default_config_for("radial_stretch(K=2)", radii={"min": 1e-3, "count": 17})
        rep = run_analysis(cfg)
        assert rep.regularity.alpha_improved == pytest.approx(0.5, abs=1e-6)
        assert rep.extremality.consistent
        assert rep.geometry_profile is not None

    def test_affine_run(self):
        cfg = default_config_for("affine(a=1,b=0.3333333333333333)")
        rep = run_analysis(cfg)
        assert rep.regularity.alpha_distortion == pytest.approx(0.8, abs=1e-9)
        assert rep.regularity.alpha_improved == pytest.approx(0.9510, abs=1e-3)
        assert not rep.extremality.consistent

    def test_matrix_subject(self, tmp_path):
        cfg = default_config_for(str(write_matrix_grid(tmp_path)))
        rep = run_analysis(cfg)
        assert rep.elliptic.alpha_eigen_ratio == pytest.approx(0.5, abs=1e-9)
        assert rep.elliptic.alpha_divergence == pytest.approx(0.8, abs=1e-9)
        assert rep.regularity.alpha_improved == pytest.approx(0.8, abs=1e-9)
        assert rep.geometry_profile is None

    def test_sampled_mu_subject(self, tmp_path):
        cfg = default_config_for(str(write_mu_grid(tmp_path)))
        rep = run_analysis(cfg)
        # constant 0.25 coefficient: C = (1 + 1/16) / (1 - 1/16) = 17/15
        assert rep.regularity.distortion_sup == pytest.approx(17 / 15, abs=1e-9)
        assert rep.regularity.isoperimetric_sup == 1.0
        assert rep.epsilon_profile is not None
        assert rep.defect_profile is None

    def test_bounds_reproducible_from_recorded_grid(self):
        cfg = default_config_for("affine(a=1,b=0.25)")
        rep = run_analysis(cfg)
        resolved = rep.provenance["config"]
        domain = DomainSpec(
            centers=tuple(complex(x, y) for x, y in resolved["domain"]["centers"]),
            radii=tuple(resolved["domain"]["radii"]),
            outer_radius=resolved["domain"]["outer_radius"],
        )
        quad = QuadratureConfig(**resolved["quadrature"])
        from qcreg import distortion_constant, entry_from_spec

        field = entry_from_spec(resolved["subject"]).map.beltrami
        again = distortion_constant(field, domain, quad)
        assert again.value == rep.regularity.distortion_sup

    def test_argmax_circle_reproduces_value(self):
        cfg = default_config_for("radial_stretch(K=1.5)")
        rep = run_analysis(cfg)
        arg = rep.regularity.distortion_argmax
        from qcreg import entry_from_spec

        field = entry_from_spec(cfg.subject).map.beltrami
        (val,) = distortion_average(field, [CircleSpec(arg.center, arg.radius)], cfg.quadrature)
        assert val == pytest.approx(rep.regularity.distortion_sup, abs=1e-12)


#: the CSV file of each list-valued block of a report, in the order emitted
CSV_BLOCKS = {
    "geometry.csv": "geometry_profile",
    "epsilon.csv": "epsilon_profile",
    "defect.csv": "defect_profile",
    "holder.csv": "holder_estimates",
}
REGULARITY_SCALARS = (
    "distortion_sup", "isoperimetric_sup", "alpha_improved", "alpha_distortion", "alpha_classical",
)


class TestEmitReport:
    def test_json_round_trip(self, tmp_path):
        rep = run_analysis(default_config_for("radial_stretch(K=2)"))
        out = tmp_path / "report.json"
        emit_report(rep, json_path=out)
        assert json.loads(out.read_text()) == rep.to_json_dict()

    def test_csv_bundle_headers(self, tmp_path):
        rep = run_analysis(default_config_for("radial_stretch(K=2)"))
        files = emit_report(rep, csv_dir=tmp_path / "bundle")
        names = {f.name for f in files}
        assert names == {"regularity.csv", "geometry.csv", "epsilon.csv", "defect.csv", "holder.csv"}
        geometry = (tmp_path / "bundle" / "geometry.csv").read_text().splitlines()[0]
        assert geometry == "t,len_direct,len_formula,area_jac,area_green,h,delta"

    @pytest.mark.parametrize("kind", ["catalog-extremal", "sampled-mu"])
    def test_every_csv_equals_its_json_block(self, tmp_path, kind):
        if kind == "catalog-extremal":
            subject, names = "power_spiral(alpha=0.5,gamma=1)", set(CSV_BLOCKS)
        else:
            subject, names = str(write_mu_grid(tmp_path)), {"epsilon.csv"}
        rep = run_analysis(default_config_for(subject, radii={"min": 1e-3, "count": 9}))
        payload = rep.to_json_dict()
        files = emit_report(rep, csv_dir=tmp_path / "bundle")
        assert [f.name for f in files] == ["regularity.csv"] + [n for n in CSV_BLOCKS if n in names]
        for path in files[1:]:
            block = payload[CSV_BLOCKS[path.name]]
            if isinstance(block, list):  # holder_estimates: one record per row
                block = {key: [record[key] for record in block] for key in block[0]}
            keys = [key for key, value in block.items() if isinstance(value, list)]
            header, *lines = path.read_text().splitlines()
            assert header.split(",") == keys
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert data.shape == (len(block["t"]), len(keys)) == (len(lines), len(keys))
            for j, key in enumerate(keys):
                assert data[:, j].tolist() == block[key], (path.name, key)

        with open(files[0], newline="") as fh:
            assert fh.read().count("\r\n") == 2
            fh.seek(0)
            (row,) = csv.DictReader(fh)
        reg = payload["regularity"]
        assert list(row) == list(REGULARITY_SCALARS) + [
            "C_center_x", "C_center_y", "C_radius", "A_center_x", "A_center_y", "A_radius",
            "mori_margin", "mori_passed", "gronwall_margin", "gronwall_passed",
        ]
        want = {key: reg[key] for key in REGULARITY_SCALARS}
        for prefix, key in (("C", "distortion_argmax"), ("A", "isoperimetric_argmax")):
            circle = reg[key] or {"center": [None, None], "radius": None}
            want.update(zip((f"{prefix}_center_x", f"{prefix}_center_y", f"{prefix}_radius"),
                            (*circle["center"], circle["radius"])))
        for key in ("mori", "gronwall"):
            verdict = reg[key] or {}
            want[f"{key}_margin"] = verdict.get("worst_margin")
            want[f"{key}_passed"] = verdict.get("passed")
        assert (reg["isoperimetric_argmax"] is None) == (kind == "sampled-mu")
        for key, value in want.items():
            if value is None:
                assert row[key] == "", key
            elif isinstance(value, bool):
                assert row[key] == str(value), key
            else:
                assert float(row[key]) == value, key

    def test_missing_profiles_omitted(self, tmp_path):
        cfg = default_config_for(str(write_matrix_grid(tmp_path)))
        rep = run_analysis(cfg)
        payload = rep.to_json_dict()
        assert "geometry_profile" not in payload
        assert "epsilon_profile" not in payload
        files = emit_report(rep, csv_dir=tmp_path / "bundle")
        assert {f.name for f in files} == {"regularity.csv"}

    def test_determinism_bytes(self):
        cfg = default_config_for("radial_stretch(K=2)")
        a = report_json_bytes(run_analysis(cfg))
        b = report_json_bytes(run_analysis(cfg))
        assert a == b


class TestCli:
    def test_extremal_without_a_radius_below_one_exits_1(self):
        proc = run_module("extremal", "--subject", "radial_stretch(K=2)",
                          "--radii-min", "1", "--radii-max", "1.5", "--radii-count", "3")
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == [
            "qcreg: config error: the extremal diagnostics need a profile radius below 1, "
            "but the radii span [1.0, 1.5]"
        ]

    def test_node_count_above_the_ceiling_exit_one(self):
        proc = run_module("analyze", "--subject", "radial_stretch(K=2)",
                          "--nodes", "1125899906842624")
        stderr = proc.stderr.decode()
        assert proc.returncode == 1, stderr
        assert "Traceback" not in stderr
        assert stderr == ("qcreg: config error: quadrature.nodes * 2**max_doublings = "
                          "1125899906842624 * 2**6 exceeds the ceiling of 1048576 nodes per "
                          "circle\n")

    @pytest.mark.parametrize("quad", [{"nodes": 2**20, "max_doublings": 1},
                                      {"nodes": 256, "max_doublings": 13}], ids=str)
    def test_build_config_names_the_node_ceiling(self, quad):
        with pytest.raises(ConfigError) as info:
            build_config({"subject": "radial_stretch(K=2)", "quadrature": quad})
        assert str(info.value) == (
            f"quadrature.nodes * 2**max_doublings = {quad['nodes']} * 2**{quad['max_doublings']} "
            "exceeds the ceiling of 1048576 nodes per circle"
        )

    def test_catalog_listing(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "radial_stretch" in out and "power_spiral" in out

    def test_analyze_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--subject",
                "radial_stretch(K=2)",
                "--radii-count",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["regularity"]["alpha_improved"] == pytest.approx(0.5, abs=1e-6)
        assert payload["provenance"]["config"]["radii"] == pytest.approx(
            list(np.geomspace(1e-3, 1.0, 9))
        )

    def test_analyze_stdout_by_default(self, capsys):
        code = main(["analyze", "--subject", "spiral(gamma=1)", "--radii-count", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regularity"]["alpha_distortion"] == pytest.approx(1.0, abs=1e-9)

    def test_profile_subcommand_skips_extremal(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["profile", "--subject", "radial_stretch(K=2)", "--radii-count", "7",
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert "geometry_profile" in payload
        assert "extremality" not in payload

    def test_extremal_subcommand(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["extremal", "--subject", "affine(a=1,b=0.3333333333333333)",
             "--radii-count", "9", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["extremality"]["verdict"] == "inconsistent"

    def test_elliptic_subcommand(self, tmp_path):
        out = tmp_path / "r.json"
        matrix = write_matrix_grid(tmp_path)
        assert main(["elliptic", "--subject", str(matrix), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["elliptic"]["alpha_divergence"] == pytest.approx(0.8, abs=1e-9)

    def test_elliptic_rejects_catalog_subject(self, capsys):
        assert main(["elliptic", "--subject", "radial_stretch(K=2)"]) == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"subject": "radial_stretch(K=2)", "radii": {"min": 1e-2, "count": 5}},
        )
        out = tmp_path / "r.json"
        assert main(["analyze", "--config", str(cfg_path), "--radii-count", "7",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["provenance"]["config"]["radii"]) == 7

    def test_radii_flags_override_only_the_keys_they_name(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "subject": "radial_stretch(K=2)", "radii": {"min": 0.01, "max": 1.0, "count": 3},
            "quadrature": {"nodes": 64, "max_doublings": 2},
        })
        out = tmp_path / "r.json"
        assert main(["profile", "--config", str(cfg_path), "--radii-count", "4",
                     "--max-doublings", "1", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["provenance"]["config"]
        assert config["radii"] == np.geomspace(0.01, 1.0, 4).tolist()
        assert config["quadrature"]["nodes"] == 64
        assert config["quadrature"]["max_doublings"] == 1

    @pytest.mark.parametrize("flag", ["--radii-min", "--radii-max", "--radii-count"])
    def test_radii_list_with_a_radii_flag_exits_one(self, tmp_path, capsys, flag):
        cfg_path = write_config(
            tmp_path, {"subject": "radial_stretch(K=2)", "radii": [0.01, 0.1, 1.0]}
        )
        assert main(["profile", "--config", str(cfg_path), flag, "3"]) == 1
        assert "config error: radii must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "profile"])
    def test_config_file_outputs_are_honoured(self, tmp_path, capsys, command):
        out, csv_dir = tmp_path / "from-config.json", tmp_path / "csv-from-config"
        cfg_path = write_config(tmp_path, {
            "subject": "radial_stretch(K=2)", "radii": {"count": 5},
            "output_json": str(out), "output_csv_dir": str(csv_dir),
        })
        assert main([command, "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert len(payload["provenance"]["config"]["radii"]) == 5
        assert (csv_dir / "geometry.csv").exists()

    def test_flags_override_config_file_outputs(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {
            "subject": "radial_stretch(K=2)", "radii": {"count": 5},
            "output_json": str(tmp_path / "from-config.json"),
            "output_csv_dir": str(tmp_path / "csv-from-config"),
        })
        out, csv_dir = tmp_path / "from-flag.json", tmp_path / "csv-from-flag"
        assert main(["profile", "--config", str(cfg_path), "--out", str(out),
                     "--csv-dir", str(csv_dir)]) == 0
        assert out.exists() and (csv_dir / "geometry.csv").exists()
        assert not (tmp_path / "from-config.json").exists()
        assert not (tmp_path / "csv-from-config").exists()

    @pytest.mark.parametrize("spec", ["affine(a=1e200,b=0)", "affine(a=inf,b=0)"])
    def test_affine_parameters_out_of_range_exit_one(self, capsys, spec):
        assert main(["analyze", "--subject", spec]) == 1
        assert "config error: bad parameters for affine" in capsys.readouterr().err

    def test_missing_subject_is_usage_error(self, capsys):
        assert main(["analyze"]) == 1
        assert "subject" in capsys.readouterr().err

    def test_bad_subject_exit_one(self, capsys):
        assert main(["analyze", "--subject", "nosuchmap()"]) == 1

    @pytest.mark.parametrize("spec", ["spiral_map(gamma=1)", "affine_map(a=1,b=0.1)"])
    def test_constructor_names_are_not_spec_names(self, capsys, spec):
        assert main(["analyze", "--subject", spec]) == 1
        err = capsys.readouterr().err
        assert f"unknown catalog map {spec.split('(')[0]!r}" in err
        assert all(name in err for name in catalog_names())

    def test_repeated_catalog_parameter_exit_one(self, capsys):
        assert main(["analyze", "--subject", "radial_stretch(K=2,K=3)"]) == 1
        err = capsys.readouterr().err
        assert "'K' given twice" in err and "radial_stretch(K=2,K=3)" in err

    def test_invariant_violation_exit_two(self, tmp_path, capsys):
        # sampled grid whose values exceed the declared k_max certificate
        n = 17
        h = 2.4 / (n - 1)
        path = tmp_path / "mu.csv"
        rows = []
        for iy in range(n):
            for ix in range(n):
                rows.append(f"{-1.2 + ix * h},{-1.2 + iy * h},0.5,0.0")
        path.write_text("x,y,re,im\n" + "\n".join(rows) + "\n")
        (tmp_path / "mu.csv.json").write_text(
            json.dumps(
                {"origin": [-1.2, -1.2], "spacing": h, "nx": n, "ny": n, "k_max": 0.3}
            )
        )
        assert main(["analyze", "--subject", str(path)]) == 2
        assert "invariant" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        from qcreg import NumericalError
        import qcreg.cli as cli_mod

        def boom(cfg):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(cli_mod, "run_analysis", boom)
        assert main(["analyze", "--subject", "radial_stretch(K=2)"]) == 3

    def test_cli_byte_identical_reports(self, tmp_path):
        args = lambda out: [
            "analyze", "--subject", "radial_stretch(K=2)", "--radii-count", "9",
            "--out", str(out),
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args(a)) == 0
        assert main(args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "r.json"
        proc = run_module(
            "analyze", "--subject", "radial_stretch(K=2)", "--radii-count", "5", "--out", str(out)
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert out.exists()

    @pytest.mark.parametrize(
        "radii", [{"count": "abc"}, {"count": None}, ["a", 0.5], {"count": 16.7}], ids=json.dumps
    )
    def test_malformed_radii_exit_1_without_traceback(self, tmp_path, radii):
        cfg_path = write_config(tmp_path, {"subject": "radial_stretch(K=2)", "radii": radii})
        proc = run_module("profile", "--config", str(cfg_path))
        stderr = proc.stderr.decode()
        assert proc.returncode == 1, stderr
        assert "Traceback" not in stderr
        assert "config error: radii" in stderr


COMMON_FLAGS = ["--config", "--subject", "--out", "--csv-dir", "--nodes", "--max-doublings",
                "--rel-tol", "--radii-min", "--radii-max", "--radii-count", "--outer-radius",
                "--threshold", "--interpolation"]


class TestParserContract:
    # the four analysis commands share one set of common flags; catalog takes
    # none, and usage errors exit 1
    @pytest.mark.parametrize("command", ["analyze", "profile", "extremal", "elliptic"])
    def test_help_lists_every_common_flag_and_the_defaults(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "1000")  # the defaults epilog on one line
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: qcreg {command} [-h] [--config CONFIG]")
        assert all(f"  {flag} " in out for flag in COMMON_FLAGS)
        assert out.count("  --") == len(COMMON_FLAGS)
        assert "defaults: " + json.dumps(DEFAULTS, sort_keys=True) in out

    @pytest.mark.parametrize("flag", COMMON_FLAGS)
    def test_every_common_flag_reaches_each_analysis_command(self, flag):
        parser = build_parser()
        dest = flag[2:].replace("-", "_")
        value = "nearest" if flag == "--interpolation" else "7"
        for command in ("analyze", "profile", "extremal", "elliptic"):
            assert getattr(parser.parse_args([command, flag, value]), dest) is not None

    @pytest.mark.parametrize("argv,message", [
        (["catalog", "--nodes", "5"], "unrecognized arguments: --nodes 5"),
        ([], "the following arguments are required: command"),
    ], ids=["catalog-takes-no-flags", "no-command"])
    def test_usage_errors_exit_1(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert capsys.readouterr().err.splitlines() == [
            "usage: qcreg [-h] {analyze,profile,extremal,elliptic,catalog} ...",
            f"qcreg: error: {message}",
        ]

    def test_unknown_command_exits_1_naming_the_five(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 1
        # how the choices are quoted differs between Python versions
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.startswith("qcreg: error: argument command: invalid choice: ")
        assert all(name in error for name in
                   ("analyze", "profile", "extremal", "elliptic", "catalog"))
