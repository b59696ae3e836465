"""The report's key tree: every JSON key path and every CSV header of the
three report shapes, a catalog `extremal` run, a sampled-mu `analyze` run
(a field subject's epsilon profile) and a matrix `elliptic` run.

A renamed, added or dropped key fails here, whichever record it comes from.
"""

import json

import pytest

from qcreg.cli import main

from test_config_cli import write_matrix_grid, write_mu_grid


def key_paths(value, prefix=""):
    """Every key path of a JSON value: `a.b` for an object in an object,
    `a[].b` for the objects of a list."""
    if isinstance(value, dict):
        out = set()
        for key, item in value.items():
            out |= {prefix + key} | key_paths(item, prefix + key + ".")
        return out
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return set().union(*(key_paths(v, prefix[:-1] + "[].") for v in value))
    return set()


def block(name, *keys):
    return {name} | {f"{name}.{key}" for key in keys}


COMMON = (
    {"subject", "subject_kind"}
    | block("provenance", "version", "config_hash", "config", "grid")
    | block("provenance.config", "subject", "domain", "quadrature", "radii", "diagnostics",
            "threshold", "interpolation")
    | block("provenance.config.domain", "centers", "radii", "outer_center", "outer_radius",
            "inner_radius", "margin")
    | block("provenance.config.quadrature", "nodes", "max_doublings", "rel_tol")
    | block("provenance.config.diagnostics", "geometry", "extremal")
    | block("provenance.grid", "domain_circles", "profile_radii", "quadrature_nodes")
    | block("regularity", "distortion_sup", "isoperimetric_sup", "alpha_improved",
            "alpha_distortion", "alpha_classical", "distortion_argmax", "isoperimetric_argmax",
            "mori", "gronwall")
    | block("regularity.distortion_argmax", "center", "radius")
    | block("regularity.mori", "k_max", "K", "worst_margin", "passed", "tol")
)
EPSILON = block("epsilon_profile", "t", "K", "eps_re_avg", "W", "ratio_W")
MAP_ONLY = (
    block("regularity.isoperimetric_argmax", "center", "radius")
    | block("regularity.gronwall", "passed", "exponent", "worst_margin", "endpoint_margin",
            "rel_tol")
    | block("geometry_profile", "t", "len_direct", "len_formula", "area_jac", "area_green", "h",
            "delta")
    | block("defect_profile", "t", "delta", "I", "ratio_I")
    | {"holder_estimates", "holder_estimates[].t", "holder_estimates[].from_area"}
    | block("extremality", "verdict", "min_ratio_W", "min_ratio_I", "alpha_gap", "threshold")
)
ELLIPTIC = block("elliptic", "alpha_eigen_ratio", "alpha_divergence", "lambda_min", "lambda_max",
                 "sample_count")

REGULARITY_CSV = (
    "distortion_sup,isoperimetric_sup,alpha_improved,alpha_distortion,alpha_classical,"
    "C_center_x,C_center_y,C_radius,A_center_x,A_center_y,A_radius,"
    "mori_margin,mori_passed,gronwall_margin,gronwall_passed"
)
EPSILON_CSV = "t,eps_re_avg,W,ratio_W"


@pytest.mark.parametrize("command, subject, keys, headers", [
    ("extremal", lambda tmp: "power_spiral(alpha=0.5,gamma=1)", COMMON | EPSILON | MAP_ONLY, {
        "regularity.csv": REGULARITY_CSV,
        "geometry.csv": "t,len_direct,len_formula,area_jac,area_green,h,delta",
        "epsilon.csv": EPSILON_CSV,
        "defect.csv": "t,delta,I,ratio_I",
        "holder.csv": "t,from_area",
    }),
    ("analyze", lambda tmp: str(write_mu_grid(tmp)), COMMON | EPSILON, {
        "regularity.csv": REGULARITY_CSV,
        "epsilon.csv": EPSILON_CSV,
    }),
    ("elliptic", lambda tmp: str(write_matrix_grid(tmp)), COMMON | ELLIPTIC, {
        "regularity.csv": REGULARITY_CSV,
    }),
], ids=["catalog-extremal", "sampled-mu-analyze", "matrix-elliptic"])
def test_key_tree_and_csv_headers(tmp_path, command, subject, keys, headers):
    out, csv_dir = tmp_path / "report.json", tmp_path / "bundle"
    assert main([command, "--subject", subject(tmp_path), "--radii-count", "5",
                 "--out", str(out), "--csv-dir", str(csv_dir)]) == 0
    assert key_paths(json.loads(out.read_text())) == keys
    written = {path.name: path.read_text().splitlines()[0] for path in csv_dir.iterdir()}
    assert written == headers
