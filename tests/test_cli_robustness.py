"""No CLI input ends in a traceback.

`qcreg.cli.main` runs in process on catalog specs with extreme float
parameters, on extreme smallest and largest profile radii, and on grid CSVs,
sidecars and config files that hold non-ASCII or non-UTF-8 bytes. Every run must
return one of the documented exit codes (0 ok, 1 config, 2 invariant, 3
numerical); an exception escaping `main` fails the test, and so does a
numpy RuntimeWarning, which the pytest settings turn into an error.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcreg import SampledField, save_matrix_field, save_sampled_field
from qcreg.cli import main

#: a small rule keeps each run to a few milliseconds
SMALL = ["--nodes", "16", "--max-doublings", "2", "--radii-count", "3"]

EXTREMES = (0.0, 1.0, 2.0, 1e-310, 5e-324, 2.2250738585072014e-308, 1e-200, 1e154, 1e200,
            1.7976931348623157e308, math.inf, -math.inf, math.nan)
WIDE = st.one_of(
    st.sampled_from(EXTREMES),
    st.sampled_from(EXTREMES).map(lambda x: -x),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _spec_value(x) -> str:
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j"
    return repr(x)


SPECS = st.one_of(
    st.builds(lambda K: f"radial_stretch(K={_spec_value(K)})", WIDE),
    st.builds(lambda g: f"spiral(gamma={_spec_value(g)})", WIDE),
    st.builds(lambda a, b: f"affine(a={_spec_value(a)},b={_spec_value(b)})",
              st.one_of(WIDE, st.builds(complex, WIDE, WIDE)), WIDE),
    st.builds(lambda a, g: f"power_spiral(alpha={_spec_value(a)},gamma={_spec_value(g)})",
              WIDE, WIDE),
)


def run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(spec="affine(a=1e200,b=0)")
@example(spec="affine(a=inf,b=0)")
@given(spec=SPECS)
def test_catalog_specs_with_extreme_parameters(spec):
    assert run_cli(["analyze", "--subject", spec, *SMALL]) in (0, 1, 2, 3)


SUBJECTS = ("radial_stretch(K=2)", "spiral(gamma=1)", "affine(a=1,b=0.3)",
            "power_spiral(alpha=0.5,gamma=1)")


@settings(max_examples=40, deadline=None, derandomize=True)
@example(subject="radial_stretch(K=2)", radii_min=1e-310)
@example(subject="affine(a=1,b=0.3)", radii_min=1e-200)  # the image area underflows
@given(
    subject=st.sampled_from(SUBJECTS),
    radii_min=st.one_of(
        st.sampled_from((1e-310, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-30)),
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    ),
)
def test_extreme_smallest_profile_radius(subject, radii_min):
    argv = ["analyze", "--subject", subject, "--radii-min", repr(radii_min), *SMALL]
    assert run_cli(argv) in (0, 1, 2, 3)


@settings(max_examples=40, deadline=None, derandomize=True)
# the profile nudges a circle whose boundary data overflow
@example(subject="affine(a=1,b=0.5)", radii_max=1e200)
@example(subject="spiral(gamma=1)", radii_max=1e200)
@given(subject=st.sampled_from(SUBJECTS), radii_max=st.sampled_from(EXTREMES))
def test_extreme_largest_profile_radius(subject, radii_max):
    argv = ["extremal", "--subject", subject, f"--radii-max={radii_max!r}", *SMALL]
    assert run_cli(argv) in (0, 1, 2, 3)


def test_nudged_radius_is_the_radius_of_every_extremal_block():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["extremal", "--subject", "affine(a=1,b=0.5)", "--radii-max", "1e200",
                     *SMALL]) == 0
    payload = json.loads(out.getvalue())
    t = payload["geometry_profile"]["t"]
    assert t[-1] < 1e200  # nudged
    assert payload["epsilon_profile"]["t"] == t == payload["defect_profile"]["t"]
    assert [rec["t"] for rec in payload["holder_estimates"]] == [x for x in t if x < 1]


# -- input files are read as UTF-8, whatever the locale --------------------------


def run_cli_err(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def constant_mu_grid(path):
    """A 5 x 5 grid of mu = 0.1i whose hull covers the default unit disk."""
    field = SampledField(origin=-1.2 - 1.2j, spacing=0.6, values=np.full((5, 5), 0.1j),
                         k_max=0.2)
    save_sampled_field(path, field)
    return path


def test_csv_row_that_is_not_utf8_names_its_line(tmp_path):
    path = constant_mu_grid(tmp_path / "mu.csv")
    lines = path.read_bytes().split(b"\n")
    x, y, _, im = lines[2].split(b",")
    lines[2] = b",".join([x, y, b"0.1\xe9", im])  # one Latin-1 byte
    path.write_bytes(b"\n".join(lines))
    assert run_cli_err(["analyze", "--subject", str(path)]) == (
        1, f"qcreg: config error: {path} line 3: re = '0.1�' is not a number\n"
    )


def test_utf8_comment_in_a_csv_loads(tmp_path):
    path = constant_mu_grid(tmp_path / "mu.csv")
    lines = path.read_bytes().split(b"\n")
    lines.insert(3, "# mesuré à la main".encode())
    path.write_bytes(b"\n".join(lines))
    assert run_cli_err(["analyze", "--subject", str(path), *SMALL]) == (0, "")


def test_config_file_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"subject": "radial_stretch(K=2)", "note\xe9": 1}')
    code, err = run_cli_err(["analyze", "--config", str(path)])
    assert code == 1
    assert err.startswith(f"qcreg: config error: {path} is not UTF-8 text: ")


def test_utf8_config_file_is_read(tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes('{"subject": "radial_stretch(K=2)", "noté": 1}'.encode())
    code, err = run_cli_err(["analyze", "--config", str(path)])
    assert code == 1
    assert err.startswith("qcreg: config error: unknown keys ['noté'] in config")


def test_sidecar_that_is_not_utf8_is_named(tmp_path):
    path = constant_mu_grid(tmp_path / "mu.csv")
    sidecar = Path(str(path) + ".json")
    sidecar.write_bytes(sidecar.read_bytes().replace(b"{", b'{"note": "\xe9", ', 1))
    code, err = run_cli_err(["analyze", "--subject", str(path)])
    assert code == 1
    assert err.startswith(f"qcreg: config error: {sidecar} is not UTF-8 text: ")


# -- the circle domain ------------------------------------------------------------


def constant_matrix_grid(path):
    """A 5 x 5 grid of the det-1 matrix diag(0.5, 2) whose hull covers the unit disk."""
    grids = (np.full((5, 5), 0.5), np.zeros((5, 5)), np.full((5, 5), 2.0))
    save_matrix_field(path, grids, origin=-1.2 - 1.2j, spacing=0.6, K=2.0)
    return path


@pytest.mark.parametrize("command,subject", [
    ("analyze", lambda tmp: "radial_stretch(K=2)"),
    ("analyze", lambda tmp: str(constant_mu_grid(tmp / "mu.csv"))),
    ("elliptic", lambda tmp: str(constant_matrix_grid(tmp / "matrix.csv"))),
], ids=["catalog", "sampled-mu", "matrix"])
def test_a_domain_that_admits_no_circle_exits_1(tmp_path, command, subject):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": subject(tmp_path),
                                  "domain": {"radii": {"min": 1.5, "max": 2, "count": 4}}}))
    assert run_cli_err([command, "--config", str(config)]) == (
        1, "qcreg: config error: no admissible circle fits inside the outer domain\n"
    )


def test_repeated_and_signed_zero_centers_each_pass_gronwall(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": "spiral(gamma=1)",
                                  "domain": {"centers": [[0, 0], [0, 0], [-0.0, 0]]}}))
    out = tmp_path / "report.json"
    assert run_cli_err(["analyze", "--config", str(config), "--out", str(out)]) == (
        0, f"wrote {out}\n"
    )
    report = json.loads(out.read_text())
    assert report["provenance"]["grid"]["domain_circles"] == 48
    assert report["regularity"]["gronwall"]["passed"] is True
