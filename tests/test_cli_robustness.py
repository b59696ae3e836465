"""No CLI input ends in a traceback.

`qcreg.cli.main` runs in process on catalog specs with extreme float
parameters, on extreme smallest and largest profile radii, and on grid CSVs,
sidecars and config files that hold non-ASCII or non-UTF-8 bytes. Every run must
return one of the documented exit codes (0 ok, 1 config, 2 invariant, 3
numerical); an exception escaping `main` fails the test, and so does a
numpy RuntimeWarning, which the pytest settings turn into an error.

The config path and the library path check a scalar alike: `build_config`
rejects a value exactly when the record or catalog constructor it configures
rejects the same value. Every report of a catalog subject that exits 0
satisfies the invariants the benchmark checks (`bench/check.py`).
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

from qcreg import (
    BeltramiField,
    CircleSpec,
    ConfigError,
    DomainSpec,
    QuadratureConfig,
    SampledField,
    affine_map,
    build_config,
    constant_matrix_field,
    matrix_from_beltrami,
    power_spiral,
    radial_stretch,
    save_matrix_field,
    save_sampled_field,
    spiral_map,
    stretch_factor,
)
from qcreg.cli import main
from qcreg.errors import QcregError
from qcreg.reporting import report_json_bytes, run_analysis

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


@settings(max_examples=60)
@example(spec="affine(a=1e200,b=0)")
@example(spec="affine(a=inf,b=0)")
@given(spec=SPECS)
def test_catalog_specs_with_extreme_parameters(spec):
    assert run_cli(["analyze", "--subject", spec, *SMALL]) in (0, 1, 2, 3)


SUBJECTS = ("radial_stretch(K=2)", "spiral(gamma=1)", "affine(a=1,b=0.3)",
            "power_spiral(alpha=0.5,gamma=1)")


@settings(max_examples=40)
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


@settings(max_examples=40)
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


#: more digits than Python converts to an int by default (its limit is 4300)
HUGE_INTEGER = "1" * 5001


def _huge_config_threshold(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(f'{{"subject": "radial_stretch(K=2)", "threshold": {HUGE_INTEGER}}}')
    return ["analyze", "--config", str(path)], path


def _huge_sidecar_nx(tmp_path):
    path = constant_mu_grid(tmp_path / "mu.csv")
    sidecar = Path(str(path) + ".json")
    sidecar.write_text(sidecar.read_text().replace('"nx": 5', f'"nx": {HUGE_INTEGER}'))
    return ["analyze", "--subject", str(path)], sidecar


@pytest.mark.parametrize("make", [_huge_config_threshold, _huge_sidecar_nx],
                         ids=["config threshold", "sidecar nx"])
def test_integer_beyond_the_digit_limit_names_the_file(tmp_path, make):
    argv, path = make(tmp_path)
    code, err = run_cli_err(argv)
    assert code == 1
    assert err.startswith(f"qcreg: config error: {path}: Exceeds the limit"), err
    assert "Traceback" not in err


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


# -- the library path checks what the config path checks --------------------------


def _spec_text(value) -> str:
    """`value` as a catalog spec string writes it: a real number, numpy's
    included, as its Python repr, which the spec parser reads back to the
    same float; anything else as its repr, which it cannot parse."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return repr(value)


#: config field -> (config fragment holding the value, library call taking it)
FIELDS = {
    "domain.centers": (lambda v: {"domain": {"centers": [[v, 0]]}},
                       lambda v: DomainSpec(centers=(v,), radii=(0.5,))),
    "domain.radii": (lambda v: {"domain": {"radii": [v, 2.0]}},
                     lambda v: DomainSpec(centers=(0j,), radii=(v, 2.0))),
    "domain.outer_center": (lambda v: {"domain": {"outer_center": [v, 0]}},
                            lambda v: DomainSpec(centers=(0j,), radii=(0.5,), outer_center=v)),
    "domain.outer_radius": (lambda v: {"domain": {"outer_radius": v}},
                            lambda v: DomainSpec(centers=(0j,), radii=(0.5,), outer_radius=v)),
    "domain.inner_radius": (lambda v: {"domain": {"inner_radius": v}},
                            lambda v: DomainSpec(centers=(0j,), radii=(0.5,), inner_radius=v)),
    "domain.margin": (lambda v: {"domain": {"margin": v}},
                      lambda v: DomainSpec(centers=(0j,), radii=(0.5,), margin=v)),
    "quadrature.nodes": (lambda v: {"quadrature": {"nodes": v}},
                         lambda v: QuadratureConfig(nodes=v)),
    "quadrature.max_doublings": (lambda v: {"quadrature": {"max_doublings": v}},
                                 lambda v: QuadratureConfig(max_doublings=v)),
    "quadrature.rel_tol": (lambda v: {"quadrature": {"rel_tol": v}},
                           lambda v: QuadratureConfig(rel_tol=v)),
    "radial_stretch.K": (lambda v: {"subject": f"radial_stretch(K={_spec_text(v)})"},
                         radial_stretch),
    "spiral.gamma": (lambda v: {"subject": f"spiral(gamma={_spec_text(v)})"}, spiral_map),
    "power_spiral.alpha": (
        lambda v: {"subject": f"power_spiral(alpha={_spec_text(v)},gamma=0.5)"},
        lambda v: power_spiral(v, 0.5)),
    "power_spiral.gamma": (
        lambda v: {"subject": f"power_spiral(alpha=0.5,gamma={_spec_text(v)})"},
        lambda v: power_spiral(0.5, v)),
    "affine.a": (lambda v: {"subject": f"affine(a={_spec_text(v)},b=0.25)"},
                 lambda v: affine_map(v, 0.25)),
    "affine.b": (lambda v: {"subject": f"affine(a=1.0,b={_spec_text(v)})"},
                 lambda v: affine_map(1.0, v)),
}

SCALARS = st.one_of(
    st.sampled_from((0, 1, 2, 16, 256, -1, 0.0, -0.0, 0.5, 1.5, 2.0, 5e-324, 1e-9, 1e308,
                     2**70, math.inf, -math.inf, math.nan, True, False, None)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-5, max_value=300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.integers(min_value=-(2**62), max_value=2**62).map(np.int64),
    st.booleans().map(np.bool_),
)


def _config_accepts(fragment) -> bool:
    try:
        build_config({"subject": "radial_stretch(K=2)", **fragment})
    except ConfigError:
        return False
    return True


def _library_accepts(make, value) -> bool:
    try:
        make(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=100)
@example(value=True)
@example(value="1")
@example(value=None)
@example(value=math.nan)
@example(value=np.int64(256))
@example(value=10**400)  # as JSON holds it; no float holds it
@given(value=SCALARS)
def test_config_rejects_a_value_exactly_when_the_library_does(field, value):
    fragment, make = FIELDS[field]
    assert _config_accepts(fragment(value)) == _library_accepts(make, value)


ZEROS = np.zeros((2, 2))

#: library call -> its ValueError message, which names the field
LIBRARY_REJECTS = {
    "CircleSpec radius True": (lambda: CircleSpec(0j, True),
                               "radius must be a finite real number, got True"),
    "CircleSpec center '1'": (lambda: CircleSpec("1", 0.5),
                              "center must be a finite complex number, got '1'"),
    "DomainSpec center '1'": (lambda: DomainSpec(centers=("1",), radii=(0.5,)),
                              "centers[0] must be a finite complex number, got '1'"),
    "DomainSpec center None": (lambda: DomainSpec(centers=(None,), radii=(0.5,)),
                               "centers[0] must be a finite complex number, got None"),
    "DomainSpec center inf": (lambda: DomainSpec(centers=(complex(math.inf, 0),), radii=(0.5,)),
                              "centers[0] must be a finite complex number, got (inf+0j)"),
    "DomainSpec radius True": (lambda: DomainSpec(centers=(0j,), radii=(True,)),
                               "radii[0] must be a finite real number, got True"),
    "DomainSpec outer_radius -1": (
        lambda: DomainSpec(centers=(0j,), radii=(0.5,), outer_radius=-1),
        "outer_radius must be positive, got -1"),
    "DomainSpec inner_radius 2": (
        lambda: DomainSpec(centers=(0j,), radii=(0.5,), inner_radius=2),
        "inner_radius must lie in [0, outer_radius), got 2"),
    # a nan outer center made every rejecting comparison of `fits` false
    "DomainSpec outer_center nan": (
        lambda: DomainSpec(centers=(0j,), radii=(5.0,), outer_center=complex(math.nan, 0),
                           outer_radius=2.0),
        "outer_center must be a finite complex number, got (nan+0j)"),
    "SampledField k_max 1.0": (lambda: SampledField(0j, 0.5, ZEROS, 1.0),
                               "k_max must lie in [0, 1), got 1.0"),
    "SampledField k_max True": (lambda: SampledField(0j, 0.5, ZEROS, True),
                                "k_max must be a finite real number, got True"),
    "SampledField spacing True": (lambda: SampledField(0j, True, ZEROS, 0.5),
                                  "spacing must be a finite real number, got True"),
    "SampledField origin nan": (lambda: SampledField(complex(math.nan, 0), 0.5, ZEROS, 0.5),
                                "origin must be a finite complex number, got (nan+0j)"),
    "SampledField origin '1'": (lambda: SampledField("1", 0.5, ZEROS, 0.5),
                                "origin must be a finite complex number, got '1'"),
    "BeltramiField k_max False": (lambda: BeltramiField(lambda z: 0 * z, False),
                                  "k_max must be a finite real number, got False"),
    "stretch_factor True": (lambda: stretch_factor(True), "need a finite K >= 1, got True"),
    "constant_matrix_field K True": (lambda: constant_matrix_field(np.eye(2), True),
                                     "need a finite K >= 1, got True"),
    "radial_stretch True": (lambda: radial_stretch(True), "need a finite K >= 1, got True"),
    "spiral_map True": (lambda: spiral_map(True), "gamma must be a finite real number, got True"),
    "power_spiral '0.5'": (lambda: power_spiral("0.5"),
                           "alpha must be a finite real number, got '0.5'"),
    "affine_map '1'": (lambda: affine_map("1", 0.2), "a must be a finite complex number, got '1'"),
}


@pytest.mark.parametrize("case", LIBRARY_REJECTS)
def test_library_rejects_a_scalar_naming_the_field(case):
    make, message = LIBRARY_REJECTS[case]
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_ints_and_numpy_scalars_stay_accepted():
    assert CircleSpec(1, 2) == CircleSpec(1 + 0j, 2.0)
    assert type(CircleSpec(np.int64(1), np.float32(2)).radius) is float
    assert DomainSpec(centers=(0,), radii=(0.5,)).centers == (0j,)
    domain = DomainSpec(centers=(np.complex128(0.5j),), radii=(np.float32(0.25), np.int64(1)),
                        outer_center=np.float64(0), outer_radius=np.int64(2))
    assert domain.radii == (0.25, 1.0) and domain.outer_center == 0j
    assert QuadratureConfig(nodes=np.int64(256)).nodes == 256
    field = SampledField(np.float64(0), np.int64(1), ZEROS, np.float32(0.5))
    assert (field.origin, field.spacing, field.k_max) == (0j, 1.0, 0.5)
    assert radial_stretch(np.int64(2)).parameters == {"K": 2.0}
    assert affine_map(np.complex64(1), 0).parameters == {"a": 1 + 0j, "b": 0j}


#: (config fragment, key its exit-1 message starts with): cases above that a
#: JSON config can hold, and numbers JSON holds that no float does
CONFIG_REJECTS = [
    ({"domain": {"centers": [["1", 0]]}}, "domain.centers[0]"),
    ({"domain": {"centers": [[None, 0]]}}, "domain.centers[0]"),
    ({"domain": {"centers": [[math.inf, 0]]}}, "domain.centers[0]"),
    ({"domain": {"radii": [True, 2]}}, "domain.radii"),
    ({"domain": {"outer_center": [math.nan, 0], "outer_radius": 2}}, "domain.outer_center"),
    ({"domain": {"margin": 10**400}}, "domain.margin"),
    ({"threshold": 10**400}, "threshold"),
    ({"quadrature": {"rel_tol": -(10**400)}}, "quadrature.rel_tol"),
]


@pytest.mark.parametrize("fragment,key", CONFIG_REJECTS, ids=[k for _, k in CONFIG_REJECTS])
def test_config_file_exits_1_naming_the_key(tmp_path, fragment, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": "radial_stretch(K=2)", **fragment}))
    code, err = run_cli_err(["analyze", "--config", str(config)])
    assert code == 1 and err.startswith(f"qcreg: config error: {key} must be "), err


# -- every exit-0 report satisfies the benchmark's invariants ---------------------

ORDER_SLACK, ISO_SLACK = 1e-9, 1e-6  # as bench/check.py allows


def _complex_text(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


CATALOG_SUBJECTS = st.one_of(
    st.builds("radial_stretch(K={!r})".format, st.floats(1.0, 50.0)),
    st.builds("spiral(gamma={!r})".format, st.floats(-10.0, 10.0)),
    st.builds(lambda a, b: f"affine(a={_complex_text(a)},b={_complex_text(b)})",
              st.complex_numbers(max_magnitude=3.0), st.complex_numbers(max_magnitude=3.0)),
    st.builds("power_spiral(alpha={!r},gamma={!r})".format,
              st.floats(0.05, 3.0), st.floats(-10.0, 10.0)),
)
UNIT = st.floats(-1.0, 1.0)
DOMAINS = st.fixed_dictionaries({
    "centers": st.lists(st.lists(UNIT, min_size=2, max_size=2), min_size=1, max_size=3),
    "radii": st.fixed_dictionaries({"min": st.floats(1e-3, 0.5), "max": st.floats(0.5, 1.5),
                                    "count": st.integers(2, 5)}),
    "margin": st.floats(0.0, 0.3),
})
SMALL_RULES = st.fixed_dictionaries({"nodes": st.sampled_from((16, 32, 64)),
                                     "max_doublings": st.integers(0, 2)})


@settings(max_examples=300)
@given(subject=CATALOG_SUBJECTS, domain=DOMAINS, quadrature=SMALL_RULES)
def test_every_exit_0_report_satisfies_the_benchmark_invariants(subject, domain, quadrature):
    raw = {"subject": subject, "domain": domain, "quadrature": quadrature,
           "diagnostics": {"geometry": False, "extremal": False}}
    try:  # what the CLI maps onto exit codes 1, 2 and 3
        report = json.loads(report_json_bytes(run_analysis(build_config(raw))))
    except QcregError:
        return
    reg = report["regularity"]
    a_imp, a_dist, a_cls = reg["alpha_improved"], reg["alpha_distortion"], reg["alpha_classical"]
    assert a_cls - ORDER_SLACK <= a_dist <= a_imp + ORDER_SLACK
    assert reg["distortion_sup"] <= (1.0 / a_cls) * (1.0 + ORDER_SLACK)
    assert reg["isoperimetric_sup"] <= 1.0 + ISO_SLACK
    assert reg["mori"]["passed"] is True
    assert reg["gronwall"] is None or reg["gronwall"]["passed"] is True


def _assert_benchmark_invariants(report: dict, K: float) -> None:
    """What `bench/check.py` checks of an exit-0 report of a subject of
    distortion K, and on a matrix subject its elliptic ordering."""
    reg = report["regularity"]
    a_imp, a_dist, a_cls = reg["alpha_improved"], reg["alpha_distortion"], reg["alpha_classical"]
    A, C = reg["isoperimetric_sup"], reg["distortion_sup"]
    assert math.isclose(a_cls, 1.0 / K, rel_tol=1e-12)
    assert math.isclose(a_dist, 1.0 / C, rel_tol=1e-12)
    assert math.isclose(a_imp, 1.0 / (A * C), rel_tol=1e-12)
    assert a_cls - ORDER_SLACK <= a_dist <= a_imp + ORDER_SLACK
    assert C <= K * (1.0 + ORDER_SLACK)
    assert A <= 1.0 + ISO_SLACK
    assert reg["mori"]["passed"] is True
    assert reg["gronwall"] is None or reg["gronwall"]["passed"] is True
    if report["subject_kind"] == "matrix":
        ell = report["elliptic"]
        assert ell["alpha_eigen_ratio"] <= ell["alpha_divergence"] + ORDER_SLACK


def _varying_mu(k: float, x, y):
    """A smooth mu with |mu| <= k that varies along both axes."""
    return k * np.exp(1j * (2.0 * x - 1.3 * y)) * (0.75 + 0.25 * np.sin(3.0 * y + x))


@pytest.fixture(scope="module")
def grid_subjects(tmp_path_factory):
    """(path, K) of spatially varying grids on [-1.2, 1.2]^2, whose hull
    covers the unit disk: mu grids of 33^2 and 17^2 nodes and a det-1
    matrix grid of 17^2 nodes."""
    work = tmp_path_factory.mktemp("grids")
    subjects = []
    for name, n, k in (("mu33", 33, 0.3), ("mu17", 17, 0.6), ("matrix17", 17, 0.45)):
        h = 2.4 / (n - 1)
        xs = -1.2 + h * np.arange(n)
        mu = _varying_mu(k, xs[None, :], xs[:, None])
        path = work / f"{name}.csv"
        if name.startswith("mu"):
            save_sampled_field(path, SampledField(origin=-1.2 - 1.2j, spacing=h, values=mu,
                                                  k_max=k))
        else:
            save_matrix_field(path, matrix_from_beltrami(mu), origin=-1.2 - 1.2j, spacing=h,
                              K=(1 + k) / (1 - k))
        subjects.append((str(path), (1 + k) / (1 - k)))
    return subjects


#: a domain inside the grids' hull: every admissible circle lies in an outer
#: disk within [-1.2, 1.2]^2, which the eigenvalue sample of a matrix covers
GRID_DOMAINS = st.fixed_dictionaries({
    "centers": st.lists(st.lists(st.floats(-0.6, 0.6), min_size=2, max_size=2),
                        min_size=1, max_size=3),
    "radii": st.fixed_dictionaries({"min": st.floats(0.02, 0.3), "max": st.floats(0.3, 1.0),
                                    "count": st.integers(2, 4)}),
    "outer_center": st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=2),
    "outer_radius": st.floats(0.6, 1.0),
    "margin": st.floats(0.0, 0.2),
})


@settings(max_examples=200)
@given(which=st.integers(0, 2), domain=GRID_DOMAINS, quadrature=SMALL_RULES,
       interpolation=st.sampled_from(("bilinear", "nearest")))
def test_every_exit_0_grid_report_satisfies_the_benchmark_invariants(
        grid_subjects, which, domain, quadrature, interpolation):
    subject, K = grid_subjects[which]
    raw = {"subject": subject, "domain": domain, "quadrature": quadrature,
           "interpolation": interpolation, "diagnostics": {"geometry": False, "extremal": False}}
    try:  # what the CLI maps onto exit codes 1, 2 and 3
        report = json.loads(report_json_bytes(run_analysis(build_config(raw))))
    except QcregError:
        return
    _assert_benchmark_invariants(report, K)


#: 16 nodes and no doubling: a rule too coarse for the circles below
COARSE = {"quadrature": {"nodes": 16, "max_doublings": 0},
          "diagnostics": {"geometry": False, "extremal": False}}


def test_a_failed_gronwall_check_exits_2(tmp_path):
    # the rule does not resolve the image area of the circle through the
    # map's singular point 0; the report exited 0 with a failed verdict
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": "power_spiral(alpha=0.25,gamma=1.0)",
                                  "domain": {"centers": [[0, 0.25]], "radii": [0.25, 0.5]},
                                  **COARSE}))
    code, err = run_cli_err(["analyze", "--config", str(config)])
    assert code == 2
    assert err.startswith("qcreg: invariant violation: the Gronwall check failed: "), err


@pytest.mark.parametrize("centers", [[[0, 0.25]], [[0, 0], [0, 0.25]], [[0, 0.25], [0, 0.25]]],
                         ids=["alone", "after a center that passes", "twice"])
def test_a_failed_gronwall_check_names_its_centers(tmp_path, centers):
    # beside the family about 0, which passes, the message gave only the
    # merged margins and did not say which family failed
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": "power_spiral(alpha=0.25,gamma=1.0)",
                                  "domain": {"centers": centers, "radii": [0.25, 0.5]},
                                  **COARSE}))
    code, err = run_cli_err(["analyze", "--config", str(config)])
    failed = ", ".join("[0.0, 0.25]" for c in centers if c == [0, 0.25])
    assert code == 2 and err.endswith(f"; failed centers: {failed}\n"), err


@pytest.mark.parametrize("centers", [[[0, 0], [0.4, 0]], [[0.4, 0]]],
                         ids=["beside a round circle", "alone"])
def test_a_non_positive_image_area_exits_3_naming_its_circle(tmp_path, centers):
    # on the circle of radius 0.35 about 0.4 the rule gives a negative image
    # area: next to positive ones it was averaged into A unnoticed, alone it
    # made A negative and ended in a traceback
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subject": "radial_stretch(K=48)",
                                  "domain": {"centers": centers, "radii": [0.35, 0.7]},
                                  **COARSE}))
    code, err = run_cli_err(["analyze", "--config", str(config)])
    assert code == 3
    assert err.startswith("qcreg: numerical failure: need a positive image area, got "), err
    assert err.endswith(" on CircleSpec(center=(0.4+0j), radius=0.35)\n")
