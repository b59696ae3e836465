"""Analysis configuration: JSON ingestion with defaults and strict keys.

A config names exactly one subject (a catalog spec string like
``radial_stretch(K=2)``, a sampled-coefficient CSV, or a coefficient-matrix
CSV), the circle-search domain, the quadrature settings, the profile radii
and the diagnostics toggles. Unknown keys are rejected so typos cannot
silently fall back to defaults. The config checks the JSON's shape; the
quadrature and domain values are checked once, by the records built from
them (`_keyed` prefixes their messages with the section).
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .catalog import entry_from_spec
from .errors import ConfigError
from .plane import DomainSpec, _finite_real, _integer, to_json
from .quadrature import QuadratureConfig

# hashlib loads OpenSSL's libcrypto (milliseconds of a cold CLI run) for one
# short digest; the interpreter's built-in sha256 gives the same bytes
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

#: first lines of the sampled-mu and coefficient-matrix grid CSVs
MU_HEADER = "x,y,re,im"
MATRIX_HEADER = "x,y,a11,a12,a22"

DEFAULTS = {
    "domain": {
        "centers": [[0.0, 0.0]],
        "radii": {"min": 0.05, "max": 1.0, "count": 16},
        "outer_center": [0.0, 0.0],
        "outer_radius": 1.0,
        "inner_radius": 0.0,
        "margin": 0.0,
    },
    "quadrature": {"nodes": 256, "max_doublings": 6, "rel_tol": 1e-9},
    "radii": {"min": 1e-3, "max": 1.0, "count": 33},
    "diagnostics": {"geometry": True, "extremal": True},
    "threshold": 0.01,
    "interpolation": "bilinear",
}


class AnalysisConfig(NamedTuple):
    """A validated config, as `build_config` makes it.

    `subject_kind` is `classify_subject(subject)`, found once; `resolved` is
    the config with every default filled in, which the report's provenance
    and `config_hash` carry.
    """

    subject: str
    subject_kind: str
    domain: DomainSpec
    quadrature: QuadratureConfig
    profile_radii: np.ndarray
    resolved: dict
    run_geometry: bool
    run_extremal: bool
    threshold: float
    interpolation: str
    output_json: str | None
    output_csv_dir: str | None

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return _sha256(canon.encode()).hexdigest()


def classify_subject(subject: str) -> str:
    """One of 'catalog', 'sampled-mu', 'matrix' based on the subject string."""
    if subject.endswith(".csv"):
        try:
            header = _first_line(subject).replace(" ", "")
        except OSError as exc:
            raise ConfigError(f"cannot read subject file {subject}: {exc}")
        if header == MU_HEADER:
            return "sampled-mu"
        if header == MATRIX_HEADER:
            return "matrix"
        raise ConfigError(
            f"{subject}: unrecognized header {header!r}; expected "
            f"{MU_HEADER!r} or {MATRIX_HEADER!r}"
        )
    entry_from_spec(subject)  # raises ConfigError listing names when invalid
    return "catalog"


def _first_line(path) -> str:
    """The first line of a text file, stripped, read as UTF-8 with each bad
    byte replaced (so never a decode error, whatever the locale)."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.readline().strip()


def _reject_unknown(given: dict, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _keyed(section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`: a record, or a scalar check of `qcreg.plane`.

    Every ValueError of these starts with the field it rejects, so it is
    raised as a ConfigError of its text after `section` ("quadrature.",
    "domain.", or "" for a check handed the full key), which names the key.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(section + str(exc)) from None


_key_real, _key_integer = partial(_keyed, "", _finite_real), partial(_keyed, "", _integer)


def _flag(value, where: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return bool(value)


def _point(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"{where} must be an [x, y] pair of finite numbers, got {value!r}")
    return complex(*(_key_real(where, v) for v in value))


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return dict(value)


def _radii_array(spec, where: str, defaults: dict) -> np.ndarray:
    """A radii list, or a min/max/count object whose missing keys come from
    `defaults`, its own section's radii."""
    if isinstance(spec, list):
        radii = np.array([_key_real(where, r, positive=True) for r in spec])
    elif isinstance(spec, dict):
        _reject_unknown(spec, ("min", "max", "count"), where)
        merged = {**defaults, **spec}
        with np.errstate(over="ignore"):  # the float range ends at either bound
            radii = np.geomspace(
                _key_real(f"{where}.min", merged["min"], positive=True),
                _key_real(f"{where}.max", merged["max"], positive=True),
                _key_integer(f"{where}.count", merged["count"], 2),
            )
    else:
        raise ConfigError(f"{where} must be a list or a min/max/count object")
    if radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ConfigError(f"{where} must be >= 2 positive strictly increasing values")
    return radii


def _domain_from(raw: dict) -> DomainSpec:
    _reject_unknown(raw, DEFAULTS["domain"].keys(), "domain")
    merged = {**DEFAULTS["domain"], **raw}
    radii = _radii_array(merged["radii"], "domain.radii", DEFAULTS["domain"]["radii"])
    if not (isinstance(merged["centers"], (list, tuple)) and merged["centers"]):
        raise ConfigError(f"domain.centers must be a nonempty list, got {merged['centers']!r}")
    centers = tuple(_point(c, f"domain.centers[{i}]") for i, c in enumerate(merged["centers"]))
    return _keyed(
        "domain.", DomainSpec,
        centers=centers,
        radii=tuple(radii),
        outer_center=_point(merged["outer_center"], "domain.outer_center"),
        outer_radius=merged["outer_radius"],
        inner_radius=merged["inner_radius"],
        margin=merged["margin"],
    )


def build_config(raw: dict) -> AnalysisConfig:
    """Validate a raw config dict, fill defaults, resolve grids, classify the
    subject.

    The subject is classified last, once: a catalog spec is parsed and a CSV
    subject's header read, so an invalid subject raises ConfigError here, as
    does a catalog map whose extremal diagnostics lack a profile radius < 1.
    """
    allowed = (
        "subject",
        "domain",
        "quadrature",
        "radii",
        "diagnostics",
        "threshold",
        "interpolation",
        "output_json",
        "output_csv_dir",
    )
    _reject_unknown(raw, allowed, "config")
    if "subject" not in raw or not isinstance(raw["subject"], str):
        raise ConfigError("config needs exactly one 'subject' string")

    quad_raw = _section(raw, "quadrature")
    _reject_unknown(quad_raw, DEFAULTS["quadrature"].keys(), "quadrature")
    quadrature = _keyed("quadrature.", QuadratureConfig,
                        **{**DEFAULTS["quadrature"], **quad_raw})

    domain = _domain_from(_section(raw, "domain"))
    profile_radii = _radii_array(raw.get("radii", DEFAULTS["radii"]), "radii", DEFAULTS["radii"])

    diag_raw = _section(raw, "diagnostics")
    _reject_unknown(diag_raw, DEFAULTS["diagnostics"].keys(), "diagnostics")
    diag = {**DEFAULTS["diagnostics"], **diag_raw}
    run_geometry = _flag(diag["geometry"], "diagnostics.geometry")
    run_extremal = _flag(diag["extremal"], "diagnostics.extremal")
    threshold = _key_real("threshold", raw.get("threshold", DEFAULTS["threshold"]), positive=True)

    interpolation = raw.get("interpolation", DEFAULTS["interpolation"])
    if interpolation not in ("bilinear", "nearest"):
        raise ConfigError(f"interpolation must be bilinear or nearest, got {interpolation!r}")
    for key in ("output_json", "output_csv_dir"):
        if not isinstance(raw.get(key), (str, type(None))):
            raise ConfigError(f"{key} must be a path string, got {raw[key]!r}")

    subject_kind = classify_subject(raw["subject"])
    if subject_kind == "catalog" and run_extremal and not profile_radii[0] < 1.0:
        raise ConfigError(
            "the extremal diagnostics need a profile radius below 1, but the radii "
            f"span [{float(profile_radii[0])!r}, {float(profile_radii[-1])!r}]"
        )
    resolved = {
        "subject": raw["subject"],
        "domain": to_json(domain),
        "quadrature": to_json(quadrature),
        "radii": to_json(profile_radii),
        "diagnostics": diag,
        "threshold": threshold,
        "interpolation": interpolation,
    }
    return AnalysisConfig(
        subject=raw["subject"],
        subject_kind=subject_kind,
        domain=domain,
        quadrature=quadrature,
        profile_radii=profile_radii,
        resolved=resolved,
        run_geometry=run_geometry,
        run_extremal=run_extremal,
        threshold=threshold,
        interpolation=interpolation,
        output_json=raw.get("output_json"),
        output_csv_dir=raw.get("output_csv_dir"),
    )


def read_config(path) -> dict:
    """The JSON object of a config file, as written (not yet validated)."""
    return _json_object(path, "config file")


def _json_object(path, what: str) -> dict:
    """The JSON object in the file at `path`, a `what` (a config file or a
    grid's sidecar), read as UTF-8. A missing file, text that is not UTF-8
    or not JSON (naming the line), an integer beyond Python's digit limit and
    a top level that is not an object are ConfigErrors naming the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such {what}: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def default_config_for(subject: str, **overrides) -> AnalysisConfig:
    """Config with package defaults for a subject plus keyword overrides."""
    raw = {"subject": subject, **overrides}
    return build_config(raw)
