"""Analysis configuration: JSON ingestion with defaults and strict keys.

A config names exactly one subject (a catalog spec string like
``radial_stretch(K=2)``, a sampled-coefficient CSV, or a coefficient-matrix
CSV), the circle-search domain, the quadrature settings, the profile radii
and the diagnostics toggles. Unknown keys are rejected so typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .catalog import entry_from_spec
from .errors import ConfigError
from .plane import DomainSpec
from .quadrature import MAX_CIRCLE_NODES, QuadratureConfig

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
        return hashlib.sha256(canon.encode()).hexdigest()


def classify_subject(subject: str) -> str:
    """One of 'catalog', 'sampled-mu', 'matrix' based on the subject string."""
    if subject.endswith(".csv"):
        path = Path(subject)
        try:
            with open(path) as fh:
                header = fh.readline().strip().replace(" ", "")
        except OSError as exc:
            raise ConfigError(f"cannot read subject file {subject}: {exc}")
        if header == "x,y,re,im":
            return "sampled-mu"
        if header == "x,y,a11,a12,a22":
            return "matrix"
        raise ConfigError(
            f"{subject}: unrecognized header {header!r}; expected "
            f"'x,y,re,im' or 'x,y,a11,a12,a22'"
        )
    entry_from_spec(subject)  # raises ConfigError listing names when invalid
    return "catalog"


def _reject_unknown(given: dict, allowed, where: str) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}; allowed: {sorted(allowed)}")


def _is_real(value) -> bool:
    # bool is an int subclass; JSON true/false is never a number here
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _number(value, where: str, *, positive: bool = False) -> float:
    if not _is_real(value):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not math.isfinite(value) or (positive and not value > 0):
        kind = "positive and finite" if positive else "finite"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return float(value)


def _integer(value, where: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _flag(value, where: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return bool(value)


def _point(value, where: str) -> complex:
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_real(v) and math.isfinite(v) for v in value)
    ):
        raise ConfigError(f"{where} must be an [x, y] pair of finite numbers, got {value!r}")
    return complex(value[0], value[1])


def _section(raw: dict, key: str) -> dict:
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return dict(value)


def _radii_array(spec, where: str) -> np.ndarray:
    if isinstance(spec, list):
        radii = np.array([_number(r, where, positive=True) for r in spec])
    elif isinstance(spec, dict):
        _reject_unknown(spec, ("min", "max", "count"), where)
        merged = {**DEFAULTS["radii"], **spec}
        with np.errstate(over="ignore"):  # the float range ends at either bound
            radii = np.geomspace(
                _number(merged["min"], f"{where}.min", positive=True),
                _number(merged["max"], f"{where}.max", positive=True),
                _integer(merged["count"], f"{where}.count", 2),
            )
    else:
        raise ConfigError(f"{where} must be a list or a min/max/count object")
    if radii.size < 2 or np.any(np.diff(radii) <= 0):
        raise ConfigError(f"{where} must be >= 2 positive strictly increasing values")
    return radii


def _domain_from(raw: dict) -> tuple[DomainSpec, dict]:
    _reject_unknown(raw, DEFAULTS["domain"].keys(), "domain")
    merged = {**DEFAULTS["domain"], **raw}
    radii = _radii_array(merged["radii"], "domain.radii")
    if not (isinstance(merged["centers"], (list, tuple)) and merged["centers"]):
        raise ConfigError(f"domain.centers must be a nonempty list, got {merged['centers']!r}")
    centers = tuple(
        _point(c, f"domain.centers[{i}]") for i, c in enumerate(merged["centers"])
    )
    margin = _number(merged["margin"], "domain.margin")
    if margin < 0:
        raise ConfigError(f"domain.margin must be >= 0, got {merged['margin']!r}")
    try:
        domain = DomainSpec(
            centers=centers,
            radii=tuple(radii),
            outer_center=_point(merged["outer_center"], "domain.outer_center"),
            outer_radius=_number(merged["outer_radius"], "domain.outer_radius", positive=True),
            inner_radius=_number(merged["inner_radius"], "domain.inner_radius"),
            margin=margin,
        )
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    return domain, {**merged, "radii": [float(r) for r in radii],
                    "centers": [[c.real, c.imag] for c in centers]}


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
    quad_merged = {**DEFAULTS["quadrature"], **quad_raw}
    nodes = _integer(quad_merged["nodes"], "quadrature.nodes", 16)
    max_doublings = _integer(quad_merged["max_doublings"], "quadrature.max_doublings", 0)
    if nodes << min(max_doublings, 64) > MAX_CIRCLE_NODES:
        raise ConfigError(
            f"quadrature.nodes * 2**quadrature.max_doublings = {nodes} * 2**{max_doublings} "
            f"exceeds the ceiling of {MAX_CIRCLE_NODES} nodes per circle"
        )
    try:
        quadrature = QuadratureConfig(
            nodes=nodes,
            max_doublings=max_doublings,
            rel_tol=_number(quad_merged["rel_tol"], "quadrature.rel_tol", positive=True),
        )
    except ValueError as exc:
        raise ConfigError(f"bad quadrature: {exc}") from exc

    domain, domain_resolved = _domain_from(_section(raw, "domain"))
    profile_radii = _radii_array(raw.get("radii", dict(DEFAULTS["radii"])), "radii")

    diag_raw = _section(raw, "diagnostics")
    _reject_unknown(diag_raw, DEFAULTS["diagnostics"].keys(), "diagnostics")
    diag = {**DEFAULTS["diagnostics"], **diag_raw}
    run_geometry = _flag(diag["geometry"], "diagnostics.geometry")
    run_extremal = _flag(diag["extremal"], "diagnostics.extremal")
    threshold = _number(raw.get("threshold", DEFAULTS["threshold"]), "threshold", positive=True)

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
        "domain": domain_resolved,
        "quadrature": quadrature.describe(),
        "radii": [float(r) for r in profile_radii],
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
    """The JSON object of a config file, as written (not yet validated).

    Parse errors carry the offending line.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: JSON parse error at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def default_config_for(subject: str, **overrides) -> AnalysisConfig:
    """Config with package defaults for a subject plus keyword overrides."""
    raw = {"subject": subject, **overrides}
    return build_config(raw)
