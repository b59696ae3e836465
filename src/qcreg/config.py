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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import entry_from_spec
from .errors import ConfigError
from .plane import DomainSpec
from .quadrature import QuadratureConfig

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


@dataclass(frozen=True)
class AnalysisConfig:
    subject: str
    domain: DomainSpec
    quadrature: QuadratureConfig
    profile_radii: np.ndarray
    run_geometry: bool = True
    run_extremal: bool = True
    threshold: float = 0.01
    interpolation: str = "bilinear"
    output_json: str | None = None
    output_csv_dir: str | None = None
    resolved: dict = field(default_factory=dict, compare=False)

    def config_hash(self) -> str:
        canon = json.dumps(self.resolved, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    @property
    def subject_kind(self) -> str:
        return classify_subject(self.subject)


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


def _positive_number(value, where: str) -> float:
    # bool is an int subclass; JSON true/false is never a radius
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{where} must be positive and finite, got {value!r}")
    return float(value)


def _radii_array(spec, where: str) -> np.ndarray:
    if isinstance(spec, list):
        radii = np.array([_positive_number(r, where) for r in spec])
    elif isinstance(spec, dict):
        _reject_unknown(spec, ("min", "max", "count"), where)
        merged = {**DEFAULTS["radii"], **spec}
        count = merged["count"]
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 2:
            raise ConfigError(f"{where}.count must be an integer >= 2, got {count!r}")
        radii = np.geomspace(
            _positive_number(merged["min"], f"{where}.min"),
            _positive_number(merged["max"], f"{where}.max"),
            int(count),
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
    centers = tuple(complex(c[0], c[1]) for c in merged["centers"])
    try:
        domain = DomainSpec(
            centers=centers,
            radii=tuple(radii),
            outer_center=complex(merged["outer_center"][0], merged["outer_center"][1]),
            outer_radius=float(merged["outer_radius"]),
            inner_radius=float(merged["inner_radius"]),
            margin=float(merged["margin"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    return domain, {**merged, "radii": [float(r) for r in radii],
                    "centers": [[c.real, c.imag] for c in centers]}


def build_config(raw: dict) -> AnalysisConfig:
    """Validate a raw config dict, fill defaults, resolve grids."""
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

    quad_raw = dict(raw.get("quadrature", {}))
    _reject_unknown(quad_raw, DEFAULTS["quadrature"].keys(), "quadrature")
    quad_merged = {**DEFAULTS["quadrature"], **quad_raw}
    try:
        quadrature = QuadratureConfig(
            nodes=int(quad_merged["nodes"]),
            max_doublings=int(quad_merged["max_doublings"]),
            rel_tol=float(quad_merged["rel_tol"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad quadrature: {exc}") from exc

    domain, domain_resolved = _domain_from(dict(raw.get("domain", {})))
    profile_radii = _radii_array(raw.get("radii", dict(DEFAULTS["radii"])), "radii")

    diag_raw = dict(raw.get("diagnostics", {}))
    _reject_unknown(diag_raw, DEFAULTS["diagnostics"].keys(), "diagnostics")
    diag = {**DEFAULTS["diagnostics"], **diag_raw}

    interpolation = raw.get("interpolation", DEFAULTS["interpolation"])
    if interpolation not in ("bilinear", "nearest"):
        raise ConfigError(f"interpolation must be bilinear or nearest, got {interpolation!r}")

    resolved = {
        "subject": raw["subject"],
        "domain": domain_resolved,
        "quadrature": quadrature.describe(),
        "radii": [float(r) for r in profile_radii],
        "diagnostics": diag,
        "threshold": float(raw.get("threshold", DEFAULTS["threshold"])),
        "interpolation": interpolation,
    }
    return AnalysisConfig(
        subject=raw["subject"],
        domain=domain,
        quadrature=quadrature,
        profile_radii=profile_radii,
        run_geometry=bool(diag["geometry"]),
        run_extremal=bool(diag["extremal"]),
        threshold=float(resolved["threshold"]),
        interpolation=interpolation,
        output_json=raw.get("output_json"),
        output_csv_dir=raw.get("output_csv_dir"),
        resolved=resolved,
    )


def load_config(path) -> AnalysisConfig:
    """Read and validate a JSON config file.

    Parse errors carry the offending line; an invalid catalog subject
    raises ConfigError listing the available names.
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
    cfg = build_config(raw)
    cfg.subject_kind  # parses catalog specs / sniffs file headers, raising early
    return cfg


def default_config_for(subject: str, **overrides) -> AnalysisConfig:
    """Config with package defaults for a subject plus keyword overrides."""
    raw = {"subject": subject, **overrides}
    return build_config(raw)
