"""Analysis orchestration and report emission.

`run_analysis` resolves the configured subject, runs the requested
pipelines and returns a RunReport whose JSON form is byte-stable for a
fixed config and package version: all sampling is deterministic and no
timestamps enter the output. `emit_report` writes the JSON report and an
optional CSV bundle (one file per profile, documented headers).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .bounds import RegularityReport, regularity_report
from .catalog import entry_from_spec
from .config import AnalysisConfig
from .elliptic import (
    ComparisonReport,
    comparison_bounds,
    elliptic_holder_bound,
    validate_matrix_field,
)
from .errors import ConfigError, InvariantViolationError
from .extremal import (
    DefectProfile,
    EpsilonProfile,
    ExtremalityVerdict,
    defect_weight_integral,
    empirical_holder,
    epsilon_weight_integral,
    extremality_report,
)
from .geometry import GeometryProfile, geometry_profile
from .io import load_matrix_field, load_sampled_field
from .plane import VALIDATION_DISK, CircleSpec, validate_field

#: slack allowed on the isoperimetric sup before a run is declared invalid
ISO_SUP_TOL = 1e-6


class RunReport(NamedTuple):
    subject: str
    subject_kind: str
    regularity: RegularityReport
    geometry: GeometryProfile | None
    epsilon: EpsilonProfile | None
    defect: DefectProfile | None
    holder_estimates: list | None
    extremality: ExtremalityVerdict | None
    elliptic: ComparisonReport | None
    provenance: dict

    def to_json_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "subject_kind": self.subject_kind,
            "regularity": self.regularity.describe(),
            "provenance": self.provenance,
        }
        if self.geometry is not None:
            out["geometry_profile"] = self.geometry.describe()
        if self.epsilon is not None:
            out["epsilon_profile"] = self.epsilon.describe()
        if self.defect is not None:
            out["defect_profile"] = self.defect.describe()
        if self.holder_estimates is not None:
            out["holder_estimates"] = [
                {"t": t, "from_area": a} for t, a in self.holder_estimates
            ]
        if self.extremality is not None:
            out["extremality"] = self.extremality.describe()
        if self.elliptic is not None:
            out["elliptic"] = self.elliptic.describe()
        return out


def run_analysis(cfg: AnalysisConfig) -> RunReport:
    """Run the configured analysis; deterministic for a fixed config.

    Raises InvariantViolationError when a mathematical invariant fails
    (isoperimetric sup above 1, negative defects, bound ordering); the CLI
    maps that onto exit code 2. Raises ConfigError when the extremal
    diagnostics of a catalog subject have no profile radius below 1, where
    the Holder estimates and the verdict live.
    """
    kind = cfg.subject_kind
    geometry = epsilon = defect = holder = verdict = elliptic = None

    if kind == "catalog":
        interior = cfg.profile_radii[cfg.profile_radii < 1.0]
        if cfg.run_extremal and not interior.size:
            raise ConfigError(
                "the extremal diagnostics need a profile radius below 1, but the radii "
                f"span [{float(cfg.profile_radii[0])!r}, {float(cfg.profile_radii[-1])!r}]"
            )
        entry = entry_from_spec(cfg.subject)
        map_model = entry.map
        field = validate_field(map_model.beltrami)
        report = regularity_report(map_model, cfg.domain, cfg.quadrature)
        if cfg.run_geometry or cfg.run_extremal:
            geometry = geometry_profile(map_model, cfg.profile_radii, cfg.quadrature)
        if cfg.run_extremal:
            K = field.distortion_ratio
            epsilon = epsilon_weight_integral(
                field, K, cfg.profile_radii, cfg.quadrature
            )
            defect = defect_weight_integral(geometry)
            holder = empirical_holder(map_model, interior, cfg.quadrature, profile=geometry)
            verdict = extremality_report(epsilon, defect, holder, cfg.threshold)
    elif kind == "sampled-mu":
        sampled = load_sampled_field(cfg.subject, cfg.interpolation)
        profile = ("the largest profile circle", CircleSpec(0j, cfg.profile_radii.max()))
        _require_grid_covers(sampled, cfg, [profile] if cfg.run_extremal else [])
        field = validate_field(sampled.as_beltrami())
        report = regularity_report(field, cfg.domain, cfg.quadrature)
        if cfg.run_extremal:
            epsilon = epsilon_weight_integral(
                field, field.distortion_ratio, cfg.profile_radii, cfg.quadrature
            )
    elif kind == "matrix":
        matrix = load_matrix_field(cfg.subject, cfg.interpolation)
        outer = CircleSpec(cfg.domain.outer_center, cfg.domain.outer_radius)
        _require_grid_covers(matrix.grid, cfg, [("the eigenvalue sample disk", outer)])
        matrix = validate_matrix_field(matrix)
        report = elliptic_holder_bound(matrix, cfg.domain, cfg.quadrature)
        elliptic = comparison_bounds(matrix, cfg.domain, report)
    else:  # pragma: no cover - classify_subject exhausts the kinds
        raise AssertionError(kind)

    _enforce_invariants(report, geometry, elliptic)

    provenance = {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "config": cfg.resolved,
        "grid": {
            "domain_circles": len(cfg.domain.admissible_circles()),
            "profile_radii": len(cfg.profile_radii),
            "quadrature_nodes": cfg.quadrature.nodes,
        },
    }
    return RunReport(
        subject=cfg.subject,
        subject_kind=kind,
        regularity=report,
        geometry=geometry,
        epsilon=epsilon,
        defect=defect,
        holder_estimates=holder,
        extremality=verdict,
        elliptic=elliptic,
        provenance=provenance,
    )


def _require_grid_covers(grid, cfg, more_disks) -> None:
    """Reject a grid subject whose hull leaves out a disk the run evaluates.

    The disks are the validation disk, every admissible circle and the
    (name, disk) pairs of `more_disks`; the first one outside is named.
    """
    disks = [("the validation disk", VALIDATION_DISK)]
    disks += [("admissible circle", c) for c in cfg.domain.admissible_circles()]
    for what, disk in disks + more_disks:
        grid.require_covers(disk, what)


def _enforce_invariants(report, geometry, elliptic) -> None:
    if report.isoperimetric_sup > 1.0 + ISO_SUP_TOL:
        raise InvariantViolationError(
            f"isoperimetric sup {report.isoperimetric_sup} exceeds 1 + {ISO_SUP_TOL}"
        )
    if report.alpha_improved < report.alpha_distortion - 1e-9:
        raise InvariantViolationError("improved bound fell below the distortion bound")
    if report.alpha_distortion < report.alpha_classical - 1e-9:
        raise InvariantViolationError("distortion bound fell below the uniform bound")
    if geometry is not None and float(np.min(geometry.delta)) < -1e-6:
        raise InvariantViolationError("negative isoperimetric defect beyond tolerance")
    if elliptic is not None and elliptic.alpha_eigen_ratio > report.alpha_distortion + 1e-9:
        raise InvariantViolationError("eigen-ratio bound exceeded divergence bound")


def report_json_bytes(report: RunReport) -> bytes:
    """Canonical JSON encoding: sorted keys, fixed separators, trailing newline."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return (text + "\n").encode()


def emit_report(
    report: RunReport,
    json_path=None,
    csv_dir=None,
) -> list[Path]:
    """Write the JSON report and/or the per-profile CSV bundle.

    Returns the list of files written. CSV headers:
    geometry ``t,len_direct,len_formula,area_jac,area_green,phi,h,delta``;
    epsilon ``t,eps_re_avg,W,ratio_W``; defect ``t,delta,I,ratio_I``;
    holder ``t,from_area``; regularity: one flat row.
    """
    written: list[Path] = []
    if json_path is not None:
        json_path = Path(json_path)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_bytes(report_json_bytes(report))
        written.append(json_path)
    if csv_dir is not None:
        csv_dir = Path(csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
        reg = csv_dir / "regularity.csv"
        reg.write_text(report.regularity.to_csv_row())
        written.append(reg)
        if report.geometry is not None:
            path = csv_dir / "geometry.csv"
            report.geometry.to_csv(path)
            written.append(path)
        if report.epsilon is not None:
            path = csv_dir / "epsilon.csv"
            report.epsilon.to_csv(path)
            written.append(path)
        if report.defect is not None:
            path = csv_dir / "defect.csv"
            report.defect.to_csv(path)
            written.append(path)
        if report.holder_estimates is not None:
            path = csv_dir / "holder.csv"
            rows = np.asarray(report.holder_estimates, dtype=float)
            np.savetxt(path, rows, delimiter=",", header="t,from_area", comments="")
            written.append(path)
    return written


def load_report_json(path) -> dict:
    """Read back an emitted JSON report (round-trip counterpart of emit)."""
    return json.loads(Path(path).read_text())
