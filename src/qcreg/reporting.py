"""Analysis orchestration and report emission.

`run_analysis` resolves the configured subject, runs the requested
pipelines and returns a RunReport whose JSON form is byte-stable for a
fixed config and package version: all sampling is deterministic and no
timestamps enter the output. `emit_report` writes the JSON report and an
optional CSV bundle, each file from its block of the JSON report.
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
from .errors import InvariantViolationError
from .extremal import (
    DefectProfile,
    EpsilonProfile,
    ExtremalityVerdict,
    HolderEstimate,
    defect_weight_integral,
    empirical_holder,
    epsilon_weight_integral,
    extremality_report,
)
from .geometry import GeometryProfile, geometry_profile
from .io import load_matrix_field, load_sampled_field
from .plane import VALIDATION_DISK, CircleSpec, to_json, validate_field

#: slack allowed on the isoperimetric sup before a run is declared invalid
ISO_SUP_TOL = 1e-6


class RunReport(NamedTuple):
    """The blocks of a report; a block that did not run is None."""

    subject: str
    subject_kind: str
    regularity: RegularityReport
    geometry_profile: GeometryProfile | None
    epsilon_profile: EpsilonProfile | None
    defect_profile: DefectProfile | None
    holder_estimates: list[HolderEstimate] | None
    extremality: ExtremalityVerdict | None
    elliptic: ComparisonReport | None
    provenance: dict

    def to_json_dict(self) -> dict:
        """The JSON report: each block present, under its field name."""
        return {key: to_json(block) for key, block in self._asdict().items() if block is not None}


def run_analysis(cfg: AnalysisConfig) -> RunReport:
    """Run the configured analysis; deterministic for a fixed config.

    Each stage runs on what `_resolve` holds: a matrix gets the elliptic
    bounds, a map or field the regularity report, a map the profile, defects,
    Holder estimates and verdict, and a field epsilon: a map's from a stacked
    row of its profile pass, a field subject's from its own pass. Raises
    InvariantViolationError when a mathematical invariant fails
    (isoperimetric sup above 1, negative defects, bound ordering, a failed
    Mori or Gronwall check); the CLI maps that onto exit code 2.
    """
    field, map_model, matrix = _resolve(cfg)
    geometry = epsilon = defect = holder = verdict = elliptic = None

    if matrix is not None:
        report = elliptic_holder_bound(matrix, cfg.domain, cfg.quadrature)
        elliptic = comparison_bounds(matrix, cfg.domain, report)
    else:
        report = regularity_report(map_model or field, cfg.domain, cfg.quadrature)
    K = field.distortion_ratio if cfg.run_extremal and matrix is None else None
    if map_model is not None and K is not None:
        geometry, eps_avg = geometry_profile(map_model, cfg.profile_radii, cfg.quadrature, K=K)
        epsilon = EpsilonProfile.from_averages(geometry.t, K, eps_avg)
    elif map_model is not None and cfg.run_geometry:
        geometry = geometry_profile(map_model, cfg.profile_radii, cfg.quadrature)
    elif K is not None:
        epsilon = epsilon_weight_integral(field, K, cfg.profile_radii, cfg.quadrature)
    if cfg.run_extremal and geometry is not None:
        defect = defect_weight_integral(geometry)
        holder = empirical_holder(geometry)
        verdict = extremality_report(epsilon, defect, holder, cfg.threshold)

    _enforce_invariants(report, elliptic)

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
        subject_kind=cfg.subject_kind,
        regularity=report,
        geometry_profile=geometry,
        epsilon_profile=epsilon,
        defect_profile=defect,
        holder_estimates=holder,
        extremality=verdict,
        elliptic=elliptic,
        provenance=provenance,
    )


def _resolve(cfg: AnalysisConfig) -> tuple:
    """The subject, loaded and certified once, as (field, map_model, matrix):
    its certified field, and its map or certified matrix, or None. A grid
    must cover every disk the run evaluates before it is certified.
    """
    if cfg.subject_kind == "catalog":
        map_model = entry_from_spec(cfg.subject).map
        return validate_field(map_model.beltrami), map_model, None
    if cfg.subject_kind == "sampled-mu":
        sampled = load_sampled_field(cfg.subject, cfg.interpolation)
        profile = ("the largest profile circle", CircleSpec(0j, cfg.profile_radii.max()))
        _require_grid_covers(sampled, cfg, [profile] if cfg.run_extremal else [])
        return validate_field(sampled.as_beltrami()), None, None
    matrix = load_matrix_field(cfg.subject, cfg.interpolation)
    outer = CircleSpec(cfg.domain.outer_center, cfg.domain.outer_radius)
    _require_grid_covers(matrix.grid, cfg, [("the eigenvalue sample disk", outer)])
    matrix = validate_matrix_field(matrix)
    return matrix.beltrami, None, matrix


def _require_grid_covers(grid, cfg, more_disks) -> None:
    """Reject a grid subject whose hull leaves out a disk the run evaluates.

    The disks are the validation disk, every admissible circle and the
    (name, disk) pairs of `more_disks`; the first one outside is named.
    """
    disks = [("the validation disk", VALIDATION_DISK)]
    disks += [("admissible circle", c) for c in cfg.domain.admissible_circles()]
    for what, disk in disks + more_disks:
        grid.require_covers(disk, what)


def _enforce_invariants(report, elliptic) -> None:
    if report.isoperimetric_sup > 1.0 + ISO_SUP_TOL:
        raise InvariantViolationError(
            f"isoperimetric sup {report.isoperimetric_sup} exceeds 1 + {ISO_SUP_TOL}"
        )
    if report.alpha_improved < report.alpha_distortion - 1e-9:
        raise InvariantViolationError("improved bound fell below the distortion bound")
    if report.alpha_distortion < report.alpha_classical - 1e-9:
        raise InvariantViolationError("distortion bound fell below the uniform bound")
    if elliptic is not None and elliptic.alpha_eigen_ratio > report.alpha_distortion + 1e-9:
        raise InvariantViolationError("eigen-ratio bound exceeded divergence bound")
    if not report.mori.passed:
        raise InvariantViolationError(f"the Mori check failed: {to_json(report.mori)}")
    gronwall = report.gronwall
    if gronwall is not None and not gronwall.passed:
        where = ", ".join(f"[{c.real!r}, {c.imag!r}]" for c in gronwall.failed_centers)
        raise InvariantViolationError(
            f"the Gronwall check failed: {to_json(gronwall)}; failed centers: {where}"
        )


def report_json_bytes(report: RunReport) -> bytes:
    """Canonical JSON encoding: sorted keys, fixed separators, trailing newline."""
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return (text + "\n").encode()


#: the CSV file of each list-valued block of the JSON report, in writing order
_CSV_FILES = (
    ("geometry_profile", "geometry.csv"),
    ("epsilon_profile", "epsilon.csv"),
    ("defect_profile", "defect.csv"),
    ("holder_estimates", "holder.csv"),
)


def _regularity_row(block: dict) -> dict:
    """The `regularity` block as the one flat row of regularity.csv.

    The suprema and exponents keep their names; each argmax circle becomes
    `C_`/`A_` center and radius cells, and each verdict its worst margin and
    pass flag. An absent circle or verdict gives None (an empty cell).
    """
    row = {key: block[key] for key in (
        "distortion_sup", "isoperimetric_sup", "alpha_improved",
        "alpha_distortion", "alpha_classical",
    )}
    for prefix, key in (("C", "distortion_argmax"), ("A", "isoperimetric_argmax")):
        circle = block[key] or {"center": (None, None), "radius": None}
        row[f"{prefix}_center_x"], row[f"{prefix}_center_y"] = circle["center"]
        row[f"{prefix}_radius"] = circle["radius"]
    for key in ("mori", "gronwall"):
        verdict = block[key] or {}
        row[f"{key}_margin"] = verdict.get("worst_margin")
        row[f"{key}_passed"] = verdict.get("passed")
    return row


def _columns(block) -> dict:
    """The list-valued keys of a profile block; a list of records is transposed."""
    if isinstance(block, list):
        return {key: [record[key] for record in block] for key in block[0]}
    return {key: value for key, value in block.items() if isinstance(value, list)}


def emit_report(
    report: RunReport,
    json_path=None,
    csv_dir=None,
) -> list[Path]:
    """Write the JSON report and/or the CSV bundle; returns the files written.

    Every CSV comes from its block of `RunReport.to_json_dict()`:
    regularity.csv is the header and the row of `_regularity_row` (CRLF line
    ends, an empty cell for None), and each file of `_CSV_FILES` has one
    ``%.18e`` column per list-valued key of its block, in the block's order
    (README "File formats" lists the headers).
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
        payload = report.to_json_dict()
        row = _regularity_row(payload["regularity"])
        cells = ("" if value is None else str(value) for value in row.values())
        path = csv_dir / "regularity.csv"
        path.write_text(",".join(row) + "\r\n" + ",".join(cells) + "\r\n")
        written.append(path)
        for key, name in _CSV_FILES:
            if key in payload:
                columns = _columns(payload[key])
                path = csv_dir / name
                np.savetxt(path, np.column_stack(list(columns.values())), delimiter=",",
                           header=",".join(columns), comments="")
                written.append(path)
    return written
