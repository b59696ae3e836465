"""Holder-exponent machinery: distortion and roundness suprema, bound comparisons.

The improved lower bound on the Holder exponent is 1 / (A * C) where

* C is the supremum over admissible circles of the normalized-arclength
  average of |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2) (eta the outward
  normal), and
* A is the supremum of 4 pi area(f(D)) / length(f(S))^2, which the
  isoperimetric inequality pins at <= 1.

Dropping the A factor gives the distortion-only bound 1 / C, and the
uniform bound 1 / K uses only the certified sup of |mu|. The Gronwall
check verifies the integrated growth inequality that links C and A to the
exponent: t^(-2/(A C)) * phi(t) must be nondecreasing.
"""

from __future__ import annotations

import csv
import io as _io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FieldValidationError, NumericalError
from .geometry import DEGENERATE_LENGTH, image_area_green, length_and_area
from .plane import BeltramiField, CircleSpec, DomainSpec, MapModel
from .quadrature import QuadratureConfig, SupResult, circular_average, sup_over_circles

#: slack of the Mori check: a circle average may exceed K by this much
MORI_TOL = 1e-9

#: allowed relative drop in the Gronwall monotonicity check
GRONWALL_REL_TOL = 1e-6


def distortion_integrand(mu, eta):
    """Pointwise distortion weight |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2).

    `eta` is a unit complex number (the outward normal); the value is 1 for
    mu = 0, equals (1+k)/(1-k) when mu = -k eta^2 (radial-stretch
    direction) and (1-k)/(1+k) when mu = +k eta^2. Raises
    FieldValidationError if |mu| >= 1 anywhere.
    """
    mu = np.asarray(mu, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    m2 = np.abs(mu) ** 2
    if np.any(m2 >= 1.0):
        raise FieldValidationError("distortion integrand needs |mu| < 1")
    return np.abs(1.0 - np.conj(eta) ** 2 * mu) ** 2 / (1.0 - m2)


def distortion_average(
    field: BeltramiField, circles: Sequence[CircleSpec], cfg: QuadratureConfig
) -> np.ndarray:
    """Normalized-arclength averages of the distortion weight, one per circle."""

    def integrand(nodes):
        return distortion_integrand(field(nodes.points), nodes.unit)

    return circular_average(integrand, circles, cfg)


def distortion_constant(
    field: BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> SupResult:
    """C: supremum of per-circle distortion averages over the domain grid."""
    return sup_over_circles(lambda circles: distortion_average(field, circles, cfg), domain)


def isoperimetric_ratio(
    map_model: MapModel, circles: Sequence[CircleSpec], cfg: QuadratureConfig
) -> np.ndarray:
    """4 pi area / length^2 for the image of each circle (boundary data only)."""
    circles = tuple(circles)
    length, area = length_and_area(map_model, circles, cfg)
    degenerate = np.flatnonzero(length < DEGENERATE_LENGTH)
    if degenerate.size:
        i = int(degenerate[0])
        raise NumericalError(
            f"degenerate image of {circles[i]}: length = {length[i]}", circle=circles[i]
        )
    return 4.0 * np.pi * area / (length * length)


def isoperimetric_constant(
    map_model: MapModel,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> SupResult:
    """A: supremum of 4 pi area / length^2 over the domain grid (<= 1)."""
    return sup_over_circles(lambda circles: isoperimetric_ratio(map_model, circles, cfg), domain)


def holder_lower_bound(iso_sup: float, dist_sup: float) -> float:
    """Exponent lower bound 1 / (A * C) from the two suprema."""
    if not (iso_sup > 0 and dist_sup > 0):
        raise ValueError(f"suprema must be positive, got A={iso_sup}, C={dist_sup}")
    return 1.0 / (iso_sup * dist_sup)


@dataclass(frozen=True)
class MoriReport:
    """Per-circle distortion averages checked against the uniform bound K.

    `max_average` is the C supremum; `describe` leaves it out, because a
    report already carries it as `distortion_sup`.
    """

    k_max: float
    distortion_ratio: float  # K = (1 + k_max) / (1 - k_max)
    max_average: float
    worst_margin: float  # max over circles of (average - K); <= tol when passed
    worst_circle: CircleSpec
    passed: bool
    tol: float

    def describe(self) -> dict:
        return {
            "k_max": self.k_max,
            "K": self.distortion_ratio,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
            "tol": self.tol,
        }


def mori_consistency(
    field: BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> MoriReport:
    """Check every per-circle distortion average against K = (1+k)/(1-k).

    Report-only: never raises on violation, just records the worst margin;
    the check passes when that margin is at most MORI_TOL. Computes the C
    supremum; `regularity_report`, which already holds it, builds the same
    report from it with `mori_from_sup`.
    """
    return mori_from_sup(field, distortion_constant(field, domain, cfg))


def mori_from_sup(field: BeltramiField, sup: SupResult) -> MoriReport:
    """MoriReport from an already computed distortion supremum of `field`."""
    K = field.distortion_ratio
    margin = sup.value - K
    return MoriReport(
        k_max=field.k_max,
        distortion_ratio=K,
        max_average=sup.value,
        worst_margin=margin,
        worst_circle=sup.argmax,
        passed=bool(margin <= MORI_TOL),
        tol=MORI_TOL,
    )


@dataclass(frozen=True)
class GronwallVerdict:
    """Discrete monotonicity check of t^(-exponent) * phi(t).

    `worst_margin` is the largest relative drop between consecutive samples
    (negative when the sequence strictly increases); `endpoint_margin` is
    the largest relative excess of phi(t) over phi(end) * (t/end)^exponent.
    """

    passed: bool
    exponent: float
    worst_margin: float
    endpoint_margin: float
    rel_tol: float

    def describe(self) -> dict:
        return {
            "passed": self.passed,
            "exponent": self.exponent,
            "worst_margin": self.worst_margin,
            "endpoint_margin": self.endpoint_margin,
            "rel_tol": self.rel_tol,
        }


def gronwall_check(samples, exponent: float) -> GronwallVerdict:
    """Verify the integrated growth inequality on (t, phi(t)) samples.

    Parameters
    ----------
    samples : sequence of (t, phi)
        t strictly increasing in (0, 1], phi positive.
    exponent : float
        Growth exponent, typically 2 / (A * C).

    The check allows a relative drop of GRONWALL_REL_TOL; discrete
    monotonicity is used instead of numerical differentiation to avoid
    noise amplification.
    """
    pts = [(float(t), float(p)) for t, p in samples]
    if len(pts) < 2:
        raise ValueError("need at least two samples")
    t = np.array([p[0] for p in pts])
    phi = np.array([p[1] for p in pts])
    if np.any(np.diff(t) <= 0):
        raise ValueError("t samples must be strictly increasing")
    if np.any(t <= 0) or np.any(phi <= 0):
        raise ValueError("need t > 0 and phi > 0")
    g = t ** (-exponent) * phi
    drops = (g[:-1] - g[1:]) / np.maximum(g[:-1], g[1:])
    worst = float(drops.max())
    ref = phi[-1] * (t / t[-1]) ** exponent
    endpoint = float((phi / ref - 1.0).max())
    return GronwallVerdict(
        passed=bool(worst <= GRONWALL_REL_TOL and endpoint <= GRONWALL_REL_TOL),
        exponent=float(exponent),
        worst_margin=worst,
        endpoint_margin=endpoint,
        rel_tol=GRONWALL_REL_TOL,
    )


def _circle_dict(circle: CircleSpec | None):
    if circle is None:
        return None
    return {"center": [circle.center.real, circle.center.imag], "radius": circle.radius}


@dataclass(frozen=True)
class RegularityReport:
    """Exponent bounds with the circles that realized the suprema."""

    distortion_sup: float  # C
    isoperimetric_sup: float  # A (1.0 when no map is available)
    alpha_improved: float  # 1 / (A C)
    alpha_distortion: float  # 1 / C
    alpha_classical: float  # 1 / K
    distortion_argmax: CircleSpec
    isoperimetric_argmax: CircleSpec | None
    mori: MoriReport
    gronwall: GronwallVerdict | None

    def describe(self) -> dict:
        out = {
            "distortion_sup": self.distortion_sup,
            "isoperimetric_sup": self.isoperimetric_sup,
            "alpha_improved": self.alpha_improved,
            "alpha_distortion": self.alpha_distortion,
            "alpha_classical": self.alpha_classical,
            "distortion_argmax": _circle_dict(self.distortion_argmax),
            "isoperimetric_argmax": _circle_dict(self.isoperimetric_argmax),
            "mori": self.mori.describe(),
            "gronwall": self.gronwall.describe() if self.gronwall else None,
        }
        return out

    CSV_FIELDS = (
        "distortion_sup",
        "isoperimetric_sup",
        "alpha_improved",
        "alpha_distortion",
        "alpha_classical",
        "C_center_x",
        "C_center_y",
        "C_radius",
        "A_center_x",
        "A_center_y",
        "A_radius",
        "mori_margin",
        "mori_passed",
        "gronwall_margin",
        "gronwall_passed",
    )

    def to_csv_row(self) -> str:
        """Single flat CSV row (with header line) for spreadsheet ingestion."""
        a_arg = self.isoperimetric_argmax
        row = {
            "distortion_sup": self.distortion_sup,
            "isoperimetric_sup": self.isoperimetric_sup,
            "alpha_improved": self.alpha_improved,
            "alpha_distortion": self.alpha_distortion,
            "alpha_classical": self.alpha_classical,
            "C_center_x": self.distortion_argmax.center.real,
            "C_center_y": self.distortion_argmax.center.imag,
            "C_radius": self.distortion_argmax.radius,
            "A_center_x": a_arg.center.real if a_arg else "",
            "A_center_y": a_arg.center.imag if a_arg else "",
            "A_radius": a_arg.radius if a_arg else "",
            "mori_margin": self.mori.worst_margin,
            "mori_passed": self.mori.passed,
            "gronwall_margin": self.gronwall.worst_margin if self.gronwall else "",
            "gronwall_passed": self.gronwall.passed if self.gronwall else "",
        }
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=self.CSV_FIELDS)
        writer.writeheader()
        writer.writerow(row)
        return buf.getvalue()


def regularity_report(
    subject: MapModel | BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    gronwall_radii=None,
) -> RegularityReport:
    """Full exponent report for a map (with field) or for a bare field.

    With only a BeltramiField the roundness factor A defaults to 1 (no
    image geometry is available and the bound degrades gracefully to the
    distortion-only form); the Gronwall check is skipped in that case.
    """
    from .plane import derive_beltrami  # local import keeps module load light

    if isinstance(subject, MapModel):
        map_model = subject
        field = subject.beltrami or derive_beltrami(subject)
    else:
        map_model, field = None, subject

    c_sup = distortion_constant(field, domain, cfg)
    if map_model is not None:
        a_sup = isoperimetric_constant(map_model, domain, cfg)
        iso_value, iso_argmax = a_sup.value, a_sup.argmax
    else:
        iso_value, iso_argmax = 1.0, None

    alpha_improved = holder_lower_bound(iso_value, c_sup.value)
    mori = mori_from_sup(field, c_sup)

    verdict = None
    if map_model is not None:
        if gronwall_radii is None:
            gronwall_radii = np.geomspace(0.01, 1.0, 25)
        circles = [CircleSpec(0j, float(t)) for t in gronwall_radii]
        phi = image_area_green(map_model, circles, cfg)
        verdict = gronwall_check(zip(gronwall_radii, phi), 2.0 * alpha_improved)

    return RegularityReport(
        distortion_sup=c_sup.value,
        isoperimetric_sup=iso_value,
        alpha_improved=alpha_improved,
        alpha_distortion=1.0 / c_sup.value,
        alpha_classical=1.0 / field.distortion_ratio,
        distortion_argmax=c_sup.argmax,
        isoperimetric_argmax=iso_argmax,
        mori=mori,
        gronwall=verdict,
    )
