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

On a map subject `regularity_report` takes C and A from one pass over the
admissible circles: the distortion weight of the map's field, the speed
|d gamma| and the Green density are stacked rows on the same boundary
points, each with its own convergence test, and `sup_over_circles` reduces
the C and A rows of that one average. C carries the bits of
`distortion_constant`; `isoperimetric_constant` is the A of the same pass,
so A has one definition. A field subject has no image curves and takes C
from `distortion_constant`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import FieldValidationError, NumericalError
from .geometry import (
    DEGENERATE_LENGTH,
    _boundary_data,
    _green_density,
    image_area_green,
)
from .plane import BeltramiField, CircleSpec, DomainSpec, MapModel, derive_beltrami
from .quadrature import QuadratureConfig, SupResult, circular_average, sup_over_circles

#: slack of the Mori check: a circle average may exceed K by this much
MORI_TOL = 1e-9

#: allowed relative drop in the Gronwall monotonicity check
GRONWALL_REL_TOL = 1e-6

#: radii t of the origin circles whose image areas phi(t) the Gronwall check reads
GRONWALL_RADII = np.geomspace(0.01, 1.0, 25)


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


def _roundness(circles, length, area) -> np.ndarray:
    """4 pi area / length^2 per circle; a degenerate image length is an error."""
    degenerate = np.flatnonzero(length < DEGENERATE_LENGTH)
    if degenerate.size:
        i = int(degenerate[0])
        raise NumericalError(
            f"degenerate image of {circles[i]}: length = {length[i]}", circle=circles[i]
        )
    return 4.0 * np.pi * area / (length * length)


def _map_rows(
    map_model: MapModel, field: BeltramiField, circles: Sequence[CircleSpec], cfg: QuadratureConfig
) -> np.ndarray:
    """Distortion averages of `field` and roundness 4 pi area / length^2 of
    the map's images, stacked (2, m), from one average over the circles.

    The distortion weight, the speed |d gamma| and the Green density are
    rows on the same boundary points, each with its own convergence test,
    so the distortion row carries the bits of `distortion_average`.
    """

    def integrand(nodes):
        z, dgamma, _ = _boundary_data(map_model, nodes)
        return np.stack((
            distortion_integrand(field(z), nodes.unit),
            np.abs(dgamma),
            _green_density(map_model, z, dgamma),
        ))

    distortion, speed, green = circular_average(integrand, circles, cfg)
    return np.stack((distortion, _roundness(circles, 2.0 * np.pi * speed, np.pi * green)))


def _map_suprema(
    map_model: MapModel, field: BeltramiField, domain: DomainSpec, cfg: QuadratureConfig
) -> tuple[SupResult, SupResult]:
    """C and A of a map, each row of `_map_rows` reduced over the admissible
    circles; C is bit for bit that of `distortion_constant`."""
    return sup_over_circles(lambda circles: _map_rows(map_model, field, circles, cfg), domain)


def isoperimetric_constant(
    map_model: MapModel,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> SupResult:
    """A: supremum of 4 pi area / length^2 over the domain grid (<= 1).

    The A of `regularity_report`'s one pass, C's distortion row riding along.
    """
    return _map_suprema(map_model, map_model.beltrami or derive_beltrami(map_model), domain, cfg)[1]


def holder_lower_bound(iso_sup: float, dist_sup: float) -> float:
    """Exponent lower bound 1 / (A * C) from the two suprema."""
    if not (iso_sup > 0 and dist_sup > 0):
        raise ValueError(f"suprema must be positive, got A={iso_sup}, C={dist_sup}")
    return 1.0 / (iso_sup * dist_sup)


class MoriReport(NamedTuple):
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


class GronwallVerdict(NamedTuple):
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


class RegularityReport(NamedTuple):
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


def regularity_report(
    subject: MapModel | BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> RegularityReport:
    """Full exponent report for a map (with field) or for a bare field.

    With only a BeltramiField the roundness factor A defaults to 1 (no
    image geometry is available and the bound degrades gracefully to the
    distortion-only form); the Gronwall check, on the origin circles of
    GRONWALL_RADII, is skipped in that case.
    """
    if isinstance(subject, MapModel):
        map_model = subject
        field = subject.beltrami or derive_beltrami(subject)
    else:
        map_model, field = None, subject

    if map_model is not None:
        c_sup, a_sup = _map_suprema(map_model, field, domain, cfg)
        iso_value, iso_argmax = a_sup.value, a_sup.argmax
    else:
        c_sup = distortion_constant(field, domain, cfg)
        iso_value, iso_argmax = 1.0, None

    alpha_improved = holder_lower_bound(iso_value, c_sup.value)
    mori = mori_from_sup(field, c_sup)

    verdict = None
    if map_model is not None:
        circles = [CircleSpec(0j, float(t)) for t in GRONWALL_RADII]
        phi = image_area_green(map_model, circles, cfg)
        verdict = gronwall_check(zip(GRONWALL_RADII, phi), 2.0 * alpha_improved)

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
