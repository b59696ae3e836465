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

On a map subject `regularity_report` makes one pass over the admissible
circles: the distortion weight of the map's field, the speed |d gamma| and
the Green density are stacked rows on the same boundary points, each with
its own convergence test. `sup_over_circles` reduces the C and A rows of
that one average, and the Green areas of each center's circles are the
samples of that center's Gronwall check. C carries the bits of
`distortion_constant`; `isoperimetric_constant` is the A of the same pass,
so A has one definition. A field subject has no image curves and takes C
from `distortion_constant`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .geometry import DEGENERATE_LENGTH, _boundary_data, _green_density
from .plane import (BeltramiField, CircleSpec, DomainSpec, MapModel, _finite_real,
                    derive_beltrami, distortion_integrand)
from .quadrature import QuadratureConfig, SupResult, circular_average, sup_over_circles

#: slack of the Mori check: a circle average may exceed K by this much
MORI_TOL = 1e-9

#: allowed relative drop in the Gronwall monotonicity check
GRONWALL_REL_TOL = 1e-6


def distortion_average(
    field: BeltramiField, circles: Sequence[CircleSpec], cfg: QuadratureConfig
) -> np.ndarray:
    """Normalized-arclength averages of the distortion weight, one per circle."""

    def integrand(nodes):
        return distortion_integrand(field(nodes.points), nodes.unit)

    return circular_average(integrand, circles, cfg)


def _admissible(domain: DomainSpec) -> list[CircleSpec]:
    """The domain's admissible circles; none is a ConfigError."""
    circles = domain.admissible_circles()
    if not circles:
        raise ConfigError("no admissible circle fits inside the outer domain")
    return circles


def distortion_constant(
    field: BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> SupResult:
    """C: supremum of per-circle distortion averages over the domain grid."""
    circles = _admissible(domain)
    return sup_over_circles(circles, distortion_average(field, circles, cfg))


def _roundness(circles, length, area) -> np.ndarray:
    """4 pi area / length^2 per circle. A degenerate image length is an
    error, and so is an image area that is not positive (an image that runs
    clockwise, or one the rule does not resolve): each names its circle."""
    degenerate = np.flatnonzero(length < DEGENERATE_LENGTH)
    if degenerate.size:
        i = int(degenerate[0])
        raise NumericalError(
            f"degenerate image of {circles[i]}: length = {length[i]}", circle=circles[i]
        )
    unresolved = np.flatnonzero(~(area > 0))
    if unresolved.size:
        i = int(unresolved[0])
        raise NumericalError(f"need a positive image area, got {area[i]} on {circles[i]}",
                             circle=circles[i])
    return 4.0 * np.pi * area / (length * length)


def _map_rows(
    map_model: MapModel, field: BeltramiField, circles: Sequence[CircleSpec], cfg: QuadratureConfig
) -> np.ndarray:
    """Distortion averages of `field`, roundness 4 pi area / length^2 and
    Green areas of the map's images, stacked (3, m), from one average over
    the circles.

    The distortion weight, the speed |d gamma| and the Green density are
    rows on the same boundary points, each with its own convergence test,
    so the distortion row carries the bits of `distortion_average` and the
    area row those of `lengths_and_area`.
    """

    def integrand(nodes):
        z, dgamma, _ = _boundary_data(map_model, nodes)
        return np.stack((
            distortion_integrand(field(z), nodes.unit),
            np.abs(dgamma),
            _green_density(map_model, z, dgamma),
        ))

    distortion, speed, green = circular_average(integrand, circles, cfg)
    area = np.pi * green
    return np.stack((distortion, _roundness(circles, 2.0 * np.pi * speed, area), area))


def isoperimetric_constant(
    map_model: MapModel,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> SupResult:
    """A: supremum of 4 pi area / length^2 over the domain grid (<= 1).

    The A of `regularity_report`'s one pass, C's distortion row riding along.
    """
    circles = _admissible(domain)
    field = map_model.beltrami or derive_beltrami(map_model)
    return sup_over_circles(circles, _map_rows(map_model, field, circles, cfg)[1])


def holder_lower_bound(iso_sup: float, dist_sup: float) -> float:
    """Exponent lower bound 1 / (A * C) from the two suprema, positive finite reals."""
    A, C = _finite_real("A", iso_sup, positive=True), _finite_real("C", dist_sup, positive=True)
    return 1.0 / (A * C)


class MoriReport(NamedTuple):
    """Per-circle distortion averages checked against the uniform bound K."""

    k_max: float
    K: float  # (1 + k_max) / (1 - k_max)
    worst_margin: float  # max over circles of (average - K); <= tol when passed
    passed: bool
    tol: float


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
        K=K,
        worst_margin=margin,
        passed=bool(margin <= MORI_TOL),
        tol=MORI_TOL,
    )


class GronwallVerdict(NamedTuple):
    """Discrete monotonicity check of t^(-exponent) * phi(t).

    `worst_margin` is the largest relative drop between consecutive samples
    (negative when the sequence strictly increases); `endpoint_margin` is
    the largest relative excess of phi(t) over phi(end) * (t/end)^exponent.
    A verdict merged over a domain's centers lists those whose family
    failed in `failed_centers`, which the report's JSON leaves out.
    """

    passed: bool
    exponent: float
    worst_margin: float
    endpoint_margin: float
    rel_tol: float
    failed_centers: tuple[complex, ...] = ()

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
    samples : iterable of (t, phi)
        t positive and strictly increasing, phi positive.
    exponent : float
        Growth exponent, typically 2 / (A * C).

    The check allows a relative drop of GRONWALL_REL_TOL; discrete
    monotonicity is used instead of numerical differentiation to avoid
    noise amplification.
    """
    t, phi = np.array(list(samples), dtype=float).reshape(-1, 2).T
    if t.size < 2:
        raise ValueError("need at least two samples")
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


def _gronwall_by_center(
    domain: DomainSpec, circles: Sequence[CircleSpec], area: np.ndarray, exponent: float
) -> GronwallVerdict | None:
    """The Gronwall check on each entry of `domain.centers` with two or more
    of the admissible `circles` (which list an entry's radii together and
    increasing), from the positive image areas `area` of their disks:
    passed when every family passes, with the largest margins and the
    centers of the failed families; None without a family.
    """
    radius = np.array([c.radius for c in circles])
    families = np.split(np.arange(len(circles)), np.cumsum(domain.family_sizes())[:-1])
    checked = [(center, gronwall_check(zip(radius[family], area[family]), exponent))
               for center, family in zip(domain.centers, families) if family.size >= 2]
    if not checked:
        return None
    verdicts = [v for _, v in checked]
    return verdicts[0]._replace(
        passed=all(v.passed for v in verdicts),
        worst_margin=max(v.worst_margin for v in verdicts),
        endpoint_margin=max(v.endpoint_margin for v in verdicts),
        failed_centers=tuple(center for center, v in checked if not v.passed),
    )


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


def regularity_report(
    subject: MapModel | BeltramiField,
    domain: DomainSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> RegularityReport:
    """Full exponent report for a map (with field) or for a bare field.

    With only a BeltramiField the roundness factor A defaults to 1 (no
    image geometry is available and the bound degrades gracefully to the
    distortion-only form) and the Gronwall check is skipped. A map's C, A
    and Gronwall samples come from one pass over the admissible circles:
    the check reads the Green areas of each center's circles, and its
    verdict is the worst over the centers (`_gronwall_by_center`).
    """
    if isinstance(subject, MapModel):
        circles = _admissible(domain)
        field = subject.beltrami or derive_beltrami(subject)
        distortion, roundness, area = _map_rows(subject, field, circles, cfg)
        c_sup, a_sup = sup_over_circles(circles, np.stack((distortion, roundness)))
    else:
        field, area = subject, None
        c_sup, a_sup = distortion_constant(field, domain, cfg), SupResult(1.0, None)

    alpha_improved = holder_lower_bound(a_sup.value, c_sup.value)
    verdict = None if area is None else _gronwall_by_center(
        domain, circles, area, 2.0 * alpha_improved)
    return RegularityReport(
        distortion_sup=c_sup.value,
        isoperimetric_sup=a_sup.value,
        alpha_improved=alpha_improved,
        alpha_distortion=1.0 / c_sup.value,
        alpha_classical=1.0 / field.distortion_ratio,
        distortion_argmax=c_sup.argmax,
        isoperimetric_argmax=a_sup.argmax,
        mori=mori_from_sup(field, c_sup),
        gronwall=verdict,
    )
