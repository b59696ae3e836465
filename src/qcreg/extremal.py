"""Extremality diagnostics: perturbation averages, defect integrals, densities.

A field that realizes the worst-case exponent 1/K must look like the pure
radial stretch near the origin. Writing mu(z) = e^{2 i arg z} (-k + eps(z))
with k = (K-1)/(K+1), the diagnostics below quantify how fast the circular
averages of Re(eps) and the isoperimetric defect delta(r) decay:

* W(t) = integral_t^1 <Re eps>_{S_r} dr/r, compared against log(1/t);
* I(t) = integral_t^1 delta(r) dr/r, compared against log(1/t);
* the lower density at 0 of super-level sets {r : delta(r) > delta_0}
  (`superlevel_lower_density`, a library function no report calls).

For a worst-case field the infimum of both ratios over scales is 0 and the
super-level sets have zero lower density; ratios bounded away from 0 rule
extremality out. Radial integrals are computed in s = log(1/r), where the
dr/r measure is uniform, with the trapezoid rule. The defects and the area
exponent estimates read one `GeometryProfile`. A catalog report takes the
Re(eps) averages from the profile's own boundary pass, where they are a
stacked row (`geometry_profile(..., K=K)`), and a field subject averages
them with `epsilon_weight_integral`; both form W and the ratio through
`EpsilonProfile.from_averages`, so all three diagnostics describe the same
circles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericalError, SingularPointError
from .geometry import GeometryProfile
from .plane import BeltramiField, CircleSpec, _finite_real, epsilon_from_mu, stretch_factor
from .quadrature import QuadratureConfig, circular_average


def epsilon_decompose(field: BeltramiField, K: float, z) -> np.ndarray:
    """Perturbation eps(z) = mu(z) e^{-2 i arg z} + k of the radial stretch.

    For a field with |mu| <= k the value lies in the disk of radius k about
    k, so Re(eps) >= 0. Raises SingularPointError at z = 0 where the
    argument is undefined.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise SingularPointError("eps decomposition undefined at z = 0")
    k = stretch_factor(K)
    return epsilon_from_mu(field(z), z, k)


def _log_integral_from_anchor(radii: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative integral_t^{r_max} values dr/r by trapezoid in log r."""
    s = np.log(radii)
    inc = 0.5 * (values[1:] + values[:-1]) * np.diff(s)
    out = np.zeros_like(values)
    out[:-1] = np.cumsum(inc[::-1])[::-1]
    return out


def _ratio_to_log(radii: np.ndarray, integral: np.ndarray) -> np.ndarray:
    """integral(t) / log(r_max / t); 0 at the anchor where both vanish."""
    span = np.log(radii[-1] / radii)
    out = np.zeros_like(integral)
    pos = span > 0
    out[pos] = integral[pos] / span[pos]
    return out


class EpsilonProfile(NamedTuple):
    """Circular averages of Re(eps) on the radii t with their weighted
    log-integral.

    `ratio_W[i] = W(t_i) / log(r_max / t_i)`; at the anchor radius both
    numerator and denominator vanish and the ratio is reported as 0.
    """

    t: np.ndarray
    K: float  # the distortion bound of the decomposition
    eps_re_avg: np.ndarray
    W: np.ndarray
    ratio_W: np.ndarray

    @classmethod
    def from_averages(cls, t: np.ndarray, K: float, eps_re_avg: np.ndarray) -> "EpsilonProfile":
        """The profile of the averages of Re(eps) on increasing radii t, with
        W anchored at the largest radius and its ratio to the log."""
        W = _log_integral_from_anchor(t, eps_re_avg)
        return cls(t=t, K=float(K), eps_re_avg=eps_re_avg, W=W, ratio_W=_ratio_to_log(t, W))


def epsilon_weight_integral(
    field: BeltramiField,
    K: float,
    radii,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> EpsilonProfile:
    """Per-circle averages of Re(eps) and their dr/r accumulation W(t).

    Radii must be positive and strictly increasing; the integral is
    anchored at the largest radius (typically 1). This is the one pass of a
    field subject; a map's profile stacks the same averages on its
    boundary pass (`geometry_profile(..., K=K)`).
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2:
        raise ValueError("need at least two radii")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")

    eps_avg = circular_average(
        lambda nodes: epsilon_decompose(field, K, nodes.points).real,
        [CircleSpec(0j, float(r)) for r in radii],
        cfg,
    )
    return EpsilonProfile.from_averages(radii, K, eps_avg)


class DefectProfile(NamedTuple):
    """Isoperimetric defects on the radii t with their weighted log-integral."""

    t: np.ndarray
    delta: np.ndarray
    I: np.ndarray
    ratio_I: np.ndarray


def defect_weight_integral(profile: GeometryProfile) -> DefectProfile:
    """I(t) = integral_t^{r_max} delta(r) dr/r from a geometry profile."""
    t = np.asarray(profile.t, dtype=float)
    delta = np.asarray(profile.delta, dtype=float)
    integral = _log_integral_from_anchor(t, delta)
    return DefectProfile(t=t, delta=delta, I=integral, ratio_I=_ratio_to_log(t, integral))


def superlevel_lower_density(delta_samples, delta0: float, gamma_grid) -> float:
    """Estimated lower density at 0 of the set {r : delta(r) > delta0}.

    Parameters
    ----------
    delta_samples : iterable of (r, delta)
        Sample radii with defect values; interpreted piecewise-constant
        (each sample owns the interval up to the midpoints with its
        neighbors, the smallest down to 0).
    delta0 : float
        Positive finite super-level threshold.
    gamma_grid : sequence of float
        Positive finite scales over which |{delta > delta0} cap [0, gamma]|
        / gamma is minimized; the minimum approximates the liminf at 0.
    """
    delta0 = _finite_real("delta0", delta0, positive=True)
    gammas = np.array([_finite_real(f"gamma_grid[{i}]", g, positive=True)
                       for i, g in enumerate(gamma_grid)])
    if gammas.size == 0:
        raise ValueError("gamma grid must be nonempty")
    pairs = sorted((float(r), float(d)) for r, d in delta_samples)
    r = np.array([p[0] for p in pairs])
    d = np.array([p[1] for p in pairs])
    mids = np.concatenate(([0.0], (r[:-1] + r[1:]) / 2.0, [r[-1]]))
    lo, hi = mids[:-1], mids[1:]
    mask = d > delta0
    best = np.inf
    for g in gammas:
        covered = np.clip(np.minimum(hi, g) - lo, 0.0, None)
        best = min(best, float(covered[mask].sum()) / g)
    return best


class HolderEstimate(NamedTuple):
    """The exponent estimate from the image area at one profile radius t."""

    t: float
    from_area: float


def empirical_holder(profile: GeometryProfile) -> list[HolderEstimate]:
    """Exponent estimates at each profile radius t in (0, 1).

    `from_area` is log(area(f(D_t))) / (2 log t) on the profile's Green
    areas: the squared worst-case displacement is comparable to the image
    area, so this converges to the pointwise exponent with an O(1/log t)
    correction. No area is computed here.
    """
    interior = profile.t < 1.0
    if not interior.any():
        raise NumericalError(f"no profile radius below 1 (smallest {profile.t[0]})")
    radii, areas = profile.t[interior], profile.area_green[interior]
    if np.any(areas <= 0):
        raise NumericalError(f"image area vanished at t = {radii[np.argmax(areas <= 0)]}")
    return [
        HolderEstimate(t, float(np.log(area) / (2.0 * np.log(t))))
        for t, area in zip(radii.tolist(), areas)
    ]


class ExtremalityVerdict(NamedTuple):
    """Joint verdict over the perturbation and defect diagnostics.

    The field is `consistent-with-extremal` when the running minima of both
    ratios fall below the threshold: the worst-case exponent forces both
    integrals to be o(log 1/t) along a sequence of scales, and the infimum
    of the ratios being (numerically) 0 is exactly that statement.
    """

    verdict: str  # "consistent-with-extremal" | "inconsistent"
    min_ratio_W: float
    min_ratio_I: float
    alpha_gap: float  # |alpha_est - 1/K| at the smallest sampled scale
    threshold: float

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-with-extremal"


def extremality_report(
    eps: EpsilonProfile,
    defect: DefectProfile,
    alpha_estimates,
    threshold: float = 0.01,
) -> ExtremalityVerdict:
    """Combine the diagnostics into a necessary-condition verdict.

    Profiles must share their radius grid. The anchor radius (where both
    ratios are 0/0 by construction) is excluded from the running minima.
    `threshold` must be a positive finite real number.
    """
    threshold = _finite_real("threshold", threshold, positive=True)
    if eps.t.shape != defect.t.shape or not np.allclose(eps.t, defect.t, rtol=1e-12, atol=0):
        raise ValueError("profiles must be sampled on the same radii")
    interior = eps.t < eps.t[-1] * (1.0 - 1e-12)
    if not np.any(interior):
        raise ValueError("need at least one radius below the anchor")
    min_w = float(eps.ratio_W[interior].min())
    min_i = float(defect.ratio_I[interior].min())
    t_min = min(alpha_estimates, key=lambda rec: rec[0])
    alpha_gap = abs(t_min[1] - 1.0 / eps.K)
    consistent = min_w < threshold and min_i < threshold
    return ExtremalityVerdict(
        verdict="consistent-with-extremal" if consistent else "inconsistent",
        min_ratio_W=min_w,
        min_ratio_I=min_i,
        alpha_gap=float(alpha_gap),
        threshold=threshold,
    )


def epsilon_distortion_margin(
    field: BeltramiField,
    K: float,
    circles,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Worst margin of g(r) <= K - c1 <Re eps> over the given circles.

    Here g(r) is the per-circle distortion average computed with the
    real-part substitution w = -k + Re(eps) (the imaginary part of eps is
    dropped, matching the pointwise identity that produces the constant
    c1 = 2 / ((1+k)(1-k))). Both averages are two stacked rows on the same
    cfg.nodes nodes, without doubling, so the pointwise inequality survives
    discretization exactly; the returned margin is max over circles of
    (g - bound) and should be <= 0 up to roundoff for any field with
    |mu| <= k.
    """
    k = stretch_factor(K)
    c1 = 2.0 / ((1.0 + k) * (1.0 - k))

    def pair(nodes):
        eps_re = epsilon_decompose(field, K, nodes.points).real
        w = -k + eps_re
        return np.stack(((1.0 - w) / (1.0 + w), K - c1 * eps_re))

    g, bound = circular_average(pair, circles, cfg._replace(max_doublings=0))
    return float((g - bound).max())
