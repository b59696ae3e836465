"""Lengths of image curves, areas of image disks, and isoperimetric defects.

Every quantity is computed along two independent routes:

* curve length: direct speed quadrature vs. the distortion-weighted
  Jacobian form sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2)) sqrt(J) t;
* disk area: polar quadrature of the Jacobian vs. the boundary integral
  (1/2) contour_integral (u dv - v du).

Both lengths and the boundary-integral area are stacked rows of one
circular average (`lengths_and_area`), each row with its own convergence
test, so a circle's boundary points are built once per doubling level.
`geometry_profile` enforces agreement of the two routes, which makes the
length identity chain behind the distortion form an executable check.

The radial Jacobian integral uses geometric (octave) segments toward 0 with
a fixed-order Gauss-Legendre rule per segment plus a geometric tail
estimate; the Jacobian of the cataloged worst-case maps blows up like
r^(2/K - 2) at the origin and this grading keeps the quadrature at machine
accuracy there.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolationError, NumericalError, OrientationError
from .plane import CircleSpec, MapModel, beltrami_from_partials
from .quadrature import (
    CircleNodes,
    QuadratureConfig,
    circular_average,
    level_nodes,
    refine,
    row_batches,
)

#: relative agreement demanded between the two length / area routes
ORACLE_REL_TOL = 1e-6

#: octaves of radial grading between the disk radius and the tail cutoff
RADIAL_OCTAVES = 60

#: Gauss-Legendre points per geometric radial segment
RADIAL_NODES = 10

#: the RADIAL_NODES Gauss-Legendre nodes and weights on [-1, 1] (read-only),
#: bit for bit those of numpy.polynomial.legendre.leggauss(RADIAL_NODES),
#: written out so that no run imports numpy.polynomial
GAUSS_LEGENDRE_NODES = np.array((
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845, 0.9739065285171717,
))
GAUSS_LEGENDRE_WEIGHTS = np.array((
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804, 0.06667134430868814,
))
GAUSS_LEGENDRE_NODES.flags.writeable = GAUSS_LEGENDRE_WEIGHTS.flags.writeable = False

#: below this curve length an image is treated as degenerate
DEGENERATE_LENGTH = 1e-14


def _boundary_data(map_model: MapModel, nodes: CircleNodes):
    """Image points, their theta-derivative along the image curves, and the
    partials (f_x, f_y) it was taken from.

    Non-finite partials and overflow propagate without a warning: the
    quadrature layer turns them into a NumericalError naming the circle.
    """
    z = nodes.points
    f_x, f_y = map_model.partials(z)
    with np.errstate(over="ignore", invalid="ignore"):
        dgamma = nodes.radius * (-np.sin(nodes.theta) * f_x + np.cos(nodes.theta) * f_y)
    return z, dgamma, (f_x, f_y)


def _green_density(map_model: MapModel, z, dgamma):
    """Integrand of the boundary area integral: Im(conj(f) * d f / d theta)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (np.conj(map_model.value(z)) * dgamma).imag


def lengths_and_area(
    map_model: MapModel,
    circles: Sequence[CircleSpec],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths of f(circle) by both routes and Green areas of f(disk), one pass.

    Three rows are stacked on the boundary points of `_boundary_data`, each
    with its own convergence test: the speed |d gamma| (the direct length),
    the distortion-weighted form sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2))
    * sqrt(J_f) * t with eta the outward unit normal (the formula length),
    and the Green density (the area). mu is the map's field, or where it
    has none `beltrami_from_partials` of the boundary pass's own partials.
    Raises OrientationError if the Jacobian is negative at a node where the
    boundary data are finite.
    """
    from .bounds import distortion_integrand  # local import avoids a cycle

    field = map_model.beltrami

    def integrand(nodes):
        z, dgamma, partials = _boundary_data(map_model, nodes)
        speed, green = np.abs(dgamma), _green_density(map_model, z, dgamma)
        # the quadrature layer names a circle whose boundary data are not
        # finite, and a profile nudges it: at those nodes the formula row is
        # nan, so that its own checks cannot raise first
        bad = ~(np.isfinite(speed) & np.isfinite(green))
        with np.errstate(invalid="ignore"):
            mu = field(z) if field is not None else beltrami_from_partials(*partials, z)
            jac = np.asarray(map_model.jacobian(z), dtype=float)
            if bad.any():
                mu, jac = np.where(bad, 0.0, mu), np.where(bad, np.nan, jac)
            if np.any(jac < 0):
                i, j = np.argwhere(jac < 0)[0]
                raise OrientationError(
                    f"negative Jacobian {jac[i, j]} at theta = {nodes.theta[j]:.12g} "
                    f"on {nodes.circles[i]}",
                    circle=nodes.circles[i],
                )
            formula = np.sqrt(distortion_integrand(mu, nodes.unit)) * np.sqrt(jac) * nodes.radius
        return np.stack((speed, formula, green))

    speed, formula, green = circular_average(integrand, circles, cfg)
    return 2.0 * np.pi * speed, 2.0 * np.pi * formula, np.pi * green


def _ring_mean_jacobian(map_model, center, radii, unit):
    """Mean of J_f over the angle on each ring center[i] + radii[i] e^{i theta}.

    Negative or non-finite values are rejected, naming the first bad ring.
    """
    z = radii[:, None] * unit
    z += center[:, None]  # in place: one array of rings, not two
    jac = np.asarray(map_model.jacobian(z), dtype=float)
    bad, error, what = ~np.isfinite(jac).all(axis=-1), NumericalError, "non-finite"
    if not bad.any():
        bad, error, what = (jac < 0).any(axis=-1), OrientationError, "negative"
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise error(f"{what} Jacobian on the ring of radius {radii[i]} around {center[i]}")
    return jac.mean(axis=-1)


def _segments_toward_zero(t: float, octaves: int) -> np.ndarray:
    """Edges t, t/2, ..., t * 2^-octaves (decreasing)."""
    return t * 2.0 ** -np.arange(octaves + 1)


def _annulus_edges(t: float, r_inner: float) -> np.ndarray:
    """Edges of the annulus [r_inner, t] split at the octaves t * 2^-k
    (decreasing, r_inner last and not repeated)."""
    n_oct = max(1, int(np.ceil(np.log2(t / r_inner))))
    seg = _segments_toward_zero(t, n_oct)
    return np.append(seg[seg > r_inner], r_inner)


class _RadialRule(NamedTuple):
    """Gauss-Legendre radii of one area integral over [r_inner, t] (or (0, t])."""

    center: complex
    radii: np.ndarray  # (segments * order,) Gauss-Legendre radii, segment by segment
    half: np.ndarray  # (segments,) half-widths of the segments
    tail: bool  # add the geometric tail below the last segment

    @classmethod
    def build(cls, disk: CircleSpec, r_inner: float) -> "_RadialRule":
        t = disk.radius
        if r_inner > 0.0:
            edges = _annulus_edges(t, r_inner)
        else:
            edges = _segments_toward_zero(t, RADIAL_OCTAVES)
        a, b = edges[1:], edges[:-1]
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        radii = (mid[:, None] + half[:, None] * GAUSS_LEGENDRE_NODES[None, :]).ravel()
        return cls(disk.center, radii, half, tail=not r_inner > 0.0)

    def total(self, ring: np.ndarray) -> float:
        """The integral from the ring values 2 pi r <J_f> at `radii`."""
        w = GAUSS_LEGENDRE_WEIGHTS
        seg = (ring.reshape(self.half.size, w.size) * w[None, :]).sum(axis=1) * self.half
        total = float(seg.sum())
        # geometric tail below the last segment; exact for power-law Jacobians
        if self.tail and seg[-2] != 0.0:
            q = seg[-1] / seg[-2]
            if 0.0 < q < 1.0:
                total += float(seg[-1] * q / (1.0 - q))
        return total


def image_area_jacobian(
    map_model: MapModel,
    disks: Sequence[CircleSpec],
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    r_inner=0.0,
) -> np.ndarray:
    """Areas of f(disk) as polar integrals of the Jacobian, one per disk.

    Parameters
    ----------
    map_model : MapModel
        Map with an integrable Jacobian; a singular disk center is allowed
        (the grading below absorbs power-law blow-up).
    disks : sequence of CircleSpec
        Integral i runs over r in (r_inner[i], disks[i].radius] around
        disks[i].center; the integrals are stacked (a profile's annulus
        increments are one call). The radial rule takes RADIAL_NODES
        Gauss-Legendre points per geometric segment.
    cfg : QuadratureConfig
        Angular resolution, doubled by `refine` until each integral is
        stable to cfg.rel_tol, with a convergence test per integral. A
        doubling evaluates each ring of an integral's radial rule only at
        the angles it adds (`level_nodes`) and combines their mean with the
        ring's running mean. The integrals still refining share each
        level's Jacobian calls, which take the rings of all their rules in
        batches of at most MAX_BATCH_NODES points.
    r_inner : float or sequence of float
        Inner radius per disk for annulus increments (used by profiles);
        0 integrates the whole disk, with a geometric tail toward its center.
    """
    inner = np.broadcast_to(np.asarray(r_inner, dtype=float), (len(disks),))
    rules = [_RadialRule.build(d, r) for d, r in zip(disks, inner)]

    # ring means of each rule over the angles of the levels so far: the
    # geometric tail is nonlinear in them, so levels combine means, not totals
    means = [None] * len(rules)

    def evaluate(n, items, refining):
        first = n == cfg.nodes
        _, unit = level_nodes(n, first)
        picked = [rules[i] for i in items]
        radii = np.concatenate([rule.radii for rule in picked])
        center = np.concatenate([np.full(rule.radii.size, rule.center) for rule in picked])
        fresh = np.concatenate([
            _ring_mean_jacobian(map_model, center[rows], radii[rows], unit)
            for rows in row_batches(radii.size, unit.size)
        ])
        ends = np.cumsum([rule.radii.size for rule in picked])
        totals = []
        for i, rule, part in zip(items, picked, np.split(fresh, ends[:-1])):
            means[i] = part if first else 0.5 * (means[i] + part)
            totals.append(rule.total(2.0 * np.pi * rule.radii * means[i]))
        return totals

    return refine(evaluate, len(rules), cfg)


def image_area_green(
    map_model: MapModel,
    circles: Sequence[CircleSpec],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Areas of f(disk) via the boundary integral (1/2) contour (u dv - v du).

    Needs only boundary data; exact for maps injective on the closed disks,
    which makes it the independent oracle for the Jacobian route.
    """

    def integrand(nodes):
        z, dgamma, _ = _boundary_data(map_model, nodes)
        return _green_density(map_model, z, dgamma)

    return np.pi * circular_average(integrand, circles, cfg)


class GeometryProfile(NamedTuple):
    """Per-radius image geometry with both routes for each quantity.

    `area_jacobian` is the Jacobian-route area (the quantity whose growth
    rate carries the Holder exponent), `h = area_jacobian / length^2`, and
    `delta = 1 / (4 pi h) - 1` is the isoperimetric defect.
    """

    radii: np.ndarray
    length_direct: np.ndarray
    length_formula: np.ndarray
    area_jacobian: np.ndarray
    area_green: np.ndarray
    h: np.ndarray
    delta: np.ndarray

    def describe(self) -> dict:
        return {
            "t": [float(x) for x in self.radii],
            "len_direct": [float(x) for x in self.length_direct],
            "len_formula": [float(x) for x in self.length_formula],
            "area_jac": [float(x) for x in self.area_jacobian],
            "area_green": [float(x) for x in self.area_green],
            "h": [float(x) for x in self.h],
            "delta": [float(x) for x in self.delta],
        }


def geometry_profile(
    map_model: MapModel,
    radii,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> GeometryProfile:
    """Image geometry of origin-centered circles at the given radii.

    Both length routes and both area routes are computed for every radius;
    a relative disagreement beyond ORACLE_REL_TOL raises NumericalError.
    Both lengths and the Green area come from one `lengths_and_area` pass
    that averages all radii together. The Jacobian-route area is
    accumulated incrementally (one singular-aware integral for the smallest
    radius, annulus increments after that, all stacked in one
    `image_area_jacobian` call), so it is nondecreasing by construction; a
    decrease or a defect below -1e-6 raises InvariantViolationError. A
    radius whose boundary pass raises a NumericalError naming its circle is
    nudged once.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1-D sequence")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")

    grid, nudged = radii, set()
    radii = radii.copy()
    while True:
        circles = [CircleSpec(0j, float(t)) for t in radii]
        try:
            len_direct, len_formula, area_green = lengths_and_area(map_model, circles, cfg)
            break
        except NumericalError as exc:
            # curves can fail to be rectifiable on a null set of radii: nudge
            # the failing radius by one grid step (log-midpoint, formed without
            # the product, which underflows for subnormal radii), retry once
            i = circles.index(exc.circle) if exc.circle in circles else None
            if i is None or i in nudged:
                raise
            nudged.add(i)
            neighbor = grid[i + 1] if i + 1 < grid.size else grid[i - 1]
            radii[i] = np.sqrt(grid[i]) * np.sqrt(neighbor)
    if np.any(np.diff(radii) <= 0):
        raise NumericalError("radius perturbation broke the grid ordering")

    increments = image_area_jacobian(
        map_model, circles, cfg=cfg, r_inner=np.concatenate(([0.0], radii[:-1]))
    )
    area_jac = np.empty_like(radii)
    area_jac[0] = increments[0]
    area_jac[1:] = area_jac[0] + np.cumsum(increments[1:])
    if not area_jac[0] > 0:  # the areas grow with t, so the first is the least
        raise NumericalError(f"image area underflows to {area_jac[0]} at t = {radii[0]}")

    rel_len = np.abs(len_formula - len_direct) / len_direct
    if np.any(rel_len > ORACLE_REL_TOL):
        i = int(np.argmax(rel_len))
        raise NumericalError(
            f"length routes disagree by {rel_len[i]:.3e} at t = {radii[i]}"
        )
    rel_area = np.abs(area_green - area_jac) / area_jac
    if np.any(rel_area > ORACLE_REL_TOL):
        i = int(np.argmax(rel_area))
        raise NumericalError(
            f"area routes disagree by {rel_area[i]:.3e} at t = {radii[i]}"
        )
    if np.any(np.diff(area_jac) < 0):
        raise InvariantViolationError("image area decreased with the radius")

    with np.errstate(over="ignore", invalid="ignore"):  # length^2 ends the float range
        h = area_jac / len_direct**2
        delta = len_direct**2 / (4.0 * np.pi * area_jac) - 1.0
    if not np.isfinite(delta).all():
        t = radii[np.argmin(np.isfinite(delta))]
        raise NumericalError(f"isoperimetric defect overflows at t = {t}")
    if np.any(delta < -1e-6):
        raise InvariantViolationError(f"isoperimetric defect fell to {delta.min():.3e} < -1e-6")
    return GeometryProfile(
        radii=radii,
        length_direct=len_direct,
        length_formula=len_formula,
        area_jacobian=area_jac,
        area_green=area_green,
        h=h,
        delta=delta,
    )
