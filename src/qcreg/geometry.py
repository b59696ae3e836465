"""Lengths of image curves, areas of image disks, and isoperimetric defects.

Every quantity is computed along two independent routes:

* curve length: direct speed quadrature vs. the distortion-weighted
  Jacobian form sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2)) sqrt(J) t;
* disk area: polar quadrature of the Jacobian vs. the boundary integral
  (1/2) contour_integral (u dv - v du).

Both lengths and the boundary-integral area are stacked rows of one
circular average (`lengths_and_area`), each row with its own convergence
test, so a circle's boundary points are built once per doubling level.
Given the distortion bound K, the same pass stacks the circular averages of
Re eps (see `qcreg.extremal`) as a fourth row, so a catalog report takes
its perturbation profile from the profile circles' one pass.
`geometry_profile` enforces agreement of the two routes, which makes the
length identity chain behind the distortion form an executable check.

The radial Jacobian integral uses geometric (octave) segments toward 0 with
a fixed-order Gauss-Legendre rule per segment; the Jacobian of the
cataloged worst-case maps blows up like r^(2/K - 2) at the origin and this
grading keeps the quadrature at machine accuracy there. A whole-disk
integral adds a geometric tail estimate below its last segment, exact for
power-law Jacobians, and descends octave by octave only until that
tail-corrected total settles (at most RADIAL_OCTAVES octaves). The segments
of all stacked integrals form one flat rule, so every doubling level is a
few array operations whatever the number of disks. An integral whose rings
all show a decayed Fourier tail at the first angular level
(`qcreg.quadrature.tail_settled`) takes no second.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolationError, NumericalError, OrientationError
from .plane import (CircleSpec, MapModel, beltrami_from_partials, distortion_integrand,
                    epsilon_from_mu, stretch_factor)
from .quadrature import (
    CircleNodes,
    QuadratureConfig,
    circular_average,
    level_nodes,
    refine,
    row_batches,
    tail_settled,
)

#: relative agreement demanded between the two length / area routes
ORACLE_REL_TOL = 1e-6

#: most octaves of radial grading a whole-disk integral descends toward its
#: center before its tail-corrected total must have settled
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
    *,
    K: float | None = None,
) -> tuple[np.ndarray, ...]:
    """Lengths of f(circle) by both routes and Green areas of f(disk), one pass.

    Three rows are stacked on the boundary points of `_boundary_data`, each
    with its own convergence test: the speed |d gamma| (the direct length),
    the distortion-weighted form sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2))
    * sqrt(J_f) * t with eta the outward unit normal (the formula length),
    and the Green density (the area). mu is the map's field, or where it
    has none `beltrami_from_partials` of the boundary pass's own partials.
    Given a distortion bound K, a fourth row averages Re eps of that mu
    (`qcreg.plane.epsilon_from_mu`), bit for bit the average
    `epsilon_weight_integral` takes of the map's field. Raises
    OrientationError if the Jacobian is negative at a node where the
    boundary data are finite.
    """
    field = map_model.beltrami
    k = None if K is None else stretch_factor(K)

    def integrand(nodes):
        z, dgamma, partials = _boundary_data(map_model, nodes)
        speed, green = np.abs(dgamma), _green_density(map_model, z, dgamma)
        # the quadrature layer names a circle whose boundary data are not
        # finite, and a profile nudges it: at those nodes the formula row is
        # nan, so that its own checks cannot raise first
        bad = ~(np.isfinite(speed) & np.isfinite(green))
        with np.errstate(over="ignore", invalid="ignore"):
            mu = field(z) if field is not None else beltrami_from_partials(*partials, z)
            # conj(z) / z overflows on a circle of subnormal radius: a non-finite
            # Re eps row names its circle like the rows above, and is nudged
            eps = None if k is None else epsilon_from_mu(mu, z, k).real
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
        return np.stack((speed, formula, green) if eps is None else (speed, formula, green, eps))

    speed, formula, green, *eps = circular_average(integrand, circles, cfg)
    return (2.0 * np.pi * speed, 2.0 * np.pi * formula, np.pi * green, *eps)


def _ring_mean_jacobian(map_model, center, radii, unit, rel_tol=None):
    """Mean of J_f over the angle on each ring center[i] + radii[i] e^{i theta},
    and given rel_tol whether the samples of each ring settle its mean to
    rel_tol relative (`tail_settled`, None without).

    Negative values, non-finite values and a mean that overflows are
    rejected, naming the first bad ring.
    """
    z = radii[:, None] * unit
    z += center[:, None]  # in place: one array of rings, not two
    jac = np.asarray(map_model.jacobian(z), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = jac.mean(axis=-1)
    bad, error, what = ~np.isfinite(mean), NumericalError, "non-finite"
    if not bad.any():
        bad, error, what = (jac < 0).any(axis=-1), OrientationError, "negative"
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise error(f"{what} Jacobian on the ring of radius {radii[i]} around {center[i]}")
    return mean, None if rel_tol is None else tail_settled(jac, rel_tol * mean)


def _annulus_segments(t: np.ndarray, r_inner: np.ndarray):
    """(owner, outer, inner edge) of every segment of the annuli
    [r_inner[i], t[i]] split at the octaves t[i] * 2^-k, annulus by annulus
    and each from its rim inward. A ratio t / r_inner that overflows takes
    its octave count from the two logarithms.
    """
    with np.errstate(over="ignore"):
        ratio = t / r_inner
    octaves = np.where(np.isinf(ratio), np.log2(t) - np.log2(r_inner), np.log2(ratio))
    n_oct = np.maximum(1, np.ceil(octaves)).astype(int)
    edges = t[:, None] * 2.0 ** -np.arange(int(n_oct.max(initial=1)) + 1)
    keep = (np.arange(edges.shape[1]) <= n_oct[:, None]) & (edges > r_inner[:, None])
    edges = np.column_stack((np.where(keep, edges, r_inner[:, None]), r_inner))
    owner = np.nonzero(keep)[0]
    return owner, edges[:, :-1][keep], edges[:, 1:][keep]


class _FlatRule(NamedTuple):
    """Gauss-Legendre rings of stacked radial integrals, one row per segment.

    A segment [a, b] of integral `owner` around `center` carries the
    RADIAL_NODES rings (a + b) / 2 + (b - a) / 2 * x of the Gauss-Legendre
    nodes x. An integral's segments run from its rim inward.
    """

    owner: np.ndarray  # (S,) integral of each segment
    center: np.ndarray  # (S,) complex center of each segment's disk
    half: np.ndarray  # (S,) half-widths
    radii: np.ndarray  # (S, RADIAL_NODES) ring radii

    @classmethod
    def build(cls, owner, center, outer, inner) -> "_FlatRule":
        mid, half = (inner + outer) / 2.0, (outer - inner) / 2.0
        radii = mid[:, None] + half[:, None] * GAUSS_LEGENDRE_NODES[None, :]
        return cls(owner, center, half, radii)

    def joined(self, other: "_FlatRule") -> "_FlatRule":
        """This rule's segments, then those of `other`."""
        return _FlatRule(*(np.concatenate(pair) for pair in zip(self, other)))

    def ring_means(self, map_model: MapModel, unit: np.ndarray, rings=slice(None), rel_tol=None):
        """Mean Jacobian over the angles `unit` on the rings `rings` selects
        from the (segments, RADIAL_NODES) rings, all by default, in batches
        of at most MAX_BATCH_NODES points, and given rel_tol whether each
        ring settles on those samples (None without); both of the shape of
        self.radii[rings]."""
        radii = self.radii[rings]
        flat = radii.ravel()
        center = np.broadcast_to(self.center[:, None], self.radii.shape)[rings].ravel()
        means, settled = zip(*(
            _ring_mean_jacobian(map_model, center[ring], flat[ring], unit, rel_tol)
            for ring in row_batches(flat.size, unit.size)
        ))
        means = np.concatenate(means).reshape(radii.shape)
        return means, None if rel_tol is None else np.concatenate(settled).reshape(radii.shape)

    def totals(self, means: np.ndarray, count: int, tail: np.ndarray) -> np.ndarray:
        """The `count` integrals from the ring means of every segment.

        Each integral sums its segments in order. `tail` holds, per
        integral, the rows of its last two segments, or -1 where no
        geometric tail is added below them; the tail, exact for power-law
        Jacobians, is added where their ratio q lies in (0, 1).
        """
        ring = 2.0 * np.pi * self.radii * means
        seg = (ring * GAUSS_LEGENDRE_WEIGHTS).sum(axis=1) * self.half
        total = np.bincount(self.owner, weights=seg, minlength=count)
        has = tail[:, 0] >= 0
        last, before = seg[tail[has, 1]], seg[tail[has, 0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = last / before
            geometric = last * q / (1.0 - q)
        use = (before != 0.0) & (0.0 < q) & (q < 1.0)
        total[np.flatnonzero(has)[use]] += geometric[use]
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
        increments are one call) in one flat rule of geometric segments
        with RADIAL_NODES Gauss-Legendre rings each.
    cfg : QuadratureConfig
        Angular resolution, doubled by `refine` until each integral is
        stable to cfg.rel_tol, with a convergence test per integral. At the
        first angular level a ring settles when `tail_settled` finds each
        discrete Fourier coefficient of its cfg.nodes samples with
        k >= cfg.nodes / 4 at most cfg.rel_tol * |ring mean|, and an
        integral settles there when all its rings have: J >= 0 and the
        Gauss-Legendre weights are positive, so the rings' relative bound
        carries over to the total. Like a circle's rows, an integral
        settles at the level it would reach alone, and the samples cannot
        see a term at an exact multiple of cfg.nodes. A settled ring keeps
        its first mean; a doubling evaluates each other ring of an
        integral only at the angles it adds (`level_nodes`) and combines
        their mean with the ring's running mean. The integrals still
        refining share each level's Jacobian calls, which take their
        rings in batches of at most MAX_BATCH_NODES points.
    r_inner : float or sequence of float
        Inner radius per disk for annulus increments (used by profiles);
        0 integrates the whole disk, with a geometric tail toward its
        center. At the first angular level a whole disk descends one
        octave at a time, all whole disks still descending in one Jacobian
        call per octave, until its tail-corrected total changes by at most
        cfg.rel_tol relative between two octaves; later levels refine the
        octaves it stopped at.

    Raises
    ------
    ValueError
        If an r_inner is not a finite number in [0, radius) of its disk,
        naming the first such disk.
    NumericalError
        If a whole disk's total still moves by more than cfg.rel_tol after
        RADIAL_OCTAVES octaves (a Jacobian not integrable at its center),
        naming the disk; a ring with a non-finite Jacobian is named too.
    """
    inner = np.broadcast_to(np.asarray(r_inner, dtype=float), (len(disks),))
    center = np.array([d.center for d in disks], dtype=complex)
    outer = np.array([d.radius for d in disks], dtype=float)
    bad = ~((inner >= 0.0) & (inner < outer))  # nan and inf too
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"r_inner = {float(inner[i])} of {disks[i]} must lie in "
                         f"[0, {disks[i].radius}) and be finite")
    annulus = inner > 0.0
    whole = np.flatnonzero(~annulus)

    def octave(owners, k):
        # segment k of the whole disks `owners`: [t 2^-(k+1), t 2^-k]
        t = outer[owners]
        return _FlatRule.build(owners, center[owners], t * 2.0 ** -k, t * 2.0 ** -(k + 1))

    owner, outer_edge, inner_edge = _annulus_segments(outer[annulus], inner[annulus])
    owner = np.flatnonzero(annulus)[owner]
    rule = _FlatRule.build(owner, center[owner], outer_edge, inner_edge)
    rule = rule.joined(octave(whole, 0)).joined(octave(whole, 1))
    # rows of each whole disk's last two segments; -1 for an annulus
    tail = np.full((len(disks), 2), -1)
    tail[whole] = owner.size + np.arange(whole.size)[:, None] + [0, whole.size]
    means = None  # ring means over the angles of the levels so far, (S, RADIAL_NODES)
    settled = None  # whether each ring settled at the first level, (S, RADIAL_NODES)

    def descend(unit):
        # the first angular level: every integral's totals, and whether all
        # its rings settled on their samples
        nonlocal rule, means, settled
        means, settled = rule.ring_means(map_model, unit, rel_tol=cfg.rel_tol)
        totals = rule.totals(means, len(disks), tail)
        moving = whole
        for k in range(2, RADIAL_OCTAVES):
            if not moving.size:
                break
            step = octave(moving, k)
            tail[moving] = np.column_stack((tail[moving, 1], rule.owner.size + np.arange(moving.size)))
            rule = rule.joined(step)
            step_means, step_settled = step.ring_means(map_model, unit, rel_tol=cfg.rel_tol)
            means = np.concatenate((means, step_means))
            settled = np.concatenate((settled, step_settled))
            fresh = rule.totals(means, len(disks), tail)
            moved = np.abs(fresh - totals)
            totals = fresh
            moving = moving[~(moved[moving] <= cfg.rel_tol * np.abs(totals[moving]))]
        if moving.size:
            i = moving[0]
            raise NumericalError(
                f"the Jacobian area of {disks[i]} still moves by {moved[i]:.3e} "
                f"(total {totals[i]:.6e}) after {RADIAL_OCTAVES} octaves toward its "
                "center; the Jacobian is not integrable there",
                circle=disks[i],
            )
        unsettled = np.zeros(len(disks), dtype=bool)
        unsettled[rule.owner[~settled.all(axis=1)]] = True
        return totals, ~unsettled

    def evaluate(n, items, refining):
        nonlocal means
        first = n == cfg.nodes
        _, unit = level_nodes(n, first)
        if first:
            return descend(unit)
        rings = np.isin(rule.owner, items)[:, None] & ~settled
        means[rings] = 0.5 * (means[rings] + rule.ring_means(map_model, unit, rings)[0])
        return rule.totals(means, len(disks), tail)[items]

    return refine(evaluate, len(disks), cfg)


class GeometryProfile(NamedTuple):
    """Per-radius image geometry with both routes for each quantity.

    `t` are the radii, `area_jac` is the Jacobian-route area (the quantity
    whose growth rate carries the Holder exponent), `h = area_jac /
    len_direct^2`, and `delta = 1 / (4 pi h) - 1` is the isoperimetric defect.
    """

    t: np.ndarray
    len_direct: np.ndarray
    len_formula: np.ndarray
    area_jac: np.ndarray
    area_green: np.ndarray
    h: np.ndarray
    delta: np.ndarray


def geometry_profile(
    map_model: MapModel,
    radii,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    K: float | None = None,
) -> GeometryProfile | tuple[GeometryProfile, np.ndarray]:
    """Image geometry of origin-centered circles at the given radii.

    Both length routes and both area routes are computed for every radius;
    a relative disagreement beyond ORACLE_REL_TOL raises NumericalError.
    Both lengths and the Green area come from one `lengths_and_area` pass
    that averages all radii together. Given a distortion bound K, that pass
    also averages Re eps of the map's field, and the pair (profile, those
    averages on the profile's radii) is returned. The Jacobian-route area is
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
            len_direct, len_formula, area_green, *eps = lengths_and_area(
                map_model, circles, cfg, K=K
            )
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
    profile = GeometryProfile(radii, len_direct, len_formula, area_jac, area_green, h, delta)
    return profile if K is None else (profile, eps[0])
