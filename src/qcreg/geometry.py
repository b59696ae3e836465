"""Lengths of image curves, areas of image disks, and isoperimetric defects.

Every quantity is computed along two independent routes:

* curve length: direct speed quadrature vs. the distortion-weighted
  Jacobian form sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2)) sqrt(J) t;
* disk area: polar quadrature of the Jacobian vs. the boundary integral
  (1/2) contour_integral (u dv - v du).

`geometry_profile` enforces agreement of the two routes, which makes the
length identity chain behind the distortion form an executable check.

The radial Jacobian integral uses geometric (octave) segments toward 0 with
a fixed-order Gauss-Legendre rule per segment plus a geometric tail
estimate; the Jacobian of the cataloged worst-case maps blows up like
r^(2/K - 2) at the origin and this grading keeps the quadrature at machine
accuracy there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, NumericalError, OrientationError
from .plane import CircleSpec, MapModel, beltrami_of
from .quadrature import QuadratureConfig, circle_nodes, circular_average, unit_nodes

#: relative agreement demanded between the two length / area routes
ORACLE_REL_TOL = 1e-6

#: octaves of radial grading between the disk radius and the tail cutoff
RADIAL_OCTAVES = 60

#: below this curve length an image is treated as degenerate
DEGENERATE_LENGTH = 1e-14


def _boundary_data(map_model: MapModel, circle: CircleSpec, theta: np.ndarray):
    """Image points and their theta-derivative along f(circle).

    Non-finite partials are allowed to propagate: the quadrature layer
    turns them into a NumericalError naming the node.
    """
    z, _ = circle_nodes(circle, theta)
    f_x, f_y = map_model.partials(z)
    with np.errstate(invalid="ignore"):
        dgamma = circle.radius * (-np.sin(theta) * f_x + np.cos(theta) * f_y)
    return z, dgamma


def quasicircle_length_direct(
    map_model: MapModel,
    circle: CircleSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Length of f(circle) by quadrature of the parameterization speed."""

    def integrand(theta):
        _, dgamma = _boundary_data(map_model, circle, theta)
        return np.abs(dgamma)

    return 2.0 * np.pi * circular_average(integrand, circle, cfg)


def _green_density(map_model: MapModel, z, dgamma):
    """Integrand of the boundary area integral: Im(conj(f) * d f / d theta)."""
    return (np.conj(map_model.value(z)) * dgamma).imag


def length_and_area(
    map_model: MapModel,
    circle: CircleSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> tuple[float, float]:
    """Direct-route length of f(circle) and Green area of f(disk), one pass.

    Both integrands are built from the same boundary data and averaged as
    two stacked rows, so each equals `quasicircle_length_direct` /
    `image_area_green` called alone, bit for bit.
    """

    def integrand(theta):
        z, dgamma = _boundary_data(map_model, circle, theta)
        return np.stack((np.abs(dgamma), _green_density(map_model, z, dgamma)))

    speed, green = circular_average(integrand, circle, cfg)
    return 2.0 * np.pi * speed, np.pi * green


def quasicircle_length_formula(
    map_model: MapModel,
    circle: CircleSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Length of f(circle) via the distortion-weighted Jacobian form.

    Integrates sqrt(|1 - conj(eta)^2 mu|^2 / (1 - |mu|^2)) * sqrt(J_f) * t
    over the angle, with eta the outward unit normal. Requires mu and J_f
    on the circle; raises OrientationError if the Jacobian is negative at
    a node.
    """
    from .bounds import distortion_integrand  # local import avoids a cycle

    field = map_model.beltrami

    def integrand(theta):
        z, eta = circle_nodes(circle, theta)
        mu = field(z) if field is not None else beltrami_of(map_model, z)
        jac = np.asarray(map_model.jacobian(z), dtype=float)
        if np.any(jac < 0):
            j = int(np.flatnonzero(jac < 0)[0])
            raise OrientationError(
                f"negative Jacobian {jac[j]} at theta = {theta[j]:.12g} on {circle}"
            )
        return np.sqrt(distortion_integrand(mu, eta)) * np.sqrt(jac) * circle.radius

    return 2.0 * np.pi * circular_average(integrand, circle, cfg)


def _ring_mean_jacobian(map_model, center, radii, n_theta):
    """Mean of J_f over the angle for each radius; negative values rejected."""
    z = center + np.multiply.outer(np.asarray(radii, dtype=float), unit_nodes(n_theta))
    jac = np.asarray(map_model.jacobian(z), dtype=float)
    if not np.all(np.isfinite(jac)):
        raise NumericalError(f"non-finite Jacobian on ring around {center}")
    if np.any(jac < 0):
        raise OrientationError(f"negative Jacobian on ring around {center}")
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (read-only, cached)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _radial_integral(ring_fn, edges: np.ndarray, gl_order: int) -> np.ndarray:
    """Per-segment integrals of ring_fn over [edges[i+1], edges[i]]."""
    x, w = _gauss_legendre(gl_order)
    a, b = edges[1:], edges[:-1]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    r = mid[:, None] + half[:, None] * x[None, :]
    g = ring_fn(r.ravel()).reshape(r.shape)
    return (g * w[None, :]).sum(axis=1) * half


def image_area_jacobian(
    map_model: MapModel,
    disk: CircleSpec,
    radial_nodes: int = 10,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    r_inner: float = 0.0,
) -> float:
    """Area of f(disk) as the polar integral of the Jacobian.

    Parameters
    ----------
    map_model : MapModel
        Map with an integrable Jacobian; a singular disk center is allowed
        (the grading below absorbs power-law blow-up).
    disk : CircleSpec
        Integration runs over r in (r_inner, disk.radius] around
        disk.center.
    radial_nodes : int
        Gauss-Legendre points per geometric radial segment.
    cfg : QuadratureConfig
        Angular resolution; the whole radial integral is recomputed on a
        doubled angular grid until it is stable to cfg.rel_tol.
    r_inner : float
        Optional inner radius for annulus increments (used by profiles).
    """
    t = disk.radius

    def compute(n_theta):
        ring = lambda r: 2.0 * np.pi * r * _ring_mean_jacobian(
            map_model, disk.center, r, n_theta
        )
        if r_inner > 0.0:
            edges = _annulus_edges(t, r_inner)
            return float(_radial_integral(ring, edges, radial_nodes).sum())
        edges = _segments_toward_zero(t, RADIAL_OCTAVES)
        seg = _radial_integral(ring, edges, radial_nodes)
        total = float(seg.sum())
        # geometric tail below the last segment; exact for power-law Jacobians
        if seg[-2] != 0.0:
            q = seg[-1] / seg[-2]
            if 0.0 < q < 1.0:
                total += float(seg[-1] * q / (1.0 - q))
        return total

    n = cfg.nodes
    prev = compute(n)
    for _ in range(cfg.max_doublings):
        n *= 2
        cur = compute(n)
        if abs(cur - prev) <= cfg.rel_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return prev


def image_area_green(
    map_model: MapModel,
    circle: CircleSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Area of f(disk) via the boundary integral (1/2) contour (u dv - v du).

    Needs only boundary data; exact for maps injective on the closed disk,
    which makes it the independent oracle for the Jacobian route.
    """

    def integrand(theta):
        z, dgamma = _boundary_data(map_model, circle, theta)
        return _green_density(map_model, z, dgamma)

    return np.pi * circular_average(integrand, circle, cfg)


def isoperimetric_defect(
    map_model: MapModel,
    t: float,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """delta(t) = length(f(S_t))^2 / (4 pi area(f(D_t))) - 1 for origin circles.

    Nonnegative up to quadrature tolerance by the isoperimetric inequality;
    zero exactly when the image is a disk.
    """
    length, area = length_and_area(map_model, CircleSpec(0j, float(t)), cfg)
    if area <= 0 or length < DEGENERATE_LENGTH:
        raise NumericalError(f"degenerate image at t = {t}: area={area}, length={length}")
    return length * length / (4.0 * np.pi * area) - 1.0


@dataclass(frozen=True)
class GeometryProfile:
    """Per-radius image geometry with both routes for each quantity.

    `phi` is the Jacobian-route area (the quantity whose growth rate
    carries the Holder exponent), `h = phi / length^2`, and
    `delta = 1 / (4 pi h) - 1` is the isoperimetric defect.
    """

    radii: np.ndarray
    length_direct: np.ndarray
    length_formula: np.ndarray
    area_jacobian: np.ndarray
    area_green: np.ndarray
    phi: np.ndarray
    h: np.ndarray
    delta: np.ndarray

    CSV_HEADER = "t,len_direct,len_formula,area_jac,area_green,phi,h,delta"

    def to_csv(self, path) -> None:
        rows = np.column_stack(
            [
                self.radii,
                self.length_direct,
                self.length_formula,
                self.area_jacobian,
                self.area_green,
                self.phi,
                self.h,
                self.delta,
            ]
        )
        np.savetxt(path, rows, delimiter=",", header=self.CSV_HEADER, comments="")

    def describe(self) -> dict:
        return {
            "t": [float(x) for x in self.radii],
            "len_direct": [float(x) for x in self.length_direct],
            "len_formula": [float(x) for x in self.length_formula],
            "area_jac": [float(x) for x in self.area_jacobian],
            "area_green": [float(x) for x in self.area_green],
            "phi": [float(x) for x in self.phi],
            "h": [float(x) for x in self.h],
            "delta": [float(x) for x in self.delta],
        }


def geometry_profile(
    map_model: MapModel,
    radii,
    cfg: QuadratureConfig = QuadratureConfig(),
    *,
    oracle_rel_tol: float = ORACLE_REL_TOL,
) -> GeometryProfile:
    """Image geometry of origin-centered circles at the given radii.

    Both length routes and both area routes are computed for every radius;
    a relative disagreement beyond `oracle_rel_tol` raises NumericalError.
    The area column is accumulated incrementally (one singular-aware
    integral for the smallest radius, annulus increments after that), so
    `phi` is nondecreasing by construction of the Jacobian integral; a
    decrease or a defect below -1e-6 raises InvariantViolationError.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size == 0:
        raise ValueError("radii must be a nonempty 1-D sequence")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be positive and strictly increasing")

    def boundary_at(t):
        circle = CircleSpec(0j, float(t))
        length, area = length_and_area(map_model, circle, cfg)
        return length, quasicircle_length_formula(map_model, circle, cfg), area

    def boundary(i):
        t = radii[i]
        try:
            return t, boundary_at(t)
        except NumericalError:
            # curves can fail to be rectifiable on a null set of radii:
            # nudge by one grid step (log-midpoint) and retry once
            neighbor = radii[i + 1] if i + 1 < radii.size else radii[i - 1]
            t = float(np.sqrt(t * neighbor))
            return t, boundary_at(t)

    per_radius = [boundary(i) for i in range(radii.size)]
    radii = np.array([p[0] for p in per_radius])
    if np.any(np.diff(radii) <= 0):
        raise NumericalError("radius perturbation broke the grid ordering")
    len_direct = np.array([p[1][0] for p in per_radius])
    len_formula = np.array([p[1][1] for p in per_radius])
    area_green = np.array([p[1][2] for p in per_radius])

    area_jac = np.empty_like(radii)
    area_jac[0] = image_area_jacobian(map_model, CircleSpec(0j, radii[0]), cfg=cfg)
    increments = [
        image_area_jacobian(
            map_model, CircleSpec(0j, radii[i]), cfg=cfg, r_inner=radii[i - 1]
        )
        for i in range(1, radii.size)
    ]
    area_jac[1:] = area_jac[0] + np.cumsum(increments)

    rel_len = np.abs(len_formula - len_direct) / len_direct
    if np.any(rel_len > oracle_rel_tol):
        i = int(np.argmax(rel_len))
        raise NumericalError(
            f"length routes disagree by {rel_len[i]:.3e} at t = {radii[i]}"
        )
    rel_area = np.abs(area_green - area_jac) / area_jac
    if np.any(rel_area > oracle_rel_tol):
        i = int(np.argmax(rel_area))
        raise NumericalError(
            f"area routes disagree by {rel_area[i]:.3e} at t = {radii[i]}"
        )
    if np.any(np.diff(area_jac) < 0):
        raise InvariantViolationError("image area decreased with the radius")

    phi = area_jac
    h = phi / len_direct**2
    delta = len_direct**2 / (4.0 * np.pi * phi) - 1.0
    if np.any(delta < -1e-6):
        raise InvariantViolationError(
            f"isoperimetric defect fell to {delta.min():.3e} < -1e-6"
        )
    return GeometryProfile(
        radii=radii,
        length_direct=len_direct,
        length_formula=len_formula,
        area_jacobian=area_jac,
        area_green=area_green,
        phi=phi,
        h=h,
        delta=delta,
    )
