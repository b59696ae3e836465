"""Periodic quadrature on circles and supremum search over circle families.

Averages use the uniform-angle trapezoid rule with a half-node offset
theta_j = 2 pi (j + 1/2) / N. On periodic integrands this rule is exact for
trigonometric polynomials of degree < N and converges spectrally for smooth
data; the offset keeps nodes off the rays where z / conj(z) fields may
carry tabulated branch data. `refine` is the one node-doubling loop: the
circle averages here and the Jacobian areas of `qcreg.geometry` both
refine through it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .plane import CircleSpec, DomainSpec


#: ceiling on nodes * 2**max_doublings, the finest rule one circle can reach
MAX_CIRCLE_NODES = 1 << 20

#: most nodes one integrand (or ring Jacobian) call evaluates: the rows of a
#: circle family or of a radial rule go in batches that fit, and a row with
#: more nodes than that is a batch of its own
MAX_BATCH_NODES = 1 << 15


@dataclass(frozen=True)
class QuadratureConfig:
    """Angular node count (power of two, >= 16), doubling budget, tolerance.

    The finest rule, nodes * 2**max_doublings, may not exceed
    MAX_CIRCLE_NODES.
    """

    nodes: int = 256
    max_doublings: int = 6
    rel_tol: float = 1e-9

    def __post_init__(self):
        for name in ("nodes", "max_doublings"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        n = self.nodes
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"nodes must be a power of two >= 16, got {n}")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")
        if n << min(self.max_doublings, 64) > MAX_CIRCLE_NODES:
            raise ValueError(
                f"nodes * 2**max_doublings = {n} * 2**{self.max_doublings} exceeds "
                f"the ceiling of {MAX_CIRCLE_NODES} nodes per circle"
            )
        if not (self.rel_tol > 0):
            raise ValueError("rel_tol must be positive")

    def describe(self) -> dict:
        return {
            "nodes": self.nodes,
            "max_doublings": self.max_doublings,
            "rel_tol": self.rel_tol,
        }


#: node counts up to this keep their angles and e^{i theta} (24 bytes a node)
CACHED_NODES_MAX = 1 << 16

_node_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _node_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    table = _node_tables.get(n)
    if table is None:
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        unit = np.exp(1j * theta)
        theta.flags.writeable = False
        unit.flags.writeable = False
        table = (theta, unit)
        if n <= CACHED_NODES_MAX:
            _node_tables[n] = table
    return table


def angle_nodes(n: int) -> np.ndarray:
    """Half-offset uniform angles 2 pi (j + 1/2) / n (read-only, cached per n)."""
    return _node_table(int(n))[0]


def unit_nodes(n: int) -> np.ndarray:
    """e^{i theta} at `angle_nodes(n)` (read-only, cached per n)."""
    return _node_table(int(n))[1]


class CircleNodes(NamedTuple):
    """The angle nodes of one doubling level on a batch of circles.

    Row i of every (m, N) array lies on `circles[i]`; `size` is the number
    of nodes the batch evaluates, m * N.
    """

    circles: tuple[CircleSpec, ...]
    theta: np.ndarray  # (N,) angles shared by every row
    unit: np.ndarray  # (N,) e^{i theta}, the outward normals
    center: np.ndarray  # (m, 1) complex
    radius: np.ndarray  # (m, 1)

    @property
    def size(self) -> int:
        return len(self.circles) * self.theta.size

    @property
    def points(self) -> np.ndarray:
        """(m, N) points center + radius e^{i theta}."""
        z = self.radius * self.unit
        z += self.center  # in place: one (m, N) array, not two
        return z


def row_batches(rows: int, n: int) -> list[slice]:
    """Consecutive runs of rows of n nodes, at most MAX_BATCH_NODES nodes a
    run (one row a run when n alone exceeds it)."""
    step = max(1, MAX_BATCH_NODES // n)
    return [slice(k, k + step) for k in range(0, rows, step)]


def refine(evaluate: Callable, count: int, cfg: QuadratureConfig) -> np.ndarray:
    """Estimates of `count` items, each refined by node doubling until stable.

    `evaluate(n, items, refining)` returns the estimates at n nodes of the
    items in the index array `items`: shape (items.size,) for one row per
    item, or (k, items.size) for k stacked rows. `refining` marks the rows
    of those items that have not converged yet, shape (k, items.size); at
    the first level, where every row refines, it is all True of shape
    (1, items.size).

    Node counts double from cfg.nodes. From the second level on a row
    converges when two successive estimates agree to cfg.rel_tol (relative,
    with an absolute floor of rel_tol for values below 1) and keeps the
    estimate of that level; an item leaves the later levels once all its
    rows have converged. After cfg.max_doublings doublings every row keeps
    its last estimate. Returns shape (count,) or (k, count), as `evaluate`.
    """
    items = np.arange(count)
    refining = np.ones((1, count), dtype=bool)
    n = cfg.nodes
    for level in range(cfg.max_doublings + 1):
        values = np.asarray(evaluate(n, items, refining[:, items]), dtype=float)
        cur = values.reshape(-1, items.size)
        if not level:
            est = np.empty((cur.shape[0], count))
            prev = np.empty_like(est)
            refining = np.ones(est.shape, dtype=bool)
        ref = refining[:, items]
        est[:, items] = np.where(ref, cur, est[:, items])
        if level:
            ref &= ~(np.abs(cur - prev[:, items]) <= cfg.rel_tol * np.maximum(1.0, np.abs(cur)))
            refining[:, items] = ref
        prev[:, items] = cur
        items = items[ref.any(axis=0)]
        if not items.size:
            break
        n *= 2
    return est[0] if values.ndim == 1 else est


def circular_average(
    integrand: Callable[[CircleNodes], np.ndarray],
    circles: Sequence[CircleSpec],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Averages of a real integrand over circles w.r.t. normalized arclength.

    Parameters
    ----------
    integrand : callable
        Maps a `CircleNodes` batch of m circles to shape (m, N), or to
        (k, m, N) for k stacked rows that share the boundary data (for
        instance several quantities built from the same map partials).
    circles : sequence of CircleSpec
        The family averaged together: each doubling level evaluates every
        circle still refining, in batches of at most MAX_BATCH_NODES nodes
        (a circle with more nodes than that is a batch of its own).
    cfg : QuadratureConfig
        The doubling rule of `refine`: each row of each circle has its own
        convergence test, so a row converges at the level it would reach in
        a family of one, though its value can differ from that by round-off.

    Returns
    -------
    An array of shape (m,), or (k, m) for k stacked rows.

    Raises
    ------
    NumericalError
        If a row that has not converged yet takes a non-finite value; the
        message names the circle and its first offending node, and the
        error's `circle` is that circle.
    """
    circles = tuple(circles)
    if not circles:
        raise ValueError("circular_average needs at least one circle")
    center = np.array([c.center for c in circles], dtype=complex)[:, None]
    radius = np.array([c.radius for c in circles], dtype=float)[:, None]

    def evaluate(n, items, refining):
        theta, unit = _node_table(n)
        parts = []
        for rows in row_batches(items.size, n):
            idx = items[rows]
            batch = tuple(circles[i] for i in idx)
            vals = np.asarray(
                integrand(CircleNodes(batch, theta, unit, center[idx], radius[idx])),
                dtype=float,
            )
            stacked = vals if vals.ndim == 3 else vals[None]
            if stacked.shape[1:] != (idx.size, n):
                raise ValueError(
                    f"integrand returned shape {vals.shape} for {idx.size} circle(s) "
                    f"of {n} nodes"
                )
            means = stacked.mean(axis=-1)
            _check_finite(stacked, means, refining[:, rows], batch, theta)
            parts.append(means)
        means = np.concatenate(parts, axis=1)
        return means if vals.ndim == 3 else means[0]

    return refine(evaluate, len(circles), cfg)


def _check_finite(rows, means, refining, batch, theta) -> None:
    """Raise at the first non-finite node of a row that is still refining.

    A non-finite value makes its row's mean non-finite, so the nodes are
    scanned only then (or when a finite sum overflowed).
    """
    if np.isfinite(means).all():
        return
    refining = np.broadcast_to(refining, means.shape)
    for col, circle in enumerate(batch):
        bad = ~np.isfinite(rows[refining[:, col], col]).all(axis=0)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise NumericalError(
                f"non-finite integrand value at theta = {theta[j]:.12g} "
                f"on circle(center={circle.center}, radius={circle.radius})",
                circle=circle,
            )


@dataclass(frozen=True)
class SupResult:
    """Maximum of a per-circle quantity over an admissible circle family."""

    value: float
    argmax: CircleSpec
    per_circle: tuple[tuple[CircleSpec, float], ...]


#: values this many units in the last place below the maximum tie with it
TIE_ULPS = 4


def _argmax_stable(circles, values):
    # values within TIE_ULPS of the maximum tie, so round-off cannot pick the
    # argmax; the geometrically first tied circle wins, whatever the grid order
    best = max(values)
    slack = TIE_ULPS * math.ulp(best)
    tied = [i for i, v in enumerate(values) if best - v <= slack]
    key = lambda i: (circles[i].radius, circles[i].center.real, circles[i].center.imag)
    return min(tied, key=key)


def sup_over_circles(
    evaluate: Callable[[list[CircleSpec]], Sequence[float]],
    domain: DomainSpec,
) -> SupResult:
    """Evaluate a per-circle functional on every admissible circle, take the max.

    `evaluate` maps the list of admissible circles to their values in one
    call, so a functional built on `circular_average` averages the whole
    family together. This is a finite-grid approximation of an essential
    supremum over a continuum of circles; `value` is the largest value and
    `argmax` the circle that set it, where values within TIE_ULPS of the
    largest count as tied and the smallest radius (then center) wins.
    """
    circles = domain.admissible_circles()
    if not circles:
        raise ConfigError("no admissible circle fits inside the outer domain")
    values = [float(v) for v in evaluate(circles)]
    if len(values) != len(circles):
        raise ValueError(f"expected {len(circles)} values, got {len(values)}")
    if not all(np.isfinite(values)):
        i = next(i for i, v in enumerate(values) if not np.isfinite(v))
        raise NumericalError(f"per-circle value not finite on {circles[i]}", circle=circles[i])
    i = _argmax_stable(circles, values)
    return SupResult(
        value=max(values),
        argmax=circles[i],
        per_circle=tuple(zip(circles, values)),
    )
