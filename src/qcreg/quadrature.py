"""Periodic quadrature on circles and supremum search over circle families.

Averages use the uniform-angle trapezoid rule with a half-node offset
theta_j = 2 pi (j + 1/2) / N. On periodic integrands this rule is exact for
trigonometric polynomials of degree < N and converges spectrally for smooth
data; the offset keeps nodes off the rays where z / conj(z) fields may
carry tabulated branch data.
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


def circle_nodes(circle: CircleSpec, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points center + radius e^{i theta} and the outward normals e^{i theta}.

    When `theta` is a cached `angle_nodes` array, e^{i theta} comes from the
    same cache; the values equal a fresh evaluation bit for bit either way.
    """
    theta = np.asarray(theta, dtype=float)
    table = _node_tables.get(theta.size)
    unit = table[1] if table is not None and theta is table[0] else np.exp(1j * theta)
    return circle.center + circle.radius * unit, unit


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


def family(circle) -> tuple[CircleSpec, ...]:
    """A lone CircleSpec as a family of one; a sequence of circles as a tuple."""
    return (circle,) if isinstance(circle, CircleSpec) else tuple(circle)


def unwrap(values, circle):
    """A family result as the caller asked for it: a float for a lone circle."""
    return float(values[0]) if isinstance(circle, CircleSpec) else values


def circular_average(
    integrand: Callable,
    circle,
    cfg: QuadratureConfig = QuadratureConfig(),
):
    """Average of a real integrand over circles w.r.t. normalized arclength.

    Parameters
    ----------
    integrand : callable
        For a lone `circle`, a vectorized map from an angle array of shape
        (N,) to real values, the circle baked into the closure; it may
        return one row, shape (N,), or k stacked rows, shape (k, N), that
        share the angle nodes (for instance several quantities built from
        the same boundary data). For a family of circles, a map from a
        `CircleNodes` batch of m circles to shape (m, N), or (k, m, N)
        for k stacked rows.
    circle : CircleSpec or sequence of CircleSpec
        A lone circle, or the family whose circles are averaged together:
        each doubling level evaluates every circle still refining, in
        batches of at most MAX_BATCH_NODES nodes (a circle with more nodes
        than that is a batch of its own). A lone circle is a family of one.
    cfg : QuadratureConfig
        Node count is doubled until two successive estimates agree to
        rel_tol (relative, with an absolute floor of rel_tol for values
        below 1) or the doubling budget is exhausted. Each row of each
        circle has its own test and keeps the estimate of the level where
        it converged; a circle leaves the later levels once all its rows
        have converged. A row thus converges at the level it would reach
        alone, though its values can differ from a lone evaluation by
        round-off.

    Returns
    -------
    For a lone circle, a float for a one-row integrand, else a tuple of k
    floats. For a family, an array of shape (m,), or (k, m) for k rows.

    Raises
    ------
    NumericalError
        If a row that has not converged yet takes a non-finite value; the
        message names the circle and its first offending node, and the
        error's `circle` is that circle.
    """
    lone = isinstance(circle, CircleSpec)
    circles = family(circle)
    if not circles:
        raise ValueError("circular_average needs at least one circle")
    if lone:
        evaluate = lambda nodes: np.asarray(integrand(nodes.theta), dtype=float)[..., None, :]
    else:
        evaluate = integrand
    center = np.array([c.center for c in circles], dtype=complex)[:, None]
    radius = np.array([c.radius for c in circles], dtype=float)[:, None]
    active = np.arange(len(circles))
    est = prev = refining = None
    n = cfg.nodes
    for level in range(cfg.max_doublings + 1):
        theta, unit = _node_table(n)
        parts = []
        for rows in row_batches(active.size, n):
            idx = active[rows]
            batch = tuple(circles[i] for i in idx)
            vals = np.asarray(
                evaluate(CircleNodes(batch, theta, unit, center[idx], radius[idx])),
                dtype=float,
            )
            rows = vals if vals.ndim == 3 else vals[None]
            if rows.shape[1:] != (idx.size, n):
                raise ValueError(
                    f"integrand returned shape {vals.shape} for {idx.size} circle(s) "
                    f"of {n} nodes"
                )
            means = rows.mean(axis=-1)
            if est is None:
                est = np.empty((means.shape[0], len(circles)))
                prev = np.empty_like(est)
                refining = np.ones(est.shape, dtype=bool)
            _check_finite(rows, means, refining[:, idx], batch, theta)
            parts.append(means)
        cur = np.concatenate(parts, axis=1)
        ref = refining[:, active]
        est[:, active] = np.where(ref, cur, est[:, active])
        if level:
            ref &= ~(np.abs(cur - prev[:, active]) <= cfg.rel_tol * np.maximum(1.0, np.abs(cur)))
            refining[:, active] = ref
        prev[:, active] = cur
        active = active[ref.any(axis=0)]
        if not active.size:
            break
        n *= 2
    single = vals.ndim == 2
    if lone:
        return float(est[0, 0]) if single else tuple(est[:, 0].tolist())
    return est[0] if single else est


def _check_finite(rows, means, refining, batch, theta) -> None:
    """Raise at the first non-finite node of a row that is still refining.

    A non-finite value makes its row's mean non-finite, so the nodes are
    scanned only then (or when a finite sum overflowed).
    """
    if np.isfinite(means[refining]).all():
        return
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
