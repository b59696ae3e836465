"""Periodic quadrature on circles and supremum search over circle families.

Averages use the uniform-angle trapezoid rule. On periodic integrands it is
exact for trigonometric polynomials of degree < N and converges spectrally
for smooth data. The rules are nested: every node is
theta_i = 2 pi (i + 1/2) / MAX_CIRCLE_NODES for an integer i, and the rule
of N nodes takes every (MAX_CIRCLE_NODES / N)-th one, so the 2N rule holds
the N rule and a doubling evaluates only the N nodes it adds. The half-step
offset keeps every node off the axes theta = 0, pi/2, pi, 3 pi/2, the rays
where z / conj(z) fields may carry tabulated branch data. `refine` is the
one node-doubling loop: the circle averages here and the Jacobian areas of
`qcreg.geometry` both refine through it.

Circle families and ring rules are evaluated in batches of at most
MAX_BATCH_NODES nodes, for two reasons. A complex node array of the cap is
128 KiB, so the temporaries of a batch stay cache-sized, and fewer of them
make the allocator grow and trim its heap (page faults and system time on
every batch). And a batch's node arrays stay below numpy's 256 KiB size for
reusing the buffers of temporaries in place, which reorders complex
products and so would make a circle's average depend on the family it is
averaged in. Under the cap a circle's average is bit-identical alone and in
any family; a row longer than the cap is a batch of its own either way.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .plane import CircleSpec, DomainSpec, _Validated


#: ceiling on nodes * 2**max_doublings, the finest rule one circle can reach
MAX_CIRCLE_NODES = 1 << 20

#: most nodes one integrand (or ring Jacobian) call evaluates: the rows of a
#: circle family or of a radial rule go in batches that fit, and a row with
#: more nodes than that is a batch of its own. 2**13 complex nodes are
#: 128 KiB, so a batch's temporaries stay cache-sized and mostly reuse the
#: heap, and no batch reaches numpy's 256 KiB temporary-elision size, which
#: would make a row's value depend on the rows batched with it
MAX_BATCH_NODES = 1 << 13


class _QuadratureFields(NamedTuple):
    nodes: int
    max_doublings: int
    rel_tol: float


class QuadratureConfig(_Validated, _QuadratureFields):
    """Angular node count (power of two, >= 16), doubling budget, tolerance.

    The finest rule, nodes * 2**max_doublings, may not exceed
    MAX_CIRCLE_NODES.
    """

    __slots__ = ()

    def __new__(cls, nodes: int = 256, max_doublings: int = 6, rel_tol: float = 1e-9):
        for name, value in (("nodes", nodes), ("max_doublings", max_doublings)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        n, max_doublings = int(nodes), int(max_doublings)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"nodes must be a power of two >= 16, got {n}")
        if max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")
        if n << min(max_doublings, 64) > MAX_CIRCLE_NODES:
            raise ValueError(
                f"nodes * 2**max_doublings = {n} * 2**{max_doublings} exceeds "
                f"the ceiling of {MAX_CIRCLE_NODES} nodes per circle"
            )
        if not (rel_tol > 0):
            raise ValueError("rel_tol must be positive")
        return super().__new__(cls, n, max_doublings, rel_tol)

    def describe(self) -> dict:
        return {
            "nodes": self.nodes,
            "max_doublings": self.max_doublings,
            "rel_tol": self.rel_tol,
        }


@functools.lru_cache(maxsize=None)
def level_nodes(n: int, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """Angles and e^{i theta} a level of the nested rule evaluates (read-only,
    cached).

    Every node is theta_i = 2 pi (i + 1/2) / MAX_CIRCLE_NODES for an integer
    i. The rule of n nodes takes i at the multiples of MAX_CIRCLE_NODES / n:
    a first level evaluates all n of them, a later level only the n / 2 odd
    multiples its halved rule lacks. The levels of one doubling are disjoint
    and their union is the rule of the last one. The cache holds at most two
    entries per power of two up to MAX_CIRCLE_NODES, under 3 * 2**20 nodes.
    """
    stride = MAX_CIRCLE_NODES // n
    index = np.arange(0, MAX_CIRCLE_NODES, stride) if first else (
        np.arange(stride, MAX_CIRCLE_NODES, 2 * stride))
    theta = (2.0 * np.pi / MAX_CIRCLE_NODES) * (index + 0.5)
    unit = np.exp(1j * theta)
    theta.flags.writeable = False
    unit.flags.writeable = False
    return theta, unit


class CircleNodes(NamedTuple):
    """The angle nodes one doubling level evaluates on a batch of circles.

    These are the `level_nodes`: all N nodes of the rule at the first level,
    the N / 2 it adds at a later one. Row i of every (m, N') array lies on
    `circles[i]`; `size` is the number of nodes the batch evaluates, m * N'.
    """

    circles: tuple[CircleSpec, ...]
    theta: np.ndarray  # (N',) angles shared by every row
    unit: np.ndarray  # (N',) e^{i theta}, the outward normals
    center: np.ndarray  # (m, 1) complex
    radius: np.ndarray  # (m, 1)

    @property
    def size(self) -> int:
        return len(self.circles) * self.theta.size

    @property
    def points(self) -> np.ndarray:
        """(m, N') points center + radius e^{i theta}."""
        z = self.radius * self.unit
        z += self.center  # in place: one (m, N') array, not two
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

    Node counts double from cfg.nodes, and n is the size of the level's
    whole rule. On the nested rule of `level_nodes` a later level evaluates
    only the n / 2 nodes it adds, and its estimate is the mean of the level
    before and the mean of those nodes. From the second level on a row
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
        Maps a `CircleNodes` batch of m circles to shape (m, N'), or to
        (k, m, N') for k stacked rows that share the boundary data (for
        instance several quantities built from the same map partials).
        At the first level N' is the N = cfg.nodes of the whole rule; at a
        later level of N nodes the batch carries only the N' = N / 2 nodes
        that level adds, and each row's mean over them is combined with the
        row's running mean of the levels before.
    circles : sequence of CircleSpec
        The family averaged together: each doubling level evaluates every
        circle still refining, in batches of at most MAX_BATCH_NODES nodes
        (a circle with more nodes than that is a batch of its own). The
        cap keeps a batch's arrays cache-sized and under numpy's 256 KiB
        size for reusing temporaries in place, so an elementwise integrand
        gives every row the bits it has in a family of one.
    cfg : QuadratureConfig
        The doubling rule of `refine`: each row of each circle has its own
        convergence test, so a row converges at the level it would reach in
        a family of one, with the value it has there.

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

    running = None  # (k, m) mean of every row over the nodes of the levels so far

    def evaluate(n, items, refining):
        nonlocal running
        first = n == cfg.nodes
        theta, unit = level_nodes(n, first)
        parts = []
        for rows in row_batches(items.size, theta.size):
            idx = items[rows]
            batch = tuple(circles[i] for i in idx)
            vals = np.asarray(
                integrand(CircleNodes(batch, theta, unit, center[idx], radius[idx])),
                dtype=float,
            )
            stacked = vals if vals.ndim == 3 else vals[None]
            if stacked.shape[1:] != (idx.size, theta.size):
                raise ValueError(
                    f"integrand returned shape {vals.shape} for {idx.size} circle(s) "
                    f"of {theta.size} nodes"
                )
            with np.errstate(over="ignore"):
                means = stacked.mean(axis=-1)
            _check_finite(stacked, means, refining[:, rows], batch, theta)
            parts.append(means)
        fresh = np.concatenate(parts, axis=1)
        if first:
            running = fresh
        else:
            running[:, items] = 0.5 * (running[:, items] + fresh)
        means = running[:, items]
        return means if vals.ndim == 3 else means[0]

    return refine(evaluate, len(circles), cfg)


def _check_finite(rows, means, refining, batch, theta) -> None:
    """Raise at the first non-finite node, among the nodes a level adds, of a
    row that is still refining, or at its circle if only the sum overflowed.

    A non-finite value makes its row's mean non-finite, so the nodes are
    scanned only then.
    """
    if np.isfinite(means).all():
        return
    refining = np.broadcast_to(refining, means.shape)
    for col, circle in enumerate(batch):
        where = f"on circle(center={circle.center}, radius={circle.radius})"
        bad = ~np.isfinite(rows[refining[:, col], col]).all(axis=0)
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise NumericalError(
                f"non-finite integrand value at theta = {theta[j]:.12g} {where}", circle=circle
            )
        if not np.isfinite(means[refining[:, col], col]).all():
            raise NumericalError(f"integrand average overflows {where}", circle=circle)


class SupResult(NamedTuple):
    """Maximum of a per-circle quantity over an admissible circle family."""

    value: float
    argmax: CircleSpec


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
) -> SupResult | tuple[SupResult, ...]:
    """Evaluate a per-circle functional on every admissible circle, take the max.

    `evaluate` maps the list of admissible circles to their values in one
    call: shape (m,), or (k, m) for k stacked rows, as `circular_average`
    returns them, so a functional built on it averages the whole family
    together. Each row is reduced on its own: this is a finite-grid
    approximation of an essential supremum over a continuum of circles;
    `value` is the largest value and `argmax` the circle that set it, where
    values within TIE_ULPS of the largest count as tied and the smallest
    radius (then center) wins. Returns one SupResult, or a tuple of one per
    stacked row. A non-finite value raises NumericalError naming the first
    such circle of the first such row.
    """
    circles = domain.admissible_circles()
    if not circles:
        raise ConfigError("no admissible circle fits inside the outer domain")
    values = np.asarray(evaluate(circles), dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != len(circles):
        raise ValueError(f"expected {len(circles)} values per row, got shape {values.shape}")
    rows = np.atleast_2d(values)
    bad = ~np.isfinite(rows)
    if bad.any():
        i = int(np.argwhere(bad)[0][1])
        raise NumericalError(f"per-circle value not finite on {circles[i]}", circle=circles[i])
    sups = tuple(SupResult(max(row), circles[_argmax_stable(circles, row)])
                 for row in rows.tolist())
    return sups if values.ndim == 2 else sups[0]
