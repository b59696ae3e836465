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
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .plane import CircleSpec, DomainSpec


@dataclass(frozen=True)
class QuadratureConfig:
    """Angular node count (power of two, >= 16), doubling budget, tolerance."""

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


def circular_average(
    integrand: Callable[[np.ndarray], np.ndarray],
    circle: CircleSpec,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float | tuple[float, ...]:
    """Average of a real integrand over a circle w.r.t. normalized arclength.

    Parameters
    ----------
    integrand : callable
        Vectorized map from an angle array of shape (N,) to real values;
        the circle is already baked into the closure. It may return one
        row, shape (N,), or k stacked rows, shape (k, N), that share the
        angle nodes (for instance several quantities built from the same
        boundary data).
    circle : CircleSpec
        Used only for error reporting; the average is taken in the angle
        variable, which equals the normalized-arclength average.
    cfg : QuadratureConfig
        Node count is doubled until two successive estimates agree to
        rel_tol (relative, with an absolute floor of rel_tol for values
        below 1) or the doubling budget is exhausted. Each stacked row has
        its own test and keeps the estimate of the level where it
        converged, so a row averages to exactly what a call with that row
        alone returns; the integrand is called until every row has
        converged or the budget is spent.

    Returns
    -------
    float for a one-row integrand, else a tuple of k floats.

    Raises
    ------
    NumericalError
        If a row that has not converged yet takes a non-finite value; the
        message names the first offending node.
    """
    n = cfg.nodes
    prev = refining = None
    for _ in range(cfg.max_doublings + 1):
        theta = angle_nodes(n)
        vals = np.asarray(integrand(theta), dtype=float)
        rows = np.atleast_2d(vals)
        cur = rows.mean(axis=-1).tolist()
        if refining is None:
            est, refining = list(cur), list(range(len(cur)))
        # a non-finite value makes its row's mean non-finite, so the nodes are
        # scanned only then (or when a finite sum overflowed)
        if not all(math.isfinite(cur[i]) for i in refining):
            bad = ~np.isfinite(rows[refining]).all(axis=0)
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise NumericalError(
                    f"non-finite integrand value at theta = {theta[j]:.12g} "
                    f"on circle(center={circle.center}, radius={circle.radius})"
                )
        if prev is not None:
            for i in refining:
                est[i] = cur[i]
            refining = [
                i for i in refining
                if not abs(cur[i] - prev[i]) <= cfg.rel_tol * max(1.0, abs(cur[i]))
            ]
            if not refining:
                break
        prev = cur
        n *= 2
    return est[0] if vals.ndim < 2 else tuple(est)


@dataclass(frozen=True)
class SupResult:
    """Maximum of a per-circle quantity over an admissible circle family."""

    value: float
    argmax: CircleSpec
    per_circle: tuple[tuple[CircleSpec, float], ...]


def _argmax_stable(circles, values):
    # deterministic under grid permutation: break exact ties by geometry
    best = max(values)
    tied = [i for i, v in enumerate(values) if v == best]
    key = lambda i: (circles[i].radius, circles[i].center.real, circles[i].center.imag)
    return min(tied, key=key)


def sup_over_circles(
    per_circle: Callable[[CircleSpec], float],
    domain: DomainSpec,
) -> SupResult:
    """Evaluate a per-circle functional on every admissible circle, take the max.

    This is a finite-grid approximation of an essential supremum over a
    continuum of circles; the argmax is the circle that set it.
    """
    circles = domain.admissible_circles()
    if not circles:
        raise ConfigError("no admissible circle fits inside the outer domain")
    values = [float(per_circle(c)) for c in circles]
    if not all(np.isfinite(values)):
        i = next(i for i, v in enumerate(values) if not np.isfinite(v))
        raise NumericalError(f"per-circle value not finite on {circles[i]}")
    i = _argmax_stable(circles, values)
    return SupResult(
        value=values[i],
        argmax=circles[i],
        per_circle=tuple(zip(circles, values)),
    )
