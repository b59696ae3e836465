"""Complex-plane primitives: circles, domains, coefficient fields, map models.

Evaluators throughout the package are vectorized: they accept a numpy array
of complex points and return an array of the same shape. All containers are
immutable records that cost next to nothing to define at import:
NamedTuples, whose validating kinds check their fields in `__new__`, and
`__slots__` classes for a record that keeps a cache (`DomainSpec`) or a
grid array it checks once (`SampledField`). `MapModel` stays a frozen
dataclass, so `dataclasses.replace` can swap its callables. Every result
depends only on the arguments, so everything here is safe to evaluate
concurrently. A map callable may keep a private cache (the catalog's power
maps share |z|^s between `value` and `partials`), provided it is
thread-safe and never returns a stale value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, FieldValidationError, SingularPointError

# z-array -> complex array of the same shape
ComplexFunc = Callable[[np.ndarray], np.ndarray]

#: below this |f_z| a point is treated as singular when forming mu = f_zbar/f_z
FZ_SINGULAR_TOL = 1e-14

#: validation slack for |mu| <= k_max and the hard ceiling |mu| < 1
KMAX_SLACK = 1e-12

#: slack, in grid cells, allowed to a disk that touches a sampled grid's hull
HULL_SLACK = 1e-9


class _Validated:
    """Mixin for a NamedTuple subclass whose `__new__` checks and coerces the
    fields: `_make`, and with it `_replace`, builds through that `__new__`."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _Frozen:
    """Immutable `__slots__` record: `__init__` sets the `_fields` once with
    `_set`, and they make the repr, equality and hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class _CircleFields(NamedTuple):
    center: complex
    radius: float


class CircleSpec(_Validated, _CircleFields):
    """Circle with the given center and radius > 0."""

    __slots__ = ()

    def __new__(cls, center: complex, radius: float):
        c, r = complex(center), float(radius)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("circle center must be finite")
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"circle radius must be positive and finite, got {r}")
        return super().__new__(cls, c, r)


#: the disk a field is certified on, and the size of its validation sample
VALIDATION_DISK = CircleSpec(0j, 1.0)
VALIDATION_SAMPLES = 4096


class DomainSpec(_Frozen):
    """Search grids of circle centers and radii inside an outer disk/annulus.

    A pair (center, radius) is admissible when the circle fits inside the
    outer region with the requested margin. `admissible_circles` performs
    the filtering; the grids themselves may contain non-fitting pairs.
    """

    _fields = ("centers", "radii", "outer_center", "outer_radius", "inner_radius", "margin")
    __slots__ = _fields + ("_admissible",)

    def __init__(
        self,
        centers: Sequence[complex],
        radii: Sequence[float],
        outer_center: complex = 0j,
        outer_radius: float = 1.0,
        inner_radius: float = 0.0,
        margin: float = 0.0,
    ):
        centers = tuple(complex(c) for c in centers)
        radii = tuple(float(r) for r in radii)
        if not centers or not radii:
            raise ValueError("center grid and radius grid must be nonempty")
        if any(r <= 0 or not math.isfinite(r) for r in radii):
            raise ValueError("all grid radii must be positive and finite")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("radius grid must be strictly increasing")
        if not (0 <= inner_radius < outer_radius):
            raise ValueError("need 0 <= inner_radius < outer_radius")
        if not margin >= 0:
            raise ValueError(f"need margin >= 0, got {margin}")
        self._set(
            centers=centers,
            radii=radii,
            outer_center=complex(outer_center),
            outer_radius=outer_radius,
            inner_radius=inner_radius,
            margin=margin,
            _admissible=None,
        )

    def fits(self, center: complex, radius: float) -> bool:
        d = abs(complex(center) - self.outer_center)
        if d + radius > self.outer_radius - self.margin + 1e-12:
            return False
        if self.inner_radius > 0 and d - radius < self.inner_radius + self.margin - 1e-12:
            return False
        return True

    def admissible_circles(self) -> list[CircleSpec]:
        """The fitting circles, centers outer and radii inner (built once)."""
        if self._admissible is None:
            self._set(_admissible=tuple(
                CircleSpec(c, r) for c in self.centers for r in self.radii if self.fits(c, r)
            ))
        return list(self._admissible)

    @classmethod
    def origin_disk(
        cls,
        n_radii: int = 16,
        r_min: float = 0.05,
        r_max: float = 1.0,
        centers: Sequence[complex] = (0j,),
        outer_radius: float = 1.0,
    ) -> "DomainSpec":
        """Default search domain: log-spaced radii around the given centers.

        The default center grid contains only the origin; the per-circle
        distortion averages of the cataloged worst-case fields are constant
        on origin-centered circles, which keeps the reported suprema exact.
        """
        radii = tuple(np.geomspace(r_min, r_max, n_radii))
        return cls(centers=tuple(centers), radii=radii, outer_radius=outer_radius)

    def describe(self) -> dict:
        return {
            "centers": [[c.real, c.imag] for c in self.centers],
            "radii": list(self.radii),
            "outer_center": [self.outer_center.real, self.outer_center.imag],
            "outer_radius": self.outer_radius,
            "inner_radius": self.inner_radius,
            "margin": self.margin,
        }


class _BeltramiFields(NamedTuple):
    mu: ComplexFunc
    k_max: float
    provenance: str
    singular_points: tuple[complex, ...]
    verified_k_max: float | None


class BeltramiField(_Validated, _BeltramiFields):
    """Evaluable complex-distortion coefficient with a certified bound.

    `mu` must satisfy |mu(z)| <= k_max < 1 wherever it is evaluated;
    `validate_field` certifies the bound on a low-discrepancy sample and
    wraps the evaluator so every later evaluation keeps checking it.
    """

    __slots__ = ()

    def __new__(
        cls,
        mu: ComplexFunc,
        k_max: float,
        provenance: str = "closed-form",
        singular_points: tuple[complex, ...] = (),
        verified_k_max: float | None = None,
    ):
        if not (0.0 <= k_max < 1.0):
            raise ValueError(f"k_max must lie in [0, 1), got {k_max}")
        if provenance not in ("closed-form", "sampled-grid"):
            raise ValueError(f"unknown provenance {provenance!r}")
        return super().__new__(cls, mu, k_max, provenance, singular_points, verified_k_max)

    def __call__(self, z) -> np.ndarray:
        return np.asarray(self.mu(np.asarray(z, dtype=complex)), dtype=complex)

    @property
    def distortion_ratio(self) -> float:
        """K = (1 + k_max) / (1 - k_max)."""
        return (1.0 + self.k_max) / (1.0 - self.k_max)


@dataclass(frozen=True)
class MapModel:
    """Evaluable planar map with first partials and Jacobian.

    `partials(z)` returns the pair (f_x, f_y); `jacobian(z)` must equal
    Im(conj(f_x) * f_y) at evaluated points and stay positive away from the
    declared singular points. The callables may share a cache between them
    if it is thread-safe and keyed on the content of `z`, so that a result
    never depends on earlier calls.
    """

    value: ComplexFunc
    partials: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    jacobian: Callable[[np.ndarray], np.ndarray]
    beltrami: BeltramiField | None = None
    singular_points: tuple[complex, ...] = ()


def wirtinger_from_cartesian(f_x, f_y):
    """Convert x/y partials to the (f_z, f_zbar) pair.

    f_z = (f_x - i f_y) / 2 and f_zbar = (f_x + i f_y) / 2; works on
    scalars and arrays alike.
    """
    f_x = np.asarray(f_x, dtype=complex)
    f_y = np.asarray(f_y, dtype=complex)
    return (f_x - 1j * f_y) / 2.0, (f_x + 1j * f_y) / 2.0


def beltrami_of(map_model: MapModel, z) -> np.ndarray:
    """Complex distortion mu = f_zbar / f_z of a map at z (`beltrami_from_partials`)."""
    z = np.asarray(z, dtype=complex)
    return beltrami_from_partials(*map_model.partials(z), z)


def beltrami_from_partials(f_x, f_y, z) -> np.ndarray:
    """mu = f_zbar / f_z from the partials (f_x, f_y) of a map at the points z.

    Raises SingularPointError when |f_z| falls below FZ_SINGULAR_TOL at any
    of the points.
    """
    f_z, f_zbar = wirtinger_from_cartesian(f_x, f_y)
    bad = np.abs(f_z) < FZ_SINGULAR_TOL
    if np.any(bad):
        where = np.asarray(z)[bad].ravel()[0]
        raise SingularPointError(f"f_z vanishes near z = {where}")
    return f_zbar / f_z


def _radical_inverse(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse: reflect the base-`base` digits of each index."""
    out = np.zeros(indices.shape)
    scale = 1.0 / base
    while np.any(indices):
        indices, digit = np.divmod(indices, base)
        out += digit * scale
        scale /= base
    return out


def disk_samples(n: int, center: complex = 0j, radius: float = 1.0) -> np.ndarray:
    """Deterministic low-discrepancy points in a disk (area-uniform Halton).

    The unit-square sequence is the unscrambled 2-D Halton sequence in
    bases 2 and 3 at indices 1..n (index 0 is (0, 0), which would land on
    the center); u sets the area-uniform radius sqrt(u), v the angle.
    """
    indices = np.arange(1, n + 1)
    r = radius * np.sqrt(_radical_inverse(indices, 2))
    theta = 2.0 * np.pi * _radical_inverse(indices, 3)
    return center + r * np.exp(1j * theta)


def validate_field(beltrami: BeltramiField, k_max: float | None = None) -> BeltramiField:
    """Certify |mu| <= k_max on a deterministic sample and wrap the evaluator.

    Parameters
    ----------
    beltrami : BeltramiField
        Field to certify on VALIDATION_SAMPLES low-discrepancy points of
        VALIDATION_DISK. Declared singular points are excluded from the
        sample set.
    k_max : float, optional
        Bound to certify against; defaults to the field's declared bound.

    Returns
    -------
    BeltramiField
        Same field with `verified_k_max` set to the sampled maximum of |mu|
        and an evaluator that re-checks the bound at every later call (so
        quadrature nodes encountered downstream stay certified).

    Raises
    ------
    FieldValidationError
        If any sample has |mu| >= 1 - 1e-12 or |mu| > k_max + 1e-12, naming
        the first such point; later evaluations raise the same way.
    """
    if k_max is None:
        k_max = beltrami.k_max
    if not (0.0 <= k_max < 1.0):
        raise FieldValidationError(f"k_max must lie in [0, 1), got {k_max}")
    pts = _validation_points(beltrami.singular_points)
    sampled = beltrami(pts)
    _check_mu_bound(sampled, k_max, "validation sample", pts)
    observed = float(np.abs(sampled).max()) if pts.size else 0.0

    inner = beltrami.mu

    def checked(z):
        z = np.asarray(z, dtype=complex)
        out = np.asarray(inner(z), dtype=complex)
        _check_mu_bound(out, k_max, "evaluation", z)
        return out

    return beltrami._replace(mu=checked, k_max=float(k_max), verified_k_max=observed)


def _check_mu_bound(values: np.ndarray, k_max: float, context: str, points) -> None:
    """Raise at the first point whose mu is non-finite, reaches 1 or exceeds k_max."""
    mags = np.abs(np.asarray(values))
    worst = mags.max(initial=0.0)  # NaN when any value is
    if worst <= k_max + KMAX_SLACK and worst < 1.0 - KMAX_SLACK:
        return
    for bad, problem in (
        (~np.isfinite(mags), "is not finite"),
        (mags >= 1.0 - KMAX_SLACK, "reaches 1; field is degenerate"),
        (mags > k_max + KMAX_SLACK, f"exceeds declared bound k_max = {k_max}"),
    ):
        if bad.any():
            j = np.unravel_index(np.argmax(bad), bad.shape)
            z = np.broadcast_to(points, bad.shape)[j]
            raise FieldValidationError(f"|mu| = {mags[j]} {problem} in {context} at z = {z}")


@functools.cache
def _validation_sample() -> np.ndarray:
    """The VALIDATION_SAMPLES points of VALIDATION_DISK (read-only, built once)."""
    pts = disk_samples(VALIDATION_SAMPLES, VALIDATION_DISK.center, VALIDATION_DISK.radius)
    pts.flags.writeable = False
    return pts


def _validation_points(singular_points) -> np.ndarray:
    """The validation sample of VALIDATION_DISK without the declared singular points."""
    pts = _validation_sample()
    for s in singular_points:
        pts = pts[np.abs(pts - s) > 1e-9]
    return pts


def derive_beltrami(map_model: MapModel) -> BeltramiField:
    """Build a certified BeltramiField from a map's own partials.

    The bound is taken as the sampled maximum of |f_zbar / f_z| over the
    `validate_field` sample plus a tiny slack; useful when a MapModel
    arrives without an attached field.
    """
    pts = _validation_points(map_model.singular_points)
    observed = float(np.abs(beltrami_of(map_model, pts)).max())
    if observed >= 1.0 - KMAX_SLACK:
        raise FieldValidationError(
            f"sampled |mu| = {observed} reaches 1; map is not quasiconformal"
        )
    k = min(observed * (1 + 1e-9) + 1e-15, 1.0 - 2 * KMAX_SLACK)
    raw = BeltramiField(
        mu=lambda z: beltrami_of(map_model, z),
        k_max=k,
        singular_points=map_model.singular_points,
    )
    return validate_field(raw, k)


class SampledField(_Frozen):
    """Grid-sampled complex coefficient with nearest / bilinear interpolation.

    `values[iy, ix]` sits at origin + (ix + iy * 1j) * spacing. `evaluate`
    raises ConfigError at a query more than HULL_SLACK cells outside the
    hull of the nodes and clamps one within that slack, so a quadrature node
    that touches the hull up to round-off reads the edge value;
    `require_covers` rejects a whole disk that leaves the hull.
    """

    __slots__ = _fields = ("origin", "spacing", "values", "k_max", "interpolation")

    def __init__(
        self,
        origin: complex,
        spacing: float,
        values: np.ndarray,
        k_max: float,
        interpolation: str = "bilinear",
    ):
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError("values must be a nonempty 2-D array")
        if not (spacing > 0 and np.isfinite(spacing)):
            raise ValueError("spacing must be positive and finite")
        if interpolation not in ("nearest", "bilinear"):
            raise ValueError(f"unknown interpolation {interpolation!r}")
        mags = np.abs(vals)
        if not np.isfinite(mags).all():
            iy, ix = np.argwhere(~np.isfinite(mags))[0]
            raise FieldValidationError(
                f"grid value at [{iy}, {ix}] is not finite: {vals[iy, ix]}"
            )
        if mags.max() > k_max + KMAX_SLACK:
            iy, ix = np.argwhere(mags > k_max + KMAX_SLACK)[0]
            raise FieldValidationError(
                f"grid value at [{iy}, {ix}] has |mu| = {mags[iy, ix]} "
                f"> k_max = {k_max}"
            )
        self._set(origin=complex(origin), spacing=spacing, values=vals, k_max=k_max,
                  interpolation=interpolation)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape  # (ny, nx)

    def require_covers(self, disk: CircleSpec, what: str) -> None:
        """Raise ConfigError when the disk leaves the hull of the grid nodes.

        Outside the hull `evaluate` would only repeat the edge values, so
        every number computed there would describe the clamp, not the data.
        """
        x0, x1, y0, y1 = self._hull()
        c, r, slack = disk.center, disk.radius, HULL_SLACK * self.spacing
        if (c.real - r < x0 - slack or c.real + r > x1 + slack
                or c.imag - r < y0 - slack or c.imag + r > y1 + slack):
            raise ConfigError(
                f"{what} {disk} leaves the grid hull [{x0!r}, {x1!r}] x [{y0!r}, {y1!r}]"
            )

    def _hull(self) -> tuple[float, float, float, float]:
        ny, nx = self.values.shape
        x0, y0 = self.origin.real, self.origin.imag
        return x0, x0 + (nx - 1) * self.spacing, y0, y0 + (ny - 1) * self.spacing

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        ny, nx = self.values.shape
        gx = (z.real - self.origin.real) / self.spacing
        gy = (z.imag - self.origin.imag) / self.spacing
        low, x_high, y_high = -HULL_SLACK, nx - 1 + HULL_SLACK, ny - 1 + HULL_SLACK
        if z.size and (gx.min() < low or gx.max() > x_high
                       or gy.min() < low or gy.max() > y_high):
            outside = (gx < low) | (gx > x_high) | (gy < low) | (gy > y_high)
            x0, x1, y0, y1 = self._hull()
            raise ConfigError(
                f"sampled field evaluated at {complex(z[outside][0])}, outside the grid "
                f"hull [{x0!r}, {x1!r}] x [{y0!r}, {y1!r}]"
            )
        gx = np.clip(gx, 0.0, nx - 1.0)
        gy = np.clip(gy, 0.0, ny - 1.0)
        if self.interpolation == "nearest":
            return self.values[np.rint(gy).astype(int), np.rint(gx).astype(int)]
        ix = np.clip(np.floor(gx).astype(int), 0, max(nx - 2, 0))
        iy = np.clip(np.floor(gy).astype(int), 0, max(ny - 2, 0))
        tx, ty = gx - ix, gy - iy
        ix1 = np.minimum(ix + 1, nx - 1)
        iy1 = np.minimum(iy + 1, ny - 1)
        return (
            self.values[iy, ix] * (1 - tx) * (1 - ty)
            + self.values[iy, ix1] * tx * (1 - ty)
            + self.values[iy1, ix] * (1 - tx) * ty
            + self.values[iy1, ix1] * tx * ty
        )

    def as_beltrami(self) -> BeltramiField:
        return BeltramiField(
            mu=self.evaluate, k_max=self.k_max, provenance="sampled-grid"
        )
