"""Closed-form quasiconformal test maps with exact partials and Jacobians.

Every entry exposes analytic derivatives (no finite differencing), so the
catalog doubles as the ground-truth oracle set for the geometry and bound
computations. The power family f(z) = z |z|^(alpha - 1 + i gamma) covers the
pure radial stretch (gamma = 0, alpha = 1/K) and the pure rotation map
(alpha = 1); the affine family covers constant-coefficient distortion.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plane import BeltramiField, MapModel, _finite_complex, _finite_real, stretch_factor

_ORIGIN = (0.0 + 0.0j,)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict
    map: MapModel
    exact_exponent: float | None = None


def _power_model(alpha: float, gamma: float) -> MapModel:
    """MapModel for f(z) = z |z|^(alpha-1+i gamma).

    mu(z) = c * z / conj(z) with c = (alpha-1+i gamma) / (alpha+1+i gamma);
    the Jacobian is alpha * |z|^(2 alpha - 2). The origin is a fixed point
    of the map and a singular point of mu and the partials unless the map
    is the identity. Near it (and for extreme parameters) the callables
    return non-finite values without a warning; the quadrature and field
    checks turn those into errors that name the circle or point.
    """
    s = (alpha - 1.0) + 1j * gamma
    c = s / (s + 2.0)
    identity = c == 0
    # (copy of the last node array, |z|^s on it): `value` and `partials` are
    # called on the same nodes, so the power is taken once. The entry is
    # keyed on content and swapped whole, so a caller that changes its array
    # in place, or a concurrent caller, never reads a stale power.
    last = None

    def power(z):
        # |z|^s = rho e^{i phi} with L = log|z|, rho = e^{Re s L}, phi = Im s L:
        # one real logarithm per node, where `np.abs(z) ** s` goes through the
        # scalar complex power. Its error is that of the product Im s L, as it
        # is in the complex power. At z = 0 the power is nan.
        nonlocal last
        entry = last
        if entry is not None and np.array_equal(entry[0], z):
            return entry[1]
        m = np.empty(z.shape, dtype=complex)
        with np.errstate(all="ignore"):
            log_r = np.log(np.abs(z))
            rho = np.exp(s.real * log_r)
            phi = s.imag * log_r
            np.multiply(rho, np.cos(phi), out=m.real)
            np.multiply(rho, np.sin(phi), out=m.imag)
        last = (z.copy(), m)
        return m

    def value(z):
        z = np.asarray(z, dtype=complex)
        if identity:
            return z.copy()
        m = power(z)
        # Keep the operand order z * m. Both m * z and z times a fresh
        # temporary (whose buffer numpy reuses in place, operands swapped,
        # from 256 KiB on) round differently.
        with np.errstate(all="ignore"):
            out = np.asarray(z * m)
        out[z == 0] = 0
        return out

    def ratio(z):
        # z / conj(z) = e^{2 i arg z}; nan exactly at the origin
        with np.errstate(all="ignore"):
            return z / np.conj(z)

    def mu(z):
        z = np.asarray(z, dtype=complex)
        if identity:
            return np.zeros_like(z)
        with np.errstate(all="ignore"):
            return c * ratio(z)

    def partials(z):
        z = np.asarray(z, dtype=complex)
        if identity:
            one = np.ones_like(z)
            return one, 1j * one
        m = power(z)
        with np.errstate(all="ignore"):
            f_z = (1.0 + s / 2.0) * m
            f_zbar = (s / 2.0) * m * ratio(z)
            return f_z + f_zbar, 1j * (f_z - f_zbar)

    def jacobian(z):
        z = np.asarray(z, dtype=complex)
        if alpha == 1.0:
            return np.ones(z.shape)
        with np.errstate(all="ignore"):
            return alpha * np.abs(z) ** (2.0 * alpha - 2.0)

    field = BeltramiField(
        mu=mu,
        k_max=abs(c),
        singular_points=() if identity else _ORIGIN,
    )
    return MapModel(
        value=value,
        partials=partials,
        jacobian=jacobian,
        beltrami=field,
        singular_points=() if identity else _ORIGIN,
    )


def power_spiral(alpha: float, gamma: float = 0.0) -> CatalogEntry:
    """f(z) = z |z|^(alpha - 1 + i gamma); stretch and rotation combined."""
    alpha, gamma = _finite_real("alpha", alpha, positive=True), _finite_real("gamma", gamma)
    return CatalogEntry(
        name="power_spiral",
        parameters={"alpha": alpha, "gamma": gamma},
        map=_power_model(alpha, gamma),
        exact_exponent=min(1.0, alpha),
    )


def radial_stretch(K: float) -> CatalogEntry:
    """f(z) = z |z|^(1/K - 1), the classical worst case: mu = -k z/conj(z)."""
    stretch_factor(K)  # raises unless K >= 1 is a finite real number
    K = float(K)
    return CatalogEntry(
        name="radial_stretch",
        parameters={"K": K},
        map=_power_model(1.0 / K, 0.0),
        exact_exponent=1.0 / K,
    )


def spiral_map(gamma: float) -> CatalogEntry:
    """f(z) = z |z|^(i gamma): modulus-preserving rotation, bilipschitz."""
    gamma = _finite_real("gamma", gamma)
    return CatalogEntry(
        name="spiral",
        parameters={"gamma": gamma},
        map=_power_model(1.0, gamma),
        exact_exponent=1.0,
    )


def affine_map(a: complex, b: complex) -> CatalogEntry:
    """f(z) = a z + b conj(z) with |b| < |a|; constant mu = b/a.

    The Jacobian |a|^2 - |b|^2 must be a finite positive float.
    """
    a, b = _finite_complex("a", a), _finite_complex("b", b)
    try:
        if abs(b) >= abs(a):
            raise ValueError(f"need |b| < |a| for orientation, got |a|={abs(a)}, |b|={abs(b)}")
        jac_c = abs(a) ** 2 - abs(b) ** 2
    except OverflowError:
        raise ValueError(f"the Jacobian |a|^2 - |b|^2 overflows for a={a}, b={b}") from None
    if not (math.isfinite(jac_c) and jac_c > 0):
        raise ValueError(f"the Jacobian |a|^2 - |b|^2 = {jac_c} is not a positive float")
    mu_c = b / a

    def value(z):
        z = np.asarray(z, dtype=complex)
        return a * z + b * np.conj(z)

    def partials(z):
        z = np.asarray(z, dtype=complex)
        one = np.ones_like(z)
        return (a + b) * one, 1j * (a - b) * one

    def jacobian(z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, jac_c)

    field = BeltramiField(mu=lambda z: np.full(np.asarray(z).shape, mu_c), k_max=abs(mu_c))
    model = MapModel(value=value, partials=partials, jacobian=jacobian, beltrami=field)
    return CatalogEntry(name="affine", parameters={"a": a, "b": b}, map=model, exact_exponent=1.0)


# the catalog: spec name -> (constructor, ordered parameter names, formula of f)
_FAMILIES = {
    "radial_stretch": (radial_stretch, ("K",), "z |z|^(1/K - 1)"),
    "spiral": (spiral_map, ("gamma",), "z |z|^(i gamma)"),
    "affine": (affine_map, ("a", "b"), "a z + b conj(z)"),
    "power_spiral": (power_spiral, ("alpha", "gamma"), "z |z|^(alpha - 1 + i gamma)"),
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")


def catalog_names() -> list[str]:
    return list(_FAMILIES)


def list_catalog() -> list[dict]:
    """One row per family: name, parameters, short description."""
    return [
        {"name": name, "parameters": ", ".join(params), "map": formula}
        for name, (_, params, formula) in _FAMILIES.items()
    ]


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    try:
        return complex(raw.replace(" ", ""))
    except ValueError:
        raise ConfigError(f"cannot parse parameter value {raw!r}")


def entry_from_spec(spec: str) -> CatalogEntry:
    """Build a catalog entry from a string like ``radial_stretch(K=2)``.

    Raises ConfigError on unknown names (listing the catalog) or malformed
    parameters.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ConfigError(
            f"bad map spec {spec!r}; expected name(param=value,...) "
            f"with name in {catalog_names()}"
        )
    name, argstr = m.group(1), m.group(2).strip()
    if name not in _FAMILIES:
        raise ConfigError(f"unknown catalog map {name!r}; available: {catalog_names()}")
    ctor, param_names, _ = _FAMILIES[name]
    kwargs = {}
    if argstr:
        for part in argstr.split(","):
            if "=" not in part:
                raise ConfigError(f"parameters must be keyword form, got {part!r} in {spec!r}")
            key, raw = part.split("=", 1)
            key = key.strip()
            if key not in param_names:
                raise ConfigError(
                    f"unknown parameter {key!r} for {name}; expected {list(param_names)}"
                )
            if key in kwargs:
                raise ConfigError(f"parameter {key!r} given twice in {spec!r}")
            kwargs[key] = _parse_value(raw)
    try:
        return ctor(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for {name}: {exc}") from exc
