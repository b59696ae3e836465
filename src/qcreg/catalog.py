"""Closed-form quasiconformal test maps with exact partials and Jacobians.

Every entry exposes analytic derivatives (no finite differencing), so the
catalog doubles as the ground-truth oracle set for the geometry and bound
computations. The power family f(z) = z |z|^(alpha - 1 + i gamma) covers the
pure radial stretch (gamma = 0, alpha = 1/K) and the pure rotation map
(alpha = 1); the affine family covers constant-coefficient distortion.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .plane import BeltramiField, MapModel

_ORIGIN = (0.0 + 0.0j,)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict
    map: MapModel
    exact_exponent: float | None = None

    def spec_string(self) -> str:
        args = ",".join(f"{k}={_fmt(v)}" for k, v in self.parameters.items())
        return f"{self.name}({args})"


def _fmt(v):
    if isinstance(v, complex) and v.imag == 0:
        return repr(v.real)
    return repr(v)


def _power_model(alpha: float, gamma: float) -> tuple[MapModel, complex]:
    """MapModel for f(z) = z |z|^(alpha-1+i gamma) plus its constant mu factor.

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

    def value(z):
        z = np.asarray(z, dtype=complex)
        if identity:
            return z.copy()
        out = np.zeros_like(z)
        nz = z != 0
        with np.errstate(all="ignore"):
            out[nz] = z[nz] * np.abs(z[nz]) ** s
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
        with np.errstate(all="ignore"):
            m = np.abs(z) ** s
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
    model = MapModel(
        value=value,
        partials=partials,
        jacobian=jacobian,
        beltrami=field,
        singular_points=() if identity else _ORIGIN,
    )
    return model, c


def power_spiral(alpha: float, gamma: float = 0.0) -> CatalogEntry:
    """f(z) = z |z|^(alpha - 1 + i gamma); stretch and rotation combined."""
    alpha, gamma = float(alpha), float(gamma)
    if not (alpha > 0 and np.isfinite(alpha) and np.isfinite(gamma)):
        raise ValueError(f"need alpha > 0 and finite gamma, got {alpha}, {gamma}")
    model, _ = _power_model(alpha, gamma)
    return CatalogEntry(
        name="power_spiral",
        parameters={"alpha": alpha, "gamma": gamma},
        map=model,
        exact_exponent=min(1.0, alpha),
    )


def radial_stretch(K: float) -> CatalogEntry:
    """f(z) = z |z|^(1/K - 1), the classical worst case: mu = -k z/conj(z)."""
    K = float(K)
    if not (K >= 1 and np.isfinite(K)):
        raise ValueError(f"need K >= 1, got {K}")
    model, _ = _power_model(1.0 / K, 0.0)
    return CatalogEntry(
        name="radial_stretch",
        parameters={"K": K},
        map=model,
        exact_exponent=1.0 / K,
    )


def spiral_map(gamma: float) -> CatalogEntry:
    """f(z) = z |z|^(i gamma): modulus-preserving rotation, bilipschitz."""
    gamma = float(gamma)
    if not np.isfinite(gamma):
        raise ValueError("gamma must be finite")
    model, _ = _power_model(1.0, gamma)
    return CatalogEntry(
        name="spiral",
        parameters={"gamma": gamma},
        map=model,
        exact_exponent=1.0,
    )


def affine_map(a: complex, b: complex) -> CatalogEntry:
    """f(z) = a z + b conj(z) with |b| < |a|; constant mu = b/a.

    The Jacobian |a|^2 - |b|^2 must be a finite positive float.
    """
    a, b = complex(a), complex(b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"need finite a and b, got a={a}, b={b}")
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
    params: dict = {"a": a, "b": b}
    return CatalogEntry(name="affine", parameters=params, map=model, exact_exponent=1.0)


# config-facing registry: name -> (constructor, ordered parameter names)
_REGISTRY = {
    "radial_stretch": (radial_stretch, ("K",)),
    "spiral": (spiral_map, ("gamma",)),
    "spiral_map": (spiral_map, ("gamma",)),
    "affine": (affine_map, ("a", "b")),
    "affine_map": (affine_map, ("a", "b")),
    "power_spiral": (power_spiral, ("alpha", "gamma")),
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$")


def catalog_names() -> list[str]:
    return ["radial_stretch", "spiral", "affine", "power_spiral"]


def list_catalog() -> list[dict]:
    """One row per family: name, parameters, short description."""
    return [
        {"name": "radial_stretch", "parameters": "K", "map": "z |z|^(1/K - 1)"},
        {"name": "spiral", "parameters": "gamma", "map": "z |z|^(i gamma)"},
        {"name": "affine", "parameters": "a, b", "map": "a z + b conj(z)"},
        {"name": "power_spiral", "parameters": "alpha, gamma", "map": "z |z|^(alpha - 1 + i gamma)"},
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
    if name not in _REGISTRY:
        raise ConfigError(f"unknown catalog map {name!r}; available: {catalog_names()}")
    ctor, param_names = _REGISTRY[name]
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
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {name}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad parameters for {name}: {exc}") from exc
