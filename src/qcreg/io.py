"""File formats for sampled coefficient fields.

Sampled complex-distortion grid: CSV with header ``x,y,re,im`` in row-major
order (x fastest), plus a sidecar JSON descriptor next to it (``<file>.json``)
holding ``{origin: [x0, y0], spacing: h, nx, ny, k_max}``.

Sampled matrix grid mirrors the same layout with header ``x,y,a11,a12,a22``
and a descriptor ``{origin, spacing, nx, ny, K}``. It loads as the mu grid it
encodes under the det-1 bridge of `qcreg.elliptic`, so a node that is not
positive definite with det 1 (within 1e-9), or is off the declared K, raises
``FieldValidationError`` naming the node ``[iy, ix]``.

Numbers are written as ``%.18e`` (19 significant digits, so a float64 reads
back exactly), byte for byte what ``np.savetxt`` writes. The writers format
each grid coordinate once and each grid row with one ``%`` call. The loaders
reject, with ``ConfigError``, a descriptor value of the wrong type or range
(naming the file and the key), an unparsable or non-finite entry (naming the
file and its 1-based line) and coordinates that disagree with the descriptor.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .config import _integer, _number, _point
from .elliptic import DET_TOL, MatrixField, beltrami_from_entries
from .errors import ConfigError, FieldValidationError
from .plane import SampledField

MU_HEADER = "x,y,re,im"
MATRIX_HEADER = "x,y,a11,a12,a22"


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".json")


def _load_descriptor(csv_path, bound_key: str, bound_range: tuple[float, float]) -> dict:
    """The sidecar's values, checked: nx and ny integers >= 1, spacing
    positive and finite, origin a finite [x, y] pair (as a complex) and the
    field bound `bound_key` a finite number in [low, high)."""
    path = sidecar_path(csv_path)
    if not path.exists():
        raise ConfigError(f"missing sidecar descriptor {path}")
    try:
        desc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad JSON in {path} at line {exc.lineno}: {exc.msg}")
    if not isinstance(desc, dict):
        raise ConfigError(f"descriptor {path} must be a JSON object")
    missing = [k for k in ("origin", "spacing", "nx", "ny", bound_key) if k not in desc]
    if missing:
        raise ConfigError(f"descriptor {path} missing keys {missing}")
    where = f"descriptor {path}:"
    low, high = bound_range
    bound = _number(desc[bound_key], f"{where} {bound_key}")
    if not low <= bound < high:
        raise ConfigError(f"{where} {bound_key} must lie in [{low}, {high}), got {bound!r}")
    return {
        "nx": _integer(desc["nx"], f"{where} nx", 1),
        "ny": _integer(desc["ny"], f"{where} ny", 1),
        "spacing": _number(desc["spacing"], f"{where} spacing", positive=True),
        "origin": _point(desc["origin"], f"{where} origin"),
        bound_key: bound,
    }


def _load_grid_csv(csv_path, header: str) -> np.ndarray:
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ConfigError(f"no such file: {csv_path}")
    with open(csv_path) as fh:
        first = fh.readline().strip()
    if first.replace(" ", "") != header:
        raise ConfigError(f"{csv_path} must start with header {header!r}, got {first!r}")
    try:
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from None
    names = header.split(",")
    if data.shape[1] != len(names):
        raise ConfigError(f"{csv_path}: expected {len(names)} columns")
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ConfigError(
            f"{csv_path} line {_data_line(csv_path, row)}: "
            f"{names[col]} = {data[row, col]} is not finite"
        )
    return data


def _data_line(csv_path, row: int) -> int:
    """1-based file line of data row `row`, skipping what np.loadtxt skips
    (the header, blank lines and ``#`` comment lines)."""
    with open(csv_path) as fh:
        lines = (
            n for n, text in enumerate(fh, 1)
            if n > 1 and text.split("#", 1)[0].strip()
        )
        return next(itertools.islice(lines, row, None))


def _check_grid_coords(data, desc, csv_path):
    nx, ny, h = desc["nx"], desc["ny"], desc["spacing"]
    x0, y0 = desc["origin"].real, desc["origin"].imag
    if data.shape[0] != nx * ny:
        raise ConfigError(
            f"{csv_path}: {data.shape[0]} rows but descriptor says nx*ny = {nx * ny}"
        )
    # compared per axis, so no full-size expected coordinate arrays are built
    atol = 1e-9 * max(1.0, h)
    if not (
        np.allclose(data[:, 0].reshape(ny, nx), x0 + np.arange(nx) * h, atol=atol)
        and np.allclose(
            data[:, 1].reshape(ny, nx), (y0 + np.arange(ny) * h)[:, None], atol=atol
        )
    ):
        raise ConfigError(f"{csv_path}: grid coordinates disagree with the descriptor")
    return nx, ny, h, complex(x0, y0)


def _write_grid_csv(csv_path, header: str, origin: complex, spacing, columns) -> None:
    """Write float value grids of shape (ny, nx) as CSV rows ``x, y, *values``.

    The bytes are those of ``np.savetxt(fmt="%.18e", delimiter=",")`` on the
    stacked columns, but each of the nx + ny coordinates is formatted once
    and each grid row of nx lines is one ``%`` call over its values, so
    memory stays bounded by one grid row.
    """
    ny, nx = columns[0].shape
    if any(c.shape != (ny, nx) for c in columns):
        raise ValueError("value grids must share one (ny, nx) shape")
    xs = ["%.18e" % x for x in (origin.real + np.arange(nx) * spacing).tolist()]
    ys = ["%.18e" % y for y in (origin.imag + np.arange(ny) * spacing).tolist()]
    # "{y}" stands for the row's y; no formatted number contains a brace
    row_format = "".join(f"{x},{{y}}" + ",%.18e" * len(columns) + "\n" for x in xs)
    with open(csv_path, "w") as fh:
        fh.write(header + "\n")
        for iy, y in enumerate(ys):
            values = np.stack([c[iy] for c in columns], axis=-1).ravel().tolist()
            fh.write(row_format.replace("{y}", y) % tuple(values))


def _write_sidecar(csv_path, desc: dict) -> None:
    sidecar_path(csv_path).write_text(json.dumps(desc, sort_keys=True) + "\n")


def load_sampled_field(csv_path, interpolation: str = "bilinear") -> SampledField:
    """Read a sampled complex-distortion grid (CSV + sidecar descriptor)."""
    desc = _load_descriptor(csv_path, "k_max", (0.0, 1.0))
    data = _load_grid_csv(csv_path, MU_HEADER)
    nx, ny, h, origin = _check_grid_coords(data, desc, csv_path)
    values = (data[:, 2] + 1j * data[:, 3]).reshape(ny, nx)
    return SampledField(
        origin=origin,
        spacing=h,
        values=values,
        k_max=desc["k_max"],
        interpolation=interpolation,
    )


def save_sampled_field(csv_path, field: SampledField) -> None:
    """Write a sampled grid and its sidecar descriptor."""
    ny, nx = field.shape
    _write_grid_csv(
        csv_path, MU_HEADER, field.origin, field.spacing,
        (field.values.real, field.values.imag),
    )
    _write_sidecar(
        csv_path,
        {
            "origin": [field.origin.real, field.origin.imag],
            "spacing": field.spacing,
            "nx": nx,
            "ny": ny,
            "k_max": field.k_max,
        },
    )


def load_matrix_field(csv_path, interpolation: str = "bilinear") -> MatrixField:
    """Read a sampled coefficient-matrix grid as the mu grid it encodes.

    Each node is checked here; the field then holds that mu grid as is, and
    the analysis reads mu like a sampled-mu subject's. Interpolating mu keeps
    |mu| <= (K-1)/(K+1), so the matrices rebuilt from it have det 1 and
    eigenvalues in [1/K, K] between the nodes too.
    """
    desc = _load_descriptor(csv_path, "K", (1.0, math.inf))
    data = _load_grid_csv(csv_path, MATRIX_HEADER)
    nx, ny, h, origin = _check_grid_coords(data, desc, csv_path)
    a11, a12, a22 = (data[:, col].reshape(ny, nx) for col in (2, 3, 4))
    dev = np.abs(a11 * a22 - a12**2 - 1.0)
    bad = (dev > DET_TOL) | (a11 <= 0)  # with det 1, a11 > 0 means positive definite
    if bad.any():
        iy, ix = np.argwhere(bad)[0]
        raise FieldValidationError(
            f"{csv_path}: grid node [{iy}, {ix}] has |det A - 1| = {dev[iy, ix]} and "
            f"a11 = {a11[iy, ix]}; need det 1 within {DET_TOL} and a11 > 0"
        )
    K = desc["K"]
    mu = beltrami_from_entries(a11, a12, a22)
    sampled = SampledField(origin, h, mu, (K - 1.0) / (K + 1.0), interpolation)
    return MatrixField(beltrami=sampled.as_beltrami(), K=K, grid=sampled)


def save_matrix_field(csv_path, entries_grid, origin, spacing, K) -> None:
    """Write matrix-entry grids (a11, a12, a22 arrays of shape (ny, nx))."""
    a11, a12, a22 = (np.asarray(g, dtype=float) for g in entries_grid)
    ny, nx = a11.shape
    origin = complex(origin)
    _write_grid_csv(csv_path, MATRIX_HEADER, origin, spacing, (a11, a12, a22))
    _write_sidecar(
        csv_path,
        {
            "origin": [origin.real, origin.imag],
            "spacing": float(spacing),
            "nx": nx,
            "ny": ny,
            "K": float(K),
        },
    )
