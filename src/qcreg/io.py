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
read the CSV and its sidecar as UTF-8, whatever the locale. They reject,
with ``ConfigError``, a sidecar that is not UTF-8 JSON or holds a value of
the wrong type or range (naming the file and the key), a file with no data
rows and coordinates that disagree with the descriptor. When a parse fails,
or its rows have the wrong width or a non-finite entry, `_bad_line` reads
the file once more and names its first bad line (1-based): a row with the
wrong number of fields, a whitespace-only line included (with the expected
and found counts), or an entry that is not a number or not finite (with
its column).

Both loaders read a CSV with one ``np.loadtxt`` call, or, for a file above
``BLOCK_BYTES`` on a machine with two usable CPUs and ``os.fork``, with one
such call per CPU on a contiguous block of rows, each in a forked child
(`_parse_blocks`). The block result is bit-identical to the serial one: the
parent checks, while the children parse, that every line after the header
is one data row (no blank, whitespace-only or ``#`` line, no lone ``\\r``)
and that there are nx*ny of them. If that check or a child fails, the
serial call runs, so every result and message is the serial one.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from .config import _first_line, _integer, _number, _point
from .elliptic import DET_TOL, MatrixField, beltrami_from_entries
from .errors import ConfigError, FieldValidationError
from .plane import SampledField, stretch_factor

MU_HEADER = "x,y,re,im"
MATRIX_HEADER = "x,y,a11,a12,a22"

#: grid CSVs above this many bytes are parsed in blocks on several CPUs
BLOCK_BYTES = 4 << 20
#: bytes a line may start with for the block parse: a number's first character
_ROW_START = np.zeros(256, dtype=bool)
_ROW_START[list(b"+-.0123456789")] = True


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
        desc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
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


def _load_grid_csv(csv_path, header: str, rows: int) -> np.ndarray:
    """The data rows of a grid CSV whose descriptor says nx*ny = `rows`."""
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ConfigError(f"no such file: {csv_path}")
    first = _first_line(csv_path)
    if first.replace(" ", "") != header:
        raise ConfigError(f"{csv_path} must start with header {header!r}, got {first!r}")
    names = header.split(",")
    data = _parse_rows(csv_path, names, rows)
    if len(data) == 0:
        raise ConfigError(f"{csv_path}: 0 data rows but descriptor says nx*ny = {rows}")
    if data.shape[1] != len(names) or not np.isfinite(data).all():
        raise _bad_line(csv_path, names, f"expected {len(names)} columns of finite numbers",
                        finite=True)
    return data


def _parse_rows(csv_path, names, rows: int) -> np.ndarray:
    """np.loadtxt of the rows after the header, in blocks when that pays.

    A file above BLOCK_BYTES is split into one block of rows per usable CPU
    (fewer when a block would hold under half of BLOCK_BYTES), each parsed in
    a forked child; see `_parse_blocks`. Otherwise, or when the block parse
    cannot vouch for its result, one serial np.loadtxt reads the file.
    """
    blocks = min(_usable_cpus(), math.ceil(csv_path.stat().st_size / BLOCK_BYTES), rows)
    if blocks >= 2 and hasattr(os, "fork"):
        data = _parse_blocks(csv_path, len(names), rows, blocks)
        if data is not None:
            return data
    try:
        with warnings.catch_warnings():
            # a file with no data rows is reported by the caller
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
    except ValueError as exc:  # a UnicodeDecodeError too
        raise _bad_line(csv_path, names, str(exc), finite=False) from None


def _bad_line(csv_path, names, message: str, *, finite: bool) -> ConfigError:
    """The ConfigError naming the first data line that is not len(names)
    numbers (finite ones, if `finite`), or, when no line is, the load's
    `message`. It runs only after a load failed; np.loadtxt reads nan and inf,
    so after np.loadtxt raised, `finite` is False and only a line it could not
    read is named.

    The lines are those np.loadtxt reads, decoded as UTF-8 with each bad byte
    replaced: the header and every line that is empty up to its end or ``#``
    are skipped, and a whitespace-only line is a row of one field. An entry
    holding ``_`` or a non-ASCII character is no number to np.loadtxt, though
    float() reads one; it is quoted as written.
    """
    with open(csv_path, encoding="utf-8", errors="replace") as fh:
        for line, text in enumerate(fh, 1):
            row = text.rstrip("\n").split("#", 1)[0]
            if line == 1 or not row:
                continue
            fields = row.split(",")
            if len(fields) != len(names):
                return ConfigError(f"{csv_path} line {line}: expected {len(names)} columns, "
                                   f"found {len(fields)}")
            for name, entry in zip(names, fields):
                try:
                    if "_" in entry or not entry.isascii():
                        raise ValueError(entry)
                    value = float(entry)
                except ValueError:
                    return ConfigError(
                        f"{csv_path} line {line}: {name} = {entry!r} is not a number"
                    )
                if finite and not math.isfinite(value):
                    return ConfigError(f"{csv_path} line {line}: {name} = {value} is not finite")
    return ConfigError(f"{csv_path}: {message}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _parse_blocks(csv_path, ncols: int, rows: int, blocks: int):
    """The serial np.loadtxt result, parsed as `blocks` contiguous blocks of
    rows in forked children, or None when it might differ from it.

    Child i parses data rows [lo, hi) with skiprows=1 + lo and
    max_rows=hi - lo (the last block reads to the end) and sends them down
    a pipe; the parent parses nothing. skiprows counts physical lines and
    max_rows data rows, so the split is exact only when every line after
    the header is one data row: while the children run, the parent proves
    that with `_plain_rows`. A failed scan, a failed or killed child or a
    block of the wrong shape gives None; no child outlives this call.
    """
    from signal import SIGKILL  # about 1 ms to import: only a block parse pays it

    bounds = [rows * i // blocks for i in range(blocks + 1)]
    children = []  # (pid, read end of its pipe), in block order
    try:
        for i, lo in enumerate(bounds[:-1]):
            max_rows = bounds[i + 1] - lo if i < blocks - 1 else None
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # From Python 3.12 os.fork warns when the process has
                    # threads, as numpy's BLAS pool gives it. The child only
                    # runs np.loadtxt (no BLAS), writes to its pipe and leaves
                    # through os._exit, so it needs no lock another thread
                    # may hold; only that one warning is silenced.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                return None
            if pid == 0:
                _block_child(csv_path, 1 + lo, max_rows, write_fd,
                             [read_fd] + [fd for _, fd in children])
            os.close(write_fd)
            children.append((pid, read_fd))
        if _plain_rows(csv_path) != rows:
            return None
        out = np.empty((rows, ncols))
        shape = np.empty(2, dtype=np.int64)
        for i, (pid, read_fd) in enumerate(children):
            lo, hi = bounds[i], bounds[i + 1]
            with open(read_fd, "rb", buffering=0, closefd=False) as pipe:
                if not (
                    _read_exactly(pipe, shape)
                    and tuple(shape) == (hi - lo, ncols)
                    and _read_exactly(pipe, out[lo:hi])
                ):
                    return None
            status = os.waitpid(pid, 0)[1]
            children[i] = (None, read_fd)  # reaped
            if status != 0:
                return None
        return out
    finally:
        for pid, read_fd in children:
            os.close(read_fd)
            if pid is not None:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _block_child(csv_path, skiprows: int, max_rows, write_fd: int, read_fds) -> None:
    """Body of a forked child: parse one block and write its shape and rows
    to `write_fd`. It never returns, so it runs no exit hook, no flush of
    the parent's buffers and no caller's code; it prints nothing."""
    code = 1
    try:
        for fd in read_fds:
            os.close(fd)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 2)
        block = np.loadtxt(
            csv_path, delimiter=",", skiprows=skiprows, max_rows=max_rows, ndmin=2,
            encoding="utf-8",
        )
        with open(write_fd, "wb") as pipe:
            pipe.write(np.array(block.shape, dtype=np.int64).tobytes())
            pipe.write(memoryview(block).cast("B"))
        code = 0
    finally:
        os._exit(code)


def _read_exactly(pipe, array) -> bool:
    """Fill the contiguous `array` from `pipe`; False at an early end."""
    view = memoryview(array).cast("B")
    while view:
        n = pipe.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _plain_rows(csv_path, chunk: int = 1 << 20):
    """The number of lines after the header, when each of them starts with
    a number's first character and no line ends in a lone carriage return;
    None otherwise.

    np.loadtxt then reads each of those lines as one data row, so its
    skiprows and max_rows count alike. Blank, whitespace-only and ``#``
    lines, which it skips or reads differently, give None, and so does a
    lone ``\\r``, which it reads as a line end that this count would miss.
    """
    # buf[0] holds the previous chunk's last byte: a line end whose next byte
    # is still unread is checked with the next chunk, and one at the end of
    # the file starts no line. The header's first byte is not checked.
    buf = bytearray(chunk + 1)
    lines = 0
    with open(csv_path, "rb", buffering=0) as fh:
        while n := fh.readinto(memoryview(buf)[1:]):
            a = np.frombuffer(buf, dtype=np.uint8, count=n + 1)
            ends, following = a[:-1], a[1:]
            newline = ends == ord("\n")
            if not _ROW_START[following[newline]].all():
                return None
            if buf.find(b"\r", 0, n + 1) >= 0 and (
                following[ends == ord("\r")] != ord("\n")
            ).any():
                return None
            lines += int(np.count_nonzero(newline))
            buf[0] = buf[n]
    return None if buf[0] == ord("\r") else lines


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
    data = _load_grid_csv(csv_path, MU_HEADER, desc["nx"] * desc["ny"])
    nx, ny, h, origin = _check_grid_coords(data, desc, csv_path)
    # the adjacent re, im columns of each row read as one complex number in
    # place: no complex grid is built, and signed zeros survive as written
    values = data.view(complex)[:, 1].reshape(ny, nx)
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
    data = _load_grid_csv(csv_path, MATRIX_HEADER, desc["nx"] * desc["ny"])
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
    sampled = SampledField(origin, h, mu, stretch_factor(K), interpolation)
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
