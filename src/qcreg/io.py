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
the wrong type or range (naming the file and the key) or a spacing that
is not above the coordinates' resolution (`_load_descriptor`), a file with
no data rows and coordinates off the descriptor's grid by more than 1e-9 of
the spacing plus round-off, naming the first such node. When a parse fails,
or its rows have the wrong width or a non-finite entry, `_bad_line` reads
the file once more and names its first bad line (1-based): a row with the
wrong number of fields, a whitespace-only line included (with the expected
and found counts), or an entry that is not a number or not finite (with
its column); failing those, the first line that is not UTF-8 text.

A grid of more than ``BLOCK_BYTES`` of CSV text, on a machine with two
usable CPUs and ``os.fork``, is read and written on one forked child per
usable CPU (`_fork_count`, `_forked`). A load runs one ``np.loadtxt`` call
per child on a contiguous block of rows (`_parse_blocks`) and the parent
only collects them. A blank or comment line can shift a block, which then
repeats rows and fails the coordinate check; such a result is freed and
the file read serially, so a result that stands is bit-identical to one
serial call. A save hands chunks of whole grid rows round-robin to the
children, which send the formatted text back for the parent to write in
order (`_write_chunks`). If a check, a fork or a child fails, the load or
save runs serially, so every result, message and byte is the serial one.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import (
    MATRIX_HEADER, MU_HEADER, _first_line, _json_object, _key_integer, _key_real, _point,
)
from .elliptic import DET_TOL, MatrixField, beltrami_from_entries
from .errors import ConfigError, FieldValidationError
from .plane import SampledField, _finite_complex, _finite_real, stretch_factor

#: grid CSVs above this many bytes are parsed in blocks on several CPUs
BLOCK_BYTES = 4 << 20


def sidecar_path(csv_path) -> Path:
    return Path(str(csv_path) + ".json")


def _load_descriptor(csv_path, bound_key: str, bound_range: tuple[float, float]) -> dict:
    """The sidecar's values, checked: nx and ny integers >= 1, spacing
    positive, finite and above the coordinates' resolution, origin a finite
    [x, y] pair (as a complex) and the field bound `bound_key` a finite
    number in [low, high)."""
    path = sidecar_path(csv_path)
    desc = _json_object(path, "sidecar descriptor")
    missing = [k for k in ("origin", "spacing", "nx", "ny", bound_key) if k not in desc]
    if missing:
        raise ConfigError(f"descriptor {path} missing keys {missing}")
    where = f"descriptor {path}:"
    low, high = bound_range
    bound = _key_real(f"{where} {bound_key}", desc[bound_key])
    if not low <= bound < high:
        raise ConfigError(f"{where} {bound_key} must lie in [{low}, {high}), got {bound!r}")
    nx = _key_integer(f"{where} nx", desc["nx"], 1)
    ny = _key_integer(f"{where} ny", desc["ny"], 1)
    h = _key_real(f"{where} spacing", desc["spacing"], positive=True)
    origin = _point(desc["origin"], f"{where} origin")
    # No row matches two nodes of an axis when h exceeds twice `_on_axis`'s
    # tolerance plus the rounding of two expected nodes, under 2 ulps of the
    # largest each (half a tolerance); the block parse rests on that.
    for name, start, n in (("x", origin.real, nx), ("y", origin.imag, ny)):
        tol = _axis_tolerance(start, n, h)
        if n > 1 and not h > 2.5 * tol:
            raise ConfigError(f"{where} spacing {h!r} is below the resolution of the {name} "
                              f"axis of {n} nodes from {start!r}; it must exceed {2.5 * tol!r}")
    return {"nx": nx, "ny": ny, "spacing": h, "origin": origin, bound_key: bound}


def _load_grid_csv(csv_path, header: str, desc: dict) -> np.ndarray:
    """The data rows of a grid CSV, checked against its descriptor `desc`:
    nx*ny rows of len(header) finite numbers whose x, y are the grid's nodes.

    A file above BLOCK_BYTES is parsed in blocks of rows on forked children
    (`_fork_count`, `_parse_blocks`). A block result whose coordinates fail
    the check is freed and the file read serially, as is every file when
    the block parse does not run or fails; every value and message is thus
    the serial one.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ConfigError(f"no such file: {csv_path}")
    first = _first_line(csv_path)
    if first.replace(" ", "") != header:
        raise ConfigError(f"{csv_path} must start with header {header!r}, got {first!r}")
    names = header.split(",")
    rows = desc["nx"] * desc["ny"]
    blocks = _fork_count(csv_path.stat().st_size, rows)
    data = _parse_blocks(csv_path, len(names), rows, blocks) if blocks else None
    if data is not None and _off_grid(csv_path, names, data, desc) is None:
        return data
    del data  # a mis-split block result is freed before the serial read
    data = _loadtxt(csv_path, names)
    node = _off_grid(csv_path, names, data, desc)
    if node is not None:
        raise ConfigError(f"{csv_path}: grid coordinates disagree with the descriptor "
                          f"at node [{node[0]}, {node[1]}]")
    return data


def _loadtxt(csv_path, names) -> np.ndarray:
    """One serial np.loadtxt of the rows after the header."""
    try:
        with warnings.catch_warnings():
            # a file with no data rows is reported by the caller
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2, encoding="utf-8")
    except ValueError as exc:  # a UnicodeDecodeError too
        raise _bad_line(csv_path, names, str(exc), finite=False) from None


def _bad_line(csv_path, names, message: str, *, finite: bool) -> ConfigError:
    """The ConfigError naming the first data line that is not len(names)
    numbers (finite ones, if `finite`), or, when no line is, the first line
    that is not UTF-8 text, or else the load's `message`. It runs only after
    a load failed; np.loadtxt reads nan and inf, so after np.loadtxt raised,
    `finite` is False and only a line it could not read is named.

    The lines are those np.loadtxt reads, decoded as UTF-8 with each bad byte
    replaced: the header and every line that is empty up to its end or ``#``
    are skipped, and a whitespace-only line is a row of one field. An entry
    holding ``_`` or a non-ASCII character is no number to np.loadtxt, though
    float() reads one; it is quoted as written.
    """
    not_utf8 = None  # the first line holding a byte that is not UTF-8
    with open(csv_path, encoding="utf-8", errors="surrogateescape") as fh:
        for line, text in enumerate(fh, 1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:  # an escaped bad byte: read it as U+FFFD
                not_utf8 = not_utf8 or line
                text = text.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
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
    if not_utf8:
        return ConfigError(f"{csv_path} line {not_utf8} is not UTF-8 text")
    return ConfigError(f"{csv_path}: {message}")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_count(nbytes: int, rows: int) -> int:
    """How many forked children share the parse or the formatting of
    `nbytes` of CSV text in `rows` rows: one per usable CPU, but none with
    under about half of BLOCK_BYTES and none without a row; 0 (run
    serially) when that is under 2 or there is no os.fork."""
    count = min(_usable_cpus(), math.ceil(nbytes / BLOCK_BYTES), rows)
    return count if count >= 2 and hasattr(os, "fork") else 0


def _forked(count: int, work, consume):
    """Run work(i, pipe) in forked child i for each i < `count` while this
    process runs consume(pipes); give consume's result, or None when a fork
    fails, consume gives None or a child does not exit with status 0.

    Child i writes to its `pipe`, which this process reads as pipes[i], an
    unbuffered binary reader. No child outlives this call: when consume
    ends early or raises, or a fork fails, every child not yet reaped is
    killed and waited for.
    """
    from signal import SIGKILL  # about 1 ms to import: only a forked job pays it

    children = []  # (pid, or None once reaped; read end of its pipe), in child order
    try:
        for i in range(count):
            read_fd, write_fd = os.pipe()
            pipe = open(read_fd, "rb", buffering=0)
            try:
                with warnings.catch_warnings():
                    # From Python 3.12 os.fork warns when the process has
                    # threads, as numpy's BLAS pool gives it. A child only
                    # parses or formats (no BLAS), writes to its pipe and
                    # leaves through os._exit, so it needs no lock another
                    # thread may hold; only that one warning is silenced.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
            except OSError:
                pipe.close()
                os.close(write_fd)
                return None
            if pid == 0:
                _child(work, i, write_fd, [read_fd] + [p.fileno() for _, p in children])
            os.close(write_fd)
            children.append((pid, pipe))
        result = consume([pipe for _, pipe in children])
        if result is None:
            return None
        for i, (pid, pipe) in enumerate(children):
            status = os.waitpid(pid, 0)[1]
            children[i] = (None, pipe)  # reaped
            if status != 0:
                return None
        return result
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _child(work, i: int, write_fd: int, read_fds) -> None:
    """Body of forked child i: run work(i, pipe) on the write end of its
    pipe. It never returns, so it runs no exit hook, no flush of the
    parent's buffers and no caller's code; it prints nothing."""
    code = 1
    try:
        for fd in read_fds:
            os.close(fd)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 2)
        with open(write_fd, "wb") as pipe:
            work(i, pipe)
        code = 0
    finally:
        os._exit(code)


def _parse_blocks(csv_path, ncols: int, rows: int, blocks: int):
    """The data rows parsed as `blocks` contiguous blocks of rows in forked
    children, or None when a child fails or sends a block of the wrong shape.

    Child i parses data rows [lo, hi) with skiprows=1 + lo and
    max_rows=hi - lo (the last block reads to the end) and sends their
    shape and values down its pipe; the parent only collects them. skiprows
    counts lines and max_rows data rows, so a blank or comment line before a
    block's first row makes that block start early and repeat a row of the
    block before it, and a whitespace-only line makes a child fail. A
    repeated row sits at two grid nodes, which no row matches once the
    descriptor's spacing is above the coordinates' resolution: a result of
    the right shape whose coordinates pass `_off_grid` is the serial
    np.loadtxt result, bit for bit.
    """
    bounds = [rows * i // blocks for i in range(blocks + 1)]

    def parse(i, pipe):
        block = np.loadtxt(
            csv_path, delimiter=",", skiprows=1 + bounds[i],
            max_rows=bounds[i + 1] - bounds[i] if i < blocks - 1 else None, ndmin=2,
            encoding="utf-8",
        )
        pipe.write(np.array(block.shape, dtype=np.int64).tobytes())
        pipe.write(memoryview(block).cast("B"))

    def gather(pipes):
        # allocated once block 0 has its shape, so the file holds a
        # 1/blocks share of the rows: a sidecar's nx*ny alone allocates nothing
        out = None
        shape = np.empty(2, dtype=np.int64)
        for lo, hi, pipe in zip(bounds, bounds[1:], pipes):
            if not (_read_exactly(pipe, shape) and tuple(shape) == (hi - lo, ncols)):
                return None
            if out is None:
                out = np.empty((rows, ncols))
            if not _read_exactly(pipe, out[lo:hi]):
                return None
        return out

    return _forked(blocks, parse, gather)


def _read_exactly(pipe, array) -> bool:
    """Fill the contiguous `array` from `pipe`; False at an early end."""
    view = memoryview(array).cast("B")
    while view:
        n = pipe.readinto(view)
        if not n:
            return False
        view = view[n:]
    return True


def _off_grid(csv_path, names, data, desc):
    """The first node [iy, ix] whose row's x, y are off the grid of the
    descriptor `desc`, or None. The rows must first be nx*ny rows of
    len(names) finite numbers; a ConfigError says where they are not."""
    nx, ny, h = desc["nx"], desc["ny"], desc["spacing"]
    if len(data) == 0:
        raise ConfigError(f"{csv_path}: 0 data rows but descriptor says nx*ny = {nx * ny}")
    if data.shape[1] != len(names) or not np.isfinite(data).all():
        raise _bad_line(csv_path, names, f"expected {len(names)} columns of finite numbers",
                        finite=True)
    if len(data) != nx * ny:
        raise ConfigError(f"{csv_path}: {len(data)} rows but descriptor says nx*ny = {nx * ny}")
    x0, y0 = desc["origin"].real, desc["origin"].imag
    xs, ys = data[:, 0].reshape(ny, nx), data[:, 1].reshape(ny, nx)
    off = ~(_on_axis(xs, x0, nx, h) & _on_axis(ys.T, y0, ny, h).T)
    return tuple(np.argwhere(off)[0]) if off.any() else None


def _on_axis(coords, start: float, n: int, h: float) -> np.ndarray:
    """Where each row of `coords` is start + h * arange(n), within
    `_axis_tolerance`. The expected axis is built once, not at full size."""
    with np.errstate(over="ignore"):
        expected = start + np.arange(n) * h
    return np.abs(coords - expected) <= _axis_tolerance(start, n, h)


def _axis_tolerance(start: float, n: int, h: float) -> float:
    """1e-9 of the spacing plus 8 ulps of the largest node of the axis
    start + h * arange(n): a grid line out of place is off by at least h,
    however far the grid lies from the origin. On an axis that overflows
    the float range the ulps are those of the largest float, so the
    tolerance stays finite and no coordinate matches a node past the end."""
    try:
        end = start + (n - 1) * h
    except OverflowError:  # n - 1 has no float
        end = math.inf
    largest = min(max(abs(start), abs(end)), sys.float_info.max)
    return 1e-9 * h + 8 * sys.float_info.epsilon * largest


def _write_grid_csv(csv_path, header: str, origin: complex, spacing, columns) -> None:
    """Write float value grids of shape (ny, nx) as CSV rows ``x, y, *values``.

    The bytes are those of ``np.savetxt(fmt="%.18e", delimiter=",")`` on the
    stacked columns. Each of the nx + ny coordinates is formatted once, each
    grid row of nx lines is one ``%`` call over its values, and the rows are
    formatted in chunks of whole grid rows (`_grid_text`), about BLOCK_BYTES
    / 16 of text each. Above BLOCK_BYTES of text, `_fork_count` forked
    children format the chunks (`_write_chunks`); if that fails, the file is
    truncated and written serially. No process holds more than about one
    chunk of text.
    """
    ny, nx = columns[0].shape
    if any(c.shape != (ny, nx) for c in columns):
        raise ValueError("value grids must share one (ny, nx) shape")
    xs = [b"%.18e" % x for x in (origin.real + np.arange(nx) * spacing).tolist()]
    ys = [b"%.18e" % y for y in (origin.imag + np.arange(ny) * spacing).tolist()]
    # b"{y}" stands for the row's y; no formatted number contains a brace
    row_format = b"".join(x + b",{y}" + b",%.18e" * len(columns) + b"\n" for x in xs)
    row_bytes = nx * 25 * (2 + len(columns))  # about: an entry and its comma
    step = max(1, BLOCK_BYTES // 16 // max(row_bytes, 1))  # grid rows per chunk

    def text(lo: int) -> bytes:
        return _grid_text(row_format, ys, columns, lo, lo + step)

    head = header.encode() + b"\n"
    with open(csv_path, "wb") as fh:
        fh.write(head)
        children = _fork_count(ny * row_bytes, ny)
        if children and _write_chunks(fh, text, range(0, ny, step), children):
            return
        fh.truncate(fh.seek(len(head)))
        for lo in range(0, ny, step):
            fh.write(text(lo))


def _grid_text(row_format: bytes, ys, columns, lo: int, hi: int) -> bytes:
    """The CSV lines of grid rows [lo, hi), whose formatted y are in `ys`."""
    values = np.stack([c[lo:hi] for c in columns], axis=-1)
    rows = values.reshape(len(values), -1).tolist()
    return b"".join(row_format.replace(b"{y}", y) % tuple(row)
                    for y, row in zip(ys[lo:hi], rows))


def _write_chunks(fh, text, starts, children: int) -> bool:
    """Write text(lo) for each lo of `starts` to `fh`, in order, with chunk
    k formatted by forked child k % `children` and sent down its pipe after
    its length. False when a child failed or sent a short chunk; some
    chunks may then have been written."""
    def send(i, pipe):
        for lo in starts[i::children]:
            chunk = text(lo)
            pipe.write(len(chunk).to_bytes(8, "little"))
            pipe.write(chunk)

    def copy(pipes):
        size = bytearray(8)
        for k in range(len(starts)):
            pipe = pipes[k % children]
            if not _read_exactly(pipe, size):
                return None
            chunk = bytearray(int.from_bytes(size, "little"))
            if not _read_exactly(pipe, chunk):
                return None
            fh.write(chunk)
        return True

    return _forked(children, send, copy) is not None


def _write_sidecar(csv_path, desc: dict) -> None:
    sidecar_path(csv_path).write_text(json.dumps(desc, sort_keys=True) + "\n")


def load_sampled_field(csv_path, interpolation: str = "bilinear") -> SampledField:
    """Read a sampled complex-distortion grid (CSV + sidecar descriptor)."""
    desc = _load_descriptor(csv_path, "k_max", (0.0, 1.0))
    data = _load_grid_csv(csv_path, MU_HEADER, desc)
    # the adjacent re, im columns of each row read as one complex number in
    # place: no complex grid is built, and signed zeros survive as written
    values = data.view(complex)[:, 1].reshape(desc["ny"], desc["nx"])
    return SampledField(
        origin=desc["origin"],
        spacing=desc["spacing"],
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
    data = _load_grid_csv(csv_path, MATRIX_HEADER, desc)
    a11, a12, a22 = (data[:, col].reshape(desc["ny"], desc["nx"]) for col in (2, 3, 4))
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
    sampled = SampledField(desc["origin"], desc["spacing"], mu, stretch_factor(K), interpolation)
    return MatrixField(beltrami=sampled.as_beltrami(), K=K, grid=sampled)


def save_matrix_field(csv_path, entries_grid, origin, spacing, K) -> None:
    """Write matrix-entry grids (a11, a12, a22 arrays of shape (ny, nx)); the
    origin, spacing and K are checked as the sidecar reader checks them."""
    origin = _finite_complex("origin", origin)
    spacing = _finite_real("spacing", spacing, positive=True)
    stretch_factor(K)  # raises unless K >= 1 is a finite real number
    a11, a12, a22 = (np.asarray(g, dtype=float) for g in entries_grid)
    ny, nx = a11.shape
    _write_grid_csv(csv_path, MATRIX_HEADER, origin, spacing, (a11, a12, a22))
    _write_sidecar(
        csv_path,
        {
            "origin": [origin.real, origin.imag],
            "spacing": spacing,
            "nx": nx,
            "ny": ny,
            "K": float(K),
        },
    )
