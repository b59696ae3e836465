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
rows and coordinates that disagree with the descriptor by more than 1e-9 of
the spacing (plus round-off of the coordinates' size). When a parse fails,
or its rows have the wrong width or a non-finite entry, `_bad_line` reads
the file once more and names its first bad line (1-based): a row with the
wrong number of fields, a whitespace-only line included (with the expected
and found counts), or an entry that is not a number or not finite (with
its column); failing those, the first line that is not UTF-8 text.

A grid of more than ``BLOCK_BYTES`` of CSV text, on a machine with two
usable CPUs and ``os.fork``, is read and written on one forked child per
usable CPU (`_fork_count`, `_forked`). A load runs one ``np.loadtxt`` call
per child on a contiguous block of rows (`_parse_blocks`); the result is
bit-identical to one serial call: the parent checks, while the children
parse, that every line after the header is one data row (no blank,
whitespace-only or ``#`` line, no lone ``\\r``) and that there are nx*ny of
them. A save hands chunks of whole grid rows round-robin to the children,
which send the formatted text back for the parent to write in order
(`_write_chunks`). If a check, a fork or a child fails, the load or save
runs serially, so every result, message and byte is the serial one.
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

    A file above BLOCK_BYTES is split into one block of rows per forked
    child (`_fork_count`), each parsed in that child; see `_parse_blocks`.
    Otherwise, or when the block parse cannot vouch for its result, one
    serial np.loadtxt reads the file.
    """
    blocks = _fork_count(csv_path.stat().st_size, rows)
    if blocks:
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
    """The serial np.loadtxt result, parsed as `blocks` contiguous blocks of
    rows in forked children, or None when it might differ from it.

    Child i parses data rows [lo, hi) with skiprows=1 + lo and
    max_rows=hi - lo (the last block reads to the end) and sends their
    shape and values down its pipe; the parent parses nothing. skiprows
    counts physical lines and max_rows data rows, so the split is exact
    only when every line after the header is one data row: while the
    children run, the parent proves that with `_plain_rows`. A failed
    scan, a failed or killed child or a block of the wrong shape gives None.
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
        if _plain_rows(csv_path) != rows:
            return None
        out = np.empty((rows, ncols))
        shape = np.empty(2, dtype=np.int64)
        for lo, hi, pipe in zip(bounds, bounds[1:], pipes):
            if not (
                _read_exactly(pipe, shape)
                and tuple(shape) == (hi - lo, ncols)
                and _read_exactly(pipe, out[lo:hi])
            ):
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
    xs, ys = data[:, 0].reshape(ny, nx), data[:, 1].reshape(ny, nx)
    if not (_on_axis(xs, x0, nx, h) and _on_axis(ys.T, y0, ny, h)):
        raise ConfigError(f"{csv_path}: grid coordinates disagree with the descriptor")
    return nx, ny, h, complex(x0, y0)


def _on_axis(coords, start: float, n: int, h: float) -> bool:
    """Whether each row of `coords` is start + h * arange(n), within 1e-9 of
    the spacing plus a few ulps of the largest coordinate: a grid line out of
    place is off by at least h, however far the grid lies from the origin.
    The expected axis is built once, not at full size."""
    expected = start + np.arange(n) * h
    tol = 1e-9 * h + 8 * np.finfo(float).eps * np.abs(expected).max()
    return np.allclose(coords, expected, rtol=0, atol=tol)


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
