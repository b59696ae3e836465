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
in integer arithmetic over whole arrays (`_sci_slots`): ±0 and every
magnitude in [2^-29, 2^48) get the digits ``%`` rounds to, and only nan,
±inf, subnormals and the other finite values take ``%``, one value at a
time. Each grid coordinate is formatted once. The loaders read the CSV
and its sidecar as UTF-8, whatever the locale. They reject, with
``ConfigError``, a sidecar that is not UTF-8 JSON or holds a value of
the wrong type or range (naming the file and the key) or a spacing that
is not above the coordinates' resolution (`_load_descriptor`), a file with
no data rows and coordinates off the descriptor's grid by more than 1e-9 of
the spacing plus round-off, naming the first such node. When a parse fails,
or its rows have the wrong width or a non-finite entry, `_bad_line` reads
the file once more and names its first bad line (1-based): a row with the
wrong number of fields, a whitespace-only line included (with the expected
and found counts), or an entry that is not a number or not finite (with
its column); failing those, the first line that is not UTF-8 text.

A grid CSV is first read with its coordinates kept as text and only its
value columns converted (`_text_parse`): a row's x must be byte-equal to
the x text at its column of grid row 0, and its y to the y text of its grid
row's first node, and those nx + ny reference texts are parsed and checked
against the descriptor (`_on_axis`). Equal text is an equal float, so every
node gets the verdict a float read gives it. A grid of more than
``BLOCK_BYTES`` of CSV text, on a machine with two usable CPUs and
``os.fork``, is read on one forked child per usable CPU
(`_fork_count`, `_forked`). A load parses one contiguous block of rows per
child (`_parse_blocks`), and each child sends back only its values and the
texts the other blocks are compared with; a smaller grid, or any on one
CPU, is read the same way in this process. Every process reads at most
``CHUNK_ROWS`` rows of text at once (`_parse_text_block`). A text mismatch,
a field that fills ``TEXT_WIDTH``, a NUL byte, an unparsable reference, a
wrong row count or a failed child makes the load read the file serially as
floats (`_loadtxt`, `_off_grid`), the one source of its error messages; a
non-finite field in a text read that otherwise stands goes to `_bad_line`,
as it does after the float read. A blank or comment line that shifts a
block fails the row count or the text check, so a result that stands is
bit-identical to one serial np.loadtxt call. A save formats and writes
in this process alone.
"""

from __future__ import annotations

import functools
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

#: bytes of a coordinate's text in the text parse; a longer one is cut off
#: by np.loadtxt, so one that fills the width sends the load to the float read
TEXT_WIDTH = 32

#: rows one np.loadtxt call of the text parse reads at most: about 5 MB
#: of text and values
CHUNK_ROWS = 1 << 16


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
    """The value columns (all but x, y) of the data rows of a grid CSV,
    checked against its descriptor `desc`: nx*ny rows of len(header) finite
    numbers whose x, y are the grid's nodes.

    The coordinates are compared as text with those of grid row 0 and of
    each grid row's first node, and only the values are converted
    (`_text_parse`), on forked children above BLOCK_BYTES. When that read
    does not stand (a text mismatch, a width-filling or NUL-holding field,
    a bad reference, a wrong row count or a failed child), the file is read
    serially as floats and checked by `_off_grid`; every value and message
    is thus the serial one.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ConfigError(f"no such file: {csv_path}")
    first = _first_line(csv_path)
    if first.replace(" ", "") != header:
        raise ConfigError(f"{csv_path} must start with header {header!r}, got {first!r}")
    names = header.split(",")
    values = _text_parse(csv_path, names, desc)
    if values is not None:
        return values
    data = _loadtxt(csv_path, names)
    node = _off_grid(csv_path, names, data, desc)
    if node is not None:
        raise ConfigError(f"{csv_path}: grid coordinates disagree with the descriptor "
                          f"at node [{node[0]}, {node[1]}]")
    return np.ascontiguousarray(data[:, 2:])


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


def _not_finite(csv_path, names) -> ConfigError:
    """The ConfigError of rows that np.loadtxt read but that are not all
    len(names) finite numbers: `_bad_line` names the first bad line."""
    return _bad_line(csv_path, names, f"expected {len(names)} columns of finite numbers",
                     finite=True)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_count(nbytes: int, rows: int) -> int:
    """How many forked children share the parse of
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
                    # parses (no BLAS), writes to its pipe and
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


def _text_parse(csv_path, names, desc: dict):
    """The (nx*ny, len(names) - 2) values of a grid CSV read with its
    coordinates as text, or None when that read does not stand; a field
    that is not finite raises `_bad_line`'s ConfigError.

    The rows are parsed in `_fork_count` blocks on forked children
    (`_parse_blocks`), or as one block in this process. Each block checks
    its texts against its own first nx x texts and first text of each grid
    row; `_reference_texts` then checks those against grid row 0 and each
    row's first node, whose texts must be finite numbers on the
    descriptor's axes.
    """
    nx, ny, ncols = desc["nx"], desc["ny"], len(names)
    rows, size = nx * ny, csv_path.stat().st_size
    blocks = _fork_count(size, rows)
    if blocks:
        parsed = _parse_blocks(csv_path, ncols, nx, rows, blocks)
    else:
        try:
            parsed = _parse_text_block(csv_path, ncols, nx, 0, rows, True, (0, size))
        except ValueError:  # a UnicodeDecodeError too
            parsed = None
        if parsed is not None:
            values, x_text, y_text = parsed
            parsed = values, [(0, rows, x_text, y_text)]
    if parsed is None:
        return None
    values, anchors = parsed
    texts = _reference_texts(nx, ny, anchors)
    axes = None if texts is None else [_text_floats(text) for text in texts]
    if axes is None or any(axis is None for axis in axes):
        return None
    # every field is a number, so the serial read would reach this check too
    if not all(np.isfinite(a).all() for a in (*axes, values)):
        raise _not_finite(csv_path, names)
    origin, h = desc["origin"], desc["spacing"]
    for axis, start, n in zip(axes, (origin.real, origin.imag), (nx, ny)):
        if not _on_axis(axis, start, n, h).all():
            return None
    return values


def _parse_text_block(csv_path, ncols: int, nx: int, lo: int, hi: int, last: bool, nul_span):
    """Data rows [lo, hi) of a grid CSV of nx columns read with x, y as text
    (to the end of the file if `last`): (values, x texts, y texts), or None
    when the file cannot hold them or the rows disagree with each other.
    np.loadtxt raises a ValueError when a row is not ncols fields or a value
    no number.

    The file is read through one handle, ``CHUNK_ROWS`` rows at a time,
    with skiprows=1 + lo first. The block's first min(nx, hi - lo) x texts
    are given back, and every later row's x must equal the one nx rows
    before it; the y texts of the block's first row and of each grid row's
    first node in it are given back, and every other row's y must equal
    that of its grid row's. Texts are rows of uint64 words. No field may
    fill TEXT_WIDTH, and the bytes `nul_span` = (start, stop) of the file
    may hold no NUL, which np.loadtxt keeps in a field but the bytes type
    drops from its end.
    """
    nv = ncols - 2
    # a row is ncols - 1 commas, nv values of a character or more and a line
    # end (but the last), so a sidecar's nx*ny far beyond the file allocates
    # nothing
    most = (os.path.getsize(csv_path) + 1) // (ncols + nv)
    if hi - lo > most or _holds_nul(csv_path, *nul_span):
        return None
    values = np.empty((hi - lo, nv))
    dtype = np.dtype([("x", f"S{TEXT_WIDTH}"), ("y", f"S{TEXT_WIDTH}"), ("v", "f8", (nv,))])
    w = TEXT_WIDTH // 8  # uint64 words of a text
    x_text, y_text = [], []
    count, skip = 0, 1 + lo
    with open(csv_path, encoding="utf-8") as fh, warnings.catch_warnings():
        # an empty chunk at the end, and a blank or comment line within one,
        # are no news: the row count is checked below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        while True:
            want = CHUNK_ROWS if last else min(CHUNK_ROWS, hi - lo - count)
            if not want:
                break
            chunk = np.loadtxt(fh, delimiter=",", skiprows=skip, max_rows=want, dtype=dtype,
                               ndmin=1)
            n, skip = len(chunk), 0
            if not n:
                break
            if count + n > hi - lo:
                return None
            raw = chunk.view(np.uint8).reshape(n, dtype.itemsize)
            if (raw[:, TEXT_WIDTH - 1] | raw[:, 2 * TEXT_WIDTH - 1]).any():
                return None
            words = chunk.view(np.uint64).reshape(n, -1)
            xs, ys = words[:, :w], words[:, w:2 * w]
            own = min(n, max(0, nx - count))  # rows of the block's first nx
            if own:
                x_text.append(xs[:own].copy())
            if own < n:
                x_text = [np.concatenate(x_text)] if len(x_text) > 1 else x_text
                if not _cyclic(xs[own:], x_text[0], (count + own) % nx):
                    return None
            if not count:
                carry = ys[:1].copy()  # the y text of the grid row in progress
                if lo % nx:
                    y_text.append(carry)
            head = min(n, -(lo + count) % nx)  # rows before the first grid row start
            starts = ys[head::nx]
            if not ((ys[:head] == carry).all() and _runs(ys[head:], nx)):
                return None
            if len(starts):
                y_text.append(starts.copy())
                carry = y_text[-1][-1:]
            values[count:count + n] = chunk["v"]
            count += n
            if n < want:
                break
    if count != hi - lo:
        return None
    return values, np.concatenate(x_text), np.concatenate(y_text)


def _cyclic(texts, pattern, phase: int) -> bool:
    """Whether texts[k] is pattern[(phase + k) % len(pattern)] for each k."""
    n = len(pattern)
    head = min(len(texts), -phase % n)
    full = head + (len(texts) - head) // n * n
    return bool((texts[:head] == pattern[phase:phase + head]).all()
                and (texts[head:full].reshape(-1, n, texts.shape[1]) == pattern).all()
                and (texts[full:] == pattern[:len(texts) - full]).all())


def _runs(texts, n: int) -> bool:
    """Whether each run of n texts, and the shorter one after them, holds
    one text n times."""
    full = len(texts) // n * n
    return bool((texts[:full].reshape(-1, n, texts.shape[1]) == texts[:full:n, None]).all()
                and (texts[full:] == texts[full:full + 1]).all())


def _holds_nul(csv_path, start: int, stop: int) -> bool:
    """Whether bytes [start, stop) of the file hold a NUL byte."""
    buf = bytearray(min(1 << 20, max(0, stop - start)))
    with open(csv_path, "rb", buffering=0) as fh:
        fh.seek(start)
        while start < stop:
            n = fh.readinto(memoryview(buf)[:stop - start])
            if not n:
                return False
            if buf.find(b"\0", 0, n) >= 0:
                return True
            start += n
    return False


def _row_starts(lo: int, hi: int, nx: int) -> np.ndarray:
    """The rows of block [lo, hi) whose y texts it gives back: its first
    row and each grid row's first node in it."""
    starts = np.arange(lo - lo % nx, hi, nx)
    starts[0] = lo
    return starts


def _reference_texts(nx: int, ny: int, anchors):
    """The x texts of grid row 0 and the y texts of each grid row's first
    node, as two arrays of TEXT_WIDTH-byte strings, when every block's (lo,
    hi, x texts, y texts) of `anchors` agrees with them; else None."""
    x_ref = np.zeros((nx, TEXT_WIDTH // 8), np.uint64)
    y_ref = np.zeros((ny, TEXT_WIDTH // 8), np.uint64)
    for lo, hi, x_text, y_text in anchors:
        x_ref[lo:min(hi, nx)] = x_text[:max(0, min(hi, nx) - lo)]
        starts = _row_starts(lo, hi, nx)
        first = starts % nx == 0
        y_ref[starts[first] // nx] = y_text[first]
    for lo, hi, x_text, y_text in anchors:
        starts = _row_starts(lo, hi, nx)
        if not ((x_text == x_ref[(lo + np.arange(len(x_text))) % nx]).all()
                and (y_text == y_ref[starts // nx]).all()):
            return None
    return x_ref.view(f"S{TEXT_WIDTH}")[:, 0], y_ref.view(f"S{TEXT_WIDTH}")[:, 0]


def _text_floats(texts):
    """The numbers the byte strings `texts` spell, as np.loadtxt reads them,
    or None when one is no number to it: float() also reads ``_`` between
    digits, which np.loadtxt does not. The texts are ASCII."""
    words = texts.tolist()
    if any(b"_" in word for word in words):
        return None
    try:
        return np.array([float(word) for word in words])
    except ValueError:
        return None


def _parse_blocks(csv_path, ncols: int, nx: int, rows: int, blocks: int):
    """The values of the data rows parsed as `blocks` contiguous blocks of
    rows in forked children, with each block's (lo, hi, x texts, y texts);
    None when a child fails or sends a block of the wrong shape.

    Child i parses data rows [lo, hi) with `_parse_text_block` (the last
    block reads to the end), checks bytes [size * i // blocks, size * (i +
    1) // blocks) of the file for a NUL and sends its row count, values
    and texts down its pipe; the parent only collects them. skiprows counts
    lines and max_rows data rows, so a blank or comment line before a
    block's first row makes that block start early and repeat a row of the
    block before it, and a whitespace-only line makes a child fail. A
    repeated row sits at two grid nodes, which no row matches once the
    descriptor's spacing is above the coordinates' resolution, so the text
    check fails: a result of the right shape whose texts pass is the serial
    np.loadtxt result, bit for bit.
    """
    bounds = [rows * i // blocks for i in range(blocks + 1)]
    size = csv_path.stat().st_size
    nv, w = ncols - 2, TEXT_WIDTH // 8

    def parse(i, pipe):
        lo, hi = bounds[i], bounds[i + 1]
        nul_span = (size * i // blocks, size * (i + 1) // blocks)
        parsed = _parse_text_block(csv_path, ncols, nx, lo, hi, i == blocks - 1, nul_span)
        if parsed is None:
            return
        pipe.write(np.array((hi - lo, nv), dtype=np.int64).tobytes())
        for part in parsed:
            pipe.write(memoryview(part).cast("B"))

    def gather(pipes):
        # allocated once block 0 has its shape, so the file holds a
        # 1/blocks share of the rows: a sidecar's nx*ny alone allocates nothing
        out, anchors = None, []
        shape = np.empty(2, dtype=np.int64)
        for lo, hi, pipe in zip(bounds, bounds[1:], pipes):
            if not (_read_exactly(pipe, shape) and tuple(shape) == (hi - lo, nv)):
                return None
            if out is None:
                out = np.empty((rows, nv))
            x_text = np.empty((min(nx, hi - lo), w), np.uint64)
            y_text = np.empty((len(_row_starts(lo, hi, nx)), w), np.uint64)
            if not all(_read_exactly(pipe, a) for a in (out[lo:hi], x_text, y_text)):
                return None
            anchors.append((lo, hi, x_text, y_text))
        return out, anchors

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
        raise _not_finite(csv_path, names)
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
    stacked columns. Each of the nx + ny coordinates is formatted once into
    a slot (`_sci_slots`), and the lines are laid out and written in chunks
    of whole grid rows (`_grid_text`), about BLOCK_BYTES / 16 of text each,
    so the writer holds about one chunk at a time. Every slot starts with
    the separator before its number, a newline before a line's x, so the
    header goes out without its newline and the file ends with one.
    """
    ny, nx = columns[0].shape
    if any(c.shape != (ny, nx) for c in columns):
        raise ValueError("value grids must share one (ny, nx) shape")
    xs = _sci_slots(origin.real + np.arange(nx) * spacing, b"\n")
    ys = _sci_slots(origin.imag + np.arange(ny) * spacing, b",")
    row_bytes = nx * SLOT_BYTES * (2 + len(columns))
    step = max(1, BLOCK_BYTES // 16 // max(row_bytes, 1))  # grid rows per chunk
    with open(csv_path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, ny, step):
            fh.write(_grid_text(xs, ys, columns, lo, lo + step))
        fh.write(b"\n")


def _grid_text(xs, ys, columns, lo: int, hi: int) -> bytes:
    """The CSV lines of grid rows [lo, hi), each after its newline, from
    the coordinate slots `xs` (nx, width) and `ys` (ny, width)."""
    values = np.stack([c[lo:hi] for c in columns], axis=-1)
    rows, nx, k = values.shape
    slots = _sci_slots(values.ravel(), b",")
    slots = slots.reshape(rows, nx, k * slots.shape[1])
    wx, wy = xs.shape[1], ys.shape[1]
    lines = np.empty((rows, nx, wx + wy + slots.shape[2]), np.uint8)
    lines[:, :, :wx] = xs
    lines[:, :, wx:wx + wy] = ys[lo:hi, None]
    lines[:, :, wx + wy:] = slots
    return lines[lines != 0].tobytes()


#: bytes of a slot of `_sci_slots`: the separator, the sign or a NUL, and
#: ``%.18e`` of a magnitude whose decimal exponent has two digits
SLOT_BYTES = 26

#: a slot's fields, their types and byte offsets: the separator, the sign
#: or a NUL, the first digit with the point and digits 1-2, digits 3-6,
#: 7-10, 11-14 and 15-18, and ``e`` with the exponent's sign and two digits
_SLOT_FIELDS = (("sep", "u1", 0), ("sign", "u1", 1), ("lead", "<u4", 2), ("g1", "<u4", 6),
                ("g2", "<u4", 10), ("g3", "<u4", 14), ("g4", "<u4", 18), ("exp", "<u4", 22))


def _sci_slots(values, sep: bytes) -> np.ndarray:
    """``sep + b"%.18e" % v`` for each float v of `values`, one row each of
    a (values.size, width) uint8 array, padded with NUL bytes.

    The width is SLOT_BYTES, or more when a value's text is longer. ±0
    and every |v| in [2^-29, 2^48), whose decimal exponent lies in [-9,
    14], are formatted in integer arithmetic (`_decimal`) to the bytes
    ``%`` gives. The rest (nan, ±inf, subnormal, tiny or huge numbers)
    take ``%`` one value at a time.
    """
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    fast = (a >= 2.0**-29) & (a < 2.0**48)  # nan is neither
    other = np.flatnonzero(~fast & (a != 0.0))
    texts = [b"%.18e" % x for x in v[other].tolist()]
    width = 1 + max([SLOT_BYTES - 1] + [len(t) for t in texts])
    names, formats, offsets = zip(*_SLOT_FIELDS)
    out = np.zeros(v.size, np.dtype({"names": names, "formats": formats,
                                     "offsets": offsets, "itemsize": width}))
    slow = ~fast
    a[slow] = 1.0  # a stand-in: ±0 gets zero digits below, the rest its text
    digits, exp10 = _decimal(a)
    digits[slow] = 0
    exp10[slow] = 0
    four, lead, exponent = _ascii_tables()
    out["sep"] = ord(sep)
    out["sign"] = np.where(np.signbit(v), ord("-"), 0)
    for field in ("g4", "g3", "g2", "g1"):  # 4 digits at a time, from the last
        rest = digits // 10**4
        out[field] = four.take(digits - rest * 10**4)
        digits = rest
    out["lead"] = lead.take(digits)
    out["exp"] = exponent.take(exp10 + 9)
    slots = out.view(np.uint8).reshape(v.size, width)
    if texts:
        slots[other, 1:] = np.array(texts, f"S{width - 1}").view(np.uint8).reshape(-1, width - 1)
    return slots


@functools.cache
def _ascii_tables():
    """The ASCII bytes, as little-endian uint32, of each 4-digit group
    0000-9999, of each 3-digit lead as ``d.dd`` (0.00-9.99, indexed by
    0-999) and of the exponents ``e-09`` to ``e+14`` (indexed by k + 9)."""
    k = np.arange(10000)
    four = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1).astype(np.uint8)
    four += ord("0")
    lead = four[:1000, [1, 0, 2, 3]].copy()
    lead[:, 1] = ord(".")
    exponent = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-9, 15)), "<u4")
    tables = four.view("<u4").ravel(), lead.view("<u4").ravel(), exponent
    for table in tables:
        table.flags.writeable = False  # every caller shares them
    return tables


@functools.cache
def _powers_of_5() -> np.ndarray:
    """5^q for q in [0, 27], every power of 5 below 2^64, as uint64."""
    powers = np.array([5**q for q in range(28)], np.uint64)
    powers.flags.writeable = False  # every caller shares it
    return powers


def _decimal(a):
    """(N, E) with 10^18 <= N < 10^19 the 19 significant digits of a = N
    10^(E - 18), rounded half to even, as uint64 and int64 arrays, for
    float64 a in [2^-29, 2^48).

    With a = m 2^e (m < 2^53 an integer) and q = 18 - E in [4, 27], N is
    m 5^q 2^(e + q) rounded: the product m 5^q is exact in 128 bits, and
    it is shifted right by 1 to 54 bits (`_scaled`). E starts at
    floor(log10 a), which may be one off near a power of 10; every N
    outside [10^18, 10^19), an N past 64 bits included, moves its E by one
    and is formed again, so the result does not depend on the last bits
    of np.log10.
    """
    mantissa, e = np.frexp(a)
    m = np.ldexp(mantissa, 53).astype(np.uint64)
    e = e - 53
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    digits = _scaled(m, e, exp10)
    while True:
        step = (digits >= 10**19).astype(np.int64) - (digits < 10**18)
        moved = np.flatnonzero(step)
        if not moved.size:
            return digits, exp10
        exp10[moved] += step[moved]
        digits[moved] = _scaled(m[moved], e[moved], exp10[moved])


def _scaled(m, e, exp10):
    """m 2^e 10^(18 - exp10) rounded half to even, as uint64, or 2^64 - 1
    where it is 10^19 or more before rounding (past 64 bits included).
    The product and its shifts stay in uint64, since numpy takes an int64
    and a uint64 together to float64; the 128-bit product is formed from
    32-bit limbs."""
    q = 18 - exp10
    power = _powers_of_5().take(q)
    shift = (-(e + q)).astype(np.uint64)
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    p_lo, p_hi = power & 0xFFFFFFFF, power >> 32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi  # below 2^53 + 2^63
    lower = low + (mid << 32)  # the product's low 64 bits
    upper = m_hi * p_hi + (mid >> 32) + (lower < low)  # and its high 64 bits
    left = 64 - shift
    n = upper << left | lower >> shift
    big = (upper >> shift != 0) | (n >= 10**19)
    n += lower << left > 2**63 - (n & 1)  # the bits shifted out, against one half
    n[big] = np.iinfo(np.uint64).max
    return n


def _write_sidecar(csv_path, desc: dict) -> None:
    sidecar_path(csv_path).write_text(json.dumps(desc, sort_keys=True) + "\n")


def load_sampled_field(csv_path, interpolation: str = "bilinear") -> SampledField:
    """Read a sampled complex-distortion grid (CSV + sidecar descriptor)."""
    desc = _load_descriptor(csv_path, "k_max", (0.0, 1.0))
    data = _load_grid_csv(csv_path, MU_HEADER, desc)
    # the adjacent re, im columns of each row read as one complex number in
    # place: no complex grid is built, and signed zeros survive as written
    values = data.view(complex)[:, 0].reshape(desc["ny"], desc["nx"])
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
    a11, a12, a22 = (data[:, col].reshape(desc["ny"], desc["nx"]) for col in range(3))
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
