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

A grid CSV is read as bytes in one process (`_byte_parse`), in chunks of
whole lines of at most ``CHUNK_BYTES``. A line is canonical when each of
its fields is ``[-]d.dddddddddddddddddde±dd`` (or ``e±ddd``), which is
what the writers and ``np.savetxt(fmt="%.18e")`` write (`_parse_lines`).
A value field is converted exactly from its 19 digits N and exponent E,
in integer arithmetic on every platform: N times the 64 leading bits of
10^(E - 18) is formed in 128 bits and rounded to float64, which is exact
unless the product lies too near a float64 midpoint to tell (`_floats`).
Such a field and one with a 3-digit exponent (a subnormal, say) take
``float()``, which rounds correctly as np.loadtxt does (`_column_values`).
A row's x must be byte-equal to the x at its column of grid row 0, and
its y to the y of its grid row's first node; those nx + ny reference
texts are parsed with ``float()`` and checked against the descriptor
(`_on_axis`). Equal text is an equal float, so every node gets the
verdict a float read gives it. A file with a line that is not canonical
(a CRLF end, a ``+`` sign, another digit count, a blank or comment line,
a NUL byte, ...), a value past the float range, a wrong row count or a
reference off the grid is read serially as floats (`_loadtxt`,
`_off_grid`), the one source of its error messages. A result that stands
is thus bit-identical to one np.loadtxt call. No load or save starts
another process.
"""

from __future__ import annotations

import functools
import json
import math
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

#: bytes of grid CSV text a load holds at once, in whole lines; a save
#: formats about a quarter of that at once
CHUNK_BYTES = 1 << 20


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
    # largest each (half a tolerance), so rows out of place fail the check.
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

    The file is first read as bytes (`_byte_parse`), with the coordinates
    compared as text with those of grid row 0 and of each grid row's first
    node. When that read does not stand (a line that is not canonical, a
    value past the float range, a wrong row count or a reference off the
    grid), the file is read serially as floats and checked by `_off_grid`;
    every value and message is thus the serial one.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise ConfigError(f"no such file: {csv_path}")
    first = _first_line(csv_path)
    if first.replace(" ", "") != header:
        raise ConfigError(f"{csv_path} must start with header {header!r}, got {first!r}")
    names = header.split(",")
    values = _byte_parse(csv_path, names, desc)
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


def _byte_parse(csv_path, names, desc: dict):
    """The (nx*ny, len(names) - 2) values of a grid CSV whose data lines are
    all canonical, read as bytes with x, y compared as text; None when the
    file is not so: a line that is not canonical (`_parse_lines`), a value
    that is not finite, a wrong row count, or a reference text that is not
    on the descriptor's axes.

    The lines after the header are read in chunks of whole lines into one
    buffer of CHUNK_BYTES, and the bytes after a chunk's last newline start
    the next chunk; the file's last line may lack its newline. Each row's x
    key must equal the x key of grid row 0 at its column (`_x_repeats`) and
    its y key that of its grid row's first node (`_y_repeats`); the texts
    of those nx + ny keys are checked last (`_reference_texts`).
    """
    nx, ny, ncols = desc["nx"], desc["ny"], len(names)
    rows = nx * ny
    # a canonical line holds at least 25 bytes a field, so a sidecar's nx*ny
    # far beyond the file allocates nothing
    if rows > csv_path.stat().st_size // (25 * ncols):
        return None
    pad = 32 * ncols  # see `_parse_lines`
    buf = bytearray(pad + CHUNK_BYTES + 1)  # and a newline after a last line without one
    buf[pad - 1] = ord("\n")
    values = np.empty((rows, ncols - 2))
    x_ref = np.empty((nx, 4), np.uint64)
    y_ref = np.empty((ny, 4), np.uint64)
    done = carry = 0  # rows read, and bytes of a line the last chunk began
    with open(csv_path, "rb") as fh:
        fh.readline()  # the header, checked by the caller
        while True:
            got = fh.readinto(memoryview(buf)[pad + carry:pad + CHUNK_BYTES])
            stop = pad + carry + got
            if not got and carry:  # the last line, without its newline
                buf[stop] = ord("\n")
                stop += 1
            end = buf.rfind(b"\n", pad, stop) + 1
            if not end:  # no whole line
                if stop == pad:  # the end of the file
                    break
                if stop == pad + CHUNK_BYTES:  # a line longer than the buffer
                    return None
                carry = stop - pad
                continue
            parsed = _parse_lines(buf, end, ncols)
            if parsed is None or done + len(parsed[0]) > rows:
                return None
            chunk, x_keys, y_keys = parsed
            if not (_x_repeats(x_keys, x_ref, done) and _y_repeats(y_keys, y_ref, done, nx)):
                return None
            values[done:done + len(chunk)] = chunk
            done += len(chunk)
            carry = stop - end
            buf[pad:pad + carry] = buf[end:stop]
    if done != rows:
        return None
    texts = [_reference_texts(ref) for ref in (x_ref, y_ref)]
    if None in texts:
        return None
    origin, h = desc["origin"], desc["spacing"]
    for text, start, n in zip(texts, (origin.real, origin.imag), (nx, ny)):
        if not _on_axis(_text_floats(text), start, n, h).all():
            return None
    return values


def _parse_lines(buf, end: int, ncols: int):
    """The fields of the lines of buf[32 * ncols:end], each ending at its
    newline, after the newline at byte 32 * ncols - 1: (values, x keys, y
    keys), the values an (n, ncols - 2) float array and the keys (n, 4)
    uint64 arrays, for n lines of ncols canonical fields; None when a line
    is not so.

    A canonical field is ``[-]d.dddddddddddddddddde±dd``, or ``e±ddd`` for
    a value, between separators: commas, and newlines before the first
    field and after the last. Each field is read back from the separator
    after it, as the 32 bytes before that separator: three little-endian
    words hold its last 24 bytes, and the word before them the sign or the
    separator before it (shifted by a byte for a 3-digit exponent). The
    separator before a line's first field must be a newline: since no
    field holds one, it ends the line before. A coordinate's key is the
    byte before its last 24 and those three words: a key equal to that of
    a canonical coordinate with a 2-digit exponent is an equal text. The
    bytes before 32 * ncols only keep the gathers of a line too short to
    hold its fields inside buf.
    """
    pad = 32 * ncols
    ends = np.flatnonzero(np.frombuffer(buf, np.uint8, end - pad, pad) == ord("\n")) + pad
    quads = np.ndarray((end - 31,), "V32", buf, 0, (1,))  # the 32 bytes from each offset
    fields = [None] * ncols
    at = ends  # the separator after field j
    ok = np.ones(len(ends), bool)
    for j in reversed(range(ncols)):
        words = quads[at - 32].view(np.uint64).reshape(-1, 4)
        wide = ((words[:, 3] >> 32) & 0xFF) != ord("e")  # a 3-digit exponent
        before = words[:, 0]
        if wide.any():
            before = before << (wide * np.uint64(8))
        last = before >> 56
        neg = last == ord("-")
        sep = ord(",") if j else ord("\n")
        ok &= (last == sep) | ((before >> 48) == (ord("-") << 8 | sep))
        if j < 2:  # a coordinate: its key
            words[:, 0] = last
        fields[j] = words, wide, neg, at
        at = at - 25 - wide - neg
    if not ok.all():
        return None
    values = np.empty((len(ends), ncols - 2))
    for j in range(2, ncols):
        column = _column_values(buf, *fields[j])
        if column is None:
            return None
        values[:, j - 2] = column
    return values, fields[0][0], fields[1][0]


def _column_values(buf, words, wide, neg, ends):
    """The floats of the value fields that end at the offsets `ends` of buf,
    given their 32-byte `words`, 3-digit-exponent flags `wide` and signs
    `neg` (`_parse_lines`); None when one is not canonical or not finite
    (a 3-digit exponent past the float range).

    The 19 digits N and the exponent E of a field give N 10^(E - 18)
    (`_decimal_parts`, `_floats`). A field that `_floats` flags and one with
    a 3-digit exponent take float() of its text instead.
    """
    w0, w1, w2 = words[:, 1:].T.copy()
    ok = _canonical(w0, w1, w2)
    if wide.any():  # their 25 bytes start a byte early, and end in a digit
        text = words[wide].view(np.uint8)[:, 7:]
        ok[wide] = (_canonical(*text[:, :24].copy().view(np.uint64).T)
                    & (text[:, 24] - ord("0") <= 9))
    if not ok.all():
        return None
    out, slow = _floats(*_decimal_parts(w0, w1, w2))
    slow |= wide
    redo = np.flatnonzero(slow)
    texts = words[redo, 1:].copy().view("S24")[:, 0].tolist()  # the last 24 bytes
    for k in np.flatnonzero(wide[redo]).tolist():
        end = int(ends[redo[k]])
        texts[k] = bytes(buf[end - 25:end])
    out[redo] = [float(text) for text in texts]
    if not np.isfinite(out[redo]).all():
        return None
    bits = out.view(np.uint64)
    bits |= neg.astype(np.uint64) << 63  # every magnitude above is positive
    return out


#: ``0`` in each byte of a word
_ZEROS = int.from_bytes(b"00000000", "little")

#: each word of a canonical text ``d.dddddddddddddddddde+dd``, with 0 for
#: each digit, and per byte what a byte of the word XOR the template may
#: add to stay below 16: 6 for a digit (0-9), 15 for a literal (0 only)
_TEMPLATES = (int.from_bytes(b"0.000000", "little"), _ZEROS,
              int.from_bytes(b"0000e+00", "little"))
_ADDENDS = (0x0606060606060F06, 0x0606060606060606, 0x06060F0F06060606)


def _canonical(w0, w1, w2):
    """Whether the 24 bytes of each text, as the little-endian uint64 words
    w0, w1, w2, are ``d.dddddddddddddddddde±dd``."""
    # an exponent's - (0x2D) is + (0x2B) with bits 1 and 2 flipped
    minus = (w2 >> 42) & 1
    w2 = w2 ^ (minus << 41 | minus << 42)
    bad = np.zeros(len(w0), np.uint64)
    for word, template, addend in zip((w0, w1, w2), _TEMPLATES, _ADDENDS):
        x = word ^ template
        bad |= x | (x + addend)
    return (bad & 0xF0F0F0F0F0F0F0F0) == 0


def _eight_digits(t):
    """The 8-digit number whose digits, first the most significant, are
    the bytes 0-9 of each little-endian uint64 of t."""
    t = t * 10 + (t >> 8)  # two-digit numbers in bytes 0, 2, 4 and 6
    return ((t & 0x000000FF000000FF) * (100 + (1000000 << 32))
            + ((t >> 16) & 0x000000FF000000FF) * (1 + (10000 << 32))) >> 32


def _decimal_parts(w0, w1, w2):
    """(N, E) as uint64 and int64 arrays for canonical texts ``d.ddd...e±dd``
    given as their little-endian words w0, w1, w2: N the 19 digits as one
    integer and E the exponent, so a text is N 10^(E - 18)."""
    t0 = (w0 ^ _ZEROS) & 0xFFFFFFFFFFFF00FF  # d0, the point as 0, d1-d6
    lead = _eight_digits(t0) - (t0 & 0xFF) * 9000000  # d0 d1 ... d6
    t2 = w2 ^ _ZEROS
    pairs = t2 * 10 + (t2 >> 8)  # d15 d16 in byte 0, d17 d18 in byte 2
    tail = (pairs & 0xFF) * 100 + ((pairs >> 16) & 0xFF)
    digits = lead * 10**12 + _eight_digits(w1 ^ _ZEROS) * 10**4 + tail
    size = ((t2 >> 48) & 0xFF) * 10 + (t2 >> 56)
    minus = (w2 >> 42) & 1
    return digits, ((size ^ -minus) + minus).view(np.int64)


@functools.cache
def _powers_of_10():
    """For E in [-99, 99], indexed by E + 99: the high and low 32-bit halves
    of the uint64 P in [2^63, 2^64) with 10^(E - 18) = (P + f) 2^s for some
    f in [0, 1), and 1148 + s, from which `_floats` forms a float64's
    exponent field."""
    high, terms = [], []
    for q in range(-117, 82):  # E - 18
        num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
        s = num.bit_length() - den.bit_length() - 64
        p = (num << max(-s, 0)) // (den << max(s, 0))
        if p >> 64:
            s += 1
            p = (num << max(-s, 0)) // (den << max(s, 0))
        high.append(p)
        terms.append(1148 + s)
    high = np.array(high, np.uint64)
    tables = high >> 32, high & 0xFFFFFFFF, np.array(terms, np.uint64)
    for table in tables:
        table.flags.writeable = False  # every caller shares them
    return tables


def _floats(digits, exp10):
    """(N 10^(E - 18) as float64, whether it may be rounded wrongly) for
    uint64 N and int64 E in [-99, 99], in integer arithmetic; an E outside
    that range gives nothing of use.

    N is shifted left by z bits to w in [2^63, 2^64) and multiplied by the
    P of `_powers_of_10`. The product is exact in 128 bits, formed from
    32-bit limbs, and the true w 10^(E - 18) 2^-s lies in [wP, wP + w), so
    its high 64 bits are U, those of wP, or U + 1. U has 63 or 64 bits: its
    first 53 are the float64's significand, the next is the rounding bit,
    and rounding half up rounds U and U + 1 alike to nearest, unless the
    bits from the rounding bit on are 0111...1 (a carry may set it) or
    1000...0 (the value may be a tie). Those two are flagged. Each value
    is a normal float64: |N 10^(E - 18)| lies in [1e-117, 1e100) or is 0.
    This is the first step of Lemire's "Number Parsing at a Gigabyte per
    Second" (2021), with float() in place of its second product."""
    high, low, terms = _powers_of_10()
    at = exp10 + 99
    # in place where it can be: each new temporary of a chunk's column is an allocation
    z = digits.astype(np.float64).view(np.uint64)
    z >>= 52
    np.subtract(1086, z, out=z)  # N's leading zeros, or one fewer
    w = digits << z
    short = w >> 63
    short ^= 1
    w <<= short
    z += short
    w_hi = w >> 32
    w &= 0xFFFFFFFF  # w's low half
    p = low.take(at, mode="clip")
    mid = w_hi * p
    p *= w
    p >>= 32
    mid += p  # below 2^64, as is `cross`
    high.take(at, out=p, mode="clip")
    cross = w * p
    p *= w_hi
    upper = mid >> 32
    upper += p
    mid &= 0xFFFFFFFF
    cross += mid
    cross >>= 32
    upper += cross
    top = upper >> 63
    drop = top + 9
    rounded = upper >> drop  # the significand and the rounding bit
    bits = terms.take(at, mode="clip")
    bits += top
    bits -= z
    bits <<= 52
    rounded += 1  # rounded half up
    rounded >>= 1
    bits += rounded
    bits[digits == 0] = 0
    half = np.left_shift(1, drop, out=drop)  # the rounding bit; below it, the dropped bits
    tail = upper & (2 * half - 1)
    tail -= half
    return bits.view(np.float64), tail + 1 <= 1


def _x_repeats(keys, x_ref, lo: int) -> bool:
    """Whether the x keys of data rows lo, lo + 1, ... each equal the key of
    grid row 0 at their column, after those of grid row 0 among them are
    put into `x_ref` (one per column)."""
    nx = len(x_ref)
    head = np.arange(lo, lo + min(len(keys), nx))  # the rest repeat a row before them
    own = head < nx
    x_ref[head[own]] = keys[:len(head)][own]
    return bool((keys[:len(head)] == x_ref[head % nx]).all() and (keys[nx:] == keys[:-nx]).all())


def _y_repeats(keys, y_ref, lo: int, nx: int) -> bool:
    """Whether the y keys of data rows lo, lo + 1, ... each equal the key of
    their grid row's first node, after those of the first nodes among them
    are put into `y_ref` (one per grid row)."""
    first = -lo % nx  # the first row starting a grid row
    starts = np.arange(first, len(keys), nx)
    y_ref[(lo + starts) // nx] = keys[starts]
    differs = (keys[1:] != keys[:-1]).any(axis=1)
    differs[starts[starts > 0] - 1] = False
    return not differs.any() and (first == 0 or bool((keys[0] == y_ref[lo // nx]).all()))


def _reference_texts(keys):
    """The texts of the coordinate keys `keys` (`_parse_lines`), or None
    when one is not canonical."""
    if not _canonical(*keys[:, 1:].T).all():
        return None
    bodies = keys[:, 1:].copy().view("S24")[:, 0].tolist()
    return [b"-" + body if last == ord("-") else body
            for body, last in zip(bodies, keys[:, 0].tolist())]


def _text_floats(texts):
    """The numbers the canonical byte strings `texts` spell, as np.loadtxt
    reads them."""
    return np.array([float(text) for text in texts])


def _off_grid(csv_path, names, data, desc):
    """The first node [iy, ix] whose row's x, y are off the grid of the
    descriptor `desc`, or None. The rows must first be nx*ny rows of
    len(names) finite numbers; a ConfigError says where they are not."""
    nx, ny, h = desc["nx"], desc["ny"], desc["spacing"]
    if len(data) == 0:
        raise ConfigError(f"{csv_path}: 0 data rows but descriptor says nx*ny = {nx * ny}")
    if data.shape[1] != len(names) or not np.isfinite(data).all():
        # np.loadtxt read these rows: `_bad_line` names the first bad one
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
    stacked columns. Each of the nx + ny coordinates is formatted once into
    a slot (`_sci_slots`), and the lines are laid out and written in chunks
    of whole grid rows (`_grid_text`), about CHUNK_BYTES / 4 of text each,
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
    step = max(1, CHUNK_BYTES // 4 // max(row_bytes, 1))  # grid rows per chunk
    with open(csv_path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, ny, step):
            fh.write(_grid_text(xs, ys, columns, lo, lo + step))
        fh.write(b"\n")


def _grid_text(xs, ys, columns, lo: int, hi: int) -> bytes:
    """The CSV lines of grid rows [lo, hi), each after its newline, from
    the coordinate slots `xs` (nx, width) and `ys` (ny, width): the slots
    laid out in order, with their NUL bytes dropped."""
    values = np.stack([c[lo:hi] for c in columns], axis=-1)
    rows, nx, k = values.shape
    slots = _sci_slots(values.ravel(), b",")
    slots = slots.reshape(rows, nx, k * slots.shape[1])
    wx, wy = xs.shape[1], ys.shape[1]
    lines = np.empty((rows, nx, wx + wy + slots.shape[2]), np.uint8)
    lines[:, :, :wx] = xs
    lines[:, :, wx:wx + wy] = ys[lo:hi, None]
    lines[:, :, wx + wy:] = slots
    return lines.tobytes().replace(b"\0", b"")


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
