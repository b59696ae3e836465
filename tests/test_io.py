import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qcreg.io

from qcreg import (
    ConfigError,
    DomainSpec,
    FieldValidationError,
    QuadratureConfig,
    SampledField,
    comparison_bounds,
    elliptic_holder_bound,
    load_matrix_field,
    load_sampled_field,
    save_matrix_field,
    matrix_from_beltrami,
    save_sampled_field,
    validate_matrix_field,
)
from qcreg.cli import main
from qcreg.io import MATRIX_HEADER, MU_HEADER, sidecar_path
from qcreg.plane import disk_samples


def make_field(n=33, half_width=1.2, k=0.25):
    h = 2 * half_width / (n - 1)
    xs = -half_width + h * np.arange(n)
    zz = xs[None, :] + 1j * xs[:, None]
    values = k * np.exp(1j * np.angle(zz + 0.7 + 0.3j))
    return SampledField(
        origin=complex(-half_width, -half_width), spacing=h, values=values, k_max=k
    )


class TestSampledFieldIO:
    def test_round_trip(self, tmp_path):
        field = make_field()
        path = tmp_path / "mu.csv"
        save_sampled_field(path, field)
        assert sidecar_path(path).exists()
        loaded = load_sampled_field(path)
        assert loaded.spacing == pytest.approx(field.spacing)
        assert loaded.origin == field.origin
        assert np.abs(loaded.values - field.values).max() <= 1e-12
        z = np.array([0.3 + 0.2j, -0.5 - 0.1j])
        assert np.abs(loaded.evaluate(z) - field.evaluate(z)).max() <= 1e-12

    def test_header_written(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, make_field())
        assert path.read_text().splitlines()[0] == "x,y,re,im"

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, make_field())
        sidecar_path(path).unlink()
        with pytest.raises(ConfigError, match="sidecar"):
            load_sampled_field(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, make_field())
        text = path.read_text().splitlines()
        text[0] = "a,b,c,d"
        path.write_text("\n".join(text))
        with pytest.raises(ConfigError, match="header"):
            load_sampled_field(path)

    def test_descriptor_mismatch_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, make_field())
        desc = json.loads(sidecar_path(path).read_text())
        desc["spacing"] *= 2
        sidecar_path(path).write_text(json.dumps(desc))
        with pytest.raises(ConfigError):
            load_sampled_field(path)

    def test_nearest_interpolation_option(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, make_field())
        loaded = load_sampled_field(path, interpolation="nearest")
        assert loaded.interpolation == "nearest"


class TestMatrixFieldIO:
    def _write(self, tmp_path, mu=1 / 3):
        # constant det-1 grid from a real coefficient
        n = 17
        h = 2.4 / (n - 1)
        shape = (n, n)
        a11 = np.full(shape, (1 - mu) ** 2 / (1 - mu**2))
        a12 = np.zeros(shape)
        a22 = np.full(shape, (1 + mu) ** 2 / (1 - mu**2))
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, (a11, a12, a22), origin=-1.2 - 1.2j, spacing=h, K=2.0)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path)
        field = load_matrix_field(path)
        assert field.K == 2.0
        assert field.determinant(np.array([0.1 + 0.2j]))[0] == pytest.approx(1.0, abs=1e-12)
        a11, a12, a22 = field(np.array([0.1 + 0.2j]))
        assert a11[0] == pytest.approx(0.5)
        assert a22[0] == pytest.approx(2.0)

    def test_header_written(self, tmp_path):
        path = self._write(tmp_path)
        assert path.read_text().splitlines()[0] == "x,y,a11,a12,a22"

    def test_validates_after_load(self, tmp_path):
        field = validate_matrix_field(load_matrix_field(self._write(tmp_path)))
        lo, hi = field.eigenvalues(np.array([0.5 + 0.5j]))
        assert lo[0] == pytest.approx(0.5)
        assert hi[0] == pytest.approx(2.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_matrix_field(tmp_path / "nope.csv")


def savetxt_oracle(tmp_path, header, origin, spacing, columns):
    """Bytes np.savetxt writes for the stacked grid columns: the reference
    the grid writers must match."""
    ny, nx = columns[0].shape
    ix = np.tile(np.arange(nx), ny)
    iy = np.repeat(np.arange(ny), nx)
    rows = np.column_stack(
        [origin.real + ix * spacing, origin.imag + iy * spacing]
        + [np.asarray(c, dtype=float).reshape(-1) for c in columns]
    )
    path = tmp_path / "oracle.csv"
    np.savetxt(path, rows, fmt="%.18e", delimiter=",", header=header, comments="")
    return path.read_bytes()


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e-300, np.nan, np.inf, -np.inf, 0.1, -1 / 3,
]


def special_grid(shape, shift):
    return np.resize(np.roll(SPECIAL_VALUES, shift), shape)


def raw_sampled_field(values, origin, spacing):
    """A SampledField holding `values` unchecked: the writer must write even
    what validation rejects (non-finite, |mu| >= 1)."""
    values = np.asarray(values, dtype=complex)
    return tuple.__new__(SampledField, (complex(origin), spacing, values, 0.5, "bilinear"))


GRID_SHAPES = [(1, 1), (1, 5), (4, 1), (3, 7), (65, 65)]


class TestGridWriterMatchesSavetxt:
    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_sampled_field_smooth(self, tmp_path, shape):
        field = make_field()
        values = np.resize(field.values, shape)
        field = SampledField(origin=field.origin, spacing=field.spacing, values=values, k_max=0.25)
        path = tmp_path / "mu.csv"
        save_sampled_field(path, field)
        columns = (field.values.real, field.values.imag)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, "x,y,re,im", field.origin, field.spacing, columns
        )

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_sampled_field_special_values(self, tmp_path, shape):
        origin, spacing = complex(-3.7, -0.0), np.float64(0.1)
        re, im = special_grid(shape, 0), special_grid(shape, 3)
        values = re.astype(complex)
        values.imag = im
        path = tmp_path / "mu.csv"
        save_sampled_field(path, raw_sampled_field(values, origin, spacing))
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, "x,y,re,im", origin, spacing, (re, im)
        )

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_matrix_field_special_values(self, tmp_path, shape):
        origin, spacing = complex(-1e-3, -250.0), np.float64(2.4 / 64)
        grids = tuple(special_grid(shape, k) for k in (0, 4, 7))
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, grids, origin=origin, spacing=spacing, K=2.0)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, "x,y,a11,a12,a22", origin, spacing, grids
        )

    def test_integer_spacing_and_entries(self, tmp_path):
        shape = (3, 4)
        grids = (np.ones(shape, dtype=int), np.zeros(shape, dtype=int), np.arange(12).reshape(shape))
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, grids, origin=-2, spacing=1, K=2)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, "x,y,a11,a12,a22", complex(-2), 1, grids
        )

    def test_mismatched_entry_shapes_rejected(self, tmp_path):
        grids = (np.ones((3, 4)), np.zeros((3, 4)), np.ones((4, 4)))
        with pytest.raises(ValueError, match="shape"):
            save_matrix_field(tmp_path / "m.csv", grids, origin=0, spacing=1.0, K=2.0)


def save_special_mu_grid(path, shape):
    """Save a mu grid of the special values, unchecked; the oracle's bytes."""
    origin, spacing = complex(-3.7, -0.0), np.float64(0.1)
    re, im = special_grid(shape, 0), special_grid(shape, 3)
    values = re.astype(complex)
    values.imag = im
    save_sampled_field(path, raw_sampled_field(values, origin, spacing))
    return savetxt_oracle(path.parent, MU_HEADER, origin, spacing, (re, im))


class ChunkedWrite:
    """Makes every grid write of `ncols` value grids, nx points wide, use
    chunks of `rows` grid rows, and records the first grid row of each
    chunk formatted."""

    def __init__(self, monkeypatch, rows, nx, ncols):
        self.starts = []
        real_text = qcreg.io._grid_text
        row_bytes = nx * qcreg.io.SLOT_BYTES * (2 + ncols)
        monkeypatch.setattr(qcreg.io, "CHUNK_BYTES", 4 * rows * row_bytes)

        def grid_text(xs, ys, columns, lo, hi):
            self.starts.append(lo)
            return real_text(xs, ys, columns, lo, hi)

        monkeypatch.setattr(qcreg.io, "_grid_text", grid_text)


@pytest.mark.parametrize("rows", [1, 2, 3])
class TestGridWriterInChunks:
    """A write formats and writes its chunks of `rows` grid rows in order,
    the last one short where they do not divide the grid, and the chunks
    join to the oracle's bytes."""

    @pytest.mark.parametrize("shape", GRID_SHAPES + [(2, 9)])
    def test_sampled_field_special_values(self, tmp_path, monkeypatch, rows, shape):
        spy = ChunkedWrite(monkeypatch, rows, shape[1], 2)
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, shape) == path.read_bytes()
        assert spy.starts == list(range(0, shape[0], rows))

    @pytest.mark.parametrize("shape", GRID_SHAPES + [(2, 9)])
    def test_matrix_field_special_values(self, tmp_path, monkeypatch, rows, shape):
        origin, spacing = complex(-1e-3, -250.0), np.float64(2.4 / 64)
        grids = tuple(special_grid(shape, k) for k in (0, 4, 7))
        spy = ChunkedWrite(monkeypatch, rows, shape[1], 3)
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, grids, origin=origin, spacing=spacing, K=2.0)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, MATRIX_HEADER, origin, spacing, grids
        )
        assert spy.starts == list(range(0, shape[0], rows))

    def test_sampled_field_smooth(self, tmp_path, monkeypatch, rows):
        field = make_field()
        spy = ChunkedWrite(monkeypatch, rows, field.values.shape[1], 2)
        path = tmp_path / "mu.csv"
        save_sampled_field(path, field)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, MU_HEADER, field.origin, field.spacing,
            (field.values.real, field.values.imag),
        )
        assert spy.starts == list(range(0, field.values.shape[0], rows))


def test_grid_of_several_chunks_round_trips_in_this_process(tmp_path, monkeypatch):
    """At the real chunk size a 257^2 grid is written in several chunks as
    np.savetxt writes it and read back bit for bit by the byte parse, in
    this process alone."""
    n = 257
    h = 2.4 / (n - 1)
    xs = -1.2 + h * np.arange(n)
    field = SampledField(origin=-1.2 - 1.2j, spacing=h, values=varying_mu(
        xs[None, :], xs[:, None]), k_max=VARYING_K_MAX)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a grid save or load forked"))
    path = tmp_path / "mu.csv"
    save_sampled_field(path, field)
    assert path.stat().st_size > 3 * qcreg.io.CHUNK_BYTES
    assert path.read_bytes() == savetxt_oracle(
        tmp_path, MU_HEADER, field.origin, h, (field.values.real, field.values.imag)
    )
    spy = ByteParse(monkeypatch)
    loaded = load_sampled_field(path)
    assert spy.ran and spy.chunks > 3
    assert (loaded.values.view(np.uint64) == field.values.view(np.uint64)).all()


# -- the writer's number format ----------------------------------------------------


def assert_formats_as_percent(values):
    """`_sci_slots` gives, slot by slot, ``b"," + b"%.18e" % v``: each slot
    holds one separator, in its first byte, and its bytes other than NUL
    join to the texts of every value in order."""
    values = np.asarray(values, dtype=float)
    slots = qcreg.io._sci_slots(values, b",")
    assert slots.shape[0] == values.size and slots.shape[1] >= qcreg.io.SLOT_BYTES
    assert (slots[:, 0] == ord(",")).all() and (slots[:, 1:] != ord(",")).all()
    got = slots[slots != 0].tobytes()
    want = b"".join(b",%.18e" % v for v in values.tolist())
    if got != want:
        pairs = zip(values.tolist(), got.split(b",")[1:], want.split(b",")[1:])
        v, g, w = next((v, g, w) for v, g, w in pairs if g != w)
        pytest.fail(f"{v!r} formats as {g!r}, not {w!r}")


def fast_range_floats(rng, size):
    """Floats of random sign and 52 random fraction bits whose binary
    exponent runs past both ends of [2^-29, 2^48), the range formatted in
    integer arithmetic."""
    exponent = rng.integers(1023 - 33, 1023 + 52, size, dtype=np.uint64)
    fraction = rng.integers(0, 1 << 52, size, dtype=np.uint64)
    sign = rng.integers(0, 2, size, dtype=np.uint64)
    return (sign << 63 | exponent << 52 | fraction).view(float)


class TestSciSlotsMatchPercentFormat:
    """The integer-arithmetic formatter against Python's ``%.18e``, which
    np.savetxt calls, on seeded draws of 10^6 values and on the values where
    rounding or the decimal exponent is hardest to get right."""

    def test_uniform_bit_patterns(self):
        # about 4 % of these lie in the integer range; the rest take %
        rng = np.random.default_rng(34)
        assert_formats_as_percent(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(float))

    @pytest.mark.parametrize("seed", [34, 35])
    def test_uniform_bits_across_the_integer_range(self, seed):
        assert_formats_as_percent(fast_range_floats(np.random.default_rng(seed), 10**6))

    def test_neighbours_of_powers_of_ten(self):
        # 10^k and 5 10^k, where floor(log10) may be one off, from below the
        # integer range (10^-11) to past its top (10^16), and its two ends
        centres = [c * 10.0**k for k in range(-11, 17) for c in (1.0, 5.0)] + [2.0**-29, 2.0**48]
        steps = np.arange(1, 65, dtype=float)
        values = []
        for c in centres:
            up, down = [c], [c]
            for _ in steps:
                up.append(np.nextafter(up[-1], np.inf))
                down.append(np.nextafter(down[-1], -np.inf))
            values += up + down[1:]
        values = np.array(values)
        assert_formats_as_percent(np.concatenate((values, -values)))

    def test_ties_round_half_to_even(self):
        # an odd multiple of 2^-j in [10^d, 10^(d+1)) with j = 18 - d has 20
        # significant digits, the last a 5: %.18e must round it to even
        rng = np.random.default_rng(34)
        values = []
        for d in range(-8, 15):
            j = 18 - d
            lo, hi = int(10.0**d * 2**j) // 2, int(10.0**(d + 1) * 2**j) // 2
            if hi >= 2**52:  # an odd multiple needs more than 53 bits
                continue
            values.append(np.ldexp(2.0 * rng.integers(lo, hi, 20000) + 1, -j))
        values = np.concatenate(values)
        assert values.size >= 10**5
        assert_formats_as_percent(np.concatenate((values, -values)))

    def test_special_values(self):
        rng = np.random.default_rng(34)
        subnormal = rng.integers(1, 1 << 52, 1000, dtype=np.uint64).view(float)
        wide = rng.uniform(1.0, 10.0, 1000) * 10.0 ** rng.integers(100, 308, 1000)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                    1.7976931348623157e308, 1e100, 1e-100, 9.999999999999999e99, 1e-99]
        values = np.concatenate((subnormal, wide, 1 / wide, specials))
        assert_formats_as_percent(np.concatenate((values, -values)))

    def test_wide_slots_only_where_a_text_needs_them(self):
        assert qcreg.io._sci_slots(np.array([-0.0, 1e300, -1e-30, np.nan]), b",").shape[1] == 26
        assert qcreg.io._sci_slots(np.array([0.5, -1e-300]), b",").shape[1] == 27


def test_varying_mu_grid_with_a_zero_region_round_trips(tmp_path, capsys):
    """A seeded 257^2 mu grid, 0 outside a disk, on coordinates that cross 0:
    the saved file is np.savetxt's, the load gives back every bit, and both
    interpolations report the same bytes from it and from np.savetxt's file."""
    n = 257
    rng = np.random.default_rng(34)
    h = 2.4 / (n - 1)
    origin = complex(-1.2 + 0.3 * h, -1.2)
    xs = origin.real + h * np.arange(n)
    ys = origin.imag + h * np.arange(n)
    assert xs[0] < 0 < xs[-1] and 0.0 in ys  # y crosses 0 on a node
    x, y = xs[None, :], ys[:, None]
    freq, phase, weight = rng.uniform(-3, 3, (4, 2)), rng.uniform(0, 7, 4), rng.standard_normal(4)
    mu = sum(w * np.exp(1j * (a * x + b * y + c)) for (a, b), c, w in zip(freq, phase, weight))
    mu *= VARYING_K_MAX / np.abs(mu).max()
    mu = np.where(np.abs(x + 1j * y) < 0.9, mu, 0.0)
    field = SampledField(origin=origin, spacing=h, values=mu, k_max=VARYING_K_MAX)
    path = tmp_path / "mu.csv"
    save_sampled_field(path, field)
    written = path.read_bytes()
    assert written == savetxt_oracle(tmp_path, MU_HEADER, origin, h, (mu.real, mu.imag))
    assert (load_sampled_field(path).values.view(np.uint64) == mu.view(np.uint64)).all()
    for interpolation in INTERPOLATIONS:
        reports = []
        for text in (written, savetxt_oracle(tmp_path, MU_HEADER, origin, h, (mu.real, mu.imag))):
            path.write_bytes(text)
            assert main(["analyze", "--subject", str(path), "--interpolation", interpolation]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


def read_lines(path):
    return path.read_text().splitlines(keepends=True)


def write_lines(path, lines):
    path.write_text("".join(lines))


def non_square_field():
    ny, nx = 3, 5
    values = 0.1 * np.arange(ny * nx).reshape(ny, nx) / (ny * nx) + 0.02j
    return SampledField(origin=-0.5 + 0.25j, spacing=0.125, values=values, k_max=0.2)


def far_field():
    """A 4 x 4 grid at 1000 + 1000i with spacing 1e-3 and a value per node."""
    values = 0.01 * np.arange(16).reshape(4, 4) + 0j
    return SampledField(origin=1000 + 1000j, spacing=1e-3, values=values, k_max=0.2)


class TestGridCoordinateCheck:
    def test_non_square_round_trip(self, tmp_path):
        path = tmp_path / "mu.csv"
        field = non_square_field()
        save_sampled_field(path, field)
        loaded = load_sampled_field(path)
        assert loaded.shape == (3, 5)
        assert np.array_equal(loaded.values, field.values)

    def test_one_shifted_x_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())

        lines = read_lines(path)
        x, rest = lines[8].split(",", 1)
        lines[8] = f"{float(x) + 1e-3!r},{rest}"
        write_lines(path, lines)
        with pytest.raises(ConfigError, match="coordinates disagree"):
            load_sampled_field(path)

    def test_two_swapped_rows_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())

        lines = read_lines(path)
        lines[3], lines[4] = lines[4], lines[3]
        write_lines(path, lines)
        with pytest.raises(ConfigError, match="coordinates disagree"):
            load_sampled_field(path)

    def test_far_from_the_origin_round_trip(self, tmp_path):
        path = tmp_path / "mu.csv"
        field = far_field()
        save_sampled_field(path, field)
        assert np.array_equal(load_sampled_field(path).values, field.values)

    def test_swapped_rows_far_from_the_origin_exit_1(self, tmp_path, capsys):
        # at x, y ~ 1000 a tolerance relative to the coordinates would be
        # far above the spacing, and the swap would load unnoticed
        path = tmp_path / "mu.csv"
        save_sampled_field(path, far_field())
        lines = read_lines(path)
        lines[5:9], lines[13:17] = lines[13:17], lines[5:9]  # grid rows 1 and 3
        write_lines(path, lines)
        assert main(["analyze", "--subject", str(path)]) == 1
        assert f"{path}: grid coordinates disagree with the descriptor" in capsys.readouterr().err

    def test_spacing_below_the_coordinates_resolution_rejected(self, tmp_path):
        # at 1e7 + 1e7i a spacing of 1e-8 is under the tolerance of 8 ulps of
        # the coordinates, so one row matched two nodes: two swapped rows
        # loaded with each value at the other's node
        path = tmp_path / "mu.csv"
        values = 0.01 * np.arange(9).reshape(3, 3) + 0j
        save_sampled_field(path, SampledField(origin=1e7 + 1e7j, spacing=1e-8, values=values,
                                              k_max=0.2))
        lines = read_lines(path)
        lines[1], lines[2] = lines[2], lines[1]
        write_lines(path, lines)
        with pytest.raises(ConfigError) as info:
            load_sampled_field(path)
        assert str(info.value) == (
            f"descriptor {sidecar_path(path)}: spacing 1e-08 is below the resolution of the x "
            f"axis of 3 nodes from 10000000.0; it must exceed 4.440892101000636e-08")

    def test_swapped_nx_ny_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())
        desc = json.loads(sidecar_path(path).read_text())
        desc["nx"], desc["ny"] = desc["ny"], desc["nx"]
        sidecar_path(path).write_text(json.dumps(desc))
        with pytest.raises(ConfigError, match="coordinates disagree"):
            load_sampled_field(path)

    @pytest.mark.parametrize("save,load", [
        (lambda path: save_sampled_field(path, SampledField(
            origin=-1.2 - 1.2j, spacing=0.6, values=np.full((5, 5), 0.1j), k_max=0.2)),
         load_sampled_field),
        (lambda path: save_matrix_field(
            path, (np.full((5, 5), 0.5), np.zeros((5, 5)), np.full((5, 5), 2.0)),
            origin=-1.2 - 1.2j, spacing=0.6, K=2.0),
         load_matrix_field),
    ], ids=["mu", "matrix"])
    def test_descriptor_whose_grid_overflows_rejected(self, tmp_path, save, load):
        # (n - 1) * h overflows: a tolerance taken over the whole axis was
        # inf, and every coordinate matched
        path = tmp_path / "grid.csv"
        save(path)
        rewrite_sidecar(path, origin=[-1e308, -1e308], spacing=1e308)
        with pytest.raises(ConfigError) as info:
            load(path)
        assert str(info.value) == (
            f"{path}: grid coordinates disagree with the descriptor at node [0, 0]")

    def test_node_past_the_float_range_matches_no_coordinate(self, tmp_path):
        path = tmp_path / "mu.csv"
        xs = (1e308, 1.5e308, 1.7976931348623157e308)  # the last node is at 2e308
        path.write_text(MU_HEADER + "\n" + "".join(f"{x!r},0.0,0.0,0.0\n" for x in xs))
        sidecar_path(path).write_text(json.dumps(
            {"origin": [1e308, 0.0], "spacing": 5e307, "nx": 3, "ny": 1, "k_max": 0.5}))
        with pytest.raises(ConfigError, match=r"disagree with the descriptor at node \[0, 2\]$"):
            load_sampled_field(path)

    def test_matrix_grid_shifted_y_rejected(self, tmp_path):
        path = tmp_path / "matrix.csv"
        shape = (4, 6)
        save_matrix_field(
            path, (np.ones(shape), np.zeros(shape), np.ones(shape)), origin=0, spacing=0.5, K=1.0
        )

        lines = read_lines(path)
        x, y, rest = lines[-1].split(",", 2)
        lines[-1] = f"{x},{float(y) - 0.25!r},{rest}"
        write_lines(path, lines)
        with pytest.raises(ConfigError, match="coordinates disagree"):
            load_matrix_field(path)


def corner_nan_mu_grid(tmp_path, n=65):
    """A smooth 65^2 mu grid on [-1.2, 1.2]^2 with NaN at node [0, 0], a
    corner outside the unit disk."""
    h = 2.4 / (n - 1)
    xs = -1.2 + h * np.arange(n)
    values = 0.2 * np.exp(1j * (xs[None, :] - 0.5 * xs[:, None]))
    path = tmp_path / "mu.csv"
    save_sampled_field(
        path, SampledField(origin=-1.2 - 1.2j, spacing=h, values=values, k_max=0.2)
    )
    lines = read_lines(path)
    x, y, _, im = lines[1].split(",")
    lines[1] = f"{x},{y},nan,{im}"
    write_lines(path, lines)
    return path


def corner_nan_matrix_grid(tmp_path, n=17):
    h = 2.4 / (n - 1)
    shape = (n, n)
    a11 = np.full(shape, 0.5)
    a11[0, 0] = np.nan
    path = tmp_path / "matrix.csv"
    save_matrix_field(
        path, (a11, np.zeros(shape), np.full(shape, 2.0)), origin=-1.2 - 1.2j, spacing=h, K=2.0
    )
    return path


class TestNonFiniteGridsRejected:
    def test_sampled_field_names_the_node(self):
        values = np.full((4, 6), 0.1 + 0j)
        values[2, 5] = np.nan
        with pytest.raises(FieldValidationError, match=r"\[2, 5\]"):
            SampledField(origin=0j, spacing=0.1, values=values, k_max=0.2)

    @pytest.mark.parametrize("bad", [complex(np.inf, 0), complex(0, -np.inf), complex(np.nan, np.inf)])
    def test_sampled_field_rejects_inf(self, bad):
        values = np.zeros((3, 3), dtype=complex)
        values[0, 1] = bad
        with pytest.raises(FieldValidationError, match=r"\[0, 1\]"):
            SampledField(origin=0j, spacing=0.1, values=values, k_max=0.2)

    @pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
    def test_mu_loader_names_file_and_line(self, tmp_path, interpolation):
        path = corner_nan_mu_grid(tmp_path)
        with pytest.raises(ConfigError, match=r"mu\.csv line 2: re = nan is not finite"):
            load_sampled_field(path, interpolation=interpolation)

    def test_matrix_loader_names_file_and_line(self, tmp_path):
        path = corner_nan_matrix_grid(tmp_path)
        with pytest.raises(ConfigError, match=r"matrix\.csv line 2: a11 = nan is not finite"):
            load_matrix_field(path)

    def test_line_counts_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())

        lines = read_lines(path)
        x, y, re, _ = lines[7].split(",")
        lines[7] = f"{x},{y},{re},-inf\n"
        lines[2:2] = ["\n", "# a comment line\n"]
        write_lines(path, lines)
        with pytest.raises(ConfigError, match=r"line 10: im = -inf is not finite"):
            load_sampled_field(path)

    def test_unparsable_value_is_a_config_error(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())
        lines = read_lines(path)
        lines[3] = "0,0,abc,0\n"
        write_lines(path, lines)
        with pytest.raises(ConfigError) as info:
            load_sampled_field(path)
        assert str(info.value) == f"{path} line 4: re = 'abc' is not a number"

    @pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
    def test_cli_analyze_exits_1(self, tmp_path, capsys, interpolation):
        path = corner_nan_mu_grid(tmp_path)
        code = main(["analyze", "--subject", str(path), "--interpolation", interpolation])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path} line 2" in err and "Traceback" not in err

    def test_cli_elliptic_exits_1(self, tmp_path, capsys):
        path = corner_nan_matrix_grid(tmp_path)
        code = main(["elliptic", "--subject", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{path} line 2: a11" in err


def rewrite_sidecar(path, **changes):
    desc = json.loads(sidecar_path(path).read_text())
    desc.update(changes)
    sidecar_path(path).write_text(json.dumps(desc))


def two_row_matrix_grid(tmp_path):
    path = tmp_path / "matrix.csv"
    save_matrix_field(
        path, (np.ones((1, 2)), np.zeros((1, 2)), np.ones((1, 2))), origin=0, spacing=0.5, K=2.0
    )
    return path


def two_row_mu_grid(tmp_path):
    path = tmp_path / "mu.csv"
    save_sampled_field(
        path, SampledField(origin=0j, spacing=0.5, values=np.full((1, 2), 0.1j), k_max=0.2)
    )
    return path


# (key, bad value) pairs that both grid kinds share, then the bound of each kind
BAD_GRID_KEYS = [
    ("nx", "two"), ("nx", 3.7), ("nx", True), ("nx", 0), ("nx", -2), ("ny", -1), ("ny", None),
    ("spacing", 0), ("spacing", -0.5), ("spacing", "x"), ("spacing", float("inf")),
    ("spacing", False), ("origin", [0]), ("origin", [0, 0, 0]), ("origin", [0, "a"]),
    ("origin", [float("nan"), 0]), ("origin", "00"), ("origin", 0),
]
BAD_MU_BOUNDS = [("k_max", "x"), ("k_max", 1.5), ("k_max", 1.0), ("k_max", -0.1),
                 ("k_max", float("nan")), ("k_max", True)]
BAD_MATRIX_BOUNDS = [("K", "big"), ("K", 0.5), ("K", float("inf")), ("K", float("nan")),
                     ("K", None)]


class TestSidecarDescriptorChecked:
    @pytest.mark.parametrize("key,value", BAD_GRID_KEYS + BAD_MU_BOUNDS)
    def test_mu_descriptor(self, tmp_path, key, value):
        path = two_row_mu_grid(tmp_path)
        rewrite_sidecar(path, **{key: value})
        with pytest.raises(ConfigError) as info:
            load_sampled_field(path)
        assert f"{sidecar_path(path)}: {key} must" in str(info.value)

    @pytest.mark.parametrize("key,value", BAD_GRID_KEYS + BAD_MATRIX_BOUNDS)
    def test_matrix_descriptor(self, tmp_path, key, value):
        path = two_row_matrix_grid(tmp_path)
        rewrite_sidecar(path, **{key: value})
        with pytest.raises(ConfigError) as info:
            load_matrix_field(path)
        assert f"{sidecar_path(path)}: {key} must" in str(info.value)

    @pytest.mark.parametrize("key,value", [("nx", "two"), ("nx", 3.7), ("origin", [0]), ("k_max", 1.5)])
    def test_cli_analyze_exits_1(self, tmp_path, capsys, key, value):
        path = two_row_mu_grid(tmp_path)
        rewrite_sidecar(path, **{key: value})
        code = main(["analyze", "--subject", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{sidecar_path(path)}: {key} must" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("ny", -1), ("spacing", "x"), ("K", "big"), ("K", 0.5)])
    def test_cli_elliptic_exits_1(self, tmp_path, capsys, key, value):
        path = two_row_matrix_grid(tmp_path)
        rewrite_sidecar(path, **{key: value})
        code = main(["elliptic", "--subject", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{sidecar_path(path)}: {key} must" in err and "Traceback" not in err

    def test_descriptor_must_be_an_object(self, tmp_path):
        path = two_row_mu_grid(tmp_path)
        sidecar_path(path).write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            load_sampled_field(path)

    def test_integer_values_accepted(self, tmp_path):
        path = two_row_matrix_grid(tmp_path)
        rewrite_sidecar(path, nx=2, spacing=0.5, K=1)  # an integer K is a number >= 1
        assert load_matrix_field(path).K == 1.0


class TestBoundExceededNamesTheNode:
    def test_sampled_field(self):
        values = np.full((4, 6), 0.1 + 0j)
        values[3, 2] = 0.3j
        values[3, 4] = 0.5
        with pytest.raises(FieldValidationError, match=r"\[3, 2\] has \|mu\| = 0\.3 > k_max = 0\.2"):
            SampledField(origin=0j, spacing=0.1, values=values, k_max=0.2)

    @pytest.mark.parametrize("diagonal", [-1.0, -2.0])
    def test_negative_definite_det_one_node(self, tmp_path, recwarn, diagonal):
        # diag(d, 1/d) with d < 0 has det 1 but is not elliptic
        shape = (3, 5)
        a11, a22 = np.ones(shape), np.ones(shape)
        a11[2, 1], a22[2, 1] = diagonal, 1 / diagonal
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, (a11, np.zeros(shape), a22), origin=0, spacing=0.5, K=2.0)
        with pytest.raises(FieldValidationError, match=r"node \[2, 1\] .*a11 > 0"):
            load_matrix_field(path)
        assert not recwarn.list

    def test_matrix_node_outside_eigenvalue_range(self, tmp_path):
        # diag(1/3, 3) has det 1 but eigenvalue ratio 9 > K^2 = 4
        shape = (3, 5)
        a11, a22 = np.full(shape, 0.5), np.full(shape, 2.0)
        a11[1, 3], a22[1, 3] = 1 / 3, 3.0
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, (a11, np.zeros(shape), a22), origin=0, spacing=0.5, K=2.0)
        with pytest.raises(FieldValidationError, match=r"\[1, 3\] has \|mu\|"):
            load_matrix_field(path)


VARYING_N = 65
VARYING_HALF_WIDTH = 1.2
VARYING_K_MAX = 0.3


def varying_mu(x, y):
    """Smooth mu with |mu| <= VARYING_K_MAX, not constant along any axis."""
    return VARYING_K_MAX * np.exp(1j * (2.0 * x - 1.3 * y)) * (0.75 + 0.25 * np.sin(3.0 * y + x))


def write_varying_matrix_grid(tmp_path):
    """A 65^2 det-1 grid built from mu with `matrix_from_beltrami`; returns
    the path and the node entries (a11, a12, a22)."""
    h = 2 * VARYING_HALF_WIDTH / (VARYING_N - 1)
    xs = -VARYING_HALF_WIDTH + h * np.arange(VARYING_N)
    entries = matrix_from_beltrami(varying_mu(xs[None, :], xs[:, None]))
    K = (1 + VARYING_K_MAX) / (1 - VARYING_K_MAX)
    path = tmp_path / "varying.csv"
    save_matrix_field(path, entries, origin=complex(-VARYING_HALF_WIDTH, -VARYING_HALF_WIDTH),
                      spacing=h, K=K)
    return path, entries


INTERPOLATIONS = ["bilinear", "nearest"]


class TestVaryingMatrixGrid:
    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_det_one_between_nodes(self, tmp_path, interpolation):
        path, _ = write_varying_matrix_grid(tmp_path)
        field = load_matrix_field(path, interpolation)
        pts = disk_samples(4096, 0.1 - 0.05j, 1.1)  # off the nodes, out to the hull
        assert np.abs(field.determinant(pts) - 1.0).max() <= 1e-12

    def test_nearest_reproduces_the_nodes(self, tmp_path):
        path, entries = write_varying_matrix_grid(tmp_path)
        field = load_matrix_field(path, "nearest")
        h = 2 * VARYING_HALF_WIDTH / (VARYING_N - 1)
        ix = np.arange(VARYING_N)
        nodes = -VARYING_HALF_WIDTH * (1 + 1j) + h * (ix[None, :] + 1j * ix[:, None])
        for got, want in zip(field(nodes), entries):
            assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_comparison_bounds_and_bridge_identity(self, tmp_path, interpolation):
        # For det 1, <eta, A eta> = |1 - conj(eta)^2 mu|^2 / (1 - |mu|^2) at
        # every point, so the divergence average is the distortion average
        # and both suprema agree to the quadrature tolerance.
        path, _ = write_varying_matrix_grid(tmp_path)
        field = validate_matrix_field(load_matrix_field(path, interpolation))
        domain, cfg = DomainSpec.origin_disk(), QuadratureConfig()
        improved = elliptic_holder_bound(field, domain, cfg)
        rep = comparison_bounds(field, domain, improved)
        assert rep.alpha_divergence == pytest.approx(improved.alpha_improved, rel=1e-9)
        assert rep.alpha_eigen_ratio <= rep.alpha_divergence
        assert improved.alpha_improved < 1.0

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_cli_elliptic_exits_0(self, tmp_path, capsys, interpolation):
        path, _ = write_varying_matrix_grid(tmp_path)
        code = main(["elliptic", "--subject", str(path), "--interpolation", interpolation])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        ell = payload["elliptic"]
        assert ell["alpha_divergence"] == pytest.approx(
            payload["regularity"]["alpha_improved"], rel=1e-9
        )

    def _break_node(self, path, iy, ix):
        """Scale node [iy, ix] by 1.01, so its det becomes 1.0201."""
        lines = read_lines(path)
        row = 1 + iy * VARYING_N + ix
        x, y, *entries = lines[row].split(",")
        lines[row] = ",".join([x, y] + [repr(1.01 * float(e)) for e in entries]) + "\n"
        write_lines(path, lines)

    def test_non_det_one_node_rejected(self, tmp_path):
        path, _ = write_varying_matrix_grid(tmp_path)
        self._break_node(path, 40, 7)
        with pytest.raises(FieldValidationError, match=r"node \[40, 7\] has \|det A - 1\| = 0\.020"):
            load_matrix_field(path)

    @pytest.mark.parametrize("interpolation", INTERPOLATIONS)
    def test_cli_non_det_one_node_exits_2(self, tmp_path, capsys, interpolation):
        path, _ = write_varying_matrix_grid(tmp_path)
        self._break_node(path, 40, 7)
        code = main(["elliptic", "--subject", str(path), "--interpolation", interpolation])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: grid node [40, 7] has |det A - 1|" in err


def test_unparsable_entry_names_file_line_and_column(tmp_path, capsys):
    path = tmp_path / "u.csv"
    save_sampled_field(path, non_square_field())
    lines = read_lines(path)
    lines[2:2] = ["\n", "# a comment line\n"]
    lines[4] = "0.1,0,abc,0.1\n"
    write_lines(path, lines)
    message = f"{path} line 5: re = 'abc' is not a number"
    with pytest.raises(ConfigError) as info:
        load_sampled_field(path)
    assert str(info.value) == message
    assert main(["analyze", "--subject", str(path)]) == 1
    assert capsys.readouterr().err == f"qcreg: config error: {message}\n"


def test_whitespace_only_line_is_a_data_row(tmp_path):
    # np.loadtxt skips a line only when it is empty up to its end or '#'
    path = tmp_path / "u.csv"
    save_sampled_field(path, non_square_field())
    lines = read_lines(path)
    lines[1:1] = ["\n", "  \n"]
    write_lines(path, lines)
    with pytest.raises(ConfigError) as info:
        load_sampled_field(path)
    assert str(info.value) == f"{path} line 3: expected 4 columns, found 1"


# (edit of the lines of a 3 x 5 mu grid, file line it breaks, fields found there)
COLUMN_CASES = {
    "short row": (lambda lines: lines.__setitem__(3, "0,0.25,0.1\n"), 4, 3),
    "long row": (lambda lines: lines.__setitem__(3, "0,0.25,0.1,0,7\n"), 4, 5),
    "trailing comma": (lambda lines: lines.__setitem__(3, "0,0.25,0.1,0,\n"), 4, 5),
    "whitespace-only line": (lambda lines: lines.__setitem__(3, " \t \n"), 4, 1),
    "short first row": (lambda lines: lines.__setitem__(1, "-0.5,0.25,0\n"), 2, 3),
    "after a comment": (
        lambda lines: (lines.insert(2, "# note\n"), lines.__setitem__(6, "1\n")), 7, 1
    ),
}


@pytest.mark.parametrize("case", COLUMN_CASES)
def test_wrong_column_count_names_the_line(tmp_path, capsys, case):
    edit, line, found = COLUMN_CASES[case]
    path = tmp_path / "c.csv"
    save_sampled_field(path, non_square_field())
    lines = read_lines(path)
    edit(lines)
    write_lines(path, lines)
    message = f"{path} line {line}: expected 4 columns, found {found}"
    with pytest.raises(ConfigError) as info:
        load_sampled_field(path)
    assert str(info.value) == message
    assert main(["analyze", "--subject", str(path)]) == 1
    assert capsys.readouterr().err == f"qcreg: config error: {message}\n"


def test_every_row_short_names_the_first_line(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_field(path, (np.ones((3, 5)), np.zeros((3, 5)), np.ones((3, 5))),
                      origin=0, spacing=0.5, K=2.0)
    lines = read_lines(path)
    write_lines(path, lines[:1] + [line.rsplit(",", 1)[0] + "\n" for line in lines[1:]])
    with pytest.raises(ConfigError) as info:
        load_matrix_field(path)
    assert str(info.value) == f"{path} line 2: expected 5 columns, found 4"


def test_signed_zeros_survive_the_load(tmp_path):
    values = np.array([[0.0, -0.0, 0.1], [-0.0, 0.0, -0.1]])
    values = values + 0j
    values.imag = [[-0.0, 0.0, -0.0], [-0.0, 0.1, 0.0]]
    path = tmp_path / "z.csv"
    save_sampled_field(path, SampledField(origin=0j, spacing=0.5, values=values, k_max=0.2))
    loaded = load_sampled_field(path).values
    assert np.array_equal(np.signbit(loaded.real), np.signbit(values.real))
    assert np.array_equal(np.signbit(loaded.imag), np.signbit(values.imag))


@pytest.mark.parametrize("load,header", [(load_sampled_field, MU_HEADER),
                                         (load_matrix_field, MATRIX_HEADER)])
def test_header_only_grid(tmp_path, recwarn, capsys, load, header):
    path = tmp_path / "g.csv"
    if header == MU_HEADER:
        save_sampled_field(path, non_square_field())
    else:
        save_matrix_field(path, (np.ones((3, 5)), np.zeros((3, 5)), np.ones((3, 5))),
                          origin=0, spacing=0.5, K=2.0)
    path.write_text(header + "\n")
    message = f"{path}: 0 data rows but descriptor says nx*ny = 15"
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(info.value) == message
    command = "analyze" if header == MU_HEADER else "elliptic"
    assert main([command, "--subject", str(path)]) == 1
    assert capsys.readouterr().err == f"qcreg: config error: {message}\n"
    assert not recwarn.list


# -- the byte parse --------------------------------------------------------------

SERIAL_LOADTXT = np.loadtxt


def serial_rows(path):
    return SERIAL_LOADTXT(path, delimiter=",", skiprows=1, ndmin=2)


def grid_rows(path, header):
    """`_load_grid_csv` of a grid CSV, checked against its sidecar, as whole
    rows. The loader gives the value columns; a load that stands vouches
    that each row's x, y are the descriptor's node, which is rebuilt here
    as the writers format it, so a written grid's rows compare bit for bit."""
    bound = ("k_max", (0.0, 1.0)) if header == MU_HEADER else ("K", (1.0, np.inf))
    desc = qcreg.io._load_descriptor(path, *bound)
    values = qcreg.io._load_grid_csv(path, header, desc)
    nx, ny, h, origin = desc["nx"], desc["ny"], desc["spacing"], desc["origin"]
    xs, ys = origin.real + np.arange(nx) * h, origin.imag + np.arange(ny) * h
    return np.column_stack([np.tile(xs, ny), np.repeat(ys, nx), values])


class ByteParse:
    """Makes every grid load read chunks of `chunk` bytes (the real size
    when None), fails any fork, and counts what a load does: the chunks the
    byte parse reads (`_parse_lines` calls) and the serial float reads
    (`_loadtxt` calls) that follow when it does not stand."""

    def __init__(self, monkeypatch, chunk=None):
        self.chunks = self.float_reads = 0
        if chunk is not None:
            monkeypatch.setattr(qcreg.io, "CHUNK_BYTES", chunk)
        parse_lines, loadtxt = qcreg.io._parse_lines, qcreg.io._loadtxt

        def counted_parse(*args):
            self.chunks += 1
            return parse_lines(*args)

        def counted_loadtxt(*args):
            self.float_reads += 1
            return loadtxt(*args)

        monkeypatch.setattr(qcreg.io, "_parse_lines", counted_parse)
        monkeypatch.setattr(qcreg.io, "_loadtxt", counted_loadtxt)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("a grid load forked"))

    @property
    def ran(self):
        """The last load stood on the byte parse, with no float read."""
        return self.chunks > 0 and self.float_reads == 0


def float_read(load, *args):
    """What `load` gives when the byte parse is skipped and the file read
    serially as floats only: the outcome every load must give."""
    byte_parse = qcreg.io._byte_parse
    qcreg.io._byte_parse = lambda *a: None
    try:
        return outcome(load, *args)
    finally:
        qcreg.io._byte_parse = byte_parse


def outcome(load, *args):
    """What a load gives: its value, or the type and text of its error."""
    try:
        return load(*args)
    except (ConfigError, FieldValidationError) as exc:
        return type(exc), str(exc)


def same(a, b):
    """Whether two load outcomes agree: arrays and fields bit for bit, and
    errors by type and text."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and np.array_equal(a.view(np.uint64), b.view(np.uint64)))
    if isinstance(a, SampledField):
        return isinstance(b, SampledField) and same(a.values, b.values)
    if hasattr(a, "grid"):  # a MatrixField
        return hasattr(b, "grid") and a.K == b.K and same(a.grid, b.grid)
    return a == b


# 7 x 5 = 35 data rows of about 100 bytes (mu) or 125 bytes (matrix)
CSV_SHAPE = (7, 5)

#: chunk sizes in bytes: lines straddle the ends of the first two, and the
#: last holds every line of a small grid
CHUNKS = [160, 257, 1 << 12]


def special_mu_grid(tmp_path, shape=CSV_SHAPE):
    """A mu grid of the finite special values, written unchecked."""
    finite = [v for v in SPECIAL_VALUES if np.isfinite(v)]
    values = np.resize(finite, shape) + 1j * np.resize(np.roll(finite, 3), shape)
    path = tmp_path / "mu.csv"
    save_sampled_field(path, raw_sampled_field(values, complex(-3.7, -0.0), 0.1))
    return path


def special_matrix_grid(tmp_path, shape=CSV_SHAPE):
    finite = [v for v in SPECIAL_VALUES if np.isfinite(v)]
    grids = tuple(np.resize(np.roll(finite, k), shape) for k in (0, 4, 7))
    path = tmp_path / "matrix.csv"
    save_matrix_field(path, grids, origin=-1e-3 - 250j, spacing=2.4 / 64, K=2.0)
    return path


def smooth_matrix_grid(tmp_path, shape=CSV_SHAPE):
    """The det-1 matrix grid of the mu of `smooth_mu_grid`."""
    field = load_sampled_field(smooth_mu_grid(tmp_path, shape))
    path = tmp_path / "matrix.csv"
    save_matrix_field(path, matrix_from_beltrami(field.values), origin=field.origin,
                      spacing=field.spacing, K=2.0)
    return path


def smooth_mu_grid(tmp_path, shape=CSV_SHAPE):
    ny, nx = shape
    values = 0.3 * np.exp(1j * (np.arange(nx)[None, :] - 0.7 * np.arange(ny)[:, None]))
    path = tmp_path / "mu.csv"
    save_sampled_field(path, SampledField(origin=-0.5 + 0.25j, spacing=0.125,
                                          values=values, k_max=0.3))
    return path


@pytest.mark.parametrize("chunk", CHUNKS + [None])
class TestByteParseEqualsSerial:
    """A written grid stands on the byte parse, whatever the chunk ends,
    and loads bit-equal to np.loadtxt, signed zeros, subnormals and 3-digit
    exponents included."""

    @pytest.mark.parametrize("write,header", [(special_mu_grid, MU_HEADER),
                                              (special_matrix_grid, MATRIX_HEADER)])
    def test_rows_bit_equal(self, tmp_path, monkeypatch, chunk, write, header):
        path = write(tmp_path)
        want = serial_rows(path)
        spy = ByteParse(monkeypatch, chunk)
        got = grid_rows(path, header)
        assert spy.ran and spy.chunks >= path.stat().st_size // (chunk or qcreg.io.CHUNK_BYTES)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0

    def test_sampled_field(self, tmp_path, monkeypatch, chunk):
        path = smooth_mu_grid(tmp_path)
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = load_sampled_field(path)
        assert spy.ran
        assert same(got, want) and got.origin == want.origin

    def test_matrix_field(self, tmp_path, monkeypatch, chunk):
        path, _ = write_varying_matrix_grid(tmp_path)
        want = float_read(load_matrix_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = load_matrix_field(path)
        assert spy.ran
        assert same(got, want)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1)])
    def test_few_rows(self, tmp_path, monkeypatch, chunk, shape):
        path = special_mu_grid(tmp_path, shape)
        want = serial_rows(path)
        spy = ByteParse(monkeypatch, chunk)
        assert np.array_equal(grid_rows(path, MU_HEADER), want)
        assert spy.ran


def edit_data_row(path, row, edit):
    """Apply `edit` to the list of lines at data row `row` (-1: the last)."""
    lines = read_lines(path)
    at = 1 + row if row >= 0 else len(lines) + row
    edit(lines, at)
    write_lines(path, lines)


# lines that np.loadtxt skips or reads otherwise than as one data row
ODD_LINES = {
    "blank": "\n",
    "whitespace-only": "  \t\n",
    "comment": "# a comment line\n",
    "indented comment": "   # a comment\n",
    "empty CRLF": "\r\n",
    "lone CR": "\r",
}


def odd_edit(odd, how):
    """Insert the odd line before a data row, put it in the row's place
    (which keeps the number of line ends), or, for "CR end", end the row
    with a lone carriage return."""
    if odd == "CR end":
        return lambda lines, at: lines.__setitem__(at, lines[at].rstrip("\n") + "\r")
    if how == "insert":
        return lambda lines, at: lines.insert(at, ODD_LINES[odd])
    return lambda lines, at: lines.__setitem__(at, ODD_LINES[odd])


ODD_CASES = [(odd, how) for odd in ODD_LINES for how in ("insert", "replace")] + [
    ("CR end", None)
]


def replace_field(col, text):
    def edit(lines, at):
        fields = lines[at].rstrip("\n").split(",")
        fields[col] = text
        lines[at] = ",".join(fields) + "\n"
    return edit


# (the text of one field of a data row, the column it replaces)
ODD_FIELDS = {
    "+ sign": (lambda v: "+%.18e" % v, 2),
    "short": (lambda v: "%.6e" % v, 3),
    "repr": (repr, 2),
    "NUL after it": (lambda v: "%.18e\0" % v, 3),
    "NUL before it": (lambda v: "\0%.18e" % v, 2),
    "20 digits": (lambda v: "%.19e" % v, 3),
    "capital E": (lambda v: ("%.18e" % v).upper(), 2),
    "space after it": (lambda v: "%.18e " % v, 3),
}


@pytest.mark.parametrize("chunk", CHUNKS)
class TestByteParseFallsBackToSerial:
    """A file with a line that is not canonical, or the wrong row count,
    is read serially as floats, wherever the line falls among the chunks,
    and gives the serial outcome: its values or its message."""

    @pytest.mark.parametrize("row", [0, 17, -1])
    @pytest.mark.parametrize("odd,how", ODD_CASES)
    def test_odd_line(self, tmp_path, monkeypatch, chunk, row, odd, how):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, odd_edit(odd, how))
        want = float_read(grid_rows, path, MU_HEADER)
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(grid_rows, path, MU_HEADER)
        assert same(got, want)
        assert spy.float_reads == 1

    @pytest.mark.parametrize("row", [0, -1])
    @pytest.mark.parametrize("odd,how", ODD_CASES)
    def test_odd_line_in_a_matrix_grid(self, tmp_path, monkeypatch, chunk, row, odd, how):
        path = smooth_matrix_grid(tmp_path)
        edit_data_row(path, row, odd_edit(odd, how))
        want = float_read(load_matrix_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_matrix_field, path)
        assert same(got, want)
        assert spy.float_reads == 1

    @pytest.mark.parametrize("row", [0, 3, 17, -1])
    @pytest.mark.parametrize("case", ODD_FIELDS)
    def test_odd_field(self, tmp_path, monkeypatch, chunk, row, case):
        spell, col = ODD_FIELDS[case]
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, lambda lines, at: replace_field(
            col, spell(float(lines[at].split(",")[col])))(lines, at))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_sampled_field, path)
        assert same(got, want)
        assert spy.float_reads == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_count_keeping_comment_lines(self, tmp_path, monkeypatch, chunk, k):
        # k comment lines after data row 0 and the last k rows gone
        path = smooth_mu_grid(tmp_path)
        lines = read_lines(path)
        write_lines(path, lines[:2] + ["# a comment\n"] * k + lines[2:-k])
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path}: {35 - k} rows but descriptor says nx*ny = 35"
        )
        assert spy.float_reads == 1

    def test_crlf_file(self, tmp_path, monkeypatch, chunk):
        path = smooth_mu_grid(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = load_sampled_field(path)
        assert spy.float_reads == 1
        assert same(got, want)

    @pytest.mark.parametrize("text", ["nan", "-inf"])
    def test_non_finite_in_the_last_row(self, tmp_path, monkeypatch, chunk, text):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, 33, replace_field(3, text))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path} line 35: im = {text} is not finite")
        assert spy.float_reads == 1

    def test_unparsable_in_the_last_row(self, tmp_path, monkeypatch, chunk):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, -1, replace_field(2, "1.0e"))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path} line 36: re = '1.0e' is not a number")
        assert spy.float_reads == 1

    @pytest.mark.parametrize("text,found", [("0.5,1.25,0.1\n", 3), ("  \n", 1)],
                             ids=["ragged row", "whitespace-only line"])
    @pytest.mark.parametrize("row", [0, 17, -1])
    def test_wrong_column_count(self, tmp_path, monkeypatch, chunk, text, found, row):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, lambda lines, at: lines.__setitem__(at, text))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        line = 2 + row if row >= 0 else 36
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path} line {line}: expected 4 columns, found {found}")
        assert spy.float_reads == 1

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_count_off_by_one(self, tmp_path, monkeypatch, chunk, extra):
        path = smooth_mu_grid(tmp_path)
        lines = read_lines(path)
        write_lines(path, lines[:-1] if extra < 0 else lines + lines[-1:])
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path}: {35 + extra} rows but descriptor says nx*ny = 35")
        assert spy.float_reads == 1

    def test_sidecar_far_beyond_the_file(self, tmp_path, monkeypatch, chunk):
        # nx*ny = 2**62 rows would not fit in memory: the file's size shows
        # it cannot hold them before anything is allocated or read
        path = smooth_mu_grid(tmp_path, (3, 3))
        desc = json.loads(sidecar_path(path).read_text())
        sidecar_path(path).write_text(json.dumps({**desc, "nx": 2**31, "ny": 2**31}))
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path}: 9 rows but descriptor says nx*ny = {2**62}")
        assert spy.chunks == 0 and spy.float_reads == 1

    def test_header_only(self, tmp_path, monkeypatch, chunk):
        path = smooth_mu_grid(tmp_path)
        path.write_text(MU_HEADER + "\n")
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(grid_rows, path, MU_HEADER)
        assert got == (ConfigError, f"{path}: 0 data rows but descriptor says nx*ny = 35")
        assert spy.float_reads == 1


@pytest.mark.parametrize("chunk", CHUNKS)
class TestChunkBoundaries:
    """The byte parse reads whole lines: one that straddles a chunk end is
    finished in the next chunk, the last one needs no newline, and a line
    longer than a chunk sends the file to the float read."""

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("last_newline", [True, False])
    def test_line_ends(self, tmp_path, monkeypatch, chunk, ending, last_newline):
        path = special_mu_grid(tmp_path)
        text = path.read_bytes().replace(b"\n", ending.encode())
        path.write_bytes(text if last_newline else text[: -len(ending)])
        want = serial_rows(path)
        spy = ByteParse(monkeypatch, chunk)
        got = grid_rows(path, MU_HEADER)
        assert spy.float_reads == (ending == "\r\n")
        assert got.shape == want.shape == (35, 4) and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("row", range(0, 35, 3))
    @pytest.mark.parametrize("odd", ["blank", "comment"])
    def test_odd_line_at_every_place(self, tmp_path, monkeypatch, chunk, row, odd):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, odd_edit(odd, "insert"))
        want = float_read(grid_rows, path, MU_HEADER)
        spy = ByteParse(monkeypatch, chunk)
        assert same(outcome(grid_rows, path, MU_HEADER), want)
        assert spy.float_reads == 1

    def test_line_longer_than_a_chunk(self, tmp_path, monkeypatch, chunk):
        # a line of 40-digit numbers outgrows the smaller chunks
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, 20, lambda lines, at: lines.__setitem__(at, ",".join(
            "%.39e" % float(f) for f in lines[at].split(",")) + "\n"))
        want = float_read(grid_rows, path, MU_HEADER)
        spy = ByteParse(monkeypatch, chunk)
        assert same(outcome(grid_rows, path, MU_HEADER), want)
        assert spy.float_reads == 1


def test_chunks_of_one_line(tmp_path, monkeypatch):
    # every line of this grid is 100 bytes: a chunk of 100 holds one, one of
    # 99 none
    path = tmp_path / "mu.csv"
    save_sampled_field(path, SampledField(origin=0.5 + 0.5j, spacing=0.125,
                                          values=np.full((7, 1), 0.25 + 0.125j), k_max=0.3))
    assert {len(line) for line in path.read_bytes().split(b"\n")[1:-1]} == {99}
    want = serial_rows(path)
    for size, chunks in ((100, 7), (99, 0)):
        spy = ByteParse(monkeypatch, size)
        assert np.array_equal(grid_rows(path, MU_HEADER), want)
        assert spy.chunks == chunks and spy.float_reads == (not chunks)


# (bytes written as the re entry of a data row, the end of the message naming it)
BAD_ENTRIES = {
    "underscore": (b"1_0", "re = '1_0' is not a number"),  # float() reads 10
    "non-ASCII digit": ("\u0661".encode(), "re = '\u0661' is not a number"),  # float() reads 1
    "padded word": (b" abc ", "re = ' abc ' is not a number"),
    "Latin-1 byte": (b"\xe9", "re = '\ufffd' is not a number"),
    "nan": (b"nan", "re = nan is not finite"),
    "inf": (b"inf", "re = inf is not finite"),
    "-inf": (b"-inf", "re = -inf is not finite"),
    "past the float range": (b"1.000000000000000000e+400", "re = inf is not finite"),
    "-1e400": (b"-1.000000000000000000e+400", "re = -inf is not finite"),
}


@pytest.mark.parametrize("chunk", [None, 257])
@pytest.mark.parametrize("case", BAD_ENTRIES)
class TestBadLineNamed:
    """`_bad_line` names the line after the byte parse fell back to the
    float read, a canonical value past the float range included."""

    def _load(self, monkeypatch, chunk, path, entry, before=()):
        """Write `entry` as re of data row 19, after the lines `before` (put
        in after data row 1), and load the grid in chunks of `chunk` bytes."""
        lines = path.read_bytes().split(b"\n")
        x, y, _, im = lines[20].split(b",")
        lines[20] = b",".join([x, y, entry, im])
        lines[3:3] = before
        path.write_bytes(b"\n".join(lines))
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_sampled_field, path)
        assert spy.float_reads == 1
        return got

    def test_bad_entry(self, tmp_path, monkeypatch, chunk, case):
        entry, tail = BAD_ENTRIES[case]
        path = smooth_mu_grid(tmp_path)
        got = self._load(monkeypatch, chunk, path, entry)
        assert got == (ConfigError, f"{path} line 21: {tail}")

    def test_after_blank_and_comment_lines(self, tmp_path, monkeypatch, chunk, case):
        entry, tail = BAD_ENTRIES[case]
        path = smooth_mu_grid(tmp_path)
        got = self._load(monkeypatch, chunk, path, entry, [b"", b"# mesur\xc3\xa9", b"#"])
        assert got == (ConfigError, f"{path} line 24: {tail}")


@pytest.mark.parametrize("chunk", [None, 257])
class TestNotUtf8LineNamed:
    """np.loadtxt decodes the whole file before it drops comments, so a byte
    that is not UTF-8 fails the load even in a comment. When no line breaks
    another rule, the first line holding such a byte is named after the
    byte parse fell back to the float read."""

    def _load(self, tmp_path, monkeypatch, chunk, edit):
        """Edit the list of lines of a grid CSV and load it in chunks of
        `chunk` bytes."""
        path = smooth_mu_grid(tmp_path)
        lines = path.read_bytes().split(b"\n")
        edit(lines)
        path.write_bytes(b"\n".join(lines))
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_sampled_field, path)
        assert spy.float_reads == 1
        return path, got

    def test_comment_line(self, tmp_path, monkeypatch, chunk):
        path, got = self._load(tmp_path, monkeypatch, chunk,
                               lambda lines: lines.insert(3, b"# mesur\xe9"))
        assert got == (ConfigError, f"{path} line 4 is not UTF-8 text")

    def test_comment_after_a_data_row(self, tmp_path, monkeypatch, chunk):
        def edit(lines):
            lines[5] += b" # caf\xe9"
            lines[9] += b" # \xff"
        path, got = self._load(tmp_path, monkeypatch, chunk, edit)
        assert got == (ConfigError, f"{path} line 6 is not UTF-8 text")

    def test_a_bad_entry_is_named_first(self, tmp_path, monkeypatch, chunk):
        def edit(lines):
            x, y, _, im = lines[20].split(b",")
            lines[20] = b",".join([x, y, b"1_0", im])
            lines.insert(3, b"# mesur\xe9")
        path, got = self._load(tmp_path, monkeypatch, chunk, edit)
        assert got == (ConfigError, f"{path} line 22: re = '1_0' is not a number")


def test_an_unparsable_line_is_named_before_an_earlier_non_finite_one(tmp_path):
    # np.loadtxt reads nan, so it fails at the later line; that line is named
    path = smooth_mu_grid(tmp_path)
    edit_data_row(path, 3, replace_field(2, "nan"))
    edit_data_row(path, 9, replace_field(3, "x"))
    assert outcome(load_sampled_field, path) == (
        ConfigError, f"{path} line 11: im = 'x' is not a number"
    )


def test_cli_analyze_on_a_byte_parsed_grid(tmp_path):
    """A cold `qcreg analyze` whose grid stands on the byte parse exits 0
    with empty stderr, and prints what the float read gives."""
    path = tmp_path / "mu.csv"
    h = 2.4 / 64
    xs = -1.2 + h * np.arange(65)
    save_sampled_field(path, SampledField(origin=-1.2 - 1.2j, spacing=h, values=varying_mu(
        xs[None, :], xs[:, None]), k_max=VARYING_K_MAX))
    run = (
        "import sys\n"
        "import qcreg.io\n"
        "from qcreg.cli import main\n"
        "reads, loadtxt = [], qcreg.io._loadtxt\n"
        "qcreg.io._loadtxt = lambda *a: reads.append(1) or loadtxt(*a)\n"
        "if sys.argv[1] == 'floats':\n"
        "    qcreg.io._byte_parse = lambda *a: None\n"
        "code = main(['analyze', '--subject', sys.argv[2]])\n"
        "sys.exit(code or len(reads) != (sys.argv[1] == 'floats'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qcreg.io.__file__).parents[1]))
    procs = {
        mode: subprocess.run([sys.executable, "-c", run, mode, str(path)],
                             capture_output=True, env=env, timeout=300)
        for mode in ("bytes", "floats")
    }
    for proc in procs.values():
        assert proc.returncode == 0 and proc.stderr == b""
    assert procs["bytes"].stdout == procs["floats"].stdout


# -- coordinates compared as text ------------------------------------------------


def respell(path, col, spell, rows=None):
    """Write coordinate `col` (0: x, 1: y) of data rows `rows` (every one
    when None) as spell(value), where value is the number it holds."""
    lines = path.read_bytes().decode().splitlines(keepends=True)
    for at in range(1, len(lines)) if rows is None else [1 + r for r in rows]:
        fields = lines[at].rstrip("\n").split(",")
        fields[col] = spell(float(fields[col]))
        lines[at] = ",".join(fields) + "\n"
    path.write_bytes("".join(lines).encode())


def spelled_as(text):
    """A spelling for `respell` that writes `text` whatever the value."""
    return lambda value: text


def spelled_mu_grid(tmp_path):
    """A 7 x 5 mu grid from -1.05 - 1.05i whose first x, y are written
    -1.050000000000000044e+00, with a signed zero among its values."""
    values = 0.3 * np.exp(1j * np.arange(35.0)).reshape(CSV_SHAPE)
    values[2, 3] = complex(-0.0, 0.0)
    path = tmp_path / "mu.csv"
    save_sampled_field(path, SampledField(origin=-1.05 - 1.05j, spacing=0.35, values=values,
                                          k_max=0.3))
    return path


# (coordinate, its spelling, the data rows written so: None for every one)
SPELLINGS = {
    "x as %.6f": (0, lambda v: "%.6f" % v, None),
    "y as %.6f": (1, lambda v: "%.6f" % v, None),
    "x as repr": (0, repr, None),
    "y as repr": (1, repr, None),
    "x padded": (0, lambda v: "  %r " % v, None),
    "y padded": (1, lambda v: " %.18e" % v, None),
    "one x as -1.05": (0, spelled_as("-1.05"), [10]),
    "first x as -1.05": (0, spelled_as("-1.05"), [0]),
    "one y padded": (1, lambda v: " %.18e" % v, [22]),
    "x of 40 digits": (0, lambda v: "%.39e" % v, None),
    "one y of 40 digits": (1, lambda v: "%.39e" % v, [0]),
    "x with + signs": (0, lambda v: "%+.18e" % v, None),
    "y with 3-digit exponents": (1, lambda v: "%.18e" % v + "0", None),
}

# (coordinate, text, data row, the end of the message naming it)
BAD_COORDINATES = {
    "nan x in row 0": (0, "nan", 0, "line 2: x = nan is not finite"),
    "nan y in a later row": (1, "nan", 17, "line 19: y = nan is not finite"),
    "1_0 x": (0, "1_0", 0, "line 2: x = '1_0' is not a number"),
    "1_0 y in a later row": (1, "1_0", 8, "line 10: y = '1_0' is not a number"),
    "non-ASCII x": (0, "\u0661", 3, "line 5: x = '\u0661' is not a number"),
    "non-ASCII y in row 0": (1, "-1\u0665", 0, "line 2: y = '-1\u0665' is not a number"),
}


@pytest.mark.parametrize("chunk", [None, 257])
class TestCoordinateText:
    """Each row's x is compared as text with that of grid row 0 in its
    column, and its y with that of its grid row's first node. A grid the
    float read accepts loads bit-equal to it, signed zeros included, and
    one it rejects gives its message; only a file whose coordinates are all
    canonical stands on the byte parse."""

    @pytest.mark.parametrize("case", SPELLINGS)
    def test_spelling(self, tmp_path, monkeypatch, chunk, case):
        col, spell, rows = SPELLINGS[case]
        path = spelled_mu_grid(tmp_path)
        respell(path, col, spell, rows)
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_sampled_field, path)
        assert same(got, want)
        assert spy.float_reads == 1

    @pytest.mark.parametrize("case", BAD_COORDINATES)
    def test_bad_coordinate(self, tmp_path, monkeypatch, chunk, case):
        col, text, row, tail = BAD_COORDINATES[case]
        path = spelled_mu_grid(tmp_path)
        respell(path, col, spelled_as(text), [row])
        want = float_read(load_sampled_field, path)
        ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (ConfigError, f"{path} {tail}")

    @pytest.mark.parametrize("spell,text", [
        # float() reads -1.0_5 as -1.05, on the grid
        (lambda t: t[:4] + "_" + t[4:], "-1.0_50000000000000044e+00"),
        (lambda t: "%.39fx" % float(t), "%.39fx" % -1.05),
    ], ids=["underscore", "letter after 40 digits"])
    def test_every_x_no_number(self, tmp_path, monkeypatch, chunk, spell, text):
        # every x agrees with its reference; np.loadtxt reads no number in it
        path = spelled_mu_grid(tmp_path)
        respell(path, 0, lambda v: spell("%.18e" % v))
        want = float_read(load_sampled_field, path)
        ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError, f"{path} line 2: x = {text!r} is not a number")

    @pytest.mark.parametrize("first", [1, 3, 5, 17, 34])
    @pytest.mark.parametrize("col", [0, 1])
    def test_off_the_grid_from_a_row_on(self, tmp_path, monkeypatch, chunk, col, first):
        # from data row `first` on, every x, or the y of the rest of that
        # grid row, is moved by half a spacing and written canonically:
        # only the comparison with grid row 0, or with the grid row's first
        # node, which may lie in an earlier chunk, catches it
        path = spelled_mu_grid(tmp_path)
        rows = range(first, 35) if col == 0 else range(first, (first // 5 + 1) * 5)
        respell(path, col, lambda v: "%.18e" % (v + 0.175), rows)
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        got = outcome(load_sampled_field, path)
        iy, ix = divmod(first, 5)
        if col == 0 and first < 5:  # a reference itself is off the grid
            iy, ix = 0, first
        assert got == want == (
            ConfigError,
            f"{path}: grid coordinates disagree with the descriptor at node [{iy}, {ix}]",
        )
        assert spy.float_reads == 1

    @pytest.mark.parametrize("first", [0, 4, 10, 16, 33])
    def test_swapped_rows(self, tmp_path, monkeypatch, chunk, first):
        path = spelled_mu_grid(tmp_path)
        lines = read_lines(path)
        lines[first + 1], lines[first + 2] = lines[first + 2], lines[first + 1]
        write_lines(path, lines)
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        iy, ix = divmod(first, 5)
        assert outcome(load_sampled_field, path) == want == (
            ConfigError,
            f"{path}: grid coordinates disagree with the descriptor at node [{iy}, {ix}]",
        )
        assert spy.float_reads == 1

    def test_nul_after_a_reference(self, tmp_path, monkeypatch, chunk):
        path = spelled_mu_grid(tmp_path)
        respell(path, 0, lambda v: "%.18e\0" % v, [0])
        want = float_read(load_sampled_field, path)
        spy = ByteParse(monkeypatch, chunk)
        assert outcome(load_sampled_field, path) == want
        assert want[0] is ConfigError and "line 2: x = " in want[1]
        assert spy.float_reads == 1

    def test_matrix_grid_respelled(self, tmp_path, monkeypatch, chunk):
        path, _ = write_varying_matrix_grid(tmp_path)
        respell(path, 1, repr)
        want = serial_rows(path)
        spy = ByteParse(monkeypatch, chunk)
        got = grid_rows(path, MATRIX_HEADER)
        assert spy.float_reads == 1
        assert np.array_equal(got[:, 2:], want[:, 2:])
        assert np.array_equal(np.signbit(got[:, 2:]), np.signbit(want[:, 2:]))


# -- the reader's number conversion -------------------------------------------------

ZERO_TEXT = b"0.000000000000000000e+00"


def parse_values(texts):
    """The floats that `_parse_lines` reads from the byte strings `texts`,
    each the value field of a line after a canonical x and y, or None."""
    pad = 32 * 3
    buf = bytearray(pad - 1) + b"\n" + b"".join(
        b"%s,%s,%s\n" % (ZERO_TEXT, ZERO_TEXT, text) for text in texts)
    parsed = qcreg.io._parse_lines(buf, len(buf), 3)
    return None if parsed is None else parsed[0][:, 0]


def assert_reads_as_float(texts):
    got = parse_values(texts)
    want = np.array([float(t) for t in texts])
    if got is None:
        pytest.fail("a canonical text was not read")
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        t, g, w = next((t, g, w) for t, g, w in zip(texts, got, want)
                       if np.float64(g).view(np.uint64) != np.float64(w).view(np.uint64))
        pytest.fail(f"{t!r} reads as {g!r}, not {w!r}")


def random_texts(rng, size):
    """`size` texts d.dddddddddddddddddde±dd of 19 random digits (the first
    not 0), a random exponent in [-99, 99] and a random sign."""
    digits = rng.integers(0, 10, (size, 19), dtype=np.uint8)
    digits[:, 0] = rng.integers(1, 10, size)
    exp10 = rng.integers(-99, 100, size)
    text = np.empty((size, 25), np.uint8)
    text[:, 0] = np.where(rng.integers(0, 2, size) == 1, ord("-"), ord("+"))
    text[:, 1] = digits[:, 0] + ord("0")
    text[:, 2] = ord(".")
    text[:, 3:21] = digits[:, 1:] + ord("0")
    text[:, 21] = ord("e")
    text[:, 22] = np.where(exp10 < 0, ord("-"), ord("+"))
    text[:, 23] = np.abs(exp10) // 10 + ord("0")
    text[:, 24] = np.abs(exp10) % 10 + ord("0")
    return [t.lstrip(b"+") for t in text.view("S25")[:, 0].tolist()]


def midpoint_texts(doubles):
    """Texts of 19 significant digits around the midpoint m of each double
    d and the next one up: the largest at or below m (m itself, a tie,
    where m has 19 digits), the one before it and the one after it."""
    texts = []
    for d in doubles:
        m = (Fraction(float(d)) + Fraction(float(np.nextafter(d, np.inf)))) / 2
        exp10 = math.floor(math.log10(d))
        while m >= Fraction(10) ** (exp10 + 1):
            exp10 += 1
        while m < Fraction(10) ** exp10:
            exp10 -= 1
        near = math.floor(m * Fraction(10) ** (18 - exp10))
        for n in (near - 1, near, near + 1):
            s = str(n)
            texts.append(f"{s[0]}.{s[1:]}e{exp10:+03d}".encode())
    return texts


def tie_texts():
    """The ties 2^k + 2^(k - 53) (rounded down, to the even 2^k) and
    2^k + 3 2^(k - 53) (rounded up, to the even 2^k + 2^(k - 51)) for k in
    [53, 62], exactly, in %.18e form."""
    texts = []
    for k in range(53, 63):
        for odd in (1, 3):
            s = str(2**k + odd * 2 ** (k - 53))
            texts.append(f"{s[0]}.{s[1:].ljust(18, '0')}e+{len(s) - 1:02d}".encode())
    return texts


def split_texts(texts):
    """(N, E) of canonical unsigned texts, as `_decimal_parts` reads them."""
    words = np.array(texts, "S24").view(np.uint64).reshape(-1, 3).T
    return qcreg.io._decimal_parts(*words)


class TestValueConversion:
    """The byte parse's conversion of canonical value texts against
    float(), which rounds correctly as np.loadtxt does, bit for bit."""

    def test_random_texts(self):
        rng = np.random.default_rng(35)
        for _ in range(10):  # 10^6 texts
            assert_reads_as_float(random_texts(rng, 10**5))

    def test_midpoints(self):
        rng = np.random.default_rng(35)
        doubles = np.concatenate([
            10.0 ** rng.uniform(-99, 99, 3000),
            [np.nextafter(2.0**k, 0) for k in range(-300, 300)],  # below a power of 2
            2.0 ** np.arange(-300, 300),
        ])
        texts = midpoint_texts(doubles)
        assert_reads_as_float(texts + [b"-" + t for t in texts])

    def test_ties(self):
        texts = tie_texts()
        assert [float(t) for t in texts[:2]] == [2.0**53, 2.0**53 + 4]
        got, flagged = qcreg.io._floats(*split_texts(texts))
        assert flagged.all()  # each is read with float()
        # rounding half up is wrong for some of them
        assert any(g != float(t) for g, t in zip(got, texts))
        assert_reads_as_float(texts + [b"-" + t for t in texts])

    def test_neighbours_of_powers_of_two(self):
        values = []
        for k in range(-40, 160):
            p = 2.0**k
            values += [np.nextafter(p, 0), p, np.nextafter(p, np.inf)]
        texts = [b"%.18e" % v for v in values]
        assert_reads_as_float(texts + [b"-" + t for t in texts])

    def test_special_values(self):
        texts = [
            ZERO_TEXT, b"-" + ZERO_TEXT,
            b"4.940656458412465442e-324", b"2.225073858507200889e-308",  # subnormal
            b"2.225073858507201383e-308", b"1.797693134862315708e+308",  # smallest, largest
            b"1.000000000000000000e+100", b"1.000000000000000000e-100",
            b"9.999999999999999999e+99", b"1.000000000000000000e-99",  # 2-digit ends
            b"0.000000000000000001e-99", b"0.999999999999999999e+99",  # a leading 0
            b"9.223372036854775807e+18", b"9.223372036854775808e+18",  # 2^63 - 1, 2^63
            b"1.000000000000000000e-400",  # below the float range: 0
        ]
        texts += [b"-" + t for t in texts[2:]]
        got = parse_values(texts)
        assert_reads_as_float(texts)
        assert list(np.signbit(got)) == [t.startswith(b"-") for t in texts]

    def test_not_canonical(self):
        good = b"1.234567890123456789e-01"
        for bad in [good[:-1] + b"x", good.replace(b".", b","), good.replace(b"e", b"E"),
                    good.replace(b"-", b""), b"+" + good, b"--" + good,
                    good.replace(b"e-", b"e*"), good[:-2] + b"1\0", b" " + good[1:],
                    good[:-2] + b"1000", good[:-3] + b"1"]:
            assert parse_values([good, bad]) is None, bad


# -- damaged grids: every one exits 1 or 2 naming its file and where -------------


def covering_mu_grid(tmp_path):
    """A 7 x 5 grid of mu = 0.1i whose hull covers the default unit disk."""
    path = tmp_path / "mu.csv"
    save_sampled_field(path, SampledField(origin=-1.2 - 1.2j, spacing=0.6,
                                          values=np.full(CSV_SHAPE, 0.1j), k_max=0.2))
    return path


def damage_rows(damage):
    """A damage of the data lines: damage(rng, lines) edits them in place."""
    def apply(path, rng):
        lines = read_lines(path)
        damage(rng, lines)
        write_lines(path, lines)
    return apply


def drop_field(rng, lines):
    at = rng.randrange(1, len(lines))
    fields = lines[at].rstrip("\n").split(",")
    del fields[rng.randrange(len(fields))]
    lines[at] = ",".join(fields) + "\n"


def set_field(texts):
    def damage(rng, lines):
        at = rng.randrange(1, len(lines))
        replace_field(rng.randrange(4), rng.choice(texts))(lines, at)
    return damage


def swap_rows(rng, lines):
    i, j = rng.sample(range(1, len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]


def truncate(path, rng):
    """Cut the file inside its data, before the last line starts."""
    data = path.read_bytes()
    first, last = data.index(b"\n") + 1, data.rstrip(b"\n").rindex(b"\n") + 1
    path.write_bytes(data[:rng.randrange(first, last)])


def non_utf8_byte(path, rng):
    data = path.read_bytes()
    at = rng.randrange(data.index(b"\n") + 1, len(data) - 1)
    path.write_bytes(data[:at] + rng.choice((b"\xe9", b"\xff", b"\xc3")) + data[at:])


def wrong_sidecar_type(path, rng):
    value = rng.choice(("1", "x", None, True, [1], {"x": 1}))
    rewrite_sidecar(path, **{rng.choice(("origin", "spacing", "nx", "ny", "k_max")): value})


DAMAGES = {
    "dropped field": damage_rows(drop_field),
    "non-number": damage_rows(set_field(("abc", "1.0e", "--1", "0.1.2", "", "1_0", "0x10"))),
    "nan": damage_rows(set_field(("nan", "NaN", "-nan"))),
    "swapped row": damage_rows(swap_rows),
    "truncated file": truncate,
    "non-UTF-8 byte": non_utf8_byte,
    "sidecar value of the wrong type": wrong_sidecar_type,
}

#: where a message says the damage is: a line, a grid node, or a sidecar key
WHERE = re.compile(r"line \d+|node \[\d+, \d+\]|rows but descriptor says nx\*ny"
                   r"|\.json: (origin|spacing|nx|ny|k_max) must")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("damage", DAMAGES)
def test_damaged_grid_names_file_and_place_on_both_paths(tmp_path, monkeypatch, capsys,
                                                         damage, seed):
    path = covering_mu_grid(tmp_path)
    DAMAGES[damage](path, random.Random(f"{damage}:{seed}"))
    argv = ["analyze", "--subject", str(path), "--nodes", "16", "--radii-count", "3"]
    spy = ByteParse(monkeypatch, 257)
    bytes_first = main(argv), capsys.readouterr().err
    float_reads = spy.float_reads
    monkeypatch.setattr(qcreg.io, "_byte_parse", lambda *a: None)
    floats = main(argv), capsys.readouterr().err
    code, err = floats
    assert code in (1, 2) and str(path) in err and WHERE.search(err), err
    assert bytes_first == floats
    assert float_reads == (0 if damage.startswith("sidecar") else 1)
