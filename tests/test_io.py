import json
import os
import signal
import subprocess
import sys
import time
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


class GridWrite:
    """Makes every grid write format its chunks (one grid row each) in
    forked children on `cpus` usable CPUs, and counts what happens: the
    forks (their pids in `children`) and the chunks formatted in this
    process, by the serial path or a fallback. `child_action` maps a
    chunk's first grid row to what the child formatting it does instead:
    "kill" itself before sending it, or "exit 3" after sending all its
    chunks. `cut` is a chunk whose child the parent kills once it has read
    the chunk's length, so that the chunk ends short."""

    def __init__(self, monkeypatch, cpus):
        self.pid = os.getpid()
        self.children = []
        self.parent_chunks = 0
        self.child_action = {}
        self.cut = None
        self.chunks_read = 0
        real_fork, real_text = os.fork, qcreg.io._grid_text
        real_read = qcreg.io._read_exactly
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(qcreg.io, "_usable_cpus", lambda: cpus)

        def fork():
            pid = real_fork()
            if pid:
                self.children.append(pid)
            return pid

        def grid_text(row_format, ys, columns, lo, hi):
            if os.getpid() == self.pid:
                self.parent_chunks += 1
            elif self.child_action.get(lo) == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif self.child_action.get(lo) == "exit 3":
                real_exit = os._exit
                os._exit = lambda code: real_exit(3)
            return real_text(row_format, ys, columns, lo, hi)

        def read_exactly(pipe, array):
            if isinstance(array, bytearray) and len(array) != 8:  # a chunk, after its length
                if self.chunks_read == self.cut:
                    os.kill(self.children[self.cut % len(self.children)], signal.SIGKILL)
                self.chunks_read += 1
            return real_read(pipe, array)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(qcreg.io, "_grid_text", grid_text)
        monkeypatch.setattr(qcreg.io, "_read_exactly", read_exactly)

    @property
    def forks(self):
        return len(self.children)


def forked_writers(ny, cpus):
    """The children a write of ny grid rows forks under GridWrite."""
    return min(ny, cpus) if min(ny, cpus) >= 2 else 0


def save_special_mu_grid(path, shape):
    """Save a mu grid of the special values, unchecked; the oracle's bytes."""
    origin, spacing = complex(-3.7, -0.0), np.float64(0.1)
    re, im = special_grid(shape, 0), special_grid(shape, 3)
    values = re.astype(complex)
    values.imag = im
    save_sampled_field(path, raw_sampled_field(values, origin, spacing))
    return savetxt_oracle(path.parent, MU_HEADER, origin, spacing, (re, im))


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.usefixtures("deadline")
class TestForkedGridWriterMatchesSavetxt:
    # (2, 9): fewer grid rows than 3 CPUs, so only 2 children
    @pytest.mark.parametrize("shape", GRID_SHAPES + [(2, 9)])
    def test_sampled_field_special_values(self, tmp_path, monkeypatch, cpus, shape):
        spy = GridWrite(monkeypatch, cpus)
        path = tmp_path / "mu.csv"
        want = save_special_mu_grid(path, shape)
        assert path.read_bytes() == want
        forks = forked_writers(shape[0], cpus)
        assert spy.forks == forks and spy.parent_chunks == (0 if forks else shape[0])
        assert_no_child_left()

    @pytest.mark.parametrize("shape", GRID_SHAPES + [(2, 9)])
    def test_matrix_field_special_values(self, tmp_path, monkeypatch, cpus, shape):
        origin, spacing = complex(-1e-3, -250.0), np.float64(2.4 / 64)
        grids = tuple(special_grid(shape, k) for k in (0, 4, 7))
        spy = GridWrite(monkeypatch, cpus)
        path = tmp_path / "matrix.csv"
        save_matrix_field(path, grids, origin=origin, spacing=spacing, K=2.0)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, MATRIX_HEADER, origin, spacing, grids
        )
        forks = forked_writers(shape[0], cpus)
        assert spy.forks == forks and spy.parent_chunks == (0 if forks else shape[0])
        assert_no_child_left()

    def test_sampled_field_smooth(self, tmp_path, monkeypatch, cpus):
        field = make_field()
        spy = GridWrite(monkeypatch, cpus)
        path = tmp_path / "mu.csv"
        save_sampled_field(path, field)
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, MU_HEADER, field.origin, field.spacing,
            (field.values.real, field.values.imag),
        )
        assert spy.forks == cpus and spy.parent_chunks == 0
        assert_no_child_left()


# 7 grid rows, which neither 2 nor 3 children share evenly
WRITE_SHAPE = (7, 5)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.usefixtures("deadline")
class TestForkedGridWriterFallsBackToSerial:
    """Each failure leaves the serial bytes, written by this process after
    the file was truncated, and no child running."""

    @pytest.mark.parametrize("failing", [1, 2])
    def test_fork_fails(self, tmp_path, monkeypatch, cpus, failing):
        spy = GridWrite(monkeypatch, cpus)
        forked = os.fork

        def fork():
            if spy.forks + 1 == failing:
                raise OSError("no more processes")
            return forked()

        monkeypatch.setattr(os, "fork", fork)
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, WRITE_SHAPE) == path.read_bytes()
        assert spy.forks == failing - 1 and spy.parent_chunks == WRITE_SHAPE[0]
        assert_no_child_left()

    @pytest.mark.parametrize("action", ["kill", "exit 3"])
    @pytest.mark.parametrize("row", [0, 1, 6])
    def test_failed_child(self, tmp_path, monkeypatch, cpus, action, row):
        spy = GridWrite(monkeypatch, cpus)
        spy.child_action = {row: action}
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, WRITE_SHAPE) == path.read_bytes()
        assert spy.forks == cpus and spy.parent_chunks == WRITE_SHAPE[0]
        assert_no_child_left()

    @pytest.mark.parametrize("chunk", [0, 2])
    def test_child_killed_mid_chunk(self, tmp_path, monkeypatch, cpus, chunk):
        # a grid row of 4,097 lines is about 400 kB of text, more than a
        # pipe holds, so its child is still writing it when it is killed
        spy = GridWrite(monkeypatch, cpus)
        spy.cut = chunk
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, (4, 4097)) == path.read_bytes()
        assert spy.chunks_read == chunk + 1 and spy.parent_chunks == 4
        assert_no_child_left()


class TestForkedGridWriterNeedsCpusAndFork:
    def test_no_fork_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(qcreg.io, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, WRITE_SHAPE) == path.read_bytes()

    def test_one_usable_cpu_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one usable CPU"))
        path = tmp_path / "mu.csv"
        assert save_special_mu_grid(path, WRITE_SHAPE) == path.read_bytes()

    @pytest.mark.usefixtures("deadline")
    def test_real_settings_on_a_grid_above_block_bytes(self, tmp_path, monkeypatch):
        # run under `taskset -c 0` in CI, so the one-CPU path runs for real
        n = 257
        h = 2.4 / (n - 1)
        xs = -1.2 + h * np.arange(n)
        field = SampledField(origin=-1.2 - 1.2j, spacing=h, values=varying_mu(
            xs[None, :], xs[:, None]), k_max=VARYING_K_MAX)
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        path = tmp_path / "mu.csv"
        save_sampled_field(path, field)
        assert path.stat().st_size > qcreg.io.BLOCK_BYTES
        assert path.read_bytes() == savetxt_oracle(
            tmp_path, MU_HEADER, field.origin, h, (field.values.real, field.values.imag)
        )
        usable = qcreg.io._usable_cpus()
        assert len(forks) == (min(usable, 2) if usable >= 2 else 0)
        assert_no_child_left()


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

    def test_swapped_nx_ny_rejected(self, tmp_path):
        path = tmp_path / "mu.csv"
        save_sampled_field(path, non_square_field())
        desc = json.loads(sidecar_path(path).read_text())
        desc["nx"], desc["ny"] = desc["ny"], desc["nx"]
        sidecar_path(path).write_text(json.dumps(desc))
        with pytest.raises(ConfigError, match="coordinates disagree"):
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


# -- the block parse -------------------------------------------------------------

SERIAL_LOADTXT = np.loadtxt


def serial_rows(path):
    return SERIAL_LOADTXT(path, delimiter=",", skiprows=1, ndmin=2)


class BlockParse:
    """Makes every grid CSV take the block parse in `blocks` children, and
    counts what happens: the forks, and the np.loadtxt calls of this process
    (the serial path or a fallback). `child_action` maps a child's skiprows
    to what that child does instead of its normal parse: "kill" itself,
    "hang", return a "short" or "long" block (a row less or more), or
    "exit 3" after sending its block."""

    def __init__(self, monkeypatch, blocks):
        self.pid = os.getpid()
        self.forks = 0
        self.parent_loads = 0
        self.child_action = {}
        real_fork = os.fork
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(qcreg.io, "_usable_cpus", lambda: blocks)

        def fork():
            self.forks += 1
            return real_fork()

        def loadtxt(*args, **kwargs):
            if os.getpid() == self.pid:
                self.parent_loads += 1
                return SERIAL_LOADTXT(*args, **kwargs)
            action = self.child_action.get(kwargs["skiprows"])
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif action == "hang":
                time.sleep(120)
            elif action == "exit 3":
                real_exit = os._exit
                os._exit = lambda code: real_exit(3)
            rows = SERIAL_LOADTXT(*args, **kwargs)
            if action == "short":
                return rows[:-1]
            return np.vstack([rows, rows[-1:]]) if action == "long" else rows

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(np, "loadtxt", loadtxt)

    @property
    def ran(self):
        """The last load took the block path and did not fall back."""
        return self.forks > 0 and self.parent_loads == 0


@pytest.fixture
def deadline():
    """Turn a wait on a child that never ends into a TimeoutError."""
    def expire(signum, frame):
        raise TimeoutError("still waiting on a block child after 60 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(load, *args):
    """What a load gives: its value, or the type and text of its error."""
    try:
        return load(*args)
    except (ConfigError, FieldValidationError) as exc:
        return type(exc), str(exc)


def same(a, b):
    if isinstance(a, tuple):
        return a == b
    return a.shape == b.shape and np.array_equal(a, b)


# 7 x 5 = 35 data rows, which neither 2 nor 3 blocks divide
BLOCK_SHAPE = (7, 5)


def special_mu_grid(tmp_path, shape=BLOCK_SHAPE):
    """A mu grid of the finite special values, written unchecked."""
    finite = [v for v in SPECIAL_VALUES if np.isfinite(v)]
    values = np.resize(finite, shape) + 1j * np.resize(np.roll(finite, 3), shape)
    path = tmp_path / "mu.csv"
    save_sampled_field(path, raw_sampled_field(values, complex(-3.7, -0.0), 0.1))
    return path


def special_matrix_grid(tmp_path, shape=BLOCK_SHAPE):
    finite = [v for v in SPECIAL_VALUES if np.isfinite(v)]
    grids = tuple(np.resize(np.roll(finite, k), shape) for k in (0, 4, 7))
    path = tmp_path / "matrix.csv"
    save_matrix_field(path, grids, origin=-1e-3 - 250j, spacing=2.4 / 64, K=2.0)
    return path


def smooth_mu_grid(tmp_path, shape=BLOCK_SHAPE):
    ny, nx = shape
    values = 0.3 * np.exp(1j * (np.arange(nx)[None, :] - 0.7 * np.arange(ny)[:, None]))
    path = tmp_path / "mu.csv"
    save_sampled_field(path, SampledField(origin=-0.5 + 0.25j, spacing=0.125,
                                          values=values, k_max=0.3))
    return path


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.usefixtures("deadline")
class TestBlockParseEqualsSerial:
    @pytest.mark.parametrize("write,header", [(special_mu_grid, MU_HEADER),
                                              (special_matrix_grid, MATRIX_HEADER)])
    def test_rows_bit_equal(self, tmp_path, monkeypatch, blocks, write, header):
        path = write(tmp_path)
        want = serial_rows(path)
        spy = BlockParse(monkeypatch, blocks)
        got = qcreg.io._load_grid_csv(path, header, len(want))
        assert spy.ran and spy.forks == blocks
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays -0.0
        assert_no_child_left()

    def test_sampled_field(self, tmp_path, monkeypatch, blocks):
        path = smooth_mu_grid(tmp_path)
        want = load_sampled_field(path)
        spy = BlockParse(monkeypatch, blocks)
        got = load_sampled_field(path)
        assert spy.ran
        assert np.array_equal(got.values, want.values) and got.origin == want.origin
        assert_no_child_left()

    def test_matrix_field(self, tmp_path, monkeypatch, blocks):
        path, _ = write_varying_matrix_grid(tmp_path)
        want = load_matrix_field(path)
        spy = BlockParse(monkeypatch, blocks)
        got = load_matrix_field(path)
        assert spy.ran
        assert np.array_equal(got.grid.values, want.grid.values) and got.K == want.K
        assert_no_child_left()

    def test_one_row_per_block(self, tmp_path, monkeypatch, blocks):
        path = smooth_mu_grid(tmp_path, (1, blocks))
        want = serial_rows(path)
        spy = BlockParse(monkeypatch, blocks)
        assert np.array_equal(qcreg.io._load_grid_csv(path, MU_HEADER, blocks), want)
        assert spy.ran and spy.forks == blocks


def edit_data_row(path, row, edit):
    """Apply `edit` to the list of lines at data row `row` (-1: the last)."""
    lines = read_lines(path)
    at = 1 + row if row >= 0 else len(lines) + row
    edit(lines, at)
    write_lines(path, lines)


# lines that np.loadtxt skips or reads otherwise than as one data row, so
# that skiprows and max_rows count them apart or a line count would miss them
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


class TestPlainRowsScan:
    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("ending", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("last_newline", [True, False])
    def test_counts_the_data_lines(self, tmp_path, chunk, ending, last_newline):
        path = smooth_mu_grid(tmp_path)
        data = path.read_bytes().replace(b"\n", ending)
        path.write_bytes(data if last_newline else data[: -len(ending)])
        assert qcreg.io._plain_rows(path, chunk) == 35

    @pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 20])
    @pytest.mark.parametrize("row", [0, 17, -1])
    @pytest.mark.parametrize("odd,how", ODD_CASES)
    def test_rejects_odd_lines(self, tmp_path, chunk, row, odd, how):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, odd_edit(odd, how))
        assert qcreg.io._plain_rows(path, chunk) is None

    def test_header_only(self, tmp_path):
        path = tmp_path / "mu.csv"
        path.write_text(MU_HEADER + "\n")
        assert qcreg.io._plain_rows(path) == 0


@pytest.mark.parametrize("blocks", [2, 3])
@pytest.mark.usefixtures("deadline")
class TestBlockParseFallsBackToSerial:
    @pytest.mark.parametrize("row", [0, 17, -1])
    @pytest.mark.parametrize("odd,how", ODD_CASES)
    def test_odd_line(self, tmp_path, monkeypatch, blocks, row, odd, how):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, odd_edit(odd, how))
        want = outcome(qcreg.io._load_grid_csv, path, MU_HEADER, 35)
        spy = BlockParse(monkeypatch, blocks)
        got = outcome(qcreg.io._load_grid_csv, path, MU_HEADER, 35)
        assert same(got, want)
        assert spy.forks == blocks and spy.parent_loads == 1  # scanned, then serial
        assert_no_child_left()

    def test_crlf_file(self, tmp_path, monkeypatch, blocks):
        path = smooth_mu_grid(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        want = load_sampled_field(path)
        spy = BlockParse(monkeypatch, blocks)
        got = load_sampled_field(path)
        assert spy.ran  # CRLF line ends count alike in skiprows and max_rows
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("text", ["nan", "-inf"])
    def test_non_finite_in_the_last_block(self, tmp_path, monkeypatch, blocks, text):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, 33, replace_field(3, text))
        want = outcome(load_sampled_field, path)
        spy = BlockParse(monkeypatch, blocks)
        got = outcome(load_sampled_field, path)
        assert got == want == (ConfigError, f"{path} line 35: im = {text} is not finite")
        assert spy.ran
        assert_no_child_left()

    def test_unparsable_in_the_last_block(self, tmp_path, monkeypatch, blocks):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, -1, replace_field(2, "1.0e"))
        want = outcome(load_sampled_field, path)
        spy = BlockParse(monkeypatch, blocks)
        got = outcome(load_sampled_field, path)
        assert got == want == (ConfigError, f"{path} line 36: re = '1.0e' is not a number")
        assert spy.forks == blocks and spy.parent_loads == 1
        assert_no_child_left()

    @pytest.mark.parametrize("text,found", [("0.5,1.25,0.1\n", 3), ("  \n", 1)],
                             ids=["ragged row", "whitespace-only line"])
    @pytest.mark.parametrize("row", [0, 17, -1])
    def test_wrong_column_count(self, tmp_path, monkeypatch, blocks, text, found, row):
        path = smooth_mu_grid(tmp_path)
        edit_data_row(path, row, lambda lines, at: lines.__setitem__(at, text))
        want = outcome(load_sampled_field, path)
        spy = BlockParse(monkeypatch, blocks)
        got = outcome(load_sampled_field, path)
        line = 2 + row if row >= 0 else 36
        assert got == want == (ConfigError, f"{path} line {line}: expected 4 columns, "
                                            f"found {found}")
        assert spy.forks == blocks and spy.parent_loads == 1
        assert_no_child_left()

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_row_count_off_by_one(self, tmp_path, monkeypatch, blocks, extra):
        path = smooth_mu_grid(tmp_path)
        lines = read_lines(path)
        write_lines(path, lines[:-1] if extra < 0 else lines + lines[-1:])
        want = outcome(load_sampled_field, path)
        spy = BlockParse(monkeypatch, blocks)
        got = outcome(load_sampled_field, path)
        assert got == want == (
            ConfigError, f"{path}: {35 + extra} rows but descriptor says nx*ny = 35"
        )
        assert spy.forks == blocks and spy.parent_loads == 1
        assert_no_child_left()

    @pytest.mark.parametrize("action", ["kill", "short", "long", "exit 3"])
    @pytest.mark.parametrize("block", ["first", "last"])
    def test_failed_child(self, tmp_path, monkeypatch, blocks, action, block):
        path = smooth_mu_grid(tmp_path)
        want = load_sampled_field(path)
        spy = BlockParse(monkeypatch, blocks)
        spy.child_action = {1 if block == "first" else 1 + 35 * (blocks - 1) // blocks: action}
        got = load_sampled_field(path)
        assert spy.forks == blocks and spy.parent_loads == 1
        assert np.array_equal(got.values, want.values)
        assert_no_child_left()

    def test_other_children_are_stopped(self, tmp_path, monkeypatch, blocks):
        # the first child dies, so the parse falls back without waiting for
        # the last one, which would otherwise run for two minutes
        path = smooth_mu_grid(tmp_path)
        spy = BlockParse(monkeypatch, blocks)
        spy.child_action = {1: "kill", 1 + 35 * (blocks - 1) // blocks: "hang"}
        start = time.monotonic()
        load_sampled_field(path)
        assert time.monotonic() - start < 60
        assert spy.parent_loads == 1
        assert_no_child_left()


# (bytes written as the re entry of a data row, the end of the message naming it)
BAD_ENTRIES = {
    "underscore": (b"1_0", "re = '1_0' is not a number"),  # float() reads 10
    "non-ASCII digit": ("\u0661".encode(), "re = '\u0661' is not a number"),  # float() reads 1
    "padded word": (b" abc ", "re = ' abc ' is not a number"),
    "Latin-1 byte": (b"\xe9", "re = '\ufffd' is not a number"),
    "nan": (b"nan", "re = nan is not finite"),
    "-inf": (b"-inf", "re = -inf is not finite"),
}


@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("case", BAD_ENTRIES)
@pytest.mark.usefixtures("deadline")
class TestBadLineNamed:
    """`_bad_line` gives one message on the serial path and on the block path,
    whether the block parse stands (nan, -inf) or falls back to serial."""

    def _load(self, monkeypatch, blocks, path, entry, before=()):
        """Write `entry` as re of data row 19, after the lines `before` (put
        in after data row 1), and load the grid on `blocks` blocks."""
        lines = path.read_bytes().split(b"\n")
        x, y, _, im = lines[20].split(b",")
        lines[20] = b",".join([x, y, entry, im])
        lines[3:3] = before
        path.write_bytes(b"\n".join(lines))
        spy = BlockParse(monkeypatch, blocks) if blocks > 1 else None
        got = outcome(load_sampled_field, path)
        assert spy is None or spy.forks == blocks
        assert_no_child_left()
        return got

    def test_bad_entry(self, tmp_path, monkeypatch, blocks, case):
        entry, tail = BAD_ENTRIES[case]
        path = smooth_mu_grid(tmp_path)
        got = self._load(monkeypatch, blocks, path, entry)
        assert got == (ConfigError, f"{path} line 21: {tail}")

    def test_after_blank_and_comment_lines(self, tmp_path, monkeypatch, blocks, case):
        entry, tail = BAD_ENTRIES[case]
        path = smooth_mu_grid(tmp_path)
        got = self._load(monkeypatch, blocks, path, entry, [b"", b"# mesur\xc3\xa9", b"#"])
        assert got == (ConfigError, f"{path} line 24: {tail}")


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.usefixtures("deadline")
class TestNotUtf8LineNamed:
    """np.loadtxt decodes the whole file before it drops comments, so a byte
    that is not UTF-8 fails the load even in a comment. When no line breaks
    another rule, the first line holding such a byte is named, on the serial
    path and after the block path fell back to it."""

    def _load(self, tmp_path, monkeypatch, blocks, edit):
        """Edit the list of lines of a grid CSV and load it on `blocks` blocks."""
        path = smooth_mu_grid(tmp_path)
        lines = path.read_bytes().split(b"\n")
        edit(lines)
        path.write_bytes(b"\n".join(lines))
        spy = BlockParse(monkeypatch, blocks) if blocks > 1 else None
        got = outcome(load_sampled_field, path)
        assert spy is None or (spy.forks == blocks and spy.parent_loads == 1)
        assert_no_child_left()
        return path, got

    def test_comment_line(self, tmp_path, monkeypatch, blocks):
        path, got = self._load(tmp_path, monkeypatch, blocks,
                               lambda lines: lines.insert(3, b"# mesur\xe9"))
        assert got == (ConfigError, f"{path} line 4 is not UTF-8 text")

    def test_comment_after_a_data_row(self, tmp_path, monkeypatch, blocks):
        def edit(lines):
            lines[5] += b" # caf\xe9"
            lines[9] += b" # \xff"
        path, got = self._load(tmp_path, monkeypatch, blocks, edit)
        assert got == (ConfigError, f"{path} line 6 is not UTF-8 text")

    def test_a_bad_entry_is_named_first(self, tmp_path, monkeypatch, blocks):
        def edit(lines):
            x, y, _, im = lines[20].split(b",")
            lines[20] = b",".join([x, y, b"1_0", im])
            lines.insert(3, b"# mesur\xe9")
        path, got = self._load(tmp_path, monkeypatch, blocks, edit)
        assert got == (ConfigError, f"{path} line 22: re = '1_0' is not a number")


def test_an_unparsable_line_is_named_before_an_earlier_non_finite_one(tmp_path):
    # np.loadtxt reads nan, so it fails at the later line; that line is named
    path = smooth_mu_grid(tmp_path)
    edit_data_row(path, 3, replace_field(2, "nan"))
    edit_data_row(path, 9, replace_field(3, "x"))
    assert outcome(load_sampled_field, path) == (
        ConfigError, f"{path} line 11: im = 'x' is not a number"
    )


@pytest.mark.usefixtures("deadline")
class TestBlockParseNeedsCpusAndFork:
    def test_one_usable_cpu_forks_nothing(self, tmp_path, monkeypatch):
        path = smooth_mu_grid(tmp_path)
        want = load_sampled_field(path)
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one usable CPU"))
        assert np.array_equal(load_sampled_field(path).values, want.values)

    def test_no_fork_forks_nothing(self, tmp_path, monkeypatch):
        path = smooth_mu_grid(tmp_path)
        want = load_sampled_field(path)
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(qcreg.io, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert np.array_equal(load_sampled_field(path).values, want.values)

    def test_real_affinity_sets_the_block_count(self, tmp_path, monkeypatch):
        # run under `taskset -c 0` in CI, so the one-CPU path runs for real
        path = smooth_mu_grid(tmp_path)
        want = load_sampled_field(path)
        real_fork, forks = os.fork, []
        monkeypatch.setattr(qcreg.io, "BLOCK_BYTES", 1)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        assert np.array_equal(load_sampled_field(path).values, want.values)
        usable = qcreg.io._usable_cpus()
        assert len(forks) == (min(usable, 35) if usable >= 2 else 0)
        assert_no_child_left()

    def test_small_file_stays_serial(self, tmp_path, monkeypatch):
        path = smooth_mu_grid(tmp_path)
        monkeypatch.setattr(qcreg.io, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a small file"))
        assert path.stat().st_size <= qcreg.io.BLOCK_BYTES
        load_sampled_field(path)


def test_cli_analyze_on_a_block_parsed_grid(tmp_path):
    """A cold `qcreg analyze` whose grid is parsed in two blocks exits 0 with
    empty stderr, and prints what the serial parse gives."""
    path = tmp_path / "mu.csv"
    h = 2.4 / 64
    xs = -1.2 + h * np.arange(65)
    save_sampled_field(path, SampledField(origin=-1.2 - 1.2j, spacing=h, values=varying_mu(
        xs[None, :], xs[:, None]), k_max=VARYING_K_MAX))
    run = (
        "import os, sys\n"
        "import qcreg.io\n"
        "from qcreg.cli import main\n"
        "forks, fork = [], os.fork\n"
        "if sys.argv[1] == 'blocks':\n"
        "    qcreg.io.BLOCK_BYTES = 1\n"
        "    qcreg.io._usable_cpus = lambda: 2\n"
        "    os.fork = lambda: forks.append(1) or fork()\n"
        "code = main(['analyze', '--subject', sys.argv[2]])\n"
        "sys.exit(code or len(forks) != (sys.argv[1] == 'blocks') * 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qcreg.io.__file__).parents[1]))
    # From Python 3.12 os.fork warns in a process with threads, which numpy's
    # BLAS pool can start. Called through the lambda above, the warning
    # belongs to __main__, where Python shows DeprecationWarnings by default,
    # so one the block parse failed to silence would reach stderr.
    procs = {
        mode: subprocess.run([sys.executable, "-c", run, mode, str(path)],
                             capture_output=True, env=env, timeout=300)
        for mode in ("serial", "blocks")
    }
    for proc in procs.values():
        assert proc.returncode == 0 and proc.stderr == b""
    assert procs["blocks"].stdout == procs["serial"].stdout
