import json

import numpy as np
import pytest

from qcreg import (
    ConfigError,
    FieldValidationError,
    SampledField,
    load_matrix_field,
    load_sampled_field,
    save_matrix_field,
    save_sampled_field,
    validate_matrix_field,
)
from qcreg.cli import main
from qcreg.io import sidecar_path


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
        assert field.det_normalized
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
    field = SampledField(
        origin=origin, spacing=spacing, values=np.zeros(values.shape), k_max=0.5
    )
    object.__setattr__(field, "values", np.asarray(values, dtype=complex))
    return field


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


def read_lines(path):
    return path.read_text().splitlines(keepends=True)


def write_lines(path, lines):
    path.write_text("".join(lines))


def non_square_field():
    ny, nx = 3, 5
    values = 0.1 * np.arange(ny * nx).reshape(ny, nx) / (ny * nx) + 0.02j
    return SampledField(origin=-0.5 + 0.25j, spacing=0.125, values=values, k_max=0.2)


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
        with pytest.raises(ConfigError, match="abc"):
            load_sampled_field(path)

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
