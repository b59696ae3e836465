"""A traced analysis of a matrix grid calls every layer the benchmark times.

`bench/tracing.py` reads a per-layer metric from the calls of a public name.
A name that still exists but is no longer called leaves its metric empty as
silently as a deleted one, so this runs the tracer around `run_analysis` on
a small matrix grid and checks that each matrix-path name records a call.
The tracer's source is only read and executed here, so no bytecode is
written next to it.
"""

import types
from pathlib import Path

import numpy as np
import pytest

import qcreg.reporting
from qcreg import build_config, matrix_from_beltrami, save_matrix_field

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

MATRIX_PATH_SPANS = (
    "io.load_matrix_field",
    "elliptic.validate_matrix_field",
    "elliptic.elliptic_holder_bound",
    "elliptic.comparison_bounds",
    "plane.validate_field",
)


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
def test_matrix_run_calls_every_matrix_layer(tracing, tmp_path, interpolation):
    x = np.linspace(-1.2, 1.2, 17)
    z = x[None, :] + 1j * x[:, None]
    path = tmp_path / "matrix.csv"
    save_matrix_field(path, matrix_from_beltrami(0.2 * np.exp(1j * z.real) * np.cos(z.imag)),
                      origin=-1.2 - 1.2j, spacing=2.4 / 16, K=1.5)
    cfg = build_config({"subject": str(path), "interpolation": interpolation})
    tracer = tracing.Tracer().install()
    try:
        qcreg.reporting.run_analysis(cfg)
    finally:
        tracer.uninstall()
    assert not tracer.absent
    calls = {name: tracer.counts.get(name + ".calls", 0) for name in MATRIX_PATH_SPANS}
    assert all(calls.values()), calls
