"""The public names the benchmark's tracer wraps still exist.

`bench/tracing.py` wraps qcreg functions from outside the package and drops
the metrics of any name that has gone, so deleting or renaming one would
silently empty a per-layer metric of a traced run. The tracer's source is
only read and executed here, so no bytecode is written next to it.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcreg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_name_exists(tracing):
    traced = tracing.SPANS + tracing.COUNTED + tracing.CATALOG
    missing = [(mod, attr) for mod, attr, _ in traced
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_circular_average_takes_cfg():
    assert "cfg" in inspect.signature(qcreg.quadrature.circular_average).parameters


def test_map_model_has_the_counted_callables(tracing):
    fields = {f.name for f in dataclasses.fields(qcreg.MapModel)}
    assert {"value", "partials", "jacobian"} | set(tracing.MAP_CALLABLES) <= fields


def test_cli_import_loads_every_traced_module(tracing):
    # the benchmark shim imports qcreg.cli and then installs the tracer, which
    # skips a module not imported yet: a lazily imported one would read 0
    traced = {mod for mod, _, _ in tracing.SPANS + tracing.COUNTED + tracing.CATALOG}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qcreg.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(traced - set(proc.stdout.split())) == []


def test_replace_swaps_the_counted_callables(tracing):
    # the tracer wraps a catalog entry's map callables with dataclasses.replace
    entry = qcreg.entry_from_spec("radial_stretch(K=2)")
    swapped = {attr: lambda z: z for attr in tracing.MAP_CALLABLES}
    model = dataclasses.replace(entry.map, **swapped)
    copy = dataclasses.replace(entry, map=model)
    assert copy.map is model and copy.name == entry.name
    assert all(getattr(model, attr) is fn for attr, fn in swapped.items())
