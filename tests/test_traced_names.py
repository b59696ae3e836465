"""The public names the benchmark's tracer wraps still exist.

`bench/tracing.py` wraps qcreg functions from outside the package and drops
the metrics of any name that has gone, so deleting or renaming one would
silently empty a per-layer metric of a traced run. The tracer's source is
only read and executed here, so no bytecode is written next to it.
"""

import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import qcreg

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
