import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcreg

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    # scipy.stats alone costs most of a second of every cold CLI call
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcreg, sys; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def cold_analyze_modules():
    """Exit code and loaded modules of a cold `analyze` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from qcreg.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = main(['analyze', '--subject', 'radial_stretch(K=2)'])\n"
         "print(code, *sorted(sys.modules))"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.split()
    return code, modules


def loaded(modules, package):
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_cold_analyze_loads_no_numpy_ma(cold_analyze_modules):
    # numpy.ma costs about 9 ms of a cold run; np.unique is one way in
    code, modules = cold_analyze_modules
    assert code == "0"
    assert loaded(modules, "numpy.ma") == []


def test_cold_analyze_loads_no_numpy_polynomial(cold_analyze_modules):
    # numpy.polynomial costs 6-8 ms of a cold run; leggauss was the way in
    code, modules = cold_analyze_modules
    assert code == "0"
    assert loaded(modules, "numpy.polynomial") == []


def test_only_the_replaced_records_are_dataclasses():
    # a dataclass costs about 1 ms to define at import, a NamedTuple a fifth
    # of that; MapModel and CatalogEntry stay dataclasses because the
    # benchmark tracer swaps their callables with dataclasses.replace
    found = sorted(
        name
        for mod_name, module in sys.modules.items()
        if mod_name == "qcreg" or mod_name.startswith("qcreg.")
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__ == mod_name
        and "__dataclass_fields__" in vars(value)
    )
    assert found == ["CatalogEntry", "MapModel"]
