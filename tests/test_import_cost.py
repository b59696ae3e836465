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


def test_import_loads_no_hashlib():
    # hashlib loads OpenSSL's libcrypto through _hashlib, 2.5-6 ms and about
    # 1.3 MB of a cold run, for the one short digest of config_hash
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcreg, sys; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_builds_no_grid_writer_table():
    # the grid writer's digit, exponent and power-of-5 tables are built by
    # the first save, not by the import every cold CLI call pays
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcreg.io as io; print(io._ascii_tables.cache_info().currsize,"
         " io._powers_of_5.cache_info().currsize)"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_import_builds_no_grid_reader_table():
    # the grid reader's table of the leading bits of powers of 10 is built
    # by the first load
    proc = subprocess.run(
        [sys.executable, "-c",
         "import qcreg, qcreg.io as io; print(io._powers_of_10.cache_info().currsize)"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_cold_analyze_loads_no_hashlib(cold_analyze_modules):
    code, modules = cold_analyze_modules
    assert code == "0"
    assert loaded(modules, "hashlib") == []
    assert loaded(modules, "_hashlib") == []


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
