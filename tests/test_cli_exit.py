"""The CLI as a process: what `python -m qcreg` and the `qcreg` script exit with.

Both run `qcreg.cli.entry`, which freezes the garbage collector's objects
once `main` returns, so interpreter shutdown skips its cyclic collections.
A run's stdout and files must equal the in-process report, its exit codes
must stay the documented ones, and `main` called from Python must leave the
GC state as it found it.
"""

import gc
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qcreg import build_config, emit_report, run_analysis
from qcreg.cli import main
from qcreg.reporting import report_json_bytes

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

SUBJECT = "radial_stretch(K=2)"
#: a small rule keeps each run short; RAW is the same config as a dict
SMALL = ["--nodes", "16", "--max-doublings", "2", "--radii-count", "3"]
RAW = {"subject": SUBJECT, "quadrature": {"nodes": 16, "max_doublings": 2},
       "radii": {"count": 3}}
#: the configs of the exit-2 and exit-3 tests of tests/test_cli_robustness.py
COARSE = {"quadrature": {"nodes": 16, "max_doublings": 0},
          "diagnostics": {"geometry": False, "extremal": False}}
GRONWALL_FAILS = {"subject": "power_spiral(alpha=0.25,gamma=1.0)",
                  "domain": {"centers": [[0, 0.25]], "radii": [0.25, 0.5]}, **COARSE}
AREA_NOT_POSITIVE = {"subject": "radial_stretch(K=48)",
                     "domain": {"centers": [[0.4, 0]], "radii": [0.35, 0.7]}, **COARSE}


def script_target() -> tuple[str, str]:
    """(module, function) of the `qcreg` script in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, function = re.search(r'^qcreg = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    return module, function


def script_command() -> list[str]:
    """The installed script's body: call the entry, exit with what it returns."""
    module, function = script_target()
    return [sys.executable, "-c",
            f"import sys\nfrom {module} import {function}\n"
            f"sys.argv[0] = 'qcreg'\nsys.exit({function}())"]


LAUNCHERS = {"python -m qcreg": lambda: [sys.executable, "-m", "qcreg"],
             "qcreg script": script_command}


@pytest.fixture(params=LAUNCHERS, ids=list(LAUNCHERS))
def qcreg(request):
    """Run qcreg in a fresh interpreter: argv -> CompletedProcess (bytes)."""
    command = LAUNCHERS[request.param]()
    return lambda argv: subprocess.run([*command, *argv], capture_output=True, env=ENV)


def test_analyze_stdout_is_the_in_process_report(qcreg):
    proc = qcreg(["analyze", "--subject", SUBJECT, *SMALL])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == report_json_bytes(run_analysis(build_config(RAW)))


def test_out_and_csv_files_are_those_of_emit_report(qcreg, tmp_path):
    out, csv = tmp_path / "run" / "r.json", tmp_path / "run" / "csv"
    proc = qcreg(["extremal", "--subject", SUBJECT, *SMALL, "--out", str(out),
                  "--csv-dir", str(csv)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    report = run_analysis(build_config(RAW))
    expected = emit_report(report, tmp_path / "lib" / "r.json", tmp_path / "lib" / "csv")
    assert len(expected) == 6
    for path in expected:
        ran = tmp_path / "run" / path.relative_to(tmp_path / "lib")
        assert ran.read_bytes() == path.read_bytes(), ran.name
    assert sorted(p.name for p in csv.iterdir()) == sorted(p.name for p in expected[1:])


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--subject", SUBJECT, *SMALL], 0),
    (["catalog"], 0),
    (["--help"], 0),
    (["analyze", "--subject", "nope(K=2)"], 1),
    (["analyze", "--subject", SUBJECT, "--no-such-flag"], 1),
    (GRONWALL_FAILS, 2),
    (AREA_NOT_POSITIVE, 3),
], ids=["analyze", "catalog", "help", "unknown subject", "unknown flag", "gronwall", "area"])
def test_exit_codes(qcreg, tmp_path, argv, code):
    if isinstance(argv, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(argv))
        argv = ["analyze", "--config", str(config)]
    proc = qcreg(argv)
    assert proc.returncode == code, proc.stderr


def test_the_process_exits_with_its_objects_frozen():
    # an atexit handler runs at shutdown, before the final collections
    probe = ("import atexit, gc, os, runpy, sys\n"
             "atexit.register(lambda: os.write(1, b'frozen %d' % gc.get_freeze_count()))\n"
             "sys.argv = ['qcreg', 'catalog']\n"
             "runpy.run_module('qcreg', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    frozen = proc.stdout.splitlines()[-1]
    assert frozen.startswith(b"frozen ") and int(frozen.split()[1]) > 0, proc.stdout


def test_main_in_process_changes_no_gc_state(capsys):
    assert main(["catalog"]) == 0
    assert main(["analyze", "--subject", SUBJECT, *SMALL]) == 0
    assert main(["analyze", "--subject", "nope(K=2)"]) == 1
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_the_script_and_python_m_call_one_entry(monkeypatch):
    module, function = script_target()
    calls = []
    monkeypatch.setattr(importlib.import_module(module), function,
                        lambda: calls.append(function) or 0)
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("qcreg", run_name="__main__")
    assert exc.value.code == 0
    assert calls == [function]
