import os
import subprocess
import sys
from pathlib import Path

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


def test_cold_analyze_loads_no_numpy_ma():
    # numpy.ma costs about 9 ms of a cold run; np.unique is one way in
    proc = subprocess.run(
        [sys.executable, "-c",
         "import contextlib, io, sys\n"
         "from qcreg.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         "    code = main(['analyze', '--subject', 'radial_stretch(K=2)'])\n"
         "print(code, sorted(m for m in sys.modules"
         " if m == 'numpy.ma' or m.startswith('numpy.ma.')))"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
