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
