"""Every script under demos/ and the README's library quick start run to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, f"no demos under {ROOT / 'demos'}"


def run_python(args, cwd):
    old = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + old if old else ""))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    stderr = proc.stderr.decode()
    assert proc.returncode == 0, stderr
    assert "Traceback" not in stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_its_commented_values(tmp_path):
    # the printed values must match the comments to the digits they show
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.findall(r"^print\(.*\)\s*#\s*([-0-9.]+)", code, flags=re.MULTILINE)
    assert shown == ["0.8", "0.95106", "0.5"]
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    printed = proc.stdout.decode().split()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        digits = len(want.partition(".")[2])
        assert abs(float(got) - float(want)) <= 0.5 * 10.0**-digits, (got, want)
