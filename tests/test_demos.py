"""Every script under demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lines a demo's stdout must hold, so a demo that stops doing its job fails
MUST_PRINT = {"05_sweep_and_plot.py": {"plot.svg", "plot_data.csv"}}


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_0(demo, tmp_path):
    # TMPDIR keeps what a demo writes through tempfile inside tmp_path
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    printed = {line.strip() for line in done.stdout.splitlines()}
    assert MUST_PRINT.get(demo.name, set()) <= printed, done.stdout
