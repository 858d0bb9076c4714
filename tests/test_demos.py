"""Every demo script runs to completion and prints something; the gonality
demo prints its results.

Each script in demos/ runs in its own interpreter with the checkout's src/
on PYTHONPATH, so no install is needed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    assert run_demo(script).strip()


def test_gonality_demo_verifies_both_covers():
    lines = run_demo(ROOT / "demos" / "04_gonality.py").splitlines()
    covers = [line for line in lines if "passed = " in line]
    assert [line.split("cover")[0] for line in covers] == [
        "degree-6 ",
        "etale double ",
    ]
    assert all(line.endswith("passed = True") for line in covers)
    assert lines[-1] == "gonality = 6"
