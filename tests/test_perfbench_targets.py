"""Every public name the benchmark traces still exists, and the benchmark's
own tests pass.

perfbench/spans.py lists, in TARGETS, the bncurve functions its --trace runs
wrap in spans.  This test reads that file (run from source, so nothing is
written under perfbench/) and resolves each entry with the file's own
resolver, so renaming or deleting a traced function fails here and not only
in a traced benchmark run.  perfbench/tests pins more of the library (the
propagate calls per build, the worker's output checks, the metric list); it
runs here in a subprocess that writes no bytecode and no pytest cache.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
SPANS_GLOBALS = runpy.run_path(str(SPANS))


@pytest.mark.parametrize(
    "module,dotted",
    [(module, dotted) for module, dotted, _, _ in SPANS_GLOBALS["TARGETS"]],
)
def test_traced_target_resolves(module, dotted):
    assert module == "bncurve" or module.startswith("bncurve.")
    owner, attr = SPANS_GLOBALS["_resolve"](module, dotted)
    assert callable(getattr(owner, attr))


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
