"""The gonality certificate layer loads only where it is used.

`import bncurve, bncurve.cli` and the commands that count, tabulate and
build the curve leave `bncurve.gonality`, `bncurve.selfcheck` and `json`
unimported; the package still lists and binds every name it did when it
imported the layer eagerly, and `bncurve.gonality` is the function in every
import order.  Each check runs in a fresh `python -I`, so nothing the suite
imported earlier hides a load.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAYER = ("bncurve.gonality", "bncurve.selfcheck", "json")

# the public names and dunders of the package as imported before the layer
# was lazy; chain, combinatorics and curve are its submodules
PUBLIC = [
    "BNComponentId", "BNCurveGraph", "BallotSequence", "Census", "ChainSpec",
    "CircuitGraph", "CoverData", "Divisor", "GonalityResult",
    "IntersectionNode", "Point", "ProofTrace", "UnsupportedShapeError",
    "VerificationReport", "all_components", "build_bn_curve",
    "build_degree6_cover", "build_double_cover", "build_w14_circuit",
    "bundle_name", "catalan", "chain", "circuit_degree_bound", "combinatorics",
    "component_profile", "curve", "delta_closed", "eh_formula",
    "eh_formula_corrected", "enumerate_ballot", "exclude_degree",
    "export_graph", "generalized_catalan", "genus_closed", "genus_from_graph",
    "gonality", "intersect", "is_admissible", "limit_series_census",
    "lin_equiv", "max_ramified_nodes", "propagate", "render_tables", "rho",
    "verify_cover", "verify_double_cover",
]
DUNDERS = [
    "__all__", "__builtins__", "__cached__", "__doc__", "__file__",
    "__loader__", "__name__", "__package__", "__path__", "__spec__",
    "__version__",
]


def run(code, *argv):
    """Run `code` in a fresh isolated interpreter that imports bncurve from
    this checkout; its stdout, or a failure with its stderr."""
    path = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-c", path + code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_and_cli_loads_no_certificate_layer():
    out = run(
        "import bncurve, bncurve.cli\n"
        f"print([name for name in {LAYER!r} if name in sys.modules])"
    )
    assert out == "[]\n"


def test_the_counting_commands_load_no_module_on_first_call():
    # nothing they run is deferred: their modules are all import-time
    out = run(
        "import io, contextlib, bncurve, bncurve.cli\n"
        "before = set(sys.modules)\n"
        "argvs = [['catalan', '--a', '5'], ['castelnuovo', '--a', '2', '--r', '2'],"
        " ['census', '--g', '5', '--r', '1', '--d', '4'],"
        " ['tables', '--g', '5', '--d', '4', '--format', 'csv'],"
        " ['curve', '--a', '2'], ['curve', '--a', '1', '--format', 'dot']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [bncurve.cli.main(argv) for argv in argvs]\n"
        "new = set(sys.modules) - before\n"
        f"print(codes, sorted(n for n in new if n.startswith('bncurve') or n in {LAYER!r}))"
    )
    assert out == "[0, 0, 0, 0, 0, 0] []\n"


@pytest.mark.parametrize(
    "first",
    [
        "import bncurve",
        "import bncurve.gonality",
        "from bncurve.gonality import Point",
        "import bncurve.selfcheck",
        "from bncurve import gonality",
        "import bncurve.cli; bncurve.cli.main(['gonality5', '--degree', '1'])",
    ],
)
def test_bncurve_gonality_is_the_function_in_every_import_order(first):
    out = run(
        "import io, contextlib\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    {first}\n"
        "import bncurve, importlib\n"
        "module = importlib.import_module('bncurve.gonality')\n"
        "print(bncurve.gonality is module.gonality, bncurve.Point is module.Point)"
    )
    assert out == "True True\n"


def test_all_and_dir_list_the_names_they_listed_before():
    out = run(
        "import bncurve\n"
        "print(sorted(bncurve.__all__) == bncurve.__all__, bncurve.__all__)\n"
        "print(dir(bncurve))\n"
        "print('bncurve.gonality' in sys.modules)"
    )
    listed, dirs, loaded = out.splitlines()
    assert listed == f"True {PUBLIC!r}"
    assert dirs == repr(sorted(PUBLIC + DUNDERS))
    assert loaded == "False"


def test_star_import_binds_every_name():
    out = run(
        "from bncurve import *\n"
        "import bncurve\n"
        "print(all(globals()[n] is getattr(bncurve, n) for n in bncurve.__all__),"
        " callable(gonality), len(bncurve.__all__))"
    )
    assert out == f"True True {len(PUBLIC)}\n"


def test_unknown_names_still_raise_attribute_error():
    out = run(
        "import bncurve\n"
        "try:\n    bncurve.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    )
    assert out == "module 'bncurve' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("argv", [["gonality5"], ["selftest"]])
def test_the_certificate_commands_run_from_a_cold_process(argv):
    # as `python -I -m bncurve ...` runs them, with this checkout on the path
    out = run("import runpy; runpy.run_module('bncurve', run_name='__main__')", *argv)
    if argv == ["gonality5"]:
        assert out.endswith("gonality = 6\n")
    else:
        assert out.count("[PASS] ") == 10
