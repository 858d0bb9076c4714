"""The curve graph and the gonality certificate layer load only where they
are used.

`import bncurve, bncurve.cli` loads neither `bncurve.curve` (nor the
`fractions` its genus formula evaluates in) nor `bncurve.gonality`,
`bncurve.selfcheck` and `json`; each command loads, on its first call,
only what a table below lists for it, so the commands that count and
tabulate load none of them.  The package still lists and binds every name
it did when it imported them eagerly, each curve name is the curve module's
object and `bncurve.gonality` is the function in every import order.  Each
check runs in a fresh `python -I`, so nothing the suite imported earlier
hides a load.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LAYER = ("bncurve.gonality", "bncurve.selfcheck", "json")
CURVE = ("bncurve.curve", "fractions")
# the names the package re-exports from bncurve.curve
CURVE_NAMES = (
    "BNCurveGraph", "IntersectionNode", "build_bn_curve", "component_profile",
    "delta_closed", "eh_formula", "eh_formula_corrected", "export_graph",
    "genus_closed", "genus_from_graph", "intersect",
)

# the public names and dunders of the package as imported before curve and
# the layer were lazy; chain, combinatorics and curve are its submodules
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


def run(code, *argv, flags=("-I",)):
    """Run `code` in a fresh isolated interpreter that imports bncurve from
    this checkout; its stdout, or a failure with its stderr."""
    path = f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", path + code, *argv],
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


def test_importing_the_package_and_cli_without_site_loads_no_curve_or_typing():
    # without site, nothing else at startup loads typing either
    out = run(
        "import bncurve, bncurve.cli\n"
        "print([name for name in ('bncurve.curve', 'fractions', 'decimal', 'typing')"
        " if name in sys.modules])",
        flags=("-I", "-S"),
    )
    assert out == "[]\n"


def test_the_counting_commands_load_no_module_on_first_call():
    # nothing they run is deferred: their modules are all import-time
    out = run(
        "import io, contextlib, bncurve, bncurve.cli\n"
        "before = set(sys.modules)\n"
        "argvs = [['catalan', '--a', '5'], ['castelnuovo', '--a', '2', '--r', '2'],"
        " ['census', '--g', '5', '--r', '1', '--d', '4'],"
        " ['tables', '--g', '5', '--d', '4', '--format', 'csv']]\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [bncurve.cli.main(argv) for argv in argvs]\n"
        "new = set(sys.modules) - before\n"
        f"print(codes, sorted(n for n in new if n.startswith('bncurve') or n in {(*LAYER, *CURVE)!r}))"
    )
    assert out == "[0, 0, 0, 0] []\n"


# each command with the modules of CURVE and LAYER it loads, all on its
# first call: a second call loads none
COMMAND_LOADS = [
    (["catalan", "--a", "5"], set()),
    (["castelnuovo", "--a", "2", "--r", "2"], set()),
    (["census", "--g", "5", "--r", "1", "--d", "4"], set()),
    (["tables", "--g", "5", "--d", "4", "--format", "csv"], set()),
    (["tables", "--g", "7", "--d", "5"], set()),
    (["curve", "--a", "2"], {"bncurve.curve", "fractions"}),
    (["curve", "--a", "1", "--format", "dot"], {"bncurve.curve", "fractions"}),
    (["gonality5"], {"bncurve.curve", "bncurve.gonality", "json"}),
    (["gonality5", "--degree", "6"], {"bncurve.curve", "bncurve.gonality", "json"}),
    (["selftest"], {*CURVE, *LAYER}),
]


@pytest.mark.parametrize(
    "argv,loads", COMMAND_LOADS, ids=[" ".join(argv) for argv, _ in COMMAND_LOADS]
)
def test_each_command_loads_its_modules_on_its_first_call(argv, loads):
    out = run(
        "import io, contextlib, bncurve, bncurve.cli\n"
        "loaded = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    for _ in range(2):\n"
        "        before = set(sys.modules)\n"
        f"        code = bncurve.cli.main({argv!r})\n"
        f"        loaded.append(sorted({{*{(*CURVE, *LAYER)!r}}} & (set(sys.modules) - before)))\n"
        "print(code, *loaded)"
    )
    assert out == f"0 {sorted(loads)} []\n"


@pytest.mark.parametrize(
    "first",
    [
        "import bncurve",
        "import bncurve.curve",
        "from bncurve.curve import BNCurveGraph",
        "from bncurve import intersect",
        "from bncurve import curve",
        "import bncurve.gonality",
        "import bncurve.cli; bncurve.cli.main(['curve', '--a', '1'])",
    ],
)
def test_each_curve_name_is_the_curve_modules_object_in_every_import_order(first):
    out = run(
        "import io, contextlib\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        f"contextlib.redirect_stderr(io.StringIO()):\n    {first}\n"
        "import bncurve, importlib\n"
        "module = importlib.import_module('bncurve.curve')\n"
        "print(bncurve.curve is module,"
        f" [name for name in {CURVE_NAMES!r} if getattr(bncurve, name) is not getattr(module, name)])"
    )
    assert out == "True []\n"


@pytest.mark.parametrize(
    "first",
    [
        "import bncurve",
        "import bncurve.gonality",
        "from bncurve.gonality import Point",
        "import bncurve.selfcheck",
        "from bncurve import gonality",
        "import bncurve.cli; bncurve.cli.main(['gonality5', '--degree', '1'])",
        "import bncurve.curve",
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
        "print([name for name in ('bncurve.curve', 'bncurve.gonality') if name in sys.modules])"
    )
    listed, dirs, loaded = out.splitlines()
    assert listed == f"True {PUBLIC!r}"
    assert dirs == repr(sorted(PUBLIC + DUNDERS))
    assert loaded == "[]"


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
