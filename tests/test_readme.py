"""Every `bncurve ...` line of README's "Command line" block runs as shown,
and every private name README cites exists."""

import pkgutil
import re
import shlex
from importlib import import_module
from pathlib import Path

import pytest

import bncurve
from bncurve.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCK = re.search(r"## Command line\n\n```sh\n(.*?)```", README, re.S).group(1)
LINES = [
    line.partition("#")[::2]
    for line in BLOCK.splitlines()
    if line.startswith("bncurve ")
]

# the stdout that the README comment on each of these commands gives
PRINTS = {
    "bncurve catalan --a 5": "42",
    "bncurve castelnuovo --a 2 --r 2": "5",
    "bncurve census --g 5 --r 1 --d 4": "curve 10",
}


def test_the_block_holds_every_documented_command():
    assert len(LINES) == 9
    assert {command.strip() for command, _ in LINES} >= set(PRINTS)


@pytest.mark.parametrize(
    "command,comment", LINES, ids=[c.strip() for c, _ in LINES]
)
def test_command_runs_as_documented(command, comment, capsys):
    command = command.strip()
    assert main(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if command in PRINTS:
        assert comment.strip() == PRINTS[command]
        assert out == PRINTS[command] + "\n"
    if command == "bncurve gonality5":
        assert '"gonality = 6"' in comment
        assert out.endswith("gonality = 6\n")


def test_every_private_name_the_readme_cites_exists():
    # a name `module._name` resolves in bncurve.module, a bare `_name` in
    # any module of the package; dunders such as `__new__` are not cited
    cited = set(re.findall(r"`(?:(\w+)\.)?(_[A-Za-z]\w*)`", README))
    assert {f"{m}.{n}" if m else n for m, n in cited} >= {
        "combinatorics._unchecked",
        "_is_dyck",
        "_walk",
        "_table_pieces",
        "_moved",
        "chain._slot_offset",
        "_json_pieces",
        "_dot_pieces",
        "_cover",
    }
    package = [
        import_module(f"bncurve.{info.name}")
        for info in pkgutil.iter_modules(bncurve.__path__)
        if info.name != "__main__"
    ]
    missing = [
        f"{module}.{name}" if module else name
        for module, name in sorted(cited)
        if not any(
            hasattr(m, name)
            for m in ([import_module(f"bncurve.{module}")] if module else package)
        )
    ]
    assert missing == []
