"""Every `bncurve ...` line of README's "Command line" block runs as shown."""

import re
import shlex
from pathlib import Path

import pytest

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
    assert len(LINES) == 10
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
