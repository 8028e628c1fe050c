"""The README's examples run as written: its Python blocks in order, in
one namespace, and every ``projcode ...`` line of its shell blocks
through ``python -m projcode.cli``."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from conftest import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(),
                      flags=re.MULTILINE | re.DOTALL)


COMMANDS = [shlex.split(line, comments=True)
            for block in _blocks("sh") for line in block.splitlines()
            if line.startswith("projcode ")]


def test_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_lines_exit_zero(argv):
    proc = run_cli(argv[1:], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
