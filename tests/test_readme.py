"""The README's examples run: each fenced python block executes, and each
``biharm`` line of the Command line section exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from biharm.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def _command_lines() -> list[str]:
    """The ``biharm`` lines of the Command line section's fenced blocks, with
    lines that end in a backslash joined to the next."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```\w*\n(.*?)^```", section, re.DOTALL | re.MULTILINE)
    lines = re.sub(r"\\\n\s*", " ", "\n".join(blocks)).splitlines()
    return [line for line in lines if line.startswith("biharm ")]


COMMANDS = _command_lines()


def test_readme_has_examples():
    assert PYTHON_BLOCKS
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda block: block.splitlines()[0])
def test_python_block_runs(block, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(shlex.split(line)[1:]) == 0, capsys.readouterr().err
