"""README drift guard: the library quickstart runs as printed, and every
`quiverhom ...` line of the command-line block exits as the README's
exit-code paragraph says."""

import re
import shlex
from pathlib import Path

import pytest

from quiverhom.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first fenced block opened with `fence` under `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    match = re.search(rf"^{re.escape(fence)}\n(.*?)^```$", section, re.M | re.S)
    assert match, f"no {fence} block under {heading}"
    return match.group(1)


COMMANDS = [line.split() for line in _block("## Command line", "```").splitlines()
            if line.startswith("quiverhom ")]


def test_library_quickstart_runs():
    exec(compile(_block("## Library quickstart", "```python"), "README.md", "exec"), {})


def test_command_line_block_is_not_empty():
    assert len(COMMANDS) >= 7


@pytest.mark.parametrize("argv", COMMANDS, ids=shlex.join)
def test_command_line_examples_exit_as_documented(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    # a gate rejection without --force exits 3; every other example computes
    # its verdict and exits 0
    expected = 3 if argv[1] == "gate" and "two_loops" in " ".join(argv) else 0
    assert main(argv[1:]) == expected
    assert capsys.readouterr().out
