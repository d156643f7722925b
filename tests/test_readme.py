"""The README's examples run as printed: the library quick start and the
command-line transcript on the demo configuration."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from wallx.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def _expected_prints(block: str) -> list[str]:
    """The output a quick-start block documents: the comment after each
    ``print(...)`` on its line, or the ``# `` comment lines under it."""
    out = []
    for line in block.splitlines():
        if line.startswith("print(") and "  # " in line:
            out.append(line.split("  # ", 1)[1])
        elif line.startswith("# "):
            out.append(line[2:])
    return out


def _transcript() -> list[tuple[str, list[str]]]:
    """(command, output lines) for every ``$ wallx`` command of the README."""
    block = next(b for b in _blocks("sh") if b.startswith("$ wallx"))
    out = []
    for chunk in block.strip().split("\n\n"):
        command, *lines = chunk.splitlines()
        out.append((command.removeprefix("$ "), lines))
    return out


def test_library_quick_start_prints_what_it_shows() -> None:
    blocks = _blocks("python")
    assert len(blocks) == 2
    for block in blocks:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            exec(compile(block, "README.md", "exec"), {})
        assert stdout.getvalue().splitlines() == _expected_prints(block)


def test_cli_transcript_on_the_demo_config(tmp_path) -> None:
    (config,) = _blocks("json")
    demo = tmp_path / "demo.json"
    demo.write_text(config)
    transcript = _transcript()
    assert [command.split()[:2] for command, _ in transcript] == [
        ["wallx", "ucoeff"],
        ["wallx", "wallcross"],
        ["wallx", "wallcross"],
        ["wallx", "descendent"],
    ]
    for command, expected in transcript:
        argv = [str(demo) if arg == "demo.json" else arg for arg in shlex.split(command)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv[1:])
        assert code == 0, command
        assert stdout.getvalue().splitlines() == expected, command
