"""The README's CLI and library examples, run exactly as written."""

from __future__ import annotations

import shlex
from pathlib import Path

from plutus.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(heading: str, lang: str) -> str:
    """The first ``lang`` fenced block under the ``## heading`` section."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_cli_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)
        for line in _code_block("CLI", "sh").splitlines()
        if line.startswith("plutus ")
    ]
    assert [argv[1] for argv in commands] == [
        "generate", "solve", "verify", "generate", "oracle", "bench"
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_library_example_runs():
    exec(_code_block("Library", "python"), {})
