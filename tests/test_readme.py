"""The README's library example and command-line examples run as written."""

import json
import re
import shlex
from pathlib import Path

from sqw.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def section_block(title: str, language: str) -> str:
    """The first fenced `language` block after the README heading `title`."""
    section = README.read_text(encoding="utf-8").split(title, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs():
    block = section_block("## Library example", "python")
    exec(compile(block, f"{README.name} (Library example)", "exec"), {})


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # the files the commands name: k8.json is the complete graph on 8 vertices,
    # line.json the README's Graph JSON example
    (tmp_path / "k8.json").write_text(json.dumps(
        {"vertices": 8, "edges": [[u, v] for u in range(8) for v in range(u + 1, 8)]}))
    (tmp_path / "line.json").write_text(section_block("### Graph JSON", "json"))
    monkeypatch.chdir(tmp_path)
    lines = section_block("## Command line", "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("sqw ")]
    assert [argv[1] for argv in commands] == [
        "simulate", "analytic", "sigma-surface", "embed", "validate"]
    for argv in commands:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
    for name in ("dist.tsv", "compare.tsv", "surface.tsv", "embed.json"):
        assert (tmp_path / name).stat().st_size > 0
