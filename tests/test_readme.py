"""The README's library tour and command-line block run as written
against the current API."""

import re
import shlex
from pathlib import Path

from shorcost.cli import run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    metrics_line, routed_depth = capsys.readouterr().out.splitlines()
    assert metrics_line.startswith("Metrics(") and int(routed_depth) > 0


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
    lines = block.group(1).splitlines()
    assert len(lines) == 6 and all(line.startswith("shorcost ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line
