"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    metrics_line, routed_depth = capsys.readouterr().out.splitlines()
    assert metrics_line.startswith("Metrics(") and int(routed_depth) > 0
