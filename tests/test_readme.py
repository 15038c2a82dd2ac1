"""The README's library example runs as written against the fixture."""

from __future__ import annotations

import re
from pathlib import Path

from topicforge.fixture import write_fixture

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    write_fixture(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert 0.0 < printed <= 1.0
