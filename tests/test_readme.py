"""The README's library example runs as written against the fixture, and
its configuration table lists exactly the values the shipped config sets."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from topicforge.fixture import CONFIG_TEMPLATE, write_fixture

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    [code] = re.findall(r"```python\n(.*?)```", readme_section("Library use"),
                        flags=re.DOTALL)
    write_fixture(tmp_path)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    printed = float(capsys.readouterr().out)
    assert 0.0 < printed <= 1.0


def test_readme_config_table_matches_shipped_config():
    documented = re.findall(r"^\| `([\w.]+)` \|",
                            readme_section("Configuration"), flags=re.MULTILINE)
    shipped = []
    for key, value in yaml.safe_load(CONFIG_TEMPLATE).items():
        shipped += ([f"{key}.{name}" for name in value]
                    if isinstance(value, dict) else [key])
    assert len(documented) == len(set(documented))
    assert set(documented) == set(shipped)
