"""The README's library example runs as written against the fixture, its
configuration table lists exactly the values the shipped config sets, each
with the default the pipeline parses from an empty config, and every file
it names is one that a run writes."""

from __future__ import annotations

import re
from pathlib import Path

import yaml

from topicforge.fixture import CONFIG_TEMPLATE, write_fixture
from topicforge.pipeline import RAW_INPUTS, STAGES, load_context, run_stage

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


def test_readme_config_table_matches_shipped_config(tmp_path):
    rows = re.findall(r"^\| `([\w.]+)` \| (`?)([^|`]+)\2 \|",
                      readme_section("Configuration"), flags=re.MULTILINE)
    documented = [key for key, _, _ in rows]
    shipped = []
    for key, value in yaml.safe_load(CONFIG_TEMPLATE).items():
        shipped += ([f"{key}.{name}" for name in value]
                    if isinstance(value, dict) else [key])
    assert len(documented) == len(set(documented))
    assert set(documented) == set(shipped)
    # the Default column: what an empty config parses to
    (tmp_path / "config.yaml").write_text("{}\n")
    ctx = load_context(tmp_path / "config.yaml")
    parsed = {"seed": ctx.seed, "paths.workdir": ctx.workdir.name}
    parsed.update({f"paths.{key}": "required" for key in RAW_INPUTS
                   if key not in ctx.paths})
    parsed.update({f"{name}.{key}": value for name, values
                   in ctx.settings.items() for key, value in values.items()})
    assert {key: default for key, _, default in rows} == {
        key: str(parsed[key]) for key in documented}


def test_readme_names_only_files_a_run_writes(tmp_path, capsys):
    # an inline-code file name, bare or as ``<stage>/<name>``
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"),
                  flags=re.DOTALL)
    named = set(re.findall(
        r"`((?:\w+/)?[\w.-]+\.(?:jsonl|csv|json|ckpt|txt|yaml))`", text))
    fixture = write_fixture(tmp_path / "fixture")
    workdir = tmp_path / "w"
    ctx = load_context(fixture["config"], workdir)
    for stage in STAGES:
        run_stage(ctx, stage)
    capsys.readouterr()
    written = {p.relative_to(workdir).as_posix()
               for p in workdir.rglob("*") if p.is_file()}
    written |= {Path(p).name for p in written}
    written |= {p.name for p in fixture.values()}
    assert named and sorted(named - written) == []
