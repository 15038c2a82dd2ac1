"""Pipeline orchestration on the bundled fixture: stage wiring, manifests,
dependency errors and CLI exit codes."""

from __future__ import annotations

import hashlib
import json

import pytest
import yaml

from topicforge import cli, pipeline
from topicforge.fixture import write_fixture
from topicforge.pipeline import (ConfigError, PipelineError, load_context,
                                 run_all, run_stage, stage_dependencies)


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    write_fixture(out)
    return out


@pytest.fixture(scope="module")
def full_run(fixture_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    ctx = load_context(fixture_dir / "config.yaml", workdir)
    reports = run_all(ctx)
    return ctx, workdir, reports


def variant_config(fixture_dir, tmp_path, **overrides):
    config = yaml.safe_load((fixture_dir / "config.yaml").read_text())
    for dotted, value in overrides.items():
        section, key = dotted.split(".")
        config.setdefault(section, {})[key] = value
    # artifact paths in the fixture config are relative to the config file
    for key, rel in config.get("paths", {}).items():
        if key != "workdir":
            config["paths"][key] = str(fixture_dir / rel)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_all_stages_ran_in_order(full_run):
    _, _, reports = full_run
    assert [r.stage for r in reports] == list(pipeline.STAGES)


def test_expected_artifacts_exist(full_run):
    _, workdir, _ = full_run
    expected = {
        "ingest": ["click_records.csv", "candidates.jsonl"],
        "metric": ["training_set.jsonl"],
        "train": ["intention.ckpt", "vocab.jsonl"],
        "finetune": ["finetuned.ckpt"],
        "cluster": ["representatives.jsonl"],
        "dedup": ["kept.jsonl"],
        "select": ["topics.jsonl"],
        "emit": ["pages.jsonl", "flagged.jsonl"],
        "experiment": ["plan.json", "daily_clicks.json", "results.json"],
    }
    for stage, names in expected.items():
        for name in names + ["MANIFEST.json", "report.json"]:
            assert (workdir / stage / name).is_file(), f"{stage}/{name}"


def test_manifests_hash_real_files(full_run):
    ctx, workdir, _ = full_run
    for stage in pipeline.STAGES:
        manifest = json.loads((workdir / stage / "MANIFEST.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["seed"] == ctx.seed
        assert len(manifest["config_hash"]) == 64
        for name, digest in manifest["outputs"].items():
            assert sha256(workdir / stage / name) == digest
        for rel, digest in manifest["inputs"].items():
            assert sha256(workdir / rel) == digest
        # manifests must stay duration-free so reruns compare byte-identical
        assert "duration" not in json.dumps(manifest)
        report = json.loads((workdir / stage / "report.json").read_text())
        assert report["stage"] == stage
        assert report["duration_seconds"] >= 0.0
        assert isinstance(report["counts"], dict) and report["counts"]


def test_fixture_run_produces_pages(full_run):
    _, workdir, reports = full_run
    by_stage = {r.stage: r for r in reports}
    assert by_stage["ingest"].counts["click_rows"] > 0
    assert by_stage["select"].counts["selected"] >= 1
    assert by_stage["emit"].counts["emitted"] >= 1
    pages = [json.loads(line) for line in
             (workdir / "emit" / "pages.jsonl").read_text().splitlines()]
    for page in pages:
        assert page["item_ids"]
        assert len(page["page_id"]) == 16
    # dedup must have removed the planted near-duplicates of existing pages
    assert by_stage["dedup"].counts["duplicate"] >= 1
    assert by_stage["dedup"].counts["kept"] >= 1


def test_missing_dependency_message(fixture_dir, tmp_path):
    ctx = load_context(fixture_dir / "config.yaml", tmp_path / "empty")
    with pytest.raises(PipelineError, match="^missing artifact: click_records.csv$"):
        run_stage(ctx, "metric")


def test_unknown_stage_is_config_error(fixture_dir, tmp_path):
    ctx = load_context(fixture_dir / "config.yaml", tmp_path / "w")
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage(ctx, "compile")


def test_select_baseline_reads_raw_candidates(fixture_dir, tmp_path):
    config = variant_config(fixture_dir, tmp_path,
                            **{"select.strategy": "top-clicks",
                               "select.quota": 3})
    workdir = tmp_path / "baseline"
    ctx = load_context(config, workdir)
    assert stage_dependencies(ctx, "select") == [("ingest", "candidates.jsonl")]
    run_stage(ctx, "ingest")
    report = run_stage(ctx, "select")  # no train/cluster/dedup needed
    assert report.counts == {"quota": 3, "selected": 3,
                             "strategy": "top-clicks"}
    topics = [json.loads(line) for line in
              (workdir / "select" / "topics.jsonl").read_text().splitlines()]
    assert len(topics) == 3
    clicks = [t["clicks"] for t in topics]
    assert clicks == sorted(clicks, reverse=True)


def test_unknown_select_strategy(fixture_dir, tmp_path):
    config = variant_config(fixture_dir, tmp_path,
                            **{"select.strategy": "roulette"})
    ctx = load_context(config, tmp_path / "w")
    # satisfy the dependency check so the strategy validation is reached
    ctx.stage_dir("dedup").mkdir(parents=True)
    ctx.artifact("dedup", "kept.jsonl").touch()
    with pytest.raises(ConfigError, match="strategy"):
        run_stage(ctx, "select")


def test_unknown_exclude_page_type(fixture_dir, tmp_path):
    config = variant_config(fixture_dir, tmp_path,
                            **{"metric.exclude_page_types": ["bogus"]})
    ctx = load_context(config, tmp_path / "w")
    run_stage(ctx, "ingest")
    with pytest.raises(ConfigError, match="unknown page types"):
        run_stage(ctx, "metric")


def test_empty_page_text_is_an_ingest_error(tmp_path, capsys):
    inputs = tmp_path / "inputs"
    write_fixture(inputs)
    catalog = inputs / "pages.jsonl"
    good_lines = len(catalog.read_text(encoding="utf-8").splitlines())
    bad_rows = [
        {"page_id": "shelf-stoves", "page_type": "shelf",
         "title": "camp stoves", "product_type": "???"},
        {"page_id": "facet-blank", "page_type": "facet", "title": "!!!",
         "product_type": "running shoes",
         "facets": [{"name": "color", "value": "red"}]},
    ]
    with open(catalog, "a", encoding="utf-8") as fh:
        for row in bad_rows:
            fh.write(json.dumps(row) + "\n")
    workdir = tmp_path / "w"
    assert cli.main(["all", "--config", str(inputs / "config.yaml"),
                     "--workdir", str(workdir)]) == 0
    capsys.readouterr()
    warnings = json.loads(
        (workdir / "ingest" / "report.json").read_text())["warnings"]
    assert (f"page catalog line {good_lines + 1}: "
            "shelf page product_type is empty") in warnings
    assert (f"page catalog line {good_lines + 2}: "
            "facet page title is empty") in warnings
    classes = json.loads((workdir / "finetune" / "classes.json").read_text())
    assert "shelf-stoves" not in classes and classes


def test_experiment_stage_seed_sensitivity(fixture_dir, tmp_path):
    # same seed: byte-identical artifacts; different seed: different traffic
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / name
        ctx = load_context(fixture_dir / "config.yaml", workdir, seed=seed)
        run_stage(ctx, "experiment")
        runs[name] = (workdir / "experiment" / "daily_clicks.json").read_bytes()
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_cli_exit_codes(fixture_dir, tmp_path, capsys):
    config = str(fixture_dir / "config.yaml")
    workdir = str(tmp_path / "w")
    assert cli.main(["ingest", "--config", config, "--workdir", workdir]) == 0
    # dependency not built yet: runtime failure
    assert cli.main(["dedup", "--config", config, "--workdir", workdir]) == 1
    # config problems: missing file, non-mapping root
    assert cli.main(["metric", "--config", str(tmp_path / "nope.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("- 1\n- 2\n")
    assert cli.main(["metric", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_cli_fixture_and_power(tmp_path, capsys):
    out = tmp_path / "fx"
    assert cli.main(["fixture", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("config.yaml")
    assert (out / "config.yaml").is_file()
    assert cli.main(["power", "--lifts", "0.0,0.5", "--days", "8",
                     "--seeds", "3"]) == 0
    table = capsys.readouterr().out
    assert "lift" in table and "power" in table
    assert "0.500" in table
