"""Tests of the benchmark's own parts: generator, checker, tracer, scores.

They run on the program's bundled desk fixture, which emits one topic page,
so the checker sees every kind of output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import gen
import quality
import tracing
from run import END_TO_END_UNITS, layer_unit

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cli(*args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, *args], env=env, check=True,
                   capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A traced and an untraced ``all`` on the desk fixture."""
    from topicforge.fixture import write_fixture

    base = tmp_path_factory.mktemp("fixture")
    config = write_fixture(base / "inputs")["config"]
    trace_file = base / "trace.json"
    _cli(str(HERE / "tracing.py"), str(trace_file), "fixture-traced",
         "all", "--config", str(config), "--workdir", str(base / "traced"))
    _cli("-m", "topicforge.cli", "all", "--config", str(config),
         "--workdir", str(base / "plain"))
    return {"config": config, "workdir": base / "traced",
            "plain": base / "plain",
            "trace": json.loads(trace_file.read_text(encoding="utf-8"))}


def _rewrite(workdir: Path, stage: str, name: str, text: str) -> None:
    """Replace an output and re-hash it in the manifest, so only the
    content checks can notice."""
    (workdir / stage / name).write_text(text, encoding="utf-8")
    manifest_path = workdir / stage / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["outputs"][name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.mark.parametrize("workload", ["longtail", "dense"])
def test_generator_is_deterministic(tmp_path, workload):
    def written(seed: int, name: str) -> dict[str, bytes]:
        paths = gen.write_inputs(workload, seed, tmp_path / name)
        return {key: p.read_bytes() for key, p in paths.items()}

    first, again, other = written(5, "a"), written(5, "b"), written(6, "c")
    assert first == again
    for key in ("click_log", "page_catalog", "item_catalog", "truth"):
        assert first[key] != other[key]


def test_checker_accepts_the_fixture_run(traced):
    assert checker.check_run(traced["workdir"], traced["config"]) == []
    pages = (traced["workdir"] / "emit" / "pages.jsonl").read_text()
    assert pages.strip(), "the fixture should emit at least one page"


def test_traced_outputs_equal_untraced(traced):
    assert (checker.run_digest(traced["workdir"])
            == checker.run_digest(traced["plain"]))


def test_checker_rejects_corrupted_pages(traced, tmp_path):
    workdir = tmp_path / "work"
    shutil.copytree(traced["workdir"], workdir)
    pages = workdir / "emit" / "pages.jsonl"
    original = pages.read_text(encoding="utf-8")

    pages.write_text(original + "{}\n", encoding="utf-8")
    problems = checker.check_run(workdir, traced["config"])
    assert any("sha256" in p for p in problems)

    row = json.loads(original.splitlines()[0])
    row["item_ids"][0] = "sku-not-in-catalog"
    _rewrite(workdir, "emit", "pages.jsonl", json.dumps(row) + "\n")
    problems = checker.check_run(workdir, traced["config"])
    assert any("unknown items" in p for p in problems)


def test_checker_rejects_flipped_dedup_verdict(traced, tmp_path):
    workdir = tmp_path / "work"
    shutil.copytree(traced["workdir"], workdir)
    path = workdir / "dedup" / "decisions.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    flipped = next(r for r in rows[1:] if r[0] == "running shoes")
    assert flipped[1] == "duplicate"
    flipped[1] = "kept"
    lines = [",".join(r) for r in rows]
    _rewrite(workdir, "dedup", "decisions.csv", "\r\n".join(lines) + "\r\n")
    problems = checker.check_run(workdir, traced["config"])
    assert any("kept + duplicate" in p for p in problems)
    assert any("equals a shelf title" in p for p in problems)


def test_self_times_sum_to_root_span(traced):
    total, own, calls = tracing.span_times(traced["trace"]["spans"])
    assert calls["run"] == 1
    assert sum(own.values()) == pytest.approx(total["run"], rel=1e-9)
    assert all(value >= -1e-9 for value in own.values())
    metrics = tracing.layer_metrics(traced["trace"])
    assert metrics["pipeline.stages_run"] == len(tracing.STAGES)
    assert metrics["trace.stage_coverage"] > 0.9


def test_every_module_is_traced(traced):
    _, _, calls = tracing.span_times(traced["trace"]["spans"])
    modules = {name.split(".")[0] for name in calls}
    modules |= {name.split(".")[0] for name in traced["trace"]["counts"]}
    assert {"pipeline", "ingest", "metric", "tokenizer", "model", "train",
            "cluster", "dedup", "topicpage", "experiment"} <= modules


def test_metric_lists_match_benchmark_json(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    names = set(tracing.layer_metrics(traced["trace"])) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])


def test_auc_counts_ties_as_half():
    labels = np.array([True, False, True, False])
    assert quality.auc(np.array([0.9, 0.1, 0.8, 0.2]), labels) == 1.0
    assert quality.auc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5
    assert quality.auc(np.array([0.1, 0.9, 0.2, 0.8]), labels) == 0.0
