"""Pipeline orchestration on the bundled fixture: stage wiring, manifests,
dependency errors and CLI exit codes."""

from __future__ import annotations

import ast
import builtins
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from topicforge import cli, pipeline
from topicforge import config as config_mod
from topicforge import ingest as ingest_mod
from topicforge import train as train_mod
from topicforge.fixture import write_fixture
from topicforge.pipeline import (ConfigError, PipelineError, load_context,
                                 run_stage)
from topicforge.topicpage import TopicPageSpec


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    write_fixture(out)
    return out


@pytest.fixture(scope="module")
def full_run(fixture_dir, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("run")
    ctx = load_context(fixture_dir / "config.yaml", workdir)
    reports = [run_stage(ctx, stage) for stage in pipeline.STAGES]
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


# a stage's report.json: what its last run counted and warned, and how long
# that run took
REPORT_KEYS = ["counts", "duration_seconds", "stage", "warnings"]


def test_all_stages_ran_in_order(full_run):
    _, _, reports = full_run
    assert [r.stage for r in reports] == list(pipeline.STAGES)


def test_expected_artifacts_exist(full_run):
    _, workdir, _ = full_run
    expected = {
        "ingest": ["click_records.json", "candidates.jsonl",
                   "page_catalog.json"],
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


# the raw files each stage reads, by config ``paths`` key
RAW_KEYS = {"ingest": ["click_log", "page_catalog", "facet_lexicon", "blocklist"],
            "emit": ["item_catalog"]}

# the artifacts each stage reads; train alone reads the facet lexicon copy
INPUTS = {
    "ingest": [],
    "metric": ["ingest/click_records.json"],
    "train": ["metric/training_set.jsonl", "ingest/page_catalog.json",
              "ingest/facet_lexicon.jsonl"],
    "finetune": ["train/intention.ckpt", "train/intention.ckpt.json",
                 "train/vocab.jsonl", "ingest/click_records.json",
                 "ingest/page_catalog.json"],
    "cluster": ["train/intention.ckpt", "train/intention.ckpt.json",
                "train/vocab.jsonl", "ingest/candidates.jsonl",
                "ingest/page_catalog.json", "finetune/finetuned.ckpt",
                "finetune/finetuned.ckpt.json"],
    "dedup": ["cluster/representatives.jsonl"],
    "select": ["dedup/kept.jsonl"],
    "emit": ["select/topics.jsonl"],
    "experiment": ["emit/pages.jsonl"],
}


# the config sections whose typed values each stage's config_hash covers;
# ``paths`` is never one of them
SECTIONS = {"ingest": [], "metric": ["metric"], "train": ["model", "train"],
            "finetune": ["finetune"], "cluster": ["cluster"],
            "dedup": ["dedup"], "select": ["select"], "emit": ["emit"],
            "experiment": ["experiment"]}


def test_manifests_hash_real_files(full_run):
    ctx, workdir, _ = full_run
    for stage in pipeline.STAGES:
        manifest = json.loads((workdir / stage / "MANIFEST.json").read_text())
        assert manifest["stage"] == stage
        assert manifest["seed"] == ctx.seed
        assert manifest["code"] == pipeline._code_digest()
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__}
        assert "config_sections" not in manifest
        canon = json.dumps({name: ctx.settings[name]
                            for name in SECTIONS[stage]}, sort_keys=True)
        assert manifest["config_hash"] == hashlib.sha256(
            canon.encode()).hexdigest()
        for name, digest in manifest["outputs"].items():
            assert sha256(workdir / stage / name) == digest
        assert sorted(manifest["inputs"]) == sorted(INPUTS[stage])
        for rel, digest in manifest["inputs"].items():
            assert sha256(workdir / rel) == digest
        assert sorted(manifest["raw_inputs"]) == sorted(RAW_KEYS.get(stage, []))
        for key, digest in manifest["raw_inputs"].items():
            assert sha256(ctx.path(key)) == digest
        # manifests must stay duration-free so reruns compare byte-identical
        assert "duration" not in json.dumps(manifest)
        report = json.loads((workdir / stage / "report.json").read_text())
        assert sorted(report) == REPORT_KEYS
        assert report["stage"] == stage
        assert report["duration_seconds"] >= 0.0
        assert isinstance(report["counts"], dict) and report["counts"]


# the functions outside ``topicforge.pipeline`` that may write into the
# workdir: the checkpoint and vocabulary codecs, which readers outside the
# pipeline share
OWN_WRITERS = {"topicforge.model.save_params",
               "topicforge.tokenizer.Vocabulary.save"}

# the functions that may open a workdir file for reading: the pipeline's row
# and column table readers and hasher, and the two codecs' readers
OWN_READERS = {"topicforge.pipeline._read_rows",
               "topicforge.pipeline._read_table",
               "topicforge.pipeline._sha256",
               "topicforge.model.load_params",
               "topicforge.tokenizer.Vocabulary.load"}


def test_manifests_list_every_file_a_stage_opens(fixture_dir, tmp_path,
                                                 monkeypatch):
    workdir = (tmp_path / "w").resolve()
    watched = (workdir, fixture_dir.resolve())
    ctx = load_context(fixture_dir / "config.yaml", workdir)
    package = Path(pipeline.__file__).parent
    opened: list[Path] = []
    writers: set[str] = set()
    readers: set[str] = set()
    real_open = io.open

    def innermost_package_function() -> str:
        frame = sys._getframe(2)
        while Path(frame.f_code.co_filename).parent != package:
            frame = frame.f_back
        return f"{frame.f_globals['__name__']}.{frame.f_code.co_qualname}"

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)):
            path = Path(file).resolve()
            if not set(mode) & set("wax+"):
                opened.append(path)
                if path.is_relative_to(workdir):
                    readers.add(innermost_package_function())
            elif path.is_relative_to(workdir):
                writers.add(innermost_package_function())
        return real_open(file, mode, *args, **kwargs)

    for stage in pipeline.STAGES:
        opened.clear()
        writers.clear()
        readers.clear()
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", recording_open)
            patch.setattr(io, "open", recording_open)
            run_stage(ctx, stage)
        own = workdir / stage
        manifest = json.loads((own / "MANIFEST.json").read_text())
        listed = {workdir / key for key in manifest["inputs"]}
        listed |= {ctx.path(key).resolve() for key in manifest["raw_inputs"]}
        unlisted = sorted(str(p) for p in set(opened) - listed
                          if any(p.is_relative_to(d) for d in watched)
                          and not p.is_relative_to(own))
        assert (stage, unlisted) == (stage, [])
        # the pipeline writes every stage artifact
        elsewhere = sorted(w for w in writers - OWN_WRITERS
                           if not w.startswith("topicforge.pipeline."))
        assert (stage, elsewhere) == (stage, [])
        # ... and reads every row artifact through one reader
        assert (stage, sorted(readers - OWN_READERS)) == (stage, [])
        written = {p.name for p in own.iterdir()} - {"MANIFEST.json",
                                                     "report.json"}
        assert (stage, sorted(written)) == (stage, sorted(manifest["outputs"]))


def test_fields_name_every_artifact_a_stage_reads(full_run):
    # the checkpoint and vocabulary codecs read their own files
    workdir, read = full_run[1], set()
    for stage in pipeline.STAGES:
        read |= set(json.loads(
            (workdir / stage / "MANIFEST.json").read_text())["inputs"])
    codec_files = {"train/intention.ckpt", "train/intention.ckpt.json",
                   "train/vocab.jsonl", "finetune/finetuned.ckpt",
                   "finetune/finetuned.ckpt.json"}
    assert codec_files <= read
    assert sorted(pipeline._FIELDS) == sorted(read - codec_files)


def test_missing_checkpoint_sidecar_is_missing_artifact(fixture_dir, full_run,
                                                        tmp_path):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    (workdir / "train" / "intention.ckpt.json").unlink()
    with pytest.raises(PipelineError,
                       match=r"^missing artifact: train/intention\.ckpt\.json "
                             r"\(run the train stage first\)$"):
        run_stage(load_context(fixture_dir / "config.yaml", workdir), "cluster")


def test_later_stages_read_only_ingest_copies(full_run, tmp_path):
    inputs = tmp_path / "inputs"
    config = write_fixture(inputs)["config"]
    workdir = tmp_path / "w"
    run_stage(load_context(config, workdir), "ingest")
    # the tables decode to the columns of what the raw files parse to, and
    # the lexicon copy parses to what the raw lexicon parses to
    copies = workdir / "ingest"
    pages, _ = ingest_mod.parse_page_catalog(inputs / "pages.jsonl")
    assert json.loads((copies / "page_catalog.json").read_text()) == {
        "page_id": [p.page_id for p in pages],
        "page_type": [p.page_type for p in pages],
        "title": [p.title for p in pages],
        "product_type": [p.product_type for p in pages],
        "facets": [[list(pair) for pair in sorted(p.facets)] for p in pages]}
    assert any(p.facets for p in pages)
    records, _ = ingest_mod.parse_click_log(inputs / "click_log.csv")
    assert json.loads((copies / "click_records.json").read_text()) == {
        name: [getattr(r, name) for r in records]
        for name in ingest_mod.CLICK_LOG_FIELDS}
    assert (ingest_mod.load_facet_lexicon(copies / "facet_lexicon.jsonl")
            == ingest_mod.load_facet_lexicon(inputs / "facet_lexicon.jsonl"))
    for name in ("pages.jsonl", "click_log.csv", "facet_lexicon.jsonl"):
        (inputs / name).unlink()
    ctx = load_context(config, workdir)
    for stage in pipeline.STAGES[1:]:
        run_stage(ctx, stage)
    full = full_run[1]
    names = sorted(p.relative_to(full) for p in full.rglob("*")
                   if p.is_file() and p.name != "report.json")
    assert names == sorted(p.relative_to(workdir) for p in workdir.rglob("*")
                           if p.is_file() and p.name != "report.json")
    for name in names:
        assert (workdir / name).read_bytes() == (full / name).read_bytes(), name


def test_all_parses_each_raw_input_once(fixture_dir, tmp_path, monkeypatch,
                                       capsys):
    calls = []
    for name in ("parse_page_catalog", "parse_click_log"):
        real = getattr(ingest_mod, name)
        monkeypatch.setattr(ingest_mod, name,
                            lambda path, real=real, name=name:
                            calls.append(name) or real(path))
    assert cli.main(["all", "--config", str(fixture_dir / "config.yaml"),
                     "--workdir", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    # later stages take ingest's copies as they are
    assert sorted(calls) == ["parse_click_log", "parse_page_catalog"]


def test_each_stage_decodes_a_column_table_once(fixture_dir, tmp_path,
                                               monkeypatch, capsys):
    running, decoded = [None], Counter()
    real = pipeline._read_table

    def counting(ctx, name, *wanted):
        decoded[running[0], name] += 1
        return real(ctx, name, *wanted)

    def marking(stage, body):
        def run(ctx, out):
            running[0] = stage
            return body(ctx, out)
        return run

    monkeypatch.setattr(pipeline, "_read_table", counting)
    for stage, body in list(pipeline._STAGE_FNS.items()):
        monkeypatch.setitem(pipeline._STAGE_FNS, stage, marking(stage, body))
    assert cli.main(["all", "--config", str(fixture_dir / "config.yaml"),
                     "--workdir", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    assert decoded == {("train", "page_catalog.json"): 1,
                       ("finetune", "page_catalog.json"): 1,
                       ("cluster", "page_catalog.json"): 1,
                       ("metric", "click_records.json"): 1,
                       ("finetune", "click_records.json"): 1}


def _cut(line: str) -> str:
    """A line truncated halfway, as a write cut short leaves it."""
    return line[:len(line) // 2] + "\n"


def _text_field(key: str):
    """An edit putting the number 5 in place of a JSONL row's text field."""
    def edit(line: str) -> str:
        return re.sub(rf'"{key}": "[^"]*"', f'"{key}": 5', line)
    return edit


def _number_field(key: str, value: str):
    """An edit putting ``value``, JSON text, in place of a JSONL row's
    number field."""
    def edit(line: str) -> str:
        return re.sub(rf'"{key}": [-0-9.e]+', f'"{key}": {value}', line)
    return edit


def _column_edit(change):
    """An edit of a column table's text: ``change`` edits it decoded."""
    def edit(text: str) -> str:
        table = json.loads(text)
        change(table)
        return json.dumps(table)
    return edit


def _set(column: str, row: int, value):
    return _column_edit(lambda table: table[column].__setitem__(row, value))


def _rename(column: str, name: str):
    return _column_edit(lambda table: table.update({name: table.pop(column)}))


# edits of ingest's column tables: (artifact, the fault named, edit)
TABLE_EDITS = {
    "truncated": ("ingest/page_catalog.json", "JSONDecodeError: ",
                  lambda text: text[:len(text) // 2]),
    "null-title": ("ingest/page_catalog.json",
                   "ValueError: column title, row 1: unexpected None",
                   _set("title", 1, None)),
    "no-facets": ("ingest/page_catalog.json",
                  "ValueError: not one object of the columns",
                  _rename("facets", "facet_pairs")),
    "bad-page-type": ("ingest/page_catalog.json",
                      "ValueError: column page_type, row 0: unexpected "
                      "'aisle'",
                      _set("page_type", 0, "aisle")),
    "facet-pair-number": ("ingest/page_catalog.json",
                          "ValueError: column facets, row 2: unexpected "
                          "[['color', 5]]",
                          _set("facets", 2, [["color", 5]])),
    "clicks-not-int": ("ingest/click_records.json",
                       "ValueError: column clicks, row 4: unexpected True",
                       _set("clicks", 4, True)),
    "short-row": ("ingest/click_records.json",
                  "ValueError: column page_type is not a list as long as "
                  "query",
                  _column_edit(lambda table: table["page_type"].pop())),
    "header": ("ingest/click_records.json",
               "ValueError: not one object of the columns",
               _rename("page_id", "page")),
    "click-page-type": ("ingest/click_records.json",
                        "ValueError: column page_type, row 2: unexpected "
                        "'aisle'",
                        _set("page_type", 2, "aisle")),
}

# a JSON line that json.loads stops decoding with RecursionError
NESTED = "[" * 100_000 + "\n"

# edits of a finished run's row artifacts: (artifact, line number, edit)
COPY_EDITS = {
    # the lexicon copy: a name and a list of strings
    "lexicon-values-string": ("ingest/facet_lexicon.jsonl", 2,
                              lambda line: re.sub(r'"values": \[.*\]',
                                                  '"values": "big"', line)),
    "lexicon-value-number": ("ingest/facet_lexicon.jsonl", 2,
                             lambda line: line.replace('"kids"', "5")),
    "training-set-cut": ("metric/training_set.jsonl", 2, _cut),
    "candidates-cut": ("ingest/candidates.jsonl", 2, _cut),
    "representatives-cut": ("cluster/representatives.jsonl", 2, _cut),
    "kept-cut": ("dedup/kept.jsonl", 2, _cut),
    "topics-cut": ("select/topics.jsonl", 2, _cut),
    "topic-without-clicks": ("select/topics.jsonl", 1,
                             lambda line: re.sub(r'"clicks": \d+, ', "", line)),
    # a text field holding a number
    "candidate-query-number": ("ingest/candidates.jsonl", 2,
                               _text_field("query")),
    "representative-query-number": ("cluster/representatives.jsonl", 2,
                                    _text_field("query")),
    "kept-query-number": ("dedup/kept.jsonl", 2, _text_field("query")),
    "kept-product-type-number": ("dedup/kept.jsonl", 1,
                                 _text_field("product_type")),
    "topic-number": ("select/topics.jsonl", 2, _text_field("topic")),
    "topic-cluster-number": ("select/topics.jsonl", 1,
                             _text_field("source_cluster")),
    # a number field holding a string or a bool
    "candidate-clicks-string": ("ingest/candidates.jsonl", 2,
                                _number_field("clicks_total", '"5"')),
    "representative-clicks-string": ("cluster/representatives.jsonl", 2,
                                     _number_field("clicks_total", '"5"')),
    "representative-similarity-string": ("cluster/representatives.jsonl", 2,
                                         _number_field("best_similarity",
                                                       '"0.5"')),
    "representative-facet-pages-bool": ("cluster/representatives.jsonl", 1,
                                        _number_field("facet_pages", "true")),
    "kept-clicks-string": ("dedup/kept.jsonl", 2,
                           _number_field("clicks_total", '"5"')),
    "kept-clicks-bool": ("dedup/kept.jsonl", 1,
                         _number_field("clicks_total", "true")),
    "topic-clicks-string": ("select/topics.jsonl", 2,
                            _number_field("clicks", '"5"')),
    "interactive-string": ("metric/training_set.jsonl", 2,
                           _number_field("interactive", '"0.5"')),
    "interactive-bool": ("metric/training_set.jsonl", 1,
                         _number_field("interactive", "true")),
    # a line nested past the decoder's recursion limit
    "kept-nested": ("dedup/kept.jsonl", 2, lambda line: NESTED),
    # a byte that is not UTF-8, named by its own line, not one decoded ahead
    "training-set-not-utf8": ("metric/training_set.jsonl", 300,
                              lambda line: "\udcff" + line),
    # a field that no reader of the file takes
    "kept-extra-field": ("dedup/kept.jsonl", 1,
                         lambda line: line.replace("{", '{"extra": "x", ', 1)),
    "page-item-id-number": ("emit/pages.jsonl", 2,
                            lambda line: line.replace('["sku-', '[5, "sku-', 1)),
    # the codecs name the file, without a line
    "vocab-cut": ("train/vocab.jsonl", 2, _cut),
    "vocab-nested": ("train/vocab.jsonl", 2, lambda line: line + NESTED),
    "checkpoint-cut": ("finetune/finetuned.ckpt.json", 2, _cut),
}


@pytest.mark.parametrize("edit, stage", [
    ("truncated", "train"), ("truncated", "finetune"), ("truncated", "cluster"),
    ("null-title", "train"), ("no-facets", "cluster"),
    ("bad-page-type", "cluster"), ("facet-pair-number", "cluster"),
    ("clicks-not-int", "metric"),
    ("clicks-not-int", "finetune"), ("short-row", "metric"),
    ("header", "metric"), ("click-page-type", "metric"),
    ("lexicon-values-string", "train"), ("lexicon-value-number", "train"),
    ("training-set-cut", "train"),
    ("candidates-cut", "cluster"), ("representatives-cut", "dedup"),
    ("kept-cut", "select"), ("topics-cut", "emit"),
    ("topic-without-clicks", "emit"), ("vocab-cut", "cluster"),
    ("checkpoint-cut", "cluster"), ("candidate-query-number", "cluster"),
    ("representative-query-number", "dedup"), ("kept-query-number", "select"),
    ("kept-product-type-number", "select"), ("topic-number", "emit"),
    ("topic-cluster-number", "emit"), ("candidate-clicks-string", "cluster"),
    ("representative-clicks-string", "dedup"),
    ("representative-similarity-string", "dedup"),
    ("representative-facet-pages-bool", "dedup"),
    ("kept-clicks-string", "select"), ("kept-clicks-bool", "select"),
    ("topic-clicks-string", "emit"),
    ("interactive-string", "train"), ("interactive-bool", "train"),
    ("kept-nested", "select"), ("training-set-not-utf8", "train"),
    ("kept-extra-field", "select"), ("page-item-id-number", "experiment"),
    ("vocab-nested", "cluster")])
def test_malformed_ingest_copy_stops_the_stage(full_run, tmp_path, caplog,
                                               capsys, edit, stage):
    ctx, workdir = full_run[0], tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    if edit in TABLE_EDITS:
        key, fault, change = TABLE_EDITS[edit]
        text = (workdir / key).read_text(encoding="utf-8")
        assert change(text) != text
        (workdir / key).write_text(change(text), encoding="utf-8")
    else:
        key, line_no, change = COPY_EDITS[edit]
        path = workdir / key
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert change(lines[line_no - 1]) != lines[line_no - 1]
        lines[line_no - 1] = change(lines[line_no - 1])
        # an edit's \udcXX is the byte XX, which is not UTF-8
        path.write_text("".join(lines), encoding="utf-8",
                        errors="surrogateescape")
    config = ctx.config_dir / "config.yaml"
    assert cli.main([stage, "--config", str(config),
                     "--workdir", str(workdir)]) == 1
    if edit in TABLE_EDITS:
        assert f"{key}: malformed table ({fault}" in caplog.text
    elif edit.startswith(("vocab", "checkpoint")):
        # a checkpoint is named without its ``.json`` sidecar
        assert f"{key.removesuffix('.json')}: malformed (" in caplog.text
    else:
        assert f"{key} line {line_no}: malformed row (" in caplog.text
    assert "Traceback" not in caplog.text
    capsys.readouterr()


@pytest.mark.parametrize("edit", ["offsets-swapped", "blob-longer",
                                  "blob-shorter"])
def test_checkpoint_off_its_layout_stops_the_stage(full_run, tmp_path, caplog,
                                                   capsys, edit):
    # a checkpoint's blob is its flat parameter vector in name order; a
    # manifest or blob that does not match that layout is malformed
    ctx, workdir = full_run[0], tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    blob = workdir / "train" / "intention.ckpt"
    sidecar = workdir / "train" / "intention.ckpt.json"
    if edit == "offsets-swapped":
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
        # the first two tensors' offsets exchanged: out of name order
        first, second = manifest["tensors"][:2]
        first["offset"], second["offset"] = second["offset"], first["offset"]
        sidecar.write_text(json.dumps(manifest), encoding="utf-8")
    elif edit == "blob-longer":
        blob.write_bytes(blob.read_bytes() + bytes(4))
    else:
        blob.write_bytes(blob.read_bytes()[:-4])
    config = ctx.config_dir / "config.yaml"
    assert cli.main(["cluster", "--config", str(config),
                     "--workdir", str(workdir)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith("train/intention.ckpt: malformed (ValueError: ")
    assert "Traceback" not in caplog.text
    capsys.readouterr()


def _repeated_token(lines):
    # line 6 repeats line 5's token
    lines[5] = lines[4]


def _object_row(lines):
    # line 6 holds its token in the {"token", "id"} row of the old format
    lines[5] = json.dumps({"token": json.loads(lines[5]), "id": 5}) + "\n"


def _one_token_short(lines):
    del lines[-1]


@pytest.mark.parametrize("edit, detail", [
    pytest.param(_repeated_token, "row 5 repeats or is not a string token: ",
                 id="_repeated_token"),
    pytest.param(_object_row, "row 5 repeats or is not a string token: {",
                 id="_object_row"),
    pytest.param(_one_token_short, "", id="_one_token_short")])
@pytest.mark.parametrize("stage", ["finetune", "cluster"])
def test_vocabulary_off_its_checkpoint_stops_the_stage(
        full_run, tmp_path, caplog, capsys, edit, detail, stage):
    # each vocabulary row is a token no earlier row holds, and the
    # vocabulary has one token per row of the checkpoint's tok_emb
    ctx, workdir = full_run[0], tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    path = workdir / "train" / "vocab.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edited = list(lines)
    edit(edited)
    assert edited != lines
    path.write_text("".join(edited), encoding="utf-8")
    config = ctx.config_dir / "config.yaml"
    assert cli.main([stage, "--config", str(config),
                     "--workdir", str(workdir)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    assert errors[0].startswith("train/vocab.jsonl: malformed (ValueError: "
                                + detail)
    assert "Traceback" not in caplog.text
    capsys.readouterr()


def test_jsonl_stage_outputs_round_trip(full_run, tmp_path, monkeypatch):
    # the rows of each JSONL artifact written from row dataclasses, read as
    # the stage that consumes it reads them, write the same bytes; cluster
    # reads two fields of a candidate, so the candidates and emit's pages,
    # which no stage reads, are read into their row types
    ctx, workdir = full_run[0], tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    read = {}
    real = pipeline._read_rows

    def recording(ctx, stage, name):
        read[f"{stage}/{name}"] = real(ctx, stage, name)
        return read[f"{stage}/{name}"]

    monkeypatch.setattr(pipeline, "_read_rows", recording)
    ctx = load_context(ctx.config_dir / "config.yaml", workdir)
    for stage in ("train", "emit"):
        run_stage(ctx, stage)
    for key, row_type in (("ingest/candidates.jsonl", ingest_mod.CandidateQuery),
                          ("emit/pages.jsonl", TopicPageSpec)):
        lines = (workdir / key).read_text(encoding="utf-8").splitlines()
        read[key] = [row_type(**json.loads(line)) for line in lines]
    for key in ("ingest/candidates.jsonl", "metric/training_set.jsonl",
                "select/topics.jsonl", "emit/pages.jsonl"):
        assert read[key], key
        pipeline._write_jsonl(tmp_path / "rows.jsonl", read[key])
        assert ((tmp_path / "rows.jsonl").read_bytes()
                == (workdir / key).read_bytes()), key


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_stage_csv_and_plan_formats(full_run):
    workdir = full_run[1]
    columns = json.loads((workdir / "ingest" / "click_records.json").read_text())
    assert list(columns) == list(ingest_mod.CLICK_LOG_FIELDS)

    header, *clusters = read_csv(workdir / "cluster" / "clusters.csv")
    assert header == ["query", "product_type", "cluster_id", "is_representative"]
    assert [row[0] for row in clusters] == sorted(row[0] for row in clusters)
    # exactly one representative per cluster, the one representatives.jsonl names
    reps = Counter(cid for _, _, cid, flag in clusters if flag == "1")
    assert set(reps.values()) == {1}
    assert set(reps) == {cid for _, _, cid, _ in clusters}
    named = (workdir / "cluster" / "representatives.jsonl").read_text(
        encoding="utf-8").splitlines()
    assert sorted((row[2], row[0]) for row in clusters if row[3] == "1") == [
        (r["cluster_id"], r["query"]) for r in map(json.loads, named)]
    assert {row[3] for row in clusters} == {"0", "1"}

    header, *decisions = read_csv(workdir / "dedup" / "decisions.csv")
    assert header == ["query", "verdict", "best_match", "best_similarity",
                      "path"]
    assert decisions
    for row in decisions:
        assert re.fullmatch(r"-?\d\.\d{6}", row[3]), row

    for stage, name, last, final in (
            ("train", "curve.csv", "eval_loss", "final_eval_loss"),
            ("finetune", "finetune_curve.csv", "accuracy", "final_accuracy")):
        header, *epochs = read_csv(workdir / stage / name)
        assert header == ["epoch", "mean_loss", last]
        assert [int(row[0]) for row in epochs] == list(range(len(epochs)))
        counts = json.loads((workdir / stage / "report.json").read_text())["counts"]
        assert float(epochs[-1][2]) == counts[final]

    # the plan keeps its keys in field order
    plan = json.loads((workdir / "experiment" / "plan.json").read_text())
    assert list(plan) == ["entries"] and plan["entries"]
    for entry in plan["entries"]:
        assert list(entry) == ["date", "period", "arm", "page_group_action"]


def test_training_reports_count_steps_and_throughput(full_run):
    # a workdir shows the encoder's training speed without the benchmark
    ctx, workdir = full_run[0], full_run[1]
    for stage in ("train", "finetune"):
        counts = json.loads((workdir / stage / "report.json").read_text())["counts"]
        assert type(counts["steps"]) is int and counts["steps"] > 0
        assert counts["samples_per_s"] > 0
    # fine-tuning takes every labeled query in each epoch
    section = ctx.settings["finetune"]
    assert counts["steps"] == section["epochs"] * math.ceil(
        counts["labeled_queries"] / section["batch_size"])


def test_write_jsonl_keeps_no_dict_on_dataclass_rows(tmp_path):
    # vars() on a row would build a __dict__ that lives as long as the row
    rows = [ingest_mod.CandidateQuery(f"query {i}", i) for i in range(3000)]
    path = tmp_path / "rows.jsonl"
    # the writer's first call fills CPython's free list of small tuples
    # (dataclasses.fields builds one per row), which stays allocated; so
    # warm it on as many other rows first
    pipeline._write_jsonl(tmp_path / "warm.jsonl", [
        ingest_mod.CandidateQuery(f"warm {i}", i) for i in range(len(rows))])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pipeline._write_jsonl(path, rows)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 8 * len(rows)
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps({"query": r.query, "clicks_total": r.clicks_total},
                   sort_keys=True) + "\n"
        for r in rows)


def test_write_jsonl_writes_json_dumps_lines(tmp_path):
    rows = [{"b": 1, "a": "na\u00efve \u2603"}, {},
            {"z": [1.5, None, True], "y": {"d": 1e-320, "c": float("nan")}}]
    pipeline._write_jsonl(tmp_path / "rows.jsonl", iter(rows))
    assert (tmp_path / "rows.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(row, sort_keys=True) + "\n" for row in rows)


def test_stale_raw_lexicon_changes_no_cluster_or_dedup_output(full_run,
                                                             tmp_path, capsys):
    inputs = tmp_path / "inputs"
    config = str(write_fixture(inputs)["config"])
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    # a facet the checkpoint never saw, added after train
    with open(inputs / "facet_lexicon.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"facet_name": "activity",
                             "values": ["running", "trail"]}) + "\n")
    for stage in ("ingest", "cluster", "dedup"):
        assert cli.main([stage, "--config", config,
                         "--workdir", str(workdir)]) == 0
    capsys.readouterr()
    assert "activity" in (workdir / "ingest" / "facet_lexicon.jsonl").read_text()
    for name in ("cluster/merge_log.jsonl", "dedup/decisions.csv"):
        assert (workdir / name).read_bytes() == (full_run[1] / name).read_bytes(), name


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
    with pytest.raises(PipelineError,
                       match=r"^missing artifact: ingest/click_records\.json "
                             r"\(run the ingest stage first\)$"):
        run_stage(ctx, "metric")


def test_failed_stage_leaves_no_directory_it_made(fixture_dir, tmp_path,
                                                  caplog, capsys):
    workdir, config = tmp_path / "w", str(fixture_dir / "config.yaml")
    assert cli.main(["experiment", "--config", config,
                     "--workdir", str(workdir)]) == 1
    assert "missing artifact: emit/pages.jsonl" in caplog.text
    assert not (workdir / "experiment").exists()
    # a stage directory that was there before the stage ran stays
    (workdir / "metric").mkdir()
    assert cli.main(["metric", "--config", config,
                     "--workdir", str(workdir)]) == 1
    assert (workdir / "metric").is_dir()
    capsys.readouterr()


def test_unknown_stage_is_config_error(fixture_dir, tmp_path):
    ctx = load_context(fixture_dir / "config.yaml", tmp_path / "w")
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage(ctx, "compile")


def test_desk_training_set_is_unchanged(full_run):
    # the fixture's training set as written by the listed-pool sampler
    _, workdir, _ = full_run
    expected = Path(__file__).with_name("data") / "desk_training_set.jsonl"
    assert ((workdir / "metric" / "training_set.jsonl").read_bytes()
            == expected.read_bytes())


@pytest.mark.parametrize("value", [0, "0"])
def test_zero_negative_ratio_disables_sampling(fixture_dir, tmp_path, value):
    config = variant_config(fixture_dir, tmp_path,
                            **{"metric.negative_ratio": value})
    ctx = load_context(config, tmp_path / "w")
    run_stage(ctx, "ingest")
    report = run_stage(ctx, "metric")
    assert report.counts["positives"] > 0
    assert report.counts["negatives"] == 0


@pytest.mark.parametrize("value", ["lots", -1, ".nan", True])
def test_bad_negative_ratio_is_config_error(fixture_dir, tmp_path, capsys,
                                            value):
    config = variant_config(fixture_dir, tmp_path,
                            **{"metric.negative_ratio": value})
    workdir = tmp_path / "w"
    # the whole config is checked before ingest runs
    with pytest.raises(ConfigError, match="^metric.negative_ratio must be"):
        load_context(config, workdir)
    assert cli.main(["all", "--config", str(config),
                     "--workdir", str(workdir)]) == 2
    assert not workdir.exists()
    capsys.readouterr()


@pytest.mark.parametrize("section", ["train", "finetune"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 1e39, 1e300])
def test_non_finite_learning_rate_is_config_error(fixture_dir, full_run,
                                                  tmp_path, capsys, section,
                                                  value):
    config = variant_config(fixture_dir, tmp_path,
                            **{f"{section}.learning_rate": value})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    with pytest.raises(ConfigError,
                       match=f"^bad {section} config: learning_rate must be"):
        run_stage(load_context(config, workdir), section)
    assert cli.main([section, "--config", str(config),
                     "--workdir", str(workdir)]) == 2
    capsys.readouterr()



@pytest.mark.parametrize("section", ["train", "finetune"])
def test_diverged_training_is_one_line_error(fixture_dir, full_run, tmp_path,
                                             caplog, capsys, section):
    # fine-tuning's 30 desk queries make one batch, so its first step leaves
    # huge but finite parameters and the loss goes non-finite in epoch 1
    epoch = {"train": 0, "finetune": 1}[section]
    config = variant_config(fixture_dir, tmp_path,
                            **{f"{section}.learning_rate": 1.0e+30})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    with pytest.raises(PipelineError, match=f"^{section}: .* epoch {epoch}:"):
        run_stage(load_context(config, workdir), section)
    caplog.clear()
    assert cli.main(["all", "--config", str(config),
                     "--workdir", str(workdir)]) == 1
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage().startswith(f"{section}: ")
    assert f"epoch {epoch}:" in error.getMessage()
    assert "Traceback" not in caplog.text
    capsys.readouterr()


# (click log rows kept, the run's one error line): each log leaves a training
# precondition unmet
UNTRAINABLE_CLICK_LOGS = {
    # each item click is on a page no other query clicked, and metric drops
    # shelf clicks: no co-clicked pair, so no positive sample
    "no-co-clicks": (lambda row: "-priv-" in row or ",shelf," in row,
                     "train: need at least one positive sample"),
    # every labeled query clicks the one shelf left
    "one-shelf-clicked": (lambda row: ",shelf-cases," not in row,
                          "finetune: labeled data must contain at least two "
                          "classes"),
}


@pytest.mark.parametrize("case", sorted(UNTRAINABLE_CLICK_LOGS))
def test_untrainable_click_log_is_one_line_error(tmp_path, caplog, capsys,
                                                 case):
    keep, message = UNTRAINABLE_CLICK_LOGS[case]
    inputs = tmp_path / "inputs"
    paths = write_fixture(inputs)
    header, *rows = paths["click_log"].read_text(
        encoding="utf-8").splitlines(keepends=True)
    kept = [row for row in rows if keep(row)]
    assert 0 < len(kept) < len(rows)
    paths["click_log"].write_text(header + "".join(kept), encoding="utf-8")
    assert cli.main(["all", "--config", str(paths["config"]),
                     "--workdir", str(tmp_path / "w")]) == 1
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == message
    assert "Traceback" not in caplog.text
    capsys.readouterr()


def test_one_shelf_catalog_is_one_line_finetune_error(tmp_path, caplog,
                                                      capsys):
    paths = write_fixture(tmp_path / "inputs")
    rows = paths["page_catalog"].read_text(
        encoding="utf-8").splitlines(keepends=True)
    kept = [row for row in rows if '"shelf-cases"' not in row]
    assert len(kept) == len(rows) - 1
    paths["page_catalog"].write_text("".join(kept), encoding="utf-8")
    assert cli.main(["all", "--config", str(paths["config"]),
                     "--workdir", str(tmp_path / "w")]) == 1
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == ("finetune: need at least two shelf classes "
                                  "to fine-tune")
    assert "Traceback" not in caplog.text
    capsys.readouterr()


# keys the pipeline no longer reads, at the values perfbench/gen.py writes,
# and two whose values would change an artifact if they were still read
RETIRED_KEYS = {
    "metric.min_interactive": 0.0,
    "metric.exclude_page_types": ["item"],
    "train.optimizer": "adam",
    "train.weight_decay": 0.0,
    "finetune.optimizer": "adam",
    "finetune.eval_fraction": 0.0,
    "finetune.freeze_encoder": False,
    "cluster.linkage": "average",
    "dedup.cache_capacity": 10000,
    "select.strategy": "pipeline",
    "experiment.variant": "welch",
}


def test_retired_config_keys_change_no_artifact(fixture_dir, full_run,
                                                tmp_path, capsys):
    config = variant_config(fixture_dir, tmp_path, **RETIRED_KEYS)
    workdir = tmp_path / "w"
    assert cli.main(["all", "--config", str(config),
                     "--workdir", str(workdir)]) == 0
    capsys.readouterr()
    trimmed = full_run[1]
    names = sorted(p.relative_to(trimmed) for p in trimmed.rglob("*")
                   if p.is_file() and p.name != "report.json")
    assert names == sorted(p.relative_to(workdir) for p in workdir.rglob("*")
                           if p.is_file() and p.name != "report.json")
    # manifests included: each hashes only the typed values its stage reads
    for name in names:
        assert (workdir / name).read_bytes() == (trimmed / name).read_bytes(), name


def test_finetune_ignores_eval_fraction(fixture_dir, full_run, tmp_path):
    # fine-tuning splits off no eval set, so the key is not read at all
    config = variant_config(fixture_dir, tmp_path,
                            **{"finetune.eval_fraction": 5})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    run_stage(load_context(config, workdir), "finetune")
    for name in ("finetuned.ckpt", "classes.json", "finetune_curve.csv"):
        assert ((workdir / "finetune" / name).read_bytes()
                == (full_run[1] / "finetune" / name).read_bytes()), name
    config = variant_config(fixture_dir, tmp_path,
                            **{"train.eval_fraction": 5})
    with pytest.raises(ConfigError,
                       match="^bad train config: eval_fraction must be"):
        run_stage(load_context(config, workdir), "train")


@pytest.mark.parametrize("key, stage", [
    ("click_log", "ingest"), ("page_catalog", "ingest"),
    ("facet_lexicon", "ingest"), ("blocklist", "ingest"),
    ("item_catalog", "emit")])
def test_missing_raw_input_is_config_error(fixture_dir, full_run, tmp_path,
                                           caplog, capsys, key, stage):
    config = variant_config(fixture_dir, tmp_path,
                            **{f"paths.{key}": str(tmp_path / "absent")})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    assert cli.main([stage, "--config", str(config),
                     "--workdir", str(workdir)]) == 2
    assert f"paths.{key} not found: " in caplog.text
    capsys.readouterr()


def test_bad_facet_lexicon_fails_ingest(tmp_path, caplog, capsys):
    inputs = tmp_path / "inputs"
    config = write_fixture(inputs)["config"]
    with open(inputs / "facet_lexicon.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"facet_name": "color", "values": "red"}\n')
    with pytest.raises(PipelineError,
                       match="^facet lexicon line 4: values is not a list$"):
        run_stage(load_context(config, tmp_path / "w"), "ingest")
    assert cli.main(["ingest", "--config", str(config),
                     "--workdir", str(tmp_path / "w")]) == 1
    assert "facet lexicon line 4: values is not a list" in caplog.text
    assert "Traceback" not in caplog.text
    capsys.readouterr()


def test_line_that_is_not_utf8_exits_without_a_traceback(tmp_path, caplog,
                                                         capsys):
    paths = write_fixture(tmp_path / "inputs")
    args = ["ingest", "--config", str(paths["config"]),
            "--workdir", str(tmp_path / "w")]
    rows = len(paths["click_log"].read_bytes().splitlines())
    with open(paths["click_log"], "ab") as fh:
        fh.write(b"caf\xe9 shoes,p1,item,1,2\n")
    assert cli.main(args) == 0
    report = json.loads((tmp_path / "w" / "ingest" / "report.json").read_text())
    assert (f"click log line {rows + 1}: line is not UTF-8 text"
            in report["warnings"])
    assert report["counts"]["click_row_errors"] == 1
    with open(paths["facet_lexicon"], "ab") as fh:
        fh.write(b'{"facet_name": "caf\xe9", "values": ["latte"]}\n')
    assert cli.main(args) == 1
    assert "facet lexicon line 4: line is not UTF-8 text" in caplog.text
    assert "Traceback" not in caplog.text
    capsys.readouterr()


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


@pytest.mark.parametrize("key, value", [
    ("emit.items_per_page", 0), ("experiment.noise_sd", -1),
    ("experiment.base_mean", 0), ("experiment.n_days", 4),
    ("experiment.start_date", "soon"), ("experiment.noise_sd", 0),
    ("experiment.noise_sd", 1.0e-20)])
def test_bad_emit_or_experiment_value_is_config_error(
        fixture_dir, full_run, tmp_path, caplog, capsys, key, value):
    stage = key.split(".")[0]
    config = variant_config(fixture_dir, tmp_path, **{key: value})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    assert cli.main([stage, "--config", str(config),
                     "--workdir", str(workdir)]) == 2
    assert f"bad {stage} config: " in caplog.text
    capsys.readouterr()


# (stage, dotted key, wrong-typed value, logged message)
WRONG_TYPED_VALUES = [
    ("train", "model.seq_len", None,
     "bad model config: seq_len must be a number of type int, got None"),
    ("train", "model.seq_len", 1, "bad model config: seq_len must be >= 2"),
    ("train", "train.learning_rate", None,
     "bad train config: learning_rate must be a number of type float, "
     "got None"),
    ("finetune", "finetune.epochs", None,
     "bad finetune config: epochs must be a number of type int, got None"),
    ("train", "train.epochs", -1, "bad train config: epochs must be >= 0"),
    ("finetune", "finetune.epochs", -1,
     "bad finetune config: epochs must be >= 0"),
    ("cluster", "cluster.threshold", "abc",
     "bad cluster config: threshold must be a number of type float, "
     "got 'abc'"),
    ("cluster", "cluster.threshold", None,
     "bad cluster config: threshold must be a number of type float, "
     "got None"),
    ("dedup", "dedup.threshold", None,
     "bad dedup config: threshold must be a number of type float, got None"),
    ("select", "select.quota", "abc",
     "bad select config: quota must be a number of type int, got 'abc'"),
    ("emit", "emit.items_per_page", None,
     "bad emit config: items_per_page must be a number of type int, got None"),
    ("experiment", "experiment.n_days", None,
     "bad experiment config: n_days must be a number of type int, got None"),
    ("experiment", "experiment.lift_fraction", -2.0,
     "bad experiment config: lift_fraction must be a finite number >= -1"),
    ("experiment", "experiment.lift_fraction", math.inf,
     "bad experiment config: lift_fraction must be a finite number >= -1"),
    ("experiment", "experiment.base_mean", math.nan,
     "bad experiment config: base_mean must be > 0 and finite"),
    ("experiment", "experiment.base_mean", math.inf,
     "bad experiment config: base_mean must be > 0 and finite"),
    ("experiment", "experiment.noise_sd", math.nan,
     "bad experiment config: noise_sd must be > 0 and finite"),
    ("experiment", "experiment.noise_sd", math.inf,
     "bad experiment config: noise_sd must be > 0 and finite"),
    ("experiment", "seed", "abc", "config seed must be an integer"),
    ("experiment", "seed", None, "config seed must be an integer"),
    ("experiment", "seed", -2, "config error: seed must be >= 0, got -2"),
    ("experiment", "paths", "foo", "config section 'paths' must be a mapping"),
    ("experiment", "paths.workdir", None,
     "config paths.workdir must be a string"),
    ("ingest", "paths.click_log", None, "config paths.click_log must be a string"),
    # a window past the last date Python can hold
    ("experiment", "experiment.start_date", "9999-12-01",
     "bad experiment config: start_date must leave 120 days up to "
     "9999-12-31, got '9999-12-01'"),
]


# (stage, dotted key, value): a YAML boolean, or a fractional number for an
# integer key, each of which the stage would otherwise read as a valid value
NOT_A_NUMBER = [
    ("train", "model.seq_len", 12.5),
    ("train", "model.model_dim", 32.5),
    ("train", "model.num_layers", True),
    ("train", "model.num_heads", 2.5),
    ("train", "model.ffn_dim", 64.5),
    ("train", "model.output_dim", 32.5),
    ("train", "train.learning_rate", True),
    ("train", "train.batch_size", 32.5),
    ("train", "train.epochs", 2.7),
    ("train", "train.eval_fraction", False),
    ("finetune", "finetune.learning_rate", True),
    ("finetune", "finetune.batch_size", True),
    ("finetune", "finetune.epochs", 8.5),
    ("cluster", "cluster.threshold", True),
    ("dedup", "dedup.threshold", True),
    ("select", "select.quota", True),
    ("emit", "emit.items_per_page", 24.5),
    ("experiment", "experiment.n_days", 120.5),
    ("experiment", "experiment.base_mean", True),
    ("experiment", "experiment.noise_sd", True),
    ("experiment", "experiment.lift_fraction", True),
]
WRONG_TYPED_VALUES += [
    (stage, key, value, "bad {} config: {} must be".format(*key.split(".")))
    for stage, key, value in NOT_A_NUMBER]


@pytest.mark.parametrize("stage, key, value, message", WRONG_TYPED_VALUES)
def test_wrong_typed_config_value_is_config_error(
        fixture_dir, full_run, tmp_path, caplog, capsys, stage, key, value,
        message):
    config_path = variant_config(fixture_dir, tmp_path)
    config = yaml.safe_load(config_path.read_text())
    *section, name = key.split(".")
    (config.setdefault(section[0], {}) if section else config)[name] = value
    config_path.write_text(yaml.safe_dump(config))
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    # ``paths`` is read for the workdir only when --workdir is absent
    where = ([] if key in ("paths", "paths.workdir")
             else ["--workdir", str(workdir)])
    assert cli.main([stage, "--config", str(config_path), *where]) == 2
    assert message in caplog.text
    # the whole config is checked before the first stage makes the workdir
    caplog.clear()
    fresh = tmp_path / "fresh"
    assert cli.main(["all", "--config", str(config_path),
                     "--workdir", str(fresh)]) == 2
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert message in error.getMessage() and not fresh.exists()
    capsys.readouterr()


def test_null_item_id_stops_emit(full_run, tmp_path, caplog, capsys):
    inputs = tmp_path / "inputs"
    config = write_fixture(inputs)["config"]
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    catalog = inputs / "items.jsonl"
    line_no = len(catalog.read_text(encoding="utf-8").splitlines()) + 1
    with open(catalog, "a", encoding="utf-8") as fh:
        fh.write('{"item_id": null, "title": "hydration pack deluxe extra"}\n')
    assert cli.main(["emit", "--config", str(config),
                     "--workdir", str(workdir)]) == 1
    assert f"item catalog line {line_no}: item_id is missing" in caplog.text
    # a bad data row is reported by its line, not with a stack trace
    assert "Traceback" not in caplog.text
    capsys.readouterr()


def test_emit_without_topics_reads_no_item_catalog(full_run, tmp_path, capsys):
    inputs = tmp_path / "inputs"
    write_fixture(inputs)
    with open(inputs / "items.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"item_id": null, "title": "hydration pack deluxe extra"}\n')
    config = variant_config(inputs, tmp_path, **{"select.quota": 0})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    assert cli.main(["all", "--config", str(config),
                     "--workdir", str(workdir)]) == 0
    capsys.readouterr()
    emit = workdir / "emit"
    assert (emit / "pages.jsonl").read_bytes() == b""
    assert json.loads((emit / "MANIFEST.json").read_text())["raw_inputs"] == {}


def test_experiment_stage_seed_sensitivity(fixture_dir, full_run, tmp_path):
    # same seed: byte-identical artifacts; different seed: different traffic
    runs = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / name
        shutil.copytree(full_run[1] / "emit", workdir / "emit")
        ctx = load_context(fixture_dir / "config.yaml", workdir, seed=seed)
        run_stage(ctx, "experiment")
        runs[name] = (workdir / "experiment" / "daily_clicks.json").read_bytes()
    assert runs["a"] == runs["b"]
    assert runs["a"] != runs["c"]


def test_experiment_without_pages_has_no_treatment(fixture_dir, full_run,
                                                   tmp_path):
    from topicforge import experiment

    ctx, shipped, reports = full_run
    assert reports[-1].counts["pages"] > 0 and not reports[-1].warnings
    workdir = tmp_path / "w"
    (workdir / "emit").mkdir(parents=True)
    (workdir / "emit" / "pages.jsonl").write_bytes(b"")
    report = run_stage(load_context(fixture_dir / "config.yaml", workdir),
                       "experiment")
    assert report.counts["pages"] == 0
    assert report.warnings == [
        "no page was emitted; the A/B period has no treatment"]
    # the configured lift is not applied, and the traffic's draws are those
    # of the run that shipped pages
    e = ctx.settings["experiment"]
    assert e["lift_fraction"] > 0
    _, clicks, _ = experiment.run_experiment(
        config_mod.date_window(e["start_date"], e["n_days"]), e["base_mean"],
        e["noise_sd"], 0.0, split_seed=ctx.seed + pipeline.SEED_SPLIT,
        traffic_seed=ctx.seed + pipeline.SEED_TRAFFIC)
    read = json.loads(
        (workdir / "experiment" / "daily_clicks.json").read_text())
    assert read == clicks
    plan = json.loads((shipped / "experiment" / "plan.json").read_text())
    treated = {entry["date"] for entry in plan["entries"]
               if entry["page_group_action"] == "active"}
    with_pages = json.loads(
        (shipped / "experiment" / "daily_clicks.json").read_text())
    for date, value in read.items():
        assert (value == with_pages[date]) == (date not in treated), date


def test_cli_exit_codes(fixture_dir, tmp_path, caplog, capsys):
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
    # a workdir that is a file, or lies under one, is a config problem
    for unusable in (bad, bad / "w"):
        caplog.clear()
        assert cli.main(["all", "--config", config,
                         "--workdir", str(unusable)]) == 2
        [error] = [r for r in caplog.records if r.levelname == "ERROR"]
        assert error.getMessage().startswith(
            f"config error: cannot use workdir {unusable}: ")
        assert "Traceback" not in caplog.text
    capsys.readouterr()


def _config_not_utf8(fixture_dir, tmp_path):
    (tmp_path / "c.yaml").write_bytes(b"seed: 1\n\xff\n")
    return ["all", "--config", str(tmp_path / "c.yaml"),
            "--workdir", str(tmp_path / "w")]


def _config_nested_deep(fixture_dir, tmp_path):
    # libyaml's composer overflows the C stack on this, killing the process
    depth = 100_000
    (tmp_path / "c.yaml").write_text("seed: " + "[" * depth + "]" * depth)
    return ["all", "--config", str(tmp_path / "c.yaml"),
            "--workdir", str(tmp_path / "w")]


def _fixture_over_a_file(fixture_dir, tmp_path):
    (tmp_path / "w").write_text("")
    return ["fixture", "--out", str(tmp_path / "w")]


def _config_without_noise(fixture_dir, tmp_path):
    config = variant_config(fixture_dir, tmp_path, **{"experiment.noise_sd": 0})
    return ["all", "--config", str(config), "--workdir", str(tmp_path / "w")]


def _config_with_noise_below_a_draw(fixture_dir, tmp_path):
    # 1e-20 cannot move a draw of 1000.0: every day would be 1000.0
    config = variant_config(fixture_dir, tmp_path,
                            **{"experiment.noise_sd": 1.0e-20})
    return ["all", "--config", str(config), "--workdir", str(tmp_path / "w")]


def _config_aliased_deep(line: str):
    """A config that nests 3,000 lists through aliases, each one level of
    parse events deep, and ``line`` (which aliases the deepest) after them."""
    def make_args(fixture_dir, tmp_path):
        chain = ["a0: &a0 []"] + [f"a{i}: &a{i} [*a{i - 1}]"
                                  for i in range(1, 3000)]
        (tmp_path / "c.yaml").write_text("\n".join(chain + [line]) + "\n")
        return ["all", "--config", str(tmp_path / "c.yaml"),
                "--workdir", str(tmp_path / "w")]
    return make_args


@pytest.mark.parametrize("make_args, message", [
    (_config_not_utf8, "config is not valid YAML: unacceptable character "
                       "#x00ff: invalid leading UTF-8 octet"),
    (_config_nested_deep, "config nests deeper than 10 levels (line 1)"),
    (_fixture_over_a_file, "cannot write fixture to "),
    (_config_without_noise,
     "bad experiment config: noise_sd must be > 0 and finite"),
    (_config_with_noise_below_a_draw,
     "bad experiment config: noise_sd must be at least 1e-9 times "
     "base_mean, got 1e-20"),
    (_config_aliased_deep("seed: *a2999"),
     "config seed must be an integer, got [[[[[[[...]]]]]]]"),
    (_config_aliased_deep("train: {epochs: *a2999}"),
     "bad train config: epochs must be a number of type int, "
     "got [[[[[[[...]]]]]]]"),
    (_config_aliased_deep("experiment: {start_date: *a2999}"),
     "bad experiment config: start_date must be a scalar, "
     "got [[[[[[[...]]]]]]]")],
    ids=["config-not-utf8", "config-nested-deep", "fixture-over-a-file",
         "config-without-noise", "config-with-noise-below-a-draw",
         "config-aliased-deep-seed", "config-aliased-deep-number",
         "config-aliased-deep-date"])
def test_config_boundary_errors_are_one_line(fixture_dir, tmp_path,
                                             make_args, message):
    # a fresh interpreter, so that a crash fails this case alone
    args = make_args(fixture_dir, tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "topicforge.cli", *args],
        env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"ERROR topicforge: config error: {message}")
    assert "Traceback" not in done.stderr
    assert done.stdout == ""
    if args[0] == "all":
        assert not (tmp_path / "w").exists()


def test_shallow_config_alias_loads_as_its_copy(tmp_path):
    # a section aliased whole reads as if it were written out again
    section = "{epochs: 3, learning_rate: 0.01}"
    settings = []
    for text in (f"train: &tr {section}\nfinetune: *tr\n",
                 f"train: {section}\nfinetune: {section}\n"):
        (tmp_path / "c.yaml").write_text(text)
        settings.append(load_context(tmp_path / "c.yaml").settings)
    assert settings[0] == settings[1]
    assert settings[0]["finetune"]["epochs"] == 3


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


def test_every_json_artifact_is_json(full_run):
    # RFC 8259 has no NaN or Infinity, which json.dumps writes by default
    workdir = full_run[1]
    paths = sorted(workdir.rglob("*.json")) + sorted(workdir.rglob("*.jsonl"))
    assert workdir / "experiment" / "results.json" in paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        docs = text.splitlines() if path.suffix == ".jsonl" else [text]
        for doc in docs:
            if doc.strip():
                json.loads(doc, parse_constant=_not_json)


def test_one_exception_class_per_exit_code():
    # every class the package defines whose bases lead to a builtin exception
    bases = {}
    for path in sorted(Path(pipeline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[f"{path.stem}.{node.name}"] = {
                    getattr(b, "id", getattr(b, "attr", None))
                    for b in node.bases}
    exception_names = {name for name, value in vars(builtins).items()
                       if isinstance(value, type)
                       and issubclass(value, BaseException)}
    found: set[str] = set()
    while new := {key for key, names in bases.items()
                  if key not in found and names & exception_names}:
        found |= new
        exception_names |= {key.split(".")[1] for key in new}
    assert found == {"config.ConfigError", "config.PipelineError"}
    # so no ``except ValueError`` around a row parser swallows one
    for cls in (config_mod.ConfigError, config_mod.PipelineError):
        assert not issubclass(cls, ValueError)
    # pipeline re-exports both
    assert ConfigError is config_mod.ConfigError
    assert PipelineError is config_mod.PipelineError


EDGE_SCALARS = ("true", ".nan", ".inf", "1.0e+300", "2025-01-01", "~",
                "0x1f", "1_000", "yes")


def test_libyaml_loader_reads_every_config_value_alike(fixture_dir,
                                                       monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import gen

    desk = (fixture_dir / "config.yaml").read_text(encoding="utf-8")
    texts = [desk, "\ufeff" + desk]
    texts += [gen.config_text(workload, 1) for workload in gen.WORKLOADS]
    texts.append("".join(f"k{i}: {v}\n" for i, v in enumerate(EDGE_SCALARS)))
    assert pipeline._YAML_LOADER is (
        yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    for text in texts:
        # repr: NaN equals itself there, and 1 differs from 1.0 and True
        assert repr(yaml.load(text, Loader=pipeline._YAML_LOADER)) == repr(
            yaml.load(text, Loader=yaml.SafeLoader))


def test_malformed_config_names_line_and_column(tmp_path, caplog, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\ndedup: {threshold: 0.9\nselect: {}\n")
    assert cli.main(["all", "--config", str(bad),
                     "--workdir", str(tmp_path / "w")]) == 2
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage().startswith(
        "config error: config is not valid YAML: ")
    assert "line 2, column 8" in error.getMessage()
    assert not (tmp_path / "w").exists()
    capsys.readouterr()


def test_negative_seed_flag_stops_before_any_stage(fixture_dir, tmp_path,
                                                  caplog, capsys):
    workdir = tmp_path / "w"
    assert cli.main(["all", "--config", str(fixture_dir / "config.yaml"),
                     "--workdir", str(workdir), "--seed", "-3"]) == 2
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == "config error: seed must be >= 0, got -3"
    assert "Traceback" not in caplog.text
    assert not workdir.exists()
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


@pytest.mark.parametrize("args, message", [
    (["--seeds", "0"], "n_seeds must be >= 1"),
    (["--noise-sd", "-1"], "noise_sd must be > 0"),
    (["--base-mean", "0"], "base_mean must be > 0"),
    (["--base-mean", "nan"], "base_mean must be > 0"),
    (["--noise-sd", "0"], "noise_sd must be > 0"),
    (["--noise-sd", "1e-20"], "noise_sd must be at least 1e-9 times "
                              "base_mean")])
def test_power_bad_number_is_config_error(caplog, capsys, args, message):
    assert cli.main(["power", "--lifts", "0.0,0.5", "--days", "8",
                     "--seeds", "3", *args]) == 2
    assert f"config error: {message}" in caplog.text
    capsys.readouterr()


@pytest.mark.parametrize("args, message", [
    (["--alpha", "7"], "alpha must be in (0, 1), got 7.0"),
    (["--alpha", "nan"], "alpha must be in (0, 1), got nan"),
    (["--alpha", "0"], "alpha must be in (0, 1), got 0.0"),
    (["--days", "10"],
     "window length must be a multiple of 4, at least 8, got 10"),
    (["--days", "4"],
     "window length must be a multiple of 4, at least 8, got 4"),
    (["--days", "100000000"], "start_date must leave 100000000 days up to "
                              "9999-12-31, got '2025-01-01'"),
    (["--lifts", "0.0,nan"], "lift_fraction must be a finite number >= -1"),
    (["--lifts", "-2"], "lift_fraction must be a finite number >= -1"),
    (["--base-mean", "inf"], "base_mean must be > 0 and finite"),
    (["--noise-sd", "inf"], "noise_sd must be > 0 and finite"),
    (["--noise-sd", "0"], "noise_sd must be > 0 and finite"),
    (["--noise-sd", "1e-20"],
     "noise_sd must be at least 1e-9 times base_mean, got 1e-20")])
def test_power_checks_its_arguments_before_simulating(
        monkeypatch, caplog, capsys, args, message):
    from topicforge import experiment

    # a window of 10**8 days would be built before any check of its own
    monkeypatch.setattr(experiment, "power_estimate",
                        lambda *a, **k: pytest.fail("simulated"))
    assert cli.main(["power", "--lifts", "0.0,0.5", "--days", "8",
                     "--seeds", "3", *args]) == 2
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert error.getMessage() == f"config error: {message}"
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# ``all`` skips a stage when nothing it read or wrote has changed
# ---------------------------------------------------------------------------

def record_runs(monkeypatch) -> list[str]:
    """The stages ``run_stage`` is called for from now on, in order."""
    ran = []
    real = pipeline.run_stage
    monkeypatch.setattr(pipeline, "run_stage",
                        lambda ctx, stage: ran.append(stage) or real(ctx, stage))
    return ran


def run_all(monkeypatch, config, workdir, *args: str) -> list[str]:
    """``topicforge all``; the stages that ran, in order."""
    with monkeypatch.context() as patch:
        ran = record_runs(patch)
        assert cli.main(["all", "--config", str(config),
                         "--workdir", str(workdir), *args]) == 0
    return ran


def files(workdir: Path) -> dict:
    """Every file of a workdir, by relative path."""
    return {p.relative_to(workdir): p.read_bytes()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def tree(workdir: Path) -> dict:
    """Every file of a workdir but the reports, by relative path."""
    return {path: data for path, data in files(workdir).items()
            if path.name != "report.json"}


def test_second_all_runs_no_stage(fixture_dir, full_run, tmp_path,
                                  monkeypatch, capsys):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    before = files(workdir)
    assert run_all(monkeypatch, fixture_dir / "config.yaml", workdir) == []
    out, err = capsys.readouterr()
    assert out == ""  # a skipped experiment prints no table
    # the reports too: each is still that of the run that wrote its stage
    assert files(workdir) == before
    for stage in pipeline.STAGES:
        assert f"{stage}: skipped" in err
        report = json.loads((workdir / stage / "report.json").read_text())
        assert sorted(report) == REPORT_KEYS


def test_skipping_every_stage_opens_no_file_for_writing(
        fixture_dir, full_run, tmp_path, monkeypatch, capsys):
    workdir = (tmp_path / "w").resolve()
    shutil.copytree(full_run[1], workdir)
    before = files(workdir)
    written: list[Path] = []
    real_open = io.open

    def recording_open(file, mode="r", *args, **kwargs):
        if (isinstance(file, (str, Path)) and set(mode) & set("wax+")
                and Path(file).resolve().is_relative_to(workdir)):
            written.append(Path(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    monkeypatch.setattr(io, "open", recording_open)
    # the second run skips what the first skipped, over files it left alone
    for _ in range(2):
        assert run_all(monkeypatch, fixture_dir / "config.yaml", workdir) == []
    capsys.readouterr()
    assert written == []
    assert files(workdir) == before


def test_skip_report_is_the_report_as_written(fixture_dir, full_run,
                                              tmp_path):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    ctx = load_context(fixture_dir / "config.yaml", workdir)
    for stage in pipeline.STAGES:
        path = workdir / stage / "report.json"
        assert pipeline.skip_report(ctx, stage) == json.loads(path.read_text())
    # a missing report, or one that is not a report, runs its stage
    report = workdir / "dedup" / "report.json"
    for text in ("[]", '{"stage": "dedup"}', "{"):
        report.write_text(text)
        assert pipeline.skip_report(ctx, "dedup") is None
    report.unlink()
    assert pipeline.skip_report(ctx, "dedup") is None


def test_retune_reruns_exactly_dedup(fixture_dir, full_run, tmp_path,
                                     monkeypatch, capsys):
    # the edited copy names every raw input by another (absolute) path to
    # the same bytes, which reruns nothing either
    config = variant_config(fixture_dir, tmp_path, **{"dedup.threshold": 0.88})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    assert run_all(monkeypatch, config, workdir) == ["dedup"]
    cold = tmp_path / "cold"
    assert run_all(monkeypatch, config, cold) == list(pipeline.STAGES)
    capsys.readouterr()
    assert tree(workdir) == tree(cold)


def test_raw_input_edit_reruns_from_ingest(full_run, tmp_path, monkeypatch,
                                           capsys):
    inputs = tmp_path / "inputs"
    config = write_fixture(inputs)["config"]
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    with open(inputs / "blocklist.txt", "a", encoding="utf-8") as fh:
        fh.write("best\n")
    ran = run_all(monkeypatch, config, workdir)
    # a blocked term drops candidates but no click record: metric and
    # the two training stages skip
    assert ran[:2] == ["ingest", "cluster"]
    cold = tmp_path / "cold"
    assert run_all(monkeypatch, config, cold) == list(pipeline.STAGES)
    capsys.readouterr()
    assert tree(workdir) == tree(cold)


@pytest.mark.parametrize("key, file_name, stage", [
    ("click_log", "click_log.csv", "ingest"),
    ("item_catalog", "items.jsonl", "emit")])
def test_deleted_raw_input_stops_all(full_run, tmp_path, caplog, capsys, key,
                                     file_name, stage):
    inputs = tmp_path / "inputs"
    config = write_fixture(inputs)["config"]
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    (inputs / file_name).unlink()
    assert cli.main(["all", "--config", str(config),
                     "--workdir", str(workdir)]) == 2
    assert f"paths.{key} not found: " in caplog.text
    # the stages before the one that reads the file skip
    err = capsys.readouterr().err
    before = pipeline.STAGES[:pipeline.STAGES.index(stage)]
    assert [s for s in pipeline.STAGES if f"{s}: skipped" in err] == list(before)


def test_hand_edited_output_reruns_its_stage(fixture_dir, full_run, tmp_path,
                                             monkeypatch, capsys):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    topics = workdir / "select" / "topics.jsonl"
    topics.write_text("", encoding="utf-8")
    # emit's recorded input is the rewritten file again, so emit skips
    assert run_all(monkeypatch, fixture_dir / "config.yaml", workdir) == ["select"]
    capsys.readouterr()
    assert topics.read_bytes() == (full_run[1] / "select" / "topics.jsonl").read_bytes()


def test_nested_manifest_reruns_its_stage(fixture_dir, full_run, tmp_path,
                                         monkeypatch, capsys):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    (workdir / "select" / "MANIFEST.json").write_text(NESTED, encoding="utf-8")
    # select's rewritten topics are emit's recorded input again
    assert run_all(monkeypatch, fixture_dir / "config.yaml", workdir) == ["select"]
    capsys.readouterr()
    assert tree(workdir) == tree(full_run[1])


def test_numpy_version_without_a_literal_is_read_from_metadata(
        tmp_path, monkeypatch):
    # numpy/version.py as versioneer-built releases wrote it: no
    # ``version = "X"`` line
    fake = tmp_path / "numpy"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "version.py").write_text(
        "from ._version import get_versions\n"
        "vinfo = get_versions()\n"
        "version: str = vinfo['version']\n"
        "__version__ = vinfo.get('closest-tag', vinfo['version'])\n")
    spec = types.SimpleNamespace(origin=str(fake / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    pipeline._environment.cache_clear()
    try:
        assert pipeline._environment() == {
            "python": platform.python_version(), "numpy": np.__version__}
    finally:
        pipeline._environment.cache_clear()


def test_other_numpy_version_reruns_its_stage(fixture_dir, full_run, tmp_path,
                                              monkeypatch, capsys):
    # another numpy can round differently, and so move dedup's kept set
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    manifest = workdir / "dedup" / "MANIFEST.json"
    recorded = json.loads(manifest.read_text())
    recorded["environment"]["numpy"] = "1.0.0"
    manifest.write_text(json.dumps(recorded))
    assert run_all(monkeypatch, fixture_dir / "config.yaml", workdir) == ["dedup"]
    capsys.readouterr()
    assert manifest.read_bytes() == (
        full_run[1] / "dedup" / "MANIFEST.json").read_bytes()


def cli_imports(argv: list[str]) -> tuple[int, set[str], bool, str]:
    """``cli.main(argv)`` run by a fresh interpreter that imports the package
    from this source tree: its exit code, the ``topicforge`` modules it
    loaded, whether it loaded numpy, and its standard error."""
    src = str(Path(pipeline.__file__).parents[1])
    code = ("import json, sys\nfrom topicforge import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(json.dumps([code, [m for m in sys.modules "
            "if m.partition('.')[0] == 'topicforge'], "
            "'numpy' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    exit_code, modules, numpy = json.loads(done.stdout.splitlines()[-1])
    return exit_code, set(modules), numpy, done.stderr


# what a config check and a rerun that skips every stage but dedup load
CHECK_MODULES = {"topicforge", "topicforge.cli", "topicforge.pipeline",
                 "topicforge.config"}


def test_ingest_stage_imports_only_ingest(fixture_dir, tmp_path):
    # ingest holds every raw-input parser, so it needs no tokenizer or numpy
    code, modules, numpy, stderr = cli_imports(
        ["ingest", "--config", str(fixture_dir / "config.yaml"),
         "--workdir", str(tmp_path / "w")])
    assert code == 0, stderr
    assert (modules, numpy) == (CHECK_MODULES | {"topicforge.ingest"}, False)


def test_cli_and_config_check_import_no_numpy(fixture_dir, tmp_path):
    # experiment is the last section checked: every check has run
    config = variant_config(fixture_dir, tmp_path, **{"experiment.n_days": 10})
    code, modules, numpy, stderr = cli_imports(
        ["all", "--config", str(config), "--workdir", str(tmp_path / "w")])
    assert code == 2
    assert "window length must be a multiple of 4" in stderr
    assert (modules, numpy) == (CHECK_MODULES, False)


def test_threshold_only_rerun_imports_no_numpy(fixture_dir, full_run,
                                               tmp_path):
    config = variant_config(fixture_dir, tmp_path, **{"dedup.threshold": 0.88})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    code, modules, numpy, stderr = cli_imports(
        ["all", "--config", str(config), "--workdir", str(workdir)])
    assert code == 0
    assert (modules, numpy) == (CHECK_MODULES, False)
    assert [s for s in pipeline.STAGES
            if f"{s}: skipped" not in stderr] == ["dedup"]
    assert "dedup: ok " in stderr
    # the matches do not depend on the threshold
    name = Path("cluster", "representatives.jsonl")
    assert (workdir / name).read_bytes() == (full_run[1] / name).read_bytes()


def count_encodes(monkeypatch) -> list[int]:
    """The rows of each ``train.encode_texts`` call from now on."""
    calls = []
    real = train_mod.encode_texts

    def counting(params, cfg, vocab, texts):
        calls.append(len(texts))
        return real(params, cfg, vocab, texts)

    monkeypatch.setattr(train_mod, "encode_texts", counting)
    return calls


@pytest.mark.parametrize("edit", ["matches", "numpy"])
def test_changed_matches_or_numpy_scores_dedup_again(
        fixture_dir, full_run, tmp_path, monkeypatch, capsys, edit):
    config = variant_config(fixture_dir, tmp_path, **{"dedup.threshold": 0.88})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    if edit == "matches":
        matches = workdir / "cluster" / "representatives.jsonl"
        matches.write_text(re.sub(r'"best_similarity": [-0-9.e]+',
                                  '"best_similarity": 0.5',
                                  matches.read_text(), count=1))
    else:
        manifest = workdir / "cluster" / "MANIFEST.json"
        recorded = json.loads(manifest.read_text())
        recorded["environment"]["numpy"] = "1.0.0"
        manifest.write_text(json.dumps(recorded))
    calls = count_encodes(monkeypatch)
    assert run_all(monkeypatch, config, workdir) == ["cluster", "dedup"]
    capsys.readouterr()
    assert calls  # the encoder ran: cluster scored its matches again
    cold = tmp_path / "cold"
    assert run_all(monkeypatch, config, cold) == list(pipeline.STAGES)
    capsys.readouterr()
    assert tree(workdir) == tree(cold)


def test_finetune_only_change_reruns_cluster_and_dedup(
        fixture_dir, full_run, tmp_path, monkeypatch, capsys):
    # cluster scores the best matches with the fine-tuned checkpoint
    config = variant_config(fixture_dir, tmp_path,
                            **{"finetune.learning_rate": 0.002})
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    assert run_all(monkeypatch, config, workdir) == [
        "finetune", "cluster", "dedup"]
    cold = tmp_path / "cold"
    assert run_all(monkeypatch, config, cold) == list(pipeline.STAGES)
    capsys.readouterr()
    assert tree(workdir) == tree(cold)


def test_learning_rate_limit_is_the_largest_float32(fixture_dir, tmp_path):
    assert config_mod.FLOAT32_MAX == float(np.finfo(train_mod.TRAIN_DTYPE).max)
    config = variant_config(fixture_dir, tmp_path,
                            **{"train.learning_rate": 1e39})
    with pytest.raises(ConfigError) as caught:
        load_context(config, tmp_path / "w")
    assert str(caught.value) == (
        "bad train config: learning_rate must be at most 3.4028235e+38, the "
        "largest float32, got 1e+39")


@pytest.mark.parametrize("change", ["seed", "code"])
def test_new_seed_or_code_reruns_every_stage(fixture_dir, full_run, tmp_path,
                                             monkeypatch, capsys, change):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    args = []
    if change == "seed":
        args = ["--seed", str(full_run[0].seed + 1)]
    else:
        monkeypatch.setattr(pipeline, "_code_digest", lambda: "0" * 64)
    assert (run_all(monkeypatch, fixture_dir / "config.yaml", workdir, *args)
            == list(pipeline.STAGES))
    capsys.readouterr()
    for stage in pipeline.STAGES:
        report = json.loads((workdir / stage / "report.json").read_text())
        assert sorted(report) == REPORT_KEYS


def test_single_stage_commands_never_skip(fixture_dir, full_run, tmp_path,
                                          monkeypatch, capsys):
    workdir = tmp_path / "w"
    shutil.copytree(full_run[1], workdir)
    ran = record_runs(monkeypatch)
    for stage in pipeline.STAGES:
        assert cli.main([stage, "--config", str(fixture_dir / "config.yaml"),
                         "--workdir", str(workdir)]) == 0
        report = json.loads((workdir / stage / "report.json").read_text())
        assert sorted(report) == REPORT_KEYS
    assert ran == list(pipeline.STAGES)
    assert "Period" in capsys.readouterr().out  # the experiment's table
