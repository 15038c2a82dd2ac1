"""Staged batch pipeline with hash-manifested artifacts.

Each stage reads the shared YAML config plus earlier stages' artifacts from
``workdir/<stage>/``, writes its own outputs there, and records a
``MANIFEST.json`` (config hash, input hashes, output hashes — nothing
time-dependent, so reruns with unchanged inputs are byte-identical) and a
``report.json`` (counts, duration, warnings; the duration makes this file
the one legitimately non-reproducible artifact).

Every random choice derives from the single master seed via fixed per-stage
offsets; `--seed` swaps the master without touching the config file.

A stage reads every file through its context (``ctx.artifact`` for an
earlier stage's output, ``ctx.path`` for a raw input) and every config
section through ``ctx.section``, which record each read as it happens. So
the manifest lists exactly the files the stage read, and its ``config_hash``
covers only the sections it read (``config_sections``). A missing file fails
with its name rather than a confusing downstream error. The manifest's
``code`` is one digest of the package's sources.

``skip_report`` reads a manifest back as a verifying trace: when nothing the
stage read or wrote has changed, ``topicforge all`` skips the stage.

This module writes every stage artifact, through ``_write_csv``,
``_write_json`` and ``_write_jsonl``, and reads every row artifact back
through ``_read_rows``, so the file formats are defined here. A row that
does not fit stops the reading stage with the artifact's name and line.
The exceptions are the checkpoint and vocabulary codecs
(``model.save_params``/``load_params``, ``Vocabulary.save``/``load``): the
benchmark's quality scorer reads through them too.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from . import cluster as cluster_mod
from . import dedup as dedup_mod
from . import experiment as exp_mod
from . import ingest as ingest_mod
from . import metric as metric_mod
from . import model as model_mod
from . import topicpage as topic_mod
from . import train as train_mod
from .tokenizer import Vocabulary, build_vocabulary, load_facet_lexicon

logger = logging.getLogger(__name__)

STAGES = ("ingest", "metric", "train", "finetune", "cluster", "dedup",
          "select", "emit", "experiment")

# master-seed offsets, one per consumer of randomness
SEED_METRIC = 1
SEED_TRAIN = 2
SEED_FINETUNE = 3
SEED_SPLIT = 5
SEED_TRAFFIC = 6


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


class PipelineError(Exception):
    """Fatal runtime failure such as a missing artifact; exit code 1."""


@dataclass
class StageReport:
    stage: str
    counts: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0
    skipped: bool = False


@dataclass
class PipelineContext:
    config: dict
    config_dir: Path
    workdir: Path
    seed: int
    # files and config sections the running stage has read, files by
    # manifest key; run_stage clears them
    inputs: dict[str, Path] = field(default_factory=dict)
    raw_inputs: dict[str, Path] = field(default_factory=dict)
    sections: set[str] = field(default_factory=set)

    def path(self, key: str) -> Path:
        """The raw input file at config ``paths.<key>``, recorded as read.

        Only the file's bytes are recorded, not ``paths`` itself, so a path
        that moves to an identical file changes no manifest."""
        paths = _section(self.config, "paths")
        if key not in paths:
            raise ConfigError(f"config paths.{key} is required")
        if not isinstance(paths[key], str):
            raise ConfigError(f"config paths.{key} must be a string")
        p = Path(paths[key])
        p = p if p.is_absolute() else self.config_dir / p
        if not p.is_file():
            raise ConfigError(f"paths.{key} not found: {p}")
        self.raw_inputs[key] = p
        return p

    def section(self, name: str) -> dict:
        """Config section ``name``, recorded as read."""
        value = _section(self.config, name)
        self.sections.add(name)
        return value

    def artifact(self, stage: str, name: str) -> Path:
        """An earlier stage's output file, recorded as read."""
        p = self.workdir / stage / name
        if not p.is_file():
            raise PipelineError(f"missing artifact: {name}")
        self.inputs[f"{stage}/{name}"] = p
        return p


def load_context(config_path: str | Path, workdir: str | Path | None = None,
                 seed: int | None = None) -> PipelineContext:
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a mapping")
    config_dir = config_path.parent.resolve()
    paths = _section(config, "paths")
    if workdir is None:
        wd = paths.get("workdir", "work")
        if not isinstance(wd, str):
            raise ConfigError("config paths.workdir must be a string")
        workdir = Path(wd) if Path(wd).is_absolute() else config_dir / wd
    master = seed if seed is not None else config.get("seed", 0)
    if isinstance(master, bool) or not isinstance(master, int):
        raise ConfigError(f"config seed must be an integer, got {master!r}")
    if master < 0:  # each stage seeds numpy with master + its offset
        raise ConfigError(f"seed must be >= 0, got {master}")
    return PipelineContext(config, config_dir, Path(workdir), master)


def _section(config: dict, name: str) -> dict:
    value = config.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _number(section: dict, key: str, default, kind: type = float):
    """``section[key]`` as ``kind``, int or float.

    YAML booleans are rejected rather than read as 0 or 1, and so, for an
    integer, is a float with a fractional part rather than truncated. The
    error is a ``ValueError`` naming the key."""
    value = section.get(key, default)
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return kind(value)


@cache
def _code_digest() -> str:
    """One sha256 over the package's Python sources, by file name."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(_sha256(path).encode("ascii"))
    return h.hexdigest()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: dict, sections) -> str:
    """sha256 of the named sections of ``config``, canonical JSON."""
    canon = json.dumps({name: config.get(name, {}) for name in sections},
                       sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_json(path: Path, data, sort_keys: bool = True) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=sort_keys) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_curve(path: Path, history: list[dict]) -> None:
    """A training history: epoch,mean_loss, plus eval_loss and accuracy
    when any epoch recorded them."""
    header = ["epoch", "mean_loss"] + [
        key for key in ("eval_loss", "accuracy")
        if any(key in row for row in history)]
    _write_csv(path, header, ([row.get(k) for k in header] for row in history))


def _write_jsonl(path: Path, rows) -> None:
    # the encoder json.dumps(row, sort_keys=True) would build for every row
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            if not isinstance(row, dict):  # vars() would leave a dict on it
                row = {f.name: getattr(row, f.name) for f in fields(row)}
            fh.write(encode(row) + "\n")


def _read_rows(ctx: PipelineContext, stage: str, name: str, make,
               header=()) -> list:
    """``make(row)`` for each row of ``stage``'s artifact ``name``: each
    non-blank JSONL line decoded, or each non-empty CSV row after ``header``.
    A row that does not fit stops the stage with the file and line."""
    records, line_no = [], 1
    with open(ctx.artifact(stage, name), newline="", encoding="utf-8") as fh:
        try:
            if header:
                reader = csv.reader(fh)
                if next(reader, None) != list(header):
                    raise ValueError(f"not the header {','.join(header)}")
                for row in filter(None, reader):
                    line_no = reader.line_num
                    records.append(make(row))
            else:
                for line_no, line in enumerate(fh, start=1):
                    if line.strip():
                        records.append(make(json.loads(line)))
        except (ValueError, KeyError, TypeError, csv.Error) as exc:
            raise PipelineError(f"{stage}/{name} line {line_no}: malformed "
                                f"row ({type(exc).__name__}: {exc})") from None
    return records


def _checked(row: dict, *numbers: str) -> dict:
    """``row``, once it holds a number other than a bool at each key of
    ``numbers`` and a string at every other key; any other value raises the
    ``TypeError`` that makes ``_read_rows`` name the file and line."""
    for key in (*numbers, *row):
        value = row[key]
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if key in numbers else str):
            kind = "a number" if key in numbers else "a string"
            raise TypeError(f"{key} must be {kind}, got {value!r}")
    return row


# ---------------------------------------------------------------------------
# stage bodies; each returns (counts, warnings, output file names)
# ---------------------------------------------------------------------------

def _stage_ingest(ctx: PipelineContext, out: Path):
    records, rep = ingest_mod.parse_click_log(ctx.path("click_log"))
    pages, prep = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    lexicon = load_facet_lexicon(ctx.path("facet_lexicon"))
    blocklist = ingest_mod.load_blocklist(ctx.path("blocklist"))
    candidates = ingest_mod.candidates_from_click_log(records)
    kept, removed = ingest_mod.filter_negative_queries(candidates, blocklist)

    _write_csv(out / "click_records.csv", ingest_mod.CLICK_LOG_FIELDS,
               (r.to_csv_row() for r in records))
    _write_jsonl(out / "candidates.jsonl", kept)
    # normalized copies in the raw formats; parsing them again is the
    # identity, so later stages take them as they are (_load_clicks,
    # _load_pages)
    _write_jsonl(out / "page_catalog.jsonl", (p.to_dict() for p in pages))
    _write_jsonl(out / "facet_lexicon.jsonl",
                 ({"facet_name": name, "values": sorted(values)}
                  for name, values in sorted(lexicon.items())))

    warnings = [f"click log line {ln}: {msg}" for ln, msg in rep.errors]
    warnings += [f"page catalog line {ln}: {msg}" for ln, msg in prep.errors]
    counts = {"click_rows": rep.rows_ok, "click_row_errors": rep.error_count,
              "pages": len(pages), "candidates": len(kept),
              "blocked": len(removed)}
    return counts, warnings, ["click_records.csv", "candidates.jsonl",
                              "page_catalog.jsonl", "facet_lexicon.jsonl"]


def _load_clicks(ctx: PipelineContext) -> list[ingest_mod.ClickRecord]:
    """Ingest's normalized click records."""
    return _read_rows(ctx, "ingest", "click_records.csv",
                      ingest_mod.ClickRecord.from_csv_row,
                      ingest_mod.CLICK_LOG_FIELDS)


def _stage_metric(ctx: PipelineContext, out: Path):
    records = _load_clicks(ctx)
    # shelf clicks are navigational ("browsed the category", not "wanted the
    # same thing"), so they never count as co-clicks; finetune labels by them
    stats = metric_mod.aggregate_clicks(
        [r for r in records if r.page_type != "shelf"])
    try:
        samples = metric_mod.build_training_set(
            stats,
            negative_ratio=ctx.section("metric").get("negative_ratio", "auto"),
            seed=ctx.seed + SEED_METRIC)
    except ValueError as exc:  # the seed is >= 0: only the ratio can be bad
        raise ConfigError(f"metric.{exc}") from exc
    _write_jsonl(out / "training_set.jsonl", samples)
    n_pos = sum(s.interactive > 0 for s in samples)
    counts = {"queries": len(stats.totals), "positives": n_pos,
              "negatives": len(samples) - n_pos}
    return counts, [], ["training_set.jsonl"]


def _model_config(ctx: PipelineContext, vocab_size: int,
                  num_classes: int = 0) -> model_mod.ModelConfig:
    m = ctx.section("model")
    try:
        return model_mod.ModelConfig(
            vocab_size=vocab_size,
            seq_len=_number(m, "seq_len", 16, int),
            model_dim=_number(m, "model_dim", 32, int),
            num_layers=_number(m, "num_layers", 2, int),
            num_heads=_number(m, "num_heads", 2, int),
            ffn_dim=_number(m, "ffn_dim", 64, int),
            output_dim=_number(m, "output_dim", 32, int),
            num_classes=num_classes,
            negative_loss=str(m.get("negative_loss", "literal")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _train_config(ctx: PipelineContext, section: str, seed: int) -> train_mod.TrainConfig:
    t = ctx.section(section)
    try:
        learning_rate = _number(t, "learning_rate", 1e-3)
        # both trainings multiply the rate into TRAIN_DTYPE arrays, where a
        # larger one is inf before the first step
        dtype = np.dtype(train_mod.TRAIN_DTYPE)
        limit = float(np.finfo(dtype).max)
        if learning_rate > limit:
            raise ValueError(f"learning_rate must be at most {limit:.8g}, the "
                             f"largest {dtype}, got {learning_rate!r}")
        return train_mod.TrainConfig(
            learning_rate=learning_rate,
            batch_size=_number(t, "batch_size", 32, int),
            epochs=_number(t, "epochs", 10, int),
            seed=seed,
            # fine-tuning splits off no eval set
            eval_fraction=(_number(t, "eval_fraction", 0.1)
                           if section == "train" else 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} config: {exc}") from exc


def _load_pages(ctx: PipelineContext) -> list[ingest_mod.PageRecord]:
    """Ingest's normalized pages."""
    return _read_rows(ctx, "ingest", "page_catalog.jsonl",
                      ingest_mod.PageRecord.from_dict)


def _load_checkpoint(ctx: PipelineContext, stage: str, name: str
                     ) -> tuple[dict, model_mod.ModelConfig, Vocabulary]:
    """A checkpoint with its sidecar, and the vocabulary it was trained on.
    A file that does not decode stops the stage with its name."""
    path = ctx.artifact(stage, name)
    ctx.artifact(stage, name + ".json")
    key = f"{stage}/{name}"
    try:
        params, cfg = model_mod.load_params(path)
        key = "train/vocab.jsonl"
        vocab = Vocabulary.load(ctx.artifact("train", "vocab.jsonl"))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise PipelineError(f"{key}: malformed "
                            f"({type(exc).__name__}: {exc})") from None
    return params, cfg, vocab


def _throughput(history: list[dict], seconds: float) -> dict:
    """A training's Adam ``steps`` and the ``samples_per_s`` it trained,
    over the wall time of the whole training call; the time makes these
    counts vary from run to run, like the report's duration."""
    samples = sum(row["samples"] for row in history)
    return {"steps": sum(row["steps"] for row in history),
            "samples_per_s": samples / seconds if seconds > 0 else 0.0}


def _stage_train(ctx: PipelineContext, out: Path):
    samples = _read_rows(ctx, "metric", "training_set.jsonl", lambda r: (
        metric_mod.QueryPairSample(**_checked(r, "interactive"))))
    pages = _load_pages(ctx)
    lexicon = load_facet_lexicon(ctx.artifact("ingest", "facet_lexicon.jsonl"))
    texts = [s.query_a for s in samples] + [s.query_b for s in samples]
    texts += [p.title for p in pages] + [p.product_type for p in pages]
    vocab = build_vocabulary(texts, facet_lexicon=lexicon)
    cfg = _model_config(ctx, vocab.size)
    tcfg = _train_config(ctx, "train", ctx.seed + SEED_TRAIN)
    started = time.perf_counter()
    try:
        params, history = train_mod.train_intention_model(
            samples, vocab, cfg, tcfg)
    except ValueError as exc:  # a training set it cannot learn from
        raise PipelineError(f"train: {exc}") from exc
    throughput = _throughput(history, time.perf_counter() - started)
    vocab.save(out / "vocab.jsonl")
    model_mod.save_params(params, cfg, out / "intention.ckpt")
    _write_curve(out / "curve.csv", history)
    counts = {"samples": len(samples), "vocab_size": vocab.size,
              "epochs": tcfg.epochs, **throughput,
              "final_loss": history[-1]["mean_loss"] if history else None,
              "final_eval_loss": history[-1].get("eval_loss") if history else None}
    return counts, [], ["vocab.jsonl", "intention.ckpt", "intention.ckpt.json",
                        "curve.csv"]


def _derive_labels(records, pages) -> tuple[list[train_mod.LabeledQuery], list[str]]:
    """Label each query by the shelf page it clicks most (class index)."""
    shelf_ids = sorted(p.page_id for p in pages if p.page_type == "shelf")
    index_of = {pid: i for i, pid in enumerate(shelf_ids)}
    per_query: dict[str, dict[str, int]] = {}
    for r in records:
        if r.page_type == "shelf" and r.page_id in index_of and r.clicks > 0:
            per_query.setdefault(r.query, {})
            per_query[r.query][r.page_id] = (
                per_query[r.query].get(r.page_id, 0) + r.clicks)
    labeled = []
    for query in sorted(per_query):
        best = min(per_query[query].items(), key=lambda kv: (-kv[1], kv[0]))[0]
        labeled.append(train_mod.LabeledQuery(query, index_of[best]))
    return labeled, shelf_ids


def _stage_finetune(ctx: PipelineContext, out: Path):
    pretrained, cfg, vocab = _load_checkpoint(ctx, "train", "intention.ckpt")
    labeled, classes = _derive_labels(_load_clicks(ctx), _load_pages(ctx))
    if len(classes) < 2:
        raise PipelineError("need at least two shelf classes to fine-tune")
    cfg = replace(cfg, num_classes=len(classes))
    tcfg = _train_config(ctx, "finetune", ctx.seed + SEED_FINETUNE)
    started = time.perf_counter()
    try:
        params, history = train_mod.finetune_classifier(
            pretrained, labeled, vocab, cfg, tcfg)
    except ValueError as exc:  # labels it cannot learn from
        raise PipelineError(f"finetune: {exc}") from exc
    throughput = _throughput(history, time.perf_counter() - started)
    model_mod.save_params(params, cfg, out / "finetuned.ckpt")
    _write_json(out / "classes.json", classes)
    _write_curve(out / "finetune_curve.csv", history)
    counts = {"labeled_queries": len(labeled), "classes": len(classes),
              **throughput,
              "final_accuracy": history[-1]["accuracy"] if history else None}
    return counts, [], ["finetuned.ckpt", "finetuned.ckpt.json",
                        "classes.json", "finetune_curve.csv"]


def _stage_cluster(ctx: PipelineContext, out: Path):
    params, cfg, vocab = _load_checkpoint(ctx, "train", "intention.ckpt")
    clicks = dict(_read_rows(ctx, "ingest", "candidates.jsonl", lambda r: (
        _checked(r, "clicks_total")["query"], r["clicks_total"])))
    encode = partial(train_mod.encode_texts, params, cfg, vocab)
    ptypes = {p.product_type for p in _load_pages(ctx) if p.page_type == "shelf"}
    if not ptypes:
        raise PipelineError("page catalog has no shelf pages to define product types")
    index = cluster_mod.ProductTypeIndex.build(ptypes, encode)
    try:
        result = cluster_mod.cluster_topics(
            clicks, encode, index,
            _number(ctx.section("cluster"), "threshold", 0.15))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad cluster config: {exc}") from exc
    _write_csv(out / "clusters.csv",
               ["query", "product_type", "cluster_id", "is_representative"],
               ([q, ptype, cid, "1" if result.representatives[cid] == q else "0"]
                for q, (ptype, cid) in sorted(result.assignments.items())))
    reps = [{"query": q, "cluster_id": cid, "product_type": ptype,
             "clicks_total": clicks[q]}
            for cid, q in sorted(result.representatives.items())
            for ptype in [result.assignments[q][0]]]
    _write_jsonl(out / "representatives.jsonl", reps)
    _write_jsonl(out / "merge_log.jsonl",
                 ({"cluster_a": a, "cluster_b": b, "distance": d}
                  for a, b, d in result.merge_log))
    counts = {"queries": len(result.assignments),
              "clusters": len(result.representatives),
              "distance_evaluations": result.distance_evaluations}
    return counts, [], ["clusters.csv", "representatives.jsonl", "merge_log.jsonl"]


def _stage_dedup(ctx: PipelineContext, out: Path):
    params, cfg, vocab = _load_checkpoint(ctx, "finetune", "finetuned.ckpt")
    pages = _load_pages(ctx)
    # each row with its query; kept rows pass through as they are
    reps = _read_rows(ctx, "cluster", "representatives.jsonl",
                      lambda r: (_checked(r, "clicks_total")["query"], r))
    dcfg = ctx.section("dedup")
    # the fine-tuned checkpoint: rows are the task-specific embedding
    encode = partial(train_mod.encode_texts, params, cfg, vocab)
    shelf_index = dedup_mod.build_shelf_index(pages, encode)
    facet_index = dedup_mod.FacetIndex(pages)
    try:
        deduper = dedup_mod.Deduper(
            shelf_index, facet_index, encode, vocab.facet_matcher,
            threshold=_number(dcfg, "threshold", dedup_mod.DEFAULT_THRESHOLD))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad dedup config: {exc}") from exc
    decisions, stats = dedup_mod.dedup_all([q for q, _ in reps], deduper)
    _write_csv(out / "decisions.csv",
               ["query", "verdict", "best_match", "best_similarity", "path"],
               ([d.query, d.verdict, d.best_match, f"{d.best_similarity:.6f}",
                 d.path] for d in decisions))
    verdicts = {d.query: d.verdict for d in decisions}
    _write_jsonl(out / "kept.jsonl",
                 (r for q, r in reps if verdicts[q] == "kept"))
    return stats, [], ["decisions.csv", "kept.jsonl"]


def _stage_select(ctx: PipelineContext, out: Path):
    def kept_topic(r: dict) -> topic_mod.SelectedTopic:
        r = _checked(r, "clicks_total")
        return topic_mod.SelectedTopic(r["query"], r["clicks_total"],
                                       r["cluster_id"], r["product_type"])

    kept = _read_rows(ctx, "dedup", "kept.jsonl", kept_topic)
    try:
        quota = _number(ctx.section("select"), "quota", 10, int)
        chosen = topic_mod.select_topics([(t.topic, t.clicks) for t in kept],
                                         quota)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad select config: {exc}") from exc
    by_topic = {t.topic: t for t in kept}
    topics = [by_topic[q] for q in chosen]
    _write_jsonl(out / "topics.jsonl", topics)
    counts = {"quota": quota, "selected": len(topics)}
    return counts, [], ["topics.jsonl"]


def _stage_emit(ctx: PipelineContext, out: Path):
    topics = _read_rows(ctx, "select", "topics.jsonl", lambda r: (
        topic_mod.SelectedTopic(**_checked(r, "clicks"))))
    # with no topic there is nothing to retrieve, so the item catalog is
    # neither parsed nor recorded as read
    retriever = topic_mod.TokenOverlapRetriever([])
    if topics:
        retriever = topic_mod.TokenOverlapRetriever.from_jsonl(
            ctx.path("item_catalog"))
    try:
        k = _number(ctx.section("emit"), "items_per_page",
                    topic_mod.DEFAULT_ITEMS_PER_PAGE, int)
        specs, flagged = topic_mod.emit_pages(topics, retriever, k)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad emit config: {exc}") from exc
    _write_jsonl(out / "pages.jsonl", specs)
    _write_jsonl(out / "flagged.jsonl",
                 ({"topic": t, "reason": r} for t, r in flagged))
    warnings = [f"{t}: {r}" for t, r in flagged]
    counts = {"emitted": len(specs), "flagged": len(flagged)}
    return counts, warnings, ["pages.jsonl", "flagged.jsonl"]


def _stage_experiment(ctx: PipelineContext, out: Path):
    ecfg = ctx.section("experiment")
    try:
        n_days = _number(ecfg, "n_days", 120, int)
        window = exp_mod.date_window(
            str(ecfg.get("start_date", "2025-01-01")), n_days)
        plan, clicks, report = exp_mod.run_experiment(
            window,
            base_mean=_number(ecfg, "base_mean", 1000.0),
            noise_sd=_number(ecfg, "noise_sd", 30.0),
            lift_fraction=_number(ecfg, "lift_fraction", 0.0),
            split_seed=ctx.seed + SEED_SPLIT,
            traffic_seed=ctx.seed + SEED_TRAFFIC)
    except (TypeError, ValueError) as exc:  # ConfigurationError included
        raise ConfigError(f"bad experiment config: {exc}") from exc
    # the plan's keys stay in field order
    _write_json(out / "plan.json", asdict(plan), sort_keys=False)
    _write_json(out / "daily_clicks.json", clicks)
    _write_json(out / "results.json", asdict(report))
    print(exp_mod.format_report_table(report))
    aa, ab = report.period("AA"), report.period("AB")
    counts = {"n_days": n_days, "aa_p": aa.p, "ab_p": ab.p,
              "aa_relative_pct": aa.relative_pct,
              "ab_relative_pct": ab.relative_pct}
    return counts, [], ["plan.json", "daily_clicks.json", "results.json"]


_STAGE_FNS: dict[str, Callable] = {
    "ingest": _stage_ingest,
    "metric": _stage_metric,
    "train": _stage_train,
    "finetune": _stage_finetune,
    "cluster": _stage_cluster,
    "dedup": _stage_dedup,
    "select": _stage_select,
    "emit": _stage_emit,
    "experiment": _stage_experiment,
}


def run_stage(ctx: PipelineContext, stage: str) -> StageReport:
    """Run one stage: body, then a manifest of what it read and wrote."""
    if stage not in _STAGE_FNS:
        raise ConfigError(f"unknown stage {stage!r}")
    ctx.inputs.clear()
    ctx.raw_inputs.clear()
    ctx.sections.clear()
    out = ctx.workdir / stage
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    try:
        counts, warnings, outputs = _STAGE_FNS[stage](ctx, out)
    except train_mod.TrainingDiverged as exc:
        raise PipelineError(f"{stage}: {exc}") from exc
    duration = time.monotonic() - started

    sections = sorted(ctx.sections)
    manifest = {
        "stage": stage,
        "code": _code_digest(),
        "config_hash": _config_hash(ctx.config, sections),
        "config_sections": sections,
        "seed": ctx.seed,
        "inputs": {key: _sha256(p) for key, p in ctx.inputs.items()},
        "raw_inputs": {key: _sha256(p) for key, p in ctx.raw_inputs.items()},
        "outputs": {name: _sha256(out / name) for name in outputs},
    }
    _write_json(out / "MANIFEST.json", manifest)
    report = StageReport(stage, counts, warnings, duration)
    _write_json(out / "report.json", asdict(report))
    for w in warnings:
        logger.warning("%s: %s", stage, w)
    logger.info("stage %s done in %.2fs: %s", stage, duration, counts)
    return report


def skip_report(ctx: PipelineContext, stage: str) -> StageReport | None:
    """The previous report of ``stage``, rewritten as skipped, when its
    manifest still holds: same seed, code digest and hash of the config
    sections it read, and every listed input, raw input (at the current
    ``paths.<key>``) and output rehashes to its recorded digest. Otherwise
    None, and the stage must run. The manifest is left as it is."""
    started = time.monotonic()
    out = ctx.workdir / stage
    try:
        manifest = json.loads((out / "MANIFEST.json").read_text(encoding="utf-8"))
        previous = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if (manifest["seed"] != ctx.seed or manifest["code"] != _code_digest()
                or manifest["config_hash"] != _config_hash(
                    ctx.config, manifest["config_sections"])):
            return None
        files = [(ctx.workdir / key, digest)
                 for key, digest in manifest["inputs"].items()]
        files += [(ctx.path(key), digest)
                  for key, digest in manifest["raw_inputs"].items()]
        files += [(out / name, digest)
                  for name, digest in manifest["outputs"].items()]
        if any(_sha256(p) != digest for p, digest in files):
            return None
        report = StageReport(stage, previous["counts"], previous["warnings"],
                             time.monotonic() - started, skipped=True)
    # a missing or malformed manifest or report, or a listed file that is
    # gone: the stage runs, and reports any real problem itself
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ConfigError):
        return None
    _write_json(out / "report.json", asdict(report))
    logger.info("stage %s skipped: nothing it read or wrote changed", stage)
    return report
