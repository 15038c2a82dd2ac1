"""Staged batch pipeline with resumable, hash-manifested artifacts.

Each stage reads the shared YAML config plus earlier stages' artifacts from
``workdir/<stage>/``, writes its own outputs there, and records a
``MANIFEST.json`` (config hash, input hashes, output hashes — nothing
time-dependent, so reruns with unchanged inputs are byte-identical) and a
``report.json`` (counts, duration, warnings; the duration makes this file
the one legitimately non-reproducible artifact).

Every random choice derives from the single master seed via fixed per-stage
offsets; `--seed` swaps the master without touching the config file.

Stage dependencies are declared up front; a missing artifact fails fast
with its name rather than a confusing downstream error.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

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

    def to_dict(self) -> dict:
        return {"stage": self.stage, "counts": self.counts,
                "warnings": self.warnings,
                "duration_seconds": self.duration_seconds}


@dataclass
class PipelineContext:
    config: dict
    config_dir: Path
    workdir: Path
    seed: int

    def path(self, key: str) -> Path:
        paths = self.config.get("paths", {})
        if key not in paths:
            raise ConfigError(f"config paths.{key} is required")
        p = Path(paths[key])
        return p if p.is_absolute() else self.config_dir / p

    def section(self, name: str) -> dict:
        value = self.config.get(name, {})
        if not isinstance(value, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        return value

    def stage_dir(self, stage: str) -> Path:
        return self.workdir / stage

    def artifact(self, stage: str, name: str) -> Path:
        return self.stage_dir(stage) / name


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
    if workdir is None:
        wd = config.get("paths", {}).get("workdir", "work")
        workdir = Path(wd) if Path(wd).is_absolute() else config_dir / wd
    master = seed if seed is not None else int(config.get("seed", 0))
    return PipelineContext(config, config_dir, Path(workdir), master)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# dependency artifacts per stage: (producer stage, filename)
DEPENDENCIES: dict[str, list[tuple[str, str]]] = {
    "ingest": [],
    "metric": [("ingest", "click_records.csv")],
    "train": [("metric", "training_set.jsonl")],
    "finetune": [("train", "intention.ckpt"), ("train", "vocab.jsonl"),
                 ("ingest", "click_records.csv")],
    "cluster": [("train", "intention.ckpt"), ("train", "vocab.jsonl"),
                ("ingest", "candidates.jsonl")],
    "dedup": [("finetune", "finetuned.ckpt"), ("train", "vocab.jsonl"),
              ("cluster", "representatives.jsonl")],
    "select": [("dedup", "kept.jsonl")],
    "emit": [("select", "topics.jsonl")],
    "experiment": [],
}


def stage_dependencies(ctx: PipelineContext, stage: str) -> list[tuple[str, str]]:
    if stage == "select":
        # the baseline arm selects straight from raw candidates
        if ctx.section("select").get("strategy", "pipeline") == "top-clicks":
            return [("ingest", "candidates.jsonl")]
    return DEPENDENCIES[stage]


def check_dependencies(ctx: PipelineContext, stage: str) -> list[Path]:
    found = []
    for dep_stage, name in stage_dependencies(ctx, stage):
        path = ctx.artifact(dep_stage, name)
        if not path.is_file():
            raise PipelineError(f"missing artifact: {name}")
        found.append(path)
    return found


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


# ---------------------------------------------------------------------------
# stage bodies; each returns (counts, warnings, output file names)
# ---------------------------------------------------------------------------

def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _stage_ingest(ctx: PipelineContext, out: Path):
    records, rep = ingest_mod.parse_click_log(
        _require_file(ctx.path("click_log"), "click log"))
    pages, prep = ingest_mod.parse_page_catalog(
        _require_file(ctx.path("page_catalog"), "page catalog"))
    blocklist = ingest_mod.load_blocklist(
        _require_file(ctx.path("blocklist"), "blocklist"))
    candidates = ingest_mod.candidates_from_click_log(records)
    kept, removed = ingest_mod.filter_negative_queries(candidates, blocklist)

    import csv as _csv
    with open(out / "click_records.csv", "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["query", "page_id", "page_type", "clicks", "impressions"])
        for r in records:
            writer.writerow(r.to_csv_row())
    _write_jsonl(out / "candidates.jsonl", (c.to_dict() for c in kept))

    warnings = [f"click log line {ln}: {msg}" for ln, msg in rep.errors]
    warnings += [f"page catalog line {ln}: {msg}" for ln, msg in prep.errors]
    counts = {"click_rows": rep.rows_ok, "click_row_errors": rep.error_count,
              "pages": len(pages), "candidates": len(kept),
              "blocked": len(removed)}
    return counts, warnings, ["click_records.csv", "candidates.jsonl"]


def _stage_metric(ctx: PipelineContext, out: Path):
    records, _ = ingest_mod.parse_click_log(ctx.artifact("ingest", "click_records.csv"))
    mcfg = ctx.section("metric")
    # co-click aggregation can skip navigational page types (shelf clicks say
    # "browsed the category", not "wanted the same thing"); the classifier
    # stage still reads them from the raw click records
    excluded = {str(t) for t in mcfg.get("exclude_page_types", [])}
    unknown = excluded - set(ingest_mod.PAGE_TYPES)
    if unknown:
        raise ConfigError(
            f"metric.exclude_page_types has unknown page types: {sorted(unknown)}")
    if excluded:
        records = [r for r in records if r.page_type not in excluded]
    stats = metric_mod.aggregate_clicks(records)
    samples = metric_mod.build_training_set(
        stats,
        negative_ratio=mcfg.get("negative_ratio", "auto"),
        seed=ctx.seed + SEED_METRIC,
        min_interactive=float(mcfg.get("min_interactive", 0.0)))
    metric_mod.training_set_to_jsonl(samples, out / "training_set.jsonl")
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
            seq_len=int(m.get("seq_len", 16)),
            model_dim=int(m.get("model_dim", 32)),
            num_layers=int(m.get("num_layers", 2)),
            num_heads=int(m.get("num_heads", 2)),
            ffn_dim=int(m.get("ffn_dim", 64)),
            output_dim=int(m.get("output_dim", 32)),
            num_classes=num_classes,
            negative_loss=str(m.get("negative_loss", "literal")))
    except ValueError as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _train_config(ctx: PipelineContext, section: str, seed: int) -> train_mod.TrainConfig:
    t = ctx.section(section)
    try:
        return train_mod.TrainConfig(
            optimizer=str(t.get("optimizer", "adam")),
            learning_rate=float(t.get("learning_rate", 1e-3)),
            batch_size=int(t.get("batch_size", 32)),
            epochs=int(t.get("epochs", 10)),
            seed=seed,
            weight_decay=float(t.get("weight_decay", 0.0)),
            eval_fraction=float(t.get("eval_fraction", 0.1)))
    except ValueError as exc:
        raise ConfigError(f"bad {section} config: {exc}") from exc


def _load_lexicon(ctx: PipelineContext):
    return load_facet_lexicon(_require_file(ctx.path("facet_lexicon"),
                                            "facet lexicon"))


def _stage_train(ctx: PipelineContext, out: Path):
    samples = metric_mod.training_set_from_jsonl(
        ctx.artifact("metric", "training_set.jsonl"))
    lexicon = _load_lexicon(ctx)
    pages, _ = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    texts = [s.query_a for s in samples] + [s.query_b for s in samples]
    texts += [ingest_mod.normalize_query(p.title) for p in pages]
    texts += [ingest_mod.normalize_query(p.product_type) for p in pages]
    vocab = build_vocabulary(texts, facet_lexicon=lexicon)
    cfg = _model_config(ctx, vocab.size)
    tcfg = _train_config(ctx, "train", ctx.seed + SEED_TRAIN)
    params, history = train_mod.train_intention_model(
        samples, vocab, cfg, tcfg, facet_lexicon=lexicon)
    vocab.save(out / "vocab.jsonl")
    model_mod.save_params(params, cfg, out / "intention.ckpt")
    train_mod.write_training_curve(history, out / "curve.csv")
    counts = {"samples": len(samples), "vocab_size": vocab.size,
              "epochs": tcfg.epochs,
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
    pretrained, cfg = model_mod.load_params(ctx.artifact("train", "intention.ckpt"))
    vocab = Vocabulary.load(ctx.artifact("train", "vocab.jsonl"))
    records, _ = ingest_mod.parse_click_log(ctx.artifact("ingest", "click_records.csv"))
    pages, _ = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    lexicon = _load_lexicon(ctx)
    labeled, classes = _derive_labels(records, pages)
    if len(classes) < 2:
        raise PipelineError("need at least two shelf classes to fine-tune")
    fcfg_section = ctx.section("finetune")
    cfg = model_mod.ModelConfig(**{**cfg.to_dict(), "num_classes": len(classes)})
    tcfg = _train_config(ctx, "finetune", ctx.seed + SEED_FINETUNE)
    params, history = train_mod.finetune_classifier(
        pretrained, labeled, vocab, cfg, tcfg, facet_lexicon=lexicon,
        freeze_encoder=bool(fcfg_section.get("freeze_encoder", False)))
    model_mod.save_params(params, cfg, out / "finetuned.ckpt")
    (out / "classes.json").write_text(
        json.dumps(classes, indent=2) + "\n", encoding="utf-8")
    train_mod.write_training_curve(history, out / "finetune_curve.csv")
    counts = {"labeled_queries": len(labeled), "classes": len(classes),
              "final_accuracy": history[-1]["accuracy"] if history else None}
    return counts, [], ["finetuned.ckpt", "finetuned.ckpt.json",
                        "classes.json", "finetune_curve.csv"]


def _stage_cluster(ctx: PipelineContext, out: Path):
    params, cfg = model_mod.load_params(ctx.artifact("train", "intention.ckpt"))
    vocab = Vocabulary.load(ctx.artifact("train", "vocab.jsonl"))
    lexicon = _load_lexicon(ctx)
    pages, _ = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    rows = _read_jsonl(ctx.artifact("ingest", "candidates.jsonl"))
    candidates = [ingest_mod.CandidateQuery(r["query"], r["source"],
                                            r["clicks_total"]) for r in rows]
    ccfg = ctx.section("cluster")
    threshold = float(ccfg.get("threshold", 0.15))
    linkage = str(ccfg.get("linkage", "average"))
    encode = partial(train_mod.encode_texts, params, cfg, vocab,
                     facet_lexicon=lexicon)
    ptypes = {p.product_type for p in pages if p.page_type == "shelf"}
    if not ptypes:
        raise PipelineError("page catalog has no shelf pages to define product types")
    index = cluster_mod.ProductTypeIndex.build(ptypes, encode)
    try:
        result = cluster_mod.cluster_topics(candidates, encode, index,
                                            threshold, linkage)
    except ValueError as exc:
        raise ConfigError(f"bad cluster config: {exc}") from exc
    cluster_mod.write_cluster_report(result, out / "clusters.csv")
    clicks = {c.query: c.clicks_total for c in candidates}
    reps = [{"query": q, "cluster_id": cid, "product_type": ptype,
             "clicks_total": clicks.get(q, 0)}
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
    params, cfg = model_mod.load_params(ctx.artifact("finetune", "finetuned.ckpt"))
    vocab = Vocabulary.load(ctx.artifact("train", "vocab.jsonl"))
    lexicon = _load_lexicon(ctx)
    pages, _ = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    reps = _read_jsonl(ctx.artifact("cluster", "representatives.jsonl"))
    dcfg = ctx.section("dedup")
    # the fine-tuned checkpoint: rows are the task-specific embedding
    encode = partial(train_mod.encode_texts, params, cfg, vocab,
                     facet_lexicon=lexicon)
    shelf_index = dedup_mod.build_shelf_index(pages, encode)
    facet_index = dedup_mod.FacetIndex(pages)
    try:
        deduper = dedup_mod.Deduper(
            shelf_index, facet_index, encode,
            threshold=float(dcfg.get("threshold", dedup_mod.DEFAULT_THRESHOLD)),
            facet_lexicon=lexicon)
    except ValueError as exc:
        raise ConfigError(f"bad dedup config: {exc}") from exc
    decisions, stats = dedup_mod.dedup_all([r["query"] for r in reps], deduper)
    dedup_mod.write_dedup_report(decisions, out / "decisions.csv")
    verdicts = {d.query: d.verdict for d in decisions}
    _write_jsonl(out / "kept.jsonl",
                 (r for r in reps if verdicts[r["query"]] == "kept"))
    return stats, [], ["decisions.csv", "kept.jsonl"]


def _stage_select(ctx: PipelineContext, out: Path):
    scfg = ctx.section("select")
    quota = int(scfg.get("quota", 10))
    strategy = str(scfg.get("strategy", "pipeline"))
    if strategy == "pipeline":
        rows = _read_jsonl(ctx.artifact("dedup", "kept.jsonl"))
        meta = {r["query"]: r for r in rows}
    elif strategy == "top-clicks":
        # baseline arm: raw candidates by clicks, no clustering or dedup
        rows = [{"query": r["query"], "clicks_total": r["clicks_total"],
                 "cluster_id": "", "product_type": ""}
                for r in _read_jsonl(ctx.artifact("ingest", "candidates.jsonl"))]
        meta = {r["query"]: r for r in rows}
    else:
        raise ConfigError(f"unknown select strategy {strategy!r}")
    if quota < 0:
        raise ConfigError("select quota must be >= 0")
    chosen = topic_mod.select_topics(
        [(r["query"], r["clicks_total"]) for r in rows], quota)
    topics = [topic_mod.SelectedTopic(q, meta[q]["clicks_total"],
                                      meta[q].get("cluster_id", ""),
                                      meta[q].get("product_type", ""))
              for q in chosen]
    _write_jsonl(out / "topics.jsonl", (t.to_dict() for t in topics))
    counts = {"quota": quota, "selected": len(topics), "strategy": strategy}
    return counts, [], ["topics.jsonl"]


def _stage_emit(ctx: PipelineContext, out: Path):
    rows = _read_jsonl(ctx.artifact("select", "topics.jsonl"))
    topics = [topic_mod.SelectedTopic(r["topic"], r.get("clicks", 0),
                                      r.get("source_cluster", ""),
                                      r.get("product_type", ""))
              for r in rows]
    retriever = topic_mod.TokenOverlapRetriever.from_jsonl(
        _require_file(ctx.path("item_catalog"), "item catalog"))
    k = int(ctx.section("emit").get("items_per_page",
                                    topic_mod.DEFAULT_ITEMS_PER_PAGE))
    specs, flagged = topic_mod.emit_pages(topics, retriever, k)
    topic_mod.write_page_specs(specs, out / "pages.jsonl")
    _write_jsonl(out / "flagged.jsonl",
                 ({"topic": t, "reason": r} for t, r in flagged))
    warnings = [f"{t}: {r}" for t, r in flagged]
    counts = {"emitted": len(specs), "flagged": len(flagged)}
    return counts, warnings, ["pages.jsonl", "flagged.jsonl"]


def _stage_experiment(ctx: PipelineContext, out: Path):
    ecfg = ctx.section("experiment")
    n_days = int(ecfg.get("n_days", 120))
    window = exp_mod.date_window(str(ecfg.get("start_date", "2025-01-01")),
                                 n_days)
    try:
        plan = exp_mod.split_dates(window, ctx.seed + SEED_SPLIT)
    except exp_mod.ConfigurationError as exc:
        raise ConfigError(str(exc)) from exc
    clicks = exp_mod.simulate_traffic(
        plan,
        base_mean=float(ecfg.get("base_mean", 1000.0)),
        noise_sd=float(ecfg.get("noise_sd", 30.0)),
        lift_fraction=float(ecfg.get("lift_fraction", 0.0)),
        seed=ctx.seed + SEED_TRAFFIC)
    report = exp_mod.analyze(plan, clicks, str(ecfg.get("variant", "pooled")))
    plan.to_json(out / "plan.json")
    (out / "daily_clicks.json").write_text(
        json.dumps(clicks, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (out / "results.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
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
    """Run one stage: dependency check, body, manifest, report."""
    if stage not in _STAGE_FNS:
        raise ConfigError(f"unknown stage {stage!r}")
    dep_paths = check_dependencies(ctx, stage)
    out = ctx.stage_dir(stage)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    counts, warnings, outputs = _STAGE_FNS[stage](ctx, out)
    duration = time.monotonic() - started

    manifest = {
        "stage": stage,
        "config_hash": _config_hash(ctx.config),
        "seed": ctx.seed,
        "inputs": {str(p.relative_to(ctx.workdir)): _sha256(p)
                   for p in dep_paths},
        "outputs": {name: _sha256(out / name) for name in outputs},
    }
    (out / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report = StageReport(stage, counts, warnings, duration)
    (out / "report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    for w in warnings:
        logger.warning("%s: %s", stage, w)
    logger.info("stage %s done in %.2fs: %s", stage, duration, counts)
    return report


def run_all(ctx: PipelineContext) -> list[StageReport]:
    return [run_stage(ctx, stage) for stage in STAGES]
