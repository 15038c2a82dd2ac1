"""Span recorder for a traced, in-process ``topicforge all`` run.

The wrappers are installed from outside the program, by replacing module,
class and closure attributes, so the program itself carries no timers. Each
span records its name, start, end and parent span; spans stay in memory and
are written out as JSON when the run ends. Counts (rows, cache hits, ...)
are recorded at the same call boundaries, after the wrapped call returns,
so they do not land inside any span.

Run as a script it installs the wrappers, calls the CLI entry point in
process (``load_context``, then ``run_stage`` once per stage, exactly as a
user's ``topicforge all`` does) and writes the trace file:

    PYTHONPATH=src python3 perfbench/tracing.py TRACE.json RUN_ID \\
        all --config CONFIG --workdir WORKDIR

``layer_metrics`` turns a trace file into the per-layer metric table.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from topicforge.pipeline import STAGES


class Recorder:
    """In-memory spans ``[id, name, start, end, parent]`` plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][1] if self.stack else None

    def stage(self) -> str:
        """Innermost enclosing pipeline stage name, '' outside any stage."""
        for sid in reversed(self.stack):
            name = self.spans[sid][1]
            if name.startswith("pipeline.") and name[9:] in STAGES:
                return name[9:]
        return ""

    def wrap(self, fn, name, after=None, span=True, fold_under=None):
        """Callable that records a span named ``name`` around ``fn``.

        ``name`` may be a function of the call's arguments. ``after(rec,
        result, args)`` records counts once the call has returned. With
        ``span`` off only ``after`` runs. A call made directly inside a span
        named ``fold_under`` is folded into that span instead of opening its
        own (the per-text ``embed`` wraps one ``embed_batch`` call).
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not span or (fold_under and rec.current() == fold_under):
                result = fn(*args, **kwargs)
            else:
                sid = rec.open(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.close(sid)
            if after is not None:
                after(rec, result, args)
            return result

        return wrapper

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans,
                "counts": dict(self.counts)}


# ---------------------------------------------------------------------------
# count hooks, run after the wrapped call returns
# ---------------------------------------------------------------------------

def _after_parse(name: str):
    def after(rec, result, args):
        records, report = result
        rec.counts[f"{name}.rows"] += len(records)
        rec.counts["ingest.row_errors"] += report.error_count
    return after


def _after_arg_rows(name: str, index: int):
    def after(rec, result, args):
        rec.counts[f"{name}.rows"] += len(args[index])
    return after


def _after_training_set(rec, result, args):
    stats = args[0]
    n_pos = sum(s.interactive > 0 for s in result)
    clicked = sum(1 for t in stats.totals.values() if t > 0)
    rec.counts["metric.positives"] += n_pos
    rec.counts["metric.negatives"] += len(result) - n_pos
    rec.counts["metric.negative_pool"] += (clicked * (clicked - 1) // 2
                                           - len(stats.pairs))


def _after_forward(rec, result, args):
    ids, mask = args[2], args[3]
    rec.counts["model.forward.calls"] += 1
    rec.counts["model.forward.rows"] += ids.shape[0]
    rec.counts["model.forward.slots"] += ids.size
    rec.counts["model.forward.tokens"] += float(mask.sum())


def _after_agglomerate(rec, result, args):
    rec.counts["cluster.agglomerate.max_n"] = max(
        rec.counts["cluster.agglomerate.max_n"], len(args[0]))


def _after_cluster_topics(rec, result, args):
    rec.counts["cluster.distance_evaluations"] += result.distance_evaluations
    rec.counts["cluster.merges"] += len(result.merge_log)
    rec.counts["cluster.clusters"] += len(result.representatives)


def _after_dedup_all(rec, result, args):
    _, stats = result
    rec.counts["dedup.total"] += stats.get("total", 0)
    rec.counts["dedup.duplicate"] += stats.get("duplicate", 0)
    rec.counts["dedup.facet_path_skipped"] += stats.get("facet_path_skipped", 0)
    cache = stats.get("facet_cache", {})
    rec.counts["dedup.facet_cache_hits"] += cache.get("hits", 0)
    rec.counts["dedup.facet_cache_misses"] += cache.get("misses", 0)


def _after_emit(rec, result, args):
    rec.counts["topicpage.flagged"] += len(result[1])


def _after_stage_body(rec, result, args):
    rec.counts["pipeline.stages_run"] += 1


# (module, attribute, span name, count hook, options); an attribute that a
# later version of the program no longer has is skipped and reads as 0
FUNCTIONS = [
    ("pipeline", "load_context", "pipeline.load_context", None, {}),
    ("pipeline", "run_stage", lambda a: f"pipeline.{a[1]}", None, {}),
    ("ingest", "parse_click_log", "ingest.parse_click_log",
     _after_parse("ingest.parse_click_log"), {}),
    ("ingest", "parse_page_catalog", "ingest.parse_page_catalog",
     _after_parse("ingest.parse_page_catalog"), {}),
    ("ingest", "candidates_from_click_log", "ingest.candidates_from_click_log",
     None, {}),
    ("ingest", "filter_negative_queries", "ingest.filter_negative_queries",
     None, {}),
    ("metric", "aggregate_clicks", "metric.aggregate_clicks", None, {}),
    ("metric", "build_training_set", "metric.build_training_set",
     _after_training_set, {}),
    ("tokenizer", "extract_facets", "tokenizer.extract_facets", None, {}),
    ("tokenizer", "tokenize_query", "tokenizer.tokenize_query", None, {}),
    ("tokenizer", "build_vocabulary", "tokenizer.build_vocabulary", None, {}),
    ("model", "_forward", "model.forward", _after_forward, {"span": False}),
    ("model", "embed_batch", "model.embed_batch",
     _after_arg_rows("model.embed_batch", 2), {"fold_under": "model.embed"}),
    ("model", "embed", "model.embed", None, {}),
    ("model", "classify_logits", "model.classify_logits", None, {}),
    ("model", "batch_loss_and_grad", "model.batch_loss_and_grad",
     _after_arg_rows("model.batch_loss_and_grad", 2), {}),
    ("model", "classify_batch_loss_and_grad",
     "model.classify_batch_loss_and_grad",
     _after_arg_rows("model.classify_batch_loss_and_grad", 2), {}),
    ("train", "train_intention_model", "train.train_intention_model", None, {}),
    ("train", "finetune_classifier", "train.finetune_classifier", None, {}),
    ("cluster", "classify_product_type", "cluster.classify_product_type",
     None, {}),
    ("cluster", "agglomerate", "cluster.agglomerate", _after_agglomerate, {}),
    ("cluster", "cluster_topics", "cluster.cluster_topics",
     _after_cluster_topics, {"span": False}),
    ("dedup", "build_shelf_index", "dedup.build_shelf_index", None, {}),
    ("dedup", "dedup_all", "dedup.dedup_all", _after_dedup_all, {"span": False}),
    ("topicpage", "select_topics", "topicpage.select_topics", None, {}),
    ("topicpage", "emit_pages", "topicpage.emit_pages", _after_emit, {}),
    ("experiment", "split_dates", "experiment.split_dates", None, {}),
    ("experiment", "simulate_traffic", "experiment.simulate_traffic", None, {}),
    ("experiment", "analyze", "experiment.analyze", None, {}),
    ("experiment", "regularized_incomplete_beta",
     "experiment.regularized_incomplete_beta", None, {}),
]

# (module, class, attribute, span name)
METHODS = [
    ("cluster", "ProductTypeIndex", "build", "cluster.ProductTypeIndex.build"),
    ("dedup", "Deduper", "decide", "dedup.decide"),
    ("dedup", "FacetIndex", "vector", "dedup.facet_vector"),
    ("train", "Optimizer", "step", "train.Optimizer.step"),
    ("topicpage", "TokenOverlapRetriever", "__call__", "topicpage.retrieve"),
]


def install(rec: Recorder) -> None:
    """Patch every traced function, method and closure factory in place."""
    import importlib

    modules = {name: importlib.import_module(f"topicforge.{name}")
               for name in ("pipeline", "ingest", "metric", "tokenizer",
                            "model", "train", "cluster", "dedup",
                            "topicpage", "experiment", "cli")}
    for mod_name, attr, name, after, opts in FUNCTIONS:
        original = getattr(modules[mod_name], attr, None)
        if original is None:
            continue
        wrapped = rec.wrap(original, name, after, **opts)
        # re-bound imports (``from .tokenizer import extract_facets``) are
        # separate attributes of the importing module: patch every binding
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    for mod_name, cls_name, attr, name in METHODS:
        cls = getattr(modules[mod_name], cls_name, None)
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(raw.__func__, name)))
        else:
            setattr(cls, attr, rec.wrap(raw, name))

    factory = getattr(modules["train"], "make_embed_fn", None)
    if factory is not None:
        @functools.wraps(factory)
        def make_embed_fn(*args, **kwargs):
            # the closure is labelled by the stage that asked for it
            return rec.wrap(factory(*args, **kwargs), f"{rec.stage()}.encode")
        modules["train"].make_embed_fn = make_embed_fn

    stage_fns = getattr(modules["pipeline"], "_STAGE_FNS", None)
    if stage_fns is not None:
        for stage, body in list(stage_fns.items()):
            stage_fns[stage] = rec.wrap(body, "", _after_stage_body, span=False)


def traced_main(argv: list[str]) -> int:
    """Install the wrappers, run the CLI in process, write the trace."""
    out, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    rec = Recorder(run_id)
    install(rec)
    from topicforge import cli

    root = rec.open("run")
    try:
        code = cli.main(cli_args)
    finally:
        rec.close(root)
    out.write_text(json.dumps(rec.to_json()), encoding="utf-8")
    return code


# ---------------------------------------------------------------------------
# per-layer table
# ---------------------------------------------------------------------------

def span_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: inclusive seconds, self seconds and call count.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested (one thread), so the children's
    durations are exactly the part of the interval they cover.
    """
    child = defaultdict(float)
    for sid, name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for sid, name, start, end, parent in spans:
        total[name] += end - start
        own[name] += end - start - child[sid]
        calls[name] += 1
    return total, own, calls


def layer_metrics(trace: dict) -> dict[str, float]:
    """Every per-layer metric from one trace file, by metric name."""
    total, own, calls = span_times(trace["spans"])
    counts = defaultdict(float, trace["counts"])
    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.{stage}.s"] = total[f"pipeline.{stage}"]
        m[f"pipeline.{stage}.self_s"] = own[f"pipeline.{stage}"]
    m["pipeline.stages_run"] = (counts["pipeline.stages_run"]
                                or sum(calls[f"pipeline.{s}"] for s in STAGES))

    def timed(name: str, *extra: str) -> None:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = own[name]
        for key in extra:
            m[f"{name}.{key}"] = counts[f"{name}.{key}"]

    timed("ingest.parse_click_log", "rows")
    timed("ingest.parse_page_catalog")
    m["ingest.row_errors"] = counts["ingest.row_errors"]

    for name in ("metric.aggregate_clicks", "metric.build_training_set"):
        m[f"{name}.s"] = own[name]
    for key in ("positives", "negatives", "negative_pool"):
        m[f"metric.{key}"] = counts[f"metric.{key}"]

    timed("tokenizer.extract_facets")
    timed("tokenizer.tokenize_query")

    timed("model.embed_batch", "rows")
    timed("model.embed")
    timed("model.classify_logits")
    timed("model.batch_loss_and_grad", "rows")
    timed("model.classify_batch_loss_and_grad", "rows")
    forwards = counts["model.forward.calls"]
    m["model.rows_per_forward"] = (counts["model.forward.rows"] / forwards
                                   if forwards else 0.0)
    slots = counts["model.forward.slots"]
    m["model.token_fill"] = counts["model.forward.tokens"] / slots if slots else 0.0

    for name in ("train.train_intention_model", "train.finetune_classifier"):
        m[f"{name}.s"] = own[name]
    pretrain = total["train.train_intention_model"]
    m["train.samples_per_s"] = (counts["model.batch_loss_and_grad.rows"] / pretrain
                                if pretrain else 0.0)
    timed("train.Optimizer.step")

    m["cluster.ProductTypeIndex.build.s"] = own["cluster.ProductTypeIndex.build"]
    timed("cluster.encode")
    timed("cluster.classify_product_type")
    timed("cluster.agglomerate", "max_n")
    for key in ("distance_evaluations", "merges", "clusters"):
        m[f"cluster.{key}"] = counts[f"cluster.{key}"]

    m["dedup.build_shelf_index.s"] = own["dedup.build_shelf_index"]
    timed("dedup.encode")
    timed("dedup.decide")
    timed("dedup.facet_vector")
    lookups = counts["dedup.facet_cache_hits"] + counts["dedup.facet_cache_misses"]
    m["dedup.facet_cache_hit_rate"] = (counts["dedup.facet_cache_hits"] / lookups
                                       if lookups else 0.0)
    decided = counts["dedup.total"]
    m["dedup.facet_path_skip_rate"] = (counts["dedup.facet_path_skipped"] / decided
                                       if decided else 0.0)
    m["dedup.duplicate_share"] = counts["dedup.duplicate"] / decided if decided else 0.0

    for name in ("topicpage.select_topics", "topicpage.emit_pages"):
        m[f"{name}.s"] = own[name]
    m["topicpage.retrieve.calls"] = calls["topicpage.retrieve"]
    m["topicpage.flagged"] = counts["topicpage.flagged"]

    for name in ("experiment.simulate_traffic", "experiment.analyze"):
        m[f"{name}.s"] = own[name]
    timed("experiment.regularized_incomplete_beta")

    stage_s = sum(total[f"pipeline.{s}"] for s in STAGES)
    m["trace.stage_coverage"] = stage_s / total["run"] if total["run"] else 0.0
    return m


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
