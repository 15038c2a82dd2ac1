"""Staged batch pipeline with hash-manifested artifacts.

Each stage reads the shared YAML config plus earlier stages' artifacts from
``workdir/<stage>/``, writes its own outputs there, and records a
``MANIFEST.json`` (config hash, input hashes, output hashes — nothing
time-dependent, so reruns with unchanged inputs are byte-identical) and a
``report.json`` (counts, duration, warnings; the duration makes this file
the one legitimately non-reproducible artifact).

Every random choice derives from the single master seed via fixed per-stage
offsets; `--seed` swaps the master without touching the config file.

``load_context`` parses the config once, with libyaml's safe loader, into
the typed and checked values of each section a stage reads
(``ctx.settings``), so a bad value stops the run before any stage starts; a
config nested past ``MAX_CONFIG_DEPTH`` is refused from its parse events
before libyaml builds it.
The checks come from :mod:`topicforge.config`, and each stage body imports
the modules it calls, ``ingest`` and ``topicpage`` as well as the numpy
ones, so neither parsing the config nor skipping a stage imports any
package module but this one and ``config``, nor numpy. A stage reads every
file through its context (``ctx.artifact`` for an earlier stage's output,
``ctx.path`` for a raw input), which records each read, so the manifest
lists exactly the files the stage read; a missing artifact fails naming the
stage to run first. The manifest's ``config_hash`` covers the values of the
sections its stage reads, ``code`` digests the package's sources, and
``environment`` names the Python and numpy versions, whose rounding can
move an output.

``skip_report`` reads a manifest back as a verifying trace: when nothing the
stage read or wrote has changed, ``topicforge all`` skips the stage and
writes nothing, its report included. That one rule does all reuse.
``cluster`` stores each representative's best page match, which no dedup
threshold moves, in the representative's own row of
``cluster/representatives.jsonl``, and ``dedup`` only applies its threshold
to them. So a rerun that moves only ``dedup.threshold`` skips every stage
but ``dedup``, and of the package loads only ``cli``, this module and
``config``, and never numpy.

This module writes every stage artifact (``_write_csv``, ``_write_json``,
``_write_jsonl``, ``_write_table``) and reads back each one a later stage
takes (``_read_rows``, ``_read_table``). One table, ``_FIELDS``, gives each
of those its exact fields and the check of each field's values: the writers
write just those fields, and both readers check a field at a time. Ingest's
click records and pages are column tables, one JSON object of equal-length
columns, which a stage decodes once and keeps only the columns it uses. A
row or table that does not fit stops the reading stage with the artifact's
name and the line or column at fault. The exceptions are the checkpoint and
vocabulary codecs (``model.save_params``/``load_params``,
``Vocabulary.save``/``load``): the benchmark's quality scorer reads them too.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import logging
import re
import reprlib
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, partial
from pathlib import Path
from typing import Callable

import yaml

from .config import (DEFAULT_ITEMS_PER_PAGE, DEFAULT_THRESHOLD, FLOAT32_MAX,
                     PAGE_TYPES, ConfigError, ModelConfig, PipelineError,
                     TrainConfig, check_cluster_threshold, check_dates,
                     check_dedup_threshold, check_items_per_page, check_quota,
                     check_traffic, check_window, date_window, dedup_verdict,
                     parse_negative_ratio)

logger = logging.getLogger(__name__)

STAGES = ("ingest", "metric", "train", "finetune", "cluster", "dedup",
          "select", "emit", "experiment")

# master-seed offsets, one per consumer of randomness
SEED_METRIC = 1
SEED_TRAIN = 2
SEED_FINETUNE = 3
SEED_SPLIT = 5
SEED_TRAFFIC = 6

# libyaml's parser, with SafeLoader's constructor and resolver: the same
# values, parsed about 8 times as fast
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# the deepest nesting of mappings and lists a config may have: a valid one
# nests 2 deep, its sections in the root mapping. libyaml's composer
# recurses once per level and overflows the C stack between 20,000 and 30,000
MAX_CONFIG_DEPTH = 10

# the raw input files, by config ``paths`` key
RAW_INPUTS = ("click_log", "page_catalog", "facet_lexicon", "blocklist",
              "item_catalog")


@dataclass
class StageReport:
    stage: str
    counts: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    duration_seconds: float = 0.0


@dataclass
class PipelineContext:
    settings: dict[str, dict]  # values by section and key (_settings)
    paths: dict[str, str]  # raw input files by key, as the config names them
    config_dir: Path
    workdir: Path
    seed: int
    # files the running stage has read, by manifest key; run_stage clears them
    inputs: dict[str, Path] = field(default_factory=dict)
    raw_inputs: dict[str, Path] = field(default_factory=dict)

    def path(self, key: str) -> Path:
        """The raw input file at config ``paths.<key>``, recorded as read.

        Only the file's bytes are recorded, not ``paths`` itself, so a path
        that moves to an identical file changes no manifest."""
        if key not in self.paths:
            raise ConfigError(f"config paths.{key} is required")
        p = self.config_dir / self.paths[key]  # an absolute path stays
        if not p.is_file():
            raise ConfigError(f"paths.{key} not found: {p}")
        self.raw_inputs[key] = p
        return p

    def artifact(self, stage: str, name: str) -> Path:
        """An earlier stage's output file, recorded as read."""
        p = self.workdir / stage / name
        if not p.is_file():
            raise PipelineError(f"missing artifact: {stage}/{name} "
                                f"(run the {stage} stage first)")
        self.inputs[f"{stage}/{name}"] = p
        return p


def load_context(config_path: str | Path, workdir: str | Path | None = None,
                 seed: int | None = None) -> PipelineContext:
    """A run's context, its whole config parsed and checked: only whether a
    raw input file exists is left to the stage that reads it."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        data = config_path.read_bytes()  # libyaml decodes and checks UTF-8
        _check_depth(data)
        config = yaml.load(data, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except yaml.YAMLError as exc:  # str() puts each mark on its own line
        raise ConfigError("config is not valid YAML: " + "; ".join(
            line.strip() for line in str(exc).splitlines())) from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a mapping")
    config_dir = config_path.parent.resolve()
    paths = _section(config, "paths")
    for key in ("workdir", *RAW_INPUTS):
        if not isinstance(paths.get(key, ""), str):
            raise ConfigError(f"config paths.{key} must be a string")
    if workdir is None:  # an absolute path replaces config_dir
        workdir = config_dir / paths.get("workdir", "work")
    master = seed if seed is not None else config.get("seed", 0)
    if isinstance(master, bool) or not isinstance(master, int):
        raise ConfigError(f"config seed must be an integer, got "
                          f"{reprlib.repr(master)}")
    if master < 0:  # each stage seeds numpy with master + its offset
        raise ConfigError(f"seed must be >= 0, got {master}")
    return PipelineContext(_settings(config), paths, config_dir, Path(workdir),
                           master)


def _check_depth(data: bytes) -> None:
    """Refuse a config nested past ``MAX_CONFIG_DEPTH`` from its parse
    events, which libyaml emits without recursing, before it is composed."""
    depth = 0
    for event in yaml.parse(data, Loader=_YAML_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_CONFIG_DEPTH:
                raise ConfigError(
                    f"config nests deeper than {MAX_CONFIG_DEPTH} levels "
                    f"(line {event.start_mark.line + 1})")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def _section(config: dict, name: str) -> dict:
    value = config.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a mapping")
    return value


def _defaults(cls, *skip: str) -> dict:
    """The defaults of dataclass ``cls``'s fields, but those in ``skip``."""
    return {f.name: f.default for f in fields(cls) if f.name not in skip}


def _check_training(**values) -> None:
    """TrainConfig's checks, and the learning rate's limit: both trainings
    multiply it into float32 arrays, where a larger one is inf."""
    TrainConfig(**values)
    if values["learning_rate"] > FLOAT32_MAX:
        raise ValueError(f"learning_rate must be at most {FLOAT32_MAX:.8g}, the "
                         f"largest float32, got {values['learning_rate']!r}")


def _check_experiment(start_date: str, n_days: int, base_mean: float,
                      noise_sd: float, lift_fraction: float) -> None:
    check_window(n_days)
    check_dates(start_date, n_days)
    check_traffic(base_mean, noise_sd, lift_fraction)


# each config section a stage reads: its keys with their defaults, and the
# check that the code using its values makes, called with them as keywords
SECTIONS = {
    "metric": ({"negative_ratio": "auto"}, parse_negative_ratio),
    "model": (_defaults(ModelConfig, "vocab_size", "num_classes"),
              partial(ModelConfig, 1)),  # train knows vocab_size
    "train": (_defaults(TrainConfig, "seed"), _check_training),
    "finetune": (_defaults(TrainConfig, "seed", "eval_fraction"),
                 _check_training),
    "cluster": ({"threshold": 0.15}, check_cluster_threshold),
    "dedup": ({"threshold": DEFAULT_THRESHOLD}, check_dedup_threshold),
    "select": ({"quota": 10}, check_quota),
    "emit": ({"items_per_page": DEFAULT_ITEMS_PER_PAGE}, check_items_per_page),
    "experiment": ({"start_date": "2025-01-01", "n_days": 120,
                    "base_mean": 1000.0, "noise_sd": 30.0,
                    "lift_fraction": 0.0}, _check_experiment),
}
# the sections a stage reads, where they are not just its own
_READS = {"ingest": (), "train": ("model", "train")}


def _settings(config: dict) -> dict[str, dict]:
    """Each section of ``SECTIONS``: at each key, the config's value or the
    default, as the default's type, once the section's check passes. A
    number is neither a YAML boolean nor, for an integer, a fraction; a
    string is any scalar's text (metric's ratio is parsed where it is used).
    ``reprlib`` names a bad value: YAML aliases can nest one thousands deep."""
    settings = {}
    for name, (defaults, check) in SECTIONS.items():
        section, values = _section(config, name), {}
        try:
            for key, default in defaults.items():
                value, kind = section.get(key, default), type(default)
                try:
                    if isinstance(value, (list, dict)) or (
                            kind is not str and isinstance(value, bool)) or (
                            kind is int and isinstance(value, float)
                            and not value.is_integer()):
                        raise TypeError
                    values[key] = kind(value)
                except (TypeError, ValueError, OverflowError):
                    what = "a scalar" if kind is str else (
                        f"a number of type {kind.__name__}")
                    raise ValueError(f"{key} must be {what}, got "
                                     f"{reprlib.repr(value)}") from None
            check(**values)
        except (TypeError, ValueError) as exc:
            # metric's message names its one key by the dotted path
            where = "metric." if name == "metric" else f"bad {name} config: "
            raise ConfigError(where + str(exc)) from exc
        settings[name] = values
    return settings


@cache
def _environment() -> dict:
    """The interpreter and numpy, whose rounding can move an output. numpy's
    version is read from the ``version = "X"`` line of its ``version.py``,
    found without importing numpy, so that checking a manifest does not
    import it. A numpy whose file computes the string (as versioneer-built
    releases did) is asked through its installed metadata instead."""
    origin = Path(importlib.util.find_spec("numpy").origin)
    text = origin.with_name("version.py").read_text(encoding="utf-8")
    found = re.search(r'^version = "(.+)"$', text, re.M)
    if found:
        numpy_version = found[1]
    else:
        from importlib.metadata import version
        numpy_version = version("numpy")
    return {"python": sys.version.split()[0], "numpy": numpy_version}


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


def _fingerprint(ctx: PipelineContext, stage: str) -> dict:
    """What a stage's manifest records besides files: the seed, the code and
    environment, and the sha256 of the values of the sections it reads."""
    canon = json.dumps({name: ctx.settings[name]
                        for name in _READS.get(stage, (stage,))}, sort_keys=True)
    return {"stage": stage, "code": _code_digest(),
            "environment": _environment(),
            "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
            "seed": ctx.seed}


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
    keep = _FIELDS.get(f"{path.parent.name}/{path.name}")  # else all keys
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            if not isinstance(row, dict):  # vars() would leave a dict on it
                row = {name: getattr(row, name)
                       for name in keep or [f.name for f in fields(row)]}
            elif keep:
                row = {name: row[name] for name in keep}
            fh.write(encode(row) + "\n")


def _of(*kinds: type) -> Callable[[list], bool]:
    """The check that each value's type is in ``kinds`` (a bool's is bool)."""
    return lambda values: set(map(type, values)).issubset(kinds)


_strings, _integers, _lists = _of(str), _of(int), _of(list)
_numbers = _of(int, float)


def _page_types(values: list) -> bool:
    return _strings(values) and set(values) <= set(PAGE_TYPES)


def _string_lists(values: list) -> bool:
    return _lists(values) and _strings([v for row in values for v in row])


def _facet_pairs(values: list) -> bool:
    """Whether each value is a list of [name, value] pairs of strings."""
    if not _lists(values):
        return False
    pairs = [pair for row in values for pair in row]
    return _string_lists(pairs) and set(map(len, pairs)) <= {2}


# each artifact a later stage reads, by <stage>/<file>: its fields (a table's
# columns, in order), each with the check of a list of its values
_FIELDS: dict[str, dict[str, Callable[[list], bool]]] = {
    "ingest/page_catalog.json": {"page_id": _strings, "page_type": _page_types,
                                 "title": _strings, "product_type": _strings,
                                 "facets": _facet_pairs},
    "ingest/click_records.json": {"query": _strings, "page_id": _strings,
                                  "page_type": _page_types,
                                  "clicks": _integers, "impressions": _integers},
    "ingest/candidates.jsonl": {"query": _strings, "clicks_total": _integers},
    "ingest/facet_lexicon.jsonl": {"facet_name": _strings,
                                   "values": _string_lists},
    "metric/training_set.jsonl": {"query_a": _strings, "query_b": _strings,
                                  "interactive": _numbers},
    "cluster/representatives.jsonl": {
        "query": _strings, "best_match": _strings, "best_similarity": _numbers,
        "path": _strings, "facet_pages": _integers, "cluster_id": _strings,
        "clicks_total": _integers, "product_type": _strings},
    "dedup/kept.jsonl": {"query": _strings, "cluster_id": _strings,
                         "product_type": _strings, "clicks_total": _integers},
    "select/topics.jsonl": {"topic": _strings, "clicks": _integers,
                            "source_cluster": _strings,
                            "product_type": _strings},
    "emit/pages.jsonl": {"topic": _strings, "page_id": _strings,
                         "item_ids": _string_lists, "source_cluster": _strings,
                         "product_type": _strings},
}


def _fault(key: str, column: Callable[[str], list]) -> tuple | None:
    """The first value of artifact ``key`` that fails its field's check, as
    (field, index, value), checking ``column(field)`` a field at a time."""
    for name, check in _FIELDS[key].items():
        if not check(values := column(name)):
            index = next(i for i, v in enumerate(values) if not check([v]))
            return name, index, values[index]
    return None


def _read_rows(ctx: PipelineContext, stage: str, name: str) -> list[dict]:
    """The rows of ``stage``'s JSONL artifact ``name``, one per non-blank
    line: objects of exactly its ``_FIELDS``, whose values pass their
    field's checks, or the stage stops naming the file and the line at
    fault. Each line is decoded alone, so a bad byte is named by its line."""
    key, line_no, rows = f"{stage}/{name}", 1, {}  # rows by line number
    fields = _FIELDS[key].keys()
    with open(ctx.artifact(stage, name), "rb") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if (text := line.decode("utf-8")).strip():
                    rows[line_no] = row = json.loads(text)
                    if not (isinstance(row, dict) and row.keys() == fields):
                        raise ValueError(f"not an object of {', '.join(fields)}")
            fault = _fault(key, lambda f: [row[f] for row in rows.values()])
            if fault:
                column, index, value = fault
                line_no = list(rows)[index]
                raise ValueError(f"field {column}: unexpected {value!r}")
        except (ValueError, RecursionError) as exc:  # UnicodeError included
            raise PipelineError(f"{key} line {line_no}: malformed row "
                                f"({type(exc).__name__}: {exc})") from None
    return list(rows.values())


def _write_table(path: Path, rows: list) -> None:
    """``rows`` as the column table ``path`` names: one JSON object of its
    ``_FIELDS``, each the list of the rows' values, in one ``json.dumps``.
    A set, such as a page's facets, is written as its sorted members."""
    table = {name: [getattr(row, name) for row in rows]
             for name in _FIELDS[f"{path.parent.name}/{path.name}"]}
    path.write_text(json.dumps(table, default=sorted) + "\n", encoding="utf-8")


def _read_table(ctx: PipelineContext, name: str, *wanted: str) -> list[list]:
    """The columns ``wanted`` (all, when none is named) of ingest's column
    table ``name``, decoded in one ``json.loads``. A table that is not one
    object of its ``_FIELDS``' equal-length lists, whose values pass their
    checks, stops the stage with the file and the column at fault."""
    key = f"ingest/{name}"
    columns = _FIELDS[key]
    first = next(iter(columns))
    try:
        table = json.loads(ctx.artifact("ingest", name).read_text(
            encoding="utf-8"))
        if not (isinstance(table, dict) and table.keys() == columns.keys()):
            raise ValueError(f"not one object of the columns "
                             f"{', '.join(columns)}")
        for column in columns:
            values = table[column]
            if not (isinstance(values, list)
                    and len(values) == len(table[first])):
                raise ValueError(f"column {column} is not a list as long as "
                                 f"{first}")
        fault = _fault(key, table.__getitem__)
        if fault:
            raise ValueError("column {}, row {}: unexpected {!r}".format(*fault))
    except (ValueError, RecursionError) as exc:  # UnicodeError is a ValueError
        raise PipelineError(f"{key}: malformed table "
                            f"({type(exc).__name__}: {exc})") from None
    return [table[column] for column in wanted or columns]


# ---------------------------------------------------------------------------
# stage bodies; each returns (counts, warnings, output file names). Each
# imports the modules it calls, so a run that skips a stage never imports
# them, numpy included
# ---------------------------------------------------------------------------

def _stage_ingest(ctx: PipelineContext, out: Path):
    from . import ingest as ingest_mod

    records, rep = ingest_mod.parse_click_log(ctx.path("click_log"))
    pages, prep = ingest_mod.parse_page_catalog(ctx.path("page_catalog"))
    lexicon = ingest_mod.load_facet_lexicon(ctx.path("facet_lexicon"))
    blocklist = ingest_mod.load_blocklist(ctx.path("blocklist"))
    candidates = ingest_mod.candidates_from_click_log(records)
    kept, removed = ingest_mod.filter_negative_queries(candidates, blocklist)

    # normalized copies, which later stages take as they are: the click
    # records and pages as column tables (_read_table), the rest as rows
    _write_table(out / "click_records.json", records)
    _write_jsonl(out / "candidates.jsonl", kept)
    _write_table(out / "page_catalog.json", pages)
    _write_jsonl(out / "facet_lexicon.jsonl",
                 ({"facet_name": name, "values": sorted(values)}
                  for name, values in sorted(lexicon.items())))

    warnings = [f"click log line {ln}: {msg}" for ln, msg in rep.errors]
    warnings += [f"page catalog line {ln}: {msg}" for ln, msg in prep.errors]
    counts = {"click_rows": rep.rows_ok, "click_row_errors": rep.error_count,
              "pages": len(pages), "candidates": len(kept),
              "blocked": len(removed)}
    return counts, warnings, ["click_records.json", "candidates.jsonl",
                              "page_catalog.json", "facet_lexicon.jsonl"]


def _stage_metric(ctx: PipelineContext, out: Path):
    from . import metric as metric_mod
    from .ingest import ClickRecord

    # shelf clicks are navigational ("browsed the category", not "wanted the
    # same thing"), so they never count as co-clicks; finetune labels by them
    records = map(ClickRecord, *_read_table(ctx, "click_records.json"))
    stats = metric_mod.aggregate_clicks(
        [r for r in records if r.page_type != "shelf"])
    samples = metric_mod.build_training_set(
        stats, **ctx.settings["metric"], seed=ctx.seed + SEED_METRIC)
    _write_jsonl(out / "training_set.jsonl", samples)
    n_pos = sum(s.interactive > 0 for s in samples)
    counts = {"queries": len(stats.totals), "positives": n_pos,
              "negatives": len(samples) - n_pos}
    return counts, [], ["training_set.jsonl"]


def _load_checkpoint(ctx: PipelineContext, stage: str, name: str
                     ) -> tuple[dict, ModelConfig, Vocabulary]:
    """A checkpoint with its sidecar, and the vocabulary it was trained on.
    A file that does not decode, or a vocabulary that is not one token per
    row of the checkpoint's ``tok_emb``, stops the stage with its name."""
    from . import model as model_mod
    from .tokenizer import Vocabulary

    path = ctx.artifact(stage, name)
    ctx.artifact(stage, name + ".json")
    key = f"{stage}/{name}"
    try:
        params, cfg = model_mod.load_params(path)
        key = "train/vocab.jsonl"
        vocab = Vocabulary.load(ctx.artifact("train", "vocab.jsonl"))
        if vocab.size != cfg.vocab_size:
            raise ValueError(f"{vocab.size} tokens, not the checkpoint's "
                             f"{cfg.vocab_size}")
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise PipelineError(f"{key}: malformed "
                            f"({type(exc).__name__}: {exc})") from None
    return params, cfg, vocab


def _trained(stage: str, fit: Callable, *args) -> tuple[dict, list, dict]:
    """``fit(*args)``, and the Adam ``steps`` and ``samples_per_s`` it
    trained over the wall time of the call, which vary from run to run like
    the report's duration. Data it cannot learn from (ValueError), or a loss
    or parameter that went non-finite (FloatingPointError), stops ``stage``."""
    started = time.perf_counter()
    try:
        params, history = fit(*args)
    except (ValueError, FloatingPointError) as exc:
        raise PipelineError(f"{stage}: {exc}") from exc
    seconds = time.perf_counter() - started
    samples = sum(row["samples"] for row in history)
    return params, history, {
        "steps": sum(row["steps"] for row in history),
        "samples_per_s": samples / seconds if seconds > 0 else 0.0}


def _stage_train(ctx: PipelineContext, out: Path):
    from . import metric as metric_mod
    from . import model as model_mod
    from . import train as train_mod
    from .tokenizer import build_vocabulary

    samples = [metric_mod.QueryPairSample(**row) for row in _read_rows(
        ctx, "metric", "training_set.jsonl")]
    titles, product_types = _read_table(ctx, "page_catalog.json", "title",
                                        "product_type")
    lexicon = {row["facet_name"]: set(row["values"]) for row in _read_rows(
        ctx, "ingest", "facet_lexicon.jsonl")}
    texts = [s.query_a for s in samples] + [s.query_b for s in samples]
    texts += titles + product_types
    vocab = build_vocabulary(texts, facet_lexicon=lexicon)
    cfg = ModelConfig(vocab.size, **ctx.settings["model"])
    tcfg = TrainConfig(**ctx.settings["train"], seed=ctx.seed + SEED_TRAIN)
    params, history, throughput = _trained(
        "train", train_mod.train_intention_model, samples, vocab, cfg, tcfg)
    vocab.save(out / "vocab.jsonl")
    model_mod.save_params(params, cfg, out / "intention.ckpt")
    _write_curve(out / "curve.csv", history)
    counts = {"samples": len(samples), "vocab_size": vocab.size,
              "epochs": tcfg.epochs, **throughput,
              "final_loss": history[-1]["mean_loss"] if history else None,
              "final_eval_loss": history[-1].get("eval_loss") if history else None}
    return counts, [], ["vocab.jsonl", "intention.ckpt", "intention.ckpt.json",
                        "curve.csv"]


def _derive_labels(ctx: PipelineContext
                   ) -> tuple[list[LabeledQuery], list[str]]:
    """Label each query by the shelf page it clicks most (class index)."""
    from .train import LabeledQuery

    shelf_ids = sorted(page_id for page_id, page_type in zip(*_read_table(
        ctx, "page_catalog.json", "page_id", "page_type"))
        if page_type == "shelf")
    index_of = {pid: i for i, pid in enumerate(shelf_ids)}
    per_query: dict[str, dict[str, int]] = {}
    for query, page_id, page_type, clicks in zip(*_read_table(
            ctx, "click_records.json", "query", "page_id", "page_type",
            "clicks")):
        if page_type == "shelf" and page_id in index_of and clicks > 0:
            shelves = per_query.setdefault(query, {})
            shelves[page_id] = shelves.get(page_id, 0) + clicks
    labeled = []
    for query in sorted(per_query):
        best = min(per_query[query].items(), key=lambda kv: (-kv[1], kv[0]))[0]
        labeled.append(LabeledQuery(query, index_of[best]))
    return labeled, shelf_ids


def _stage_finetune(ctx: PipelineContext, out: Path):
    from . import model as model_mod
    from . import train as train_mod

    pretrained, cfg, vocab = _load_checkpoint(ctx, "train", "intention.ckpt")
    labeled, classes = _derive_labels(ctx)
    if len(classes) < 2:
        raise PipelineError("finetune: need at least two shelf classes to "
                            "fine-tune")
    cfg = replace(cfg, num_classes=len(classes))
    tcfg = TrainConfig(**ctx.settings["finetune"],
                       seed=ctx.seed + SEED_FINETUNE)
    params, history, throughput = _trained(
        "finetune", train_mod.finetune_classifier, pretrained, labeled, vocab,
        cfg, tcfg)
    model_mod.save_params(params, cfg, out / "finetuned.ckpt")
    _write_json(out / "classes.json", classes)
    _write_curve(out / "finetune_curve.csv", history)
    counts = {"labeled_queries": len(labeled), "classes": len(classes),
              **throughput,
              "final_accuracy": history[-1]["accuracy"] if history else None}
    return counts, [], ["finetuned.ckpt", "finetuned.ckpt.json",
                        "classes.json", "finetune_curve.csv"]


def _stage_cluster(ctx: PipelineContext, out: Path):
    from . import cluster as cluster_mod
    from . import train as train_mod

    params, cfg, vocab = _load_checkpoint(ctx, "train", "intention.ckpt")
    clicks = {row["query"]: row["clicks_total"] for row in _read_rows(
        ctx, "ingest", "candidates.jsonl")}
    encode = partial(train_mod.encode_texts, params, cfg, vocab)
    pages = _page_records(ctx)
    ptypes = {p.product_type for p in pages if p.page_type == "shelf"}
    if not ptypes:
        raise PipelineError("page catalog has no shelf pages to define product types")
    index = cluster_mod.ProductTypeIndex.build(ptypes, encode)
    result = cluster_mod.cluster_topics(clicks, encode, index,
                                        **ctx.settings["cluster"])
    _write_csv(out / "clusters.csv",
               ["query", "product_type", "cluster_id", "is_representative"],
               ([q, ptype, cid, "1" if result.representatives[cid] == q else "0"]
                for q, (ptype, cid) in sorted(result.assignments.items())))
    reps = sorted(result.representatives.items())
    matches = _score_matches(ctx, pages, [q for _, q in reps])
    _write_jsonl(out / "representatives.jsonl",
                 ({**vars(match), "cluster_id": cid, "clicks_total": clicks[q],
                   "product_type": result.assignments[q][0]}
                  for (cid, q), match in zip(reps, matches)))
    _write_jsonl(out / "merge_log.jsonl",
                 ({"cluster_a": a, "cluster_b": b, "distance": d}
                  for a, b, d in result.merge_log))
    counts = {"queries": len(result.assignments),
              "clusters": len(result.representatives),
              "distance_evaluations": result.distance_evaluations}
    return counts, [], ["clusters.csv", "representatives.jsonl",
                        "merge_log.jsonl"]


def _page_records(ctx: PipelineContext) -> list[ingest_mod.PageRecord]:
    """Ingest's normalized pages as the records dedup indexes; the columns
    they are built from are dropped on return."""
    from .ingest import PageRecord

    return [PageRecord(page_id, page_type, title, product_type,
                       frozenset(map(tuple, facets)))
            for page_id, page_type, title, product_type, facets
            in zip(*_read_table(ctx, "page_catalog.json"))]


def _score_matches(ctx: PipelineContext, pages: list[ingest_mod.PageRecord],
                   queries: list[str]) -> list[dedup_mod.DedupDecision]:
    """Each query's best shelf or facet page match, in ``queries`` order.
    Its verdict, at the Deduper's default threshold, is not written."""
    from . import dedup as dedup_mod
    from . import train as train_mod

    params, cfg, vocab = _load_checkpoint(ctx, "finetune", "finetuned.ckpt")
    # the fine-tuned checkpoint: rows are the task-specific embedding
    encode = partial(train_mod.encode_texts, params, cfg, vocab)
    deduper = dedup_mod.Deduper(dedup_mod.build_shelf_index(pages, encode),
                                dedup_mod.FacetIndex(pages), encode,
                                vocab.facet_matcher)
    return dedup_mod.dedup_all(queries, deduper)[0]


def _stage_dedup(ctx: PipelineContext, out: Path):
    reps = _read_rows(ctx, "cluster", "representatives.jsonl")
    threshold = ctx.settings["dedup"]["threshold"]
    verdicts = [dedup_verdict(r["best_similarity"], threshold) for r in reps]
    _write_csv(out / "decisions.csv",
               ["query", "verdict", "best_match", "best_similarity", "path"],
               ([r["query"], verdict, r["best_match"],
                 f"{r['best_similarity']:.6f}", r["path"]]
                for r, verdict in zip(reps, verdicts)))
    _write_jsonl(out / "kept.jsonl", (r for r, verdict in zip(reps, verdicts)
                                      if verdict == "kept"))
    counts = {"total": len(reps), "kept": verdicts.count("kept"),
              "duplicate": verdicts.count("duplicate"),
              "facet_path_skipped": sum(not r["facet_pages"] for r in reps)}
    return counts, [], ["decisions.csv", "kept.jsonl"]


def _stage_select(ctx: PipelineContext, out: Path):
    from . import topicpage as topic_mod

    kept = [topic_mod.SelectedTopic(r["query"], r["clicks_total"],
                                    r["cluster_id"], r["product_type"])
            for r in _read_rows(ctx, "dedup", "kept.jsonl")]
    quota = ctx.settings["select"]["quota"]
    topics = topic_mod.select_topics(kept, quota)
    _write_jsonl(out / "topics.jsonl", topics)
    counts = {"quota": quota, "selected": len(topics)}
    return counts, [], ["topics.jsonl"]


def _stage_emit(ctx: PipelineContext, out: Path):
    from . import ingest as ingest_mod
    from . import topicpage as topic_mod

    topics = [topic_mod.SelectedTopic(**row)
              for row in _read_rows(ctx, "select", "topics.jsonl")]
    # with no topic there is nothing to retrieve, so the item catalog is
    # neither parsed nor recorded as read; otherwise only the items that
    # share a token with a topic are kept and indexed
    retriever = topic_mod.TokenOverlapRetriever([])
    if topics:
        retriever = topic_mod.TokenOverlapRetriever(
            ingest_mod.load_item_catalog(ctx.path("item_catalog"),
                                         [t.topic for t in topics]))
    specs, flagged = topic_mod.emit_pages(
        topics, retriever, ctx.settings["emit"]["items_per_page"])
    _write_jsonl(out / "pages.jsonl", specs)
    _write_jsonl(out / "flagged.jsonl",
                 ({"topic": t, "reason": r} for t, r in flagged))
    warnings = [f"{t}: {r}" for t, r in flagged]
    counts = {"emitted": len(specs), "flagged": len(flagged)}
    return counts, warnings, ["pages.jsonl", "flagged.jsonl"]


def _stage_experiment(ctx: PipelineContext, out: Path):
    from . import experiment as exp_mod

    e = ctx.settings["experiment"]
    # the treatment is the page group emit shipped: with no page, the A/B
    # test days get no lift
    pages = len(_read_rows(ctx, "emit", "pages.jsonl"))
    plan, clicks, report = exp_mod.run_experiment(
        date_window(e["start_date"], e["n_days"]),
        e["base_mean"], e["noise_sd"], e["lift_fraction"] if pages else 0.0,
        split_seed=ctx.seed + SEED_SPLIT, traffic_seed=ctx.seed + SEED_TRAFFIC)
    # the plan's keys stay in field order
    _write_json(out / "plan.json", asdict(plan), sort_keys=False)
    _write_json(out / "daily_clicks.json", clicks)
    _write_json(out / "results.json", asdict(report))
    print(exp_mod.format_report_table(report))
    aa, ab = report.period("AA"), report.period("AB")
    counts = {"n_days": e["n_days"], "pages": pages, "aa_p": aa.p,
              "ab_p": ab.p, "aa_relative_pct": aa.relative_pct,
              "ab_relative_pct": ab.relative_pct}
    warnings = [] if pages else [
        "no page was emitted; the A/B period has no treatment"]
    return counts, warnings, ["plan.json", "daily_clicks.json", "results.json"]


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
    out = ctx.workdir / stage
    created = not out.is_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use workdir {ctx.workdir}: {exc}") from exc
    started = time.monotonic()
    try:
        counts, warnings, outputs = _STAGE_FNS[stage](ctx, out)
    except BaseException:
        # a stage that failed before writing leaves no directory it made
        if created and not any(out.iterdir()):
            out.rmdir()
        raise
    duration = time.monotonic() - started

    manifest = {
        **_fingerprint(ctx, stage),
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


def skip_report(ctx: PipelineContext, stage: str) -> dict | None:
    """The ``report.json`` of ``stage``, decoded as its last run wrote it,
    when the stage's manifest still holds: the same ``_fingerprint``, and
    every listed input, raw input (at the current ``paths.<key>``) and output
    rehashes to its recorded digest. Otherwise None, and the stage must run.
    A pure check: it writes no file."""
    out = ctx.workdir / stage
    try:
        manifest = json.loads((out / "MANIFEST.json").read_text(encoding="utf-8"))
        if any(manifest[key] != value
               for key, value in _fingerprint(ctx, stage).items()):
            return None
        files = [(ctx.workdir / key, digest)
                 for key, digest in manifest["inputs"].items()]
        files += [(ctx.path(key), digest)
                  for key, digest in manifest["raw_inputs"].items()]
        files += [(out / name, digest)
                  for name, digest in manifest["outputs"].items()]
        if any(_sha256(p) != digest for p, digest in files):
            return None
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report.keys() != {f.name for f in fields(StageReport)}:
            return None
        return report
    # a missing or malformed manifest or report, or a listed file that is
    # gone: the stage runs, and reports any real problem itself
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            RecursionError, ConfigError):
        return None
