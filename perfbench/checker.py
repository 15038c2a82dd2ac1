"""Output checks for one ``topicforge all`` workdir.

``check_run`` returns a list of problems, empty when the run is correct:

- every stage wrote ``MANIFEST.json`` and each listed output exists with the
  recorded sha256;
- every candidate query sits in exactly one cluster, and each cluster has
  exactly one representative, the one ``representatives.jsonl`` names;
- dedup decided every representative once, its report's total equals the
  number of representatives, kept + duplicate = total, and ``kept.jsonl``
  holds exactly the kept ones;
- a representative whose text equals a shelf title is a duplicate;
- selected topics are kept representatives, at most ``select.quota``;
- emitted pages belong to selected topics and list only catalog items.

``run_digest`` hashes the nine manifests, which carry every output's sha256,
so two runs with equal digests wrote byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import yaml

from topicforge.ingest import normalize_query
from topicforge.pipeline import STAGES


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for stage in STAGES:
        h.update((Path(workdir) / stage / "MANIFEST.json").read_bytes())
    return h.hexdigest()


def check_manifests(workdir: Path) -> list[str]:
    problems = []
    for stage in STAGES:
        path = workdir / stage / "MANIFEST.json"
        if not path.is_file():
            problems.append(f"{stage}: MANIFEST.json missing")
            continue
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if not manifest.get("outputs"):
            problems.append(f"{stage}: manifest lists no outputs")
        for name, digest in manifest.get("outputs", {}).items():
            out = workdir / stage / name
            if not out.is_file():
                problems.append(f"{stage}: output {name} missing")
            elif _sha256(out) != digest:
                problems.append(f"{stage}: output {name} does not match its sha256")
    return problems


def check_contents(workdir: Path, config_path: Path) -> list[str]:
    config = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    inputs = config_path.parent
    problems = []

    candidates = [r["query"] for r in _jsonl(workdir / "ingest" / "candidates.jsonl")]
    clusters = _csv_rows(workdir / "cluster" / "clusters.csv")
    placed = [r["query"] for r in clusters]
    if sorted(placed) != sorted(candidates) or len(set(placed)) != len(placed):
        problems.append("cluster: candidates are not each in exactly one cluster")
    reps = _jsonl(workdir / "cluster" / "representatives.jsonl")
    flagged = {(r["cluster_id"], r["query"]) for r in clusters
               if r["is_representative"] == "1"}
    cluster_ids = {r["cluster_id"] for r in clusters}
    if (flagged != {(r["cluster_id"], r["query"]) for r in reps}
            or len(flagged) != len(cluster_ids)):
        problems.append("cluster: representatives are not one per cluster")

    rep_queries = [r["query"] for r in reps]
    decisions = _csv_rows(workdir / "dedup" / "decisions.csv")
    verdict = {d["query"]: d["verdict"] for d in decisions}
    if sorted(d["query"] for d in decisions) != sorted(rep_queries):
        problems.append("dedup: decisions do not cover each representative once")
    counts = json.loads((workdir / "dedup" / "report.json")
                        .read_text(encoding="utf-8"))["counts"]
    n_kept = sum(v == "kept" for v in verdict.values())
    n_dup = sum(v == "duplicate" for v in verdict.values())
    if counts.get("total") != len(rep_queries):
        problems.append("dedup: total differs from the number of representatives")
    if (counts.get("kept", -1) + counts.get("duplicate", -1) != counts.get("total")
            or (counts.get("kept"), counts.get("duplicate")) != (n_kept, n_dup)):
        problems.append("dedup: kept + duplicate does not equal total")
    kept = [r["query"] for r in _jsonl(workdir / "dedup" / "kept.jsonl")]
    if sorted(kept) != sorted(q for q, v in verdict.items() if v == "kept"):
        problems.append("dedup: kept.jsonl differs from the kept decisions")

    shelf_titles = {normalize_query(p["title"])
                    for p in _jsonl(inputs / config["paths"]["page_catalog"])
                    if p["page_type"] == "shelf"}
    for query, v in verdict.items():
        if query in shelf_titles and v != "duplicate":
            problems.append(f"dedup: {query!r} equals a shelf title but is {v}")

    topics = [t["topic"] for t in _jsonl(workdir / "select" / "topics.jsonl")]
    if not set(topics) <= set(kept):
        problems.append("select: a topic is not a kept representative")
    if len(topics) > int(config.get("select", {}).get("quota", 10)):
        problems.append("select: more topics than the quota")

    items = {i["item_id"] for i in _jsonl(inputs / config["paths"]["item_catalog"])}
    for page in _jsonl(workdir / "emit" / "pages.jsonl"):
        if page["topic"] not in topics:
            problems.append(f"emit: page for unselected topic {page['topic']!r}")
        if not set(page["item_ids"]) <= items:
            problems.append(f"emit: page {page['page_id']} lists unknown items")
    return problems


def check_run(workdir: str | Path, config_path: str | Path) -> list[str]:
    """Every problem found in one finished run's workdir."""
    workdir, config_path = Path(workdir), Path(config_path)
    problems = check_manifests(workdir)
    if problems:
        return problems
    try:
        return check_contents(workdir, config_path)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
