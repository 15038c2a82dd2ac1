"""Deduplication of candidate topics against existing shelf and facet pages.

Shelf pages are few, so every query is compared exactly against all shelf
title embeddings, one matrix product per block of queries. Facet pages are
too many for that; candidates are narrowed to the pages under the query's
classified shelf product type that share at least one extracted facet pair,
and only the union of the narrowed pages is encoded, in one batch. A query
counts as a duplicate when its best cosine similarity over (all shelves,
narrowed facet pages) reaches the threshold.

The narrowing step can miss a duplicate whose facet values are not in the
lexicon; run statistics report how often the facet path was skipped so that
risk is visible rather than silent. Indexes are immutable after build.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .ingest import PageRecord, normalize_query, tokenize_text
from .tokenizer import FacetMatcher
from .train import best_match

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.86  # midpoint of the 0.85-0.88 similarity band

Encoder = Callable[[Sequence[str]], np.ndarray]  # texts -> (n, dim) rows


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


@dataclass(frozen=True)
class DedupDecision:
    query: str
    verdict: str  # "kept" | "duplicate"
    best_match: str | None
    best_similarity: float
    path: str  # "shelf" | "facet"

    def to_csv_row(self) -> list[str]:
        return [self.query, self.verdict, self.best_match or "",
                f"{self.best_similarity:.6f}", self.path]


@dataclass
class ShelfIndex:
    """Precomputed unit-norm title embeddings for every shelf page."""

    page_ids: list[str]
    vectors: np.ndarray
    product_types: dict[str, str]

    def __len__(self) -> int:
        return len(self.page_ids)


def build_shelf_index(catalog: Sequence[PageRecord],
                      encode: Encoder) -> ShelfIndex:
    shelves = sorted((p for p in catalog if p.page_type == "shelf"),
                     key=lambda p: p.page_id)
    if not shelves:
        logger.warning("catalog contains no shelf pages; shelf index is empty")
        return ShelfIndex([], np.zeros((0, 1)), {})
    vectors = _unit_rows(encode([p.title for p in shelves]))
    return ShelfIndex([p.page_id for p in shelves], vectors,
                      {p.page_id: p.product_type for p in shelves})


def dedup_against_shelves(query_vecs: np.ndarray,
                          index: ShelfIndex) -> list[tuple[str | None, float]]:
    """Exhaustive best shelf match per unit-norm row of ``query_vecs``.

    An exact max over every shelf vector; ties go to the first page id.
    """
    if len(index) == 0:
        return [(None, float("-inf"))] * len(query_vecs)
    best, sims = best_match(query_vecs, index.vectors)
    return [(index.page_ids[b], float(s)) for b, s in zip(best, sims)]


class FacetIndex:
    """Facet page ids keyed by (product_type, facet_name, facet_value), and
    their titles; :class:`Deduper` encodes only the pages queries narrow to."""

    def __init__(self, catalog: Sequence[PageRecord]):
        self.titles: dict[str, str] = {}
        self.by_facet: dict[tuple[str, str, str], list[str]] = {}
        for page in catalog:
            if page.page_type != "facet":
                continue
            self.titles[page.page_id] = page.title
            for name, value in page.facets:
                key = (page.product_type, name, value)
                self.by_facet.setdefault(key, []).append(page.page_id)

    def pages_for(self, product_type: str,
                  facets: Mapping[str, str]) -> list[str]:
        """Facet pages under the product type sharing >= 1 facet pair."""
        found: set[str] = set()
        for name, value in facets.items():
            found.update(self.by_facet.get((product_type, name, value), ()))
        return sorted(found)


def narrow_facet_candidates(
    query: str,
    facet_index: FacetIndex,
    product_type: str,
    facet_matcher: FacetMatcher | None,
) -> list[str]:
    """Facet pages worth comparing: same product type, >= 1 shared facet.

    Queries with no extractable facets narrow to nothing (the facet path
    is skipped for them).
    """
    if facet_matcher is None:
        return []
    facets = facet_matcher.match(tokenize_text(normalize_query(query)))
    if not facets:
        return []
    return facet_index.pages_for(product_type, facets)


class Deduper:
    """Binds indexes, encoder and threshold into batched decisions."""

    def __init__(
        self,
        shelf_index: ShelfIndex,
        facet_index: FacetIndex | None,
        encode: Encoder,
        threshold: float = DEFAULT_THRESHOLD,
        facet_matcher: FacetMatcher | None = None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        self.shelf_index = shelf_index
        self.facet_index = facet_index
        self.encode = encode
        self.threshold = threshold
        self.facet_matcher = facet_matcher
        self.facet_path_skipped = 0

    def decide(self, queries: Sequence[str]) -> list[DedupDecision]:
        """One decision per query, in order.

        Facet candidates are scored in page-id order and replace the best
        match only when strictly more similar, so an exact shelf hit keeps
        its shelf attribution.
        """
        if not queries:
            return []
        query_vecs = _unit_rows(self.encode(queries))
        shelf_best = dedup_against_shelves(query_vecs, self.shelf_index)
        narrowed: list[list[str]] = []
        for query, (page, _) in zip(queries, shelf_best):
            candidates: list[str] = []
            if self.facet_index is not None and page is not None:
                candidates = narrow_facet_candidates(
                    query, self.facet_index,
                    self.shelf_index.product_types[page], self.facet_matcher)
            if not candidates:
                self.facet_path_skipped += 1
            narrowed.append(candidates)

        pages = sorted(set().union(*narrowed))
        row = {page_id: i for i, page_id in enumerate(pages)}
        if pages:
            facet_vecs = _unit_rows(
                self.encode([self.facet_index.titles[p] for p in pages]))

        decisions = []
        for query, query_vec, (best_page, best_sim), candidates in zip(
                queries, query_vecs, shelf_best, narrowed):
            path = "shelf"
            if candidates:
                sims = facet_vecs[[row[p] for p in candidates]] @ query_vec
                top = int(np.argmax(sims))
                if sims[top] > best_sim:
                    best_page, best_sim, path = (candidates[top],
                                                 float(sims[top]), "facet")
            verdict = "duplicate" if best_sim >= self.threshold else "kept"
            decisions.append(DedupDecision(query, verdict, best_page,
                                           best_sim, path))
        return decisions


def dedup_all(
    queries: Sequence[str],
    deduper: Deduper,
) -> tuple[list[DedupDecision], dict]:
    """Decide every query; returns decisions plus run statistics.

    ``facet_path_skipped`` counts queries whose narrowing produced no
    candidates (no extractable facets or no matching pages) — the share of
    traffic exposed to the known lexicon-coverage blind spot.
    """
    deduper.facet_path_skipped = 0
    decisions = deduper.decide(queries)
    stats = {
        "total": len(decisions),
        "kept": sum(d.verdict == "kept" for d in decisions),
        "duplicate": sum(d.verdict == "duplicate" for d in decisions),
        "facet_path_skipped": deduper.facet_path_skipped,
    }
    return decisions, stats


def write_dedup_report(decisions: Sequence[DedupDecision],
                       path: str | Path) -> None:
    """CSV report: query,verdict,best_match,best_similarity,path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query", "verdict", "best_match",
                         "best_similarity", "path"])
        for decision in decisions:
            writer.writerow(decision.to_csv_row())
