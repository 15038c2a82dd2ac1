"""Deduplication of candidate topics against existing shelf and facet pages.

Shelf pages are few, so every query is compared exactly against all shelf
title embeddings, one matrix product per block of queries. Facet pages are
too many for that; candidates are narrowed to the pages under the query's
classified shelf product type that share at least one extracted facet pair,
and only the union of the narrowed pages is encoded, in one batch. A query
counts as a duplicate when its best cosine similarity over (all shelves,
narrowed facet pages) reaches the threshold (``config.dedup_verdict``).

Only that verdict depends on the threshold. So the pipeline's ``cluster``
stage scores each representative's best match here and stores it in the
representative's own row (``cluster/representatives.jsonl``), and its
``dedup`` stage applies the threshold to those, without this module or
numpy.

Queries, titles and facet pairs are taken as ingest normalized them.

The narrowing step can miss a duplicate whose facet values are not in the
lexicon; run statistics report how often the facet path was skipped so that
risk is visible rather than silent. Indexes are immutable after build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_THRESHOLD, dedup_verdict
from .config import check_dedup_threshold as check_threshold
from .ingest import PageRecord, tokenize_text
from .tokenizer import FacetMatcher
from .train import Encoder, best_match


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


@dataclass(frozen=True)
class DedupDecision:
    query: str
    verdict: str  # "kept" | "duplicate"
    best_match: str
    best_similarity: float
    path: str  # "shelf" | "facet"
    facet_pages: int  # the facet pages the query narrowed to


@dataclass
class ShelfIndex:
    """Precomputed unit-norm title embeddings for every shelf page."""

    page_ids: list[str]
    vectors: np.ndarray
    product_types: dict[str, str]


def build_shelf_index(catalog: Sequence[PageRecord],
                      encode: Encoder) -> ShelfIndex:
    shelves = sorted((p for p in catalog if p.page_type == "shelf"),
                     key=lambda p: p.page_id)
    if not shelves:
        raise ValueError("catalog has no shelf pages to dedup against")
    vectors = _unit_rows(encode([p.title for p in shelves]))
    return ShelfIndex([p.page_id for p in shelves], vectors,
                      {p.page_id: p.product_type for p in shelves})


def dedup_against_shelves(query_vecs: np.ndarray,
                          index: ShelfIndex) -> list[tuple[str, float]]:
    """Exhaustive best shelf match per unit-norm row of ``query_vecs``.

    An exact max over every shelf vector; ties go to the first page id.
    """
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


class Deduper:
    """Binds indexes, encoder and threshold into batched decisions."""

    def __init__(
        self,
        shelf_index: ShelfIndex,
        facet_index: FacetIndex,
        encode: Encoder,
        facet_matcher: FacetMatcher,
        threshold: float = DEFAULT_THRESHOLD,
    ):
        check_threshold(threshold)
        self.shelf_index = shelf_index
        self.facet_index = facet_index
        self.encode = encode
        self.threshold = threshold
        self.facet_matcher = facet_matcher

    def decide(self, queries: Sequence[str]) -> list[DedupDecision]:
        """One decision per query, in order.

        A query's facet candidates are the facet pages under its best
        shelf's product type that share one of its extracted facet pairs.
        They are scored in page-id order and replace the best match only
        when strictly more similar, so an exact shelf hit keeps its shelf
        attribution.
        """
        if not queries:
            return []
        query_vecs = _unit_rows(self.encode(queries))
        shelf_best = dedup_against_shelves(query_vecs, self.shelf_index)
        narrowed: list[list[str]] = []
        for query, (page, _) in zip(queries, shelf_best):
            facets = self.facet_matcher.match(tokenize_text(query))
            narrowed.append(self.facet_index.pages_for(
                self.shelf_index.product_types[page], facets))

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
            decisions.append(DedupDecision(
                query, dedup_verdict(best_sim, self.threshold), best_page,
                best_sim, path, len(candidates)))
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
    decisions = deduper.decide(queries)
    stats = {
        "total": len(decisions),
        "kept": sum(d.verdict == "kept" for d in decisions),
        "duplicate": sum(d.verdict == "duplicate" for d in decisions),
        "facet_path_skipped": sum(not d.facet_pages for d in decisions),
    }
    return decisions, stats
