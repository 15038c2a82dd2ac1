"""Topic keyword selection under the page quota and topic-page emission.

Selection is a plain top-k by clicks (ties lexicographic) over the cluster
representatives that dedup kept. Emission asks a pluggable retriever for the
top items per keyword; the bundled retriever ranks a JSONL item catalog by
token overlap with the keyword. Topics that retrieve nothing are flagged and skipped, a
retriever failure flags that topic and the run continues.

Page identity is a 64-bit blake2b hash of the normalized keyword, so
re-emitting the same inputs yields byte-identical spec files.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .ingest import (IngestError, field_text, jsonl_objects, normalize_query,
                     tokenize_text)

logger = logging.getLogger(__name__)

DEFAULT_ITEMS_PER_PAGE = 24


def page_id_for(keyword: str) -> str:
    """Stable 64-bit page id: blake2b of the normalized keyword, hex."""
    normalized = normalize_query(keyword)
    return hashlib.blake2b(normalized.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class SelectedTopic:
    topic: str
    clicks: int
    source_cluster: str
    product_type: str


@dataclass(frozen=True)
class TopicPageSpec:
    topic: str
    page_id: str
    item_ids: tuple[str, ...]
    source_cluster: str
    product_type: str


def select_topics(representatives: Sequence[tuple[str, int]],
                  quota: int) -> list[str]:
    """Top-``quota`` queries by clicks, ties broken lexicographically."""
    if quota < 0:
        raise ValueError("quota must be >= 0")
    ranked = sorted(representatives, key=lambda r: (-r[1], r[0]))
    return [query for query, _ in ranked[:quota]]


class TokenOverlapRetriever:
    """Mock item retrieval: rank catalog items by shared normalized tokens.

    Items with zero overlap never match; ties rank by item id.
    """

    def __init__(self, items: Sequence[tuple[str, str]]):
        self._index = [
            (item_id, frozenset(tokenize_text(normalize_query(title))))
            for item_id, title in items]

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TokenOverlapRetriever":
        """JSONL rows {item_id, title}; a malformed row raises IngestError
        naming its line."""
        items = []
        for where, row in jsonl_objects(path, "item catalog"):
            item = (field_text(row.get("item_id")), field_text(row.get("title")))
            for name, value in zip(("item_id", "title"), item):
                if not value:
                    raise IngestError(f"{where}: {name} is missing or empty")
            items.append(item)
        return cls(items)

    def __call__(self, keyword: str, k: int) -> list[str]:
        tokens = set(tokenize_text(normalize_query(keyword)))
        scored = []
        for item_id, title_tokens in self._index:
            overlap = len(tokens & title_tokens)
            if overlap > 0:
                scored.append((-overlap, item_id))
        scored.sort()
        return [item_id for _, item_id in scored[:k]]


def emit_pages(
    topics: Sequence[SelectedTopic],
    retriever: Callable[[str, int], list[str]],
    k: int = DEFAULT_ITEMS_PER_PAGE,
) -> tuple[list[TopicPageSpec], list[tuple[str, str]]]:
    """One spec per topic with up to ``k`` items.

    Returns (specs, flagged) where flagged pairs a topic with the reason it
    was not emitted: no items, a repeated page id, or a retriever error.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    specs: list[TopicPageSpec] = []
    flagged: list[tuple[str, str]] = []
    seen_ids: set[str] = set()
    for topic in topics:
        try:
            item_ids = retriever(topic.topic, k)
        except Exception as exc:  # per-topic failure must not kill the run
            logger.warning("retriever failed for %r: %s", topic.topic, exc)
            flagged.append((topic.topic, f"retriever error: {exc}"))
            continue
        if not item_ids:
            flagged.append((topic.topic, "no items retrieved"))
            continue
        page_id = page_id_for(topic.topic)
        if page_id in seen_ids:
            flagged.append((topic.topic, "duplicate page id"))
            continue
        seen_ids.add(page_id)
        specs.append(TopicPageSpec(topic.topic, page_id, tuple(item_ids[:k]),
                                   topic.source_cluster, topic.product_type))
    return specs, flagged
