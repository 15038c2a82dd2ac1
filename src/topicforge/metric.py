"""Co-click aggregation, the interactive similarity metric, and training pairs.

Two queries are "co-clicked" on a page when both have at least one click on
it. For a query pair the co-click count of each side is that side's clicks
summed over the shared pages, and the interactive metric is the geometric
mean of the two co-click fractions:

    interactive(q1, q2) = sqrt( (co_1 * co_2) / (total_1 * total_2) )

which lands in (0, 1] for co-clicked pairs and is 0 when nothing is shared.
Training sets pair every co-clicked pair (its metric as the label) with
uniformly sampled never-co-clicked pairs labeled -1.

Negatives are drawn without building the pool of never-co-clicked pairs.
With the n clicked queries sorted, pair (i, j > i) has the upper-triangle
index ``t = row_start[i] + j - i - 1``, where ``row_start[i]`` counts the
pairs in rows before i (a running sum of n-1, n-2, ...). The co-clicked
pairs' indices, sorted, are ``taken``; a rank r among the free pairs maps
to ``t = r + #{k : taken[k] - k <= r}``, and ``t`` back to its row by a
binary search of ``row_start``. ``rng.choice`` depends only on the
population size, so the draws are the same as those indexing a full pool
of free pairs in (i, j) order, at O(P log P + k) time and memory for P
co-clicked pairs and k negatives instead of O(n^2). (``rng.choice`` itself
permutes all N free ranks, 8 bytes each, when k > N / 50; below that it
draws k of them with a hash set.)
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .ingest import ClickRecord

logger = logging.getLogger(__name__)


class UndefinedMetricError(ValueError):
    """Raised when a query has zero total clicks, making the metric undefined."""


@dataclass(frozen=True)
class QueryPairSample:
    query_a: str
    query_b: str
    interactive: float


@dataclass
class CoClickStats:
    """Aggregated click totals and per-pair co-click counts.

    ``pairs`` stores each unordered pair once under its sorted key; the
    stored counts are aligned with the key order.
    """

    totals: dict[str, int] = field(default_factory=dict)
    pairs: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    def queries(self) -> list[str]:
        return sorted(self.totals)


def _pair_key(q1: str, q2: str) -> tuple[str, str]:
    return (q1, q2) if q1 <= q2 else (q2, q1)


def aggregate_clicks(records: Sequence[ClickRecord]) -> CoClickStats:
    """Build CoClickStats from click records.

    Repeated (query, page) rows are summed. Totals count clicks over all
    pages; co-click entries exist exactly for pairs sharing at least one
    page that both sides clicked.
    """
    by_query: dict[str, dict[str, int]] = {}
    for rec in records:
        pages = by_query.setdefault(rec.query, {})
        pages[rec.page_id] = pages.get(rec.page_id, 0) + rec.clicks

    stats = CoClickStats()
    for query, pages in by_query.items():
        stats.totals[query] = sum(pages.values())

    # invert to page -> clicking queries, ignoring zero-click rows
    by_page: dict[str, list[str]] = {}
    for query, pages in by_query.items():
        for page_id, clicks in pages.items():
            if clicks > 0:
                by_page.setdefault(page_id, []).append(query)

    for page_id, queries in by_page.items():
        queries.sort()
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                qa, qb = queries[i], queries[j]
                co_a, co_b = stats.pairs.get((qa, qb), (0, 0))
                stats.pairs[(qa, qb)] = (co_a + by_query[qa][page_id],
                                         co_b + by_query[qb][page_id])
    return stats


def interactive_metric(stats: CoClickStats, q1: str, q2: str) -> float:
    """Interactive metric between two queries; 0.0 when nothing is co-clicked."""
    t1 = stats.totals.get(q1, 0)
    t2 = stats.totals.get(q2, 0)
    if t1 <= 0 or t2 <= 0:
        raise UndefinedMetricError(
            f"metric undefined: zero total clicks for {q1 if t1 <= 0 else q2!r}")
    counts = stats.pairs.get(_pair_key(q1, q2))
    if counts is None:
        return 0.0
    co_a, co_b = counts
    return math.sqrt((co_a * co_b) / (t1 * t2))


def positive_pairs(stats: CoClickStats) -> list[QueryPairSample]:
    """Every co-clicked pair with its interactive metric, in sorted key order."""
    out = []
    for (qa, qb) in sorted(stats.pairs):
        out.append(QueryPairSample(qa, qb, interactive_metric(stats, qa, qb)))
    return out


def parse_negative_ratio(negative_ratio: object) -> float | str:
    """``"auto"`` or a finite number >= 0; a numeric string counts as its number.

    Raises ValueError for anything else (booleans included).
    """
    if negative_ratio == "auto":
        return "auto"
    ratio = None
    if not isinstance(negative_ratio, bool):
        try:
            ratio = float(negative_ratio)
        except (TypeError, ValueError):
            pass
    if ratio is None or not math.isfinite(ratio) or ratio < 0:
        raise ValueError("negative_ratio must be 'auto' or a finite number "
                         f">= 0, got {negative_ratio!r}")
    return ratio


def build_training_set(
    stats: CoClickStats,
    negative_ratio: float | str = "auto",
    seed: int = 0,
) -> list[QueryPairSample]:
    """Positives (co-clicked pairs) plus uniformly sampled -1 negatives.

    ``negative_ratio`` is the target positives:negatives ratio (see
    ``parse_negative_ratio``); "auto" uses the mean positive interactive
    metric, and 0 disables negative sampling. Negatives are drawn uniformly,
    without replacement, from pairs of clicked queries that share no page.
    Deterministic under ``seed``. Wanting more negatives than there are free
    pairs, even infinitely many from a tiny ratio, takes every free pair.

    The free pairs are never listed: ``rng.choice`` draws ranks among them
    and each rank is mapped to its pair by the rank arithmetic in the module
    docstring. The result is the same list a full pool of free pairs in
    (i, j) order indexed by the same draws would give, in O(P log P + k)
    time and memory (P co-clicked pairs, k negatives).
    """
    ratio = parse_negative_ratio(negative_ratio)
    positives = positive_pairs(stats)
    if ratio == 0 or not positives:
        return positives
    if ratio == "auto":
        ratio = sum(s.interactive for s in positives) / len(positives)
    wanted = len(positives) / ratio  # inf when a tiny ratio overflows it

    clicked = [q for q in stats.queries() if stats.totals[q] > 0]
    n = len(clicked)
    position = {q: i for i, q in enumerate(clicked)}
    # row_start[i] is the index of pair (i, i + 1)
    row_start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1, dtype=np.int64), out=row_start[1:])
    taken_list = []
    for qa, qb in stats.pairs:
        i, j = position.get(qa), position.get(qb)
        if i is not None and j is not None and i < j:
            taken_list.append(row_start[i] + (j - i - 1))
    taken = np.sort(np.array(taken_list, dtype=np.int64))
    n_free = n * (n - 1) // 2 - len(taken)
    if n_free == 0:
        logger.warning("co-click graph too dense: no negative pairs available")
        return positives
    # capped before rounding: round() of an infinite count raises
    n_neg = round(min(wanted, n_free + 1))
    if n_neg > n_free:
        logger.warning("only %d negative pairs available (wanted %.0f)",
                       n_free, wanted)
        n_neg = n_free

    rng = np.random.default_rng(seed)
    ranks = rng.choice(n_free, size=n_neg, replace=False)
    # taken[k] - k free pairs precede taken[k], so rank r skips every k
    # whose count is <= r
    t = ranks + np.searchsorted(taken - np.arange(len(taken)), ranks,
                                side="right")
    rows = np.searchsorted(row_start, t, side="right") - 1
    cols = t - row_start[rows] + rows + 1
    negatives = [QueryPairSample(clicked[i], clicked[j], -1.0)
                 for i, j in zip(rows.tolist(), cols.tolist())]
    return positives + negatives
