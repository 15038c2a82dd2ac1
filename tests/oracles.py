"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: central finite differences instead
of backprop, from-scratch O(n^3) agglomeration instead of Lance-Williams,
hash-seeded random projections instead of a trained encoder, a listed pool
of every free query pair instead of rank arithmetic, a loop over the whole
facet lexicon per query instead of a first-token index. Slow and
obviously correct, so the fast implementations can be checked against them.
The plain two-cluster co-click corpus of criterion 4 lives here too.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from topicforge.ingest import ClickRecord
from topicforge.metric import CoClickStats, QueryPairSample


def finite_difference_grads(loss_fn: Callable[[], float],
                            params: dict[str, np.ndarray],
                            step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of ``loss_fn`` w.r.t. every parameter coordinate.

    ``loss_fn`` must read the live ``params`` arrays; they are perturbed in
    place and restored exactly.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        g = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = loss_fn()
            flat[k] = orig - step
            lo = loss_fn()
            flat[k] = orig
            g[k] = (hi - lo) / (2.0 * step)
        grads[name] = g.reshape(tensor.shape)
    return grads


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray],
                       floor: float = 1e-6) -> float:
    """Worst |a - n| / max(|a|, |n|, floor) over all coordinates."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def naive_agglomerate(vectors: dict[str, np.ndarray], threshold: float,
                      linkage: str = "average") -> set[frozenset[str]]:
    """O(n^3) reference agglomeration; returns the final partition.

    Every candidate merge recomputes its linkage from the raw pairwise
    cosine distances. Ties break on (distance, smallest member pair) with
    clusters kept sorted by smallest member, mirroring the production
    tie-break.
    """
    names = sorted(vectors)
    unit = {q: np.asarray(vectors[q], dtype=np.float64) for q in names}
    unit = {q: v / np.linalg.norm(v) for q, v in unit.items()}
    base = {(a, b): 1.0 - float(unit[a] @ unit[b])
            for i, a in enumerate(names) for b in names[i + 1:]}

    def pair_dist(a: str, b: str) -> float:
        return base[(a, b)] if (a, b) in base else base[(b, a)]

    def cluster_dist(ca: list[str], cb: list[str]) -> float:
        dists = [pair_dist(a, b) for a in ca for b in cb]
        if linkage == "average":
            return sum(dists) / len(dists)
        return min(dists) if linkage == "single" else max(dists)

    clusters = [[q] for q in names]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = cluster_dist(clusters[i], clusters[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if d > threshold:
            break
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return {frozenset(c) for c in clusters}


def loop_extract_facets(query: str, facet_lexicon: Mapping[str, Iterable[str]]
                        ) -> dict[str, str]:
    """Facet extraction by looping the whole lexicon for every query.

    Each value is split and its first occurrence found by sliding over the
    query's tokens; within a facet the key (-length, position, value) is
    minimized: longest, then leftmost, then smallest value.
    """
    tokens = query.split()
    found: dict[str, str] = {}
    for name in sorted(facet_lexicon):
        best: tuple[int, int, str] | None = None
        for value in facet_lexicon[name]:
            vtokens = value.split()
            n = len(vtokens)
            if n == 0:
                continue
            for pos in range(len(tokens) - n + 1):
                if tokens[pos:pos + n] == vtokens:
                    key = (-n, pos, value)
                    if best is None or key < best:
                        best = key
                    break
        if best is not None:
            found[name] = best[2]
    return found


def hash_embed_fn(dim: int = 16) -> Callable[[str], np.ndarray]:
    """Deterministic text -> unit vector via a hash-seeded Gaussian draw.

    Equal texts map to equal vectors; unrelated texts are near-orthogonal
    in expectation. No training involved, so dedup tests fully control
    which pages a query can collide with.
    """
    def embed(text: str) -> np.ndarray:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)
    return embed


def batch_encoder(embed: Callable[[str], np.ndarray]
                  ) -> Callable[[Sequence[str]], np.ndarray]:
    """Batch encoder (texts -> one row per text) over a per-text oracle."""
    return lambda texts: np.stack([embed(text) for text in texts])


def materialized_negatives(stats: CoClickStats, n_neg: int,
                           seed: int) -> list[QueryPairSample]:
    """Negatives drawn by indexing a listed pool of every free pair.

    The pool holds each pair of clicked queries (sorted, i < j) that is not
    a key of ``stats.pairs``, in (i, j) order; ``n_neg`` is capped at its
    size and an empty pool gives no negatives. O(Q^2) time and memory.
    """
    clicked = [q for q in stats.queries() if stats.totals[q] > 0]
    candidates = []
    for i in range(len(clicked)):
        for j in range(i + 1, len(clicked)):
            key = (clicked[i], clicked[j])
            if key not in stats.pairs:
                candidates.append(key)
    if not candidates:
        return []
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=min(n_neg, len(candidates)),
                        replace=False)
    return [QueryPairSample(*candidates[int(i)], -1.0) for i in chosen]


# modifiers for the plain two-cluster training corpus, 20 per group
_TC_MODS = ["red", "blue", "black", "white", "green", "yellow", "pink",
            "orange", "purple", "gray", "trail", "road", "track", "gym",
            "treadmill", "marathon", "sprint", "jogging", "walking", "racing"]


def two_cluster_records() -> tuple[list[ClickRecord], dict[str, list[str]]]:
    """Plain two-cluster co-click corpus: two groups of 20 queries.

    Queries click their group's three shared pages and one private page, so
    intra-group interactive values land in [0.6, 0.9] and cross-group pairs
    are negatives. Returns (records, group -> queries).
    """
    records: list[ClickRecord] = []
    groups: dict[str, list[str]] = {}
    for tag, base in (("shoes", "running shoes"), ("cases", "phone case")):
        queries = [f"{mod} {base}" for mod in _TC_MODS]
        groups[base] = queries
        shared = [f"tc-{tag}-shared-{k}" for k in range(3)]
        for i, query in enumerate(queries):
            per_page = 8 + i % 5
            private = 6 + (i * 3) % 9
            for page_id in shared:
                records.append(ClickRecord(query, page_id, "item",
                                           per_page, per_page * 3))
            records.append(ClickRecord(query, f"tc-{tag}-priv-{i}", "item",
                                       private, private * 3))
    return records, groups
