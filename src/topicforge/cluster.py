"""Two-stage topic clustering: product-type classification, then per-type
average-linkage agglomerative clustering under cosine distance.

Classifying every query to its nearest product type first confines the
quadratic clustering work to within-type groups, which cuts pairwise
distance evaluations by an order of magnitude on evenly split inputs. The
counter on :class:`ClusterResult` records exactly how many embedding-space
distances were computed (classification cosines plus each group's initial
condensed matrix); linkage updates reuse those via the Lance-Williams
recurrence and are not counted.

Determinism: queries are processed in sorted order, merge ties break on the
smallest member, so input order never changes the partition.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .config import check_cluster_threshold as check_threshold
from .train import Encoder, best_match

logger = logging.getLogger(__name__)


@dataclass
class ProductTypeIndex:
    """Unit-norm embedding per product-type label, rows sorted by label."""

    labels: list[str]
    vectors: np.ndarray

    @classmethod
    def build(cls, names: Iterable[str], encode: Encoder) -> "ProductTypeIndex":
        labels = sorted(set(names))
        if not labels:
            raise ValueError("product type index needs at least one label")
        vecs = encode(labels)
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        return cls(labels, vecs)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class ClusterResult:
    """Partition of queries plus the evidence trail that produced it.

    assignments: query -> (product_type, cluster_id)
    representatives: cluster_id -> representative query
    merge_log: (cluster_a, cluster_b, linkage_distance) per merge, where a
        cluster is named by its lexicographically smallest member
    distance_evaluations: embedding-space distance computations performed
    """

    assignments: dict[str, tuple[str, str]] = field(default_factory=dict)
    representatives: dict[str, str] = field(default_factory=dict)
    merge_log: list[tuple[str, str, float]] = field(default_factory=list)
    distance_evaluations: int = 0

    def clusters(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for query, (_, cid) in sorted(self.assignments.items()):
            out.setdefault(cid, []).append(query)
        return out


def classify_product_type(query_vecs: np.ndarray,
                          index: ProductTypeIndex) -> list[str]:
    """Per row of ``query_vecs``, the label with the highest cosine.

    Ties resolve to the lexicographically smallest label (rows are sorted
    and ``best_match`` takes the first maximum).
    """
    unit = query_vecs / np.linalg.norm(query_vecs, axis=1, keepdims=True)
    best, _ = best_match(unit, index.vectors)
    return [index.labels[int(b)] for b in best]


def agglomerate(
    vectors: Mapping[str, np.ndarray],
    threshold: float,
    clicks: Mapping[str, int] | None = None,
    product_type: str = "",
) -> ClusterResult:
    """Bottom-up merging under cosine distance until no linkage <= threshold.

    Each step merges the closest active pair (ties: lexicographically
    smallest members). Cluster-to-cluster distances follow the
    Lance-Williams recurrence for average linkage, so only the initial
    n(n-1)/2 pairwise distances touch the vectors. The representative of a
    final cluster is its highest-click member, ties lexicographic.
    """
    check_threshold(threshold)
    if not vectors:
        raise ValueError("need at least one query")
    clicks = clicks or {}

    order = sorted(vectors)
    n = len(order)
    mat = np.stack([np.asarray(vectors[q], dtype=np.float64) for q in order])
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    # in place: one n x n matrix, not the product and a second for 1 - it
    dist = mat @ mat.T
    np.subtract(1.0, dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    result = ClusterResult(distance_evaluations=n * (n - 1) // 2)

    # cluster at slot i always holds original index i as its smallest member,
    # so row-major argmin realizes the (distance, member_a, member_b) tie-break
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    while active.sum() > 1:
        flat = int(np.argmin(dist))
        i, j = divmod(flat, n)
        if i > j:
            i, j = j, i
        dmin = dist[i, j]
        if not dmin <= threshold:
            break
        result.merge_log.append((order[i], order[j], float(dmin)))
        others = active.copy()
        others[i] = others[j] = False
        merged = (sizes[i] * dist[i, others] + sizes[j] * dist[j, others]) / (
            sizes[i] + sizes[j])
        dist[i, others] = merged
        dist[others, i] = merged
        dist[j, :] = np.inf
        dist[:, j] = np.inf
        sizes[i] += sizes[j]
        members[i].extend(members.pop(j))
        active[j] = False

    for seq, slot in enumerate(np.flatnonzero(active)):
        cid = f"{product_type}#{seq}" if product_type else f"c{seq}"
        group = [order[m] for m in members[int(slot)]]
        rep = min(group, key=lambda q: (-clicks.get(q, 0), q))
        result.representatives[cid] = rep
        for q in group:
            result.assignments[q] = (product_type, cid)
    return result


def cluster_topics(
    clicks: Mapping[str, int],
    encode: Encoder,
    index: ProductTypeIndex,
    threshold: float,
) -> ClusterResult:
    """Classify queries to product types, then agglomerate within each type.

    ``clicks`` maps each query to its click total, which drives the choice
    of each cluster's representative.
    """
    result = ClusterResult()
    if not clicks:
        return result

    texts = sorted(clicks)
    vecs = encode(texts)
    by_type: dict[str, dict[str, np.ndarray]] = {}
    for text, vec, ptype in zip(texts, vecs, classify_product_type(vecs, index)):
        by_type.setdefault(ptype, {})[text] = vec
    result.distance_evaluations += len(texts) * len(index)

    for ptype in sorted(by_type):
        fragment = agglomerate(by_type[ptype], threshold, clicks=clicks,
                               product_type=ptype)
        result.assignments.update(fragment.assignments)
        result.representatives.update(fragment.representatives)
        result.merge_log.extend(fragment.merge_log)
        result.distance_evaluations += fragment.distance_evaluations
    logger.info("clustered %d queries into %d clusters over %d product types "
                "(%d distance evaluations)", len(texts),
                len(result.representatives), len(by_type),
                result.distance_evaluations)
    return result
