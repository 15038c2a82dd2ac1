"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: central finite differences instead
of backprop, from-scratch O(n^3) agglomeration instead of Lance-Williams,
hash-seeded random projections instead of a trained encoder. Slow and
obviously correct, so the fast implementations can be checked against them.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Sequence

import numpy as np


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
