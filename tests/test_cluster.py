"""Agglomerative clustering against a naive O(n^3) oracle, plus product-type
classification."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import batch_encoder, hash_embed_fn, naive_agglomerate
from topicforge.cluster import (ClusterResult, ProductTypeIndex, agglomerate,
                                classify_product_type, cluster_topics)


def blob_vectors(rng, n_blobs, per_blob, dim=8, noise=0.2):
    centers = rng.standard_normal((n_blobs, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    out = {}
    for c in range(n_blobs):
        for k in range(per_blob):
            v = centers[c] + noise * rng.standard_normal(dim)
            out[f"q{c:02d}-{k:02d}"] = v / np.linalg.norm(v)
    return out


def partition(result: ClusterResult) -> set[frozenset[str]]:
    return {frozenset(group) for group in result.clusters().values()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partition_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    vectors = blob_vectors(rng, 4, 8)
    for threshold in (0.05, 0.3, 0.8):
        got = partition(agglomerate(vectors, threshold))
        want = naive_agglomerate(vectors, threshold)
        assert got == want


def test_unstructured_vectors_match_oracle():
    # no planted blobs, heavy merging: exercises a long nontrivial merge order
    rng = np.random.default_rng(9)
    raw = rng.standard_normal((30, 6))
    vectors = {f"r{i:02d}": v for i, v in enumerate(raw)}
    got = partition(agglomerate(vectors, 1.1))
    assert got == naive_agglomerate(vectors, 1.1)


def test_identical_vectors_merge_in_name_order():
    v = np.array([0.6, 0.8, 0.0])
    vectors = {"a0": v.copy(), "a1": v.copy(), "a2": v.copy(),
               "far": np.array([-0.8, 0.6, 0.0])}
    result = agglomerate(vectors, 0.5)
    assert [(a, b) for a, b, _ in result.merge_log] == [("a0", "a1"),
                                                        ("a0", "a2")]
    for _, _, d in result.merge_log:
        assert abs(d) < 1e-12
    assert result.clusters() == {"c0": ["a0", "a1", "a2"], "c1": ["far"]}


def test_tiny_threshold_keeps_singletons():
    rng = np.random.default_rng(3)
    vectors = blob_vectors(rng, 3, 4)
    result = agglomerate(vectors, 1e-9)
    assert len(result.representatives) == len(vectors)
    assert result.merge_log == []


def test_insertion_order_is_irrelevant():
    rng = np.random.default_rng(5)
    vectors = blob_vectors(rng, 3, 6)
    shuffled = {k: vectors[k] for k in reversed(sorted(vectors))}
    a = agglomerate(vectors, 0.4)
    b = agglomerate(shuffled, 0.4)
    assert partition(a) == partition(b)
    assert a.merge_log == b.merge_log


def test_distance_evaluation_count():
    rng = np.random.default_rng(0)
    vectors = blob_vectors(rng, 4, 8)
    n = len(vectors)
    for threshold in (1e-9, 0.5, 1.5):
        result = agglomerate(vectors, threshold)
        assert result.distance_evaluations == n * (n - 1) // 2


def test_representative_prefers_clicks_then_name():
    v = np.array([1.0, 0.0])
    vectors = {"a0": v, "a1": v, "a2": v}
    result = agglomerate(vectors, 0.5, clicks={"a2": 9, "a1": 3})
    assert result.representatives == {"c0": "a2"}
    result = agglomerate(vectors, 0.5, clicks={})
    assert result.representatives == {"c0": "a0"}


def test_agglomerate_validation():
    v = {"a": np.array([1.0, 0.0])}
    with pytest.raises(ValueError, match="threshold"):
        agglomerate(v, 0.0)
    with pytest.raises(ValueError, match="threshold"):
        agglomerate(v, 2.0)
    with pytest.raises(ValueError, match="at least one"):
        agglomerate({}, 0.5)


def test_product_type_index_and_classification():
    embed = hash_embed_fn(dim=8)
    index = ProductTypeIndex.build(["boots", "anorak", "boots"],
                                   batch_encoder(embed))
    assert index.labels == ["anorak", "boots"]
    assert np.allclose(np.linalg.norm(index.vectors, axis=1), 1.0)
    queries = np.stack([embed("boots") * 3.0, embed("anorak")])
    assert classify_product_type(queries, index) == ["boots", "anorak"]
    with pytest.raises(ValueError):
        ProductTypeIndex.build([], batch_encoder(embed))


def test_classification_tie_takes_smallest_label():
    same = np.array([1.0, 0.0, 0.0])
    index = ProductTypeIndex.build(["zzz", "mmm"],
                                   batch_encoder(lambda text: same))
    assert classify_product_type(same[None, :], index) == ["mmm"]


def test_cluster_topics_partitions_by_type():
    # orthogonal planted directions so classification is unambiguous
    def embed(text):
        v = np.zeros(6)
        axis = 0 if "shoe" in text else 3
        v[axis] = 1.0
        v[axis + 1] = 0.1 * (len(text) % 7)
        return v / np.linalg.norm(v)

    calls = []

    def encode(texts):
        calls.append(list(texts))
        return np.stack([embed(t) for t in texts])

    index = ProductTypeIndex.build(["shoe", "tent"], encode)
    clicks = {"red shoe": 9, "blue shoe": 2, "green tent": 0, "blue tent": 1}
    result = cluster_topics(clicks, encode, index, threshold=1.0)
    # one encoder call for the labels, one for the sorted queries
    assert calls == [["shoe", "tent"],
                     ["blue shoe", "blue tent", "green tent", "red shoe"]]
    types = {q: pt for q, (pt, _) in result.assignments.items()}
    assert types == {"red shoe": "shoe", "blue shoe": "shoe",
                     "green tent": "tent", "blue tent": "tent"}
    assert all(cid.split("#")[0] in ("shoe", "tent")
               for _, cid in result.assignments.values())
    # 4 unique queries x 2 type comparisons + C(2,2) pairwise per type
    assert result.distance_evaluations == 4 * 2 + 1 + 1
    # the higher click count beats the smaller name for rep choice
    shoe_cluster = [cid for q, (pt, cid) in result.assignments.items()
                    if pt == "shoe"]
    assert result.representatives[shoe_cluster[0]] == "red shoe"


def test_cluster_topics_empty_input():
    encode = batch_encoder(hash_embed_fn(4))
    index = ProductTypeIndex.build(["x"], encode)

    def no_encode(texts):
        raise AssertionError("empty input must not be encoded")

    result = cluster_topics({}, no_encode, index, 0.5)
    assert result.assignments == {}
    assert result.distance_evaluations == 0


def test_agglomerate_holds_one_distance_matrix():
    n = 400
    vectors = blob_vectors(np.random.default_rng(0), 20, 20)
    assert len(vectors) == n
    tracemalloc.start()
    try:
        result = agglomerate(vectors, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.merge_log
    # one n x n float64 is 8 n^2 bytes; a second (1 - the product) is not
    assert peak < 1.5 * 8 * n * n, peak
