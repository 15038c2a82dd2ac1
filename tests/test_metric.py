"""Interactive metric: worked example, aggregation semantics, sampling."""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest

from oracles import materialized_negatives
from topicforge import metric
from topicforge.ingest import ClickRecord


def rec(query, page, clicks, page_type="item"):
    return ClickRecord(query, page, page_type, clicks, clicks * 2)


def test_worked_example_reproduced():
    # two queries sharing one page: 42 and 43 co-clicks out of 52 and 55
    records = [
        rec("q1", "shared", 42), rec("q1", "own1", 10),
        rec("q2", "shared", 43), rec("q2", "own2", 12),
    ]
    stats = metric.aggregate_clicks(records)
    assert stats.totals == {"q1": 52, "q2": 55}
    value = metric.interactive_metric(stats, "q1", "q2")
    assert value == pytest.approx(math.sqrt((42 * 43) / (52 * 55)), abs=1e-12)
    assert value == pytest.approx(0.7946496, abs=1e-6)


def test_metric_is_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a_shared, b_shared = rng.integers(1, 40, size=2)
        a_own, b_own = rng.integers(0, 40, size=2)
        records = [rec("a", "p", int(a_shared)), rec("b", "p", int(b_shared))]
        if a_own:
            records.append(rec("a", "pa", int(a_own)))
        if b_own:
            records.append(rec("b", "pb", int(b_own)))
        stats = metric.aggregate_clicks(records)
        ab = metric.interactive_metric(stats, "a", "b")
        ba = metric.interactive_metric(stats, "b", "a")
        assert ab == ba
        assert 0.0 < ab <= 1.0


def test_full_overlap_gives_one():
    records = [rec("a", "p1", 7), rec("a", "p2", 3),
               rec("b", "p1", 9), rec("b", "p2", 1)]
    stats = metric.aggregate_clicks(records)
    assert metric.interactive_metric(stats, "a", "b") == pytest.approx(1.0)


def test_no_shared_pages_gives_zero():
    stats = metric.aggregate_clicks([rec("a", "p1", 5), rec("b", "p2", 5)])
    assert metric.interactive_metric(stats, "a", "b") == 0.0


def test_zero_total_clicks_is_undefined():
    stats = metric.aggregate_clicks([rec("a", "p1", 5), rec("b", "p2", 0)])
    with pytest.raises(metric.UndefinedMetricError):
        metric.interactive_metric(stats, "a", "b")


def test_repeated_rows_and_multi_page_coclicks_sum():
    records = [
        rec("a", "p1", 2), rec("a", "p1", 3), rec("a", "p2", 5),
        rec("b", "p1", 4), rec("b", "p2", 6), rec("b", "own", 10),
    ]
    stats = metric.aggregate_clicks(records)
    assert stats.totals == {"a": 10, "b": 20}
    # co-clicks accumulate over both shared pages
    assert stats.pairs[("a", "b")] == (10, 10)
    assert metric.interactive_metric(stats, "a", "b") == pytest.approx(
        math.sqrt((10 * 10) / (10 * 20)))


def make_blob_stats():
    # two tight groups of 4 plus one isolated query
    records = []
    for tag, queries in (("g1", "abcd"), ("g2", "wxyz")):
        for q in queries:
            records.append(rec(f"{tag}-{q}", f"{tag}-shared", 10))
            records.append(rec(f"{tag}-{q}", f"{tag}-own-{q}", 5))
    records.append(rec("loner", "loner-page", 30))
    return metric.aggregate_clicks(records)


def test_build_training_set_auto_ratio_counts():
    stats = make_blob_stats()
    samples = metric.build_training_set(stats, negative_ratio="auto", seed=0)
    positives = [s for s in samples if s.interactive > 0]
    negatives = [s for s in samples if s.interactive == -1.0]
    assert len(positives) == 12  # C(4,2) per group
    mean_pos = sum(s.interactive for s in positives) / len(positives)
    assert len(negatives) == round(len(positives) / mean_pos)
    # negatives only between queries sharing no page
    pos_keys = set(stats.pairs)
    for s in negatives:
        assert (s.query_a, s.query_b) not in pos_keys


def test_build_training_set_ratio():
    stats = make_blob_stats()
    samples = metric.build_training_set(stats, negative_ratio=2.0, seed=1)
    positives = [s for s in samples if s.interactive > 0]
    negatives = [s for s in samples if s.interactive < 0]
    assert len(negatives) == round(len(positives) / 2.0)

    no_neg = metric.build_training_set(stats, negative_ratio=0, seed=1)
    assert all(s.interactive > 0 for s in no_neg)

    with pytest.raises(ValueError):
        metric.build_training_set(stats, negative_ratio=-1)


def test_build_training_set_caps_at_available_negatives():
    # 3 queries all sharing one page: no negative pair exists
    records = [rec(q, "p", 5) for q in "abc"]
    stats = metric.aggregate_clicks(records)
    samples = metric.build_training_set(stats, negative_ratio="auto", seed=0)
    assert all(s.interactive > 0 for s in samples)


def test_build_training_set_deterministic():
    stats = make_blob_stats()
    one = metric.build_training_set(stats, negative_ratio="auto", seed=42)
    two = metric.build_training_set(stats, negative_ratio="auto", seed=42)
    other = metric.build_training_set(stats, negative_ratio="auto", seed=43)
    assert one == two
    assert one != other


def expected_training_set(stats, negative_ratio, seed):
    """``build_training_set`` by its definition, negatives from a listed pool."""
    positives = metric.positive_pairs(stats)
    if negative_ratio == 0 or not positives:
        return positives
    if negative_ratio == "auto":
        ratio = sum(s.interactive for s in positives) / len(positives)
    else:
        ratio = float(negative_ratio)
    n_neg = round(len(positives) / ratio)
    return positives + materialized_negatives(stats, n_neg, seed)


def random_coclick_stats(seed, n_queries, n_pages, pages_per_query):
    """Seeded random co-click graph: each query clicks a few shared pages."""
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_queries):
        for page in rng.choice(n_pages, size=pages_per_query, replace=False):
            records.append(rec(f"q{q:03d}", f"p{page}", int(rng.integers(1, 9))))
    return metric.aggregate_clicks(records)


@pytest.mark.parametrize("seed,n_queries,n_pages,pages_per_query", [
    (1, 120, 400, 1),  # sparse: ~20 co-clicked pairs among 7,140
    (2, 40, 30, 2),    # medium
    (3, 30, 4, 2),     # dense: most pairs co-clicked
    (4, 25, 3, 3),     # every query on every page: no free pair
])
@pytest.mark.parametrize("negative_ratio", ["auto", 2.0, 0.05])
def test_build_training_set_matches_materialized_pool(
        seed, n_queries, n_pages, pages_per_query, negative_ratio):
    stats = random_coclick_stats(seed, n_queries, n_pages, pages_per_query)
    for draw_seed in (0, 7):
        got = metric.build_training_set(stats, negative_ratio, draw_seed)
        assert got == expected_training_set(stats, negative_ratio, draw_seed)


def test_complete_graph_returns_positives_with_warning(caplog):
    stats = random_coclick_stats(4, 25, 3, 3)
    assert len(stats.pairs) == 25 * 24 // 2
    with caplog.at_level(logging.WARNING, logger="topicforge.metric"):
        got = metric.build_training_set(stats, "auto", 0)
    assert got == metric.positive_pairs(stats)
    assert "no negative pairs available" in caplog.text


def test_negative_count_capped_at_free_pairs(caplog):
    # a co-clicks with b and c, d clicks alone: 3 free pairs, 400 wanted
    records = [rec(q, "shared", 5) for q in "abc"] + [rec("d", "own", 5)]
    stats = metric.aggregate_clicks(records)
    with caplog.at_level(logging.WARNING, logger="topicforge.metric"):
        got = metric.build_training_set(stats, 0.0075, 1)
    assert "only 3 negative pairs available (wanted 400)" in caplog.text
    assert got == expected_training_set(stats, 0.0075, 1)
    negatives = {(s.query_a, s.query_b) for s in got if s.interactive < 0}
    assert negatives == {("a", "d"), ("b", "d"), ("c", "d")}


def test_tiny_negative_ratio_draws_every_free_pair(caplog):
    # 3 positives / 1e-320 overflows to an infinite wanted count
    records = [rec(q, "shared", 5) for q in "abc"] + [rec("d", "own", 5)]
    stats = metric.aggregate_clicks(records)
    with caplog.at_level(logging.WARNING, logger="topicforge.metric"):
        got = metric.build_training_set(stats, 1e-320, 1)
    assert "only 3 negative pairs available (wanted inf)" in caplog.text
    assert got == (metric.positive_pairs(stats)
                   + materialized_negatives(stats, 3, 1))


def test_only_free_pair_in_last_row_is_drawn():
    # a, b, c, d all co-click except the last pair (c, d) = (n-2, n-1)
    records = [rec("a", "p1", 3), rec("b", "p1", 3), rec("c", "p1", 3),
               rec("a", "p2", 2), rec("b", "p2", 2), rec("d", "p2", 2)]
    stats = metric.aggregate_clicks(records)
    assert ("c", "d") not in stats.pairs and len(stats.pairs) == 5
    got = metric.build_training_set(stats, 1.0, 0)
    assert [s for s in got if s.interactive < 0] == [
        metric.QueryPairSample("c", "d", -1.0)]
    assert got == expected_training_set(stats, 1.0, 0)


def test_zero_click_query_is_never_a_negative():
    records = [rec("a", "p", 4), rec("b", "p", 4), rec("c", "q", 4),
               rec("d", "r", 4), rec("idle", "p", 0)]
    stats = metric.aggregate_clicks(records)
    assert stats.totals["idle"] == 0
    for seed in range(5):
        got = metric.build_training_set(stats, 0.2, seed)
        assert got == expected_training_set(stats, 0.2, seed)
        assert all("idle" not in (s.query_a, s.query_b) for s in got)


def test_negative_sampling_memory_stays_flat():
    # 3,000 clicked queries: a listed pool would hold 4.5M tuples (~300 MB)
    stats = metric.CoClickStats()
    stats.totals = {f"q{k:04d}": 3 for k in range(3000)}
    for k in range(0, 600, 2):
        stats.pairs[(f"q{k:04d}", f"q{k + 1:04d}")] = (1, 1)
    tracemalloc.start()
    try:
        samples = metric.build_training_set(stats, "auto", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(s.interactive < 0 for s in samples) == 900
    assert peak < 20 * 2**20
