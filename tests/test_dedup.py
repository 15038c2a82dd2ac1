"""Dedup: the shelf path must equal brute force exactly, the facet path must
equal an exhaustive scan whenever narrowing retains the true best page, and
batched decisions must match deciding one query at a time."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import batch_encoder, hash_embed_fn
from topicforge.dedup import (Deduper, FacetIndex, build_shelf_index,
                              dedup_all, dedup_against_shelves)
from topicforge.ingest import PageRecord
from topicforge.tokenizer import FacetMatcher

MATCHER = FacetMatcher({"color": {"red", "blue", "black"},
                        "gender": {"mens", "womens"}})
NO_FACETS = FacetIndex([])


def shelf(page_id, title, product_type):
    return PageRecord(page_id, "shelf", title, product_type)


def facet(page_id, title, product_type, **facets):
    return PageRecord(page_id, "facet", title, product_type,
                      frozenset(facets.items()))


def small_catalog():
    return [
        shelf("s-shoe", "running shoes", "shoes"),
        shelf("s-case", "phone case", "cases"),
        facet("f-shoe-red", "red running shoes", "shoes", color="red"),
        facet("f-shoe-blue", "blue running shoes", "shoes", color="blue"),
        facet("f-shoe-mens", "mens running shoes", "shoes", gender="mens"),
        facet("f-case-red", "red phone case", "cases", color="red"),
    ]


def test_shelf_search_equals_brute_force():
    embed = hash_embed_fn(dim=12)
    catalog = [shelf(f"s{i:03d}", f"aisle {i} gadgets", f"type{i % 7}")
               for i in range(60)]
    index = build_shelf_index(catalog, batch_encoder(embed))
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.standard_normal(12)
        v /= np.linalg.norm(v)
        [(page, sim)] = dedup_against_shelves(v[None, :], index)
        sims = {p.page_id: float(embed(p.title) @ v) for p in catalog}
        want = max(sims, key=sims.get)
        assert page == want
        assert sim == pytest.approx(sims[want], abs=1e-12)


def test_empty_shelf_catalog():
    # like ProductTypeIndex.build: no shelf, nothing to dedup against
    with pytest.raises(ValueError, match="no shelf pages"):
        build_shelf_index([], batch_encoder(hash_embed_fn(4)))


def test_shelf_index_sorted_and_typed():
    embed = hash_embed_fn(dim=6)
    catalog = [shelf("s-b", "b title", "tb"), shelf("s-a", "a title", "ta"),
               facet("f-x", "x", "ta", color="red")]
    index = build_shelf_index(catalog, batch_encoder(embed))
    assert index.page_ids == ["s-a", "s-b"]
    assert index.product_types == {"s-a": "ta", "s-b": "tb"}


def bow_embed(text: str) -> np.ndarray:
    """Bag-of-words axes: similarity is exactly token overlap."""
    axes = {"red": 0, "blue": 1, "black": 2, "mens": 3, "womens": 4,
            "running": 5, "shoes": 6, "phone": 7, "case": 8, "suede": 9,
            "wagon": 10, "aisle": 11, "gadgets": 12, "leather": 13,
            "wallet": 14}
    v = np.zeros(16)
    for token in text.lower().split():
        v[axes[token]] = 1.0
    return v / np.linalg.norm(v)


def narrowed_pages(catalog, query):
    """The facet pages ``Deduper.decide`` scores for ``query``: the titles it
    encodes after the query itself, by page id."""
    calls = []

    def encode(texts):
        calls.append(list(texts))
        return batch_encoder(bow_embed)(texts)

    deduper = Deduper(build_shelf_index(catalog, encode), FacetIndex(catalog),
                      encode, MATCHER, threshold=0.86)
    calls.clear()
    deduper.decide([query])
    by_title = {p.title: p.page_id for p in catalog if p.page_type == "facet"}
    return [by_title[t] for t in calls[1]] if len(calls) > 1 else []


def test_narrowing_selects_same_type_shared_facet():
    catalog = small_catalog()
    assert narrowed_pages(catalog, "red running shoes") == ["f-shoe-red"]
    assert narrowed_pages(catalog, "red mens running shoes") == [
        "f-shoe-mens", "f-shoe-red"]
    # same facet, other product type: the shoe page is not a candidate
    assert narrowed_pages(catalog, "red phone case") == ["f-case-red"]
    assert narrowed_pages(catalog, "leather wallet") == []


def test_exact_title_match_is_a_facet_duplicate():
    encode = batch_encoder(hash_embed_fn(dim=16))
    catalog = small_catalog()
    deduper = Deduper(build_shelf_index(catalog, encode),
                      FacetIndex(catalog), encode,
                      MATCHER, threshold=0.86)
    [decision] = deduper.decide(["red running shoes"])
    assert decision.verdict == "duplicate"
    assert decision.best_match == "f-shoe-red"
    assert decision.path == "facet"
    assert decision.best_similarity == pytest.approx(1.0, abs=1e-12)


def test_exact_shelf_match_stays_on_shelf_path():
    # facet candidates exist but cannot beat similarity 1.0: strict greater
    # keeps the shelf attribution
    encode = batch_encoder(hash_embed_fn(dim=16))
    catalog = small_catalog() + [facet("f-shoe-red2", "running shoes", "shoes",
                                       color="red")]
    deduper = Deduper(build_shelf_index(catalog, encode),
                      FacetIndex(catalog), encode,
                      MATCHER, threshold=0.86)
    [decision] = deduper.decide(["red running shoes"])
    # the duplicated-title facet page ties the true facet page at 1.0; the
    # first exact hit wins and later ties cannot displace it
    assert decision.verdict == "duplicate"
    assert decision.best_similarity == pytest.approx(1.0, abs=1e-12)


def test_facet_path_equals_exhaustive_scan_when_narrowing_retains_max():
    catalog = small_catalog()
    encode = batch_encoder(bow_embed)
    shelf_index = build_shelf_index(catalog, encode)
    deduper = Deduper(shelf_index, FacetIndex(catalog), encode, MATCHER,
                      threshold=0.86)
    facet_pages = [p for p in catalog if p.page_type == "facet"]
    queries = ["red running shoes", "blue running shoes",
               "mens running shoes", "red phone case",
               "blue suede shoes", "red wagon"]
    checked = 0
    for query, decision in zip(queries, deduper.decide(queries)):
        qv = bow_embed(query)
        exhaustive = {p.page_id: float(bow_embed(p.title) @ qv)
                      for p in facet_pages}
        best_facet = max(exhaustive, key=exhaustive.get)
        shelf_best = max(float(bow_embed(p.title) @ qv)
                         for p in catalog if p.page_type == "shelf")
        narrowed = narrowed_pages(catalog, query)
        if best_facet in narrowed and exhaustive[best_facet] > shelf_best:
            assert decision.best_match == best_facet
            assert decision.best_similarity == pytest.approx(
                exhaustive[best_facet], abs=1e-12)
            checked += 1
    assert checked >= 4


def test_threshold_boundary_is_inclusive():
    encode = batch_encoder(hash_embed_fn(dim=16))
    catalog = [shelf("s1", "alpha", "t")]
    index = build_shelf_index(catalog, encode)
    [(_, sim)] = dedup_against_shelves(encode(["alpha"]), index)
    deduper = Deduper(index, NO_FACETS, encode, MATCHER, threshold=sim)
    assert deduper.decide(["alpha"])[0].verdict == "duplicate"
    deduper = Deduper(index, NO_FACETS, encode, MATCHER,
                      threshold=min(sim + 1e-9, 1.0))
    assert deduper.decide(["alpha"])[0].verdict == "duplicate"  # sim == 1 exactly


def test_threshold_validation():
    encode = batch_encoder(hash_embed_fn(4))
    index = build_shelf_index([shelf("s", "t", "p")], encode)
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError, match="threshold"):
            Deduper(index, NO_FACETS, encode, MATCHER, threshold=bad)


def test_dedup_all_stats_and_skip_counter():
    encode = batch_encoder(hash_embed_fn(dim=16))
    catalog = small_catalog()
    deduper = Deduper(build_shelf_index(catalog, encode),
                      FacetIndex(catalog), encode,
                      MATCHER, threshold=0.86)
    queries = ["red running shoes", "running shoes", "quantum flux manifold"]
    decisions, stats = dedup_all(queries, deduper)
    assert [d.query for d in decisions] == queries
    assert stats["total"] == 3
    assert stats["kept"] + stats["duplicate"] == 3
    # "running shoes" and the nonsense query extract no facets
    assert stats["facet_path_skipped"] == 2
    # rerunning counts the same again
    _, stats2 = dedup_all(queries, deduper)
    assert stats2["facet_path_skipped"] == 2


def test_batched_decisions_match_single_query_decisions():
    # counts encoder calls: one for the queries, one for the narrowed pages
    calls = []
    base = batch_encoder(hash_embed_fn(dim=16))

    def encode(texts):
        calls.append(list(texts))
        return base(texts)

    catalog = small_catalog() + [
        facet("f-shoe-red-mens", "red mens running shoes", "shoes",
              color="red", gender="mens")]
    deduper = Deduper(build_shelf_index(catalog, encode), FacetIndex(catalog),
                      encode, MATCHER, threshold=0.86)
    queries = ["red running shoes", "mens running shoes", "blue running shoes",
               "red mens running shoes", "running shoes", "red phone case",
               "quantum flux manifold"]
    calls.clear()
    batched = deduper.decide(queries)
    assert len(calls) == 2
    assert calls[0] == queries
    # the union of narrowed facet pages, each encoded once
    facet_titles = {p.title for p in catalog if p.page_type == "facet"}
    assert calls[1] and set(calls[1]) <= facet_titles
    assert len(calls[1]) == len(set(calls[1]))
    single = [deduper.decide([q])[0] for q in queries]
    for got, want in zip(batched, single):
        assert (got.query, got.verdict, got.best_match, got.path) == (
            want.query, want.verdict, want.best_match, want.path)
        assert got.best_similarity == pytest.approx(want.best_similarity,
                                                    abs=1e-12)
    assert deduper.decide([]) == []


def test_empty_shelf_index_and_no_facet_index():
    # a facet-only catalog builds no shelf index; a catalog without facet
    # pages leaves every decision on the shelf path
    encode = batch_encoder(hash_embed_fn(dim=16))
    facets = [p for p in small_catalog() if p.page_type == "facet"]
    with pytest.raises(ValueError, match="no shelf pages"):
        build_shelf_index(facets, encode)
    deduper = Deduper(build_shelf_index(small_catalog(), encode), NO_FACETS,
                      encode, MATCHER, threshold=0.86)
    [decision] = deduper.decide(["red running shoes"])
    assert decision.path == "shelf" and decision.best_match == "s-shoe"
    assert decision.facet_pages == 0


def test_dedup_report_csv():
    encode = batch_encoder(hash_embed_fn(dim=16))
    catalog = small_catalog()
    deduper = Deduper(build_shelf_index(catalog, encode), NO_FACETS, encode,
                      MATCHER, threshold=0.86)
    [decision] = deduper.decide(["running shoes"])
    assert decision.verdict == "duplicate"
    assert decision.best_match == "s-shoe"
    assert decision.path == "shelf"
    assert decision.best_similarity == pytest.approx(1.0, abs=5e-7)
