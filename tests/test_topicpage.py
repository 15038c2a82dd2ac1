"""Keyword selection under quota and topic-page emission."""

from __future__ import annotations

import hashlib
import json

import pytest

from topicforge import topicpage
from topicforge.config import PipelineError
from topicforge.pipeline import _write_jsonl
from topicforge.ingest import load_item_catalog, tokenize_text
from topicforge.topicpage import (SelectedTopic, TokenOverlapRetriever,
                                  emit_pages, page_id_for, select_topics)


def test_select_top_k_by_clicks_then_name():
    reps = [SelectedTopic(topic, clicks, f"c-{topic}", "shoes")
            for topic, clicks in (("bravo", 10), ("alpha", 10), ("carts", 99),
                                  ("delta", 1))]
    by_topic = {t.topic: t for t in reps}
    assert select_topics(reps, 2) == [by_topic["carts"], by_topic["alpha"]]
    assert select_topics(reps, 10) == [by_topic[t] for t in
                                       ("carts", "alpha", "bravo", "delta")]
    assert select_topics(reps, 0) == []
    with pytest.raises(ValueError):
        select_topics(reps, -1)


def test_page_id_is_stable():
    # the keyword is hashed as it is: ingest normalized it
    assert page_id_for("red shoes") == hashlib.blake2b(
        b"red shoes", digest_size=8).hexdigest()
    assert page_id_for("red shoes") != page_id_for("blue shoes")
    assert len(page_id_for("x")) == 16  # 8 bytes hex


def test_retriever_ranks_by_overlap_then_id():
    retriever = TokenOverlapRetriever([
        ("i3", "red running shoes"),
        ("i1", "running shoes"),
        ("i2", "blue running shoes for marathons"),
        ("i9", "garden hose"),
    ])
    assert retriever("red running shoes", 10) == ["i3", "i1", "i2"]
    # overlap ties (all share both query tokens) rank by item id
    assert retriever("running shoes", 2) == ["i1", "i2"]
    assert retriever("garden hose", 10) == ["i9"]
    assert retriever("submarine", 10) == []


def test_retriever_from_jsonl(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text(json.dumps({"item_id": "a", "title": "red hat"}) + "\n\n"
                    + json.dumps({"item_id": "b", "title": "blue hat"}) + "\n")
    # as the emit stage builds it
    retriever = TokenOverlapRetriever(load_item_catalog(path))
    assert retriever("hat", 5) == ["a", "b"]


def eager_ranking(items, keyword, k):
    """Reference ranking: tokenize every title up front, as a plain loop."""
    tokens = set(tokenize_text(keyword))
    scored = sorted((-len(tokens & set(tokenize_text(title))),
                     item_id) for item_id, title in items)
    return [item_id for overlap, item_id in scored if overlap < 0][:k]


def test_retriever_tokenizes_titles_once(monkeypatch):
    items = [(f"i{n}", title) for n, title in enumerate(
        ["red running shoes", "running shoes", "blue shoes for marathons",
         "garden hose", "red hat", "red red shoes"])]
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize_text(text)

    monkeypatch.setattr(topicpage, "tokenize_text", counting_tokenize)
    retriever = TokenOverlapRetriever(items)
    assert len(calls) == len(items)  # every title, when built
    for n, keyword in enumerate(["red shoes", "running", "hose", "submarine",
                                 "red hat", "shoes"]):
        assert retriever(keyword, 3) == eager_ranking(items, keyword, 3)
        assert len(calls) == len(items) + n + 1  # titles once, then the keyword


def test_retriever_from_jsonl_rejects_bad_row_at_load(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text(json.dumps({"item_id": "a", "title": "red hat"}) + "\n"
                    + json.dumps({"item_id": "b"}) + "\n")
    with pytest.raises(PipelineError,
                       match="^item catalog line 2: title is missing or empty$"):
        TokenOverlapRetriever(load_item_catalog(path))


@pytest.mark.parametrize("row, message", [
    ('{"item_id": null, "title": "hydration pack deluxe extra"}',
     "item_id is missing or empty"),
    ('{"title": "x"}', "item_id is missing or empty"),
    ('{"item_id": "b", "title": null}', "title is missing or empty"),
    ("not json", "invalid JSON"),
    ("[1, 2]", "JSONL row is not an object"),
    # a page would list the item twice
    ('{"item_id": "a", "title": "red hat deluxe"}', "duplicate item_id 'a'")])
def test_retriever_from_jsonl_names_the_bad_line(tmp_path, row, message):
    path = tmp_path / "items.jsonl"
    path.write_text(json.dumps({"item_id": "a", "title": "red hat"})
                    + "\n\n" + row + "\n")
    with pytest.raises(PipelineError, match=f"^item catalog line 3: {message}$"):
        TokenOverlapRetriever(load_item_catalog(path))


def test_emit_pages_flags_and_truncates():
    retriever = TokenOverlapRetriever(
        [(f"i{n}", "red shoes model " + "x" * n) for n in range(5)])

    def flaky(keyword, k):
        if keyword == "boom":
            raise RuntimeError("index offline")
        return retriever(keyword, k)

    topics = [SelectedTopic("red shoes", 9, "shoes#0", "shoes"),
              SelectedTopic("boom", 5, "boom#0", "boom"),
              SelectedTopic("submarine", 4, "sub#0", "sub")]
    specs, flagged = emit_pages(topics, flaky, k=3)
    assert [s.source_cluster for s in specs] == ["shoes#0"]
    assert len(specs[0].item_ids) == 3
    assert specs[0].source_cluster == "shoes#0"
    assert specs[0].product_type == "shoes"
    reasons = dict(flagged)
    assert "index offline" in reasons["boom"]
    assert reasons["submarine"] == "no items retrieved"
    with pytest.raises(ValueError):
        emit_pages(topics, flaky, k=0)


def test_spec_round_trip(tmp_path):
    retriever = TokenOverlapRetriever([("i1", "red shoes"),
                                       ("i2", "blue shoes")])
    specs, _ = emit_pages([SelectedTopic("red shoes", 3, "c0", "shoes"),
                           SelectedTopic("blue shoes", 2, "c1", "shoes")],
                          retriever, k=2)
    path = tmp_path / "pages.jsonl"
    # as the emit stage writes them
    _write_jsonl(path, map(vars, specs))
    written = path.read_bytes()
    rows = [json.loads(line) for line in written.decode("utf-8").splitlines()]
    assert rows == [{"topic": s.topic, "page_id": s.page_id,
                     "item_ids": list(s.item_ids),
                     "source_cluster": s.source_cluster,
                     "product_type": s.product_type} for s in specs]
    assert all(list(row) == sorted(row) for row in rows)
    _write_jsonl(path, map(vars, specs))
    assert path.read_bytes() == written  # rewrite is stable
