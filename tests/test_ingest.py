"""Click log / catalog parsing, normalization and blocklist filtering."""

from __future__ import annotations

import json

import pytest

from topicforge import ingest


def test_normalize_query():
    assert ingest.normalize_query("  Running   SHOES! ") == "running shoes"
    assert ingest.normalize_query("iPhone_13 case") == "iphone 13 case"
    assert ingest.normalize_query("blue-green mat") == "blue-green mat"
    assert ingest.normalize_query("???") == ""


def test_parse_click_log_csv(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text(
        "query,page_id,page_type,clicks,impressions\n"
        "Running Shoes,p1,shelf,10,30\n"
        "running shoes,p1,shelf,5,15\n"
        ",p2,item,1,2\n"
        "socks,p3,bogus,1,2\n"
        "socks,p4,item,nine,20\n"
        "socks,p5,item,-1,2\n"
        "socks,p6,item,9,2\n"
        "socks,p7,item,2,6\n",
        encoding="utf-8")
    records, report = ingest.parse_click_log(log)
    assert [r.query for r in records] == ["running shoes", "running shoes", "socks"]
    assert report.rows_ok == 3
    assert report.error_count == 5
    messages = [m for _, m in report.errors]
    assert "empty query after normalization" in messages
    assert any("unknown page_type" in m for m in messages)
    assert "clicks/impressions not integers" in messages
    assert "negative counts" in messages
    assert "clicks exceed impressions" in messages


def test_parse_click_log_bad_header(tmp_path):
    log = tmp_path / "log.csv"
    log.write_text("query,page,clicks\nq,p,1\n", encoding="utf-8")
    with pytest.raises(ingest.IngestError, match="header"):
        ingest.parse_click_log(log)


def test_parse_page_catalog(tmp_path):
    cat = tmp_path / "pages.jsonl"
    rows = [
        {"page_id": "s1", "page_type": "shelf", "title": "Yoga Mats",
         "product_type": "yoga mat"},
        {"page_id": "f1", "page_type": "facet", "title": "blue yoga mat",
         "product_type": "yoga mat",
         "facets": [{"name": "Color", "value": "Blue"}]},
        {"page_id": "f2", "page_type": "facet", "title": "broken facet",
         "product_type": "yoga mat"},
        {"page_id": "s1", "page_type": "shelf", "title": "dup id",
         "product_type": "yoga mat"},
    ]
    cat.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1", "f1"]
    assert pages[0].title == "yoga mats"
    assert pages[1].facets == frozenset([("color", "blue")])
    messages = [m for _, m in report.errors]
    assert "facet page without facet pairs" in messages
    assert any("duplicate page_id" in m for m in messages)


def test_parse_page_catalog_rejects_empty_page_text(tmp_path):
    cat = tmp_path / "pages.jsonl"
    rows = [
        {"page_id": "s1", "page_type": "shelf", "title": "yoga mats",
         "product_type": "yoga mat"},
        {"page_id": "s2", "page_type": "shelf", "title": "camp stoves",
         "product_type": "???"},
        {"page_id": "s3", "page_type": "shelf", "title": "!!!",
         "product_type": "tent"},
        {"page_id": "f1", "page_type": "facet", "title": "!!!",
         "product_type": "yoga mat",
         "facets": [{"name": "color", "value": "blue"}]},
        # only shelf and facet text is encoded; other pages may be untitled
        {"page_id": "i1", "page_type": "item", "title": "???",
         "product_type": ""},
    ]
    cat.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1", "i1"]
    assert report.errors == [(2, "shelf page product_type is empty"),
                             (3, "shelf page title is empty"),
                             (4, "facet page title is empty")]


def test_parse_page_catalog_treats_null_as_missing(tmp_path):
    cat = tmp_path / "pages.jsonl"
    rows = [
        {"page_id": None, "page_type": "shelf", "title": None,
         "product_type": "tents"},
        {"page_id": "s1", "page_type": "shelf", "title": None,
         "product_type": "tents"},
        {"page_id": "s2", "page_type": "shelf", "title": "tents",
         "product_type": None},
        {"page_id": "f1", "page_type": "facet", "title": "red tents",
         "product_type": "tents", "facets": [{"name": "color", "value": None}]},
        {"page_id": "f2", "page_type": "facet", "title": "red tents",
         "product_type": "tents",
         "facets": [{"name": None, "value": "blue"},
                    {"name": "color", "value": "red"}]},
        {"page_id": "i1", "page_type": "item", "title": None,
         "product_type": None},
    ]
    cat.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    pages, report = ingest.parse_page_catalog(cat)
    assert report.errors == [(1, "missing page_id"),
                             (2, "shelf page title is empty"),
                             (3, "shelf page product_type is empty"),
                             (4, "facet page without facet pairs")]
    assert [p.page_id for p in pages] == ["f2", "i1"]
    assert pages[0].facets == frozenset([("color", "red")])
    assert (pages[1].title, pages[1].product_type) == ("", "")


def test_parse_page_catalog_reports_malformed_rows(tmp_path):
    cat = tmp_path / "pages.jsonl"
    shelf = {"page_id": "s1", "page_type": "shelf", "title": "yoga mats",
             "product_type": "yoga mat"}
    lines = [
        json.dumps(shelf),
        "[1, 2]",
        json.dumps({"page_id": "f1", "page_type": "facet", "title": "red mat",
                    "product_type": "yoga mat", "facets": ["color=red"]}),
        json.dumps({"page_id": "f2", "page_type": "facet", "title": "red mat",
                    "product_type": "yoga mat",
                    "facets": {"name": "color", "value": "red"}}),
        json.dumps({"page_id": "f3", "page_type": "facet", "title": "red mat",
                    "product_type": "yoga mat", "facets": "color"}),
    ]
    cat.write_text("\n".join(lines), encoding="utf-8")
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1"]
    assert report.rows_ok == 1
    assert report.errors == [(2, "JSONL row is not an object"),
                             (3, "facets is not a list of objects"),
                             (4, "facets is not a list of objects"),
                             (5, "facets is not a list of objects")]


def test_blocklist_and_filtering(tmp_path):
    bl = tmp_path / "block.txt"
    bl.write_text("# junk sellers\nreplica\nFAKE Brand\n\n", encoding="utf-8")
    terms = ingest.load_blocklist(bl)
    assert terms == {"replica", "fake brand"}

    candidates = [
        ingest.CandidateQuery("replica watch", "file"),
        ingest.CandidateQuery("replicas watch", "file"),  # substring, kept
        ingest.CandidateQuery("fake brand shoes", "file"),
        ingest.CandidateQuery("brand fake shoes", "file"),  # split run, kept
        ingest.CandidateQuery("plain shoes", "file"),
    ]
    kept, removed = ingest.filter_negative_queries(candidates, terms)
    assert [c.query for c in removed] == ["replica watch", "fake brand shoes"]
    assert [c.query for c in kept] == ["replicas watch", "brand fake shoes",
                                       "plain shoes"]


def test_candidates_from_click_log_and_merge():
    records = [
        ingest.ClickRecord("b query", "p1", "item", 4, 10),
        ingest.ClickRecord("a query", "p2", "item", 3, 10),
        ingest.ClickRecord("b query", "p3", "shelf", 2, 10),
    ]
    from_log = ingest.candidates_from_click_log(records)
    assert [(c.query, c.clicks_total) for c in from_log] == [
        ("a query", 3), ("b query", 6)]
