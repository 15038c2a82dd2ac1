"""Click log / catalog parsing, normalization and blocklist filtering."""

from __future__ import annotations

import ast
import json
import random
import re
from pathlib import Path

import pytest

import oracles
from topicforge import ingest
from topicforge.config import PipelineError


def test_normalize_query():
    assert ingest.normalize_query("  Running   SHOES! ") == "running shoes"
    assert ingest.normalize_query("iPhone_13 case") == "iphone 13 case"
    assert ingest.normalize_query("blue-green mat") == "blue-green mat"
    assert ingest.normalize_query("???") == ""


# characters whose case mapping or class is context-dependent or multi-char
TRICKY = ["Σ", "ς", "σ", "İ", "ı", "\u0307", "\u0345", "ß", "ǅ", "ﬃ", "_",
          "-", "!", ",", ".", "'", "·", " ", "\t", "\n", "\u00a0", "\u2028",
          "A", "a", "1"]


def test_normalize_query_is_idempotent():
    # later stages take ingest's text as it is, which is only sound when
    # normalizing normalized text changes nothing
    for code_point in range(0x10000):
        once = ingest.normalize_query(chr(code_point))
        assert ingest.normalize_query(once) == once, hex(code_point)
    rng = random.Random(31)
    for _ in range(20_000):
        text = "".join(rng.choice(TRICKY) if rng.random() < 0.7
                       else chr(rng.randrange(0x10000))
                       for _ in range(rng.randint(1, 8)))
        once = ingest.normalize_query(text)
        assert ingest.normalize_query(once) == once, ascii(text)


SOURCES = sorted(Path(ingest.__file__).parent.glob("*.py"))


def test_only_ingest_normalizes_text():
    callers = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "normalize_query" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add(path.name)
    assert callers == {"ingest.py"}


def test_no_module_reaches_for_a_private_ingest_name():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "ingest", "topicforge.ingest"):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("ingest", "ingest_mod")):
                names = [node.attr]
            else:
                continue
            assert not [n for n in names if n.startswith("_")], path.name


def test_item_catalog_titles_are_normalized(tmp_path):
    items = tmp_path / "items.jsonl"
    items.write_text(json.dumps({"item_id": "A-1", "title": " Red, HAT!"})
                     + "\n" + json.dumps({"item_id": "b", "title": "??"})
                     + "\n", encoding="utf-8")
    # the id is kept as it is; a title with no token never matches
    assert ingest.load_item_catalog(items, ["hat"]) == [("A-1", "red hat")]


def test_item_catalog_keeps_the_items_a_keyword_can_retrieve(tmp_path):
    items = tmp_path / "items.jsonl"
    rows = [("c", "Red Hat"), ("a", "blue shoes"), ("b", "red-ish mat"),
            ("d", "garden hose"), ("e", "blue hat")]
    items.write_text("".join(json.dumps({"item_id": i, "title": t}) + "\n"
                             for i, t in rows), encoding="utf-8")
    # a pair is kept when its title shares a whole token with a keyword,
    # in file order; with no keyword the file is only checked
    assert ingest.load_item_catalog(items, ["red shoes", "hose"]) == [
        ("c", "red hat"), ("a", "blue shoes"), ("d", "garden hose")]
    assert ingest.load_item_catalog(items, ["hat"]) == [("c", "red hat"),
                                                        ("e", "blue hat")]
    assert ingest.load_item_catalog(items, ["submarine"]) == []
    assert ingest.load_item_catalog(items) == []
    # a line past every kept pair is still checked
    with items.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"item_id": "a", "title": "kayak"}) + "\n")
    with pytest.raises(PipelineError,
                       match="^item catalog line 6: duplicate item_id 'a'$"):
        ingest.load_item_catalog(items, ["hat"])


@pytest.mark.parametrize("ends", [b"\n", b"\r\n", b"\r", b"\r\r\n\n"])
def test_streamed_lines_equal_the_whole_file_split(tmp_path, ends):
    # CR-only, CR LF and mixed line ends, a leading byte-order mark, blank
    # lines and a last line with no end: read a line at a time, the same
    # lines as the whole file split
    path = tmp_path / "items.jsonl"
    rows = [b'{"item_id": "a", "title": "red hat"}', b"",
            b'{"item_id": "b", "title": "blue hat"}', b"  ",
            b'{"item_id": "c", "title": "hat"}']
    for data in (BOM + ends.join(rows) + ends, ends.join(rows),
                 ends + ends.join(rows)):
        path.write_bytes(data)
        lines = data.removeprefix(BOM).splitlines()
        assert list(ingest._read_lines(path, "item catalog")) == lines
        # the same pairs, and a bad row named at the same line
        assert ingest.load_item_catalog(path, ["hat"]) == [
            ("a", "red hat"), ("b", "blue hat"), ("c", "hat")]
        bad = lines.index(rows[2]) + 1
        path.write_bytes(data.replace(b'"blue hat"', b"null"))
        with pytest.raises(PipelineError, match=(
                f"^item catalog line {bad}: title is missing or empty$")):
            ingest.load_item_catalog(path, ["hat"])


@pytest.mark.parametrize("what, parse", [
    ("click log", ingest.parse_click_log),
    ("page catalog", ingest.parse_page_catalog),
    ("blocklist", ingest.load_blocklist),
    ("facet lexicon", ingest.load_facet_lexicon),
    ("item catalog", ingest.load_item_catalog)])
def test_unreadable_input_is_named(tmp_path, what, parse):
    with pytest.raises(PipelineError, match=f"^cannot read {what} "):
        parse(tmp_path / "missing")


def test_empty_click_log_has_no_header_and_no_rows(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(BOM)
    assert ingest.parse_click_log(log) == ([], ingest.ParseReport())


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
    with pytest.raises(PipelineError, match="header"):
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


def test_catalog_row_may_hold_a_raw_line_separator(tmp_path):
    cat = tmp_path / "pages.jsonl"
    rows = [{"page_id": "s1", "page_type": "shelf",
             "title": "yoga\u2028mats", "product_type": "yoga mat"},
            {"page_id": "s2", "page_type": "shelf", "title": "tents",
             "product_type": "???"}]
    # valid JSON: U+2028 is a character of the title, not a line end
    cat.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows),
                   encoding="utf-8")
    pages, report = ingest.parse_page_catalog(cat)
    assert [(p.page_id, p.title) for p in pages] == [("s1", "yoga mats")]
    assert report.errors == [(2, "shelf page product_type is empty")]


def test_click_row_is_split_at_line_ends_only(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"query,page_id,page_type,clicks,impressions\n"
                    b"red\x1cshoes,p1,item,1,2\r"
                    b"tall\x0bboots,p2,item,1,2\r\n"
                    # a quoted field ends at its line's end
                    b'"blue shoes,p3,item,1,2\n'
                    b"green shoes,p4,item,1,2\n")
    records, report = ingest.parse_click_log(log)
    assert [(r.query, r.page_id) for r in records] == [
        ("red shoes", "p1"), ("tall boots", "p2"), ("green shoes", "p4")]
    assert report.errors == [(4, "expected 5 fields, got 1")]


def test_line_that_is_not_utf8_is_a_row_error(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"query,page_id,page_type,clicks,impressions\n"
                    b"caf\xe9 shoes,p1,item,1,2\n"
                    b"caf\xc3\xa9 shoes,p1,item,1,2\n")
    records, report = ingest.parse_click_log(log)
    assert [r.query for r in records] == ["café shoes"]
    assert report.errors == [(2, "line is not UTF-8 text")]
    cat = tmp_path / "pages.jsonl"
    cat.write_bytes(b'{"page_id": "s1", "page_type": "shelf", '
                    b'"title": "caf\xe9", "product_type": "cafe"}\n'
                    b'{"page_id": "s1", "page_type": "item"}\n')
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1"]
    assert report.errors == [(1, "line is not UTF-8 text")]
    # the header is no row: one that is not UTF-8 does not match
    log.write_bytes(b"qu\xe9ry,page_id,page_type,clicks,impressions\n")
    with pytest.raises(PipelineError, match="^click log header "):
        ingest.parse_click_log(log)


def test_line_that_is_not_utf8_stops_a_lexicon_catalog_or_blocklist(
        tmp_path):
    path = tmp_path / "raw"
    for what, good, load in [
            ("blocklist", b"replica", ingest.load_blocklist),
            ("facet lexicon", b'{"facet_name": "size", "values": ["large"]}',
             ingest.load_facet_lexicon),
            ("item catalog", b'{"item_id": "a", "title": "red hat"}',
             ingest.load_item_catalog)]:
        # line 2 is blank: LF ends line 1, CR LF line 2; then CR LF ends
        # line 1 and a bare CR line 2
        for ends in (b"\n\r\n", b"\r\n\r"):
            path.write_bytes(good + ends + b"caf\xe9\n")
            with pytest.raises(PipelineError,
                               match=f"^{what} line 3: line is not UTF-8 text$"):
                load(path)


HEADER = b"query,page_id,page_type,clicks,impressions\n"


def test_click_cell_over_the_csv_field_limit_is_a_row_error(tmp_path):
    log = tmp_path / "log.csv"
    big = b"x" * (128 * 1024 + 1)
    log.write_bytes(HEADER + big + b",p1,item,1,2\nshoes,p1,item,1,2\n")
    records, report = ingest.parse_click_log(log)
    assert [r.query for r in records] == ["shoes"]
    assert report.errors == [(2, "field larger than field limit (131072)")]
    # the header is no row: it stops the parse, without a traceback
    log.write_bytes(big + b"\n")
    with pytest.raises(PipelineError,
                       match=r"^click log header: field larger than field"):
        ingest.parse_click_log(log)


def test_catalog_line_nested_too_deeply_is_a_row_error(tmp_path):
    cat = tmp_path / "pages.jsonl"
    cat.write_bytes(b"[" * 100_000 + b"\n"
                    b'{"page_id": "s1", "page_type": "shelf", '
                    b'"title": "hats", "product_type": "hats"}\n')
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1"]
    assert report.errors == [(1, "JSON nested too deeply")]


def test_line_nested_too_deeply_stops_a_lexicon_or_item_catalog(tmp_path):
    path = tmp_path / "raw.jsonl"
    for what, good, load in [
            ("facet lexicon", b'{"facet_name": "size", "values": ["large"]}',
             ingest.load_facet_lexicon),
            ("item catalog", b'{"item_id": "a", "title": "red hat"}',
             ingest.load_item_catalog)]:
        path.write_bytes(good + b"\n" + b"[" * 100_000 + b"\n")
        with pytest.raises(PipelineError,
                           match=f"^{what} line 2: JSON nested too deeply$"):
            load(path)


BOM = "﻿".encode("utf-8")


def test_leading_byte_order_mark_is_dropped(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(BOM + HEADER + b"shoes,p1,item,1,2\n")
    records, report = ingest.parse_click_log(log)
    assert [r.query for r in records] == ["shoes"]
    assert report.errors == []
    cat = tmp_path / "pages.jsonl"
    cat.write_bytes(BOM + b'{"page_id": "s1", "page_type": "shelf", '
                          b'"title": "hats", "product_type": "hats"}\n')
    pages, report = ingest.parse_page_catalog(cat)
    assert [p.page_id for p in pages] == ["s1"]
    assert report.errors == []
    lexicon = tmp_path / "lexicon.jsonl"
    lexicon.write_bytes(BOM + b'{"facet_name": "size", "values": ["large"]}\n')
    assert ingest.load_facet_lexicon(lexicon) == {"size": {"large"}}
    blocklist = tmp_path / "blocklist.txt"
    blocklist.write_bytes(BOM + b"replica\n")
    assert ingest.load_blocklist(blocklist) == {"replica"}
    items = tmp_path / "items.jsonl"
    items.write_bytes(BOM + b'{"item_id": "a", "title": "red hat"}\n')
    assert ingest.load_item_catalog(items, ["hat"]) == [("a", "red hat")]
    # only one: a second mark is the first row's text
    log.write_bytes(BOM + BOM + HEADER)
    with pytest.raises(PipelineError, match="^click log header "):
        ingest.parse_click_log(log)


def test_blocklist_and_filtering(tmp_path):
    bl = tmp_path / "block.txt"
    bl.write_text("# junk sellers\nreplica\nFAKE Brand\n\n", encoding="utf-8")
    terms = ingest.load_blocklist(bl)
    assert terms == {"replica", "fake brand"}

    candidates = [
        ingest.CandidateQuery("replica watch"),
        ingest.CandidateQuery("replicas watch"),  # substring, kept
        ingest.CandidateQuery("fake brand shoes"),
        ingest.CandidateQuery("brand fake shoes"),  # split run, kept
        ingest.CandidateQuery("plain shoes"),
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


# ---------------------------------------------------------------------------
# differential check against the parsers' earlier two-loop form
# ---------------------------------------------------------------------------

# cell and field values that reach every row message; none holds a character
# that str.splitlines() but not a line reader ends a line at, a byte that is
# not UTF-8, or a quote that leaves a CSV field open at the line's end
QUERIES = ["Running Shoes", "socks", "???", "", "  ", "blue-green mat",
           "iPhone_13 case", "red, blue shoes", 'the "best" mat', "café\tmat",
           "x\x00y"]
PAGE_IDS = ["p1", " p2 ", "", "  ", "p,3"]
CLICK_PAGE_TYPES = ["item", "SHELF", " facet ", "bogus", "", "topic"]
COUNTS = ["1", "2", "0", "-1", "nine", " 3 ", "10", "1.5", ""]
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]


def _csv_cell(rng, value: str) -> str:
    if rng.random() < 0.2 or any(c in value for c in ',"'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _click_log_text(rng) -> str:
    header = [rng.choice([f, f" {f} "]) for f in ingest.CLICK_LOG_FIELDS]
    lines = [",".join(header) if rng.random() < 0.95 else "query,page"]
    for _ in range(rng.randrange(25)):
        kind = rng.random()
        if kind < 0.08:
            lines.append(rng.choice(["", "   ", ",,,,", " , ,\t,,", "\t"]))
            continue
        cells = [rng.choice(QUERIES), rng.choice(PAGE_IDS),
                 rng.choice(CLICK_PAGE_TYPES), rng.choice(COUNTS),
                 rng.choice(COUNTS)]
        if kind < 0.18:  # too few or too many fields
            cells = (cells[:rng.randrange(1, 5)] if rng.random() < 0.5
                     else cells + ["extra"])
        lines.append(",".join(_csv_cell(rng, cell) for cell in cells))
    return "".join(line + rng.choice(LINE_ENDS) for line in lines)


PAGE_FIELDS = {
    "page_id": ["s1", "s2", "s3", "f1", "i1", None, "", " ", 5],
    "page_type": ["shelf", "facet", "item", "topic", "other", "SHELF",
                  " Facet ", "bogus", None],
    "title": ["Yoga Mats", "Blue yoga mat", "!!!", None, "", 3, "café"],
    "product_type": ["yoga mat", "???", None, "tent"],
    "facets": [[], None, [{"name": "Color", "value": "Blue"}],
               [{"name": None, "value": "x"}, {"name": "size", "value": "L"}],
               [{"name": "!!!", "value": "red"}], ["color=red"],
               {"name": "color", "value": "red"}, "color", [{"name": "c"}]],
}
OTHER_CATALOG_LINES = ["", "  ", "[1, 2]", "not json", "{", "42", "null",
                       '"page"', '{"page_id": "s9", }']


def _page_catalog_text(rng) -> str:
    lines = []
    for _ in range(rng.randrange(25)):
        if rng.random() < 0.15:
            lines.append(rng.choice(OTHER_CATALOG_LINES))
            continue
        row = {key: rng.choice(values) for key, values in PAGE_FIELDS.items()
               if rng.random() < 0.9}
        lines.append(json.dumps(row, ensure_ascii=rng.random() < 0.5))
    return "".join(line + rng.choice(LINE_ENDS) for line in lines)


def _template(message: str) -> str:
    return re.sub(r"'.*'|\d+", "_", message)


def test_parsers_match_their_earlier_form(tmp_path):
    rng = random.Random(23)
    seen = {"click": set(), "catalog": set()}
    for round_no in range(300):
        for kind, text, parse, oracle in [
                ("click", _click_log_text(rng), ingest.parse_click_log,
                 oracles.parse_click_log),
                ("catalog", _page_catalog_text(rng),
                 ingest.parse_page_catalog, oracles.parse_page_catalog)]:
            # a new file for each case: rewriting one file in place can
            # wait on the disk for each write
            path = tmp_path / f"{kind}-{round_no}"
            path.write_bytes(text.encode("utf-8"))
            try:
                expected = oracle(path)
            except PipelineError as exc:
                with pytest.raises(PipelineError, match=re.escape(str(exc))):
                    parse(path)
                continue
            records, report = parse(path)
            assert (records, report.rows_ok, report.errors) == (
                expected[0], expected[1].rows_ok, expected[1].errors), text
            seen[kind] |= {_template(m) for _, m in report.errors}
    # every message of both parsers was reached: 7 and 10 templates
    assert (len(seen["click"]), len(seen["catalog"])) == (7, 10), seen
