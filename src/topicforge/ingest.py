"""Input parsing: every raw input's parser, and the one text normalization.

The click log, page catalog, blocklist, facet lexicon and item catalog are
parsed here and nowhere else. Their text is normalized here, once
(lowercase, punctuation stripped except hyphens, whitespace collapsed), so
that later joins on text are deterministic; every other module takes
ingest's text as it is. Every raw input is read through ``_read_lines``, a
line at a time: it holds one record per line, a line ends only at LF, CR LF
or CR, and one leading UTF-8 byte-order mark is dropped.
``load_item_catalog`` checks every line of the item catalog but keeps only
the items whose title shares a token with the keywords it is given. Parsers
never drop malformed rows silently: a bad click log or page catalog row
(one that is not UTF-8 text, a CSV cell over the csv module's field limit
or JSON nested too deeply included) is recorded in the accompanying
ParseReport. The other raw inputs, the blocklist, facet lexicon and item
catalog, are strict (``_strict_rows``): their first bad line raises
PipelineError naming it. The pipeline's ingest stage writes what these
parsers return as the normalized copies later stages take as they are: the
click records and pages as column tables, the facet lexicon as rows.
"""

from __future__ import annotations

import codecs
import csv
import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .config import PAGE_TYPES, PipelineError

_PUNCT_RE = re.compile(r"[^\w\s-]", re.UNICODE)
_WS_RE = re.compile(r"\s+")

CLICK_LOG_FIELDS = ("query", "page_id", "page_type", "clicks", "impressions")


def normalize_query(text: str) -> str:
    """Lowercase, strip punctuation except hyphens, collapse whitespace."""
    text = text.lower().replace("_", " ")
    text = _PUNCT_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


def tokenize_text(text: str) -> list[str]:
    """Whitespace tokens of a normalized string."""
    return text.split()


def field_text(value) -> str:
    """A JSON field as text; ``null`` counts as missing, like an absent key."""
    return "" if value is None else str(value)


def _read_lines(path: str | Path, what: str) -> Iterator[bytes]:
    """The raw input ``path``'s lines, read a line at a time and split only
    at LF, CR LF and CR, after one leading byte-order mark: the file's
    pieces end at LF, and each piece splits at CR LF and CR. The pipeline
    reads its own artifacts, ingest's copies included, through its own
    readers."""
    try:
        with Path(path).open("rb") as fh:
            for n, piece in enumerate(fh):
                yield from (piece if n else
                            piece.removeprefix(codecs.BOM_UTF8)).splitlines()
    except OSError as exc:
        raise PipelineError(f"cannot read {what} {path}: {exc}") from exc


def _row(line: bytes, make: Callable[[str], object]) -> object:
    """``make`` of a line's text, or None for a blank line. A line that is
    not UTF-8 text raises ValueError, as ``make`` does for a bad row."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError("line is not UTF-8 text") from None
    return make(text) if text.strip() else None


def _json_object(line: str) -> dict:
    """The object on one JSONL line; any other line raises ValueError."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError:
        raise ValueError("invalid JSON") from None
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(row, dict):
        raise ValueError("JSONL row is not an object")
    return row


@dataclass(frozen=True)
class ClickRecord:
    query: str
    page_id: str
    page_type: str
    clicks: int
    impressions: int


@dataclass(frozen=True)
class PageRecord:
    page_id: str
    page_type: str
    title: str
    product_type: str
    facets: frozenset[tuple[str, str]] = frozenset()


@dataclass(frozen=True)
class CandidateQuery:
    """A distinct click log query and the clicks it drew in total."""

    query: str
    clicks_total: int = 0


@dataclass
class ParseReport:
    """Per-file parse outcome; errors are (line_number, message) pairs."""

    rows_ok: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return len(self.errors)


def _parse_rows(lines: Iterable[bytes], make: Callable[[str], object],
                first: int = 1) -> tuple[list, ParseReport]:
    """Each :func:`_row` of ``lines`` other than None; a line that raises
    ValueError, numbered from ``first``, becomes an error with the message."""
    records, errors = [], []
    for line_no, line in enumerate(lines, start=first):
        try:
            if (record := _row(line, make)) is not None:
                records.append(record)
        except ValueError as exc:
            errors.append((line_no, str(exc)))
    return records, ParseReport(len(records), errors)


def _cells(line: str) -> list[str]:
    """The CSV cells of one line; ValueError for a line the csv module
    refuses, such as one with a cell over its field limit."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ValueError(str(exc)) from None


def _click_record(line: str) -> ClickRecord | None:
    """The record on one click log line, or None for a row of blank cells."""
    row = _cells(line)
    if all(not cell.strip() for cell in row):
        return None
    if len(row) != len(CLICK_LOG_FIELDS):
        raise ValueError(f"expected {len(CLICK_LOG_FIELDS)} fields, got {len(row)}")
    query, page_id, page_type, clicks, impressions = row
    query = normalize_query(query)
    if not query:
        raise ValueError("empty query after normalization")
    page_id = page_id.strip()
    if not page_id:
        raise ValueError("missing page_id")
    page_type = page_type.strip().lower()
    if page_type not in PAGE_TYPES:
        raise ValueError(f"unknown page_type {page_type!r}")
    try:
        clicks, impressions = int(clicks), int(impressions)
    except ValueError:
        raise ValueError("clicks/impressions not integers") from None
    if clicks < 0 or impressions < 0:
        raise ValueError("negative counts")
    if impressions > 0 and clicks > impressions:
        raise ValueError("clicks exceed impressions")
    return ClickRecord(query, page_id, page_type, clicks, impressions)


def parse_click_log(path: str | Path) -> tuple[list[ClickRecord], ParseReport]:
    """Parse a CSV click log into ClickRecords plus a ParseReport.

    Raises PipelineError if the file is unreadable or the CSV header does
    not match the documented schema.
    """
    lines = _read_lines(path, "click log")
    if (first := next(lines, None)) is None:
        return [], ParseReport()
    try:
        header = _cells(first.decode("utf-8", "replace"))
    except ValueError as exc:
        raise PipelineError(f"click log header: {exc}") from None
    if [h.strip() for h in header] != list(CLICK_LOG_FIELDS):
        raise PipelineError(
            f"click log header {header!r} does not match {CLICK_LOG_FIELDS}")
    return _parse_rows(lines, _click_record, first=2)


def _page_record(line: str, seen_ids: set[str]) -> PageRecord:
    """The page on one catalog line; its id joins ``seen_ids``."""
    fields = _json_object(line)
    page_id = field_text(fields.get("page_id")).strip()
    if not page_id:
        raise ValueError("missing page_id")
    if page_id in seen_ids:
        raise ValueError(f"duplicate page_id {page_id!r}")
    page_type = field_text(fields.get("page_type")).strip().lower()
    if page_type not in PAGE_TYPES:
        raise ValueError(f"unknown page_type {page_type!r}")
    pairs = fields.get("facets") or []
    if not (isinstance(pairs, list)
            and all(isinstance(pair, dict) for pair in pairs)):
        raise ValueError("facets is not a list of objects")
    named = [(normalize_query(field_text(pair.get("name"))),
              normalize_query(field_text(pair.get("value")))) for pair in pairs]
    facets = frozenset((name, value) for name, value in named if name and value)
    if page_type == "facet" and not facets:
        raise ValueError("facet page without facet pairs")
    title = normalize_query(field_text(fields.get("title")))
    product_type = normalize_query(field_text(fields.get("product_type")))
    # shelf and facet text is encoded downstream, and a text that
    # normalizes to "" has no token to encode
    if page_type in ("shelf", "facet") and not title:
        raise ValueError(f"{page_type} page title is empty")
    if page_type == "shelf" and not product_type:
        raise ValueError("shelf page product_type is empty")
    seen_ids.add(page_id)
    return PageRecord(page_id, page_type, title, product_type, facets)


def parse_page_catalog(path: str | Path) -> tuple[list[PageRecord], ParseReport]:
    """Parse a JSONL page catalog into PageRecords plus a ParseReport.

    Facet pages must carry at least one facet; shelf and facet pages need a
    title, and shelf pages a product type, that survive normalization.
    """
    return _parse_rows(_read_lines(path, "page catalog"),
                       partial(_page_record, seen_ids=set()))


def _strict_rows(path: str | Path, what: str,
                 make: Callable[[str], object]) -> list:
    """Each :func:`_row` of ``path``'s lines other than None; the first line
    that raises ValueError raises PipelineError naming it."""
    rows, report = _parse_rows(_read_lines(path, what), make)
    if report.errors:
        raise PipelineError("{} line {}: {}".format(what, *report.errors[0]))
    return rows


def load_blocklist(path: str | Path) -> set[str]:
    """Load one normalized term per line; '#' starts a comment. A line that
    is not UTF-8 text raises PipelineError naming its line."""
    return set(_strict_rows(path, "blocklist", lambda text: (
        normalize_query(text.split("#", 1)[0]) or None)))


def load_facet_lexicon(path: str | Path) -> dict[str, set[str]]:
    """JSONL rows {facet_name, values: [...]}, normalized; a malformed row
    raises PipelineError naming its line."""
    def row(line: str) -> tuple[str, set[str]]:
        d = _json_object(line)
        name = normalize_query(str(d.get("facet_name") or ""))
        if not name:
            raise ValueError("facet_name is missing or empty")
        values = d.get("values", [])
        if not isinstance(values, list):
            raise ValueError("values is not a list")
        return name, {normalize_query(field_text(v)) for v in values}
    lexicon: dict[str, set[str]] = {}
    for name, values in _strict_rows(path, "facet lexicon", row):
        lexicon.setdefault(name, set()).update(v for v in values if v)
    return lexicon


def load_item_catalog(path: str | Path,
                      keywords: Iterable[str] = ()) -> list[tuple[str, str]]:
    """JSONL rows {item_id, title}, one per item, read a line at a time: the
    (item_id, normalized title) pairs, in file order, whose title shares a
    token with one of ``keywords``, the only items a keyword can retrieve.
    Every line is checked, with no keyword too: a malformed row or a
    repeated item_id raises PipelineError naming its line."""
    wanted = {token for text in keywords for token in tokenize_text(text)}
    # the ids themselves, not their 8-byte hashes, whose collision would
    # refuse a valid file, and in a dict: for 20,000 ids a dict takes 1.6
    # MB, a set 3.3 MB (its table is sparser), and hashes would save 0.3 MB
    seen_ids: dict[str, None] = {}

    def item(line: str) -> tuple[str, str] | None:
        row = _json_object(line)
        pair = (field_text(row.get("item_id")), field_text(row.get("title")))
        for name, value in zip(("item_id", "title"), pair):
            if not value:
                raise ValueError(f"{name} is missing or empty")
        if pair[0] in seen_ids:
            raise ValueError(f"duplicate item_id {pair[0]!r}")
        seen_ids[pair[0]] = None
        title = normalize_query(pair[1])
        if not wanted.isdisjoint(tokenize_text(title)):
            return pair[0], title
        return None
    return _strict_rows(path, "item catalog", item)


def candidates_from_click_log(records: Sequence[ClickRecord]) -> list[CandidateQuery]:
    """One candidate per distinct query, with total clicks summed."""
    totals: dict[str, int] = {}
    for rec in records:
        totals[rec.query] = totals.get(rec.query, 0) + rec.clicks
    return [CandidateQuery(q, c) for q, c in sorted(totals.items())]


def filter_negative_queries(
    candidates: Sequence[CandidateQuery],
    blocklist: set[str],
) -> tuple[list[CandidateQuery], list[CandidateQuery]]:
    """Split candidates into (kept, removed) by whole-token blocklist match.

    A candidate is removed iff some blocklist term occurs as a whole token
    (multi-word terms must appear as a contiguous token run). Substring hits
    inside a longer token never match.
    """
    single = {t for t in blocklist if " " not in t}
    multi = [tokenize_text(t) for t in blocklist if " " in t]
    kept: list[CandidateQuery] = []
    removed: list[CandidateQuery] = []
    for cand in candidates:
        tokens = tokenize_text(cand.query)
        blocked = any(tok in single for tok in tokens) or any(
            tokens[i:i + len(term)] == term
            for term in multi for i in range(len(tokens) - len(term) + 1))
        (removed if blocked else kept).append(cand)
    return kept, removed
