"""Input parsing: CSV click logs, page catalogs, candidate queries, blocklists.

All query text is normalized once, at the boundary (lowercase, punctuation
stripped except hyphens, whitespace collapsed) so that later joins on query
text are deterministic. Parsers never drop malformed rows silently: every
bad row is recorded in the accompanying ParseReport.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

PAGE_TYPES = ("shelf", "facet", "item", "topic", "other")

_PUNCT_RE = re.compile(r"[^\w\s-]", re.UNICODE)
_WS_RE = re.compile(r"\s+")

CLICK_LOG_FIELDS = ("query", "page_id", "page_type", "clicks", "impressions")


class IngestError(Exception):
    """Fatal ingest failure (unreadable file, wrong schema)."""


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


def jsonl_objects(path: str | Path, what: str) -> Iterator[tuple[str, dict]]:
    """(``"<what> line N"``, row) for each non-blank JSONL line; invalid JSON
    or a row that is not an object raises IngestError naming its line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{what} line {line_no}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"{where}: invalid JSON") from exc
            if not isinstance(row, dict):
                raise IngestError(f"{where}: JSONL row is not an object")
            yield where, row


@dataclass(frozen=True)
class ClickRecord:
    query: str
    page_id: str
    page_type: str
    clicks: int
    impressions: int

    def to_csv_row(self) -> list[str]:
        return [self.query, self.page_id, self.page_type,
                str(self.clicks), str(self.impressions)]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "ClickRecord":
        """The record :meth:`to_csv_row` wrote, taken as it is; a row of
        another shape raises ValueError."""
        query, page_id, page_type, clicks, impressions = row
        if page_type not in PAGE_TYPES:
            raise ValueError(f"unknown page_type {page_type!r}")
        return cls(query, page_id, page_type, int(clicks), int(impressions))


@dataclass(frozen=True)
class PageRecord:
    page_id: str
    page_type: str
    title: str
    product_type: str
    facets: frozenset[tuple[str, str]] = frozenset()

    def to_dict(self) -> dict:
        return {
            "page_id": self.page_id,
            "page_type": self.page_type,
            "title": self.title,
            "product_type": self.product_type,
            "facets": [{"name": n, "value": v} for n, v in sorted(self.facets)],
        }

    @classmethod
    def from_dict(cls, row: dict) -> "PageRecord":
        """The record :meth:`to_dict` wrote, taken as it is; a row of
        another shape raises ValueError, KeyError or TypeError."""
        texts = [row["page_id"], row["page_type"], row["title"],
                 row["product_type"]]
        facets = [(pair["name"], pair["value"]) for pair in row["facets"]]
        # raises TypeError naming the first field that is not a string
        "".join(texts + [t for pair in facets for t in pair])
        if row["page_type"] not in PAGE_TYPES:
            raise ValueError(f"unknown page_type {row['page_type']!r}")
        return cls(*texts, frozenset(facets))


@dataclass(frozen=True)
class CandidateQuery:
    query: str
    source: str
    clicks_total: int = 0

    def to_dict(self) -> dict:
        return {"query": self.query, "source": self.source,
                "clicks_total": self.clicks_total}


@dataclass
class ParseReport:
    """Per-file parse outcome; errors are (line_number, message) pairs."""

    rows_ok: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return len(self.errors)

    def add_error(self, line_no: int, message: str) -> None:
        self.errors.append((line_no, message))


def _click_record_from_fields(fields: dict[str, str], line_no: int,
                              report: ParseReport) -> ClickRecord | None:
    query = normalize_query(fields["query"])
    if not query:
        report.add_error(line_no, "empty query after normalization")
        return None
    page_id = fields["page_id"].strip()
    if not page_id:
        report.add_error(line_no, "missing page_id")
        return None
    page_type = fields["page_type"].strip().lower()
    if page_type not in PAGE_TYPES:
        report.add_error(line_no, f"unknown page_type {page_type!r}")
        return None
    try:
        clicks = int(fields["clicks"])
        impressions = int(fields["impressions"])
    except ValueError:
        report.add_error(line_no, "clicks/impressions not integers")
        return None
    if clicks < 0 or impressions < 0:
        report.add_error(line_no, "negative counts")
        return None
    if impressions > 0 and clicks > impressions:
        report.add_error(line_no, "clicks exceed impressions")
        return None
    return ClickRecord(query, page_id, page_type, clicks, impressions)


def parse_click_log(path: str | Path) -> tuple[list[ClickRecord], ParseReport]:
    """Parse a CSV click log into ClickRecords plus a ParseReport.

    Raises IngestError if the file is unreadable or the CSV header does not
    match the documented schema.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read click log {path}: {exc}") from exc

    records: list[ClickRecord] = []
    report = ParseReport()
    if not lines:
        return records, report
    reader = csv.reader(lines)
    header = next(reader)
    if [h.strip() for h in header] != list(CLICK_LOG_FIELDS):
        raise IngestError(
            f"click log header {header!r} does not match {CLICK_LOG_FIELDS}")
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(CLICK_LOG_FIELDS):
            report.add_error(line_no, f"expected {len(CLICK_LOG_FIELDS)} fields, got {len(row)}")
            continue
        rec = _click_record_from_fields(dict(zip(CLICK_LOG_FIELDS, row)), line_no, report)
        if rec is not None:
            records.append(rec)
            report.rows_ok += 1
    return records, report


def parse_page_catalog(path: str | Path) -> tuple[list[PageRecord], ParseReport]:
    """Parse a JSONL page catalog into PageRecords plus a ParseReport.

    Facet pages must carry at least one facet; shelf and facet pages need a
    title, and shelf pages a product type, that survive normalization.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read page catalog {path}: {exc}") from exc

    pages: list[PageRecord] = []
    report = ParseReport()
    seen_ids: set[str] = set()
    for line_no, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            fields = json.loads(line)
        except json.JSONDecodeError:
            report.add_error(line_no, "invalid JSON")
            continue
        if not isinstance(fields, dict):
            report.add_error(line_no, "JSONL row is not an object")
            continue
        page_id = field_text(fields.get("page_id")).strip()
        if not page_id:
            report.add_error(line_no, "missing page_id")
            continue
        if page_id in seen_ids:
            report.add_error(line_no, f"duplicate page_id {page_id!r}")
            continue
        page_type = field_text(fields.get("page_type")).strip().lower()
        if page_type not in PAGE_TYPES:
            report.add_error(line_no, f"unknown page_type {page_type!r}")
            continue
        pairs = fields.get("facets") or []
        if not (isinstance(pairs, list)
                and all(isinstance(pair, dict) for pair in pairs)):
            report.add_error(line_no, "facets is not a list of objects")
            continue
        facets = []
        for pair in pairs:
            name = normalize_query(field_text(pair.get("name")))
            value = normalize_query(field_text(pair.get("value")))
            if name and value:
                facets.append((name, value))
        if page_type == "facet" and not facets:
            report.add_error(line_no, "facet page without facet pairs")
            continue
        title = normalize_query(field_text(fields.get("title")))
        product_type = normalize_query(field_text(fields.get("product_type")))
        # shelf and facet text is encoded downstream, and a text that
        # normalizes to "" has no token to encode
        if page_type in ("shelf", "facet") and not title:
            report.add_error(line_no, f"{page_type} page title is empty")
            continue
        if page_type == "shelf" and not product_type:
            report.add_error(line_no, "shelf page product_type is empty")
            continue
        pages.append(PageRecord(
            page_id=page_id,
            page_type=page_type,
            title=title,
            product_type=product_type,
            facets=frozenset(facets),
        ))
        seen_ids.add(page_id)
        report.rows_ok += 1
    return pages, report


def load_blocklist(path: str | Path) -> set[str]:
    """Load one normalized term per line; '#' starts a comment."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot read blocklist {path}: {exc}") from exc
    terms: set[str] = set()
    for line in raw.splitlines():
        line = line.split("#", 1)[0]
        term = normalize_query(line)
        if term:
            terms.add(term)
    return terms


def candidates_from_click_log(records: Sequence[ClickRecord]) -> list[CandidateQuery]:
    """One candidate per distinct query, with total clicks summed."""
    totals: dict[str, int] = {}
    for rec in records:
        totals[rec.query] = totals.get(rec.query, 0) + rec.clicks
    return [CandidateQuery(q, "search_log", c) for q, c in sorted(totals.items())]


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
        blocked = any(tok in single for tok in tokens)
        if not blocked:
            for term in multi:
                n = len(term)
                if any(tokens[i:i + n] == term for i in range(len(tokens) - n + 1)):
                    blocked = True
                    break
        (removed if blocked else kept).append(cand)
    return kept, removed
