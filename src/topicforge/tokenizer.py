"""Query tokenization: raw word tokens followed by extracted facet tokens.

Facets (color, gender, product type, ...) are pulled from a query by
lexicon-driven n-gram matching; each extracted facet contributes a single
composite token "FACET:name=value" appended after the word tokens. Two
queries that differ only in a facet value therefore always tokenize
differently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .ingest import (IngestError, field_text, jsonl_objects, normalize_query,
                     tokenize_text)

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


def facet_token(name: str, value: str) -> str:
    return f"FACET:{name}={value}"


@dataclass
class Vocabulary:
    """Token -> dense id map. Ids 0/1 are PAD/UNK; facet tokens come next."""

    token_to_id: dict[str, int]
    facet_id_range: tuple[int, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @cached_property
    def facet_lexicon(self) -> dict[str, set[str]]:
        """Facet name -> values, read back from the facet tokens (normalized
        text holds no ``:`` or ``=``); a name without values made no token."""
        lo, hi = self.facet_id_range
        lexicon: dict[str, set[str]] = {}
        for token, idx in self.token_to_id.items():
            if lo <= idx < hi:
                name, _, value = token.partition(":")[2].partition("=")
                lexicon.setdefault(name, set()).add(value)
        return lexicon

    def tokenize(self, query: str, seq_len: int) -> TokenSequence:
        """A normalized query's word tokens plus the facets this vocabulary
        holds, as :func:`tokenize_query` lays them out."""
        lexicon = self.facet_lexicon
        facets = extract_facets(query, lexicon) if lexicon else {}
        return tokenize_query(query, facets, self, seq_len)

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"facet_id_range": list(self.facet_id_range)}) + "\n")
            for token, idx in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
                fh.write(json.dumps({"token": token, "id": idx}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        mapping = {}
        for line in lines[1:]:
            if line.strip():
                d = json.loads(line)
                mapping[d["token"]] = int(d["id"])
        return cls(mapping, tuple(header["facet_id_range"]))


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence with its attention mask."""

    ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        if self.ids.shape != self.attention_mask.shape:
            raise ValueError("ids and attention_mask shapes differ")


def load_facet_lexicon(path: str | Path) -> dict[str, set[str]]:
    """JSONL rows {facet_name, values: [...]}, normalized; a malformed row
    raises IngestError naming its line."""
    lexicon: dict[str, set[str]] = {}
    for where, d in jsonl_objects(path, "facet lexicon"):
        name = normalize_query(str(d.get("facet_name") or ""))
        if not name:
            raise IngestError(f"{where}: facet_name is missing or empty")
        values = d.get("values", [])
        if not isinstance(values, list):
            raise IngestError(f"{where}: values is not a list")
        normalized = {normalize_query(field_text(v)) for v in values}
        lexicon.setdefault(name, set()).update(v for v in normalized if v)
    return lexicon


def build_vocabulary(
    queries: Iterable[str],
    facet_lexicon: Mapping[str, Iterable[str]] | None = None,
) -> Vocabulary:
    """Vocabulary over query word tokens plus facet tokens.

    Layout is stable for a given input: [PAD, UNK], facet tokens sorted,
    then word tokens sorted.
    """
    words: set[str] = set()
    for query in queries:
        words.update(tokenize_text(query))
    facet_tokens = []
    if facet_lexicon:
        for name in sorted(facet_lexicon):
            for value in sorted(facet_lexicon[name]):
                facet_tokens.append(facet_token(name, value))

    mapping = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
    for tok in facet_tokens:
        mapping[tok] = len(mapping)
    facet_range = (2, len(mapping))
    for tok in sorted(words):
        if tok not in mapping:
            mapping[tok] = len(mapping)
    return Vocabulary(mapping, facet_range)


def extract_facets(query: str, facet_lexicon: Mapping[str, Iterable[str]]) -> dict[str, str]:
    """All (facet_name -> value) pairs whose value occurs as a token n-gram.

    Within a facet the longest match wins; ties go to the leftmost
    occurrence, then the lexicographically smallest value.
    """
    tokens = tokenize_text(query)
    found: dict[str, str] = {}
    for name in sorted(facet_lexicon):
        best: tuple[int, int, str] | None = None  # (-length, position, value)
        for value in facet_lexicon[name]:
            vtokens = tokenize_text(value)
            n = len(vtokens)
            if n == 0:
                continue
            for pos in range(len(tokens) - n + 1):
                if tokens[pos:pos + n] == vtokens:
                    key = (-n, pos, value)
                    if best is None or key < best:
                        best = key
                    break
        if best is not None:
            found[name] = best[2]
    return found


def tokenize_query(
    query: str,
    facets: Mapping[str, str],
    vocab: Vocabulary,
    seq_len: int = 16,
) -> TokenSequence:
    """Word-token ids followed by facet-token ids, padded/truncated to seq_len.

    Truncation runs after the facet tokens are appended, so a query longer
    than ``seq_len`` loses its facet tokens first; that order is intended,
    since each facet token restates words the query already holds.
    """
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    tokens = tokenize_text(query)
    tokens += [facet_token(n, facets[n]) for n in sorted(facets)]
    ids = [vocab.id_for(t) for t in tokens][:seq_len]
    mask = [1] * len(ids)
    while len(ids) < seq_len:
        ids.append(PAD_ID)
        mask.append(0)
    return TokenSequence(np.asarray(ids, dtype=np.int64),
                         np.asarray(mask, dtype=np.float64))
