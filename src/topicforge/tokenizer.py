"""Query tokenization: raw word tokens followed by extracted facet tokens.

Facets (color, gender, product type, ...) are pulled from a query by
lexicon-driven n-gram matching; each extracted facet contributes a single
composite token "FACET:name=value" appended after the word tokens. Two
queries that differ only in a facet value therefore always tokenize
differently.

Texts and lexicons are taken as ingest normalized them; the lexicon's
parser is ``ingest.load_facet_lexicon``, re-exported here.

Matching runs through a :class:`FacetMatcher`, which indexes every lexicon
value under its first token once. A query is then scanned token by token,
and only the values starting with that token are compared, so a match costs
the query's length times the few values sharing a first token, not the
whole lexicon. A :class:`Vocabulary` builds its matcher once, beside its
facet lexicon; :func:`extract_facets` builds one per call.

A :class:`Vocabulary` is saved as one JSONL row per token and id; its facet
lexicon is read back from the tokens that start with ``FACET_PREFIX``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .ingest import load_facet_lexicon, tokenize_text  # noqa: F401

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
# starts every facet token and no word token: normalized text holds no ":"
FACET_PREFIX = "FACET:"


def facet_token(name: str, value: str) -> str:
    return f"{FACET_PREFIX}{name}={value}"


@dataclass
class Vocabulary:
    """Token -> dense id map. Ids 0/1 are PAD/UNK; facet tokens, the ones
    that start with ``FACET_PREFIX``, come next, then word tokens."""

    token_to_id: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @cached_property
    def facet_lexicon(self) -> dict[str, set[str]]:
        """Facet name -> values, read back from the facet tokens (normalized
        text holds no ``:`` or ``=``); a name without values made no token."""
        lexicon: dict[str, set[str]] = {}
        for token in self.token_to_id:
            if token.startswith(FACET_PREFIX):
                name, _, value = token.removeprefix(FACET_PREFIX).partition("=")
                lexicon.setdefault(name, set()).add(value)
        return lexicon

    @cached_property
    def facet_matcher(self) -> FacetMatcher:
        """The matcher over :attr:`facet_lexicon`."""
        return FacetMatcher(self.facet_lexicon)

    def save(self, path: str | Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for token, idx in sorted(self.token_to_id.items(), key=lambda kv: kv[1]):
                fh.write(json.dumps({"token": token, "id": idx}) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        mapping = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                d = json.loads(line)
                mapping[d["token"]] = int(d["id"])
        return cls(mapping)


@dataclass(frozen=True)
class TokenSequence:
    """Fixed-length id sequence with its attention mask."""

    ids: np.ndarray
    attention_mask: np.ndarray

    def __post_init__(self):
        if self.ids.shape != self.attention_mask.shape:
            raise ValueError("ids and attention_mask shapes differ")


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
    for tok in sorted(words):
        if tok not in mapping:
            mapping[tok] = len(mapping)
    return Vocabulary(mapping)


class FacetMatcher:
    """A facet lexicon indexed by each value's first token."""

    def __init__(self, facet_lexicon: Mapping[str, Iterable[str]]):
        # first token -> (name, value tokens, value) of every value
        self._by_first: dict[str, list[tuple[str, list[str], str]]] = {}
        for name, values in facet_lexicon.items():
            for value in values:
                vtokens = tokenize_text(value)
                if vtokens:
                    self._by_first.setdefault(vtokens[0], []).append(
                        (name, vtokens, value))

    def match(self, tokens: list[str]) -> dict[str, str]:
        """All (facet_name -> value) pairs whose value occurs in ``tokens``
        as a token n-gram, names sorted.

        Within a facet the longest match wins; ties go to the leftmost
        occurrence, then the lexicographically smallest value.
        """
        best: dict[str, tuple[int, int, str]] = {}  # (-length, position, value)
        for pos, token in enumerate(tokens):
            for name, vtokens, value in self._by_first.get(token, ()):
                n = len(vtokens)
                if tokens[pos:pos + n] == vtokens:
                    key = (-n, pos, value)
                    if name not in best or key < best[name]:
                        best[name] = key
        return {name: best[name][2] for name in sorted(best)}


def extract_facets(query: str, facet_lexicon: Mapping[str, Iterable[str]]) -> dict[str, str]:
    """:meth:`FacetMatcher.match` over the tokens of ``query``."""
    return FacetMatcher(facet_lexicon).match(tokenize_text(query))


def token_ids(words: list[str], facets: Mapping[str, str], vocab: Vocabulary,
              seq_len: int) -> list[int]:
    """Ids of the word tokens ``words`` followed by facet-token ids, at most
    ``seq_len``.

    Truncation runs after the facet tokens are appended, so a query longer
    than ``seq_len`` loses its facet tokens first; that order is intended,
    since each facet token restates words the query already holds.
    """
    if seq_len < 2:
        raise ValueError(f"seq_len must be >= 2, got {seq_len}")
    tokens = words + [facet_token(n, facets[n]) for n in sorted(facets)]
    return [vocab.id_for(t) for t in tokens[:seq_len]]


def tokenize_query(
    query: str,
    facets: Mapping[str, str],
    vocab: Vocabulary,
    seq_len: int = 16,
) -> TokenSequence:
    """:func:`token_ids`, padded to ``seq_len``, with its attention mask."""
    ids = token_ids(tokenize_text(query), facets, vocab, seq_len)
    pad = seq_len - len(ids)
    return TokenSequence(np.asarray(ids + [PAD_ID] * pad, dtype=np.int64),
                         np.asarray([1] * len(ids) + [0] * pad,
                                    dtype=np.float64))
