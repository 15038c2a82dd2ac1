"""Vocabulary layout, facet extraction and fixed-length tokenization."""

from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest

from oracles import loop_extract_facets
from topicforge import tokenizer
from topicforge.config import PipelineError
from topicforge.tokenizer import (PAD_ID, UNK_ID, FacetMatcher, TokenSequence,
                                  Vocabulary, build_vocabulary, extract_facets,
                                  facet_token, tokenize_query)

LEXICON = {"color": {"red", "blue", "navy blue"}, "size": {"large"}}


def test_vocabulary_layout():
    vocab = build_vocabulary(["red shoes", "blue shoes", "blue mat"], LEXICON)
    assert vocab.id_for("<pad>") == PAD_ID
    assert vocab.id_for("<unk>") == UNK_ID
    # the facet tokens follow PAD and UNK, sorted; they are exactly the
    # tokens that start with FACET_PREFIX
    facets = [facet_token(name, value) for name in sorted(LEXICON)
              for value in sorted(LEXICON[name])]
    hi = 2 + len(facets)
    assert [vocab.id_for(t) for t in facets] == list(range(2, hi))
    assert [t for t in vocab.token_to_id
            if t.startswith(tokenizer.FACET_PREFIX)] == facets
    # word tokens follow the facet block, sorted
    words = ["blue", "mat", "red", "shoes"]
    assert [vocab.id_for(w) for w in words] == list(range(hi, hi + len(words)))
    assert vocab.id_for("never seen") == UNK_ID


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocabulary(["red shoes"], LEXICON)
    path = tmp_path / "vocab.jsonl"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded == vocab


@pytest.mark.parametrize("row, message", [
    # row 2 given row 3's id
    ('{"token": "red", "id": 3}', "row 2 has id 3"),
    ('{"token": "red", "id": 2.0}', "row 2 has id 2.0"),
    ('{"token": "red", "id": 1.9}', "row 2 has id 1.9"),
    ('{"token": "red", "id": true}', "row 2 has id True"),
    ('{"token": "red", "id": "2"}', "row 2 has id '2'"),
    ('{"token": "<unk>", "id": 2}', "row 2 repeats or is not a string token"),
    ('{"token": 7, "id": 2}', "row 2 repeats or is not a string token")])
def test_vocabulary_load_rejects_an_id_off_its_row(tmp_path, row, message):
    # an id is its row's position, counted over the rows that are not blank
    path = tmp_path / "vocab.jsonl"
    path.write_text('{"token": "<pad>", "id": 0}\n\n{"token": "<unk>", "id": 1}'
                    f"\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        Vocabulary.load(path)


def test_vocabulary_facet_lexicon_survives_save_load(tmp_path):
    lexicon = {"color": {"navy blue", "red"}, "style": {"v-neck"},
               "material": set()}
    vocab = build_vocabulary(["navy blue v-neck shirt", "red mat"], lexicon)
    path = tmp_path / "vocab.jsonl"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    # a name without values made no token, so the vocabulary cannot hold it;
    # word tokens such as "navy" or "shirt" never enter the lexicon
    assert loaded.facet_lexicon == {"color": {"navy blue", "red"},
                                    "style": {"v-neck"}}
    assert vocab.facet_lexicon == loaded.facet_lexicon
    assert build_vocabulary(["red mat"]).facet_lexicon == {}


def test_extract_facets_longest_leftmost_smallest():
    # longest match beats a shorter one anywhere in the query
    assert extract_facets("navy blue shoes", LEXICON) == {"color": "navy blue"}
    # leftmost occurrence wins among equal lengths
    assert extract_facets("blue and red shoes", LEXICON) == {"color": "blue"}
    assert extract_facets("red and blue shoes", LEXICON) == {"color": "red"}
    # several facets extract independently
    assert extract_facets("large red shoes", LEXICON) == {
        "color": "red", "size": "large"}
    assert extract_facets("plain shoes", LEXICON) == {}
    # substring inside a token is not a match
    assert extract_facets("redwood table", LEXICON) == {}


@pytest.mark.parametrize("lexicon, query, expected", [
    # a longer value later in the query beats a shorter one before it
    ({"c": {"b", "a b"}}, "b a b", {"c": "a b"}),
    # equal lengths: leftmost wins, whatever the value order
    ({"c": {"x", "y"}}, "y x", {"c": "y"}),
    ({"c": {"x y", "y x"}}, "y x y", {"c": "y x"}),
    # equal length and position: smallest value, here two spellings of
    # the same tokens
    ({"c": {"a b", "a  b"}}, "a b", {"c": "a  b"}),
    # values sharing a first token, in one facet and across facets
    ({"c": {"a", "a b", "a b c"}, "d": {"a c", "b"}}, "a b a c",
     {"c": "a b", "d": "a c"}),
    # repeated tokens: the first occurrence counts
    ({"c": {"b b"}, "d": {"b"}}, "a b b b", {"c": "b b", "d": "b"}),
    # a value longer than the query, an empty value and an empty query
    ({"c": {"a b c d", "", " "}}, "a b c", {}),
    ({"c": {"a"}}, "", {}),
], ids=["longest", "leftmost", "leftmost-overlap", "smallest-value",
        "shared-first-token", "repeated-tokens", "no-match", "empty-query"])
def test_matcher_tie_rules(lexicon, query, expected):
    assert loop_extract_facets(query, lexicon) == expected
    assert extract_facets(query, lexicon) == expected
    assert FacetMatcher(lexicon).match(query.split()) == expected


def random_lexicon(rng: random.Random) -> dict[str, set[str]]:
    """Up to four facets over a six-word alphabet, so values share first
    tokens within and across facets and repeat tokens."""
    words = [f"w{i}" for i in range(6)]
    return {name: {" ".join(rng.choices(words, k=rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 6))}
            for name in rng.sample(["brand", "color", "size", "style"],
                                   k=rng.randint(1, 4))}


@pytest.mark.parametrize("seed", range(20))
def test_indexed_matcher_equals_lexicon_loop(seed):
    rng = random.Random(seed)
    lexicon = random_lexicon(rng)
    matcher = FacetMatcher(lexicon)
    vocab_matcher = build_vocabulary([], lexicon).facet_matcher
    matched = 0
    for _ in range(60):
        query = " ".join(rng.choices([f"w{i}" for i in range(7)],
                                     k=rng.randint(0, 9)))
        expected = loop_extract_facets(query, lexicon)
        assert extract_facets(query, lexicon) == expected
        assert matcher.match(query.split()) == expected
        assert vocab_matcher.match(query.split()) == expected
        # names come out sorted, as the loop inserts them
        assert list(matcher.match(query.split())) == list(expected)
        matched += bool(expected)
    assert matched > 0


def test_tokenize_query_layout_and_padding():
    vocab = build_vocabulary(["red shoes"], LEXICON)
    seq = tokenize_query("red shoes", {"color": "red"}, vocab, seq_len=6)
    red, shoes = vocab.id_for("red"), vocab.id_for("shoes")
    fac = vocab.id_for(facet_token("color", "red"))
    assert seq.ids.tolist() == [red, shoes, fac, PAD_ID, PAD_ID, PAD_ID]
    assert seq.attention_mask.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert seq.ids.dtype == np.int64


def test_tokenize_query_truncation():
    vocab = build_vocabulary(["a b c d e"], None)
    seq = tokenize_query("a b c d e", {}, vocab, seq_len=3)
    assert seq.ids.tolist() == [vocab.id_for("a"), vocab.id_for("b"),
                                vocab.id_for("c")]
    assert seq.attention_mask.sum() == 3
    with pytest.raises(ValueError):
        tokenize_query("a", {}, vocab, seq_len=1)


def test_truncation_drops_facet_tokens_before_words():
    vocab = build_vocabulary(["large red shoes"], LEXICON)
    facets = extract_facets("large red shoes", LEXICON)
    words = [vocab.id_for(w) for w in ("large", "red", "shoes")]
    color = vocab.id_for(facet_token("color", "red"))
    size = vocab.id_for(facet_token("size", "large"))
    ids = {n: tokenize_query("large red shoes", facets, vocab, seq_len=n).ids.tolist()
           for n in (5, 4, 3, 2)}
    assert ids[5] == words + [color, size]
    assert ids[4] == words + [color]
    assert ids[3] == words
    assert ids[2] == words[:2]


def test_facet_value_changes_tokenization():
    vocab = build_vocabulary(["red mat", "blue mat"], LEXICON)
    red = tokenize_query("red mat", extract_facets("red mat", LEXICON),
                         vocab, seq_len=5)
    blue = tokenize_query("blue mat", extract_facets("blue mat", LEXICON),
                          vocab, seq_len=5)
    assert red.ids.tolist() != blue.ids.tolist()


def test_load_facet_lexicon(tmp_path):
    path = tmp_path / "lex.jsonl"
    rows = [{"facet_name": "Color", "values": ["Red", "Navy Blue", "", None]},
            {"facet_name": "color", "values": ["green"]}]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")
    lex = tokenizer.load_facet_lexicon(path)
    assert lex == {"color": {"red", "navy blue", "green"}}


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "JSONL row is not an object"),
    ("color: red", "invalid JSON"),
    ('{"values": ["red"]}', "facet_name is missing or empty"),
    ('{"facet_name": "!!!", "values": ["red"]}',
     "facet_name is missing or empty"),
    ('{"facet_name": "color", "values": "red"}', "values is not a list"),
], ids=["array", "not-json", "no-name", "empty-name", "string-values"])
def test_load_facet_lexicon_names_the_bad_line(tmp_path, line, message):
    path = tmp_path / "lex.jsonl"
    good = json.dumps({"facet_name": "size", "values": ["large"]})
    path.write_text(f"{good}\n\n{line}\n", encoding="utf-8")
    with pytest.raises(PipelineError,
                       match=f"^facet lexicon line 3: {message}$"):
        tokenizer.load_facet_lexicon(path)


def test_token_sequence_shape_check():
    with pytest.raises(ValueError):
        TokenSequence(np.zeros(3, dtype=np.int64), np.zeros(4))
