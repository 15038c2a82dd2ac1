"""Seeded input generator for the benchmark workloads.

``write_inputs(workload, seed, out_dir)`` writes everything topicforge reads
(click log, page catalog, facet lexicon, blocklist, item catalog, config)
plus ``truth.json``, the ground truth the program never sees: each query's
co-click family (or null for long-tail queries) and its product type's shelf
page, and each family's shelf.

Sizes are fixed per workload; only the content depends on the seed, so run
time varies little from seed to seed. All randomness comes from one
``random.Random`` seeded with a string, which is stable across platforms and
interpreter runs: two writes with one seed are byte-identical.

Query text is made of generated pseudo-words (consonant-vowel syllables)
and facet values, so it never needs CSV quoting.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("longtail", "dense", "retune")

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

FACETS = {
    "color": ["red", "blue", "black", "white", "green", "grey", "pink",
              "yellow", "brown", "orange", "purple", "silver"],
    "gender": ["mens", "womens", "kids", "unisex"],
    "material": ["leather", "cotton", "steel", "wool", "bamboo", "silicone",
                 "carbon", "nylon"],
    "size": ["small", "medium", "large", "xl"],
}
BLOCK_TERMS = ["counterfeit", "replica", "knockoff"]
# long-tail queries rarely browse a shelf; only these carry a shelf label
TAIL_SHELF_CLICK_SHARE = 0.3

# sizes per input shape; "retune" reuses the longtail inputs
SIZES = {
    "longtail": {"types": 300, "facet_pages": 9, "families": 30,
                 "family_size": 5, "tail": 3000, "blocked": 30,
                 "items": 20000},
    "dense": {"types": 12, "facet_pages": 2, "families": 12,
              "family_size": 15, "tail": 0, "blocked": 0, "items": 2000},
}

MODEL = {
    "longtail": {"seq_len": 12, "model_dim": 32, "ffn_dim": 64,
                 "train_epochs": 2, "finetune_epochs": 1},
    "dense": {"seq_len": 16, "model_dim": 64, "ffn_dim": 128,
              "train_epochs": 1, "finetune_epochs": 1},
}

CONFIG_TEMPLATE = """\
seed: {seed}
paths:
  click_log: click_log.csv
  page_catalog: pages.jsonl
  facet_lexicon: facet_lexicon.jsonl
  blocklist: blocklist.txt
  item_catalog: items.jsonl
  workdir: work
metric:
  negative_ratio: auto
  min_interactive: 0.0
  exclude_page_types: [shelf]
model:
  seq_len: {seq_len}
  model_dim: {model_dim}
  num_layers: 2
  num_heads: 2
  ffn_dim: {ffn_dim}
  output_dim: 32
  negative_loss: complement
train:
  optimizer: adam
  learning_rate: 0.001
  batch_size: 32
  epochs: {train_epochs}
  weight_decay: 0.0
  eval_fraction: 0.1
finetune:
  optimizer: adam
  learning_rate: 0.001
  batch_size: 32
  epochs: {finetune_epochs}
  eval_fraction: 0.0
  freeze_encoder: false
cluster:
  threshold: 0.15
  linkage: average
dedup:
  threshold: {dedup_threshold}
  cache_capacity: 10000
select:
  quota: 50
  strategy: pipeline
emit:
  items_per_page: 24
experiment:
  start_date: "2025-01-01"
  n_days: 120
  base_mean: 1000.0
  noise_sd: 30.0
  lift_fraction: 0.11
  variant: pooled
"""

DEDUP_THRESHOLD = "0.86"
RETUNE_THRESHOLD = "0.88"


def input_shape(workload: str) -> str:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    return "dense" if workload == "dense" else "longtail"


def config_text(workload: str, seed: int,
                dedup_threshold: str = DEDUP_THRESHOLD) -> str:
    return CONFIG_TEMPLATE.format(seed=seed, dedup_threshold=dedup_threshold,
                                  **MODEL[input_shape(workload)])


class _Words:
    """Unique pseudo-words; never collide with facet values or block terms."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = {v for values in FACETS.values() for v in values}
        self.used.update(BLOCK_TERMS)

    def take(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            word = "".join(self.rng.choice(SYLLABLES)
                           for _ in range(self.rng.choice((2, 3))))
            if word not in self.used:
                self.used.add(word)
                out.append(word)
        return out


def _zipf_counts(n_total: int, n_bins: int) -> list[int]:
    """Integer counts summing to n_total, proportional to 1/rank, each >= 1."""
    weights = [1.0 / (r + 1) for r in range(n_bins)]
    scale = (n_total - n_bins) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    for r in range(n_total - sum(counts)):
        counts[r % n_bins] += 1
    return counts


def build(workload: str, seed: int) -> dict:
    """All generated rows for one workload and seed, as plain data."""
    shape = input_shape(workload)
    size = SIZES[shape]
    rng = random.Random(f"topicforge-bench:{shape}:{seed}")
    words = _Words(rng)
    facet_pairs = [(n, v) for n in sorted(FACETS) for v in FACETS[n]]

    n_types = size["types"]
    heads = words.take(n_types)
    nouns = words.take(max(1, n_types // 8))
    types = [f"{h} {rng.choice(nouns)}" for h in heads]
    shelf_of = {t: f"shelf-{i:03d}" for i, t in enumerate(types)}

    lexicon = dict(FACETS)
    if shape == "dense":
        # one family-private product-line word per type: dense queries carry
        # a facet without sharing a token with another family
        lexicon["line"] = words.take(n_types)

    pages = []
    for i, t in enumerate(types):
        pages.append({"page_id": shelf_of[t], "page_type": "shelf",
                      "title": t, "product_type": t, "facets": []})
        facets = rng.sample(facet_pairs, size["facet_pages"])
        if shape == "dense":
            facets[0] = ("line", lexicon["line"][i])
        for name, value in sorted(facets):
            pages.append({"page_id": f"facet-{i:03d}-{name}-{value}",
                          "page_type": "facet", "title": f"{value} {t}",
                          "product_type": t,
                          "facets": [{"name": name, "value": value}]})

    clicks: list[tuple[str, str, str, int]] = []
    truth_queries: dict[str, dict] = {}
    families: dict[str, str] = {}

    def add_query(query: str, ptype: str, family: str | None) -> None:
        if query in truth_queries:
            raise AssertionError(f"generated query repeats: {query!r}")
        truth_queries[query] = {"family": family, "shelf": shelf_of[ptype]}

    family_types = (types if shape == "dense"
                    else rng.sample(types, size["families"]))
    for f, ptype in enumerate(family_types):
        fam = f"fam{f:02d}"
        families[fam] = shelf_of[ptype]
        n = size["family_size"]
        if shape == "dense":
            # family-private modifiers keep families lexically disjoint
            line = lexicon["line"][f]
            queries = [ptype] + [f"{line} {m} {ptype}" for m in words.take(n - 1)]
        else:
            tag = words.take(1)[0]
            mods = rng.sample(facet_pairs, n - 1)
            queries = [f"{tag} {ptype}"] + [f"{tag} {v} {ptype}" for _, v in mods]
        for i, query in enumerate(queries):
            add_query(query, ptype, fam)
            for k in range(3):
                clicks.append((query, f"item-{fam}-{k}", "item",
                               rng.randint(6, 12)))
            clicks.append((query, f"item-{fam}-q{i}", "item", rng.randint(4, 12)))
            clicks.append((query, shelf_of[ptype], "shelf", rng.randint(3, 6)))

    if size["tail"]:
        brands = words.take(400)
        order = rng.sample(types, len(types))
        counts = _zipf_counts(size["tail"], len(types))
        blocked = set(rng.sample(range(size["tail"]), size["blocked"]))
        n = 0
        for ptype, count in zip(order, counts):
            made = 0
            while made < count:
                if made == 0:
                    query = ptype  # the bare type phrase equals its shelf title
                else:
                    parts = []
                    if rng.random() < 0.7:
                        parts.append(rng.choice(brands))
                    for name in rng.sample(sorted(FACETS), rng.randint(0, 2)):
                        parts.append(rng.choice(FACETS[name]))
                    if n in blocked:
                        parts.insert(0, rng.choice(BLOCK_TERMS))
                    query = " ".join(parts + [ptype])
                if query in truth_queries:
                    continue
                add_query(query, ptype, None)
                clicks.append((query, f"item-tail-{n}", "item",
                               rng.randint(1, 30)))
                if rng.random() < TAIL_SHELF_CLICK_SHARE:
                    clicks.append((query, shelf_of[ptype], "shelf",
                                   rng.randint(1, 4)))
                made += 1
                n += 1
    else:
        brands = words.take(40)

    items = []
    for i in range(size["items"]):
        ptype = rng.choice(types)
        parts = [rng.choice(brands)]
        if rng.random() < 0.5:
            parts.append(rng.choice(rng.choice(list(FACETS.values()))))
        items.append({"item_id": f"sku-{i:05d}",
                      "title": " ".join(parts + [ptype, rng.choice(nouns)])})

    return {"clicks": clicks, "pages": pages, "items": items, "lexicon": lexicon,
            "truth": {"queries": truth_queries, "families": families}}


def write_inputs(workload: str, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Write one workload's inputs into ``out_dir``; returns the file map."""
    data = build(workload, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in (
        ("click_log", "click_log.csv"), ("page_catalog", "pages.jsonl"),
        ("facet_lexicon", "facet_lexicon.jsonl"),
        ("blocklist", "blocklist.txt"), ("item_catalog", "items.jsonl"),
        ("config", "config.yaml"), ("truth", "truth.json"))}

    lines = ["query,page_id,page_type,clicks,impressions"]
    lines += [f"{q},{p},{t},{c},{c * 3}" for q, p, t, c in data["clicks"]]
    paths["click_log"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["page_catalog"].write_text(
        "".join(json.dumps(p, sort_keys=True) + "\n" for p in data["pages"]),
        encoding="utf-8")
    paths["facet_lexicon"].write_text(
        "".join(json.dumps({"facet_name": n, "values": data["lexicon"][n]}) + "\n"
                for n in sorted(data["lexicon"])), encoding="utf-8")
    paths["blocklist"].write_text("\n".join(BLOCK_TERMS) + "\n", encoding="utf-8")
    paths["item_catalog"].write_text(
        "".join(json.dumps(i, sort_keys=True) + "\n" for i in data["items"]),
        encoding="utf-8")
    paths["config"].write_text(config_text(workload, seed), encoding="utf-8")
    paths["truth"].write_text(json.dumps(data["truth"], indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    return paths
