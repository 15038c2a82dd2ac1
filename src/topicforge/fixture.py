"""Deterministic desk-scale reference fixture.

Three query families: "running shoes" and "phone case" have shelf and facet
pages in the catalog, "hydration pack" has none. Queries click three item
pages shared across their family plus one private page, so intra-family
interactive values are strong (~0.6-0.88) while cross-family pairs share
nothing and land in the negative-sampling pool. Desk-scale training then
collapses each family to a tight blob and pushes the blobs far apart, which
is exactly what clustering needs: one cluster per family.

Shelf clicks supply the classification labels for the two shelved families;
co-click aggregation never counts them, because they are navigational, not
evidence of a shared purchase intention. Click counts
plant one representative per family, picked to demonstrate a different
pipeline outcome: "running shoes" duplicates its shelf page, "black phone
case" duplicates a catalog page of the cases family, and "hydration pack"
has no page to collide with, so it survives and becomes the topic page.

Everything is arithmetic, no RNG: writing the fixture twice produces
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .ingest import ClickRecord, PageRecord

# per family: (tag, base phrase, has catalog pages, modifiers); "" is the
# bare phrase and the first modifier is the planted representative
FAMILIES = (
    ("shoes", "running shoes", True,
     ["", "best", "buy", "red", "blue", "black", "white", "trail", "road",
      "marathon", "mens", "womens", "kids", "waterproof", "lightweight"]),
    ("cases", "phone case", True,
     ["black", "", "best", "red", "blue", "clear", "wallet", "flip",
      "rugged", "slim", "magnetic", "leather", "silicone", "glitter",
      "shockproof"]),
    ("packs", "hydration pack", False,
     ["", "running", "trail", "large", "small", "insulated", "lightweight",
      "kids", "blue", "black"]),
)

BLOCK_TERMS = ["counterfeit", "replica"]

FACET_LEXICON = {
    "color": {"red", "blue", "black", "white", "green", "clear"},
    "gender": {"mens", "womens", "kids"},
    "material": {"leather", "silicone", "carbon"},
}


def _query_text(mod: str, base: str) -> str:
    return f"{mod} {base}".strip()


def build_click_records() -> list[ClickRecord]:
    records: list[ClickRecord] = []

    def add(query: str, page_id: str, page_type: str, clicks: int) -> None:
        records.append(ClickRecord(query, page_id, page_type,
                                   clicks, clicks * 3))

    for tag, base, has_pages, mods in FAMILIES:
        shared = [f"item-{tag}-{k}" for k in range(3)]
        for i, mod in enumerate(mods):
            query = _query_text(mod, base)
            planted = i == 0
            per_page = 12 if planted else 8 + i % 5
            private = 20 if planted else 6 + (i * 3) % 9
            for page_id in shared:
                add(query, page_id, "item", per_page)
            if has_pages:
                add(query, f"shelf-{tag}", "shelf", 6)
            add(query, f"item-{tag}-priv-{i}", "item", private)

    # blocked junk: high clicks, but only on its own page
    add("counterfeit running shoes", "item-junk-a", "item", 100)
    add("replica phone case", "item-junk-b", "item", 100)
    return records


def build_pages() -> list[PageRecord]:
    pages = [
        PageRecord("shelf-shoes", "shelf", "running shoes", "running shoes"),
        PageRecord("shelf-cases", "shelf", "phone case", "phone case"),
    ]
    facet_specs = {
        "shoes": ("running shoes", [("color", v) for v in ("red", "blue", "black")]
                  + [("gender", v) for v in ("mens", "womens")]),
        "cases": ("phone case", [("color", v) for v in ("red", "blue", "black")]
                  + [("material", v) for v in ("leather", "silicone")]),
    }
    for tag, (base, facets) in facet_specs.items():
        for name, value in facets:
            pages.append(PageRecord(
                f"facet-{tag}-{name}-{value}", "facet", f"{value} {base}",
                base, frozenset([(name, value)])))
    for tag, base, has_pages, _ in FAMILIES:
        if not has_pages:
            continue
        for k in range(3):
            pages.append(PageRecord(f"item-{tag}-{k}", "item",
                                    f"{base} bestseller {k}", base))
    return pages


def build_items() -> list[tuple[str, str]]:
    """Item catalog for the mock retriever; titles echo query vocabulary."""
    items = []
    n = 0
    for _, base, _, mods in FAMILIES:
        for mod in mods:
            phrase = _query_text(mod, base)
            n += 1
            items.append((f"sku-{n:03d}", f"{phrase} deluxe"))
            n += 1
            items.append((f"sku-{n:03d}", f"acme {phrase}"))
    return items


CONFIG_TEMPLATE = """\
seed: 7
paths:
  click_log: click_log.csv
  page_catalog: pages.jsonl
  facet_lexicon: facet_lexicon.jsonl
  blocklist: blocklist.txt
  item_catalog: items.jsonl
  workdir: work
metric:
  negative_ratio: auto
model:
  seq_len: 12
  model_dim: 32
  num_layers: 2
  num_heads: 2
  ffn_dim: 64
  output_dim: 32
  negative_loss: complement
train:
  learning_rate: 0.001
  batch_size: 32
  epochs: 4
  eval_fraction: 0.1
finetune:
  learning_rate: 0.001
  batch_size: 32
  epochs: 8
cluster:
  threshold: 0.15
dedup:
  threshold: 0.86
select:
  quota: 10
emit:
  items_per_page: 24
experiment:
  start_date: "2025-01-01"
  n_days: 120
  base_mean: 1000.0
  noise_sd: 30.0
  lift_fraction: 0.11
"""


def write_fixture(out_dir: str | Path) -> dict[str, Path]:
    """Write the full fixture into ``out_dir``; returns the file map."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in (
        ("click_log", "click_log.csv"),
        ("page_catalog", "pages.jsonl"),
        ("facet_lexicon", "facet_lexicon.jsonl"),
        ("blocklist", "blocklist.txt"),
        ("item_catalog", "items.jsonl"),
        ("config", "config.yaml"),
    )}

    lines = ["query,page_id,page_type,clicks,impressions"]
    lines += [",".join(map(str, vars(r).values())) for r in build_click_records()]
    paths["click_log"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    with open(paths["page_catalog"], "w", encoding="utf-8") as fh:
        for page in build_pages():
            facets = [{"name": n, "value": v} for n, v in sorted(page.facets)]
            fh.write(json.dumps({**vars(page), "facets": facets},
                                sort_keys=True) + "\n")

    with open(paths["facet_lexicon"], "w", encoding="utf-8") as fh:
        for name in sorted(FACET_LEXICON):
            fh.write(json.dumps({"facet_name": name,
                                 "values": sorted(FACET_LEXICON[name])}) + "\n")

    paths["blocklist"].write_text(
        "# queries containing these terms are dropped\n"
        + "\n".join(BLOCK_TERMS) + "\n", encoding="utf-8")

    with open(paths["item_catalog"], "w", encoding="utf-8") as fh:
        for item_id, title in build_items():
            fh.write(json.dumps({"item_id": item_id, "title": title}) + "\n")

    paths["config"].write_text(CONFIG_TEMPLATE, encoding="utf-8")
    return paths
