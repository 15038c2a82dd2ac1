"""Model-quality scores against the generator's ground truth.

Both scores read a finished workdir through the program's public API only
(``model``, ``tokenizer`` and ``ingest.normalize_query``), tokenizing each
query the way the pipeline does: normalize, extract facets, tokenize.

- ``intent_auc``: AUC of intention-embedding cosine (``train/intention.ckpt``)
  as a score separating same-family query pairs from cross-family pairs. A
  long-tail query co-clicks with nothing, so it is a family of its own; the
  pairs scored are those with at least one query from a co-click family
  (tail-tail pairs are all cross-family and would only add millions of
  negatives).
- ``shelf_xent``: mean cross-entropy, in nats, of the fine-tuned head
  (``finetune/finetuned.ckpt``) against the shelf page of each generated
  query's product type.
- ``shelf_accuracy``: share of those queries whose top class is that shelf.
  It is printed but not gated: on ``dense`` a short fine-tune gets whole
  families right or wrong together, so it moves in steps of 1/12 from seed
  to seed, while the cross-entropy moves smoothly.

All are deterministic for one seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from topicforge import model
from topicforge.ingest import normalize_query
from topicforge.tokenizer import (Vocabulary, extract_facets,
                                  load_facet_lexicon, tokenize_query)

BATCH = 256


def _sequences(queries, vocab, lexicon, seq_len):
    out = []
    for query in queries:
        text = normalize_query(query)
        out.append(tokenize_query(text, extract_facets(text, lexicon), vocab,
                                  seq_len))
    return out


def auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC; tied scores share their average rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos = int(positive.sum())
    n_neg = len(positive) - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def scores(workdir: str | Path, inputs: str | Path) -> dict[str, float]:
    workdir, inputs = Path(workdir), Path(inputs)
    truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
    lexicon = load_facet_lexicon(inputs / "facet_lexicon.jsonl")
    vocab = Vocabulary.load(workdir / "train" / "vocab.jsonl")

    queries = sorted(truth["queries"])
    params, cfg = model.load_params(workdir / "train" / "intention.ckpt")
    seqs = _sequences(queries, vocab, lexicon, cfg.seq_len)
    emb = np.concatenate([model.embed_batch(params, cfg, seqs[i:i + BATCH])
                          for i in range(0, len(seqs), BATCH)])
    family = np.array([truth["queries"][q]["family"] or "" for q in queries])
    in_family = family != ""
    fam_emb, fam = emb[in_family], family[in_family]
    upper = np.triu_indices(len(fam), k=1)
    same = (fam[:, None] == fam[None, :])[upper]
    tail = (fam_emb @ emb[~in_family].T).ravel()
    intent = auc(np.concatenate([(fam_emb @ fam_emb.T)[upper], tail]),
                 np.concatenate([same, np.zeros(len(tail), dtype=bool)]))

    params, cfg = model.load_params(workdir / "finetune" / "finetuned.ckpt")
    classes = json.loads((workdir / "finetune" / "classes.json")
                         .read_text(encoding="utf-8"))
    logits = np.concatenate([model.classify_batch_logits(params, cfg,
                                                         seqs[i:i + BATCH])[0]
                             for i in range(0, len(seqs), BATCH)])
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_prob = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    target = np.array([classes.index(truth["queries"][q]["shelf"])
                       for q in queries])
    rows = np.arange(len(queries))
    return {"intent_auc": intent,
            "shelf_xent": float(-log_prob[rows, target].mean()),
            "shelf_accuracy": float((logits.argmax(axis=1) == target).mean())}
