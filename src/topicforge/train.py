"""Optimization loops for the intention encoder and the classification head.

Pretraining minimizes the summed pair loss over co-click samples; fine-tuning
continues from pretrained encoder weights and minimizes mean cross-entropy of
a linear head over the penultimate vector. Training and :func:`encode_texts`
share one tokenization path, :func:`tokenize_texts`. On the fine-tuned
checkpoint ``encode_texts`` returns the task-specific embedding used
downstream, the L2-normalized penultimate vector, for queries and page titles
alike.

Train/eval splits are decided by a stable hash of the sample text so the
split never depends on input order or process state. All shuffling comes
from a seeded generator; two runs with one seed produce identical curves.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import model
from .ingest import normalize_query
from .metric import QueryPairSample
from .model import ModelConfig
from .tokenizer import TokenSequence, Vocabulary, extract_facets, tokenize_query

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ENCODE_BATCH = 256  # texts per forward pass in encode_texts


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last finite-loss parameters."""

    def __init__(self, message: str, params: dict[str, np.ndarray], epoch: int):
        super().__init__(message)
        self.params = params
        self.epoch = epoch


@dataclass
class TrainConfig:
    optimizer: str = "adam"  # or "sgd"
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    weight_decay: float = 0.0
    eval_fraction: float = 0.1

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must be in [0, 1)")


@dataclass(frozen=True)
class LabeledQuery:
    query: str
    label: int


@dataclass
class Optimizer:
    """Constant-rate sgd or adam with decoupled weight decay."""

    cfg: TrainConfig
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        lr = self.cfg.learning_rate
        if self.cfg.optimizer == "sgd":
            for name, g in grads.items():
                params[name] -= lr * g
        else:
            self.t += 1
            bc1 = 1.0 - ADAM_BETA1 ** self.t
            bc2 = 1.0 - ADAM_BETA2 ** self.t
            for name, g in grads.items():
                if name not in self.m:
                    self.m[name] = np.zeros_like(g)
                    self.v[name] = np.zeros_like(g)
                self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
                self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g ** 2
                params[name] -= lr * (self.m[name] / bc1) / (
                    np.sqrt(self.v[name] / bc2) + ADAM_EPS)
        if self.cfg.weight_decay:
            for name in grads:
                params[name] -= lr * self.cfg.weight_decay * params[name]


def _stable_hash_fraction(text: str) -> float:
    """Map text to [0, 1) via blake2b; stable across runs and platforms."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def split_eval(keys: Sequence[str], eval_fraction: float) -> list[bool]:
    """True marks eval membership, decided per key by stable hash."""
    return [_stable_hash_fraction(k) < eval_fraction for k in keys]


def tokenize_texts(texts: Sequence[str], vocab: Vocabulary, seq_len: int,
                   facet_lexicon: Mapping[str, set[str]] | None = None,
                   ) -> list[TokenSequence]:
    """One token sequence per text; each distinct text is normalized, has its
    facets extracted and is tokenized once."""
    memo: dict[str, TokenSequence] = {}
    for text in texts:
        if text not in memo:
            normalized = normalize_query(text)
            facets = extract_facets(normalized, facet_lexicon) if facet_lexicon else {}
            memo[text] = tokenize_query(normalized, facets, vocab, seq_len)
    return [memo[text] for text in texts]


def encode_texts(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocabulary,
    texts: Sequence[str],
    facet_lexicon: Mapping[str, set[str]] | None = None,
) -> np.ndarray:
    """Unit-norm embeddings, one row per text, shape ``(len(texts), output_dim)``.

    Forward passes take at most ``ENCODE_BATCH`` texts; an empty list runs
    none.
    """
    seqs = tokenize_texts(texts, vocab, cfg.seq_len, facet_lexicon)
    if not seqs:
        return np.zeros((0, cfg.output_dim))
    return np.concatenate([
        model.embed_batch(params, cfg, seqs[start:start + ENCODE_BATCH])
        for start in range(0, len(seqs), ENCODE_BATCH)])


def _mean_pair_loss(params, cfg: ModelConfig, pairs) -> float:
    if not pairs:
        return float("nan")
    total = 0.0
    for start in range(0, len(pairs), 256):
        chunk = pairs[start:start + 256]
        seqs = [s for p in chunk for s in (p[0], p[1])]
        e = model.embed_batch(params, cfg, seqs)
        _, losses, _ = model._pair_losses(e[0::2], e[1::2],
                                          [p[2] for p in chunk],
                                          cfg.negative_loss)
        total += float(losses.sum())
    return total / len(pairs)


def train_intention_model(
    samples: Sequence[QueryPairSample],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    facet_lexicon: Mapping[str, set[str]] | None = None,
    init: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Pretrain on pair samples; returns (params, per-epoch history).

    History rows carry ``epoch``, ``mean_loss`` (train) and, when the stable
    hash split leaves any eval pairs, ``eval_loss``. On a non-finite loss the
    run aborts with :class:`TrainingDiverged` holding the last parameters
    that still produced finite losses.
    """
    if not any(s.interactive > 0 for s in samples):
        raise ValueError("need at least one positive sample")
    seqs = tokenize_texts([q for s in samples for q in (s.query_a, s.query_b)],
                          vocab, cfg.seq_len, facet_lexicon)
    tokenized = [(seqs[2 * i], seqs[2 * i + 1], s.interactive)
                 for i, s in enumerate(samples)]
    is_eval = split_eval([f"{s.query_a}\x1f{s.query_b}" for s in samples],
                         train_cfg.eval_fraction)
    train_set = [t for t, ev in zip(tokenized, is_eval) if not ev]
    eval_set = [t for t, ev in zip(tokenized, is_eval) if ev]
    if not train_set:
        raise ValueError("eval split consumed every sample")

    params = ({k: v.copy() for k, v in init.items()} if init is not None
              else model.init_params(cfg, seed=train_cfg.seed))
    opt = Optimizer(train_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[dict] = []
    last_good = {k: v.copy() for k, v in params.items()}
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(train_set))
        loss_sum = 0.0
        try:
            for start in range(0, len(order), train_cfg.batch_size):
                batch = [train_set[i] for i in order[start:start + train_cfg.batch_size]]
                loss, grads = model.batch_loss_and_grad(params, cfg, batch)
                loss_sum += loss
                opt.step(params, grads)
        except model.NonFiniteLossError as exc:
            raise TrainingDiverged(
                f"diverged during epoch {epoch}: {exc}", last_good, epoch) from exc
        if not model.check_finite(params):
            raise TrainingDiverged(
                f"parameters went non-finite during epoch {epoch}", last_good, epoch)
        row = {"epoch": epoch, "mean_loss": loss_sum / len(train_set)}
        if eval_set:
            row["eval_loss"] = _mean_pair_loss(params, cfg, eval_set)
        history.append(row)
        last_good = {k: v.copy() for k, v in params.items()}
        logger.info("epoch %d mean_loss %.6f", epoch, row["mean_loss"])
    return params, history


def finetune_classifier(
    pretrained: dict[str, np.ndarray],
    labeled: Sequence[LabeledQuery],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    facet_lexicon: Mapping[str, set[str]] | None = None,
    freeze_encoder: bool = False,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Fine-tune a classification head (and, unless frozen, the encoder).

    ``cfg.num_classes`` must be set; the encoder starts from ``pretrained``
    and the head is freshly initialized. History rows carry ``epoch``,
    ``mean_loss`` and training ``accuracy``.
    """
    if cfg.num_classes < 2:
        raise ValueError("need num_classes >= 2")
    present = {s.label for s in labeled}
    if len(present) < 2:
        raise ValueError("labeled data must contain at least two classes")
    if max(present) >= cfg.num_classes or min(present) < 0:
        raise ValueError("label out of range for num_classes")
    missing = sorted(set(range(cfg.num_classes)) - present)
    if missing:
        logger.warning("classes absent from training data: %s", missing)

    seqs = tokenize_texts([s.query for s in labeled], vocab, cfg.seq_len,
                          facet_lexicon)
    labels = [s.label for s in labeled]
    params = model.init_head(pretrained, cfg, seed=train_cfg.seed)
    opt = Optimizer(train_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[dict] = []
    last_good = {k: v.copy() for k, v in params.items()}
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(seqs))
        loss_sum = 0.0
        n_batches = 0
        try:
            for start in range(0, len(order), train_cfg.batch_size):
                idx = order[start:start + train_cfg.batch_size]
                loss, grads = model.classify_batch_loss_and_grad(
                    params, cfg, [seqs[i] for i in idx], [labels[i] for i in idx],
                    freeze_encoder=freeze_encoder)
                loss_sum += loss
                n_batches += 1
                opt.step(params, grads)
        except model.NonFiniteLossError as exc:
            raise TrainingDiverged(
                f"diverged during epoch {epoch}: {exc}", last_good, epoch) from exc
        logits, _ = model.classify_batch_logits(params, cfg, seqs)
        accuracy = float((logits.argmax(axis=1) == np.asarray(labels)).mean())
        history.append({"epoch": epoch, "mean_loss": loss_sum / n_batches,
                        "accuracy": accuracy})
        last_good = {k: v.copy() for k, v in params.items()}
        logger.info("epoch %d mean_loss %.6f accuracy %.3f",
                    epoch, history[-1]["mean_loss"], accuracy)
    return params, history


def write_training_curve(history: Sequence[Mapping], path: str | Path) -> None:
    """CSV curve: epoch,mean_loss plus eval_loss and accuracy when recorded."""
    fields = ["epoch", "mean_loss"] + [
        key for key in ("eval_loss", "accuracy")
        if any(key in row for row in history)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in history:
            writer.writerow({k: row.get(k) for k in fields})
