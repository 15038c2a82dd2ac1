"""Optimization loops for the intention encoder and the classification head.

Pretraining minimizes the summed pair loss over co-click samples; fine-tuning
continues from pretrained encoder weights and minimizes mean cross-entropy of
a linear head over the penultimate vector. Training and :func:`encode_texts`
share one tokenization path, :func:`tokenize_texts`. On the fine-tuned
checkpoint ``encode_texts`` returns the task-specific embedding used
downstream, the L2-normalized penultimate vector, for queries and page titles
alike.

Both trainings compute in float32 (``TRAIN_DTYPE``): the encoder follows
the dtype of its parameters, and checkpoints store float32 anyway. Only the
output vector, its normalization and the losses stay float64, inside
:mod:`model`.

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
from .ingest import normalize_query, tokenize_text
from .metric import QueryPairSample
from .model import ModelConfig
from .tokenizer import PAD_ID, TokenSequence, Vocabulary, token_ids

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per inference pass and per block of best-match scores. Inference
# keeps no backward cache, so its memory grows with this block; from 128
# rows down, a 32-pair training step sets the peak of a dense-sized encoder
# (model_dim 64), so smaller blocks would save no memory there
ENCODE_BATCH = 128
TRAIN_DTYPE = np.float32  # parameters, gradients and Adam moments


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last finite-loss parameters."""

    def __init__(self, message: str, params: dict[str, np.ndarray], epoch: int):
        super().__init__(message)
        self.params = params
        self.epoch = epoch


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    eval_fraction: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be a finite number > 0")
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
    """Adam at a constant learning rate."""

    cfg: TrainConfig
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        lr = self.cfg.learning_rate
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            # in place, with the same operations as m = b1 * m + (1 - b1) * g
            m, v = self.m[name], self.v[name]
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _stable_hash_fraction(text: str) -> float:
    """Map text to [0, 1) via blake2b; stable across runs and platforms."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def split_eval(keys: Sequence[str], eval_fraction: float) -> list[bool]:
    """True marks eval membership, decided per key by stable hash."""
    return [_stable_hash_fraction(k) < eval_fraction for k in keys]


def tokenize_texts(texts: Sequence[str], vocab: Vocabulary,
                   seq_len: int) -> list[TokenSequence]:
    """One token sequence per text, laid out as :func:`tokenize_query` does.

    Each distinct text is normalized and matched against the vocabulary's
    facets once, into one row of a shared ids array and mask array; the
    sequences are views of those rows, and a repeated text shares its row.
    """
    row_of = dict.fromkeys(texts)
    ids = np.full((len(row_of), seq_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(row_of), seq_len))
    matcher = vocab.facet_matcher
    for row, text in enumerate(row_of):
        words = tokenize_text(normalize_query(text))
        found = token_ids(words, matcher.match(words), vocab, seq_len)
        ids[row, :len(found)] = found
        mask[row, :len(found)] = 1.0
        row_of[text] = TokenSequence(ids[row], mask[row])
    return [row_of[text] for text in texts]


def encode_texts(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocabulary,
    texts: Sequence[str],
) -> np.ndarray:
    """Unit-norm embeddings, one row per text, shape ``(len(texts), output_dim)``.

    Forward passes take at most ``ENCODE_BATCH`` texts; an empty list runs
    none.
    """
    seqs = tokenize_texts(texts, vocab, cfg.seq_len)
    if not seqs:
        return np.zeros((0, cfg.output_dim))
    return np.concatenate([
        model.embed_batch(params, cfg, seqs[start:start + ENCODE_BATCH])
        for start in range(0, len(seqs), ENCODE_BATCH)])


def best_match(rows: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the index of the key row with the highest dot product, and
    that product; ties go to the first key.

    Scores ``ENCODE_BATCH`` rows at a time, so memory grows with a block of
    rows times the keys, not with every row times the keys.
    """
    best = np.empty(len(rows), dtype=np.intp)
    sims = np.empty(len(rows))
    for start in range(0, len(rows), ENCODE_BATCH):
        scores = rows[start:start + ENCODE_BATCH] @ keys.T
        top = scores.argmax(axis=1)
        best[start:start + len(top)] = top
        sims[start:start + len(top)] = scores[np.arange(len(top)), top]
    return best, sims


def _mean_pair_loss(params, cfg: ModelConfig, pairs) -> float:
    if not pairs:
        return float("nan")
    total = 0.0
    for start in range(0, len(pairs), ENCODE_BATCH // 2):
        chunk = pairs[start:start + ENCODE_BATCH // 2]
        seqs = [s for p in chunk for s in (p[0], p[1])]
        e = model.embed_batch(params, cfg, seqs)
        _, losses, _ = model._pair_losses(e[0::2], e[1::2],
                                          [p[2] for p in chunk],
                                          cfg.negative_loss)
        total += float(losses.sum())
    return total / len(pairs)


# the loop checks for non-finite losses and parameters itself, so numpy's
# overflow and invalid-value warnings would only repeat what it reports
@np.errstate(all="ignore")
def _run_epochs(init, n_rows: int, train_cfg: TrainConfig, batch_step,
                epoch_row) -> tuple[dict[str, np.ndarray], list[dict]]:
    """The epoch loop of both trainings: (trained params, history).

    Training starts from a ``TRAIN_DTYPE`` copy of ``init``. Each epoch
    takes the ``n_rows`` rows in a seeded permutation, one Adam step per
    ``batch_step(params, rows) -> (loss, grads)``, then appends
    ``epoch_row(params, loss_sum, n_batches)`` to the history. A non-finite
    loss or parameter raises :class:`TrainingDiverged` holding the
    parameters after the last completed epoch.
    """
    params = {k: v.astype(TRAIN_DTYPE) for k, v in init.items()}
    opt = Optimizer(train_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[dict] = []
    last_good = {k: v.copy() for k, v in params.items()}
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(n_rows)
        loss_sum = 0.0
        n_batches = 0
        try:
            for start in range(0, n_rows, train_cfg.batch_size):
                loss, grads = batch_step(
                    params, order[start:start + train_cfg.batch_size])
                loss_sum += loss
                n_batches += 1
                opt.step(params, grads)
        except model.NonFiniteLossError as exc:
            raise TrainingDiverged(
                f"diverged during epoch {epoch}: {exc}", last_good, epoch) from exc
        if not model.check_finite(params):
            raise TrainingDiverged(
                f"parameters went non-finite during epoch {epoch}", last_good, epoch)
        row = {"epoch": epoch, **epoch_row(params, loss_sum, n_batches)}
        history.append(row)
        last_good = {k: v.copy() for k, v in params.items()}
        logger.info("trained %s", row)
    return params, history


def train_intention_model(
    samples: Sequence[QueryPairSample],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Pretrain on pair samples; returns (params, per-epoch history).

    History rows carry ``epoch``, ``mean_loss`` (train) and, when the stable
    hash split leaves any eval pairs, ``eval_loss``. On a non-finite loss or
    parameter the run aborts with :class:`TrainingDiverged` holding the last
    parameters that still produced finite losses.
    """
    if not any(s.interactive > 0 for s in samples):
        raise ValueError("need at least one positive sample")
    seqs = tokenize_texts([q for s in samples for q in (s.query_a, s.query_b)],
                          vocab, cfg.seq_len)
    tokenized = [(seqs[2 * i], seqs[2 * i + 1], s.interactive)
                 for i, s in enumerate(samples)]
    is_eval = split_eval([f"{s.query_a}\x1f{s.query_b}" for s in samples],
                         train_cfg.eval_fraction)
    train_set = [t for t, ev in zip(tokenized, is_eval) if not ev]
    eval_set = [t for t, ev in zip(tokenized, is_eval) if ev]
    if not train_set:
        raise ValueError("eval split consumed every sample")

    def batch_step(params, rows):
        return model.batch_loss_and_grad(params, cfg,
                                         [train_set[i] for i in rows])

    def epoch_row(params, loss_sum, n_batches):
        row = {"mean_loss": loss_sum / len(train_set)}
        if eval_set:
            row["eval_loss"] = _mean_pair_loss(params, cfg, eval_set)
        return row

    return _run_epochs(model.init_params(cfg, seed=train_cfg.seed),
                       len(train_set), train_cfg, batch_step, epoch_row)


def finetune_classifier(
    pretrained: dict[str, np.ndarray],
    labeled: Sequence[LabeledQuery],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Fine-tune a classification head together with the encoder.

    ``cfg.num_classes`` must be set; the encoder starts from ``pretrained``
    and the head is freshly initialized. History rows carry ``epoch``,
    ``mean_loss`` and training ``accuracy``. Divergence raises
    :class:`TrainingDiverged` as in pretraining.
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

    seqs = tokenize_texts([s.query for s in labeled], vocab, cfg.seq_len)
    labels = np.asarray([s.label for s in labeled])

    def batch_step(params, rows):
        return model.classify_batch_loss_and_grad(
            params, cfg, [seqs[i] for i in rows], labels[rows])

    def epoch_row(params, loss_sum, n_batches):
        correct = 0
        for start in range(0, len(seqs), ENCODE_BATCH):
            logits, _ = model.classify_batch_logits(
                params, cfg, seqs[start:start + ENCODE_BATCH])
            correct += int((logits.argmax(axis=1)
                            == labels[start:start + ENCODE_BATCH]).sum())
        return {"mean_loss": loss_sum / n_batches, "accuracy": correct / len(seqs)}

    return _run_epochs(model.init_head(pretrained, cfg, seed=train_cfg.seed),
                       len(seqs), train_cfg, batch_step, epoch_row)


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
