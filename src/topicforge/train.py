"""Optimization loops for the intention encoder and the classification head.

Pretraining minimizes the summed pair loss over co-click samples; fine-tuning
continues from pretrained encoder weights and minimizes mean cross-entropy of
a linear head over the penultimate vector. Training and :func:`encode_texts`
share one tokenization path, :func:`tokenize_texts`, over ingest's
normalized text, which it does not normalize again. On the fine-tuned
checkpoint ``encode_texts`` returns the task-specific embedding used
downstream, the L2-normalized penultimate vector, for queries and page titles
alike.

Both trainings compute in float32 (``TRAIN_DTYPE``): the encoder follows
the dtype of its parameters, and checkpoints store float32 anyway. Only the
output vector, its normalization and the losses stay float64, inside
:mod:`model`.

A training run keeps its parameters in one flat vector whose named views are
the tensors the model reads (:class:`model.FlatTensors`), from
``model.init_params`` or ``init_head`` to the checkpoint's blob, and trains
it in place. The model writes each step's gradients into one flat vector of
the same layout, and :class:`Optimizer` runs Adam as about ten whole-vector
operations on flat moments ``m`` and ``v``, not a loop of them per tensor.
It writes its update into the gradient vector it is handed and keeps that
vector as the next step's scratch, so a step holds five parameter-sized
vectors (the parameters, ``m``, ``v`` and two gradients), not seven.
Texts are tokenized once, into one id and mask row per distinct text, and
each step gathers its rows by index (:class:`model.TokenBatch`,
:class:`model.PairBatch`).

Train/eval splits are decided by a stable hash of the sample text so the
split never depends on input order or process state. All shuffling comes
from a seeded generator; two runs with one seed produce identical curves.
A loss or parameter that goes non-finite stops training with a
FloatingPointError naming the epoch.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import model
from .config import ModelConfig, TrainConfig
from .ingest import tokenize_text
from .metric import QueryPairSample
from .tokenizer import PAD_ID, Vocabulary, token_ids

logger = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per inference pass and per block of best-match scores. Inference
# keeps no backward cache, so its memory grows with this block. For a
# dense-sized encoder (model_dim 64, 16-token rows) a 128-row pass peaks at
# 5.8 MB (tracemalloc) and a 32-pair training step at 10.7 MB, so the step
# sets the peak and smaller blocks would save no memory there; a 256-row
# pass would peak at 11.6 MB. One pass over all 1,063 rows of longtail's
# finetune accuracy check peaks at 11.5 MB of activations and 300-class
# float64 logits (1.4 MB for a block) and raised the run's peak RSS from 47
# to 57 MB
ENCODE_BATCH = 128
TRAIN_DTYPE = np.float32  # parameters, gradients and Adam moments


@dataclass(frozen=True)
class LabeledQuery:
    query: str
    label: int


@dataclass
class Optimizer:
    """Adam at a constant learning rate over one flat parameter vector.

    ``m`` and ``v`` are flat like the parameters, created at the first step.
    A step writes its update into the gradient vector it is handed and keeps
    that vector as the next step's scratch, so a step holds the parameters,
    ``m``, ``v`` and two gradient vectors. Each step is handed a new
    gradient vector, as each backward pass writes one.
    """

    cfg: TrainConfig
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    scratch: np.ndarray | None = field(default=None, repr=False)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One Adam step on the flat vector ``params``, in place; ``grads``
        is overwritten with the update."""
        if self.m is None:
            self.m, self.v = np.zeros_like(grads), np.zeros_like(grads)
            self.scratch = np.empty_like(grads)
        tmp = self.scratch
        lr = self.cfg.learning_rate
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        m, v = self.m, self.v
        # element by element the same operations, in the same order, as
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g;
        # params -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        m *= ADAM_BETA1
        np.multiply(grads, 1 - ADAM_BETA1, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.multiply(grads, grads, out=tmp)
        tmp *= 1 - ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update = np.divide(m, bc1, out=grads)  # g is spent: the update
        update *= lr
        update /= tmp
        params -= update
        self.scratch = update


def _stable_hash_fraction(text: str) -> float:
    """Map text to [0, 1) via blake2b; stable across runs and platforms."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def split_eval(keys: Sequence[str], eval_fraction: float) -> list[bool]:
    """True marks eval membership, decided per key by stable hash."""
    return [_stable_hash_fraction(k) < eval_fraction for k in keys]


def tokenize_texts(texts: Sequence[str], vocab: Vocabulary,
                   seq_len: int) -> tuple[model.TokenBatch, np.ndarray]:
    """Token rows of the distinct texts, each laid out as
    :func:`tokenize_query` does, and for each text the index of its row.

    Texts are ingest's normalized text. Each distinct text is matched
    against the vocabulary's facets once; a repeated text shares its row.
    """
    row_of: dict[str, int] = {}
    rows = np.array([row_of.setdefault(text, len(row_of)) for text in texts],
                    dtype=np.intp)
    ids = np.full((len(row_of), seq_len), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(row_of), seq_len))
    matcher = vocab.facet_matcher
    for row, text in enumerate(row_of):
        words = tokenize_text(text)
        found = token_ids(words, matcher.match(words), vocab, seq_len)
        ids[row, :len(found)] = found
        mask[row, :len(found)] = 1.0
    return model.TokenBatch(ids, mask), rows


Encoder = Callable[[Sequence[str]], np.ndarray]  # texts -> (n, dim) rows


def encode_texts(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    vocab: Vocabulary,
    texts: Sequence[str],
) -> np.ndarray:
    """Unit-norm embeddings, one row per text, shape ``(len(texts), output_dim)``.

    Texts are ingest's normalized text (:func:`tokenize_texts`).
    Forward passes take at most ``ENCODE_BATCH`` texts; an empty list runs
    none.
    """
    tokens, rows = tokenize_texts(texts, vocab, cfg.seq_len)
    if not len(rows):
        return np.zeros((0, cfg.output_dim))
    return np.concatenate([
        model.embed_batch(params, cfg, tokens[rows[start:start + ENCODE_BATCH]])
        for start in range(0, len(rows), ENCODE_BATCH)])


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


def _mean_pair_loss(params, cfg: ModelConfig, pairs: model.PairBatch) -> float:
    total = 0.0
    for start in range(0, len(pairs), ENCODE_BATCH // 2):
        chunk = pairs[start:start + ENCODE_BATCH // 2]
        e = model.embed_batch(params, cfg, chunk.stacked())
        _, losses, _ = model._pair_losses(e[0::2], e[1::2], chunk.labels,
                                          cfg.negative_loss)
        total += float(losses.sum())
    return total / len(pairs)


# the loop checks for non-finite losses and parameters itself, so numpy's
# overflow and invalid-value warnings would only repeat what it reports
@np.errstate(all="ignore")
def _run_epochs(params: model.FlatTensors, n_rows: int, train_cfg: TrainConfig,
                batch_step, epoch_row) -> tuple[model.FlatTensors, list[dict]]:
    """The epoch loop of both trainings, training ``params`` in place:
    (params, history).

    Each epoch takes the ``n_rows`` rows in a seeded permutation, one Adam
    step over ``params.flat`` per ``batch_step(params, rows) -> (loss,
    grads)``, then appends a row of ``epoch``, its ``steps`` and ``samples``
    and ``epoch_row(params, loss_sum, n_batches)`` to the history. A
    non-finite loss or parameter raises FloatingPointError naming the epoch
    (numpy itself raises none here: its errors are ignored).
    """
    opt = Optimizer(train_cfg)
    rng = np.random.default_rng(train_cfg.seed)
    history: list[dict] = []
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
                opt.step(params.flat, grads.flat)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"diverged during epoch {epoch}: {exc}") from exc
        if not np.isfinite(params.flat).all():
            raise FloatingPointError(
                f"parameters went non-finite during epoch {epoch}")
        row = {"epoch": epoch, "steps": n_batches, "samples": n_rows,
               **epoch_row(params, loss_sum, n_batches)}
        history.append(row)
        logger.info("trained %s", row)
    return params, history


def train_intention_model(
    samples: Sequence[QueryPairSample],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[model.FlatTensors, list[dict]]:
    """Pretrain on pair samples; returns (params, per-epoch history).

    History rows carry ``epoch``, its Adam ``steps`` and training
    ``samples``, ``mean_loss`` (train) and, when the stable hash split leaves
    any eval pairs, ``eval_loss``. On a non-finite loss or
    parameter the run aborts with FloatingPointError.
    """
    if not any(s.interactive > 0 for s in samples):
        raise ValueError("need at least one positive sample")
    tokens, rows = tokenize_texts(
        [q for s in samples for q in (s.query_a, s.query_b)], vocab, cfg.seq_len)
    pairs = model.PairBatch(
        tokens, rows.reshape(-1, 2),
        np.asarray([s.interactive for s in samples], dtype=np.float64))
    is_eval = np.asarray(split_eval(
        [f"{s.query_a}\x1f{s.query_b}" for s in samples],
        train_cfg.eval_fraction), dtype=bool)
    train_set, eval_set = pairs[~is_eval], pairs[is_eval]
    if not len(train_set):
        raise ValueError("eval split consumed every sample")

    def batch_step(params, rows):
        return model.batch_loss_and_grad(params, cfg, train_set[rows])

    def epoch_row(params, loss_sum, n_batches):
        row = {"mean_loss": loss_sum / len(train_set)}
        if len(eval_set):
            row["eval_loss"] = _mean_pair_loss(params, cfg, eval_set)
        return row

    return _run_epochs(model.init_params(cfg, train_cfg.seed, TRAIN_DTYPE),
                       len(train_set), train_cfg, batch_step, epoch_row)


def finetune_classifier(
    pretrained: dict[str, np.ndarray],
    labeled: Sequence[LabeledQuery],
    vocab: Vocabulary,
    cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> tuple[model.FlatTensors, list[dict]]:
    """Fine-tune a classification head together with the encoder.

    ``cfg.num_classes`` must be set; the encoder starts from ``pretrained``
    and the head is freshly initialized. History rows carry ``epoch``,
    ``steps``, ``samples``, ``mean_loss`` and training ``accuracy``. Divergence raises
    FloatingPointError as in pretraining.
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

    tokens, token_rows = tokenize_texts([s.query for s in labeled], vocab,
                                        cfg.seq_len)
    labels = np.asarray([s.label for s in labeled])

    def batch_step(params, rows):
        return model.classify_batch_loss_and_grad(
            params, cfg, tokens[token_rows[rows]], labels[rows])

    def epoch_row(params, loss_sum, n_batches):
        correct = 0
        for start in range(0, len(labels), ENCODE_BATCH):
            logits, _ = model.classify_batch_logits(
                params, cfg, tokens[token_rows[start:start + ENCODE_BATCH]])
            correct += int((logits.argmax(axis=1)
                            == labels[start:start + ENCODE_BATCH]).sum())
        return {"mean_loss": loss_sum / n_batches,
                "accuracy": correct / len(labels)}

    return _run_epochs(model.init_head(pretrained, cfg, train_cfg.seed),
                       len(labels), train_cfg, batch_step, epoch_row)
