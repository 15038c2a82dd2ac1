"""Query intention encoder with exact analytic gradients, in plain numpy.

Forward path: token + position embeddings, a stack of pre-norm transformer
layers (multi-head self-attention and a gelu feed-forward block, both with
residuals), a final layer norm, masked mean pooling, a tanh pooling dense
layer, two output feed-forward layers, and L2 normalization of the result.

The pair objective for two queries with interactive label I is

    loss = -I * log(sigmoid(e_a . e_b))

where e_a, e_b are the unit-norm encoder outputs, so the dot product is the
cosine similarity. Batch loss is the sum over pairs. A classification head
(for the category-page fine-tuning task) applies a linear layer to the
pre-normalization output vector; that pre-normalization vector is the
"penultimate" representation, and ``embed_batch`` on a fine-tuned checkpoint
returns it L2-normalized for downstream deduplication.

Activations are token-major matrices: a batch of B sequences trimmed to
length L is one ``(B*L, d)`` array, row ``b*L + l`` for token l of sequence
b, from the embedding lookup to the final layer norm, so every projection,
layer norm and gelu is one call on one 2-D array. Only attention views its
rows as ``(B, H, L, head_dim)``. Each layer's q, k and v come from one GEMM,
``a @ [wq|wk|wv]``, and its backward runs one GEMM for the three weight
gradients and one for d(a). The elementwise chains run in place.

Each transformer layer is two blocks, ``_attention`` and ``_ffn``, each
returning its output and the intermediates its backward (``_attention_back``,
``_ffn_back``) reads. Only the two loss functions keep those caches; an
inference pass (``embed_batch``, ``classify_batch_logits``) frees each
block's intermediates before the next block runs, so its memory grows with
one block of one batch, not with the whole backward cache. The parameters,
from ``init_params`` to the checkpoint, and the loss functions' gradients
are each a :class:`FlatTensors`, named views of one flat vector in name
order, so an optimizer updates every tensor with whole-vector operations.

Backpropagation is hand-derived for every block and verified against
central finite differences in the test suite. Computation follows the
parameters' dtype: float64 from ``init_params`` by default, float32 from
``load_params`` and in training. The output vector z, its L2 normalization
and the losses always run in float64; they cost rows x output_dim. A
checkpoint's blob is the flat vector in float32, with a JSON sidecar manifest.

Masking guarantees: positions with attention_mask == 0 receive exactly zero
attention weight (a -inf bias is added to their scores before the softmax)
and are excluded from mean pooling, so PAD positions can never influence the
output. Each forward pass is trimmed to the batch's longest unmasked length,
so no work is spent on columns that are PAD in every row. The batch's shape
then picks the kernels and its longest row the reduction lengths, so a
text's embedding agrees across batch compositions to about 1e-15 in float64
and 2e-7 to 5e-7 in float32 (dense- and longtail-sized encoders with
perturbed weights, 128 texts against each alone and in blocks of 3), not
bit for bit.
Forward passes are read-only over the parameters and safe to run
concurrently; gradient dicts from shards may be merged by plain summation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ModelConfig
from .tokenizer import TokenSequence

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f, out = cfg.model_dim, cfg.ffn_dim, cfg.output_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (cfg.vocab_size, d),
        "pos_emb": (cfg.seq_len, d),
        "final_ln.g": (d,), "final_ln.b": (d,),
        "pool.w": (d, d), "pool.b": (d,),
        "out1.w": (d, d), "out1.b": (d,),
        "out2.w": (d, out), "out2.b": (out,),
    }
    for i in range(cfg.num_layers):
        p = f"L{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        for nm in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + nm] = (d, d)
        for nm in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + nm] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    if cfg.num_classes > 0:
        shapes["head.w"] = (out, cfg.num_classes)
        shapes["head.b"] = (cfg.num_classes,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0,
                dtype=np.float64) -> FlatTensors:
    """Fresh ``dtype`` parameters: N(0, 0.02) weights, zero biases, identity
    layer norms.

    The classification head uses uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    weights and zero bias.
    """
    rng = np.random.default_rng(seed)
    shapes = param_shapes(cfg)
    params = FlatTensors(shapes, dtype)
    # drawn in float64 and in param_shapes order, whatever the layout
    for name, shape in shapes.items():
        if name.endswith(".g"):  # layer norm gains
            params[name][...] = 1.0
        elif name == "head.w":
            bound = 1.0 / math.sqrt(shape[0])
            params[name][...] = rng.uniform(-bound, bound, size=shape)
        elif not name.endswith((".b", ".b1", ".b2", "bq", "bk", "bv", "bo")):
            params[name][...] = rng.normal(0.0, 0.02, size=shape)
    return params


def init_head(params: dict[str, np.ndarray], cfg: ModelConfig,
              seed: int = 0) -> FlatTensors:
    """``params`` copied into one float32 :class:`FlatTensors` that also
    holds a freshly initialized classification head."""
    if cfg.num_classes < 1:
        raise ValueError("config declares no classification head")
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(cfg.output_dim)
    return FlatTensors.copy_of({
        **params,
        "head.w": rng.uniform(-bound, bound,
                              size=(cfg.output_dim, cfg.num_classes)),
        "head.b": np.zeros(cfg.num_classes)}, np.float32)


class FlatTensors(dict):
    """Named tensors that are views of one flat vector, :attr:`flat`, laid
    out in name order, the order of a checkpoint's blob.

    A whole-vector operation on ``flat`` (an Adam step, a finiteness check,
    a checkpoint write) covers every tensor in one call.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype):
        super().__init__()
        shapes = dict(sorted(shapes.items()))
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes), dtype)
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            self[name] = self.flat[offset:offset + size].reshape(shape)
            offset += size

    @classmethod
    def copy_of(cls, tensors: dict[str, np.ndarray], dtype) -> "FlatTensors":
        """A flat ``dtype`` copy of ``tensors``."""
        out = cls({name: w.shape for name, w in tensors.items()}, dtype)
        for name, w in tensors.items():
            out[name][...] = w
        return out


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def log_sigmoid(x):
    """log(sigmoid(x)) without an exp overflow path."""
    return -np.logaddexp(0.0, -np.asarray(x))


def sigmoid(x):
    return np.exp(log_sigmoid(x))


# Activations are (rows, features) matrices; the chains below run in place.

def _gelu(x):
    """Tanh-approximate gelu, 0.5 x (1 + tanh(c x (1 + k x^2))) = x s, and
    the factor s = 0.5 (1 + tanh(...)), which ``_gelu_grad`` reuses."""
    s = x * x
    s *= _GELU_C * _GELU_K
    s += _GELU_C
    s *= x
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return x * s, s


def _gelu_grad(x, s):
    """d gelu / dx = s (1 + x (1 - s) (2c + 6ck x^2)), given ``_gelu``'s s."""
    out = x * x
    out *= 6.0 * _GELU_C * _GELU_K
    out += 2.0 * _GELU_C
    out *= x
    out *= 1.0 - s
    out += 1.0
    out *= s
    return out


def _layer_norm(x, g, b):
    """Layer norm of each row of ``x``: (out, (xhat, inv std))."""
    # row means as matrix-vector products: one BLAS call each
    by_mean = np.full(x.shape[1], 1.0 / x.shape[1], dtype=x.dtype)
    xhat = x - (x @ by_mean)[:, None]
    inv = ((xhat * xhat) @ by_mean)[:, None]
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * g
    out += b
    return out, (xhat, inv)


def _layer_norm_back(dy, g, cache, dg, db):
    """d(input) of ``_layer_norm``, inv (dxhat - mean(dxhat) - xhat
    mean(dxhat xhat)) with dxhat = dy g; writes dg and db into ``dg`` and
    ``db``."""
    xhat, inv = cache
    tmp = dy * xhat
    _column_sums(tmp, out=dg)
    _column_sums(dy, out=db)
    # the two row means, read off dy and dy xhat with g / d
    g_mean = g / len(g)
    m1, m2 = dy @ g_mean, tmp @ g_mean
    dx = dy * g
    dx -= m1[:, None]
    np.multiply(xhat, m2[:, None], out=tmp)
    dx -= tmp
    dx *= inv
    return dx


def _linear(x, w, b):
    out = x @ w
    out += b
    return out


def _linear_back(dy, x, w, dw, db):
    """d(input) of ``_linear`` over rows; writes dW and db into ``dw`` and
    ``db``."""
    np.matmul(x.T, dy, out=dw)
    _column_sums(dy, out=db)
    return dy @ w.T


def _column_sums(x, out=None):
    """The sum of the rows of ``x``, as one matrix-vector product."""
    return np.matmul(np.ones(len(x), dtype=x.dtype), x, out=out)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenBatch:
    """Token sequences stacked into ``(rows, seq_len)`` id and mask arrays.

    The encoder's functions take one of these, or a sequence of
    :class:`TokenSequence` that they stack into one.
    """

    ids: np.ndarray
    mask: np.ndarray

    @classmethod
    def of(cls, seqs: "TokenBatch | Sequence[TokenSequence]") -> "TokenBatch":
        if isinstance(seqs, TokenBatch):
            return seqs
        return cls(np.stack([s.ids for s in seqs]),
                   np.stack([s.attention_mask for s in seqs]))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "TokenBatch":
        return TokenBatch(self.ids[rows], self.mask[rows])


@dataclass(frozen=True)
class PairBatch:
    """Labelled query pairs: pair i is the two rows ``rows[i]`` of
    ``tokens``, with interactive value ``labels[i]``. Selecting pairs
    selects row indices; no token row is copied until :meth:`stacked`."""

    tokens: TokenBatch
    rows: np.ndarray
    labels: np.ndarray

    @classmethod
    def of(cls, pairs: "PairBatch | Sequence[tuple[TokenSequence, TokenSequence, float]]"
           ) -> "PairBatch":
        if isinstance(pairs, PairBatch):
            return pairs
        return cls(TokenBatch.of([s for pair in pairs for s in pair[:2]]),
                   np.arange(2 * len(pairs)).reshape(-1, 2),
                   np.asarray([pair[2] for pair in pairs], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, pairs) -> "PairBatch":
        return PairBatch(self.tokens, self.rows[pairs], self.labels[pairs])

    def stacked(self) -> TokenBatch:
        """The pairs' sequences: rows 2i and 2i + 1 are pair i."""
        return self.tokens[self.rows.reshape(-1)]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _attention(params, cfg: ModelConfig, p: str, h, key_bias):
    """Pre-norm multi-head self-attention with its residual: (h, cache).

    ``h`` is ``(B*L, d)``; ``key_bias`` is ``(B, 1, 1, L)``, 0 at a kept
    key and -inf at a masked one. One GEMM projects q, k and v together.
    """
    a, ln1_cache = _layer_norm(h, params[p + "ln1.g"], params[p + "ln1.b"])
    w_qkv = np.concatenate([params[p + "attn.wq"], params[p + "attn.wk"],
                            params[p + "attn.wv"]], axis=1)
    qkv = _linear(a, w_qkv, np.concatenate([
        params[p + "attn.bq"], params[p + "attn.bk"], params[p + "attn.bv"]]))
    q, k, v = _heads(qkv, key_bias.shape[0], cfg.num_heads)
    # softmax over keys; the -inf bias gives masked keys exactly 0 weight
    attn_w = q @ k.transpose(0, 1, 3, 2)
    attn_w *= 1.0 / math.sqrt(cfg.head_dim)
    attn_w += key_bias
    attn_w -= attn_w.max(axis=-1, keepdims=True)
    np.exp(attn_w, out=attn_w)
    attn_w /= np.add.reduce(attn_w, axis=-1, keepdims=True)
    ctx = (attn_w @ v).transpose(0, 2, 1, 3).reshape(h.shape)
    out = _linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])
    out += h
    return out, (a, ln1_cache, w_qkv, qkv, attn_w, ctx)


def _heads(qkv, batch: int, num_heads: int):
    """q, k and v of a ``(B*L, 3d)`` projection, each ``(B, H, L, hd)``."""
    rows, width = qkv.shape
    return qkv.reshape(batch, rows // batch, 3, num_heads,
                       width // (3 * num_heads)).transpose(2, 0, 3, 1, 4)


def _ffn(params, p: str, h):
    """Pre-norm gelu feed-forward block with its residual: (h, cache)."""
    f, ln2_cache = _layer_norm(h, params[p + "ln2.g"], params[p + "ln2.b"])
    pre = _linear(f, params[p + "ffn.w1"], params[p + "ffn.b1"])
    act, gelu_s = _gelu(pre)
    out = _linear(act, params[p + "ffn.w2"], params[p + "ffn.b2"])
    out += h
    return out, (f, ln2_cache, pre, act, gelu_s)


def _forward(params, cfg: ModelConfig, ids: np.ndarray, mask: np.ndarray,
             keep_cache: bool = False):
    """Encode id/mask batches to pre-normalization vectors z.

    Returns (z, cache): z is float64 whatever the parameters' dtype. With
    ``keep_cache`` the cache carries every intermediate ``_backward`` needs,
    in that dtype; without it the cache is None and each block's
    intermediates are freed before the next block runs.
    """
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ValueError(f"ids must be (batch, {cfg.seq_len}), got {ids.shape}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range for vocab_size")
    dtype = params["tok_emb"].dtype
    mask = np.asarray(mask, dtype=dtype)
    denom = mask.sum(axis=1)
    if (denom == 0).any():
        raise ValueError("cannot encode a fully masked (empty) token sequence")

    # columns past the last one any row leaves unmasked hold only PAD, which
    # reaches no output; the last column, not the mask sum, keeps gaps exact
    length = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
    ids, mask = ids[:, :length], mask[:, :length]
    # activations are (B*L, d), row b*L + l for token l of sequence b
    h = params["tok_emb"][ids.reshape(-1)]
    by_token = h.reshape(len(ids), length, -1)
    by_token += params["pos_emb"][:length]
    key_bias = np.where(mask > 0, 0.0, -np.inf).astype(dtype)[:, None, None, :]
    layer_caches = []
    for i in range(cfg.num_layers):
        p = f"L{i}."
        # unless kept, a block's cache is dropped before the next block runs
        h, attn_cache = _attention(params, cfg, p, h, key_bias)
        if not keep_cache:
            attn_cache = None
        h, ffn_cache = _ffn(params, p, h)
        if keep_cache:
            layer_caches.append((attn_cache, ffn_cache))
        ffn_cache = None

    hf, final_cache = _layer_norm(h, params["final_ln.g"], params["final_ln.b"])
    pooled = (mask[:, :, None] * hf.reshape(len(ids), length, -1)).sum(axis=1)
    pooled /= denom[:, None]
    u = np.tanh(_linear(pooled, params["pool.w"], params["pool.b"]))
    w = np.tanh(_linear(u, params["out1.w"], params["out1.b"]))
    z = _linear(w, params["out2.w"], params["out2.b"]).astype(np.float64)
    return z, ((ids, mask, denom, layer_caches, final_cache, pooled, u, w)
               if keep_cache else None)


def _unit(z):
    """Rows of z scaled to unit L2 norm, and the norms."""
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    return z / norm, norm


def _ffn_back(params, p: str, cache, dh, grads):
    """Backward of ``_ffn``: fills its gradients, returns d(block input)."""
    f, ln2_cache, pre, act, gelu_s = cache
    dpre = _linear_back(dh, act, params[p + "ffn.w2"],
                        grads[p + "ffn.w2"], grads[p + "ffn.b2"])
    dpre *= _gelu_grad(pre, gelu_s)
    df = _linear_back(dpre, f, params[p + "ffn.w1"],
                      grads[p + "ffn.w1"], grads[p + "ffn.b1"])
    dh_in = _layer_norm_back(df, params[p + "ln2.g"], ln2_cache,
                             grads[p + "ln2.g"], grads[p + "ln2.b"])
    dh_in += dh  # residual
    return dh_in


def _attention_back(params, cfg: ModelConfig, p: str, cache, dh, grads):
    """Backward of ``_attention``: fills its gradients, returns d(block input)."""
    a, ln1_cache, w_qkv, qkv, attn_w, ctx = cache
    batch, heads = attn_w.shape[:2]
    dctx = _linear_back(dh, ctx, params[p + "attn.wo"],
                        grads[p + "attn.wo"], grads[p + "attn.bo"])
    dctx = dctx.reshape(batch, -1, heads, cfg.head_dim).transpose(0, 2, 1, 3)
    q, k, v = _heads(qkv, batch, heads)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = _heads(dqkv, batch, heads)
    np.matmul(attn_w.transpose(0, 1, 3, 2), dctx, out=dv)
    # softmax backward, scaled as the scores were: s w (dw - sum(dw w))
    dscores = dctx @ v.transpose(0, 1, 3, 2)
    tmp = dscores * attn_w
    dscores -= np.add.reduce(tmp, axis=-1, keepdims=True)
    dscores *= attn_w
    dscores *= 1.0 / math.sqrt(cfg.head_dim)
    np.matmul(dscores, k, out=dq)
    np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk)

    # one GEMM for the three weight gradients, one for d(input)
    d = a.shape[1]
    dw = a.T @ dqkv
    db = _column_sums(dqkv)
    for i, name in enumerate(("q", "k", "v")):
        grads[p + "attn.w" + name][...] = dw[:, i * d:(i + 1) * d]
        grads[p + "attn.b" + name][...] = db[i * d:(i + 1) * d]
    dh_in = _layer_norm_back(dqkv @ w_qkv.T, params[p + "ln1.g"], ln1_cache,
                             grads[p + "ln1.g"], grads[p + "ln1.b"])
    dh_in += dh  # residual
    return dh_in


def _tanh_back(dy, y):
    """dy * (1 - y^2), in place in ``dy``."""
    tmp = y * y
    np.subtract(1.0, tmp, out=tmp)
    dy *= tmp
    return dy


def _backward(params, cfg: ModelConfig, cache, dz: np.ndarray) -> FlatTensors:
    """Gradients of a scalar loss wrt every parameter, given dloss/dz.

    The gradients are views of one flat vector laid out as ``params``, in
    the parameters' dtype, whatever the dtype of dz.
    """
    ids, mask, denom, layer_caches, final_cache, pooled, u, w = cache
    grads = FlatTensors({name: t.shape for name, t in params.items()}, w.dtype)
    dz = dz.astype(w.dtype, copy=False)

    dw_out = _tanh_back(_linear_back(dz, w, params["out2.w"],
                                     grads["out2.w"], grads["out2.b"]), w)
    du = _tanh_back(_linear_back(dw_out, u, params["out1.w"],
                                 grads["out1.w"], grads["out1.b"]), u)
    dpooled = _linear_back(du, pooled, params["pool.w"],
                           grads["pool.w"], grads["pool.b"])
    dpooled /= denom[:, None]
    dhf = (mask[:, :, None] * dpooled[:, None, :]).reshape(-1, dpooled.shape[1])
    dh = _layer_norm_back(dhf, params["final_ln.g"], final_cache,
                          grads["final_ln.g"], grads["final_ln.b"])

    for i in reversed(range(cfg.num_layers)):
        # each layer's cache is released once its backward has run
        attn_cache, ffn_cache = layer_caches.pop()
        dh = _ffn_back(params, f"L{i}.", ffn_cache, dh, grads)
        dh = _attention_back(params, cfg, f"L{i}.", attn_cache, dh, grads)

    # one add.at over the flattened table: each (token, column) element sums
    # its rows in batch order
    dim = dh.shape[1]
    np.add.at(grads["tok_emb"].reshape(-1),
              (ids.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1),
              dh.reshape(-1))
    np.add.reduce(dh.reshape(ids.shape + (dim,)), axis=0,
                  out=grads["pos_emb"][:ids.shape[1]])
    return grads


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def embed_batch(params, cfg: ModelConfig,
                seqs: TokenBatch | Sequence[TokenSequence]) -> np.ndarray:
    """Unit-norm intention embeddings for a batch, one row per sequence."""
    batch = TokenBatch.of(seqs)
    z, _ = _forward(params, cfg, batch.ids, batch.mask)
    return _unit(z)[0]


def _pair_losses(e_a, e_b, interactive, mode: str):
    dots = (e_a * e_b).sum(axis=1)
    interactive = np.asarray(interactive, dtype=np.float64)
    if mode == "literal":
        losses = -interactive * log_sigmoid(dots)
        ddots = -interactive * (1.0 - sigmoid(dots))
    else:
        neg = interactive < 0
        losses = np.where(neg, -log_sigmoid(-dots), -interactive * log_sigmoid(dots))
        ddots = np.where(neg, sigmoid(dots), -interactive * (1.0 - sigmoid(dots)))
    return dots, losses, ddots


def batch_loss_and_grad(params, cfg: ModelConfig,
                        batch: PairBatch | Sequence[tuple[TokenSequence, TokenSequence, float]]):
    """Summed pair loss over a batch and its exact parameter gradient, as
    :class:`FlatTensors` laid out as ``params``. A non-finite loss raises
    FloatingPointError naming its batch index."""
    if not len(batch):
        raise ValueError("batch must be non-empty")
    batch = PairBatch.of(batch)
    # interleaved layout: rows 2i / 2i+1 are the i-th pair
    tokens = batch.stacked()
    z, cache = _forward(params, cfg, tokens.ids, tokens.mask, keep_cache=True)
    e, norm = _unit(z)
    e_a, e_b = e[0::2], e[1::2]
    dots, losses, ddots = _pair_losses(e_a, e_b, batch.labels, cfg.negative_loss)
    if not np.isfinite(losses).all():
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise FloatingPointError(f"non-finite loss at batch index {bad}")
    loss = float(losses.sum())

    de = np.empty_like(e)
    de[0::2] = ddots[:, None] * e_b
    de[1::2] = ddots[:, None] * e_a
    # through L2 normalization: dz = (de - (de.e) e) / |z|
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norm
    grads = _backward(params, cfg, cache, dz)
    return loss, grads


def classify_batch_logits(params, cfg: ModelConfig,
                          seqs: TokenBatch | Sequence[TokenSequence]):
    """Head logits and the penultimate (pre-normalization) vectors."""
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    batch = TokenBatch.of(seqs)
    z, _ = _forward(params, cfg, batch.ids, batch.mask)
    return z @ params["head.w"] + params["head.b"], z


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def classify_batch_loss_and_grad(params, cfg: ModelConfig,
                                 seqs: TokenBatch | Sequence[TokenSequence],
                                 labels: Sequence[int]):
    """Mean cross-entropy over the batch and its exact gradient, as
    :class:`FlatTensors` laid out as ``params``."""
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= cfg.num_classes:
        raise ValueError("label out of range")
    batch = TokenBatch.of(seqs)
    z, cache = _forward(params, cfg, batch.ids, batch.mask, keep_cache=True)
    logits = z @ params["head.w"] + params["head.b"]
    logp = _log_softmax(logits)
    n = len(batch)
    loss = float(-logp[np.arange(n), labels].mean())
    if not math.isfinite(loss):
        raise FloatingPointError("non-finite cross-entropy loss")

    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = _backward(params, cfg, cache, dlogits @ params["head.w"].T)
    grads["head.w"][...] = z.T @ dlogits
    grads["head.b"][...] = dlogits.sum(axis=0)
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoints: float32 little-endian blob + JSON sidecar manifest
# ---------------------------------------------------------------------------

def _manifest(params: FlatTensors, cfg: ModelConfig) -> dict:
    """``cfg`` and each tensor's name, shape and byte offset in the blob."""
    offsets = accumulate((4 * w.size for w in params.values()), initial=0)
    return {"config": cfg.to_dict(), "tensors": [
        {"name": name, "shape": list(w.shape), "offset": offset,
         "dtype": "float32", "byteorder": "little"}
        for (name, w), offset in zip(params.items(), offsets)]}


def save_params(params: FlatTensors, cfg: ModelConfig,
                path: str | Path) -> None:
    """Write ``params.flat`` to ``path`` (the blob) and its layout and
    ``cfg`` to ``path``.json (the manifest)."""
    Path(path).write_bytes(params.flat.astype("<f4").tobytes())
    Path(f"{path}.json").write_text(json.dumps(
        _manifest(params, cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_params(path: str | Path) -> tuple[FlatTensors, ModelConfig]:
    """Read a checkpoint written by ``save_params``, as float32 so the model
    computes in float32. A manifest that is not the layout of its config's
    parameters, or a blob of another length, raises ValueError."""
    manifest = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
    cfg = ModelConfig(**manifest["config"])
    params = FlatTensors(param_shapes(cfg), np.float32)
    if manifest != _manifest(params, cfg):
        raise ValueError("manifest is not the layout of its config's parameters")
    blob = Path(path).read_bytes()
    if len(blob) != params.flat.nbytes:
        raise ValueError(f"blob holds {len(blob)} bytes, not {params.flat.nbytes}")
    params.flat[...] = np.frombuffer(blob, dtype="<f4")
    return params, cfg
