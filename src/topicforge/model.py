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

Each transformer layer is two blocks, ``_attention`` and ``_ffn``, each
returning its output and the intermediates its backward (``_attention_back``,
``_ffn_back``) reads. Only the two loss functions keep those caches; an
inference pass (``embed_batch``, ``classify_batch_logits``) frees each
block's intermediates before the next block runs, so its memory grows with
one block of one batch, not with the whole backward cache.

Backpropagation is hand-derived for every block and verified against
central finite differences in the test suite. Computation follows the
parameters' dtype: float64 from ``init_params``, float32 from ``load_params``
and from training. The output vector z, its L2 normalization and the losses
always run in float64; they cost rows x output_dim. Checkpoints are stored as
float32 blobs with a JSON sidecar manifest.

Masking guarantees: positions with attention_mask == 0 receive exactly zero
attention weight (scores are set to -inf before the softmax) and are
excluded from mean pooling, so PAD positions can never influence the
output. Each forward pass is trimmed to the batch's longest unmasked length,
so no work is spent on columns that are PAD in every row. Reductions then
run over fewer zero terms, and a text's embedding agrees across batch
compositions to about 1e-15 in float64 and 2e-7 in float32, not bit for bit.
Forward passes are read-only over the parameters and safe to run
concurrently; gradient dicts from shards may be merged by plain summation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .tokenizer import TokenSequence

LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


class NonFiniteLossError(FloatingPointError):
    """A batch produced a NaN/Inf loss; message names the offending sample."""


@dataclass
class ModelConfig:
    vocab_size: int
    seq_len: int = 16
    model_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 64
    output_dim: int = 32
    num_classes: int = 0
    negative_loss: str = "literal"  # or "complement"

    def __post_init__(self):
        for name in ("vocab_size", "seq_len", "model_dim", "num_layers",
                     "num_heads", "ffn_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.model_dim % self.num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        if self.negative_loss not in ("literal", "complement"):
            raise ValueError(f"unknown negative_loss mode {self.negative_loss!r}")

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)


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


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Fresh parameters: N(0, 0.02) weights, zero biases, identity layer norms.

    The classification head uses uniform(-1/sqrt(fan_in), 1/sqrt(fan_in))
    weights and zero bias.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(("ln1.g", "ln2.g", "final_ln.g")):
            params[name] = np.ones(shape)
        elif name == "head.w":
            bound = 1.0 / math.sqrt(shape[0])
            params[name] = rng.uniform(-bound, bound, size=shape)
        elif name.endswith((".b", ".b1", ".b2")) or name.endswith(
                ("bq", "bk", "bv", "bo")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape)
    return params


def init_head(params: dict[str, np.ndarray], cfg: ModelConfig,
              seed: int = 0) -> dict[str, np.ndarray]:
    """Copy of ``params`` with a freshly initialized classification head."""
    if cfg.num_classes < 1:
        raise ValueError("config declares no classification head")
    rng = np.random.default_rng(seed)
    out = {k: v.copy() for k, v in params.items()}
    bound = 1.0 / math.sqrt(cfg.output_dim)
    out["head.w"] = rng.uniform(-bound, bound, size=(cfg.output_dim, cfg.num_classes))
    out["head.b"] = np.zeros(cfg.num_classes)
    return out


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(w) for name, w in params.items()}


def check_finite(params: dict[str, np.ndarray]) -> bool:
    return all(np.isfinite(v).all() for v in params.values())


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def log_sigmoid(x):
    """log(sigmoid(x)) without an exp overflow path."""
    return -np.logaddexp(0.0, -np.asarray(x))


def sigmoid(x):
    return np.exp(log_sigmoid(x))


def _gelu(x):
    """Tanh-approximate gelu and the (tanh, x*x) pair ``_gelu_grad`` reuses."""
    x2 = x * x
    th = np.tanh(_GELU_C * x * (1.0 + _GELU_K * x2))
    return 0.5 * x * (1.0 + th), (th, x2)


def _gelu_grad(x, cache):
    th, x2 = cache
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * _GELU_C * (1.0 + 3.0 * _GELU_K * x2)


def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_back(dy, g, cache):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    dx = inv * (dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _linear(x, w, b):
    return x @ w + b


def _linear_back(dy, x, w):
    # collapse all leading axes for the weight gradient
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    dx = dy @ w.T
    return dx, dw, db


def _split_heads(x, num_heads):
    b, length, dim = x.shape
    return x.reshape(b, length, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, length, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * hd)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _attention(params, cfg: ModelConfig, p: str, h, key_mask):
    """Pre-norm multi-head self-attention with its residual: (h, cache)."""
    a, ln1_cache = _layer_norm(h, params[p + "ln1.g"], params[p + "ln1.b"])
    q = _split_heads(_linear(a, params[p + "attn.wq"], params[p + "attn.bq"]), cfg.num_heads)
    k = _split_heads(_linear(a, params[p + "attn.wk"], params[p + "attn.bk"]), cfg.num_heads)
    v = _split_heads(_linear(a, params[p + "attn.wv"], params[p + "attn.bv"]), cfg.num_heads)
    scale = 1.0 / math.sqrt(cfg.head_dim)
    scores = np.where(key_mask, (q @ k.transpose(0, 1, 3, 2)) * scale, -np.inf)
    scores_max = scores.max(axis=-1, keepdims=True)
    ex = np.exp(scores - scores_max)  # exact 0.0 at masked keys
    attn_w = ex / ex.sum(axis=-1, keepdims=True)
    ctx = _merge_heads(attn_w @ v)
    attn_out = _linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])
    return h + attn_out, (a, ln1_cache, q, k, v, attn_w, ctx)


def _ffn(params, p: str, h):
    """Pre-norm gelu feed-forward block with its residual: (h, cache)."""
    f, ln2_cache = _layer_norm(h, params[p + "ln2.g"], params[p + "ln2.b"])
    pre = _linear(f, params[p + "ffn.w1"], params[p + "ffn.b1"])
    act, gelu_cache = _gelu(pre)
    ffn_out = _linear(act, params[p + "ffn.w2"], params[p + "ffn.b2"])
    return h + ffn_out, (f, ln2_cache, pre, act, gelu_cache)


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
    mask = np.asarray(mask, dtype=params["tok_emb"].dtype)
    denom = mask.sum(axis=1)
    if (denom == 0).any():
        raise ValueError("cannot encode a fully masked (empty) token sequence")

    # columns past the last one any row leaves unmasked hold only PAD, which
    # reaches no output; the last column, not the mask sum, keeps gaps exact
    length = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
    ids, mask = ids[:, :length], mask[:, :length]
    h = params["tok_emb"][ids] + params["pos_emb"][:length]
    key_mask = mask[:, None, None, :] > 0
    layer_caches = []
    for i in range(cfg.num_layers):
        p = f"L{i}."
        # unless kept, a block's cache is dropped before the next block runs
        h, attn_cache = _attention(params, cfg, p, h, key_mask)
        if not keep_cache:
            attn_cache = None
        h, ffn_cache = _ffn(params, p, h)
        if keep_cache:
            layer_caches.append((attn_cache, ffn_cache))
        ffn_cache = None

    hf, final_cache = _layer_norm(h, params["final_ln.g"], params["final_ln.b"])
    pooled = (mask[:, :, None] * hf).sum(axis=1) / denom[:, None]
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
    f, ln2_cache, pre, act, gelu_cache = cache
    dact, grads[p + "ffn.w2"], grads[p + "ffn.b2"] = _linear_back(
        dh, act, params[p + "ffn.w2"])
    dpre = dact * _gelu_grad(pre, gelu_cache)
    df, grads[p + "ffn.w1"], grads[p + "ffn.b1"] = _linear_back(
        dpre, f, params[p + "ffn.w1"])
    dh_in, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layer_norm_back(
        df, params[p + "ln2.g"], ln2_cache)
    return dh_in + dh  # residual


def _attention_back(params, cfg: ModelConfig, p: str, cache, dh, grads):
    """Backward of ``_attention``: fills its gradients, returns d(block input)."""
    a, ln1_cache, q, k, v, attn_w, ctx = cache
    scale = 1.0 / math.sqrt(cfg.head_dim)
    dctx, grads[p + "attn.wo"], grads[p + "attn.bo"] = _linear_back(
        dh, ctx, params[p + "attn.wo"])
    dctx = _split_heads(dctx, cfg.num_heads)
    dattn_w = dctx @ v.transpose(0, 1, 3, 2)
    dv = attn_w.transpose(0, 1, 3, 2) @ dctx
    dscores = attn_w * (dattn_w - (dattn_w * attn_w).sum(axis=-1, keepdims=True))
    dq = (dscores @ k) * scale
    dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale

    da = np.zeros_like(a)
    for name, grad_h in (("wq", dq), ("wk", dk), ("wv", dv)):
        gm = _merge_heads(grad_h)
        dxx, grads[p + "attn." + name], grads[p + "attn.b" + name[1]] = _linear_back(
            gm, a, params[p + "attn." + name])
        da += dxx
    dh_in, grads[p + "ln1.g"], grads[p + "ln1.b"] = _layer_norm_back(
        da, params[p + "ln1.g"], ln1_cache)
    return dh_in + dh  # residual


def _backward(params, cfg: ModelConfig, cache, dz: np.ndarray):
    """Gradients of a scalar loss wrt every parameter, given dloss/dz.

    The gradients take the parameters' dtype, whatever the dtype of dz.
    """
    ids, mask, denom, layer_caches, final_cache, pooled, u, w = cache
    grads = zero_grads(params)
    dz = dz.astype(w.dtype, copy=False)

    dw_out, grads["out2.w"], grads["out2.b"] = _linear_back(dz, w, params["out2.w"])
    dw_out = dw_out * (1.0 - w ** 2)  # tanh
    du, grads["out1.w"], grads["out1.b"] = _linear_back(dw_out, u, params["out1.w"])
    du = du * (1.0 - u ** 2)
    dpooled, grads["pool.w"], grads["pool.b"] = _linear_back(du, pooled, params["pool.w"])

    dhf = mask[:, :, None] * (dpooled[:, None, :] / denom[:, None, None])
    dh, grads["final_ln.g"], grads["final_ln.b"] = _layer_norm_back(
        dhf, params["final_ln.g"], final_cache)

    for i in reversed(range(cfg.num_layers)):
        attn_cache, ffn_cache = layer_caches[i]
        dh = _ffn_back(params, f"L{i}.", ffn_cache, dh, grads)
        dh = _attention_back(params, cfg, f"L{i}.", attn_cache, dh, grads)

    np.add.at(grads["tok_emb"], ids, dh)
    grads["pos_emb"][:dh.shape[1]] = dh.sum(axis=0)
    return grads


def _stack(seqs: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.stack([s.ids for s in seqs])
    mask = np.stack([s.attention_mask for s in seqs])
    return ids, mask


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def embed_batch(params, cfg: ModelConfig, seqs: Sequence[TokenSequence]) -> np.ndarray:
    """Unit-norm intention embeddings for a batch, one row per sequence."""
    ids, mask = _stack(seqs)
    z, _ = _forward(params, cfg, ids, mask)
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
                        batch: Sequence[tuple[TokenSequence, TokenSequence, float]]):
    """Summed pair loss over a batch and its exact parameter gradient."""
    if not batch:
        raise ValueError("batch must be non-empty")
    seqs = [s for pair in batch for s in (pair[0], pair[1])]
    ids, mask = _stack(seqs)
    labels = [pair[2] for pair in batch]
    # interleaved layout: rows 2i / 2i+1 are the i-th pair
    z, cache = _forward(params, cfg, ids, mask, keep_cache=True)
    e, norm = _unit(z)
    e_a, e_b = e[0::2], e[1::2]
    dots, losses, ddots = _pair_losses(e_a, e_b, labels, cfg.negative_loss)
    if not np.isfinite(losses).all():
        bad = int(np.flatnonzero(~np.isfinite(losses))[0])
        raise NonFiniteLossError(f"non-finite loss at batch index {bad}")
    loss = float(losses.sum())

    de = np.empty_like(e)
    de[0::2] = ddots[:, None] * e_b
    de[1::2] = ddots[:, None] * e_a
    # through L2 normalization: dz = (de - (de.e) e) / |z|
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norm
    grads = _backward(params, cfg, cache, dz)
    return loss, grads


def classify_batch_logits(params, cfg: ModelConfig, seqs: Sequence[TokenSequence]):
    """Head logits and the penultimate (pre-normalization) vectors."""
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    ids, mask = _stack(seqs)
    z, _ = _forward(params, cfg, ids, mask)
    return z @ params["head.w"] + params["head.b"], z


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def classify_batch_loss_and_grad(params, cfg: ModelConfig,
                                 seqs: Sequence[TokenSequence],
                                 labels: Sequence[int]):
    """Mean cross-entropy over the batch and its exact gradient."""
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= cfg.num_classes:
        raise ValueError("label out of range")
    ids, mask = _stack(seqs)
    z, cache = _forward(params, cfg, ids, mask, keep_cache=True)
    logits = z @ params["head.w"] + params["head.b"]
    logp = _log_softmax(logits)
    n = len(seqs)
    loss = float(-logp[np.arange(n), labels].mean())
    if not math.isfinite(loss):
        raise NonFiniteLossError("non-finite cross-entropy loss")

    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = _backward(params, cfg, cache, dlogits @ params["head.w"].T)
    dtype = params["head.w"].dtype
    grads["head.w"] = (z.T @ dlogits).astype(dtype, copy=False)
    grads["head.b"] = dlogits.sum(axis=0).astype(dtype, copy=False)
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoints: float32 little-endian blob + JSON sidecar manifest
# ---------------------------------------------------------------------------

def save_params(params: dict[str, np.ndarray], cfg: ModelConfig,
                path: str | Path) -> None:
    """Write tensors to ``path`` (blob) and ``path``.json (manifest)."""
    path = Path(path)
    tensors = []
    offset = 0
    chunks = []
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        chunks.append(arr.tobytes())
        tensors.append({"name": name, "shape": list(params[name].shape),
                        "offset": offset, "dtype": "float32",
                        "byteorder": "little"})
        offset += arr.nbytes
    path.write_bytes(b"".join(chunks))
    manifest = {"tensors": tensors, "config": cfg.to_dict()}
    Path(str(path) + ".json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_params(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Read a checkpoint written by ``save_params``; tensors come back as the
    float32 values stored, so the model computes on them in float32."""
    path = Path(path)
    manifest = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    blob = path.read_bytes()
    params = {}
    for t in manifest["tensors"]:
        count = int(np.prod(t["shape"])) if t["shape"] else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=t["offset"])
        params[t["name"]] = arr.astype(np.float32).reshape(t["shape"])
    cfg = ModelConfig(**manifest["config"])
    return params, cfg
