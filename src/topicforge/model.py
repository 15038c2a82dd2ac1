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

Backpropagation is hand-derived for every block and verified against
central finite differences in the test suite. All computation is float64;
checkpoints are stored as float32 blobs with a JSON sidecar manifest.

Masking guarantees: positions with attention_mask == 0 receive exactly zero
attention weight (scores are set to -inf before the softmax) and are
excluded from mean pooling, so PAD positions can never influence the
output. Forward passes are read-only over the parameters and safe to run
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

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


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


def zero_grads(cfg: ModelConfig) -> dict[str, np.ndarray]:
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}


def check_finite(params: dict[str, np.ndarray]) -> bool:
    return all(np.isfinite(v).all() for v in params.values())


# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

def log_sigmoid(x):
    """log(sigmoid(x)) without an exp overflow path."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def sigmoid(x):
    return np.exp(log_sigmoid(x))


def _gelu(x):
    s = _GELU_C * (x + _GELU_K * x ** 3)
    return 0.5 * x * (1.0 + np.tanh(s))


def _gelu_grad(x):
    s = _GELU_C * (x + _GELU_K * x ** 3)
    th = np.tanh(s)
    return 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th ** 2) * _GELU_C * (1.0 + 3.0 * _GELU_K * x ** 2)


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

def _forward(params, cfg: ModelConfig, ids: np.ndarray, mask: np.ndarray):
    """Encode id/mask batches to pre-normalization vectors z and unit vectors e.

    Returns (z, e, cache); the cache carries every intermediate needed by
    ``_backward``.
    """
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ValueError(f"ids must be (batch, {cfg.seq_len}), got {ids.shape}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("token id out of range for vocab_size")
    mask = np.asarray(mask, dtype=np.float64)
    denom = mask.sum(axis=1)
    if (denom == 0).any():
        raise ValueError("cannot encode a fully masked (empty) token sequence")

    h = params["tok_emb"][ids] + params["pos_emb"][None, :, :]
    key_mask = mask[:, None, None, :] > 0
    scale = 1.0 / math.sqrt(cfg.head_dim)
    layer_caches = []
    for i in range(cfg.num_layers):
        p = f"L{i}."
        a, ln1_cache = _layer_norm(h, params[p + "ln1.g"], params[p + "ln1.b"])
        q = _split_heads(_linear(a, params[p + "attn.wq"], params[p + "attn.bq"]), cfg.num_heads)
        k = _split_heads(_linear(a, params[p + "attn.wk"], params[p + "attn.bk"]), cfg.num_heads)
        v = _split_heads(_linear(a, params[p + "attn.wv"], params[p + "attn.bv"]), cfg.num_heads)
        scores = np.where(key_mask, (q @ k.transpose(0, 1, 3, 2)) * scale, -np.inf)
        scores_max = scores.max(axis=-1, keepdims=True)
        ex = np.exp(scores - scores_max)  # exact 0.0 at masked keys
        attn_w = ex / ex.sum(axis=-1, keepdims=True)
        ctx = _merge_heads(attn_w @ v)
        attn_out = _linear(ctx, params[p + "attn.wo"], params[p + "attn.bo"])
        h_attn = h + attn_out

        f, ln2_cache = _layer_norm(h_attn, params[p + "ln2.g"], params[p + "ln2.b"])
        pre = _linear(f, params[p + "ffn.w1"], params[p + "ffn.b1"])
        act = _gelu(pre)
        ffn_out = _linear(act, params[p + "ffn.w2"], params[p + "ffn.b2"])
        h = h_attn + ffn_out
        layer_caches.append((a, ln1_cache, q, k, v, attn_w, ctx,
                             f, ln2_cache, pre, act))

    hf, final_cache = _layer_norm(h, params["final_ln.g"], params["final_ln.b"])
    pooled = (mask[:, :, None] * hf).sum(axis=1) / denom[:, None]
    u = np.tanh(_linear(pooled, params["pool.w"], params["pool.b"]))
    w = np.tanh(_linear(u, params["out1.w"], params["out1.b"]))
    z = _linear(w, params["out2.w"], params["out2.b"])
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    e = z / norm
    cache = (ids, mask, denom, layer_caches, final_cache, pooled, u, w, z, norm, e)
    return z, e, cache


def _backward(params, cfg: ModelConfig, cache, dz: np.ndarray):
    """Gradients of a scalar loss wrt every parameter, given dloss/dz."""
    ids, mask, denom, layer_caches, final_cache, pooled, u, w, z, norm, e = cache
    grads = zero_grads(cfg)
    if cfg.num_classes < 1:
        grads.pop("head.w", None)
        grads.pop("head.b", None)
    scale = 1.0 / math.sqrt(cfg.head_dim)

    dw_out, grads["out2.w"], grads["out2.b"] = _linear_back(dz, w, params["out2.w"])
    dw_out = dw_out * (1.0 - w ** 2)  # tanh
    du, grads["out1.w"], grads["out1.b"] = _linear_back(dw_out, u, params["out1.w"])
    du = du * (1.0 - u ** 2)
    dpooled, grads["pool.w"], grads["pool.b"] = _linear_back(du, pooled, params["pool.w"])

    dhf = mask[:, :, None] * (dpooled[:, None, :] / denom[:, None, None])
    dh, grads["final_ln.g"], grads["final_ln.b"] = _layer_norm_back(
        dhf, params["final_ln.g"], final_cache)

    for i in reversed(range(cfg.num_layers)):
        p = f"L{i}."
        (a, ln1_cache, q, k, v, attn_w, ctx, f, ln2_cache, pre, act) = layer_caches[i]

        dffn_out = dh
        dact, grads[p + "ffn.w2"], grads[p + "ffn.b2"] = _linear_back(
            dffn_out, act, params[p + "ffn.w2"])
        dpre = dact * _gelu_grad(pre)
        df, grads[p + "ffn.w1"], grads[p + "ffn.b1"] = _linear_back(
            dpre, f, params[p + "ffn.w1"])
        dh_attn, grads[p + "ln2.g"], grads[p + "ln2.b"] = _layer_norm_back(
            df, params[p + "ln2.g"], ln2_cache)
        dh_attn = dh_attn + dh  # residual

        dattn_out = dh_attn
        dctx, grads[p + "attn.wo"], grads[p + "attn.bo"] = _linear_back(
            dattn_out, ctx, params[p + "attn.wo"])
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
        dh = dh_in + dh_attn  # residual

    np.add.at(grads["tok_emb"], ids, dh)
    grads["pos_emb"] = dh.sum(axis=0)
    return grads


def _stack(seqs: Sequence[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    ids = np.stack([s.ids for s in seqs])
    mask = np.stack([s.attention_mask for s in seqs]).astype(np.float64)
    return ids, mask


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def embed_batch(params, cfg: ModelConfig, seqs: Sequence[TokenSequence]) -> np.ndarray:
    """Unit-norm intention embeddings for a batch, one row per sequence."""
    ids, mask = _stack(seqs)
    _, e, _ = _forward(params, cfg, ids, mask)
    return e


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


def pair_loss(params, cfg: ModelConfig, seq_a: TokenSequence,
              seq_b: TokenSequence, interactive: float) -> float:
    """Loss of a single query pair: -interactive * log(sigmoid(cosine))."""
    ids, mask = _stack([seq_a, seq_b])
    _, e, _ = _forward(params, cfg, ids, mask)
    _, losses, _ = _pair_losses(e[:1], e[1:], [interactive], cfg.negative_loss)
    return float(losses[0])


def batch_loss_and_grad(params, cfg: ModelConfig,
                        batch: Sequence[tuple[TokenSequence, TokenSequence, float]]):
    """Summed pair loss over a batch and its exact parameter gradient."""
    if not batch:
        raise ValueError("batch must be non-empty")
    n = len(batch)
    seqs = [s for pair in batch for s in (pair[0], pair[1])]
    ids, mask = _stack(seqs)
    labels = np.array([pair[2] for pair in batch], dtype=np.float64)
    # interleaved layout: rows 2i / 2i+1 are the i-th pair
    _, e, cache = _forward(params, cfg, ids, mask)
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
    z, norm = cache[8], cache[9]
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norm
    grads = _backward(params, cfg, cache, dz)
    return loss, grads


def classify_batch_logits(params, cfg: ModelConfig, seqs: Sequence[TokenSequence]):
    """Head logits and the penultimate (pre-normalization) vectors."""
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    ids, mask = _stack(seqs)
    z, _, _ = _forward(params, cfg, ids, mask)
    return z @ params["head.w"] + params["head.b"], z


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def classify_batch_loss_and_grad(params, cfg: ModelConfig,
                                 seqs: Sequence[TokenSequence],
                                 labels: Sequence[int],
                                 freeze_encoder: bool = False):
    """Mean cross-entropy over the batch and its exact gradient.

    With ``freeze_encoder`` only head gradients are returned non-zero.
    """
    if cfg.num_classes < 1 or "head.w" not in params:
        raise ValueError("model has no classification head")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= cfg.num_classes:
        raise ValueError("label out of range")
    ids, mask = _stack(seqs)
    z, _, cache = _forward(params, cfg, ids, mask)
    logits = z @ params["head.w"] + params["head.b"]
    logp = _log_softmax(logits)
    n = len(seqs)
    loss = float(-logp[np.arange(n), labels].mean())
    if not math.isfinite(loss):
        raise NonFiniteLossError("non-finite cross-entropy loss")

    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    head_w_grad = z.T @ dlogits
    head_b_grad = dlogits.sum(axis=0)
    if freeze_encoder:
        grads = {k: np.zeros_like(v) for k, v in params.items()}
    else:
        dz = dlogits @ params["head.w"].T
        grads = _backward(params, cfg, cache, dz)
    grads["head.w"] = head_w_grad
    grads["head.b"] = head_b_grad
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
    """Read a checkpoint written by ``save_params``; tensors come back float64."""
    path = Path(path)
    manifest = json.loads(Path(str(path) + ".json").read_text(encoding="utf-8"))
    blob = path.read_bytes()
    params = {}
    for t in manifest["tensors"]:
        count = int(np.prod(t["shape"])) if t["shape"] else 1
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=t["offset"])
        params[t["name"]] = arr.astype(np.float64).reshape(t["shape"])
    cfg = ModelConfig.from_dict(manifest["config"])
    return params, cfg
