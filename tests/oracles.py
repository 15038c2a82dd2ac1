"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: central finite differences instead
of backprop, from-scratch O(n^3) agglomeration instead of Lance-Williams,
hash-seeded random projections instead of a trained encoder, a listed pool
of every free query pair instead of rank arithmetic, a loop over the whole
facet lexicon per query instead of a first-token index, the encoder's
gradients block by block on (batch, length, dim) arrays with a projection
per q, k and v instead of one token-major matrix and a fused projection,
the Lentz continued fraction with every half-step and guard written out
instead of one guarded step in a loop.
Slow and obviously correct, so the fast implementations can be checked
against them.
The plain two-cluster co-click corpus of criterion 4 lives here too.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from topicforge.experiment import _BETACF_MAX_ITER, _BETACF_TOL
from topicforge.ingest import ClickRecord
from topicforge.metric import CoClickStats, QueryPairSample


def finite_difference_grads(loss_fn: Callable[[], float],
                            params: dict[str, np.ndarray],
                            step: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of ``loss_fn`` w.r.t. every parameter coordinate.

    ``loss_fn`` must read the live ``params`` arrays; they are perturbed in
    place and restored exactly.
    """
    grads = {}
    for name, tensor in params.items():
        flat = tensor.reshape(-1)
        g = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = loss_fn()
            flat[k] = orig - step
            lo = loss_fn()
            flat[k] = orig
            g[k] = (hi - lo) / (2.0 * step)
        grads[name] = g.reshape(tensor.shape)
    return grads


def max_relative_error(analytic: dict[str, np.ndarray],
                       numeric: dict[str, np.ndarray],
                       floor: float = 1e-6) -> float:
    """Worst |a - n| / max(|a|, |n|, floor) over all coordinates."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def naive_agglomerate(vectors: dict[str, np.ndarray], threshold: float,
                      linkage: str = "average") -> set[frozenset[str]]:
    """O(n^3) reference agglomeration; returns the final partition.

    Every candidate merge recomputes its linkage from the raw pairwise
    cosine distances. Ties break on (distance, smallest member pair) with
    clusters kept sorted by smallest member, mirroring the production
    tie-break.
    """
    names = sorted(vectors)
    unit = {q: np.asarray(vectors[q], dtype=np.float64) for q in names}
    unit = {q: v / np.linalg.norm(v) for q, v in unit.items()}
    base = {(a, b): 1.0 - float(unit[a] @ unit[b])
            for i, a in enumerate(names) for b in names[i + 1:]}

    def pair_dist(a: str, b: str) -> float:
        return base[(a, b)] if (a, b) in base else base[(b, a)]

    def cluster_dist(ca: list[str], cb: list[str]) -> float:
        dists = [pair_dist(a, b) for a in ca for b in cb]
        if linkage == "average":
            return sum(dists) / len(dists)
        return min(dists) if linkage == "single" else max(dists)

    clusters = [[q] for q in names]
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = cluster_dist(clusters[i], clusters[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        if d > threshold:
            break
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return {frozenset(c) for c in clusters}


def loop_extract_facets(query: str, facet_lexicon: Mapping[str, Iterable[str]]
                        ) -> dict[str, str]:
    """Facet extraction by looping the whole lexicon for every query.

    Each value is split and its first occurrence found by sliding over the
    query's tokens; within a facet the key (-length, position, value) is
    minimized: longest, then leftmost, then smallest value.
    """
    tokens = query.split()
    found: dict[str, str] = {}
    for name in sorted(facet_lexicon):
        best: tuple[int, int, str] | None = None
        for value in facet_lexicon[name]:
            vtokens = value.split()
            n = len(vtokens)
            if n == 0:
                continue
            for pos in range(len(tokens) - n + 1):
                if tokens[pos:pos + n] == vtokens:
                    key = (-n, pos, value)
                    if best is None or key < best:
                        best = key
                    break
        if best is not None:
            found[name] = best[2]
    return found


def hash_embed_fn(dim: int = 16) -> Callable[[str], np.ndarray]:
    """Deterministic text -> unit vector via a hash-seeded Gaussian draw.

    Equal texts map to equal vectors; unrelated texts are near-orthogonal
    in expectation. No training involved, so dedup tests fully control
    which pages a query can collide with.
    """
    def embed(text: str) -> np.ndarray:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)
    return embed


def batch_encoder(embed: Callable[[str], np.ndarray]
                  ) -> Callable[[Sequence[str]], np.ndarray]:
    """Batch encoder (texts -> one row per text) over a per-text oracle."""
    return lambda texts: np.stack([embed(text) for text in texts])


def materialized_negatives(stats: CoClickStats, n_neg: int,
                           seed: int) -> list[QueryPairSample]:
    """Negatives drawn by indexing a listed pool of every free pair.

    The pool holds each pair of clicked queries (sorted, i < j) that is not
    a key of ``stats.pairs``, in (i, j) order; ``n_neg`` is capped at its
    size and an empty pool gives no negatives. O(Q^2) time and memory.
    """
    clicked = [q for q in stats.queries() if stats.totals[q] > 0]
    candidates = []
    for i in range(len(clicked)):
        for j in range(i + 1, len(clicked)):
            key = (clicked[i], clicked[j])
            if key not in stats.pairs:
                candidates.append(key)
    if not candidates:
        return []
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(candidates), size=min(n_neg, len(candidates)),
                        replace=False)
    return [QueryPairSample(*candidates[int(i)], -1.0) for i in chosen]


# modifiers for the plain two-cluster training corpus, 20 per group
_TC_MODS = ["red", "blue", "black", "white", "green", "yellow", "pink",
            "orange", "purple", "gray", "trail", "road", "track", "gym",
            "treadmill", "marathon", "sprint", "jogging", "walking", "racing"]


def two_cluster_records() -> tuple[list[ClickRecord], dict[str, list[str]]]:
    """Plain two-cluster co-click corpus: two groups of 20 queries.

    Queries click their group's three shared pages and one private page, so
    intra-group interactive values land in [0.6, 0.9] and cross-group pairs
    are negatives. Returns (records, group -> queries).
    """
    records: list[ClickRecord] = []
    groups: dict[str, list[str]] = {}
    for tag, base in (("shoes", "running shoes"), ("cases", "phone case")):
        queries = [f"{mod} {base}" for mod in _TC_MODS]
        groups[base] = queries
        shared = [f"tc-{tag}-shared-{k}" for k in range(3)]
        for i, query in enumerate(queries):
            per_page = 8 + i % 5
            private = 6 + (i * 3) % 9
            for page_id in shared:
                records.append(ClickRecord(query, page_id, "item",
                                           per_page, per_page * 3))
            records.append(ClickRecord(query, f"tc-{tag}-priv-{i}", "item",
                                       private, private * 3))
    return records, groups


# ---------------------------------------------------------------------------
# the encoder's loss gradients, computed block by block on (batch, length,
# dim) arrays with one projection per q, k and v: the layout the encoder
# had before it moved to one token-major (rows, dim) matrix and a fused
# q/k/v projection. Float64 throughout.
# ---------------------------------------------------------------------------

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715


def _ref_gelu(x):
    x2 = x * x
    th = np.tanh(_GELU_C * x * (1.0 + _GELU_K * x2))
    return 0.5 * x * (1.0 + th), (th, x2)


def _ref_gelu_grad(x, cache):
    th, x2 = cache
    return (0.5 * (1.0 + th)
            + 0.5 * x * (1.0 - th * th) * _GELU_C * (1.0 + 3.0 * _GELU_K * x2))


def _ref_layer_norm(x, g, b, eps):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _ref_layer_norm_back(dy, g, cache):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, (dy * xhat).sum(axis=axes), dy.sum(axis=axes)


def _ref_linear_back(dy, x, w):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    return dy @ w.T, x2.T @ dy2, dy2.sum(axis=0)


def _ref_split_heads(x, num_heads):
    b, length, dim = x.shape
    return x.reshape(b, length, num_heads, dim // num_heads).transpose(0, 2, 1, 3)


def _ref_merge_heads(x):
    b, h, length, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * hd)


def _ref_forward(params, cfg, ids, mask, eps):
    length = int(np.flatnonzero(mask.any(axis=0))[-1]) + 1
    ids, mask = ids[:, :length], mask[:, :length]
    denom = mask.sum(axis=1)
    h = params["tok_emb"][ids] + params["pos_emb"][:length]
    key_mask = mask[:, None, None, :] > 0
    scale = 1.0 / math.sqrt(cfg.model_dim // cfg.num_heads)
    layers = []
    for i in range(cfg.num_layers):
        p = f"L{i}."
        a, ln1 = _ref_layer_norm(h, params[p + "ln1.g"], params[p + "ln1.b"], eps)
        q, k, v = (_ref_split_heads(a @ params[p + "attn.w" + n]
                                    + params[p + "attn.b" + n], cfg.num_heads)
                   for n in "qkv")
        scores = np.where(key_mask, (q @ k.transpose(0, 1, 3, 2)) * scale, -np.inf)
        ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn_w = ex / ex.sum(axis=-1, keepdims=True)
        ctx = _ref_merge_heads(attn_w @ v)
        h = h + ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        f, ln2 = _ref_layer_norm(h, params[p + "ln2.g"], params[p + "ln2.b"], eps)
        pre = f @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        act, gelu = _ref_gelu(pre)
        h = h + act @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        layers.append((a, ln1, q, k, v, attn_w, ctx, f, ln2, pre, act, gelu))
    hf, final = _ref_layer_norm(h, params["final_ln.g"], params["final_ln.b"], eps)
    pooled = (mask[:, :, None] * hf).sum(axis=1) / denom[:, None]
    u = np.tanh(pooled @ params["pool.w"] + params["pool.b"])
    w = np.tanh(u @ params["out1.w"] + params["out1.b"])
    z = w @ params["out2.w"] + params["out2.b"]
    return z, (ids, mask, denom, layers, final, pooled, u, w, scale)


def _ref_backward(params, cfg, cache, dz):
    ids, mask, denom, layers, final, pooled, u, w, scale = cache
    grads = {name: np.zeros_like(t) for name, t in params.items()}
    dw, grads["out2.w"], grads["out2.b"] = _ref_linear_back(dz, w, params["out2.w"])
    du, grads["out1.w"], grads["out1.b"] = _ref_linear_back(
        dw * (1.0 - w ** 2), u, params["out1.w"])
    dpooled, grads["pool.w"], grads["pool.b"] = _ref_linear_back(
        du * (1.0 - u ** 2), pooled, params["pool.w"])
    dhf = mask[:, :, None] * (dpooled[:, None, :] / denom[:, None, None])
    dh, grads["final_ln.g"], grads["final_ln.b"] = _ref_layer_norm_back(
        dhf, params["final_ln.g"], final)
    for i in reversed(range(cfg.num_layers)):
        p = f"L{i}."
        a, ln1, q, k, v, attn_w, ctx, f, ln2, pre, act, gelu = layers[i]
        dact, grads[p + "ffn.w2"], grads[p + "ffn.b2"] = _ref_linear_back(
            dh, act, params[p + "ffn.w2"])
        df, grads[p + "ffn.w1"], grads[p + "ffn.b1"] = _ref_linear_back(
            dact * _ref_gelu_grad(pre, gelu), f, params[p + "ffn.w1"])
        dx, grads[p + "ln2.g"], grads[p + "ln2.b"] = _ref_layer_norm_back(
            df, params[p + "ln2.g"], ln2)
        dh = dh + dx
        dctx, grads[p + "attn.wo"], grads[p + "attn.bo"] = _ref_linear_back(
            dh, ctx, params[p + "attn.wo"])
        dctx = _ref_split_heads(dctx, cfg.num_heads)
        dattn_w = dctx @ v.transpose(0, 1, 3, 2)
        dv = attn_w.transpose(0, 1, 3, 2) @ dctx
        dscores = attn_w * (dattn_w - (dattn_w * attn_w).sum(axis=-1, keepdims=True))
        dq = (dscores @ k) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ q) * scale
        da = np.zeros_like(a)
        for n, grad_h in (("q", dq), ("k", dk), ("v", dv)):
            dxx, grads[p + "attn.w" + n], grads[p + "attn.b" + n] = _ref_linear_back(
                _ref_merge_heads(grad_h), a, params[p + "attn.w" + n])
            da += dxx
        dx, grads[p + "ln1.g"], grads[p + "ln1.b"] = _ref_layer_norm_back(
            da, params[p + "ln1.g"], ln1)
        dh = dh + dx
    np.add.at(grads["tok_emb"], ids, dh)
    grads["pos_emb"][:dh.shape[1]] = dh.sum(axis=0)
    return grads


def reference_pair_loss_and_grad(params, cfg, ids, mask, labels, eps):
    """Summed pair loss and its gradient; rows 2i and 2i + 1 are pair i."""
    params = {name: np.asarray(t, dtype=np.float64) for name, t in params.items()}
    z, cache = _ref_forward(params, cfg, ids, np.asarray(mask, dtype=np.float64), eps)
    norm = np.linalg.norm(z, axis=1, keepdims=True)
    e = z / norm
    dots = (e[0::2] * e[1::2]).sum(axis=1)
    labels = np.asarray(labels, dtype=np.float64)
    pos_loss = np.logaddexp(0.0, -dots)  # -log(sigmoid(dots))
    sig = 1.0 / (1.0 + np.exp(-dots))
    if cfg.negative_loss == "literal":
        losses, ddots = labels * pos_loss, -labels * (1.0 - sig)
    else:
        neg = labels < 0
        losses = np.where(neg, np.logaddexp(0.0, dots), labels * pos_loss)
        ddots = np.where(neg, sig, -labels * (1.0 - sig))
    de = np.empty_like(e)
    de[0::2] = ddots[:, None] * e[1::2]
    de[1::2] = ddots[:, None] * e[0::2]
    dz = (de - (de * e).sum(axis=1, keepdims=True) * e) / norm
    return float(losses.sum()), _ref_backward(params, cfg, cache, dz)


def reference_classify_loss_and_grad(params, cfg, ids, mask, labels, eps):
    """Mean cross-entropy of the head over the batch and its gradient."""
    params = {name: np.asarray(t, dtype=np.float64) for name, t in params.items()}
    z, cache = _ref_forward(params, cfg, ids, np.asarray(mask, dtype=np.float64), eps)
    logits = z @ params["head.w"] + params["head.b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(labels)
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = _ref_backward(params, cfg, cache, dlogits @ params["head.w"].T)
    grads["head.w"] = z.T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    return float(-logp[np.arange(n), labels].mean()), grads


# ---------------------------------------------------------------------------
# the incomplete beta's continued fraction (modified Lentz) with its even
# and odd half-steps and all five zero guards written out, as
# `experiment._betacf` had them before they became one guarded step
# ---------------------------------------------------------------------------

def unrolled_betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise FloatingPointError("incomplete beta continued fraction did not converge")
