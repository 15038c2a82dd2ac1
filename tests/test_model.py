"""Encoder tests: exact gradients vs finite differences, output contracts,
closed-form loss values and checkpoint round-trips."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from topicforge import model
from topicforge.tokenizer import TokenSequence

from oracles import (finite_difference_grads, max_relative_error,
                     reference_classify_loss_and_grad,
                     reference_pair_loss_and_grad)

TOY = model.ModelConfig(vocab_size=10, seq_len=5, model_dim=4, num_layers=1,
                        num_heads=2, ffn_dim=8, output_dim=4)


def generic_params(cfg: model.ModelConfig, seed: int) -> dict[str, np.ndarray]:
    # init-scale weights sit in a nearly linear regime; push every tensor to
    # a generic point, drawn in param_shapes order, so the gradient check
    # exercises the nonlinearities
    params = model.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return {name: params[name] + rng.normal(0.0, 0.25, size=shape)
            for name, shape in model.param_shapes(cfg).items()}


def random_pairs(cfg: model.ModelConfig, rng, n_pairs: int = 3,
                 max_len: int | None = None):
    batch = []
    for k in range(n_pairs):
        seqs = []
        for _ in range(2):
            length = int(rng.integers(2, (max_len or cfg.seq_len) + 1))
            ids = np.zeros(cfg.seq_len, dtype=np.int64)
            ids[:length] = rng.integers(2, cfg.vocab_size, size=length)
            mask = np.zeros(cfg.seq_len)
            mask[:length] = 1.0
            seqs.append(TokenSequence(ids, mask))
        interactive = -1.0 if k % 2 else float(rng.uniform(0.2, 1.0))
        batch.append((seqs[0], seqs[1], interactive))
    return batch


@pytest.mark.parametrize("mode", ["literal", "complement"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_loss_gradients_match_finite_differences(mode, seed):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "negative_loss": mode})
    params = generic_params(cfg, seed)
    batch = random_pairs(cfg, np.random.default_rng(seed))
    _, grads = model.batch_loss_and_grad(params, cfg, batch)
    numeric = finite_difference_grads(
        lambda: model.batch_loss_and_grad(params, cfg, batch)[0], params)
    assert max_relative_error(grads, numeric) < 1e-4


def test_classification_gradients_match_finite_differences():
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    params = generic_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    seqs = [a for a, _, _ in random_pairs(cfg, rng, n_pairs=4)]
    labels = [0, 2, 1, 2]
    _, grads = model.classify_batch_loss_and_grad(params, cfg, seqs, labels)
    numeric = finite_difference_grads(
        lambda: model.classify_batch_loss_and_grad(
            params, cfg, seqs, labels)[0], params)
    assert max_relative_error(grads, numeric) < 1e-4


def test_pair_loss_closed_forms():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    # orthogonal pair: sigmoid(0) = 1/2 in every branch
    for mode in ("literal", "complement"):
        _, losses, _ = model._pair_losses(e[:1], e[1:], [1.0], mode)
        assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
        _, losses, _ = model._pair_losses(e[:1], e[1:], [-1.0], mode)
        expected = -math.log(2.0) if mode == "literal" else math.log(2.0)
        assert losses[0] == pytest.approx(expected, abs=1e-12)
    # aligned positive: -log(sigmoid(1))
    _, losses, _ = model._pair_losses(e[:1], e[:1], [1.0], "literal")
    assert losses[0] == pytest.approx(0.3132616875182228, abs=1e-12)
    # half-weight positive scales linearly
    _, losses, _ = model._pair_losses(e[:1], e[:1], [0.5], "literal")
    assert losses[0] == pytest.approx(0.5 * 0.3132616875182228, abs=1e-12)


def test_embeddings_unit_norm():
    params = generic_params(TOY, seed=7)
    rng = np.random.default_rng(7)
    seqs = [s for pair in random_pairs(TOY, rng, n_pairs=10)
            for s in pair[:2]]
    out = model.embed_batch(params, TOY, seqs)
    norms = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6


def test_pad_positions_do_not_leak():
    params = generic_params(TOY, seed=8)
    ids = np.array([3, 4, 0, 0, 0], dtype=np.int64)
    mask = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    base = model.embed_batch(params, TOY, [TokenSequence(ids, mask)])[0]
    for junk in (1, 5, 9):
        poked = ids.copy()
        poked[2:] = junk
        out = model.embed_batch(params, TOY, [TokenSequence(poked, mask)])[0]
        assert np.max(np.abs(out - base)) <= 1e-9


def test_trimmed_forward_matches_full_length_batch():
    params = generic_params(TOY, seed=12)
    rng = np.random.default_rng(12)
    short = [s for pair in random_pairs(TOY, rng, n_pairs=3, max_len=3)
             for s in pair[:2]]
    # a mask gap: the token after it must survive trimming
    short.append(TokenSequence(np.array([3, 0, 7, 0, 0], dtype=np.int64),
                               np.array([1.0, 0.0, 1.0, 0.0, 0.0])))
    full = TokenSequence(rng.integers(2, TOY.vocab_size, size=TOY.seq_len),
                         np.ones(TOY.seq_len))
    trimmed = model.embed_batch(params, TOY, short)
    untrimmed = model.embed_batch(params, TOY, short + [full])[:-1]
    assert np.max(np.abs(trimmed - untrimmed)) <= 1e-12
    alone = model.embed_batch(params, TOY, short[-1:])[0]
    assert np.max(np.abs(alone - untrimmed[-1])) <= 1e-12


def test_pos_emb_gradient_is_zero_past_longest_row():
    params = generic_params(TOY, seed=13)
    batch = random_pairs(TOY, np.random.default_rng(13), max_len=3)
    longest = max(int(s.attention_mask.sum()) for pair in batch for s in pair[:2])
    assert longest < TOY.seq_len
    _, grads = model.batch_loss_and_grad(params, TOY, batch)
    assert grads["pos_emb"].shape == (TOY.seq_len, TOY.model_dim)
    assert grads["pos_emb"][longest - 1].any()
    assert not grads["pos_emb"][longest:].any()


def test_trimmed_backward_matches_finite_differences():
    params = generic_params(TOY, seed=14)
    batch = random_pairs(TOY, np.random.default_rng(14), max_len=3)
    assert all(s.attention_mask[3:].sum() == 0 for pair in batch for s in pair[:2])
    _, grads = model.batch_loss_and_grad(params, TOY, batch)
    numeric = finite_difference_grads(
        lambda: model.batch_loss_and_grad(params, TOY, batch)[0], params)
    assert max_relative_error(grads, numeric) < 1e-4


def test_gelu_matches_reference_formula_and_differences():
    x = np.linspace(-10.0, 10.0, 20001)
    act, cache = model._gelu(x)
    c, k = math.sqrt(2.0 / math.pi), 0.044715
    reference = 0.5 * x * (1.0 + np.tanh(c * (x + k * x ** 3)))
    assert np.max(np.abs(act - reference)) <= 1e-15
    step = 1e-6
    numeric = (model._gelu(x + step)[0] - model._gelu(x - step)[0]) / (2.0 * step)
    assert np.max(np.abs(model._gelu_grad(x, cache) - numeric)) <= 1e-8


def test_fully_masked_sequence_rejected():
    params = model.init_params(TOY)
    seq = TokenSequence(np.zeros(5, dtype=np.int64), np.zeros(5))
    with pytest.raises(ValueError, match="fully masked"):
        model.embed_batch(params, TOY, [seq])


def test_token_id_out_of_range_rejected():
    params = model.init_params(TOY)
    ids = np.array([3, 99, 0, 0, 0], dtype=np.int64)
    mask = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        model.embed_batch(params, TOY, [TokenSequence(ids, mask)])


def test_init_params_match_declared_shapes():
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 4})
    params = model.init_params(cfg, seed=0)
    shapes = model.param_shapes(cfg)
    assert set(params) == set(shapes)
    for name, shape in shapes.items():
        assert params[name].shape == shape
        assert params[name].dtype == np.float64
    # classification head: uniform +/- 1/sqrt(fan_in), zero bias
    bound = 1.0 / math.sqrt(cfg.output_dim)
    assert np.max(np.abs(params["head.w"])) <= bound
    assert not params["head.b"].any()


def test_config_validation():
    bad = dict(TOY.to_dict())
    bad["model_dim"] = 5  # not divisible by num_heads
    with pytest.raises(ValueError):
        model.ModelConfig(**bad)
    bad = dict(TOY.to_dict())
    bad["negative_loss"] = "bogus"
    with pytest.raises(ValueError):
        model.ModelConfig(**bad)


def test_nonfinite_loss_names_batch_index():
    params = generic_params(TOY, seed=9)
    params["out2.w"][0, 0] = np.inf
    batch = random_pairs(TOY, np.random.default_rng(9), n_pairs=2)
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError, match="batch index"):
            model.batch_loss_and_grad(params, TOY, batch)


def test_log_sigmoid_stable_at_extremes():
    assert model.log_sigmoid(np.array([-1000.0]))[0] == pytest.approx(-1000.0)
    assert model.log_sigmoid(np.array([1000.0]))[0] == pytest.approx(0.0)
    x = np.linspace(-30, 30, 61)
    expected = np.log(1.0 / (1.0 + np.exp(-x)))
    assert np.allclose(model.log_sigmoid(x), expected, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 2})
    params = model.FlatTensors.copy_of(generic_params(cfg, seed=11), np.float64)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    model.save_params(params, cfg, first)
    loaded, loaded_cfg = model.load_params(first)
    assert loaded_cfg == cfg
    assert all(v.dtype == np.float32 for v in loaded.values())  # as stored
    model.save_params(loaded, loaded_cfg, second)
    assert first.read_bytes() == second.read_bytes()
    assert (first.with_suffix(".ckpt.json").read_bytes()
            == second.with_suffix(".ckpt.json").read_bytes())
    # float32 storage: values match to float32 resolution and forwards agree
    batch = random_pairs(cfg, np.random.default_rng(11), n_pairs=2)
    seqs = [batch[0][0], batch[1][1]]
    before = model.embed_batch(params, cfg, seqs)
    after = model.embed_batch(loaded, cfg, seqs)
    assert np.allclose(before, after, atol=1e-5)
    for name, w in params.items():
        assert np.allclose(loaded[name], w, atol=1e-6, rtol=1e-6)


def test_checkpoint_blob_is_the_name_ordered_flat_vector(tmp_path):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    params = model.init_params(cfg, seed=4, dtype=np.float32)
    assert list(params) == sorted(model.param_shapes(cfg))
    assert np.array_equal(
        np.concatenate([w.ravel() for w in params.values()]), params.flat)
    model.save_params(params, cfg, tmp_path / "a.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == params.flat.astype("<f4").tobytes()
    manifest = json.loads((tmp_path / "a.ckpt.json").read_text(encoding="utf-8"))
    sizes = [w.size for w in params.values()]
    assert [(t["name"], t["offset"]) for t in manifest["tensors"]] == [
        (name, 4 * sum(sizes[:i])) for i, name in enumerate(params)]
    loaded, _ = model.load_params(tmp_path / "a.ckpt")
    assert list(loaded) == list(params)
    assert np.array_equal(loaded.flat, params.flat)


def test_init_params_draw_in_param_shapes_order():
    # the layout is name order, but values are drawn tensor by tensor in
    # param_shapes order (tok_emb, then pos_emb, ...), in float64
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    params = model.init_params(cfg, seed=7, dtype=np.float32)
    rng = np.random.default_rng(7)
    for name in ("tok_emb", "pos_emb"):
        want = rng.normal(0.0, 0.02, size=params[name].shape)
        assert np.array_equal(params[name], want.astype(np.float32)), name
    assert np.array_equal(params.flat,
                          model.init_params(cfg, seed=7).flat.astype(np.float32))


def flat_offsets(tensors: model.FlatTensors) -> dict[str, int]:
    """Each tensor's element offset in its flat vector."""
    base = tensors.flat.ctypes.data
    return {name: (w.ctypes.data - base) // w.itemsize
            for name, w in tensors.items()}


def test_head_gradients_share_the_parameters_offsets(tmp_path):
    model.save_params(model.init_params(TOY, seed=2), TOY, tmp_path / "a.ckpt")
    encoder, cfg = model.load_params(tmp_path / "a.ckpt")
    cfg = model.ModelConfig(**{**cfg.to_dict(), "num_classes": 3})
    params = model.init_head(encoder, cfg, seed=2)
    assert not np.shares_memory(params.flat, encoder.flat)
    assert all(np.array_equal(params[name], w) for name, w in encoder.items())
    batch = random_pairs(cfg, np.random.default_rng(2), n_pairs=3)
    seqs = [s for pair in batch for s in pair[:2]]
    _, grads = model.classify_batch_loss_and_grad(params, cfg, seqs,
                                                  [0, 1, 2, 0, 1, 2])
    assert params.flat.dtype == grads.flat.dtype == np.float32
    assert grads.flat.shape == params.flat.shape
    assert list(grads) == list(params)
    assert flat_offsets(grads) == flat_offsets(params)
    # the head sits inside the name-ordered vector, not after the encoder
    assert 0 < flat_offsets(params)["head.w"] < flat_offsets(params)["tok_emb"]


# the dense benchmark workload's encoder, at a made-up vocabulary size
DENSE = model.ModelConfig(vocab_size=400, seq_len=16, model_dim=64,
                          num_layers=2, num_heads=2, ffn_dim=128, output_dim=32)


def as_dtype(params, dtype):
    return {name: w.astype(dtype) for name, w in params.items()}


def arrays(tree):
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (tuple, list)):
        for item in tree:
            yield from arrays(item)


def test_float32_parameters_compute_in_float32(monkeypatch):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    params = as_dtype(generic_params(cfg, seed=5), np.float32)
    caches = []
    forward = model._forward

    def recording(params, cfg, ids, mask, keep_cache=False):
        z, cache = forward(params, cfg, ids, mask, keep_cache=keep_cache)
        # listed now: the backward releases each layer's cache as it goes
        caches.append(list(arrays(cache)))
        return z, cache

    monkeypatch.setattr(model, "_forward", recording)
    batch = random_pairs(cfg, np.random.default_rng(5), n_pairs=4)
    seqs = [s for pair in batch for s in pair[:2]]
    _, pair_grads = model.batch_loss_and_grad(params, cfg, batch)
    _, class_grads = model.classify_batch_loss_and_grad(
        params, cfg, seqs, [0, 1, 2, 0, 1, 2, 0, 1])
    for grads in (pair_grads, class_grads):
        assert grads.keys() == params.keys()
        assert all(g.dtype == np.float32 for g in grads.values())
    # mask, pooled vectors and every layer intermediate: no silent upcast
    cached = [a for cache in caches for a in cache]
    assert len(caches) == 2 and len(cached) > 20
    assert all(a.dtype == np.float32 for a in cached if a.dtype.kind == "f")
    # the output vector and its normalization stay float64
    assert model.embed_batch(params, cfg, seqs).dtype == np.float64
    assert model.classify_batch_logits(params, cfg, seqs)[1].dtype == np.float64


def gradient_error(approx, exact) -> float:
    """Worst per-tensor |approx - exact| / |exact| in the L2 norm. A tensor
    whose exact gradient is near zero (attention's key bias: softmax ignores
    a shift shared by all keys) is measured against 1e-3 of the whole
    gradient's norm instead."""
    floor = 1e-3 * math.sqrt(sum(float(np.sum(g ** 2)) for g in exact.values()))
    return max(float(np.linalg.norm(approx[name] - g))
               / max(float(np.linalg.norm(g)), floor)
               for name, g in exact.items())


@pytest.mark.parametrize("base", [TOY, DENSE], ids=["toy", "dense"])
@pytest.mark.parametrize("seed", [0, 1])
def test_float32_matches_float64_on_the_same_parameters(base, seed):
    # float32 keeps about 7 digits; on these configs the loss agrees to
    # about 1e-7 and each gradient tensor to about 3e-6, relative
    cfg = model.ModelConfig(**{**base.to_dict(), "num_classes": 5})
    params32 = as_dtype(generic_params(cfg, seed), np.float32)
    params64 = as_dtype(params32, np.float64)
    rng = np.random.default_rng(seed)
    batch = random_pairs(cfg, rng, n_pairs=16)
    seqs = [s for pair in batch for s in pair[:2]]
    labels = rng.integers(0, cfg.num_classes, size=len(seqs))
    for loss_and_grad, args in ((model.batch_loss_and_grad, (batch,)),
                                (model.classify_batch_loss_and_grad,
                                 (seqs, labels))):
        loss32, grads32 = loss_and_grad(params32, cfg, *args)
        loss64, grads64 = loss_and_grad(params64, cfg, *args)
        assert loss32 == pytest.approx(loss64, rel=1e-5)
        assert gradient_error(grads32, grads64) < 1e-4


@pytest.mark.parametrize("base", [TOY, DENSE], ids=["toy", "dense"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_inference_forward_equals_cached_forward(base, dtype):
    params = as_dtype(generic_params(base, seed=3), dtype)
    batch = random_pairs(base, np.random.default_rng(3), n_pairs=12)
    tokens = model.TokenBatch.of([s for pair in batch for s in pair[:2]])
    ids, mask = tokens.ids, tokens.mask
    z, cache = model._forward(params, base, ids, mask)
    z_kept, kept = model._forward(params, base, ids, mask, keep_cache=True)
    assert cache is None and kept is not None
    assert np.array_equal(z, z_kept)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_inference_pass_holds_under_half_the_cached_peak():
    # a cached pass holds every layer's intermediates until it returns; an
    # inference pass holds one block's at a time
    params = as_dtype(model.init_params(DENSE, seed=0), np.float32)
    batch = random_pairs(DENSE, np.random.default_rng(0), n_pairs=128)
    seqs = [s for pair in batch for s in pair[:2]]
    tokens = model.TokenBatch.of(seqs)
    ids, mask = tokens.ids, tokens.mask
    assert ids.shape == (256, DENSE.seq_len) and mask[:, -1].any()
    cached = traced_peak(
        lambda: model._forward(params, DENSE, ids, mask, keep_cache=True))
    assert traced_peak(lambda: model.embed_batch(params, DENSE, seqs)) < 0.5 * cached


def ragged_gapped_tokens(cfg: model.ModelConfig, rng, rows: int):
    """Rows of 1 to seq_len tokens; every third row longer than two tokens
    has a masked gap after its first token."""
    ids = np.zeros((rows, cfg.seq_len), dtype=np.int64)
    mask = np.zeros((rows, cfg.seq_len))
    for r in range(rows):
        length = int(rng.integers(1, cfg.seq_len + 1))
        ids[r, :length] = rng.integers(1, cfg.vocab_size, size=length)
        mask[r, :length] = 1.0
        if r % 3 == 0 and length > 2:
            mask[r, rng.integers(1, length - 1)] = 0.0
    assert not mask[:, -1].all() and (mask[:, 1:] > mask[:, :-1]).any()
    return ids, mask


@pytest.mark.parametrize("mode", ["literal", "complement"])
@pytest.mark.parametrize("heads", [1, 2, 4])
def test_loss_gradients_equal_the_layer_by_layer_oracle(heads, mode):
    # the token-major layout and the fused q/k/v projection compute the
    # same loss and gradients as the per-block (batch, length, dim) oracle
    cfg = model.ModelConfig(vocab_size=20, seq_len=7, model_dim=8,
                            num_layers=2, num_heads=heads, ffn_dim=12,
                            output_dim=6, num_classes=3, negative_loss=mode)
    params = generic_params(cfg, seed=heads)
    rng = np.random.default_rng(heads)
    ids, mask = ragged_gapped_tokens(cfg, rng, rows=12)
    pairs = rng.uniform(0.2, 1.0, size=6)
    pairs[1::2] = -1.0
    seqs = [TokenSequence(i, m) for i, m in zip(ids, mask)]
    loss, grads = model.batch_loss_and_grad(
        params, cfg, [(seqs[2 * k], seqs[2 * k + 1], pairs[k]) for k in range(6)])
    want_loss, want = reference_pair_loss_and_grad(params, cfg, ids, mask,
                                                   pairs, model.LN_EPS)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert grads.keys() == want.keys()
    assert gradient_error(grads, want) < 1e-12

    classes = rng.integers(0, cfg.num_classes, size=12)
    loss, grads = model.classify_batch_loss_and_grad(
        params, cfg, model.TokenBatch(ids, mask), classes)
    want_loss, want = reference_classify_loss_and_grad(
        params, cfg, ids, mask, classes, model.LN_EPS)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert gradient_error(grads, want) < 1e-12
