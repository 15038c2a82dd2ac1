"""Encoder tests: exact gradients vs finite differences, output contracts,
closed-form loss values and checkpoint round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest

from topicforge import model
from topicforge.tokenizer import TokenSequence

from oracles import finite_difference_grads, max_relative_error

TOY = model.ModelConfig(vocab_size=10, seq_len=5, model_dim=4, num_layers=1,
                        num_heads=2, ffn_dim=8, output_dim=4)


def generic_params(cfg: model.ModelConfig, seed: int) -> dict[str, np.ndarray]:
    # init-scale weights sit in a nearly linear regime; push every tensor to
    # a generic point so the gradient check exercises the nonlinearities
    params = model.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return {name: w + rng.normal(0.0, 0.25, size=w.shape)
            for name, w in params.items()}


def random_pairs(cfg: model.ModelConfig, rng, n_pairs: int = 3):
    batch = []
    for k in range(n_pairs):
        seqs = []
        for _ in range(2):
            length = int(rng.integers(2, cfg.seq_len + 1))
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


@pytest.mark.parametrize("freeze", [False, True])
def test_classification_gradients_match_finite_differences(freeze):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    params = generic_params(cfg, seed=4)
    rng = np.random.default_rng(4)
    seqs = [a for a, _, _ in random_pairs(cfg, rng, n_pairs=4)]
    labels = [0, 2, 1, 2]
    _, grads = model.classify_batch_loss_and_grad(params, cfg, seqs, labels,
                                                  freeze_encoder=freeze)
    numeric = finite_difference_grads(
        lambda: model.classify_batch_loss_and_grad(
            params, cfg, seqs, labels, freeze_encoder=freeze)[0], params)
    if freeze:
        # frozen encoder: head gradients stay exact, the rest are zeroed
        assert max_relative_error(
            {k: grads[k] for k in ("head.w", "head.b")},
            {k: numeric[k] for k in ("head.w", "head.b")}) < 1e-4
        for name, g in grads.items():
            if not name.startswith("head."):
                assert not g.any()
    else:
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
        with pytest.raises(model.NonFiniteLossError, match="batch index"):
            model.batch_loss_and_grad(params, TOY, batch)


def test_log_sigmoid_stable_at_extremes():
    assert model.log_sigmoid(np.array([-1000.0]))[0] == pytest.approx(-1000.0)
    assert model.log_sigmoid(np.array([1000.0]))[0] == pytest.approx(0.0)
    x = np.linspace(-30, 30, 61)
    expected = np.log(1.0 / (1.0 + np.exp(-x)))
    assert np.allclose(model.log_sigmoid(x), expected, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 2})
    params = generic_params(cfg, seed=11)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    model.save_params(params, cfg, first)
    loaded, loaded_cfg = model.load_params(first)
    assert loaded_cfg == cfg
    assert all(v.dtype == np.float64 for v in loaded.values())
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
