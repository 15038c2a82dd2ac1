"""Training loop: determinism, optimizer conventions, divergence handling,
fine-tuning, and the one tokenize-and-encode path for text."""

from __future__ import annotations

import numpy as np
import pytest

from topicforge import model, train
from topicforge.metric import QueryPairSample
from topicforge.tokenizer import build_vocabulary
from topicforge.train import LabeledQuery, TrainConfig

GROUP_A = ["alpha bravo", "alpha charlie", "bravo charlie", "alpha delta"]
GROUP_B = ["xray yankee", "xray zulu", "yankee zulu", "xray whiskey"]


def pair_corpus() -> list[QueryPairSample]:
    samples = []
    for group in (GROUP_A, GROUP_B):
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                samples.append(QueryPairSample(group[i], group[j], 0.8))
    for a in GROUP_A:
        for b in GROUP_B:
            samples.append(QueryPairSample(a, b, -1.0))
    return samples


def small_cfg(**overrides) -> model.ModelConfig:
    base = dict(vocab_size=build_vocab().size, seq_len=6, model_dim=8,
                num_layers=1, num_heads=2, ffn_dim=16, output_dim=8)
    base.update(overrides)
    return model.ModelConfig(**base)


def build_vocab():
    return build_vocabulary(GROUP_A + GROUP_B)


def total_loss(params, cfg, vocab, samples) -> float:
    seqs = train.tokenize_texts([q for s in samples for q in (s.query_a, s.query_b)],
                                vocab, cfg.seq_len)
    return sum(model.pair_loss(params, cfg, seqs[2 * i], seqs[2 * i + 1],
                               s.interactive)
               for i, s in enumerate(samples))


def test_zero_epochs_is_a_no_op():
    vocab = build_vocab()
    cfg = small_cfg()
    tc = TrainConfig(epochs=0, seed=3, eval_fraction=0.0)
    params, history = train.train_intention_model(pair_corpus(), vocab, cfg, tc)
    assert history == []
    fresh = model.init_params(cfg, seed=3)
    for name, w in fresh.items():
        assert np.array_equal(params[name], w)


def test_training_is_bit_deterministic():
    vocab = build_vocab()
    cfg = small_cfg()
    tc = TrainConfig(epochs=2, seed=5, eval_fraction=0.2)
    p1, h1 = train.train_intention_model(pair_corpus(), vocab, cfg, tc)
    p2, h2 = train.train_intention_model(pair_corpus(), vocab, cfg, tc)
    assert h1 == h2
    for name in p1:
        assert np.array_equal(p1[name], p2[name])
    p3, _ = train.train_intention_model(
        pair_corpus(), vocab, cfg, TrainConfig(epochs=2, seed=6))
    assert any(not np.array_equal(p1[k], p3[k]) for k in p1)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_zero_gradient_step_changes_nothing(optimizer):
    cfg = small_cfg()
    params = model.init_params(cfg, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    opt = train.Optimizer(TrainConfig(optimizer=optimizer))
    opt.step(params, model.zero_grads(cfg))
    for name, w in before.items():
        assert np.array_equal(params[name], w)


def test_weight_decay_shrinks_parameters():
    cfg = small_cfg()
    params = model.init_params(cfg, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    tc = TrainConfig(optimizer="sgd", learning_rate=0.5, weight_decay=0.1)
    train.Optimizer(tc).step(params, model.zero_grads(cfg))
    for name, w in before.items():
        assert np.allclose(params[name], w * (1.0 - 0.5 * 0.1))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_small_sgd_step_descends(seed):
    # lr must stay tiny: the normalization backward scales gradients by
    # 1/|z|, and |z| is small at init
    vocab = build_vocab()
    cfg = small_cfg()
    samples = pair_corpus()
    tc = TrainConfig(optimizer="sgd", learning_rate=1e-10, batch_size=256,
                     epochs=1, seed=seed, eval_fraction=0.0)
    params, _ = train.train_intention_model(samples, vocab, cfg, tc)
    init = model.init_params(cfg, seed=seed)
    assert total_loss(params, cfg, vocab, samples) < total_loss(
        init, cfg, vocab, samples)


def test_adam_separates_disjoint_groups():
    vocab = build_vocab()
    cfg = small_cfg(negative_loss="complement")
    samples = pair_corpus()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=4,
                     epochs=30, seed=2, eval_fraction=0.0)
    params, history = train.train_intention_model(samples, vocab, cfg, tc)
    assert history[-1]["mean_loss"] < history[0]["mean_loss"]
    e_a = train.encode_texts(params, cfg, vocab, GROUP_A)
    e_b = train.encode_texts(params, cfg, vocab, GROUP_B)
    intra = [float(x @ y) for grp in (e_a, e_b)
             for i, x in enumerate(grp) for y in grp[i + 1:]]
    cross = [float(x @ y) for x in e_a for y in e_b]
    assert min(intra) > 0.9
    assert max(cross) < 0.0


def test_eval_split_reporting():
    vocab = build_vocab()
    cfg = small_cfg()
    samples = pair_corpus()
    tc = TrainConfig(epochs=1, seed=0, eval_fraction=0.4)
    _, history = train.train_intention_model(samples, vocab, cfg, tc)
    assert "eval_loss" in history[0]
    tc = TrainConfig(epochs=1, seed=0, eval_fraction=0.0)
    _, history = train.train_intention_model(samples, vocab, cfg, tc)
    assert "eval_loss" not in history[0]


def test_split_eval_fraction_and_stability():
    keys = [f"key-{i}" for i in range(2000)]
    marks = train.split_eval(keys, 0.2)
    assert marks == train.split_eval(keys, 0.2)
    fraction = sum(marks) / len(marks)
    assert 0.15 < fraction < 0.25
    assert not any(train.split_eval(keys, 0.0))


def test_requires_a_positive_sample():
    vocab = build_vocab()
    negatives = [QueryPairSample(a, b, -1.0)
                 for a in GROUP_A for b in GROUP_B]
    with pytest.raises(ValueError, match="positive"):
        train.train_intention_model(negatives, vocab, small_cfg(),
                                    TrainConfig(epochs=1))


def test_divergence_carries_last_good_params():
    vocab = build_vocab()
    cfg = small_cfg()
    tc = TrainConfig(optimizer="sgd", learning_rate=1e160, batch_size=4,
                     epochs=3, seed=0, eval_fraction=0.0)
    with np.errstate(all="ignore"):
        with pytest.raises(train.TrainingDiverged) as info:
            train.train_intention_model(pair_corpus(), vocab, cfg, tc)
    assert model.check_finite(info.value.params)
    assert info.value.epoch >= 0


def test_resume_from_given_init():
    vocab = build_vocab()
    cfg = small_cfg()
    base, _ = train.train_intention_model(
        pair_corpus(), vocab, cfg, TrainConfig(epochs=1, seed=9))
    resumed, history = train.train_intention_model(
        pair_corpus(), vocab, cfg, TrainConfig(epochs=0, seed=0), init=base)
    assert history == []
    for name, w in base.items():
        assert np.array_equal(resumed[name], w)
        assert resumed[name] is not w  # defensive copy


def finetune_setup(num_classes=2):
    vocab = build_vocab()
    cfg = small_cfg(num_classes=num_classes)
    labeled = ([LabeledQuery(q, 0) for q in GROUP_A]
               + [LabeledQuery(q, 1) for q in GROUP_B])
    pretrained = model.init_params(small_cfg(), seed=0)
    return vocab, cfg, labeled, pretrained


def test_finetune_separable_groups_to_high_accuracy():
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=40,
                     seed=0, eval_fraction=0.0)
    params, history = train.finetune_classifier(pretrained, labeled, vocab,
                                                cfg, tc)
    assert history[-1]["accuracy"] >= 0.95
    assert "head.w" in params


def test_finetune_frozen_encoder_leaves_encoder_unchanged():
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=5,
                     seed=0, eval_fraction=0.0)
    params, _ = train.finetune_classifier(pretrained, labeled, vocab, cfg,
                                          tc, freeze_encoder=True)
    for name, w in pretrained.items():
        assert np.array_equal(params[name], w)


def test_finetune_validation():
    vocab, cfg, labeled, pretrained = finetune_setup()
    single = [LabeledQuery(q, 0) for q in GROUP_A]
    with pytest.raises(ValueError, match="two classes"):
        train.finetune_classifier(pretrained, single, vocab, cfg,
                                  TrainConfig(epochs=1))
    bad = labeled + [LabeledQuery("alpha bravo", 7)]
    with pytest.raises(ValueError, match="out of range"):
        train.finetune_classifier(pretrained, bad, vocab, cfg,
                                  TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="num_classes"):
        train.finetune_classifier(pretrained, labeled, vocab,
                                  small_cfg(num_classes=0),
                                  TrainConfig(epochs=1))


def test_finetune_warns_on_absent_class(caplog):
    vocab, _, labeled, pretrained = finetune_setup()
    cfg = small_cfg(num_classes=3)
    with caplog.at_level("WARNING"):
        train.finetune_classifier(pretrained, labeled, vocab, cfg,
                                  TrainConfig(epochs=1, seed=0))
    assert any("absent" in rec.message for rec in caplog.records)


def test_task_embedding_unit_norm_and_distinct():
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=20,
                     seed=0, eval_fraction=0.0)
    params, _ = train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)
    e_a, e_b = train.encode_texts(params, cfg, vocab, ["alpha bravo", "xray zulu"])
    assert np.linalg.norm(e_a) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(e_b) == pytest.approx(1.0, abs=1e-9)
    assert float(e_a @ e_b) < 0.99


def test_encode_texts_matches_single_text_batches(monkeypatch):
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(optimizer="adam", learning_rate=1e-2, epochs=3,
                     seed=0, eval_fraction=0.0)
    params, _ = train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)
    forwards = []
    embed_batch = model.embed_batch

    def counting(params, cfg, seqs):
        forwards.append(len(seqs))
        return embed_batch(params, cfg, seqs)

    monkeypatch.setattr(model, "embed_batch", counting)
    monkeypatch.setattr(train, "ENCODE_BATCH", 3)
    texts = GROUP_A + ["Alpha  BRAVO!"] + GROUP_B + ["alpha bravo"]
    out = train.encode_texts(params, cfg, vocab, texts)
    assert out.shape == (len(texts), cfg.output_dim)
    assert forwards == [3, 3, 3, 1]  # passes of at most ENCODE_BATCH texts
    for text, row in zip(texts, out):
        [seq] = train.tokenize_texts([text], vocab, cfg.seq_len)
        single = embed_batch(params, cfg, [seq])[0]
        assert np.max(np.abs(row - single)) < 1e-12
    # normalization is part of the path: raw and normalized text agree
    assert np.max(np.abs(out[len(GROUP_A)] - out[0])) < 1e-12
    assert np.max(np.abs(out[-1] - out[0])) < 1e-12
    # on a fine-tuned checkpoint the rows are the task embedding: the
    # L2-normalized penultimate vector the classification head reads
    _, z = model.classify_batch_logits(
        params, cfg, train.tokenize_texts(texts, vocab, cfg.seq_len))
    assert np.max(np.abs(out - z / np.linalg.norm(z, axis=1, keepdims=True))) < 1e-12

    forwards.clear()
    empty = train.encode_texts(params, cfg, vocab, [])
    assert empty.shape == (0, cfg.output_dim)
    assert forwards == []


def test_tokenize_texts_normalizes_and_extracts_facets():
    vocab = build_vocabulary(GROUP_A, facet_lexicon={"letter": {"delta"}})
    lexicon = {"letter": {"delta"}}
    plain, raw, faceted = train.tokenize_texts(
        ["alpha bravo", "ALPHA, bravo!", "alpha delta"], vocab, 6, lexicon)
    assert np.array_equal(plain.ids, raw.ids)
    assert np.array_equal(plain.attention_mask, raw.attention_mask)
    assert faceted.attention_mask.sum() == 3  # two words plus the facet token
    assert vocab.id_for("FACET:letter=delta") in faceted.ids


def test_training_curve_csv(tmp_path):
    history = [{"epoch": 0, "mean_loss": 0.5, "accuracy": 0.25},
               {"epoch": 1, "mean_loss": 0.25, "accuracy": 0.5}]
    path = tmp_path / "curve.csv"
    train.write_training_curve(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,accuracy"
    assert lines[1].startswith("0,0.5")
    assert len(lines) == 3

    # pretraining records the eval loss per epoch; the curve keeps it
    vocab = build_vocab()
    _, history = train.train_intention_model(
        pair_corpus(), vocab, small_cfg(),
        TrainConfig(epochs=2, seed=0, eval_fraction=0.4))
    train.write_training_curve(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,mean_loss,eval_loss"
    assert len(lines) == 3
    for line, row in zip(lines[1:], history):
        epoch, mean_loss, eval_loss = line.split(",")
        assert (int(epoch), float(mean_loss), float(eval_loss)) == (
            row["epoch"], row["mean_loss"], row["eval_loss"])
