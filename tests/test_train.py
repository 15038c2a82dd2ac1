"""Training loop: determinism, optimizer conventions, divergence handling,
fine-tuning, and the one tokenize-and-encode path for text."""

from __future__ import annotations

import numpy as np
import pytest

from topicforge import model, train
from topicforge.metric import QueryPairSample
from topicforge.tokenizer import build_vocabulary, extract_facets, tokenize_query
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


def full_batch(cfg, vocab, samples) -> model.PairBatch:
    tokens, rows = train.tokenize_texts(
        [q for s in samples for q in (s.query_a, s.query_b)], vocab, cfg.seq_len)
    return model.PairBatch(tokens, rows.reshape(-1, 2),
                           np.array([s.interactive for s in samples]))


def test_zero_epochs_is_a_no_op():
    vocab = build_vocab()
    cfg = small_cfg()
    tc = TrainConfig(epochs=0, seed=3, eval_fraction=0.0)
    params, history = train.train_intention_model(pair_corpus(), vocab, cfg, tc)
    assert history == []
    fresh = model.init_params(cfg, seed=3)
    for name, w in fresh.items():
        assert np.array_equal(params[name], w.astype(train.TRAIN_DTYPE))


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


def test_zero_gradient_step_changes_nothing():
    params = model.init_params(small_cfg(), seed=0, dtype=train.TRAIN_DTYPE)
    before = params.flat.copy()
    opt = train.Optimizer(TrainConfig())
    opt.step(params.flat, np.zeros_like(params.flat))
    assert np.array_equal(params.flat, before)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_small_sgd_step_descends(seed):
    # lr must stay tiny: the normalization backward scales gradients by
    # 1/|z|, and |z| is small at init
    cfg = small_cfg()
    batch = full_batch(cfg, build_vocab(), pair_corpus())
    init = model.init_params(cfg, seed=seed)
    loss, grads = model.batch_loss_and_grad(init, cfg, batch)
    stepped = {name: w - 1e-10 * grads[name] for name, w in init.items()}
    assert model.batch_loss_and_grad(stepped, cfg, batch)[0] < loss


def test_adam_separates_disjoint_groups():
    vocab = build_vocab()
    cfg = small_cfg(negative_loss="complement")
    samples = pair_corpus()
    tc = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=30, seed=2,
                     eval_fraction=0.0)
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
    tc = TrainConfig(learning_rate=1e160, batch_size=4, epochs=3, seed=0,
                     eval_fraction=0.0)
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"^diverged during epoch \d+: "):
            train.train_intention_model(pair_corpus(), vocab, cfg, tc)


def finetune_setup(num_classes=2):
    vocab = build_vocab()
    cfg = small_cfg(num_classes=num_classes)
    labeled = ([LabeledQuery(q, 0) for q in GROUP_A]
               + [LabeledQuery(q, 1) for q in GROUP_B])
    pretrained = model.init_params(small_cfg(), seed=0)
    return vocab, cfg, labeled, pretrained


def test_finetune_separable_groups_to_high_accuracy():
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(learning_rate=1e-2, epochs=40, seed=0, eval_fraction=0.0)
    params, history = train.finetune_classifier(pretrained, labeled, vocab,
                                                cfg, tc)
    assert history[-1]["accuracy"] >= 0.95
    assert "head.w" in params


@pytest.mark.parametrize("loop", ["pretrain", "finetune"])
def test_non_finite_parameter_raises_with_last_epoch_params(monkeypatch, loop):
    # the last step of epoch 1 writes a NaN that no later loss reads; only
    # the per-epoch parameter check can catch it
    vocab, cfg, labeled, pretrained = finetune_setup()

    def run(epochs):
        tc = TrainConfig(batch_size=256, epochs=epochs, seed=0,
                         eval_fraction=0.0)
        if loop == "pretrain":
            return train.train_intention_model(pair_corpus(), vocab,
                                               small_cfg(), tc)
        return train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)

    step = train.Optimizer.step

    def poisoned(self, params, grads):
        step(self, params, grads)
        if self.t == 2:
            params[-1] = np.nan

    monkeypatch.setattr(train.Optimizer, "step", poisoned)
    with pytest.raises(FloatingPointError,
                       match="^parameters went non-finite during epoch 1$"):
        run(2)


def test_trainings_run_in_float32(monkeypatch):
    vocab, cfg, labeled, _ = finetune_setup()
    optimizers = []
    step = train.Optimizer.step

    def recording(self, params, grads):
        assert params.dtype == grads.dtype == np.float32
        assert params.shape == grads.shape and params.ndim == 1
        step(self, params, grads)
        optimizers.append(self)

    monkeypatch.setattr(train.Optimizer, "step", recording)
    tc = TrainConfig(batch_size=8, epochs=2, seed=1, eval_fraction=0.2)
    pretrained, history = train.train_intention_model(
        pair_corpus(), vocab, small_cfg(), tc)
    tc = TrainConfig(batch_size=4, epochs=2, seed=1, eval_fraction=0.0)
    runs = [train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)
            for _ in range(2)]
    assert optimizers
    for opt in optimizers:
        assert opt.m.dtype == opt.v.dtype == np.float32
    for params in (pretrained, runs[0][0]):
        assert all(w.dtype == np.float32 for w in params.values())
    # history values are plain floats, ready for the JSON stage reports
    assert all(type(x) is float for row in history for x in row.values()
               if not isinstance(x, int))
    # one seed, bit-identical fine-tuning
    assert runs[0][1] == runs[1][1]
    for name, w in runs[0][0].items():
        assert np.array_equal(runs[1][0][name], w)


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
    tc = TrainConfig(learning_rate=1e-2, epochs=20, seed=0, eval_fraction=0.0)
    params, _ = train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)
    e_a, e_b = train.encode_texts(params, cfg, vocab, ["alpha bravo", "xray zulu"])
    assert np.linalg.norm(e_a) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(e_b) == pytest.approx(1.0, abs=1e-9)
    assert float(e_a @ e_b) < 0.99


def test_encode_texts_matches_single_text_batches(monkeypatch):
    vocab, cfg, labeled, pretrained = finetune_setup()
    tc = TrainConfig(learning_rate=1e-2, epochs=3, seed=0, eval_fraction=0.0)
    trained, _ = train.finetune_classifier(pretrained, labeled, vocab, cfg, tc)
    forwards = []
    embed_batch = model.embed_batch

    def counting(params, cfg, seqs):
        forwards.append(len(seqs))
        return embed_batch(params, cfg, seqs)

    monkeypatch.setattr(model, "embed_batch", counting)
    monkeypatch.setattr(train, "ENCODE_BATCH", 3)
    texts = GROUP_A + ["alpha bravo"] + GROUP_B + ["alpha bravo"]
    # a batch's shape picks the kernels and its longest row the reduction
    # lengths, so rows agree across batch compositions only to rounding:
    # about 1e-15 in float64 and 2e-7 to 5e-7 in float32 (the model docstring)
    as_float64 = {name: w.astype(np.float64) for name, w in trained.items()}
    for params, tol in ((as_float64, 1e-12), (trained, 1e-6)):
        forwards.clear()
        out = train.encode_texts(params, cfg, vocab, texts)
        assert out.shape == (len(texts), cfg.output_dim)
        assert forwards == [3, 3, 3, 1]  # passes of at most ENCODE_BATCH texts
        for text, row in zip(texts, out):
            tokens, _ = train.tokenize_texts([text], vocab, cfg.seq_len)
            single = embed_batch(params, cfg, tokens)[0]
            assert np.max(np.abs(row - single)) < tol
        # a repeated text, encoded in other passes, agrees with its first row
        assert np.max(np.abs(out[len(GROUP_A)] - out[0])) < tol
        assert np.max(np.abs(out[-1] - out[0])) < tol
        # on a fine-tuned checkpoint the rows are the task embedding: the
        # L2-normalized penultimate vector the classification head reads
        tokens, rows = train.tokenize_texts(texts, vocab, cfg.seq_len)
        _, z = model.classify_batch_logits(params, cfg, tokens[rows])
        assert np.max(np.abs(out - z / np.linalg.norm(z, axis=1, keepdims=True))) < tol

    forwards.clear()
    empty = train.encode_texts(trained, cfg, vocab, [])
    assert empty.shape == (0, cfg.output_dim)
    assert forwards == []


def test_best_match_in_blocks_equals_one_matrix():
    # small integers make every product exact, so ties are exact too
    rng = np.random.default_rng(0)
    block = train.ENCODE_BATCH
    keys = rng.integers(-3, 4, size=(6, 4)).astype(np.float64)
    rows = rng.integers(-3, 4, size=(2 * block + 5, 4)).astype(np.float64)
    # rows either side of the first block boundary tie on keys 1 and 4
    keys[1] = keys[4] = 9.0
    rows[block - 1] = rows[block] = 1.0
    best, sims = train.best_match(rows, keys)
    scores = rows @ keys.T
    assert np.array_equal(best, scores.argmax(axis=1))
    assert np.array_equal(sims, scores.max(axis=1))
    assert best[block - 1] == best[block] == 1  # the first of the tied keys
    best, sims = train.best_match(np.zeros((0, 4)), keys)
    assert best.shape == sims.shape == (0,)


def record_rows(monkeypatch, name: str) -> list[int]:
    """The row count of every ``model.<name>`` call from now on."""
    calls, real = [], getattr(model, name)

    def recorded(params, cfg, seqs):
        calls.append(len(seqs))
        return real(params, cfg, seqs)

    monkeypatch.setattr(model, name, recorded)
    return calls


# An inference pass over every row at once gives the same numbers, so only
# these tests hold the blocks that keep the peak down (see ENCODE_BATCH).
def test_finetune_accuracy_counts_blocks_like_one_matrix(monkeypatch):
    vocab, cfg, labeled, pretrained = finetune_setup()
    monkeypatch.setattr(train, "ENCODE_BATCH", 3)
    logits_of = model.classify_batch_logits
    calls = record_rows(monkeypatch, "classify_batch_logits")
    tc = TrainConfig(learning_rate=1e-2, epochs=1, seed=0, eval_fraction=0.0)
    params, history = train.finetune_classifier(pretrained, labeled, vocab,
                                                cfg, tc)
    assert sum(calls) == len(labeled) and max(calls) <= 3
    tokens, rows = train.tokenize_texts([s.query for s in labeled], vocab,
                                        cfg.seq_len)
    logits = np.concatenate([
        logits_of(params, cfg, tokens[rows[i:i + 3]])[0]
        for i in range(0, len(rows), 3)])
    labels = np.asarray([s.label for s in labeled])
    expected = float((logits.argmax(axis=1) == labels).mean())
    assert 0.0 < expected < 1.0
    assert history[-1]["accuracy"] == expected
    assert type(history[-1]["accuracy"]) is float


def test_pretraining_eval_loss_embeds_in_blocks(monkeypatch):
    vocab, cfg, samples = build_vocab(), small_cfg(), pair_corpus()
    monkeypatch.setattr(train, "ENCODE_BATCH", 4)
    calls = record_rows(monkeypatch, "embed_batch")
    tc = TrainConfig(epochs=1, seed=0, eval_fraction=0.4)
    _, history = train.train_intention_model(samples, vocab, cfg, tc)
    n_eval = sum(train.split_eval(
        [f"{s.query_a}\x1f{s.query_b}" for s in samples], 0.4))
    assert n_eval > 2 and "eval_loss" in history[0]
    assert sum(calls) == 2 * n_eval and max(calls) <= 4


def test_tokenize_texts_extracts_facets():
    vocab = build_vocabulary(GROUP_A, facet_lexicon={"letter": {"delta"}})
    tokens, rows = train.tokenize_texts(["alpha bravo", "alpha delta"],
                                        vocab, 6)
    plain, faceted = (tokens[row] for row in rows)
    assert plain.mask.sum() == 2
    assert faceted.mask.sum() == 3  # two words plus the facet token
    assert vocab.id_for("FACET:letter=delta") in faceted.ids


def test_tokenize_texts_equals_tokenize_query_per_text():
    lexicon = {"letter": {"delta", "alpha bravo"}, "call": {"charlie"}}
    vocab = build_vocabulary(GROUP_A + GROUP_B, facet_lexicon=lexicon)
    longer = "alpha bravo charlie delta xray yankee zulu"  # 7 words + 3 facets
    texts = ["alpha bravo", "alpha delta", longer, "xray  zulu", "",
             "alpha delta", "unseen words", longer]
    tokens, rows = train.tokenize_texts(texts, vocab, 6)
    assert len(rows) == len(texts)
    for text, row in zip(texts, rows):
        want = tokenize_query(text, extract_facets(text, lexicon), vocab, 6)
        assert np.array_equal(tokens.ids[row], want.ids), text
        assert np.array_equal(tokens.mask[row], want.attention_mask), text
    assert tokens.ids.dtype == want.ids.dtype
    assert tokens.mask.dtype == want.attention_mask.dtype
    assert tokens.mask[rows[2]].sum() == 6  # truncated to seq_len
    # a repeated text is tokenized once and shares its row
    assert len(tokens) == len(set(texts))
    assert rows[1] == rows[5] and rows[2] == rows[7]
    tokens, rows = train.tokenize_texts([], vocab, 6)
    assert len(tokens) == len(rows) == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_optimizer_step_equals_adam_formula(dtype):
    # the flat step against the per-tensor formula, bit for bit
    rng = np.random.default_rng(0)
    shapes = {"w": (5, 3), "b": (3,)}
    params = model.FlatTensors.copy_of(
        {k: rng.standard_normal(s) for k, s in shapes.items()}, dtype)
    want = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    v = {k: np.zeros(s, dtype) for k, s in shapes.items()}
    lr = 0.01
    opt = train.Optimizer(TrainConfig(learning_rate=lr))
    b1, b2 = train.ADAM_BETA1, train.ADAM_BETA2
    for t in (1, 2, 3):
        grads = model.FlatTensors.copy_of(
            {k: rng.standard_normal(s) for k, s in shapes.items()}, dtype)
        # the step writes its update into the gradient vector it is handed
        handed = {k: g.copy() for k, g in grads.items()}
        opt.step(params.flat, grads.flat)
        for k, g in handed.items():
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g ** 2
            want[k] -= lr * (m[k] / (1.0 - b1 ** t)) / (
                np.sqrt(v[k] / (1.0 - b2 ** t)) + train.ADAM_EPS)
        opt_m, opt_v = (model.FlatTensors(shapes, dtype) for _ in range(2))
        opt_m.flat[...], opt_v.flat[...] = opt.m, opt.v
        for k in shapes:
            assert params[k].dtype == opt_m[k].dtype == opt_v[k].dtype == dtype
            assert np.array_equal(params[k], want[k]), (t, k)
            assert np.array_equal(opt_m[k], m[k]), (t, k)
            assert np.array_equal(opt_v[k], v[k]), (t, k)
