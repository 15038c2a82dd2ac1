"""Acceptance criteria, one test per criterion.

Each test name follows test_criterion_<n>_<slug>; the terminal summary
prints one PASS/FAIL line per criterion (see conftest.py). Thresholds and
tolerances are stated inline next to each assertion.
"""

from __future__ import annotations

import math
import time

import numpy as np

from oracles import (batch_encoder, finite_difference_grads, hash_embed_fn,
                     max_relative_error, naive_agglomerate)
from topicforge import cli, model, train
from topicforge.cluster import ProductTypeIndex, cluster_topics
from topicforge.dedup import (Deduper, FacetIndex, build_shelf_index,
                              dedup_against_shelves)
from topicforge.experiment import (date_window, run_experiment, student_t_cdf,
                                   two_sample_t)
from topicforge.fixture import two_cluster_records, write_fixture
from topicforge.ingest import ClickRecord, PageRecord
from topicforge.metric import (aggregate_clicks, build_training_set,
                               interactive_metric)
from topicforge.tokenizer import TokenSequence, build_vocabulary
from topicforge.train import TrainConfig

TOY = model.ModelConfig(vocab_size=10, seq_len=5, model_dim=4, num_layers=1,
                        num_heads=2, ffn_dim=8, output_dim=4)


def generic_params(cfg, seed):
    params = model.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    return {name: w + rng.normal(0.0, 0.25, size=w.shape)
            for name, w in params.items()}


def random_sequences(cfg, rng, n):
    seqs = []
    for _ in range(n):
        length = int(rng.integers(2, cfg.seq_len + 1))
        ids = np.zeros(cfg.seq_len, dtype=np.int64)
        ids[:length] = rng.integers(2, cfg.vocab_size, size=length)
        mask = np.zeros(cfg.seq_len)
        mask[:length] = 1.0
        seqs.append(TokenSequence(ids, mask))
    return seqs


def test_criterion_1_interactive_metric_worked_example():
    # two queries co-click one page 42/43 times and have 52/55 total clicks
    records = [
        ClickRecord("query one", "p-shared", "item", 42, 130),
        ClickRecord("query one", "p-own-1", "item", 10, 30),
        ClickRecord("query two", "p-shared", "item", 43, 130),
        ClickRecord("query two", "p-own-2", "item", 12, 40),
    ]
    stats = aggregate_clicks(records)
    got = interactive_metric(stats, "query one", "query two")
    want = math.sqrt((42 * 43) / (52 * 55))
    assert abs(got - want) < 1e-3
    assert got == want  # the implementation computes the formula exactly
    assert abs(got - 0.7946496) < 1e-6


def test_criterion_2_gradient_finite_difference_match():
    # pair loss, both negative-handling modes, seeds 0..2
    for mode in ("literal", "complement"):
        for seed in (0, 1, 2):
            cfg = model.ModelConfig(**{**TOY.to_dict(),
                                       "negative_loss": mode})
            params = generic_params(cfg, seed)
            rng = np.random.default_rng(seed)
            seqs = random_sequences(cfg, rng, 6)
            batch = [(seqs[2 * k], seqs[2 * k + 1],
                      -1.0 if k % 2 else float(rng.uniform(0.2, 1.0)))
                     for k in range(3)]
            _, grads = model.batch_loss_and_grad(params, cfg, batch)
            numeric = finite_difference_grads(
                lambda: model.batch_loss_and_grad(params, cfg, batch)[0],
                params, step=1e-4)
            assert max_relative_error(grads, numeric) < 1e-4, (mode, seed)
    # classification loss on the same toy encoder
    cfg = model.ModelConfig(**{**TOY.to_dict(), "num_classes": 3})
    for seed in (0, 1, 2):
        params = generic_params(cfg, seed)
        seqs = random_sequences(cfg, np.random.default_rng(seed + 10), 4)
        labels = [0, 2, 1, 2]
        _, grads = model.classify_batch_loss_and_grad(params, cfg, seqs,
                                                      labels)
        numeric = finite_difference_grads(
            lambda: model.classify_batch_loss_and_grad(
                params, cfg, seqs, labels)[0], params, step=1e-4)
        assert max_relative_error(grads, numeric) < 1e-4, seed


def test_criterion_3_embedding_unit_norm_and_pad_invariance():
    cfg = model.ModelConfig(vocab_size=40, seq_len=9, model_dim=16,
                            num_layers=2, num_heads=4, ffn_dim=32,
                            output_dim=12)
    params = generic_params(cfg, seed=3)
    rng = np.random.default_rng(3)
    seqs = random_sequences(cfg, rng, 300)
    embeddings = model.embed_batch(params, cfg, seqs)
    norms = np.linalg.norm(embeddings, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-6  # 100% of outputs

    worst = 0.0
    for seq, e in zip(seqs, embeddings):
        if seq.attention_mask.all():
            continue
        junk_ids = seq.ids.copy()
        pad = seq.attention_mask == 0.0
        junk_ids[pad] = rng.integers(0, cfg.vocab_size, size=int(pad.sum()))
        perturbed = model.embed_batch(
            params, cfg, [TokenSequence(junk_ids, seq.attention_mask)])[0]
        worst = max(worst, float(np.max(np.abs(perturbed - e))))
    assert worst <= 1e-9


def test_criterion_4_two_cluster_separation_margin():
    started = time.monotonic()
    records, groups = two_cluster_records()
    samples = build_training_set(aggregate_clicks(records), "auto", seed=1)
    queries = sorted({q for s in samples for q in (s.query_a, s.query_b)})
    vocab = build_vocabulary(queries)
    cfg = model.ModelConfig(vocab_size=vocab.size, seq_len=12, model_dim=32,
                            num_layers=2, num_heads=2, ffn_dim=64,
                            output_dim=32, negative_loss="complement")
    tc = TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=32,
                     epochs=4, seed=2, eval_fraction=0.0)
    params, _ = train.train_intention_model(samples, vocab, cfg, tc)
    group_embs = [train.encode_texts(params, cfg, vocab, qs)
                  for qs in groups.values()]
    intra = []
    for emb in group_embs:
        gram = emb @ emb.T
        intra.extend(gram[np.triu_indices(len(emb), k=1)].tolist())
    inter = (group_embs[0] @ group_embs[1].T).ravel().tolist()
    margin = float(np.mean(intra) - np.mean(inter))
    assert margin >= 0.3
    assert time.monotonic() - started < 300.0  # "desk scale": < 5 minutes


DIM5 = 24


def type_blob_vectors(type_idx, n_types, n_queries, n_blobs, rng):
    # orthogonal product-type axes; blob structure lives in the tail coords
    vectors = {}
    tail_dim = DIM5 - n_types
    centers = rng.standard_normal((n_blobs, tail_dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    for i in range(n_queries):
        v = np.zeros(DIM5)
        v[type_idx] = 1.0
        tail = centers[i % n_blobs] + 0.15 * rng.standard_normal(tail_dim)
        v[n_types:] = 0.6 * tail
        vectors[f"t{type_idx:02d}-q{i:03d}"] = v / np.linalg.norm(v)
    return vectors


def type_axis(label, n_types):
    v = np.zeros(DIM5)
    v[int(label.removeprefix("ptype"))] = 1.0
    return v


def two_stage_partitions(vectors, n_types, threshold):
    labels = [f"ptype{t}" for t in range(n_types)]
    embed = lambda text: (vectors[text] if text in vectors
                          else type_axis(text, n_types))
    index = ProductTypeIndex.build(labels, batch_encoder(embed))
    result = cluster_topics(sorted(vectors), batch_encoder(embed), index,
                            threshold)
    parts: dict[str, set[frozenset]] = {lbl: set() for lbl in labels}
    for cid, members in result.clusters().items():
        parts[cid.split("#")[0]].add(frozenset(members))
    return result, parts


def test_criterion_5_clustering_oracle_equivalence_and_reduction():
    rng = np.random.default_rng(0)
    per_type = {0: type_blob_vectors(0, 2, 200, 12, rng),
                1: type_blob_vectors(1, 2, 120, 8, rng)}
    merged = {**per_type[0], **per_type[1]}
    for threshold in (0.15, 0.35):  # many-cluster and heavy-merge regimes
        result, parts = two_stage_partitions(merged, 2, threshold)
        assert {q: pt for q, (pt, _) in result.assignments.items()} == {
            q: f"ptype{int(q[1:3])}" for q in merged}
        for idx in (0, 1):
            want = naive_agglomerate(per_type[idx], threshold, "average")
            assert parts[f"ptype{idx}"] == want, (threshold, idx)

    # 10 product types x 100 queries: count distance evaluations
    rng = np.random.default_rng(1)
    big = {}
    for t in range(10):
        big.update(type_blob_vectors(t, 10, 100, 10, rng))
    result, _ = two_stage_partitions(big, 10, 0.15)
    direct = 1000 * 999 // 2
    reduction = 1.0 - result.distance_evaluations / direct
    assert reduction >= 0.80


def bow_axes_embed():
    axes: dict[str, int] = {}

    def embed(text):
        v = np.zeros(4096)
        for token in text.lower().split():
            if token not in axes:
                axes[token] = len(axes)
            v[axes[token]] = 1.0
        return v / np.linalg.norm(v)

    return embed


def test_criterion_6_dedup_exactness_and_recall():
    # shelf path: exact equality with brute force on 500 random queries
    embed = hash_embed_fn(dim=16)
    shelves = [PageRecord(f"s{i:03d}", "shelf", f"aisle {i} dept {i % 13}",
                          f"type{i % 9}") for i in range(150)]
    index = build_shelf_index(shelves, batch_encoder(embed))
    rng = np.random.default_rng(6)
    for _ in range(500):
        qv = rng.standard_normal(16)
        qv /= np.linalg.norm(qv)
        [(page, sim)] = dedup_against_shelves(qv[None, :], index)
        brute = {p.page_id: float(embed(p.title) @ qv) for p in shelves}
        assert page == max(brute, key=brute.get)
        assert abs(sim - max(brute.values())) < 1e-12

    # facet path on a planted catalog: token-overlap embedding space
    embed = bow_axes_embed()
    lexicon = {"color": {"red", "blue", "black"}}
    catalog = [PageRecord(f"s-{t}", "shelf", f"{t} department", t)
               for t in ("shoes", "cases", "packs")]
    planted: list[tuple[str, str]] = []
    kept_controls: list[str] = []
    for t in ("shoes", "cases", "packs"):
        for color in ("red", "blue", "black"):
            for k in range(6):
                title = f"{color} {t} style{k} edition{k}"
                page_id = f"f-{t}-{color}-{k}"
                catalog.append(PageRecord(page_id, "facet", title, t,
                                          frozenset([("color", color)])))
                # one shared-token overlap step on each side of 0.86:
                # 4/sqrt(20) = 0.894 dup, 4/sqrt(24) = 0.816 kept
                planted.append((f"{title} promo{k}", page_id))
                kept_controls.append(f"{title} promo{k} extra{k}")
    deduper = Deduper(build_shelf_index(catalog, batch_encoder(embed)),
                      FacetIndex(catalog), batch_encoder(embed),
                      threshold=0.86, facet_lexicon=lexicon)

    facet_pages = [p for p in catalog if p.page_type == "facet"]
    detected = 0
    decisions = deduper.decide([query for query, _ in planted])
    for (query, source_page), decision in zip(planted, decisions):
        qv = embed(query)
        exhaustive = {p.page_id: float(embed(p.title) @ qv)
                      for p in facet_pages}
        best = max(exhaustive, key=exhaustive.get)
        assert best == source_page  # narrowing retained the true max...
        assert decision.best_match == best  # ...and the decision found it
        assert decision.path == "facet"
        if decision.verdict == "duplicate":
            detected += 1
    assert detected / len(planted) >= 0.95  # measured recall, threshold 0.86
    for decision in deduper.decide(kept_controls):
        assert decision.verdict == "kept"


def test_criterion_7_t_test_fixtures():
    arm = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert two_sample_t(arm, list(arm)).t == 0.0

    result = two_sample_t([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert abs(result.t - 1.000) <= 1e-9
    assert result.df == 8.0

    table = {  # one-tail alpha -> {df: critical t}, published t table
        0.05: {1: 6.3138, 2: 2.9200, 3: 2.3534, 4: 2.1318, 5: 2.0150,
               10: 1.8125, 20: 1.7247, 30: 1.6973, 60: 1.6706, 120: 1.6577},
        0.025: {1: 12.7062, 2: 4.3027, 3: 3.1824, 4: 2.7764, 5: 2.5706,
                10: 2.2281, 20: 2.0860, 30: 2.0423, 60: 2.0003, 120: 1.9799},
    }
    for alpha, row in table.items():
        for df, t_crit in row.items():
            assert abs(student_t_cdf(t_crit, df) - (1.0 - alpha)) <= 1e-3

    p = 1.0 - student_t_cdf(1.69, 58)  # n=30/30 pooled df
    assert abs(p - 0.048) <= 0.003


def test_criterion_8_experiment_calibration_and_power():
    window = date_window("2025-01-01", 120)
    null_hits = 0
    for s in range(500):
        _, _, report = run_experiment(window, 1000.0, 30.0, 0.0,
                                      split_seed=2 * s, traffic_seed=2 * s + 1)
        if report.period("AA").p <= 0.05:
            null_hits += 1
    rate = null_hits / 500
    assert 0.03 <= rate <= 0.07  # 5% +- 2%

    power_hits = 0
    for s in range(200):
        _, _, report = run_experiment(window, 1000.0, 30.0, 0.11,
                                      split_seed=2 * s, traffic_seed=2 * s + 1)
        if report.period("AB").p < 0.05:
            power_hits += 1
    assert power_hits / 200 >= 0.95


def test_criterion_9_end_to_end_determinism(tmp_path):
    started = time.monotonic()
    fixture = tmp_path / "fixture"
    write_fixture(fixture)
    config = str(fixture / "config.yaml")
    trees = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        assert cli.main(["all", "--config", config,
                         "--workdir", str(workdir)]) == 0
        # report.json carries wall-clock durations and is excluded; the
        # hash-bearing MANIFEST.json files are compared
        tree = {p.relative_to(workdir): p.read_bytes()
                for p in sorted(workdir.rglob("*"))
                if p.is_file() and p.name != "report.json"}
        trees.append(tree)
    first, second = trees
    assert first.keys() == second.keys()
    for rel in first:
        assert first[rel] == second[rel], f"artifact differs: {rel}"
    assert time.monotonic() - started < 600.0  # two runs, 10 minute budget
