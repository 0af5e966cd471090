"""Acceptance gate: ten numbered pass/fail checks at fixed tolerances.

The directional checks (criteria 8-10) run on one standard synthetic
configuration: a 7x200-paragraph training corpus (seed 21), a held-out
evaluation corpus of the same shape (seed 22), and pipelines trained at
seed 42. Oracle checks (criteria 1-6) are self-contained and enforce
their own runtime bounds.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from riskdomains.classify import calibrate, classify_batch
from riskdomains.cli import main
from riskdomains.corpus import (
    default_synthetic_config,
    generate_synthetic_corpus,
)
from riskdomains.domains import Domain
from riskdomains.errors import DataError
from riskdomains.evaluation import (
    PredictionRecord,
    build_report,
    fleiss_kappa,
    multi_kappa,
)
from riskdomains.networks import (
    init_mlp,
    init_rbf,
    kmeans,
    mlp_loss_and_grads,
    one_hot,
    rbf_loss_and_grads,
)
from riskdomains.pipeline import PipelineOptions, train_pipeline
from riskdomains.vectorspace import fit_svd, fit_tfidf, project_all, vectorize_all
from sparse_rows import as_csr

STANDARD_COUNTS = dict(
    paragraphs_per_domain=200, multilabel_per_domain=30, other_paragraphs=100
)
TRAIN_CORPUS_SEED = 21
EVAL_CORPUS_SEED = 22
MODEL_SEED = 42


@pytest.fixture(scope="module")
def standard_train():
    config = default_synthetic_config(**STANDARD_COUNTS)
    return generate_synthetic_corpus(config, seed=TRAIN_CORPUS_SEED)


@pytest.fixture(scope="module")
def standard_eval():
    config = default_synthetic_config(**STANDARD_COUNTS)
    return generate_synthetic_corpus(config, seed=EVAL_CORPUS_SEED)


@pytest.fixture(scope="module")
def models(standard_train):
    paragraphs, _, lexicon = standard_train
    variants = {
        "mlp": PipelineOptions(kind="mlp", seed=MODEL_SEED),
        "rbf": PipelineOptions(kind="rbf", seed=MODEL_SEED),
        "cosine": PipelineOptions(kind="cosine", seed=MODEL_SEED),
        "mlp_nomwe": PipelineOptions(kind="mlp", seed=MODEL_SEED, use_mwes=False),
        "rbf_nomwe": PipelineOptions(kind="rbf", seed=MODEL_SEED, use_mwes=False),
    }
    return {
        name: train_pipeline(paragraphs, lexicon, options)
        for name, options in variants.items()
    }


@pytest.fixture(scope="module")
def f1_scores(models, standard_eval):
    paragraphs, gold, _ = standard_eval
    gold_map = {g.paragraph.id: g.labels for g in gold}
    texts = [p.text for p in paragraphs]
    scores = {}
    for name, trained in models.items():
        labels, _ = classify_batch(trained.pipeline, texts)
        records = [
            PredictionRecord(
                id=p.id, predicted=tuple(assigned), gold=gold_map[p.id]
            )
            for p, assigned in zip(paragraphs, labels)
        ]
        scores[name] = build_report(records).f1
    return scores


# --------------------------------------------------------------------------
# 1. TF-IDF oracle equivalence
# --------------------------------------------------------------------------

def brute_force_weights(docs, doc):
    terms = sorted({t for d in docs for t in d})
    n = len(docs)
    weights = []
    for t in terms:
        df = sum(1 for d in docs if t in d)
        idf = math.log((1 + n) / (1 + df)) + 1
        weights.append(doc.get(t, 0) * idf)
    norm = math.sqrt(sum(w * w for w in weights))
    if norm == 0.0:
        return np.zeros(len(terms))
    return np.array([w / norm for w in weights])


def test_criterion_01_tfidf_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    pool = [f"term{i:02d}" for i in range(50)]
    for _ in range(50):
        n_docs = int(rng.integers(1, 21))
        docs = [
            Counter(rng.choice(pool, size=int(rng.integers(1, 15))).tolist())
            for _ in range(n_docs)
        ]
        model = fit_tfidf(docs)
        terms = sorted({t for d in docs for t in d})
        for doc in docs:
            expected = brute_force_weights(docs, doc)
            got = as_csr(vectorize_all(model, [doc])).toarray()[0]
            ordered = np.array([got[model.vocabulary.index[t]] for t in terms])
            assert np.max(np.abs(ordered - expected)) < 1e-12
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 2. SVD correctness
# --------------------------------------------------------------------------

def random_rank_r(rng, n, v, r):
    qu, _ = np.linalg.qr(rng.normal(size=(n, r)))
    qv, _ = np.linalg.qr(rng.normal(size=(v, r)))
    s = np.sort(rng.uniform(0.5, 5.0, size=r))[::-1]
    return (qu * s) @ qv.T


def test_criterion_02_svd_reconstruction_and_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    # k < min(N, V) runs ARPACK, on small shapes and on one with over 2 M
    # elements; (5, 40, 5, 5) asks for every triplet and takes the dense SVD.
    shapes = [(12, 40, 5, 8), (25, 60, 10, 12), (30, 70_000, 8, 10), (5, 40, 5, 5)]
    for n, v, r, k in shapes:
        dense = random_rank_r(rng, n, v, r)
        matrix = sp.csr_matrix(dense)
        projection = fit_svd(matrix, k=k)
        approx = project_all(projection, matrix) @ projection.components
        rel = np.linalg.norm(approx - dense) / np.linalg.norm(dense)
        assert rel < 1e-8

    projection = fit_svd(sp.identity(3, format="csr"), k=3)
    assert np.allclose(projection.singular_values, [1.0, 1.0, 1.0], atol=1e-12)
    assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------------------
# 3. Gradient checks
# --------------------------------------------------------------------------

def fd_gradient(loss_fn, array, coords, h=1e-5):
    grad = np.zeros(len(coords))
    for n, idx in enumerate(coords):
        original = array[idx]
        array[idx] = original + h
        up = loss_fn()
        array[idx] = original - h
        down = loss_fn()
        array[idx] = original
        grad[n] = (up - down) / (2 * h)
    return grad


def max_relative_error(analytic, numeric):
    denom = np.abs(analytic) + np.abs(numeric) + 1e-4
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_03_gradient_checks_both_networks():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    losses = ["cce", "bce", "mse"]
    worst = 0.0
    for config in range(10):
        loss = losses[config % 3]
        dim = int(rng.integers(5, 15))
        batch = int(rng.integers(2, 8))
        x = 0.5 * rng.normal(size=(batch, dim))
        y = one_hot(rng.integers(0, 7, size=batch))

        mlp = init_mlp(dim, rng)
        _, grads = mlp_loss_and_grads(mlp, x, y, kind=loss)
        for name, array in mlp.params().items():
            flat = [tuple(i) for i in itertools.product(*map(range, array.shape))]
            picks = rng.choice(len(flat), size=min(20, len(flat)), replace=False)
            coords = [flat[i] for i in picks]
            numeric = fd_gradient(
                lambda: mlp_loss_and_grads(mlp, x, y, kind=loss)[0], array, coords
            )
            analytic = np.array([grads[name][idx] for idx in coords])
            worst = max(worst, max_relative_error(analytic, numeric))

        prototypes = rng.normal(size=(12, dim))
        rbf = init_rbf(prototypes, width=1.2, rng=rng)
        _, grads = rbf_loss_and_grads(rbf, x, y, kind=loss)
        for name, array in rbf.params().items():
            flat = [tuple(i) for i in itertools.product(*map(range, array.shape))]
            picks = rng.choice(len(flat), size=min(20, len(flat)), replace=False)
            coords = [flat[i] for i in picks]
            numeric = fd_gradient(
                lambda: rbf_loss_and_grads(rbf, x, y, kind=loss)[0], array, coords
            )
            analytic = np.array([grads[name][idx] for idx in coords])
            worst = max(worst, max_relative_error(analytic, numeric))
    assert worst < 1e-4
    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# 4. k-means inertia and exact optimum
# --------------------------------------------------------------------------

def brute_force_kmeans_sse(points, k):
    n = len(points)
    best = np.inf
    for assignment in itertools.product(range(k), repeat=n):
        if len(set(assignment)) != k:
            continue
        sse = 0.0
        for j in range(k):
            members = points[[i for i in range(n) if assignment[i] == j]]
            centroid = members.mean(axis=0)
            sse += float(((members - centroid) ** 2).sum())
        best = min(best, sse)
    return best


def test_criterion_04_kmeans_descent_and_global_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for trial in range(100):
        n = int(rng.integers(3, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(6, n) + 1))
        points = rng.normal(size=(n, d))
        history = kmeans(points, k=k, seed=trial).history
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    # Two groups of six points, 100 units apart: 12 points total, so the
    # brute force enumerates every 2-partition.
    offsets = rng.normal(size=(6, 2))
    points = np.vstack([offsets, offsets + 100.0])
    result = kmeans(points, k=2, seed=0)
    assert result.inertia == pytest.approx(
        brute_force_kmeans_sse(points, 2), abs=1e-9
    )
    assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------------------
# 5. Threshold formula and monotonicity
# --------------------------------------------------------------------------

def test_criterion_05_threshold_value_and_monotonicity():
    scores = np.tile(np.array([[0.2], [0.4], [0.6]]), (1, 7))
    thresholds = calibrate(scores, alpha=1.2)
    assert thresholds.thresholds[0] == pytest.approx(0.595959, abs=1e-6)

    rng = np.random.default_rng(105)
    for _ in range(20):
        table = rng.random((int(rng.integers(5, 40)), 7))
        previous = None
        for alpha in (0.0, 0.4, 0.8, 1.2, 1.6, 2.0):
            t = calibrate(table, alpha=alpha)
            qualifying = int((table >= t.thresholds).sum())
            if previous is not None:
                assert qualifying <= previous
            previous = qualifying


# --------------------------------------------------------------------------
# 6. Kappa oracles
# --------------------------------------------------------------------------

def pairwise_p_obs(items):
    n_raters = len(items[0])
    n_pairs = n_raters * (n_raters - 1) / 2
    total = 0.0
    for ratings in items:
        agree = sum(
            ratings[a] == ratings[b]
            for a in range(n_raters)
            for b in range(a + 1, n_raters)
        )
        total += agree / n_pairs
    return total / len(items)


def brute_force_fleiss(items):
    all_ratings = [r for ratings in items for r in ratings]
    p_exp = sum(
        (all_ratings.count(c) / len(all_ratings)) ** 2 for c in set(all_ratings)
    )
    p_obs = pairwise_p_obs(items)
    return (p_obs - p_exp) / (1.0 - p_exp)


def brute_force_multi(items):
    n_items = len(items)
    n_raters = len(items[0])
    categories = {r for ratings in items for r in ratings}
    pair_exps = []
    for a in range(n_raters):
        for b in range(a + 1, n_raters):
            exp = 0.0
            for c in categories:
                pa = sum(ratings[a] == c for ratings in items) / n_items
                pb = sum(ratings[b] == c for ratings in items) / n_items
                exp += pa * pb
            pair_exps.append(exp)
    p_exp = sum(pair_exps) / len(pair_exps)
    p_obs = pairwise_p_obs(items)
    return (p_obs - p_exp) / (1.0 - p_exp)


def test_criterion_06_kappa_oracles_and_edge_cases():
    rng = random.Random(106)
    checked = 0
    while checked < 100:
        n_items = rng.randint(2, 15)
        n_raters = rng.randint(2, 5)
        n_cats = rng.randint(2, 4)
        items = [
            [rng.randrange(n_cats) for _ in range(n_raters)] for _ in range(n_items)
        ]
        if len({r for ratings in items for r in ratings}) < 2:
            continue
        assert fleiss_kappa(items) == pytest.approx(
            brute_force_fleiss(items), abs=1e-12
        )
        assert multi_kappa(items) == pytest.approx(
            brute_force_multi(items), abs=1e-12
        )
        checked += 1

    perfect = [["A", "A", "A"], ["B", "B", "B"]]
    assert fleiss_kappa(perfect) == 1.0
    assert multi_kappa(perfect) == 1.0

    degenerate = [["A", "A"], ["A", "A"]]
    with pytest.raises(DataError):
        fleiss_kappa(degenerate)
    with pytest.raises(DataError):
        multi_kappa(degenerate)


# --------------------------------------------------------------------------
# 7. Determinism and end-to-end runtime
# --------------------------------------------------------------------------

def dir_bytes(directory):
    directory = Path(directory)
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_criterion_07_byte_identical_bundles_and_pipeline_runtime(
    tmp_path, capsys
):
    data = tmp_path / "data"
    assert main([
        "synth", "--seed", "5", "--out", str(data),
        "--paragraphs-per-domain", "60",
        "--multilabel-per-domain", "9",
        "--other-paragraphs", "30",
    ]) == 0
    for kind in ("mlp", "rbf"):
        base = [
            "train", "--kind", kind, "--seed", "11",
            "--corpus", str(data / "corpus.jsonl"),
            "--lexicon", str(data / "lexicon.json"),
        ]
        assert main(base + ["--out", str(tmp_path / f"{kind}-a")]) == 0
        assert main(base + ["--out", str(tmp_path / f"{kind}-b")]) == 0
        assert dir_bytes(tmp_path / f"{kind}-a") == dir_bytes(tmp_path / f"{kind}-b")

    start = time.perf_counter()
    full = tmp_path / "full"
    assert main([
        "synth", "--seed", "7", "--out", str(full),
        "--paragraphs-per-domain", "200",
        "--multilabel-per-domain", "30",
        "--other-paragraphs", "100",
    ]) == 0
    assert main([
        "train", "--kind", "mlp", "--seed", "11",
        "--corpus", str(full / "corpus.jsonl"),
        "--lexicon", str(full / "lexicon.json"),
        "--out", str(full / "bundle"),
    ]) == 0
    assert main([
        "classify", "--bundle", str(full / "bundle"),
        "--corpus", str(full / "corpus.jsonl"),
        "--out", str(full / "predictions.jsonl"),
    ]) == 0
    assert main([
        "evaluate", "--predictions", str(full / "predictions.jsonl"),
        "--gold", str(full / "gold.jsonl"),
        "--out", str(full / "metrics"),
    ]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    report = json.loads((full / "metrics.json").read_text())
    assert report["n_paragraphs"] == 7 * 200 + 100
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# 8-10. Directional behavior on the standard synthetic configuration
# --------------------------------------------------------------------------

def test_criterion_08_mwe_fusion_lifts_f1(f1_scores):
    assert f1_scores["mlp"] - f1_scores["mlp_nomwe"] >= 0.05
    assert f1_scores["rbf"] - f1_scores["rbf_nomwe"] >= 0.05


def test_criterion_09_trained_models_meet_or_beat_cosine(f1_scores):
    assert f1_scores["mlp"] >= f1_scores["cosine"]
    assert f1_scores["rbf"] >= f1_scores["cosine"]


def test_criterion_10_noise_paragraphs_fall_to_other(models, standard_eval):
    paragraphs, gold, _ = standard_eval
    gold_map = {g.paragraph.id: g.labels for g in gold}
    noise = [p for p in paragraphs if gold_map[p.id] == (Domain.OTHER,)]
    assert len(noise) == STANDARD_COUNTS["other_paragraphs"]
    texts = [p.text for p in noise]
    for name in ("mlp", "rbf", "cosine"):
        labels, _ = classify_batch(models[name].pipeline, texts)
        share = sum(assigned == [Domain.OTHER] for assigned in labels) / len(noise)
        assert share >= 0.90, f"{name} rejected only {share:.2%} of noise"
