"""Acceptance gate: one test per shipping criterion.

Each test is independently meaningful and pins its own tolerance; the suite
covers oracle equivalence for the hand-written numerics (criteria 1-4),
end-to-end detection quality and the two experiment trends on the seeded
synthetic corpus (5-7), the semi-supervised and determinism contracts (8-9),
feature-level invariants (10), and the reason the fingerprint is the four
packet variances (11): ranked by spread across the default corpus, at least
three of them are in the top 8 of the 44 per-packet statistics of
``tests/oracles.py``.
"""

import subprocess
import sys
import time
from statistics import mean

import numpy as np
import pytest

from rfsentry.evaluate import ConfusionMatrix, accuracy_grid, confusion, metrics
from rfsentry.features import FeatureTable, sample_variance, save_feature_csv, snr_fingerprints
from rfsentry.lof import fit, fit_grid
from rfsentry.seeding import stage_seed
from rfsentry.signals import SignalClass, extract_transient
from rfsentry.synth import (
    CorpusConfig,
    balanced_eval_plan,
    build_corpus,
    default_profiles,
    stratified_split_indices,
)
from rfsentry.wpt import packet_coefficients

from .conftest import table_from_signals
from .oracles import (
    PACKET_ORDER,
    VARIANCE_COLUMNS,
    brute_lof_scores,
    energy_entropy,
    matrix_packets,
    rank_features,
    stats_row,
)

SNR_GRID = [10.0, 12.0, 14.0, 16.0, 24.0, 26.0, 28.0, 30.0]
LOW_SNRS, HIGH_SNRS = SNR_GRID[:4], SNR_GRID[4:]


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rfsentry", *(str(a) for a in args)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def snr_trend(default_corpus, default_trigger):
    """Balanced-set SNR sweeps (k in {100, 200}) for three corpus seeds.

    Each seed maps to its ``{(snr_db, k): accuracy}`` cells.
    """
    tables = {}
    for seed in (0, 1, 2):
        if seed == 0:
            cfg, train_signals, _ = default_corpus
        else:
            cfg = CorpusConfig(
                profiles=default_profiles(), master_seed=stage_seed(seed, "corpus")
            )
            train_signals, _ = build_corpus(cfg)
        train_table = table_from_signals(train_signals, default_trigger)
        ks = [100, 200]
        plan = balanced_eval_plan(cfg, 200)
        truth = [profile.signal_class for profile, _ in plan]
        acc = accuracy_grid(fit_grid(train_table.matrix, ks),
                            [(matrix, truth) for matrix in snr_fingerprints(cfg, plan, SNR_GRID)])
        tables[seed] = {(snr, k): acc[i, j]
                        for i, snr in enumerate(SNR_GRID) for j, k in enumerate(ks)}
    return tables


def test_c01_parseval_invariant_holds_on_1000_random_signals():
    # packet energy == input energy within 1e-9 relative; under 5 s
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        n = 4 * int(rng.integers(1, 1025))
        x = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-2.0, 2.0)
        energy_in = float(x @ x)
        p = packet_coefficients(x)
        assert abs(np.sum(p * p) - energy_in) <= 1e-9 * energy_in
    assert time.perf_counter() - start < 5.0


def test_c02_wpt_matches_explicit_basis_matrix():
    rng = np.random.default_rng(202)
    for n in (8, 16):
        for _ in range(100):
            x = rng.normal(0.0, 2.0, n)
            got = packet_coefficients(x)
            want = matrix_packets(x)
            for name, packet in zip(PACKET_ORDER, got):
                assert np.max(np.abs(packet - want[name])) <= 1e-12


def test_c03_lof_matches_brute_force_definition():
    # 50 random sets, k cycling {2,5,10}, both metrics; 1e-9 relative; < 10 s
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for trial in range(50):
        n = int(rng.integers(15, 51))
        d = int(rng.integers(2, 5))
        train = rng.normal(0.0, 1.0, (n, d))
        queries = np.vstack(
            [rng.normal(0.0, 1.0, (4, d)), rng.normal(3.0, 1.0, (4, d))]
        )
        k = (2, 5, 10)[trial % 3]
        metric = ("manhattan", "euclidean")[trial % 2]
        got = fit(train, k=k, metric=metric, standardize=False).score_batch(queries)
        want = brute_lof_scores(train, queries, k, metric)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-9 * abs(w)
    assert time.perf_counter() - start < 10.0


def test_c04_metric_arithmetic():
    m = metrics(ConfusionMatrix(tp=40, tn=30, fp=20, fn=10))
    assert abs(m.accuracy - 0.7) <= 1e-6
    assert abs(m.precision - 0.666667) <= 1e-6
    assert abs(m.recall - 0.8) <= 1e-6
    assert abs(m.f1 - 0.727273) <= 1e-6
    perfect = metrics(ConfusionMatrix(tp=7, tn=5, fp=0, fn=0))
    assert (perfect.accuracy, perfect.precision, perfect.recall, perfect.f1) == (
        1.0, 1.0, 1.0, 1.0,
    )


def test_c05_end_to_end_detection_at_training_snr(default_trigger):
    # full seeded pipeline, k=100, threshold 1.5 -> test accuracy >= 0.90
    start = time.perf_counter()
    cfg = CorpusConfig(profiles=default_profiles(), master_seed=stage_seed(0, "corpus"))
    train, evaluation = build_corpus(cfg)
    train_table = table_from_signals(train, default_trigger)
    eval_table = table_from_signals(evaluation, default_trigger)
    model = fit(train_table.matrix, k=100, threshold=1.5)
    test_idx, _ = stratified_split_indices(
        eval_table.classes, 0.7, stage_seed(0, "split")
    )
    test = eval_table.select(test_idx)
    accuracy = metrics(confusion(test.classes, model.outliers(model.score_batch(test.matrix)))).accuracy
    elapsed = time.perf_counter() - start
    assert accuracy >= 0.90
    assert elapsed < 120.0


def test_c06_accuracy_degrades_at_low_snr(snr_trend):
    # k=100: mean accuracy over 24-30 dB beats 10-16 dB by >= 0.05,
    # averaged across the three corpus seeds
    gaps = []
    for cells in snr_trend.values():
        high = mean(cells[(s, 100)] for s in HIGH_SNRS)
        low = mean(cells[(s, 100)] for s in LOW_SNRS)
        gaps.append(high - low)
    assert mean(gaps) >= 0.05


def test_c07_more_neighbors_help_at_low_snr(snr_trend):
    # at 12 dB, k=200 >= k=100 in at least 2 of 3 seeds
    wins = sum(
        1
        for cells in snr_trend.values()
        if cells[(12.0, 200)] >= cells[(12.0, 100)]
    )
    assert wins >= 2


def test_c08_training_rejects_uav_rows(default_corpus, tmp_path):
    # the protocol itself never feeds UAV bursts to fit
    _, train_signals, _ = default_corpus
    assert all(s.signal_class is SignalClass.RECOGNIZED for s in train_signals)

    # and the train command refuses any UAV-labeled feature row
    rng = np.random.default_rng(88)
    recognized = [
        ("dev", SignalClass.RECOGNIZED, 30.0, rng.uniform(1.0, 2.0, 4))
        for _ in range(12)
    ]
    clean_csv = tmp_path / "recognized.csv"
    save_feature_csv(FeatureTable.from_rows(recognized), clean_csv)
    ok = run_cli("train", "--features", clean_csv,
                 "--out", tmp_path / "model.json", "--k", 5)
    assert ok.returncode == 0, ok.stderr

    tainted = recognized + [
        ("drone", SignalClass.UAV, 30.0, rng.uniform(5.0, 6.0, 4))
    ]
    tainted_csv = tmp_path / "tainted.csv"
    save_feature_csv(FeatureTable.from_rows(tainted), tainted_csv)
    bad = run_cli("train", "--features", tainted_csv,
                  "--out", tmp_path / "rejected.json", "--k", 5)
    assert bad.returncode != 0
    assert not (tmp_path / "rejected.json").exists()


def test_c09_cli_pipeline_reproduces_byte_identical_outputs(tmp_path):
    def produce(root):
        corpus = root / "corpus"
        report = root / "report"
        steps = [
            ["synth", "--out", corpus, "--seed", 3, "--snr", 30,
             "--capture-len", 1024, "--signals-per-device", 30],
            ["extract", "--manifest", corpus / "train_manifest.csv",
             "--out", root / "train.csv", "--capture-len", 1024],
            ["extract", "--manifest", corpus / "eval_manifest.csv",
             "--out", root / "eval.csv", "--capture-len", 1024],
            ["train", "--features", root / "train.csv",
             "--out", root / "model.json", "--k", 20],
            ["eval", "--model", root / "model.json",
             "--features", root / "eval.csv", "--out", report],
        ]
        for step in steps:
            result = run_cli(*step)
            assert result.returncode == 0, result.stderr
        return [
            corpus / "train_manifest.csv", corpus / "eval_manifest.csv",
            root / "train.csv", root / "eval.csv", root / "model.json",
            report / "confusion.csv", report / "metrics.csv",
        ]

    first = produce(tmp_path / "run1")
    second = produce(tmp_path / "run2")
    for f1, f2 in zip(first, second):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_c10_feature_invariants():
    rng = np.random.default_rng(1010)
    for _ in range(25):
        x = rng.normal(0.0, 3.0, int(rng.integers(2, 64)))
        base = sample_variance(x)
        assert abs(sample_variance(x + 100.0) - base) <= 1e-9 * max(base, 1.0)
        alpha = 3.7
        assert abs(sample_variance(alpha * x) - alpha**2 * base) <= 1e-9 * alpha**2 * base

    spike = np.zeros(16)
    spike[5] = 4.25
    assert abs(energy_entropy(spike) - 0.0) <= 1e-12
    for n in (4, 16, 64):
        uniform = 0.7 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        assert abs(energy_entropy(uniform) - np.log2(n)) <= 1e-12


def test_c11_variance_columns_rank_in_top_eight(default_corpus, default_trigger):
    cfg, train, evaluation = default_corpus
    rows = [
        stats_row(packet_coefficients(extract_transient(s, default_trigger)))
        for s in train + evaluation
    ]
    ranking = rank_features(np.array(rows))
    top8 = set(ranking[:8])
    assert sum(1 for c in VARIANCE_COLUMNS if c in top8) >= 3
