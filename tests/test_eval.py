"""Confusion/metric arithmetic and the two experiment sweeps."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from rfsentry.errors import EmptyInput, EmptyMatrix, LengthMismatch, ZeroPowerSignal
from rfsentry.evaluate import (
    ConfusionMatrix,
    SweepRow,
    SweepTable,
    best_k,
    confusion,
    metrics,
    render_snr_svg,
    save_confusion_csv,
    save_metrics_csv,
    save_neighbors_csv,
    save_snr_csv,
    sweep_neighbors,
    sweep_snr,
)
from rfsentry.features import FeatureTable, fingerprint
from rfsentry.lof import Label, fit
from rfsentry.signals import SignalClass, TriggerConfig, add_awgn
from rfsentry.synth import balanced_indices, build_corpus, clean_eval_signals

from .conftest import table_from_signals

REC, UAV = SignalClass.RECOGNIZED, SignalClass.UAV
IN, OUT = Label.INLIER, Label.OUTLIER


# -- confusion tallies --------------------------------------------------------


def test_confusion_all_caught():
    cm = confusion([UAV] * 10, [OUT] * 10)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (10, 0, 0, 0)
    assert cm.total == 10


def test_confusion_mixed_hand_tally():
    truth = [UAV, REC, UAV, REC, UAV, UAV, REC, REC]
    pred = [OUT, IN, IN, OUT, OUT, OUT, IN, IN]
    cm = confusion(truth, pred)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 3, 1, 1)


def test_confusion_validation():
    with pytest.raises(LengthMismatch):
        confusion([UAV], [OUT, OUT])
    with pytest.raises(EmptyInput):
        confusion([], [])


# -- metrics ------------------------------------------------------------------


def test_metrics_perfect():
    m = metrics(ConfusionMatrix(tp=5, tn=5, fp=0, fn=0))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)
    assert not m.degenerate


def test_metrics_hand_example():
    m = metrics(ConfusionMatrix(tp=40, tn=30, fp=20, fn=10))
    assert m.accuracy == pytest.approx(0.7, abs=1e-12)
    assert m.precision == pytest.approx(2 / 3, abs=1e-12)
    assert m.recall == pytest.approx(0.8, abs=1e-12)
    assert m.f1 == pytest.approx(8 / 11, abs=1e-12)
    assert not m.degenerate


def test_metrics_degenerate_no_positives_anywhere():
    m = metrics(ConfusionMatrix(tp=0, tn=4, fp=0, fn=0))
    assert m.accuracy == 1.0
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
    assert m.degenerate


def test_metrics_degenerate_no_positive_truth():
    m = metrics(ConfusionMatrix(tp=0, tn=2, fp=2, fn=0))
    assert m.accuracy == 0.5
    assert m.precision == 0.0  # 0/2, well-defined
    assert m.recall == 0.0
    assert m.degenerate  # recall had a 0/0


def test_metrics_empty_matrix():
    with pytest.raises(EmptyMatrix):
        metrics(ConfusionMatrix(tp=0, tn=0, fp=0, fn=0))


def test_metrics_identities_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
        cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        if cm.total == 0:
            continue
        m = metrics(cm)
        assert abs(m.accuracy * cm.total - (tp + tn)) < 1e-9
        if m.precision > 0 and m.recall > 0:
            harmonic = 2 / (1 / m.precision + 1 / m.recall)
            assert abs(m.f1 - harmonic) < 1e-12
        assert 0.0 <= m.accuracy <= 1.0


# -- neighbor sweep -----------------------------------------------------------


def _toy_tables():
    """Well-separated 4-D clusters: recognized at origin, UAV far away."""
    rng = np.random.default_rng(23)
    train = FeatureTable(
        device_ids=["dev"] * 40,
        classes=[REC] * 40,
        snr_db=[None] * 40,
        matrix=rng.normal(0.0, 1.0, (40, 4)),
    )

    def holdout(n_in, n_out, shift):
        inliers = rng.normal(0.0, 1.0, (n_in, 4))
        outliers = rng.normal(shift, 1.0, (n_out, 4))
        return FeatureTable(
            device_ids=["dev"] * (n_in + n_out),
            classes=[REC] * n_in + [UAV] * n_out,
            snr_db=[None] * (n_in + n_out),
            matrix=np.vstack([inliers, outliers]),
        )

    return train, holdout(10, 10, 60.0), holdout(12, 12, 60.0)


def test_sweep_neighbors_sorted_rows_and_accuracy():
    train, validation, test = _toy_tables()
    # threshold 2 keeps tiny-k density noise out of the way; the far cluster
    # scores orders of magnitude above it either way
    table = sweep_neighbors(train, validation, test, k_grid=[7, 3, 5], threshold=2.0)
    assert [r.k for r in table.rows] == [3, 5, 7]
    for row in table.rows:
        assert row.snr_db is None
        assert row.validation_accuracy == 1.0
        assert row.test_accuracy == 1.0


def test_sweep_neighbors_empty_grid():
    train, validation, test = _toy_tables()
    with pytest.raises(ValueError):
        sweep_neighbors(train, validation, test, k_grid=[])


def test_best_k_ties_take_smaller_k():
    table = SweepTable(rows=(
        SweepRow(None, 10, 0.90, 0.9),
        SweepRow(None, 30, 0.95, 0.9),
        SweepRow(None, 20, 0.95, 0.9),
    ))
    assert best_k(table) == 20


def test_best_k_needs_validation_column():
    table = SweepTable(rows=(SweepRow(12.0, 10, None, 0.9),))
    with pytest.raises(ValueError):
        best_k(table)


def test_accuracy_at_missing_cell():
    table = SweepTable(rows=(SweepRow(12.0, 10, None, 0.9),))
    assert table.accuracy_at(12.0, 10) == 0.9
    with pytest.raises(KeyError):
        table.accuracy_at(14.0, 10)


# -- SNR sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_sweep_parts(mini_cfg):
    trigger = TriggerConfig(capture_len=mini_cfg.capture_len)
    train, evaluation = build_corpus(mini_cfg)
    train_table = table_from_signals(train, trigger)
    clean = clean_eval_signals(mini_cfg)
    labels = [s.signal_class for s in evaluation]
    idx = balanced_indices(labels, per_class=10, seed=77)
    balanced_clean = [clean[i] for i in idx]
    balanced_stored = [evaluation[i] for i in idx]
    return mini_cfg, trigger, train_table, balanced_clean, balanced_stored


def test_sweep_snr_training_cell_matches_direct_scoring(mini_sweep_parts):
    """The 30 dB sweep cell must reproduce scoring of the stored corpus."""
    cfg, trigger, train_table, balanced_clean, balanced_stored = mini_sweep_parts
    table = sweep_snr(train_table, balanced_clean, k_grid=[5],
                      snr_grid=[cfg.snr_db], trigger=trigger)
    model = fit(train_table.matrix, k=5)
    stored_table = table_from_signals(balanced_stored, trigger)
    preds = model.classify_batch(stored_table.matrix)
    direct = metrics(confusion(stored_table.classes, preds)).accuracy
    assert table.accuracy_at(float(cfg.snr_db), 5) == direct


def test_sweep_snr_cells_never_stack_noise(mini_sweep_parts):
    # adding more grid points must not perturb an existing cell
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    lone = sweep_snr(train_table, balanced_clean, [5], [cfg.snr_db], trigger)
    stacked = sweep_snr(train_table, balanced_clean, [5], [10.0, cfg.snr_db], trigger)
    assert stacked.accuracy_at(float(cfg.snr_db), 5) == lone.accuracy_at(
        float(cfg.snr_db), 5
    )
    assert [r.snr_db for r in stacked.rows] == [10.0, 30.0]


def test_sweep_snr_constant_outlier_scores_half_on_balanced_set(mini_sweep_parts):
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    table = sweep_snr(train_table, balanced_clean, [5], [cfg.snr_db], trigger,
                      threshold=0.0)  # every score exceeds 0 -> all flagged
    assert table.accuracy_at(float(cfg.snr_db), 5) == 0.5


def test_sweep_snr_parallel_matches_serial(mini_sweep_parts):
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    serial = sweep_snr(train_table, balanced_clean, [5], [14.0, cfg.snr_db], trigger)
    parallel = sweep_snr(train_table, balanced_clean, [5], [14.0, cfg.snr_db],
                         trigger, jobs=2)
    assert serial == parallel


def test_sweep_snr_identical_for_any_burst_chunking(mini_sweep_parts):
    # 20 bursts split into chunks of 10/10 and 6/7/7: every burst's noise is
    # drawn in its own worker, so the chunking must not show in the table
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    assert len(balanced_clean) % 3 != 0
    tables = [
        sweep_snr(train_table, balanced_clean, [3, 5], [6.0, 14.0, cfg.snr_db], trigger,
                  jobs=jobs)
        for jobs in (1, 2, 3)
    ]
    assert tables[0] == tables[1] == tables[2]


def test_sweep_snr_rejects_bad_inputs_on_the_noise_path(mini_sweep_parts):
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sweep_snr(train_table, balanced_clean, [5], [30.0], trigger, jobs=0)
    silent = replace(balanced_clean[0][0], samples=np.zeros(len(balanced_clean[0][0])))
    with pytest.raises(ZeroPowerSignal):
        sweep_snr(train_table, [(silent, 1)] + balanced_clean[1:], [5], [30.0], trigger)


def _accuracy_by_refit(train_table, matrix, truth, k, metric):
    """One separate fit and score_batch per cell, the loop the sweeps replaced."""
    model = fit(train_table.matrix, k=k, metric=metric)
    labels = model.labels(model.score_batch(matrix))
    return metrics(confusion(truth, labels)).accuracy


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_sweeps_share_tables_without_changing_cells(mini_sweep_parts, metric):
    cfg, trigger, train_table, balanced_clean, balanced_stored = mini_sweep_parts
    ks = [2, 3, 5, 8, 13]
    stored = table_from_signals(balanced_stored, trigger)
    validation, test = stored.select(range(0, 20, 2)), stored.select(range(1, 20, 2))
    swept = sweep_neighbors(train_table, validation, test, ks, metric=metric)
    assert swept == SweepTable(rows=tuple(
        SweepRow(None, k,
                 _accuracy_by_refit(train_table, validation.matrix,
                                    validation.classes, k, metric),
                 _accuracy_by_refit(train_table, test.matrix, test.classes, k, metric))
        for k in ks
    ))

    snrs = [8.0, 18.0, float(cfg.snr_db)]
    swept = sweep_snr(train_table, balanced_clean, ks, snrs, trigger, metric=metric)
    truth = [sig.signal_class for sig, _ in balanced_clean]
    expected = []
    for snr in snrs:
        matrix = np.array([fingerprint(add_awgn(sig, snr, seed), trigger)
                           for sig, seed in balanced_clean])
        expected += [SweepRow(snr, k, None,
                              _accuracy_by_refit(train_table, matrix, truth, k, metric))
                     for k in ks]
    assert swept == SweepTable(rows=tuple(expected))


def test_sweep_snr_validation(mini_sweep_parts):
    cfg, trigger, train_table, balanced_clean, _ = mini_sweep_parts
    with pytest.raises(ValueError):
        sweep_snr(train_table, balanced_clean, [], [30.0], trigger)
    with pytest.raises(ValueError):
        sweep_snr(train_table, balanced_clean, [5], [], trigger)
    with pytest.raises(EmptyInput):
        sweep_snr(train_table, [], [5], [30.0], trigger)


# -- report files -------------------------------------------------------------


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_save_confusion_csv(tmp_path):
    path = tmp_path / "confusion.csv"
    save_confusion_csv(ConfusionMatrix(tp=3, tn=2, fp=1, fn=4), path)
    assert read_rows(path) == [["tp", "fp", "fn", "tn"], ["3", "1", "4", "2"]]


def test_save_metrics_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    m = metrics(ConfusionMatrix(tp=40, tn=30, fp=20, fn=10))
    save_metrics_csv(m, path)
    header, row = read_rows(path)
    assert header == ["accuracy", "precision", "recall", "f1", "degenerate"]
    assert float(row[0]) == m.accuracy
    assert float(row[1]) == m.precision  # repr round-trips exactly
    assert float(row[3]) == m.f1
    assert row[4] == "0"


def test_save_neighbors_csv(tmp_path):
    table = SweepTable(rows=(SweepRow(None, 10, 0.925, 0.9375),))
    path = tmp_path / "neighbors.csv"
    save_neighbors_csv(table, path)
    assert read_rows(path) == [["k", "val_acc", "test_acc"],
                               ["10", "0.925", "0.9375"]]


def test_save_snr_csv(tmp_path):
    table = SweepTable(rows=(
        SweepRow(6.0, 100, None, 0.65),
        SweepRow(6.0, 200, None, 0.7),
    ))
    path = tmp_path / "snr.csv"
    save_snr_csv(table, path)
    rows = read_rows(path)
    assert rows[0] == ["snr_db", "k", "accuracy"]
    assert [r[1] for r in rows[1:]] == ["100", "200"]
    assert math.isclose(float(rows[1][2]), 0.65)


def test_render_snr_svg(tmp_path):
    rows = []
    for k in (100, 150, 200):
        for snr in (6.0, 18.0, 30.0):
            rows.append(SweepRow(snr, k, None, 0.5 + snr / 100 + k / 2000))
    path = tmp_path / "sweep.svg"
    render_snr_svg(SweepTable(rows=tuple(rows)), path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 3
    assert "SNR (dB)" in text and "accuracy" in text
    assert "k=100" in text and "k=200" in text


def test_render_snr_svg_rejects_neighbor_sweeps(tmp_path):
    table = SweepTable(rows=(SweepRow(None, 10, 0.9, 0.9),))
    with pytest.raises(ValueError):
        render_snr_svg(table, tmp_path / "bad.svg")
