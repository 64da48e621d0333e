"""Detector evaluation: confusion counts, metrics, and experiment sweeps.

The positive class is the UAV/outlier class throughout. Two sweep harnesses
cover the standard experiments: accuracy vs neighbor count at the training
SNR, and accuracy vs SNR for a model trained once at the training SNR and
never re-fitted.

Both sweeps do the work that no grid value changes once. They fit their
whole k grid with one ``lof.fit_grid`` call and score each query set for
every k with one ``lof.score_grid`` call, so each distance table is built
once. The SNR sweep runs burst by burst: a burst's unit noise is drawn and
its power taken once, then scaled to every grid SNR before fingerprinting;
``seeding.map_chunks`` spreads the bursts over the worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyInput, EmptyMatrix, LengthMismatch
from .features import FeatureTable, fingerprint
from .lof import Label, LofModel, Metric, fit_grid, score_grid
from .seeding import map_chunks
from .signals import (
    Signal,
    SignalClass,
    TriggerConfig,
    _fmt,
    _scaled_noise,
    _write_csv,
    mean_power,
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def confusion(truth: list[SignalClass], pred: list[Label]) -> ConfusionMatrix:
    """Count outcomes with UAV/outlier as the positive class."""
    if len(truth) != len(pred):
        raise LengthMismatch(f"{len(truth)} truth labels vs {len(pred)} predictions")
    if not truth:
        raise EmptyInput("cannot tally an empty prediction set")
    tp = tn = fp = fn = 0
    for t, p in zip(truth, pred):
        positive_truth = t is SignalClass.UAV
        positive_pred = p is Label.OUTLIER
        if positive_truth and positive_pred:
            tp += 1
        elif positive_truth:
            fn += 1
        elif positive_pred:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall, F1.

    A zero denominator (e.g. no positive predictions) yields 0 for that
    metric and sets the degenerate flag instead of producing NaN.
    """
    if cm.total == 0:
        raise EmptyMatrix("metrics are undefined for an empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    degenerate = False
    if cm.tp + cm.fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0.0:
        f1, degenerate = 0.0, True
    else:
        f1 = 2.0 * (precision * recall) / (precision + recall)
    return Metrics(accuracy=accuracy, precision=precision, recall=recall, f1=f1,
                   degenerate=degenerate)


@dataclass(frozen=True)
class SweepRow:
    snr_db: float | None
    k: int
    validation_accuracy: float | None
    test_accuracy: float


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def accuracy_at(self, snr_db: float | None, k: int) -> float:
        for row in self.rows:
            if row.snr_db == snr_db and row.k == k:
                return row.test_accuracy
        raise KeyError(f"no sweep cell for snr={snr_db}, k={k}")


def _accuracy(model: LofModel, scores: np.ndarray, truth: list[SignalClass]) -> float:
    return metrics(confusion(truth, model.labels(scores))).accuracy


def sweep_neighbors(
    train: FeatureTable,
    validation: FeatureTable,
    test: FeatureTable,
    k_grid: list[int],
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = 1.5,
    standardize: bool = True,
) -> SweepTable:
    """Fit one model per neighbor count; report validation and test accuracy.

    The training, validation and test distance tables are built once and
    shared by every k; each row equals a separate fit + score at that k.
    """
    if not k_grid:
        raise ValueError("k_grid must be non-empty")
    models = fit_grid(train.matrix, sorted(k_grid), metric, threshold, standardize)
    val_scores, test_scores = (score_grid(models, t.matrix) for t in (validation, test))
    rows = [
        SweepRow(
            snr_db=None,
            k=model.k,
            validation_accuracy=_accuracy(model, val, validation.classes),
            test_accuracy=_accuracy(model, tst, test.classes),
        )
        for model, val, tst in zip(models, val_scores, test_scores)
    ]
    return SweepTable(rows=tuple(rows))


def best_k(table: SweepTable) -> int:
    """Neighbor count with the highest validation accuracy (ties: smaller k)."""
    rows = [r for r in table.rows if r.validation_accuracy is not None]
    if not rows:
        raise ValueError("sweep table has no validation accuracies")
    best = max(rows, key=lambda r: (r.validation_accuracy, -r.k))
    return best.k


def _snr_fingerprints(
    balanced_clean: list[tuple[Signal, int]], snrs: list[float], trigger: TriggerConfig
) -> list[np.ndarray]:
    """Each burst's (len(snrs), 4) fingerprints, one row per grid SNR.

    The noise seed does not depend on the SNR, so each burst's unit noise is
    drawn and its power taken once, and only the scale changes per SNR.
    """
    out = []
    for sig, seed in balanced_clean:
        power = mean_power(sig)
        unit_noise = np.random.default_rng(seed).standard_normal(len(sig))
        out.append(np.array([fingerprint(_scaled_noise(sig, power, snr, unit_noise), trigger)
                             for snr in snrs]))
    return out


def sweep_snr(
    train: FeatureTable,
    balanced_clean: list[tuple[Signal, int]],
    k_grid: list[int],
    snr_grid: list[float],
    trigger: TriggerConfig,
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = 1.5,
    standardize: bool = True,
    jobs: int = 1,
) -> SweepTable:
    """Accuracy of the training-SNR model on re-noised evaluation signals.

    ``balanced_clean`` pairs each clean evaluation signal with its noise
    seed; every grid SNR re-noises from clean, so cells never stack noise.
    Each burst's noise is drawn once and scaled to every grid SNR. Models are
    fitted once per k on the (training-SNR) feature table, from one training
    distance table, and reused across SNR cells; each SNR matrix gets one
    distance table, shared by every k. ``jobs`` caps the worker processes,
    each fingerprinting a contiguous chunk of bursts at every SNR; the table
    is identical for any worker count.
    """
    if not k_grid or not snr_grid:
        raise ValueError("k_grid and snr_grid must be non-empty")
    if not balanced_clean:
        raise EmptyInput("balanced evaluation set is empty")
    models = fit_grid(train.matrix, sorted(k_grid), metric, threshold, standardize)
    truth = [sig.signal_class for sig, _ in balanced_clean]
    snrs = sorted(float(s) for s in snr_grid)
    per_burst = map_chunks(_snr_fingerprints, balanced_clean, jobs, snrs, trigger)
    rows = []
    for snr, matrix in zip(snrs, np.stack(per_burst, axis=1)):
        scores = score_grid(models, matrix)
        rows += [
            SweepRow(snr_db=snr, k=model.k, validation_accuracy=None,
                     test_accuracy=_accuracy(model, model_scores, truth))
            for model, model_scores in zip(models, scores)
        ]
    return SweepTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# Report files.
# ---------------------------------------------------------------------------


def save_confusion_csv(cm: ConfusionMatrix, path: str | Path) -> None:
    _write_csv(path, ["tp", "fp", "fn", "tn"], [[cm.tp, cm.fp, cm.fn, cm.tn]])


def save_metrics_csv(m: Metrics, path: str | Path) -> None:
    _write_csv(path, ["accuracy", "precision", "recall", "f1", "degenerate"],
               [[_fmt(m.accuracy), _fmt(m.precision), _fmt(m.recall), _fmt(m.f1),
                 int(m.degenerate)]])


def save_neighbors_csv(table: SweepTable, path: str | Path) -> None:
    _write_csv(path, ["k", "val_acc", "test_acc"],
               ([row.k, _fmt(row.validation_accuracy), _fmt(row.test_accuracy)]
                for row in table.rows))


def save_snr_csv(table: SweepTable, path: str | Path) -> None:
    _write_csv(path, ["snr_db", "k", "accuracy"],
               ([_fmt(row.snr_db), row.k, _fmt(row.test_accuracy)] for row in table.rows))


# ---------------------------------------------------------------------------
# Self-contained SVG line chart (accuracy vs SNR, one polyline per k).
# ---------------------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#d1495b", "#3c8d53", "#8a5ab5", "#c77f25", "#4b4b4b",
            "#17a2b8", "#a0336c")

_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 130, 24, 48


def render_snr_svg(table: SweepTable, path: str | Path) -> None:
    """Write the SNR sweep as a standalone SVG (no plotting dependency)."""
    snrs = sorted({row.snr_db for row in table.rows})
    ks = sorted({row.k for row in table.rows})
    if not snrs or snrs[0] is None:
        raise ValueError("SNR plot needs rows with snr_db set")
    x0, x1 = _MARGIN_L, _SVG_W - _MARGIN_R
    y0, y1 = _SVG_H - _MARGIN_B, _MARGIN_T
    lo, hi = min(snrs), max(snrs)
    span = hi - lo if hi > lo else 1.0

    def sx(snr: float) -> float:
        return x0 + (snr - lo) / span * (x1 - x0)

    def sy(acc: float) -> float:
        return y0 + acc * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="11" text-anchor="end" '
            f'font-family="sans-serif">{frac:.2f}</text>'
        )
    for snr in snrs:
        x = sx(snr)
        parts.append(
            f'<line x1="{x:.2f}" y1="{y0}" x2="{x:.2f}" y2="{y0 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{y0 + 18}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif">{snr:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_SVG_H - 10}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">SNR (dB)</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.2f}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(y0 + y1) / 2:.2f})">'
        f'accuracy</text>'
    )
    for i, k in enumerate(ks):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{sx(row.snr_db):.2f},{sy(row.test_accuracy):.2f}"
            for row in table.rows
            if row.k == k
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = _MARGIN_T + 16 + 18 * i
        parts.append(
            f'<line x1="{x1 + 14}" y1="{ly - 4}" x2="{x1 + 38}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{x1 + 44}" y="{ly}" font-size="11" font-family="sans-serif">'
            f'k={k}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
