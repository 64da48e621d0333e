"""Detector evaluation: confusion counts, metrics, the sweep grid and report files.

The positive class is the UAV/outlier class throughout. A
``ConfusionMatrix`` holds at least one prediction, and its metrics are
properties of its counts. Both standard experiments, accuracy vs neighbor
count and accuracy vs SNR for a fit at the training SNR, are one
``accuracy_grid`` call on the models of one ``lof.fit_grid`` call. Its
float64 grid has row i for query set i and column j for ``models[j]``: the
neighbor sweep's query sets are its validation and test rows, the SNR
sweep's the rows of ``features.snr_fingerprints``. All sets are scored,
stacked, with one ``lof.score_grid`` call, so each distance is computed once
and one thread pool serves the whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, RfSentryError
from .features import FeatureTable
from .formats import fmt, write_csv
from .lof import LofModel, score_grid
from .signals import SignalClass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome counts of at least one prediction, and the metrics they give.

    With no true positive the matrix is ``degenerate``: precision, recall
    and F1 are then 0/0 or 0, and each reads 0 instead of NaN.
    """

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if self.total == 0:
            raise RfSentryError("cannot tally an empty prediction set")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def degenerate(self) -> bool:
        return self.tp == 0

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float:
        return 0.0 if self.degenerate else self.tp / (self.tp + self.fp)

    @property
    def recall(self) -> float:
        return 0.0 if self.degenerate else self.tp / (self.tp + self.fn)

    @property
    def f1(self) -> float:
        if self.degenerate:
            return 0.0
        precision, recall = self.precision, self.recall
        return 2.0 * (precision * recall) / (precision + recall)


def confusion(truth: list[SignalClass], outlier: np.ndarray) -> ConfusionMatrix:
    """Count outcomes with UAV/outlier as the positive class.

    ``outlier`` is the boolean decision mask of ``LofModel.outliers``, one
    entry per truth label.
    """
    outlier = np.asarray(outlier)
    if outlier.shape != (len(truth),):
        raise ConfigError(f"{len(truth)} truth labels vs {outlier.size} predictions")
    if outlier.dtype != bool:  # scores passed for decisions would all count as outliers
        raise ConfigError(f"predictions must be a boolean mask, got dtype {outlier.dtype}")
    uav = np.fromiter((t is SignalClass.UAV for t in truth), dtype=bool, count=len(truth))
    tp = int(np.count_nonzero(uav & outlier))
    fn = int(np.count_nonzero(uav)) - tp
    fp = int(np.count_nonzero(outlier)) - tp
    return ConfusionMatrix(tp=tp, tn=len(truth) - tp - fn - fp, fp=fp, fn=fn)


def accuracy_grid(models: list[LofModel], queries) -> np.ndarray:
    """Accuracy of each model on each ``(matrix, truth)`` query set.

    Row i is query set i and column j is ``models[j]``, models from one
    ``fit_grid`` call. The query matrices are stacked and scored for every
    model with one ``score_grid`` call, then cut back into sets by row range.
    Every LOF quantity is per row, so each set's scores are those of its own
    call, bit for bit.
    """
    matrices, truths = zip(*queries)
    rows = {np.shape(matrix)[1:] for matrix in matrices}
    if len(rows) > 1:  # np.concatenate would raise numpy's own ValueError
        raise ConfigError(f"query sets differ in row shape: {sorted(rows)}")
    scores = score_grid(models, np.concatenate(matrices))
    bounds = np.cumsum([0, *map(len, matrices)])
    return np.array([[confusion(truth, model.outliers(row[lo:hi])).accuracy
                      for model, row in zip(models, scores)]
                     for truth, lo, hi in zip(truths, bounds, bounds[1:])], dtype=np.float64)


def best_k(ks: list[int], validation_accuracy: np.ndarray) -> int:
    """Neighbor count with the highest validation accuracy (ties: smaller k)."""
    return max(zip(validation_accuracy, ks), key=lambda cell: (cell[0], -cell[1]))[1]


# ---------------------------------------------------------------------------
# Report files.
# ---------------------------------------------------------------------------


def save_scores_csv(
    table: FeatureTable, scores: np.ndarray, outlier: np.ndarray, path: str | Path
) -> None:
    """One row per feature row: its metadata, LOF score and inlier/outlier label."""
    write_csv(path, ["device_id", "class", "snr_db", "score", "label"],
              ([device_id, cls.value, fmt(snr), fmt(score), "outlier" if out else "inlier"]
               for device_id, cls, snr, score, out in zip(
                   table.device_ids, table.classes, table.snr_db, scores, outlier)))


def save_confusion_csv(cm: ConfusionMatrix, path: str | Path) -> None:
    write_csv(path, ["tp", "fp", "fn", "tn"], [[cm.tp, cm.fp, cm.fn, cm.tn]])


def save_metrics_csv(cm: ConfusionMatrix, path: str | Path) -> None:
    write_csv(path, ["accuracy", "precision", "recall", "f1", "degenerate"],
              [[fmt(cm.accuracy), fmt(cm.precision), fmt(cm.recall), fmt(cm.f1),
                int(cm.degenerate)]])


def save_neighbors_csv(ks: list[int], acc: np.ndarray, path: str | Path) -> None:
    """One row per k of a neighbor sweep: validation and test accuracy, the two rows of ``acc``."""
    write_csv(path, ["k", "val_acc", "test_acc"],
              ([k, fmt(val), fmt(tst)] for k, val, tst in zip(ks, *acc)))


def save_snr_csv(snrs: list[float], ks: list[int], acc: np.ndarray, path: str | Path) -> None:
    """One row per (SNR, k) cell of an SNR sweep grid, SNR-major."""
    write_csv(path, ["snr_db", "k", "accuracy"],
              ([fmt(snr), k, fmt(cell)]
               for snr, row in zip(snrs, acc) for k, cell in zip(ks, row)))


# ---------------------------------------------------------------------------
# Self-contained SVG line chart (accuracy vs SNR, one polyline per k).
# ---------------------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#d1495b", "#3c8d53", "#8a5ab5", "#c77f25", "#4b4b4b",
            "#17a2b8", "#a0336c")

_SVG_W, _SVG_H = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 130, 24, 48


def render_snr_svg(snrs: list[float], ks: list[int], acc: np.ndarray, path: str | Path) -> None:
    """Write an SNR sweep grid as a standalone SVG (no plotting dependency).

    One polyline per k column, its points in ``snrs`` order; the legend
    lists k ascending.
    """
    x0, x1 = _MARGIN_L, _SVG_W - _MARGIN_R
    y0, y1 = _SVG_H - _MARGIN_B, _MARGIN_T
    lo, hi = min(snrs), max(snrs)
    span = hi - lo if hi > lo else 1.0

    def sx(snr: float) -> float:
        return x0 + (snr - lo) / span * (x1 - x0)

    def sy(accuracy: float) -> float:
        return y0 + accuracy * (y1 - y0)

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
    for i, j in enumerate(np.argsort(ks, kind="stable")):
        k, color = ks[j], _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{sx(snr):.2f},{sy(cell):.2f}" for snr, cell in zip(snrs, acc[:, j]))
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
