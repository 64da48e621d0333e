"""Packet statistics and the four-variance burst fingerprint.

``packet_stats`` computes eleven statistics of every row of a (4, q) packet
matrix in one vectorized call, and ``stats_row`` lays the 44 out. The detector
itself runs on the compact fingerprint: ``fingerprint`` captures the
transient, takes its (4, q) packet matrix from the block kernel
``wpt.packet_coefficients`` and reduces each row to its sample variance in
one call. The result is a plain float64 row (sigma1..sigma4: the variances
of a1, d1, a2, d2), the row type of every feature matrix. ``rank_features``
reproduces the variance-based column ranking that justifies that choice; it
is a reporting tool, not part of the scoring path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, RfSentryError
from .signals import (
    Signal,
    SignalClass,
    TriggerConfig,
    _csv_records,
    _fmt,
    _parse_class,
    _parse_float,
    _write_csv,
    extract_transient,
)
from .wpt import packet_coefficients

PACKET_NAMES = ("a1", "d1", "a2", "d2")
STAT_NAMES = (
    "mean",
    "std_dev",
    "mean_root",
    "abs_mean",
    "skewness",
    "kurtosis",
    "variance",
    "entropy",
    "peak",
    "range",
    "abs_peak",
)
# Column order of the 44-statistic matrix: packet-major, stat-minor.
STAT_COLUMNS = tuple(f"{p}_{s}" for p in PACKET_NAMES for s in STAT_NAMES)
# Indices of the four per-packet variance columns within STAT_COLUMNS.
VARIANCE_COLUMNS = tuple(
    i for i, name in enumerate(STAT_COLUMNS) if name.endswith("_variance")
)

FEATURE_CSV_HEADER = ["device_id", "class", "snr_db", "sigma1", "sigma2", "sigma3", "sigma4"]


def sample_variance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample variance along the last axis; a singleton packet has variance 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        return np.zeros(x.shape[:-1])[()]  # [()]: a scalar for a 1-D input
    return np.var(x, axis=-1, ddof=1)


def energy_entropy(x: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of the normalized coefficient energies, along the last axis.

    0*log(0) is taken as 0; an all-zero packet carries no energy and gets
    entropy 0.
    """
    e = np.asarray(x, dtype=np.float64) ** 2
    total = e.sum(axis=-1, keepdims=True)
    p = np.divide(e, total, out=np.zeros_like(e), where=total > 0.0)
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return 0.0 - (p * log_p).sum(axis=-1)  # not a unary minus, which turns 0.0 into -0.0


def packet_stats(packets: np.ndarray) -> dict[str, np.ndarray]:
    """The eleven statistics of each packet along the last axis, keyed by ``STAT_NAMES``."""
    x = np.asarray(packets, dtype=np.float64)
    if x.size == 0:
        raise RfSentryError("cannot compute statistics of an empty packet")
    mean = x.mean(axis=-1)
    variance = sample_variance(x)
    centered = x - mean[..., None]
    m2 = np.mean(centered**2, axis=-1)
    flat = m2 == 0.0  # a constant packet: skewness and kurtosis are 0
    m2 = np.where(flat, 1.0, m2)
    peak = x.max(axis=-1)
    return dict(zip(STAT_NAMES, (
        mean,
        np.sqrt(variance),
        np.mean(np.sqrt(np.abs(x)), axis=-1) ** 2,
        np.mean(np.abs(x), axis=-1),
        np.where(flat, 0.0, np.mean(centered**3, axis=-1) / m2**1.5),
        np.where(flat, 0.0, np.mean(centered**4, axis=-1) / m2**2),
        variance,
        energy_entropy(x),
        peak,
        peak - x.min(axis=-1),
        np.abs(x).max(axis=-1),
    )))


def stats_row(packets: np.ndarray) -> np.ndarray:
    """One 44-entry row (packet-major, stat-minor) of a (4, q) packet matrix's statistics."""
    return np.stack(list(packet_stats(packets).values()), axis=-1).ravel()


def rank_features(matrix: np.ndarray) -> list[int]:
    """Rank the 44 statistic columns by across-signal sample variance.

    Descending variance, ties broken by ascending column index.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != len(STAT_COLUMNS):
        raise ConfigError(f"expected an (n, {len(STAT_COLUMNS)}) matrix, got {m.shape}")
    if m.shape[0] < 2:
        raise ConfigError("need at least 2 rows to rank by variance")
    variances = np.var(m, axis=0, ddof=1)
    # stable sort on -variance keeps the lower index first among ties
    return [int(i) for i in np.argsort(-variances, kind="stable")]


def fingerprint(signal: Signal, cfg: TriggerConfig) -> np.ndarray:
    """Full per-signal pipeline: trigger capture -> packet matrix -> the (4,) row variances."""
    return sample_variance(packet_coefficients(extract_transient(signal, cfg).samples))


# ---------------------------------------------------------------------------
# Labeled feature tables and their CSV formats.
# ---------------------------------------------------------------------------


@dataclass
class FeatureTable:
    """Parallel per-signal metadata and an (n, 4) fingerprint matrix."""

    device_ids: list[str]
    classes: list[SignalClass]
    snr_db: list[float | None]
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.device_ids)

    def select(self, indices: np.ndarray | list[int]) -> "FeatureTable":
        idx = list(indices)
        return FeatureTable(
            device_ids=[self.device_ids[i] for i in idx],
            classes=[self.classes[i] for i in idx],
            snr_db=[self.snr_db[i] for i in idx],
            matrix=self.matrix[idx],
        )

    @classmethod
    def from_rows(
        cls, rows: list[tuple[str, SignalClass, float | None, np.ndarray]]
    ) -> "FeatureTable":
        return cls(
            device_ids=[r[0] for r in rows],
            classes=[r[1] for r in rows],
            snr_db=[r[2] for r in rows],
            matrix=np.array([r[3] for r in rows]) if rows else np.empty((0, 4)),
        )


def save_feature_csv(table: FeatureTable, path: str | Path) -> None:
    _write_csv(path, FEATURE_CSV_HEADER, (
        [device_id, cls.value, _fmt(snr), *(_fmt(v) for v in row)]
        for device_id, cls, snr, row in zip(
            table.device_ids, table.classes, table.snr_db, table.matrix
        )
    ))


def load_feature_csv(path: str | Path) -> FeatureTable:
    device_ids: list[str] = []
    classes: list[SignalClass] = []
    snrs: list[float | None] = []
    rows: list[list[float]] = []
    for where, rec in _csv_records(path, FEATURE_CSV_HEADER):
        device_ids.append(rec[0])
        classes.append(_parse_class(rec[1], where))
        snrs.append(None if rec[2] == "" else _parse_float(rec[2], where))
        rows.append([_parse_float(v, where) for v in rec[3:]])
    matrix = np.array(rows) if rows else np.empty((0, 4))
    return FeatureTable(device_ids=device_ids, classes=classes, snr_db=snrs, matrix=matrix)
