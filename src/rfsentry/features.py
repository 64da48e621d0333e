"""Packet statistics and the four-variance burst fingerprint.

Eleven statistics are computed per packet (44 per signal). The detector
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
from .wpt import PacketSet, packet_coefficients

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


@dataclass(frozen=True)
class PacketStats:
    mean: float
    std_dev: float
    mean_root: float
    abs_mean: float
    skewness: float
    kurtosis: float
    variance: float
    entropy: float
    peak: float
    range: float
    abs_peak: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in STAT_NAMES)


def sample_variance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample variance along the last axis; a singleton packet has variance 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] < 2:
        return np.zeros(x.shape[:-1])[()]  # [()]: a scalar for a 1-D input
    return np.var(x, axis=-1, ddof=1)


def energy_entropy(x: np.ndarray) -> float:
    """Shannon entropy (base 2) of the normalized coefficient energies.

    0*log(0) is taken as 0; an all-zero packet carries no energy and gets
    entropy 0.
    """
    e = np.asarray(x, dtype=np.float64) ** 2
    total = e.sum()
    if total == 0.0:
        return 0.0
    p = e / total
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def packet_stats(packet: np.ndarray) -> PacketStats:
    """All eleven statistics of one packet coefficient sequence."""
    x = np.asarray(packet, dtype=np.float64)
    if x.size == 0:
        raise RfSentryError("cannot compute statistics of an empty packet")
    mean = float(np.mean(x))
    variance = float(sample_variance(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        skewness = 0.0
        kurtosis = 0.0
    else:
        skewness = float(np.mean(centered**3)) / m2**1.5
        kurtosis = float(np.mean(centered**4)) / m2**2
    peak = float(np.max(x))
    return PacketStats(
        mean=mean,
        std_dev=float(np.sqrt(variance)),
        mean_root=float(np.mean(np.sqrt(np.abs(x)))) ** 2,
        abs_mean=float(np.mean(np.abs(x))),
        skewness=skewness,
        kurtosis=kurtosis,
        variance=variance,
        entropy=energy_entropy(x),
        peak=peak,
        range=peak - float(np.min(x)),
        abs_peak=float(np.max(np.abs(x))),
    )


def stats_row(p: PacketSet) -> np.ndarray:
    """One 44-entry row (packet-major, stat-minor) for the ranking matrix."""
    return np.array([v for packet in p.packets() for v in packet_stats(packet).as_tuple()])


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
    return sample_variance(packet_coefficients(extract_transient(signal, cfg)))


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
