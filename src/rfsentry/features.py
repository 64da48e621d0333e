"""The four-variance burst fingerprint and the feature CSV format.

``fingerprint`` captures the transient, takes its (4, q) packet matrix from
the block kernel ``wpt.packet_coefficients`` and reduces each row to its
sample variance in one call. The result is a plain float64 row
(sigma1..sigma4: the variances of a1, d1, a2, d2), the row type of every
feature matrix. Acceptance check c11 (``tests/test_acceptance.py``) shows
why variance: ranked by spread across the default corpus, at least three of
the four variance columns are in the top 8 of 44 per-packet statistics.

``snr_fingerprints`` gives the SNR sweep's query sets: planned corpus bursts
regenerated at each SNR and captured by ``CorpusConfig.trigger``, streamed
one burst at a time per ``seeding.map_chunks`` worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, RfSentryError
from .formats import csv_records, fmt, parse_float, write_csv
from .seeding import map_chunks
from .signals import Signal, SignalClass, TriggerConfig, extract_transient, parse_class
from .synth import CorpusConfig, DeviceProfile, gen_bursts
from .wpt import packet_coefficients

FEATURE_CSV_HEADER = ["device_id", "class", "snr_db", "sigma1", "sigma2", "sigma3", "sigma4"]


def sample_variance(x: np.ndarray) -> np.ndarray:
    """Unbiased sample variance along the last axis; a singleton packet has variance 0."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        return np.zeros(x.shape[:-1])[()]  # [()]: a scalar for a 1-D input
    # np.var(x, axis=-1, ddof=1) step by step, bit for bit, without its dispatch
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= n
    centered = np.subtract(x, mean)
    np.square(centered, out=centered)
    return np.add.reduce(centered, axis=-1) / (n - 1)


def fingerprint(signal: Signal, cfg: TriggerConfig) -> np.ndarray:
    """Full per-signal pipeline: trigger capture -> packet matrix -> the (4,) row variances."""
    return sample_variance(packet_coefficients(extract_transient(signal, cfg)))


def _burst_fingerprints(plan: list[tuple[DeviceProfile, int]], cfg: CorpusConfig,
                        snrs: list[float]) -> list[np.ndarray]:
    """Each planned burst's (len(snrs), 4) fingerprints; one burst is held at a time."""
    trigger = cfg.trigger
    return [np.array([fingerprint(sig, trigger)
                      for sig in gen_bursts(profile, index, cfg, snrs)])
            for profile, index in plan]


def snr_fingerprints(cfg: CorpusConfig, plan: list[tuple[DeviceProfile, int]],
                     snrs: list[float], jobs: int = 1) -> np.ndarray:
    """The ``(len(snrs), len(plan), 4)`` fingerprints of ``plan``'s (profile, index) bursts.

    ``synth.gen_bursts`` regenerates each burst at every SNR from its clean
    trace, so noise never stacks. ``jobs`` caps the worker processes, each
    taking a contiguous chunk of the plan; the result is the same for any.
    """
    if not snrs:
        raise ConfigError("snrs must be non-empty")
    if not plan:
        raise RfSentryError("the burst plan is empty")
    return np.stack(map_chunks(_burst_fingerprints, plan, jobs, cfg, snrs), axis=1)


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
        cls, rows: list[tuple[str, SignalClass, float | None, np.ndarray | list[float]]]
    ) -> "FeatureTable":
        return cls(
            device_ids=[r[0] for r in rows],
            classes=[r[1] for r in rows],
            snr_db=[r[2] for r in rows],
            matrix=np.array([r[3] for r in rows]) if rows else np.empty((0, 4)),
        )


def save_feature_csv(table: FeatureTable, path: str | Path) -> None:
    write_csv(path, FEATURE_CSV_HEADER, (
        [device_id, cls.value, fmt(snr), *(fmt(v) for v in row)]
        for device_id, cls, snr, row in zip(
            table.device_ids, table.classes, table.snr_db, table.matrix
        )
    ))


def load_feature_csv(path: str | Path) -> FeatureTable:
    return FeatureTable.from_rows([
        (rec[0], parse_class(rec[1], where), None if rec[2] == "" else parse_float(rec[2], where),
         [parse_float(v, where) for v in rec[3:]])
        for where, rec in csv_records(path, FEATURE_CSV_HEADER)
    ])
