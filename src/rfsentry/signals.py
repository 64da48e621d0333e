"""Sampled-signal data model, SNR math, and transient extraction.

A :class:`Signal` is a real-valued burst capture. The energy trigger in
:func:`extract_transient` emulates an oscilloscope that idles below an
energy threshold and starts capturing once a sliding window reaches it.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, FormatError, InputTooShort, NoTrigger, ZeroPowerSignal

RFSG_MAGIC = b"RFSG"
RFSG_VERSION = 1

MANIFEST_HEADER = ["path", "device_id", "class", "snr_db"]


class SignalClass(Enum):
    RECOGNIZED = "recognized"
    UAV = "uav"


@dataclass(frozen=True)
class Signal:
    """Immutable real-valued RF burst with provenance metadata.

    ``snr_db`` is the nominal SNR the trace was degraded to; ``None`` marks
    a clean (noiseless) reference. ``padded`` flags a capture whose tail was
    zero-filled by the trigger extractor.
    """

    samples: np.ndarray
    sample_rate: float
    device_id: str = ""
    signal_class: SignalClass = SignalClass.RECOGNIZED
    snr_db: float | None = None
    padded: bool = False

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be > 0")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class TriggerConfig:
    """Sliding-window energy trigger parameters (step is always 1 sample)."""

    window_len: int = 64
    energy_threshold: float = 0.05
    capture_len: int = 4096

    def __post_init__(self) -> None:
        if self.window_len <= 0 or self.capture_len <= 0:
            raise ConfigError("window_len and capture_len must be > 0")
        if not self.energy_threshold >= 0:  # NaN fails too
            raise ConfigError(f"energy_threshold must be >= 0, got {self.energy_threshold}")
        if self.window_len > self.capture_len:
            raise ConfigError("window_len must not exceed capture_len")


def mean_power(signal: Signal) -> float:
    """Mean-square power (1/N) * sum(x^2)."""
    x = signal.samples
    return float(np.mean(x * x))


def add_awgn(signal: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add zero-mean Gaussian noise so the trace reaches ``target_snr_db``.

    Noise variance is mean_power(signal) / 10^(snr/10). A target of +inf is
    the documented no-noise sentinel and returns the input unchanged.
    Bit-identical output for a fixed (signal, target, seed).
    """
    unit_noise = np.random.default_rng(seed).standard_normal(signal.samples.size)
    return _scaled_noise(signal, mean_power(signal), target_snr_db, unit_noise)


def _scaled_noise(
    signal: Signal, power: float, target_snr_db: float, unit_noise: np.ndarray
) -> Signal:
    """``signal`` plus ``unit_noise`` scaled to reach ``target_snr_db``.

    ``power`` is ``mean_power(signal)``. numpy defines ``normal(0.0, s, n)``
    as ``0.0 + s * standard_normal``, so one unit draw per seed, scaled here,
    equals ``default_rng(seed).normal(0.0, s, n)`` bit for bit at every SNR.
    """
    if math.isinf(target_snr_db) and target_snr_db > 0:
        return signal
    if power == 0.0:
        raise ZeroPowerSignal("cannot set an SNR on an all-zero signal")
    try:
        noise_std = math.sqrt(power / 10.0 ** (target_snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) beyond float range
        noise_std = math.inf
    if not math.isfinite(noise_std):
        raise ConfigError(f"an SNR of {target_snr_db} dB is out of range")
    noisy = noise_std * unit_noise
    noisy += signal.samples  # addition commutes exactly; this saves a temporary
    return replace(signal, samples=noisy, snr_db=float(target_snr_db))


def _window_energies(x: np.ndarray, window_len: int) -> np.ndarray:
    """Mean-square energy of every length-``window_len`` window, step 1."""
    csum = np.concatenate(([0.0], np.cumsum(x * x)))
    return (csum[window_len:] - csum[:-window_len]) / window_len


def find_trigger(signal: Signal, cfg: TriggerConfig) -> int:
    """First index whose window energy reaches the threshold."""
    x = signal.samples
    if x.size < cfg.window_len:
        raise InputTooShort(f"need at least {cfg.window_len} samples, got {x.size}")
    energies = _window_energies(x, cfg.window_len)
    hits = np.flatnonzero(energies >= cfg.energy_threshold)
    if hits.size == 0:
        raise NoTrigger("no window reached the energy threshold")
    return int(hits[0])


def extract_transient(signal: Signal, cfg: TriggerConfig) -> Signal:
    """Capture ``capture_len`` samples from the first triggering window.

    If the trace ends before the capture is full, the tail is zero-padded and
    the result is flagged ``padded`` so fixed-length inputs reach the wavelet
    stage regardless.
    """
    x = signal.samples
    if x.size < cfg.capture_len:
        raise InputTooShort(
            f"need at least capture_len={cfg.capture_len} samples, got {x.size}"
        )
    start = find_trigger(signal, cfg)
    chunk = x[start : start + cfg.capture_len]
    padded = chunk.size < cfg.capture_len
    if padded:
        chunk = np.concatenate([chunk, np.zeros(cfg.capture_len - chunk.size)])
    return replace(signal, samples=chunk, padded=padded)


# ---------------------------------------------------------------------------
# On-disk formats: RFSG binary traces and the corpus manifest CSV.
# ---------------------------------------------------------------------------

_HEADER_STRUCT = struct.Struct("<4sHdI")  # magic, version, sample_rate, count


def save_signal(signal: Signal, path: str | Path) -> None:
    """Write the RFSG binary format (float32 samples, little-endian)."""
    samples = signal.samples.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(
            _HEADER_STRUCT.pack(RFSG_MAGIC, RFSG_VERSION, signal.sample_rate, samples.size)
        )
        fh.write(samples.tobytes())


def load_signal(
    path: str | Path,
    device_id: str = "",
    signal_class: SignalClass = SignalClass.RECOGNIZED,
    snr_db: float | None = None,
) -> Signal:
    """Read an RFSG file; metadata comes from the manifest, not the file.

    A file that is not a complete, valid RFSG trace is a FormatError.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_STRUCT.size)
        if len(header) < _HEADER_STRUCT.size:
            raise FormatError(f"{path}: truncated RFSG header")
        magic, version, sample_rate, count = _HEADER_STRUCT.unpack(header)
        if magic != RFSG_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != RFSG_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        raw = fh.read(4 * count)
    if len(raw) < 4 * count:
        raise FormatError(f"{path}: expected {count} samples, file truncated")
    if count == 0:
        raise FormatError(f"{path}: holds no samples")
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise FormatError(f"{path}: sample rate {sample_rate} is not a positive number")
    samples = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: holds non-finite samples")
    return Signal(
        samples=samples,
        sample_rate=sample_rate,
        device_id=device_id,
        signal_class=signal_class,
        snr_db=snr_db,
    )


@dataclass(frozen=True)
class ManifestRow:
    path: str
    device_id: str
    signal_class: SignalClass
    snr_db: float | None


def _fmt(value: float | None) -> str:
    """CSV text of a float; ``repr`` round-trips exactly and None is empty."""
    return "" if value is None else repr(float(value))


def _csv_records(path: str | Path, header: list[str]) -> Iterator[tuple[str, list[str]]]:
    """Yield (``path:line``, record) for each data row of a fixed-header CSV.

    An empty file, another header, a row of another width, text that is not
    UTF-8 and malformed CSV quoting are each a FormatError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found != header:
                got = "an empty file" if found is None else f"the header {found}"
                raise FormatError(f"{path}: expected the header {header}, got {got}")
            for rec in reader:
                where = f"{path}:{reader.line_num}"
                if len(rec) != len(header):
                    raise FormatError(
                        f"{where}: expected {len(header)} columns, got {len(rec)}"
                    )
                yield where, rec
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.line_num}: {exc}") from None


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    """Write a header line and then every row as CSV.

    ``rows`` may be a generator, so that no list of all formatted rows exists.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_class(text: str, where: str) -> SignalClass:
    try:
        return SignalClass(text)
    except ValueError:
        raise FormatError(f"{where}: unknown class {text!r}") from None


def _parse_float(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise FormatError(f"{where}: {text!r} is not finite")
    return value


def _parse_path(text: str, where: str) -> str:
    if "\0" in text:  # no file system accepts it; open() would raise ValueError
        raise FormatError(f"{where}: path {text!r} holds a NUL byte")
    return text


def write_manifest(rows: list[ManifestRow], path: str | Path) -> None:
    _write_csv(path, MANIFEST_HEADER,
               ([row.path, row.device_id, row.signal_class.value, _fmt(row.snr_db)]
                for row in rows))


def read_manifest(path: str | Path) -> list[ManifestRow]:
    return [
        ManifestRow(
            path=_parse_path(path_col, where),
            device_id=device_id,
            signal_class=_parse_class(cls, where),
            snr_db=None if snr == "" else _parse_float(snr, where),
        )
        for where, (path_col, device_id, cls, snr) in _csv_records(path, MANIFEST_HEADER)
    ]
