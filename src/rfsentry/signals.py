"""Sampled-signal data model, SNR math, and transient extraction.

A :class:`Signal` is a real-valued burst and its metadata, built once per
burst by the code that makes it (``synth.gen_bursts``, :func:`load_signal`);
the noise and capture steps below it pass plain sample arrays. The trigger
of :func:`extract_transient` emulates an oscilloscope that idles below an
energy threshold and starts capturing once a sliding window reaches it.
:func:`find_trigger` scans a growing prefix of the trace, doubling it until
a window hits, so an early trigger never pays for the whole trace; it
finds the index that one scan of the whole trace finds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigError, FormatError, RfSentryError

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
    a clean (noiseless) reference.
    """

    samples: np.ndarray
    sample_rate: float
    device_id: str = ""
    signal_class: SignalClass = SignalClass.RECOGNIZED
    snr_db: float | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ConfigError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ConfigError("samples must be finite")
        if not (self.sample_rate > 0):
            raise ConfigError("sample_rate must be > 0")
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


def mean_power(x: np.ndarray) -> float:
    """Mean-square power (1/N) * sum(x^2) of a sample array."""
    return float(np.mean(x * x))


def add_awgn(signal: Signal, target_snr_db: float, seed: int) -> Signal:
    """Add zero-mean Gaussian noise so the trace reaches ``target_snr_db``.

    Noise variance is mean_power(samples) / 10^(snr/10). A target of +inf is
    the documented no-noise sentinel and returns the input itself.
    Bit-identical output for a fixed (signal, target, seed).
    """
    x = signal.samples
    unit_noise = np.random.default_rng(seed).standard_normal(x.size)
    noisy = _scaled_noise(x, mean_power(x), target_snr_db, unit_noise)
    if noisy is x:  # the +inf sentinel
        return signal
    return replace(signal, samples=noisy, snr_db=float(target_snr_db))


def snr_power_ratio(snr_db: float) -> float:
    """The signal-to-noise power ratio 10^(snr/10) of a finite SNR in dB.

    A ConfigError when the ratio or its inverse is beyond float range, which
    is beyond about +-3,080 dB.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (0.0 < ratio < math.inf and math.isfinite(1.0 / ratio)):
        raise ConfigError(f"an SNR of {snr_db} dB is out of range")
    return ratio


def _scaled_noise(
    x: np.ndarray, power: float, target_snr_db: float, unit_noise: np.ndarray | None
) -> np.ndarray:
    """Samples ``x`` plus ``unit_noise`` scaled to reach ``target_snr_db``.

    ``power`` is ``mean_power(x)``. At +inf the result is ``x`` itself and
    ``unit_noise`` is not read. numpy defines ``normal(0.0, s, n)`` as
    ``0.0 + s * standard_normal``, so one unit draw per seed, scaled here,
    equals ``default_rng(seed).normal(0.0, s, n)`` bit for bit at every SNR.
    """
    if target_snr_db == math.inf:
        return x
    if power == 0.0:
        raise RfSentryError("cannot set an SNR on an all-zero signal")
    noise_std = math.sqrt(power / snr_power_ratio(target_snr_db))
    if not math.isfinite(noise_std):
        raise ConfigError(f"an SNR of {target_snr_db} dB is out of range")
    noisy = noise_std * unit_noise
    noisy += x  # addition commutes exactly; this saves a temporary
    return noisy


def find_trigger(signal: Signal, cfg: TriggerConfig) -> int:
    """First index whose window energy reaches the threshold.

    A window's energy is its mean square, from a running sum of squares.
    The scan covers a prefix of the trace, ``16 * window_len`` samples at
    first and twice as many each time no window in it hits, until the trace
    ends. ``cumsum`` accumulates in order, so a prefix's sums are those of a
    scan of the whole trace, bit for bit.
    """
    x = signal.samples
    w = cfg.window_len
    if x.size < w:
        raise RfSentryError(f"need at least {w} samples, got {x.size}")
    end = 16 * w
    while True:
        head = x[:end]
        csum = np.concatenate(([0.0], np.cumsum(head * head)))
        energies = (csum[w:] - csum[:-w]) / w
        hits = np.flatnonzero(energies >= cfg.energy_threshold)
        if hits.size:
            return int(hits[0])
        if end >= x.size:
            raise RfSentryError("no window reached the energy threshold")
        end *= 2


def extract_transient(signal: Signal, cfg: TriggerConfig) -> np.ndarray:
    """The ``(capture_len,)`` samples from the first triggering window on.

    If the trace ends before the capture is full, the tail is zero-filled so
    fixed-length inputs reach the wavelet stage regardless.
    """
    x = signal.samples
    if x.size < cfg.capture_len:
        raise RfSentryError(
            f"need at least capture_len={cfg.capture_len} samples, got {x.size}"
        )
    start = find_trigger(signal, cfg)
    chunk = x[start : start + cfg.capture_len]
    if chunk.size < cfg.capture_len:
        chunk = np.concatenate([chunk, np.zeros(cfg.capture_len - chunk.size)])
    return chunk


# ---------------------------------------------------------------------------
# On-disk formats: RFSG binary traces, the corpus manifest CSV and the
# readers shared by every CSV and JSON format.
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
        # checked before reading: read(n) allocates n bytes before it reads
        if 4 * count > os.fstat(fh.fileno()).st_size - fh.tell():
            raise FormatError(f"{path}: expected {count} samples, file truncated")
        raw = fh.read(4 * count)
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


def _json_document(path: str | Path, fmt: str, version: int) -> dict:
    """The top-level object of a JSON document ``{"format": fmt, "version": version, ...}``.

    Text that is not JSON, another format and another version are each a
    FormatError.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise FormatError(f"{path}: not a {fmt} document")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise FormatError(f"{path}: unsupported {fmt} version {doc.get('version')!r}")
    return doc


# JSON value types: the Python types json.loads gives them, and their name
_STRING = ((str,), "a string")
_BOOL = ((bool,), "a boolean")
_LIST = ((list,), "a list")
_OBJECT = ((dict,), "an object")
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_INT_OR_NULL = ((int, type(None)), "an integer or null")
_NUMBER_OR_NULL = ((int, float, type(None)), "a number or null")


def _json_fields(d, spec: dict[str, tuple[tuple[type, ...], str]], what: str) -> dict:
    """The ``spec`` keys of JSON object ``d``, each of one of its exact types.

    Exact, so a JSON ``true`` is not an integer and ``300.0`` is not one
    either; an integer is a valid number, unless it is beyond float range,
    and an integer-only field must fit int64. Other keys are ignored.
    """
    if not isinstance(d, dict):
        raise FormatError(f"{what} must be an object, got {type(d).__name__}")
    missing = [key for key in spec if key not in d]
    if missing:
        raise FormatError(f"{what}: missing key(s) {', '.join(missing)}")
    for key, (types, name) in spec.items():
        if type(d[key]) not in types:
            raise FormatError(f"{what}: {key} must be {name}, got {d[key]!r}")
        if float in types and type(d[key]) is int and abs(d[key]) > sys.float_info.max:
            raise FormatError(f"{what}: {key} is beyond float range")
        if float not in types and type(d[key]) is int and not -2**63 <= d[key] < 2**63:
            raise FormatError(f"{what}: {key} is beyond int64 range")
    return {key: d[key] for key in spec}


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
