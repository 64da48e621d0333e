"""Sampled-signal data model, transient extraction, and the trace file formats.

A :class:`Signal` is a real-valued burst and its metadata, built once per
burst by the code that makes it (``synth.gen_bursts``, :func:`load_signal`).
The capture steps, :func:`find_trigger` and :func:`extract_transient`, take
the :class:`Signal`; every step after the capture passes plain sample
arrays. The trigger of :func:`extract_transient` emulates an oscilloscope
that idles below an energy threshold and starts capturing once a sliding
window reaches it.
:func:`find_trigger` scans a growing prefix of the trace, doubling it until
a window hits, so an early trigger never pays for the whole trace; it
finds the index that one scan of the whole trace finds.

The RFSG trace format and the corpus manifest CSV are read and written
here, beside the types they read into; the CSV codecs they share with the
other formats are in ``formats``. :func:`save_signals` is the one RFSG
writer: the caller encodes each trace, and a helper thread opens, writes and
closes it while the caller makes the next, one file in flight at a time.
Those system calls are kernel CPU time that releases the GIL, so a second
CPU takes them over.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, FormatError, RfSentryError
from .formats import csv_records, fmt, parse_float, parse_path, write_csv

RFSG_MAGIC = b"RFSG"
RFSG_VERSION = 1

MANIFEST_HEADER = ["path", "device_id", "class", "snr_db"]


class SignalClass(Enum):
    RECOGNIZED = "recognized"
    UAV = "uav"


def parse_class(text: str, where: str) -> SignalClass:
    """The class named by a CSV field; an unknown name is a FormatError at ``where``."""
    try:
        return SignalClass(text)
    except ValueError:
        raise FormatError(f"{where}: unknown class {text!r}") from None


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
        if not 0 < self.sample_rate < math.inf:  # the RFSG reader's rule; NaN fails too
            raise ConfigError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
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
# On-disk formats: RFSG binary traces and the corpus manifest CSV.
# ---------------------------------------------------------------------------

_HEADER_STRUCT = struct.Struct("<4sHdI")  # magic, version, sample_rate, count


def _rfsg_bytes(signal: Signal) -> bytes:
    """The RFSG encoding of ``signal``: the header, then float32 little-endian samples.

    A sample beyond float32 range is a ConfigError, not an inf that
    ``load_signal`` would reject.
    """
    try:
        with np.errstate(over="raise"):
            samples = signal.samples.astype("<f4")
    except FloatingPointError:
        raise ConfigError("a sample is beyond the float32 range of an RFSG trace") from None
    header = _HEADER_STRUCT.pack(RFSG_MAGIC, RFSG_VERSION, signal.sample_rate, samples.size)
    return header + samples.tobytes()


def _write_file(path: str | Path, data: bytes) -> None:
    """Create or truncate ``path`` and write all of ``data`` to it."""
    # O_BINARY (0 on POSIX) keeps a Windows C runtime from translating newlines
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
    fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data)
        while view:  # a write may take less than it is given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _write_jobs(jobs, results) -> None:
    """Write each ``(path, data)`` of ``jobs`` until ``None``; put ``None`` or the error."""
    for path, data in iter(jobs.get, None):
        try:
            _write_file(path, data)
        except Exception as exc:  # any error: the caller waits for one result per job
            results.put(exc)
        else:
            results.put(None)


def save_signals(items: Iterable[tuple[Signal, str | Path]]) -> None:
    """Write each ``(signal, path)`` of ``items`` in the RFSG format, in order.

    One helper thread opens, writes and closes each file while this thread
    draws the next item from ``items`` and encodes it. Those system calls
    release the GIL, so a second CPU runs them beside the caller's work. At
    most one write is in flight: a file is written before the next is handed
    over, and the helper is joined before this returns or raises. An error
    from a write is raised here, once the next item has been encoded, and no
    later file is written. The helper is a bare thread with two queues: an
    executor's futures cost the caller more.
    """
    import queue
    import threading

    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()
    helper = threading.Thread(target=_write_jobs, args=(jobs, results))
    helper.start()
    results.put(None)  # no write in flight yet
    try:
        for signal, path in items:
            data = _rfsg_bytes(signal)
            error = results.get()  # the previous write is done
            if error is not None:
                raise error
            jobs.put((path, data))
        error = results.get()
        if error is not None:
            raise error
    finally:
        jobs.put(None)
        helper.join()


def load_signal(path: str | Path) -> Signal:
    """Read an RFSG file; its metadata is in the manifest, not the file.

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
    return Signal(samples=samples, sample_rate=sample_rate)


@dataclass(frozen=True)
class ManifestRow:
    path: str
    device_id: str
    signal_class: SignalClass
    snr_db: float | None


def write_manifest(rows: list[ManifestRow], path: str | Path) -> None:
    write_csv(path, MANIFEST_HEADER,
              ([row.path, row.device_id, row.signal_class.value, fmt(row.snr_db)]
               for row in rows))


def read_manifest(path: str | Path) -> list[ManifestRow]:
    return [
        ManifestRow(
            path=parse_path(path_col, where),
            device_id=device_id,
            signal_class=parse_class(cls, where),
            snr_db=None if snr == "" else parse_float(snr, where),
        )
        for where, (path_col, device_id, cls, snr) in csv_records(path, MANIFEST_HEADER)
    ]
