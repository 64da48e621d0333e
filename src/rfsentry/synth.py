"""Synthetic burst corpus generation and split protocol.

Stands in for a hardware capture chain: each device profile emits seeded
bursts with a quiet lead-in, a transient amplitude ramp, and a steady-state
modulated carrier, then gets degraded to the configured SNR. Class
separability comes from where each kind parks its energy in normalized
frequency (and how sharp its transient is), which is exactly what the
wavelet-packet variances measure:

* Bluetooth-like: narrowband slow-hopping tone, low band.
* WiFi-like: wideband multi-tone burst, mid band.
* UAV-controller-like: fast-hopping tone, high band, sharp ramp.

Generation is purely seed-driven: every random draw derives from
(master_seed, device_seed, index), so corpora regenerate bit-identically.
``gen_bursts`` is the one recipe for "burst b at SNR s", at many SNRs from
one clean trace and one noise draw; ``gen_burst`` is its corpus-SNR case.
The noise helpers it uses (``mean_power``, ``snr_power_ratio`` and the
scaling step) live here with it. ``CorpusConfig.trigger`` is the capture
rule of a corpus's bursts: a ``capture_len`` that the default trigger
refuses is refused by the corpus too, so every corpus can be captured and
swept. A corpus also needs at least 2 recognized profiles and 1 UAV profile.
``CorpusConfig.save`` and ``load`` read and write the corpus.json format.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, FormatError, RfSentryError, integer, real
from .formats import json_document, json_fields
from .seeding import derive_seed, stage_seed
from .signals import Signal, SignalClass, TriggerConfig

BASE_AMPLITUDE = 3.0
AMPLITUDE_JITTER = 0.10
WIFI_TONES = 8

CORPUS_FORMAT = "rfsentry-corpus"
CORPUS_FORMAT_VERSION = 1

# Fraction of signals_per_device that goes to training for recognized
# devices (200 of 300 at the default corpus size).
TRAIN_FRACTION = 2.0 / 3.0


class DeviceKind(Enum):
    BLUETOOTH_LIKE = "bluetooth"
    WIFI_LIKE = "wifi"
    UAV_CONTROLLER_LIKE = "uav_controller"


@dataclass(frozen=True)
class DeviceProfile:
    """Spectral/temporal surrogate for one emitting device."""

    name: str
    kind: DeviceKind
    carrier_frac: float
    bandwidth_frac: float
    hop_period: int | None
    envelope_rise: int
    modulation_index: float
    device_seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ConfigError(f"profile name must be a string, got {self.name!r}")
        if not isinstance(self.kind, DeviceKind):
            raise ConfigError(f"{self.name}: kind must be a DeviceKind, got {self.kind!r}")
        for name, rule in _PROFILE_RULES.items():  # stored as the Python values load reads
            object.__setattr__(self, name, rule(getattr(self, name), f"{self.name}: {name}"))
        if not (0.0 < self.carrier_frac < 0.5):
            raise ConfigError(f"{self.name}: carrier_frac must be in (0, 0.5)")
        if not (0.0 < self.bandwidth_frac < 0.5):
            raise ConfigError(f"{self.name}: bandwidth_frac must be in (0, 0.5)")
        if self.carrier_frac + self.bandwidth_frac / 2 >= 0.5:
            raise ConfigError(f"{self.name}: band extends past Nyquist")
        if self.hop_period is not None and self.hop_period <= 0:
            raise ConfigError(f"{self.name}: hop_period must be > 0 or None")
        if self.envelope_rise <= 0:
            raise ConfigError(f"{self.name}: envelope_rise must be > 0")
        if not 0 < self.modulation_index < math.inf:  # NaN fails too
            raise ConfigError(f"{self.name}: modulation_index must be finite and > 0")

    @property
    def signal_class(self) -> SignalClass:
        if self.kind is DeviceKind.UAV_CONTROLLER_LIKE:
            return SignalClass.UAV
        return SignalClass.RECOGNIZED


@dataclass(frozen=True)
class CorpusConfig:
    profiles: tuple[DeviceProfile, ...]
    signals_per_device: int = 300
    snr_db: float = 30.0
    capture_len: int = TriggerConfig.capture_len
    master_seed: int = 0
    lead_len: int = 0  # 0 means the capture_len // 8 default

    def __post_init__(self) -> None:
        if not (isinstance(self.profiles, (list, tuple))
                and all(isinstance(p, DeviceProfile) for p in self.profiles)):
            raise ConfigError("profiles must be a list or tuple of DeviceProfile")
        object.__setattr__(self, "profiles", tuple(self.profiles))
        for name, rule in _CONFIG_RULES.items():  # stored as the Python values load reads
            object.__setattr__(self, name, rule(getattr(self, name), name))
        recognized = sum(p.signal_class is SignalClass.RECOGNIZED for p in self.profiles)
        uav = len(self.profiles) - recognized
        if recognized < 2 or uav < 1:  # the detector fits on recognized bursts alone
            raise ConfigError(f"need >= 2 recognized and >= 1 UAV profiles, got {recognized}/{uav}")
        if self.signals_per_device <= 0:
            raise ConfigError("signals_per_device must be > 0")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError(f"snr_db must be finite or +inf (clean), got {self.snr_db}")
        if math.isfinite(self.snr_db):
            snr_power_ratio(self.snr_db)  # rejects an SNR no noise level can reach
        self.trigger  # builds the capture rule, which refuses what it cannot capture
        if self.lead_len < 0:
            raise ConfigError("lead_len must be >= 0")
        if self.lead_len == 0:
            object.__setattr__(self, "lead_len", max(1, self.capture_len // 8))
        for p in self.profiles:  # the hop gather allocates about 2 * hop_period floats more
            if p.hop_period is not None and p.hop_period > self.burst_len:
                raise ConfigError(f"{p.name}: hop_period must not exceed the burst length "
                                  f"{self.burst_len}, got {p.hop_period}")

    @property
    def burst_len(self) -> int:
        # margin past capture_len keeps a full capture after the trigger
        return self.capture_len + max(1, self.capture_len // 8)

    @property
    def trigger(self) -> TriggerConfig:
        """The capture rule of this corpus's bursts: the default trigger at ``capture_len``."""
        return TriggerConfig(capture_len=self.capture_len)

    @property
    def train_per_device(self) -> int:
        return round(self.signals_per_device * TRAIN_FRACTION)

    def split(self) -> tuple[list[tuple[DeviceProfile, int]], list[tuple[DeviceProfile, int]]]:
        """(profile, burst index) of each training and each evaluation burst, in corpus order.

        The split rule: a recognized device's first train_per_device bursts
        are training data; all other bursts (every UAV burst) are evaluation.
        """
        train, evaluation = [], []
        for profile in self.profiles:
            cut = self.train_per_device if profile.signal_class is SignalClass.RECOGNIZED else 0
            train += [(profile, index) for index in range(cut)]
            evaluation += [(profile, index) for index in range(cut, self.signals_per_device)]
        return train, evaluation

    def save(self, path: str | Path) -> None:
        """Write the corpus.json document; a clean corpus's +inf SNR is null."""
        config = asdict(self) | {
            "profiles": [asdict(p) | {"kind": p.kind.value} for p in self.profiles],
            "snr_db": None if math.isinf(self.snr_db) else self.snr_db,
        }
        doc = {"format": CORPUS_FORMAT, "version": CORPUS_FORMAT_VERSION, "config": config}
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CorpusConfig":
        """Read a corpus.json written by ``save``.

        It checks the keys, the ``profiles`` list and each ``kind``, and reads
        a null ``snr_db`` as +inf; the constructors check every value. Each
        failure is a FormatError that names the file.
        """
        doc = json_fields(json_document(path, CORPUS_FORMAT, CORPUS_FORMAT_VERSION),
                          ["config"], str(path))
        try:
            config = json_fields(doc["config"], [f.name for f in fields(cls)], "config")
            if not isinstance(config["profiles"], list):
                raise FormatError(f"profiles must be a list, got {config['profiles']!r}")
            profiles = []
            for i, d in enumerate(config["profiles"]):
                what = f"config: profiles[{i}]: profile"
                profile = json_fields(d, [f.name for f in fields(DeviceProfile)], what)
                try:
                    profile["kind"] = DeviceKind(profile["kind"])
                except ValueError:
                    raise FormatError(f"{what}: unknown kind {profile['kind']!r}") from None
                profiles.append(DeviceProfile(**profile))
            config["profiles"] = profiles
            if config["snr_db"] is None:
                config["snr_db"] = math.inf
            return cls(**config)
        except (FormatError, ConfigError) as exc:
            raise FormatError(f"{path}: {exc}") from None


def _integer_or_none(value, what: str) -> int | None:
    return None if value is None else integer(value, what)


# The argument rules of each record's numeric fields (see ``errors``)
_PROFILE_RULES = {"carrier_frac": real, "bandwidth_frac": real, "hop_period": _integer_or_none,
                  "envelope_rise": integer, "modulation_index": real, "device_seed": integer}
_CONFIG_RULES = {"signals_per_device": integer, "snr_db": real, "capture_len": integer,
                 "master_seed": integer, "lead_len": integer}


def default_profiles(capture_len: int = TriggerConfig.capture_len) -> tuple[DeviceProfile, ...]:
    """Default device catalog: 2 Bluetooth + 2 WiFi + 6 UAV controllers.

    Ramp and hop lengths scale with capture_len so miniature corpora used in
    tests keep the same waveform shape.
    """

    def frac(denominator: int) -> int:
        return max(1, capture_len // denominator)

    bt = [
        DeviceProfile("bt_phone", DeviceKind.BLUETOOTH_LIKE, 0.070, 0.030,
                      hop_period=frac(8), envelope_rise=frac(11),
                      modulation_index=0.8, device_seed=101),
        DeviceProfile("bt_watch", DeviceKind.BLUETOOTH_LIKE, 0.110, 0.040,
                      hop_period=frac(10), envelope_rise=frac(12),
                      modulation_index=0.6, device_seed=102),
    ]
    wifi = [
        DeviceProfile("wifi_router_a", DeviceKind.WIFI_LIKE, 0.185, 0.100,
                      hop_period=None, envelope_rise=frac(9),
                      modulation_index=0.7, device_seed=201),
        DeviceProfile("wifi_router_b", DeviceKind.WIFI_LIKE, 0.215, 0.120,
                      hop_period=None, envelope_rise=frac(10),
                      modulation_index=0.9, device_seed=202),
    ]
    uav_carriers = (0.340, 0.360, 0.385, 0.410, 0.430, 0.445)
    uav = [
        DeviceProfile(f"uav_ctrl_{chr(ord('a') + i)}", DeviceKind.UAV_CONTROLLER_LIKE,
                      carrier, 0.060 if i % 2 == 0 else 0.080,
                      hop_period=frac(32) if i < 3 else frac(16),
                      envelope_rise=frac(64) if i % 2 == 0 else frac(32),
                      modulation_index=1.0 + 0.2 * i, device_seed=301 + i)
        for i, carrier in enumerate(uav_carriers)
    ]
    return tuple(bt + wifi + uav)


def mean_power(x: np.ndarray) -> float:
    """Mean-square power (1/N) * sum(x^2) of a sample array."""
    return float(np.mean(x * x))


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


def _hopped_waveform(profile: DeviceProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Frequency-hopped tone with a small in-hop FM wobble."""
    half_bw = profile.bandwidth_frac / 2.0
    fm_dev = 0.25 * half_bw * min(1.0, profile.modulation_index)
    hop_span = half_bw - fm_dev
    hop_period = profile.hop_period or n
    n_hops = n // hop_period + 2
    offsets = rng.uniform(-hop_span, hop_span, n_hops)
    start = int(rng.integers(0, hop_period))  # jittered hop phase
    # sample i is in hop (i + start) // hop_period
    freq = np.repeat(offsets, hop_period)[start : start + n]
    freq += profile.carrier_frac
    wobble_rate = 1.0 / max(8, hop_period // 4)
    wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
    wobble = np.multiply(2.0 * np.pi * wobble_rate, np.arange(n))
    wobble += wobble_phase
    np.sin(wobble, out=wobble)
    wobble *= fm_dev
    freq += wobble
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    phase = np.cumsum(freq)
    phase *= 2.0 * np.pi
    phase += phase0
    return np.sin(phase, out=phase)


def _multitone_waveform(profile: DeviceProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Wideband burst: several tones across the band with random weights."""
    half_bw = profile.bandwidth_frac / 2.0
    freqs = profile.carrier_frac + np.linspace(-half_bw, half_bw, WIFI_TONES)
    phases = rng.uniform(0.0, 2.0 * np.pi, WIFI_TONES)
    weights = 1.0 + 0.5 * profile.modulation_index * rng.uniform(-1.0, 1.0, WIFI_TONES)
    weights = np.maximum(weights, 0.1)
    t = np.arange(n)
    w = np.zeros(n)
    tone = np.empty(n)
    for f, ph, a in zip(freqs, phases, weights):
        np.multiply(2.0 * np.pi * f, t, out=tone)
        tone += ph
        np.sin(tone, out=tone)
        tone *= a
        w += tone
    return w


def gen_bursts(
    profile: DeviceProfile, index: int, cfg: CorpusConfig, snrs: Sequence[float]
) -> Iterator[Signal]:
    """The burst at each SNR of ``snrs``, in order; +inf is the clean trace (``snr_db=None``).

    The trace is a quiet lead-in, a ramp and a steady carrier, drawn in a
    fixed order from (master_seed, device_seed, index). Its unit noise is
    drawn once from ``noise_seed``, which does not depend on the SNR, and
    scaled to each SNR, so each burst equals the corpus burst at that SNR.
    A profile whose waveform overflows or is undefined is a ConfigError.
    """
    rng = np.random.default_rng(
        derive_seed(cfg.master_seed, profile.device_seed, index, "burst")
    )
    n = cfg.burst_len
    amplitude = BASE_AMPLITUDE * (1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0))
    try:
        with np.errstate(over="raise", invalid="raise"):
            if profile.hop_period is not None:
                w = _hopped_waveform(profile, n, rng)
            else:
                w = _multitone_waveform(profile, n, rng)
            w /= np.sqrt(np.mean(w * w))
    except FloatingPointError as exc:
        raise ConfigError(f"{profile.name}: the waveform is not finite ({exc})") from None

    # amplitude * envelope * w, where the envelope ramps up over `rise`
    # samples and is 1 after them: there it is amplitude * w exactly
    rise = min(profile.envelope_rise, n)
    trace = np.zeros(cfg.lead_len + n)
    body = np.multiply(amplitude, w, out=trace[cfg.lead_len :])
    np.multiply(amplitude * (np.arange(1, rise + 1) / rise), w[:rise], out=body[:rise])

    power = mean_power(trace)
    unit_noise = None
    if any(snr != math.inf for snr in snrs):  # a clean burst draws no noise
        noise_rng = np.random.default_rng(noise_seed(cfg, profile, index))
        unit_noise = noise_rng.standard_normal(trace.size)
    for snr in snrs:
        yield Signal(samples=_scaled_noise(trace, power, snr, unit_noise),
                     device_id=profile.name, signal_class=profile.signal_class,
                     snr_db=None if snr == math.inf else float(snr))


def gen_burst(profile: DeviceProfile, index: int, cfg: CorpusConfig) -> Signal:
    """The corpus burst: ``gen_bursts`` at the corpus SNR."""
    return next(gen_bursts(profile, index, cfg, [cfg.snr_db]))


def noise_seed(cfg: CorpusConfig, profile: DeviceProfile, index: int) -> int:
    """Per-signal AWGN seed.

    Deliberately independent of the SNR value: re-noising a clean burst at
    the corpus SNR reproduces the stored corpus trace bit for bit.
    """
    return derive_seed(cfg.master_seed, profile.device_seed, index, "noise")


def build_corpus(cfg: CorpusConfig) -> tuple[list[Signal], list[Signal]]:
    """The generated training and evaluation bursts of ``cfg.split()``, each in corpus order."""
    train, evaluation = cfg.split()
    return [gen_burst(p, i, cfg) for p, i in train], [gen_burst(p, i, cfg) for p, i in evaluation]


def balanced_eval_plan(cfg: CorpusConfig, per_class: int) -> list[tuple[DeviceProfile, int]]:
    """(profile, burst index) of a class-balanced evaluation subset, in corpus order.

    The picks are ``balanced_indices`` over the classes of the evaluation
    bursts of ``cfg.split()``, seeded with the corpus's ``balanced`` stage
    seed, so no burst is generated to choose them.
    """
    plan = cfg.split()[1]
    picked = balanced_indices([p.signal_class for p, _ in plan], per_class,
                              stage_seed(cfg.master_seed, "balanced"))
    return [plan[i] for i in picked]


def _pick_per_class(labels: list[SignalClass], count, seed: int) -> set[int]:
    """``count(len(members))`` random members of each class present in ``labels``.

    One ``rng.permutation`` per present class, in ``SignalClass`` order, from
    one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    picked: set[int] = set()
    for cls in SignalClass:
        members = [i for i, c in enumerate(labels) if c is cls]
        if members:
            order = rng.permutation(len(members))
            picked.update(members[j] for j in order[: count(len(members))])
    return picked


def stratified_split_indices(
    labels: list[SignalClass], test_frac: float, seed: int
) -> tuple[list[int], list[int]]:
    """Per-class random (test, validation) split; both halves keep the original ordering.

    A ``test_frac`` that leaves either half empty is a ConfigError.
    """
    if not labels:
        raise RfSentryError("cannot split an empty evaluation set")
    if not (0.0 < test_frac < 1.0):
        raise ConfigError(f"test_frac must be in (0, 1), got {test_frac}")
    picked = _pick_per_class(labels, lambda size: round(test_frac * size), seed)
    if len(picked) in (0, len(labels)):
        raise ConfigError(f"test_frac {test_frac} leaves the {'validation' if picked else 'test'} "
                          f"rows empty: {len(picked)} of {len(labels)} rows are test rows")
    return sorted(picked), [i for i in range(len(labels)) if i not in picked]


def balanced_indices(
    labels: list[SignalClass], per_class: int, seed: int
) -> list[int]:
    """Pick per_class members of each class (for the balanced SNR-sweep set)."""
    if per_class < 1:
        raise ConfigError(f"per_class must be at least 1, got {per_class}")
    for cls in SignalClass:
        have = sum(c is cls for c in labels)
        if have < per_class:
            raise ConfigError(
                f"need {per_class} {cls.value} signals for a balanced set, got {have}"
            )
    return sorted(_pick_per_class(labels, lambda size: per_class, seed))
