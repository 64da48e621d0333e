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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, FormatError, RfSentryError
from .seeding import derive_seed
from .signals import (
    _INT,
    _INT_OR_NULL,
    _LIST,
    _NUMBER,
    _NUMBER_OR_NULL,
    _STRING,
    Signal,
    SignalClass,
    _json_fields,
    _scaled_noise,
    mean_power,
    snr_power_ratio,
)

DEFAULT_SAMPLE_RATE = 100e6
BASE_AMPLITUDE = 3.0
AMPLITUDE_JITTER = 0.10
WIFI_TONES = 8

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
        if self.modulation_index <= 0:
            raise ConfigError(f"{self.name}: modulation_index must be > 0")

    @property
    def signal_class(self) -> SignalClass:
        if self.kind is DeviceKind.UAV_CONTROLLER_LIKE:
            return SignalClass.UAV
        return SignalClass.RECOGNIZED

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind.value,
            "carrier_frac": self.carrier_frac,
            "bandwidth_frac": self.bandwidth_frac,
            "hop_period": self.hop_period,
            "envelope_rise": self.envelope_rise,
            "modulation_index": self.modulation_index,
            "device_seed": self.device_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceProfile":
        """Inverse of ``to_dict``; a missing key or a wrong type is a FormatError."""
        fields = _json_fields(d, _PROFILE_FIELDS, "profile")
        try:
            fields["kind"] = DeviceKind(fields["kind"])
        except ValueError:
            raise FormatError(f"profile: unknown kind {fields['kind']!r}") from None
        return cls(**fields)


@dataclass(frozen=True)
class CorpusConfig:
    profiles: tuple[DeviceProfile, ...]
    signals_per_device: int = 300
    snr_db: float = 30.0
    capture_len: int = 4096
    master_seed: int = 0
    lead_len: int = 0  # 0 means the capture_len // 8 default

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if self.signals_per_device <= 0:
            raise ConfigError("signals_per_device must be > 0")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ConfigError(f"snr_db must be finite or +inf (clean), got {self.snr_db}")
        if math.isfinite(self.snr_db):
            snr_power_ratio(self.snr_db)  # rejects an SNR no noise level can reach
        if self.capture_len < 4:
            raise ConfigError(
                "capture_len must be at least 4, the two-level packet transform's "
                f"minimum, got {self.capture_len}"
            )
        if self.lead_len < 0:
            raise ConfigError("lead_len must be >= 0")
        if self.lead_len == 0:
            object.__setattr__(self, "lead_len", max(1, self.capture_len // 8))

    @property
    def burst_len(self) -> int:
        # margin past capture_len keeps a full capture after the trigger
        return self.capture_len + max(1, self.capture_len // 8)

    @property
    def train_per_device(self) -> int:
        return round(self.signals_per_device * TRAIN_FRACTION)

    def is_train(self, profile: DeviceProfile, index: int) -> bool:
        """The split rule: a recognized device's first train_per_device bursts
        are training data; all other bursts (every UAV burst) are evaluation."""
        return (
            profile.signal_class is SignalClass.RECOGNIZED
            and index < self.train_per_device
        )

    def eval_plan(self) -> list[tuple[DeviceProfile, int]]:
        """(profile, burst index) of each evaluation burst, in corpus order."""
        return [
            (profile, index)
            for profile in self.profiles
            for index in range(self.signals_per_device)
            if not self.is_train(profile, index)
        ]

    def to_dict(self) -> dict:
        return {
            "profiles": [p.to_dict() for p in self.profiles],
            "signals_per_device": self.signals_per_device,
            "snr_db": None if math.isinf(self.snr_db) else self.snr_db,
            "capture_len": self.capture_len,
            "master_seed": self.master_seed,
            "lead_len": self.lead_len,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusConfig":
        """Inverse of ``to_dict``; a missing key or a wrong type is a FormatError."""
        fields = _json_fields(d, _CONFIG_FIELDS, "config")
        profiles = []
        for i, profile in enumerate(fields["profiles"]):
            try:
                profiles.append(DeviceProfile.from_dict(profile))
            except FormatError as exc:
                raise FormatError(f"config: profiles[{i}]: {exc}") from None
        fields["profiles"] = tuple(profiles)
        if fields["snr_db"] is None:
            fields["snr_db"] = math.inf
        return cls(**fields)


_PROFILE_FIELDS = {
    "name": _STRING,
    "kind": _STRING,
    "carrier_frac": _NUMBER,
    "bandwidth_frac": _NUMBER,
    "hop_period": _INT_OR_NULL,
    "envelope_rise": _INT,
    "modulation_index": _NUMBER,
    "device_seed": _INT,
}
_CONFIG_FIELDS = {
    "profiles": _LIST,
    "signals_per_device": _INT,
    "snr_db": _NUMBER_OR_NULL,
    "capture_len": _INT,
    "master_seed": _INT,
    "lead_len": _INT,
}


def default_profiles(capture_len: int = 4096) -> tuple[DeviceProfile, ...]:
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


def _hopped_waveform(profile: DeviceProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Frequency-hopped tone with a small in-hop FM wobble."""
    half_bw = profile.bandwidth_frac / 2.0
    fm_dev = 0.25 * half_bw * min(1.0, profile.modulation_index)
    hop_span = half_bw - fm_dev
    hop_period = profile.hop_period or n
    n_hops = n // hop_period + 2
    offsets = rng.uniform(-hop_span, hop_span, n_hops)
    start = int(rng.integers(0, hop_period))  # jittered hop phase
    idx = (np.arange(n) + start) // hop_period
    freq = profile.carrier_frac + offsets[idx]
    wobble_rate = 1.0 / max(8, hop_period // 4)
    wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
    freq = freq + fm_dev * np.sin(2.0 * np.pi * wobble_rate * np.arange(n) + wobble_phase)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * np.cumsum(freq) + phase0)


def _multitone_waveform(profile: DeviceProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Wideband burst: several tones across the band with random weights."""
    half_bw = profile.bandwidth_frac / 2.0
    freqs = profile.carrier_frac + np.linspace(-half_bw, half_bw, WIFI_TONES)
    phases = rng.uniform(0.0, 2.0 * np.pi, WIFI_TONES)
    weights = 1.0 + 0.5 * profile.modulation_index * rng.uniform(-1.0, 1.0, WIFI_TONES)
    weights = np.maximum(weights, 0.1)
    t = np.arange(n)
    w = np.zeros(n)
    for f, ph, a in zip(freqs, phases, weights):
        w += a * np.sin(2.0 * np.pi * f * t + ph)
    return w


def gen_bursts(
    profile: DeviceProfile, index: int, cfg: CorpusConfig, snrs: Sequence[float]
) -> Iterator[Signal]:
    """The burst at each SNR of ``snrs``, in order; +inf is the clean trace (``snr_db=None``).

    The trace is a quiet lead-in, a ramp and a steady carrier, drawn in a
    fixed order from (master_seed, device_seed, index). Its unit noise is
    drawn once from ``noise_seed``, which does not depend on the SNR, and
    scaled to each SNR, so each burst equals the corpus burst at that SNR.
    """
    rng = np.random.default_rng(
        derive_seed(cfg.master_seed, profile.device_seed, index, "burst")
    )
    n = cfg.burst_len
    amplitude = BASE_AMPLITUDE * (1.0 + AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0))
    if profile.hop_period is not None:
        w = _hopped_waveform(profile, n, rng)
    else:
        w = _multitone_waveform(profile, n, rng)
    w = w / np.sqrt(np.mean(w * w))

    rise = min(profile.envelope_rise, n)
    envelope = np.ones(n)
    envelope[:rise] = np.arange(1, rise + 1) / rise
    trace = np.concatenate([np.zeros(cfg.lead_len), amplitude * envelope * w])

    power = mean_power(trace)
    unit_noise = None
    if any(snr != math.inf for snr in snrs):  # a clean burst draws no noise
        noise_rng = np.random.default_rng(noise_seed(cfg, profile, index))
        unit_noise = noise_rng.standard_normal(trace.size)
    for snr in snrs:
        yield Signal(samples=_scaled_noise(trace, power, snr, unit_noise),
                     sample_rate=DEFAULT_SAMPLE_RATE, device_id=profile.name,
                     signal_class=profile.signal_class,
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


def _check_class_mix(cfg: CorpusConfig) -> None:
    recognized = sum(1 for p in cfg.profiles if p.signal_class is SignalClass.RECOGNIZED)
    uav = sum(1 for p in cfg.profiles if p.signal_class is SignalClass.UAV)
    if recognized < 2 or uav < 1:
        raise ConfigError(
            f"need >= 2 recognized and >= 1 UAV profiles, got {recognized}/{uav}"
        )


def build_corpus(cfg: CorpusConfig) -> tuple[list[Signal], list[Signal]]:
    """Generate all signals and split them by the semi-supervised protocol.

    The split is ``CorpusConfig.is_train``: recognized devices contribute
    their first train_per_device bursts to the training set and the remainder
    to evaluation; UAV devices contribute all bursts to evaluation only.
    """
    _check_class_mix(cfg)
    train: list[Signal] = []
    evaluation: list[Signal] = []
    for profile in cfg.profiles:
        for index in range(cfg.signals_per_device):
            split = train if cfg.is_train(profile, index) else evaluation
            split.append(gen_burst(profile, index, cfg))
    return train, evaluation


def balanced_eval_plan(
    cfg: CorpusConfig, per_class: int, seed: int
) -> list[tuple[DeviceProfile, int]]:
    """(profile, burst index) of a class-balanced evaluation subset, in corpus order.

    The picks are ``balanced_indices`` over the classes of ``cfg.eval_plan()``,
    so no burst is generated to choose them.
    """
    _check_class_mix(cfg)
    plan = cfg.eval_plan()
    picked = balanced_indices([p.signal_class for p, _ in plan], per_class, seed)
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
    """Per-class random split; both halves keep the original ordering."""
    if not labels:
        raise RfSentryError("cannot split an empty evaluation set")
    if not (0.0 < test_frac < 1.0):
        raise ConfigError(f"test_frac must be in (0, 1), got {test_frac}")
    picked = _pick_per_class(labels, lambda size: round(test_frac * size), seed)
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
