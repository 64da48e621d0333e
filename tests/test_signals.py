"""Signal model, trigger extraction, on-disk formats, and the noise step on a signal."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from rfsentry import synth
from rfsentry.errors import ConfigError, FormatError, RfSentryError
from rfsentry.signals import (
    _HEADER_STRUCT,
    MANIFEST_HEADER,
    ManifestRow,
    Signal,
    SignalClass,
    TriggerConfig,
    extract_transient,
    find_trigger,
    load_signal,
    read_manifest,
    save_signals,
    write_manifest,
)
from rfsentry.synth import CorpusConfig, default_profiles, gen_bursts

from . import oracles
from .conftest import traced_peak


def sig(samples, **kw):
    return Signal(samples=np.asarray(samples, dtype=np.float64), **kw)


# -- Signal validation -------------------------------------------------------


def test_signal_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Signal(samples=np.array([]))
    with pytest.raises(ValueError):
        sig([1.0, np.nan])
    with pytest.raises(ValueError):
        sig([1.0, np.inf])


def test_signal_samples_immutable():
    s = sig([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.samples[0] = 9.0


def test_signal_stores_a_read_only_view_of_the_callers_array():
    # uncopied, and the caller's float64 array stays writable
    x = np.ones(8)
    s = Signal(samples=x)
    assert x.flags.writeable and not s.samples.flags.writeable
    assert np.shares_memory(x, s.samples)
    x[0] = 2.0


def test_trigger_config_validation():
    with pytest.raises(ValueError):
        TriggerConfig(window_len=0)
    with pytest.raises(ValueError):
        TriggerConfig(energy_threshold=-0.1)
    with pytest.raises(ValueError, match="window_len 128 must not exceed capture_len 64"):
        TriggerConfig(window_len=128, capture_len=64)
    # the packet transform's minimum, checked before the default window's fit
    with pytest.raises(ConfigError, match="capture_len must be at least 4, the two-level packet "
                                          "transform's minimum, got 3"):
        TriggerConfig(capture_len=3)


@pytest.mark.parametrize("kwargs", [
    dict(window_len=0), dict(capture_len=-1), dict(energy_threshold=-0.1),
    dict(energy_threshold=math.nan), dict(window_len=128, capture_len=64),
], ids=["window", "capture", "threshold", "threshold-nan", "window-over-capture"])
def test_trigger_config_errors_are_config_errors(kwargs):
    with pytest.raises(ConfigError):
        TriggerConfig(**kwargs)


# -- AWGN: the noise step of synth.gen_bursts ----------------------------------


def add_awgn(signal, snr, seed):
    """``signal`` with synth's noise step applied at ``snr``, from the unit draw of ``seed``."""
    x = signal.samples
    unit_noise = np.random.default_rng(seed).standard_normal(x.size)
    return replace(signal, samples=synth._scaled_noise(x, synth.mean_power(x), snr, unit_noise),
                   snr_db=float(snr))


def oracle_awgn(signal, snr, seed):
    """The same noise as plain array code (``tests/oracles.py``)."""
    unit_noise = np.random.default_rng(seed).standard_normal(signal.samples.size)
    return oracles.noisy_burst(signal.samples, snr, unit_noise)


def test_add_awgn_inf_is_noiseless_passthrough():
    x = sig([1.0, 2.0, 3.0, 4.0]).samples
    assert synth._scaled_noise(x, synth.mean_power(x), math.inf, None) is x


def test_add_awgn_zero_power_rejected():
    with pytest.raises(RfSentryError, match="cannot set an SNR on an all-zero signal"):
        add_awgn(sig([0.0, 0.0]), 30.0, seed=1)


@pytest.mark.parametrize("snr", [-math.inf, -3300.0, 4000.0, math.nan])
def test_add_awgn_rejects_snr_out_of_float_range(snr):
    # 10^(snr/10) overflows above about 3,080 dB; far enough below -3,000 dB
    # it is 0, or the noise variance overflows
    with pytest.raises(ConfigError, match="out of range"):
        add_awgn(sig([1.0, 2.0]), snr, seed=1)


def test_add_awgn_deterministic_and_metadata():
    s = sig([1.0, -1.0] * 50, device_id="dev", signal_class=SignalClass.UAV)
    a = add_awgn(s, 12.0, seed=77)
    b = add_awgn(s, 12.0, seed=77)
    assert np.array_equal(a.samples, b.samples)
    c = add_awgn(s, 12.0, seed=78)
    assert not np.array_equal(a.samples, c.samples)
    # gen_bursts sets the metadata of each noisy burst it yields
    cfg = CorpusConfig(default_profiles(256), capture_len=256)
    profile = next(p for p in cfg.profiles if p.signal_class is SignalClass.UAV)
    clean, a, b = gen_bursts(profile, 4, cfg, [math.inf, 12.0, 12.0])
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, clean.samples)
    assert a.snr_db == 12.0
    assert a.device_id == profile.name and a.signal_class is SignalClass.UAV
    assert len(a) == len(clean)


def test_add_awgn_empirical_noise_power():
    # unit-power signal, 1e5 samples, 10 dB target -> noise power 0.1 +- 5%
    rng = np.random.default_rng(3)
    s = sig(np.sign(rng.standard_normal(100_000)))
    assert synth.mean_power(s.samples) == 1.0
    out = add_awgn(s, 10.0, seed=11)
    assert out.samples.tobytes() == oracle_awgn(s, 10.0, seed=11).tobytes()
    noise = out.samples - s.samples
    assert abs(float(np.mean(noise**2)) - 0.1) < 0.005


def test_add_awgn_snr_within_half_db():
    rng = np.random.default_rng(4)
    s = sig(rng.standard_normal(100_000) * 2.5)
    for target in (0.0, 10.0, 30.0):
        out = add_awgn(s, target, seed=5)
        assert out.samples.tobytes() == oracle_awgn(s, target, seed=5).tobytes()
        noise = out.samples - s.samples
        measured = 10.0 * math.log10(synth.mean_power(s.samples) / float(np.mean(noise**2)))
        assert abs(measured - target) <= 0.5


def test_add_awgn_equals_scaled_normal_draw_bit_for_bit():
    # the formula the noise step used before it was split into one unit draw
    # and a per-SNR scale; every output bit must be unchanged
    def old_add_awgn(signal, snr, seed):
        noise_var = synth.mean_power(signal.samples) / 10.0 ** (snr / 10.0)
        rng = np.random.default_rng(seed)
        return signal.samples + rng.normal(0.0, math.sqrt(noise_var), signal.samples.size)

    s = sig(np.random.default_rng(8).standard_normal(1000) * 1.7)
    for seed in range(20):
        for snr in (-5.0, 6.0, 18.0, 30.0):
            # bytes, not ==, so that a -0.0 for 0.0 would fail too
            expected = old_add_awgn(s, snr, seed * 7919 + 3).tobytes()
            assert add_awgn(s, snr, seed * 7919 + 3).samples.tobytes() == expected
            assert oracle_awgn(s, snr, seed * 7919 + 3).tobytes() == expected


# -- trigger and capture ------------------------------------------------------


def direct_scan(x, window_len, threshold):
    """The first index whose window mean-square reaches ``threshold``, window by window."""
    return next((i for i in range(x.size - window_len + 1)
                 if np.mean(x[i : i + window_len] ** 2) >= threshold), None)


def test_find_trigger_matches_direct_scan():
    x = np.concatenate([np.zeros(10_000), np.ones(8192)])
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=4096)
    idx = find_trigger(sig(x), cfg)
    assert 10_000 - 63 <= idx <= 10_000
    assert idx == direct_scan(x, 64, 0.25)


# the scan covers 16 * 64 = 1,024 samples first, then 2,048, 4,096, ...
@pytest.mark.parametrize("prefix", [1024, 2048, 4096])
@pytest.mark.parametrize("from_end", [65, 64, 63, 1])
def test_find_trigger_at_prefix_edges_matches_direct_scan(prefix, from_end):
    # a step at `onset` fills a quarter of the window starting 48 samples before
    # it, so the first hitting window starts at prefix - from_end: the last one
    # inside the prefix at from_end=64, and one the prefix cuts at 63 and 1
    first = prefix - from_end
    onset = first + 48
    x = np.concatenate([np.zeros(onset), np.ones(prefix + 1000)])
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=4096)
    assert find_trigger(sig(x), cfg) == direct_scan(x, 64, 0.25) == first


def test_find_trigger_beyond_the_doubled_prefixes():
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=128)
    # only the last window of a 5,000-sample trace holds the burst
    x = np.zeros(5000)
    x[-1] = 8.0
    assert find_trigger(sig(x), cfg) == direct_scan(x, 64, 0.25) == 5000 - 64
    # a 5,000-sample trace that never triggers: the last prefix is the trace
    with pytest.raises(RfSentryError, match="no window reached the energy threshold"):
        find_trigger(sig(np.full(5000, 0.49)), cfg)
    # a window of 100 has a first prefix of 1,600 samples, past a 700-sample trace
    wide = TriggerConfig(window_len=100, energy_threshold=0.25, capture_len=128)
    x = np.concatenate([np.zeros(500), np.ones(200)])
    assert find_trigger(sig(x), wide) == direct_scan(x, 100, 0.25) == 425
    with pytest.raises(RfSentryError, match="no window reached the energy threshold"):
        find_trigger(sig(np.zeros(700)), wide)


def test_find_trigger_no_trigger_and_too_short():
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=128)
    with pytest.raises(RfSentryError, match="no window reached the energy threshold"):
        find_trigger(sig(np.full(1000, 0.01)), cfg)
    with pytest.raises(RfSentryError, match="need at least 64 samples, got 32"):
        find_trigger(sig(np.ones(32)), cfg)


def test_extract_transient_immediate_trigger():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.5, capture_len=8)
    x = np.concatenate([np.ones(8), np.zeros(8)])
    out = extract_transient(sig(x), cfg)
    assert out.shape == (8,)
    assert np.array_equal(out, x[:8])


def test_extract_transient_window_energy_invariant():
    # the returned slice's first window always satisfies the trigger
    rng = np.random.default_rng(9)
    cfg = TriggerConfig(window_len=16, energy_threshold=0.3, capture_len=64)
    for _ in range(25):
        lead = int(rng.integers(0, 200))
        x = np.concatenate([np.zeros(lead), rng.standard_normal(400)])
        out = extract_transient(sig(x), cfg)
        first = out[: cfg.window_len]
        assert float(np.mean(first**2)) >= cfg.energy_threshold


def test_extract_transient_idempotent_on_own_output():
    rng = np.random.default_rng(10)
    cfg = TriggerConfig(window_len=16, energy_threshold=0.3, capture_len=64)
    x = np.concatenate([np.zeros(37), rng.standard_normal(300)])
    once = extract_transient(sig(x), cfg)
    twice = extract_transient(sig(once), cfg)
    assert np.array_equal(once, twice)


def test_extract_transient_zero_pads_and_flags():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.5, capture_len=16)
    x = np.concatenate([np.zeros(10), np.ones(12)])
    # threshold energy is 0.5 * (12/22); the window [8..12) already clears it,
    # so the capture starts at 8 and only 14 real samples remain
    out = extract_transient(sig(x), cfg)
    assert out.shape == (16,)
    assert np.array_equal(out[:14], x[8:22])
    assert np.all(out[14:] == 0.0)


def test_extract_transient_input_too_short():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.1, capture_len=64)
    with pytest.raises(RfSentryError, match="need at least capture_len=64 samples, got 32"):
        extract_transient(sig(np.ones(32)), cfg)


# -- RFSG binary format -------------------------------------------------------


def test_rfsg_round_trip(tmp_path):
    samples = np.array([0.5, -1.25, 3.0, 0.0], dtype=np.float32)
    s = Signal(samples=samples.astype(np.float64))
    path = tmp_path / "one.rfsg"
    save_signals([(s, path)])
    back = load_signal(path)
    # float32-representable values survive exactly
    assert np.array_equal(back.samples, s.samples)
    # every trace's header holds the one RFSG sample rate
    assert _HEADER_STRUCT.unpack(path.read_bytes()[:_HEADER_STRUCT.size])[2] == 100e6


def test_rfsg_header_layout(tmp_path):
    path = tmp_path / "x.rfsg"
    save_signals([(sig([1.0, 2.0]), path)])
    raw = path.read_bytes()
    assert raw[:4] == b"RFSG"
    assert int.from_bytes(raw[4:6], "little") == 1
    assert len(raw) == 4 + 2 + 8 + 4 + 2 * 4


def test_save_signals_writes_each_trace_to_its_path(tmp_path):
    traces = [sig(np.linspace(-1.0, 1.0, 50 + i)) for i in range(5)]
    before = threading.active_count()
    save_signals((s, tmp_path / f"{i}.rfsg") for i, s in enumerate(traces))
    save_signals([])
    assert threading.active_count() == before
    for i, s in enumerate(traces):
        written = (tmp_path / f"{i}.rfsg").read_bytes()
        assert written[_HEADER_STRUCT.size:] == s.samples.astype("<f4").tobytes()


def test_save_signals_hands_each_trace_to_its_own_file_under_constant_switching(tmp_path):
    # a thread switch at almost every bytecode: a hand-over that raced would
    # write a trace to another's file, or lose one; the join is time-bounded
    traces = [sig(np.full(16, float(i + 1))) for i in range(300)]
    items = ((s, tmp_path / f"{i}.rfsg") for i, s in enumerate(traces))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=save_signals, args=(items,))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    for i, s in enumerate(traces):
        assert np.array_equal(load_signal(tmp_path / f"{i}.rfsg").samples, s.samples)


def test_save_signals_stops_at_a_file_it_cannot_write(tmp_path):
    # the third path is a directory: its OSError reaches the caller, naming
    # it, and no later file is written
    (tmp_path / "t2.rfsg").mkdir()
    before = threading.active_count()
    with pytest.raises(IsADirectoryError) as err:
        save_signals((sig(np.ones(8)), tmp_path / f"t{i}.rfsg") for i in range(5))
    assert err.value.filename == str(tmp_path / "t2.rfsg")
    assert threading.active_count() == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["t0.rfsg", "t1.rfsg"]


def test_save_signals_rejects_a_sample_beyond_float32_range(tmp_path):
    # float32 would store 1e300 as inf, which load_signal rejects
    largest = float(np.finfo(np.float32).max)
    save_signals([(sig([-largest, largest]), tmp_path / "edge.rfsg")])
    assert load_signal(tmp_path / "edge.rfsg").samples.tolist() == [-largest, largest]
    before = threading.active_count()
    for sample in (1e300, -1e300):
        with pytest.raises(ConfigError, match="a sample is beyond the float32 range"):
            save_signals([(sig([1.0, sample]), tmp_path / "big.rfsg")])
    assert threading.active_count() == before
    assert [p.name for p in tmp_path.iterdir()] == ["edge.rfsg"]


def test_rfsg_rejects_corrupt_files(tmp_path):
    bad_magic = tmp_path / "bad.rfsg"
    bad_magic.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        load_signal(bad_magic)
    truncated = tmp_path / "trunc.rfsg"
    save_signals([(sig(np.ones(100)), truncated)])
    truncated.write_bytes(truncated.read_bytes()[:50])
    with pytest.raises(ValueError):
        load_signal(truncated)
    # a count field of 2**32 - 1 would have read() allocate ~17 GB first
    huge = tmp_path / "huge.rfsg"
    huge.write_bytes(_HEADER_STRUCT.pack(b"RFSG", 1, 1e6, 0xFFFFFFFF) + bytes(40))

    def load_huge():
        with pytest.raises(FormatError, match="expected 4294967295 samples, file truncated"):
            load_signal(huge)

    assert traced_peak(load_huge) < 1 << 20


def _rfsg(header=(b"RFSG", 1, 1e6, 4), samples=(1.0, 2.0, 3.0, 4.0)) -> bytes:
    return _HEADER_STRUCT.pack(*header) + np.array(samples, dtype="<f4").tobytes()


@pytest.mark.parametrize("data, message", [
    (_rfsg()[:10], "truncated RFSG header"),
    (_rfsg(header=(b"RFSX", 1, 1e6, 4)), "bad magic"),
    (_rfsg(header=(b"RFSG", 2, 1e6, 4)), "unsupported format version 2"),
    (_rfsg()[:-1], "expected 4 samples, file truncated"),
    (_rfsg(header=(b"RFSG", 1, 1e6, 0), samples=()), "holds no samples"),
    (_rfsg(header=(b"RFSG", 1, 0.0, 4)), "sample rate 0.0 is not a positive number"),
    (_rfsg(header=(b"RFSG", 1, -1e6, 4)), "is not a positive number"),
    (_rfsg(header=(b"RFSG", 1, math.inf, 4)), "sample rate inf is not"),
    (_rfsg(header=(b"RFSG", 1, math.nan, 4)), "sample rate nan is not"),
    (_rfsg(samples=(1.0, math.nan, 3.0, 4.0)), "holds non-finite samples"),
    (_rfsg(samples=(1.0, 2.0, -math.inf, 4.0)), "holds non-finite samples"),
], ids=["header", "magic", "version", "samples", "count-0", "rate-0", "rate-negative",
        "rate-inf", "rate-nan", "nan-sample", "inf-sample"])
def test_rfsg_format_errors_name_the_file(tmp_path, data, message):
    path = tmp_path / "bad.rfsg"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=message) as info:
        load_signal(path)
    assert str(path) in str(info.value)


# -- manifest CSV -------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    rows = [
        ManifestRow("signals/a.rfsg", "bt_phone", SignalClass.RECOGNIZED, 30.0),
        ManifestRow("signals/b.rfsg", "uav_ctrl_a", SignalClass.UAV, None),
    ]
    path = tmp_path / "manifest.csv"
    write_manifest(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(MANIFEST_HEADER)
    assert read_manifest(path) == rows


def test_manifest_rejects_a_nul_byte_in_a_path(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("path,device_id,class,snr_db\nsignals/a\0b.rfsg,a,uav,30.0\n")
    with pytest.raises(FormatError, match="m.csv:2: path .* holds a NUL byte"):
        read_manifest(path)


def test_manifest_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_manifest(path)
