"""Signal model, SNR math, trigger extraction, and on-disk formats."""

import math

import numpy as np
import pytest

from rfsentry.errors import ConfigError, FormatError, InputTooShort, NoTrigger, ZeroPowerSignal
from rfsentry.signals import (
    _HEADER_STRUCT,
    MANIFEST_HEADER,
    ManifestRow,
    Signal,
    SignalClass,
    TriggerConfig,
    add_awgn,
    extract_transient,
    find_trigger,
    load_signal,
    mean_power,
    read_manifest,
    save_signal,
    write_manifest,
)


def sig(samples, **kw):
    return Signal(samples=np.asarray(samples, dtype=np.float64), sample_rate=1e6, **kw)


# -- Signal validation -------------------------------------------------------


def test_signal_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        Signal(samples=np.array([]), sample_rate=1.0)
    with pytest.raises(ValueError):
        sig([1.0, np.nan])
    with pytest.raises(ValueError):
        sig([1.0, np.inf])
    with pytest.raises(ValueError):
        Signal(samples=np.array([1.0]), sample_rate=0.0)


def test_signal_samples_immutable():
    s = sig([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.samples[0] = 9.0


def test_trigger_config_validation():
    with pytest.raises(ValueError):
        TriggerConfig(window_len=0)
    with pytest.raises(ValueError):
        TriggerConfig(energy_threshold=-0.1)
    with pytest.raises(ValueError):
        TriggerConfig(window_len=128, capture_len=64)


@pytest.mark.parametrize("kwargs", [
    dict(window_len=0), dict(capture_len=-1), dict(energy_threshold=-0.1),
    dict(energy_threshold=math.nan), dict(window_len=128, capture_len=64),
], ids=["window", "capture", "threshold", "threshold-nan", "window-over-capture"])
def test_trigger_config_errors_are_config_errors(kwargs):
    with pytest.raises(ConfigError):
        TriggerConfig(**kwargs)


# -- mean_power ---------------------------------------------------------------


def test_mean_power_examples():
    assert mean_power(sig([0, 0, 0, 0])) == 0.0
    assert mean_power(sig([1, -1, 1, -1])) == 1.0
    assert mean_power(sig([1, 2, 3, 4])) == 7.5  # (1+4+9+16)/4


# -- add_awgn -----------------------------------------------------------------


def test_add_awgn_inf_is_noiseless_passthrough():
    s = sig([1.0, 2.0, 3.0, 4.0])
    assert add_awgn(s, math.inf, seed=1) is s


def test_add_awgn_zero_power_rejected():
    with pytest.raises(ZeroPowerSignal):
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
    assert a.snr_db == 12.0
    assert a.device_id == "dev" and a.signal_class is SignalClass.UAV
    assert len(a) == len(s) and a.sample_rate == s.sample_rate
    c = add_awgn(s, 12.0, seed=78)
    assert not np.array_equal(a.samples, c.samples)


def test_add_awgn_empirical_noise_power():
    # unit-power signal, 1e5 samples, 10 dB target -> noise power 0.1 +- 5%
    rng = np.random.default_rng(3)
    s = sig(np.sign(rng.standard_normal(100_000)))
    assert mean_power(s) == 1.0
    out = add_awgn(s, 10.0, seed=11)
    noise = out.samples - s.samples
    assert abs(float(np.mean(noise**2)) - 0.1) < 0.005


def test_add_awgn_snr_within_half_db():
    rng = np.random.default_rng(4)
    s = sig(rng.standard_normal(100_000) * 2.5)
    for target in (0.0, 10.0, 30.0):
        out = add_awgn(s, target, seed=5)
        noise = out.samples - s.samples
        measured = 10.0 * math.log10(mean_power(s) / float(np.mean(noise**2)))
        assert abs(measured - target) <= 0.5


def test_add_awgn_equals_scaled_normal_draw_bit_for_bit():
    # the formula add_awgn used before its noise was split into one unit
    # draw and a per-SNR scale; every output bit must be unchanged
    def old_add_awgn(signal, snr, seed):
        noise_var = mean_power(signal) / 10.0 ** (snr / 10.0)
        rng = np.random.default_rng(seed)
        return signal.samples + rng.normal(0.0, math.sqrt(noise_var), signal.samples.size)

    s = sig(np.random.default_rng(8).standard_normal(1000) * 1.7)
    for seed in range(20):
        for snr in (-5.0, 6.0, 18.0, 30.0):
            # bytes, not ==, so that a -0.0 for 0.0 would fail too
            expected = old_add_awgn(s, snr, seed * 7919 + 3).tobytes()
            assert add_awgn(s, snr, seed * 7919 + 3).samples.tobytes() == expected


# -- trigger and capture ------------------------------------------------------


def test_find_trigger_matches_direct_scan():
    x = np.concatenate([np.zeros(10_000), np.ones(8192)])
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=4096)
    idx = find_trigger(sig(x), cfg)
    assert 10_000 - 63 <= idx <= 10_000
    # oracle: first index whose window mean-square reaches the threshold
    direct = next(
        i
        for i in range(x.size - 64 + 1)
        if np.mean(x[i : i + 64] ** 2) >= 0.25
    )
    assert idx == direct


def test_find_trigger_no_trigger_and_too_short():
    cfg = TriggerConfig(window_len=64, energy_threshold=0.25, capture_len=128)
    with pytest.raises(NoTrigger):
        find_trigger(sig(np.full(1000, 0.01)), cfg)
    with pytest.raises(InputTooShort):
        find_trigger(sig(np.ones(32)), cfg)


def test_extract_transient_immediate_trigger():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.5, capture_len=8)
    x = np.concatenate([np.ones(8), np.zeros(8)])
    out = extract_transient(sig(x), cfg)
    assert np.array_equal(out.samples, x[:8])
    assert not out.padded


def test_extract_transient_window_energy_invariant():
    # the returned slice's first window always satisfies the trigger
    rng = np.random.default_rng(9)
    cfg = TriggerConfig(window_len=16, energy_threshold=0.3, capture_len=64)
    for _ in range(25):
        lead = int(rng.integers(0, 200))
        x = np.concatenate([np.zeros(lead), rng.standard_normal(400)])
        out = extract_transient(sig(x), cfg)
        first = out.samples[: cfg.window_len]
        assert float(np.mean(first**2)) >= cfg.energy_threshold


def test_extract_transient_idempotent_on_own_output():
    rng = np.random.default_rng(10)
    cfg = TriggerConfig(window_len=16, energy_threshold=0.3, capture_len=64)
    x = np.concatenate([np.zeros(37), rng.standard_normal(300)])
    once = extract_transient(sig(x), cfg)
    twice = extract_transient(once, cfg)
    assert np.array_equal(once.samples, twice.samples)


def test_extract_transient_zero_pads_and_flags():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.5, capture_len=16)
    x = np.concatenate([np.zeros(10), np.ones(12)])
    # threshold energy is 0.5 * (12/22); the window [8..12) already clears it,
    # so the capture starts at 8 and only 14 real samples remain
    out = extract_transient(sig(x), cfg)
    assert out.padded
    assert len(out) == 16
    assert np.array_equal(out.samples[:14], x[8:22])
    assert np.all(out.samples[14:] == 0.0)


def test_extract_transient_input_too_short():
    cfg = TriggerConfig(window_len=4, energy_threshold=0.1, capture_len=64)
    with pytest.raises(InputTooShort):
        extract_transient(sig(np.ones(32)), cfg)


# -- RFSG binary format -------------------------------------------------------


def test_rfsg_round_trip(tmp_path):
    samples = np.array([0.5, -1.25, 3.0, 0.0], dtype=np.float32)
    s = Signal(samples=samples.astype(np.float64), sample_rate=100e6)
    path = tmp_path / "one.rfsg"
    save_signal(s, path)
    back = load_signal(path, device_id="d", signal_class=SignalClass.UAV, snr_db=12.0)
    # float32-representable values survive exactly
    assert np.array_equal(back.samples, s.samples)
    assert back.sample_rate == 100e6
    assert back.device_id == "d" and back.signal_class is SignalClass.UAV
    assert back.snr_db == 12.0


def test_rfsg_header_layout(tmp_path):
    path = tmp_path / "x.rfsg"
    save_signal(sig([1.0, 2.0]), path)
    raw = path.read_bytes()
    assert raw[:4] == b"RFSG"
    assert int.from_bytes(raw[4:6], "little") == 1
    assert len(raw) == 4 + 2 + 8 + 4 + 2 * 4


def test_rfsg_rejects_corrupt_files(tmp_path):
    bad_magic = tmp_path / "bad.rfsg"
    bad_magic.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ValueError):
        load_signal(bad_magic)
    truncated = tmp_path / "trunc.rfsg"
    save_signal(sig(np.ones(100)), truncated)
    truncated.write_bytes(truncated.read_bytes()[:50])
    with pytest.raises(ValueError):
        load_signal(truncated)


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
