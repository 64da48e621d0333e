"""Synthetic corpus generation and split protocol."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rfsentry import synth
from rfsentry.seeding import derive_seed, stage_seed
from rfsentry.errors import ConfigError, RfSentryError
from rfsentry.signals import Signal, SignalClass, TriggerConfig, extract_transient, find_trigger
from rfsentry.synth import (
    CorpusConfig,
    DeviceKind,
    DeviceProfile,
    balanced_eval_plan,
    balanced_indices,
    build_corpus,
    default_profiles,
    gen_burst,
    gen_bursts,
    mean_power,
    noise_seed,
    stratified_split_indices,
)

from . import oracles
from .conftest import table_from_signals


def small_cfg(**kw):
    defaults = dict(
        profiles=default_profiles(256),
        signals_per_device=6,
        capture_len=256,
        master_seed=99,
    )
    defaults.update(kw)
    return CorpusConfig(**defaults)


# -- profiles and config ------------------------------------------------------


def test_default_profiles_match_catalog_shape():
    profiles = default_profiles()
    kinds = [p.kind for p in profiles]
    assert kinds.count(DeviceKind.BLUETOOTH_LIKE) == 2
    assert kinds.count(DeviceKind.WIFI_LIKE) == 2
    assert kinds.count(DeviceKind.UAV_CONTROLLER_LIKE) == 6
    assert len({p.name for p in profiles}) == 10
    assert len({p.device_seed for p in profiles}) == 10
    for p in profiles:
        expected = (
            SignalClass.UAV
            if p.kind is DeviceKind.UAV_CONTROLLER_LIKE
            else SignalClass.RECOGNIZED
        )
        assert p.signal_class is expected


def test_profile_validation():
    with pytest.raises(ConfigError):
        DeviceProfile("x", DeviceKind.WIFI_LIKE, carrier_frac=0.45,
                      bandwidth_frac=0.2, hop_period=None, envelope_rise=8,
                      modulation_index=1.0, device_seed=1)  # aliasing: 0.45+0.1 >= 0.5
    with pytest.raises(ConfigError):
        DeviceProfile("x", DeviceKind.WIFI_LIKE, carrier_frac=0.2,
                      bandwidth_frac=0.1, hop_period=0, envelope_rise=8,
                      modulation_index=1.0, device_seed=1)
    with pytest.raises(ConfigError):
        CorpusConfig(profiles=default_profiles(), signals_per_device=0)
    wifi = default_profiles()[2]
    for index in (0.0, -1.0, math.nan, math.inf):  # NaN would pass a plain `<= 0` check
        with pytest.raises(ConfigError, match="wifi_router_a: modulation_index must be finite"):
            replace(wifi, modulation_index=index)


def test_overflowing_waveform_is_a_config_error_naming_the_profile():
    # finite tone weights whose sum overflows the float range
    cfg = small_cfg()
    wifi = replace(cfg.profiles[2], modulation_index=1e308)
    with pytest.raises(ConfigError, match="wifi_router_a: the waveform is not finite"):
        gen_burst(wifi, 0, cfg)


def test_corpus_trigger_is_the_default_trigger_at_the_capture_len():
    assert small_cfg().trigger == TriggerConfig(capture_len=256)
    assert CorpusConfig(profiles=default_profiles()).trigger == TriggerConfig()


def test_corpus_snr_is_finite_or_the_clean_sentinel():
    assert math.isinf(small_cfg(snr_db=math.inf).snr_db)
    for snr in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="snr_db must be finite or \\+inf"):
            small_cfg(snr_db=snr)


def test_default_profiles_save_load_round_trip(tmp_path):
    cfg = CorpusConfig(profiles=default_profiles())
    cfg.save(tmp_path / "corpus.json")
    assert CorpusConfig.load(tmp_path / "corpus.json").profiles == cfg.profiles


def test_corpus_config_save_load_round_trip(tmp_path):
    cfg = small_cfg()
    cfg.save(tmp_path / "corpus.json")
    assert CorpusConfig.load(tmp_path / "corpus.json") == cfg
    clean = small_cfg(snr_db=math.inf)
    clean.save(tmp_path / "clean.json")
    assert '"snr_db": null' in (tmp_path / "clean.json").read_text()
    back = CorpusConfig.load(tmp_path / "clean.json")
    assert math.isinf(back.snr_db)


def _uav(**fields):
    return replace(default_profiles(256)[-1], **fields)


def _numpy_fields():
    """small_cfg with numpy scalars in the config and in a hopped and a multitone profile."""
    bt, watch, wifi, *rest = default_profiles(256)
    bt = replace(bt, hop_period=np.int64(bt.hop_period), device_seed=np.uint32(7),
                 carrier_frac=np.float32(bt.carrier_frac))
    wifi = replace(wifi, envelope_rise=np.int16(8), modulation_index=np.float64(2.0))
    return small_cfg(profiles=[bt, watch, wifi, *rest],
                     signals_per_device=np.int64(6), snr_db=np.float32(20.0),
                     capture_len=np.int32(256), master_seed=np.int64(99), lead_len=np.int8(40))


# Records that take an argument of the wrong type refuse it, and the ones
# that take numpy scalars store Python values, so save writes what load reads
RECORD_CASES = {
    "profile-kind-text": (lambda: _uav(kind="uav_controller"),
                          "uav_ctrl_f: kind must be a DeviceKind, got 'uav_controller'"),
    "profile-seed-float": (lambda: _uav(device_seed=1.5),
                           "uav_ctrl_f: device_seed must be an integer, got 1.5"),
    "profile-hop-float": (lambda: _uav(hop_period=2.5),
                          "uav_ctrl_f: hop_period must be an integer, got 2.5"),
    "profile-carrier-text": (lambda: _uav(carrier_frac="a"),
                             "uav_ctrl_f: carrier_frac must be a number, got 'a'"),
    "config-seed-float": (lambda: small_cfg(master_seed=1.5),
                          "master_seed must be an integer, got 1.5"),
    "config-count-float": (lambda: small_cfg(signals_per_device=2.5),
                           "signals_per_device must be an integer, got 2.5"),
    "config-count-text": (lambda: small_cfg(signals_per_device="3"),
                          "signals_per_device must be an integer, got '3'"),
    "config-snr-text": (lambda: small_cfg(snr_db="30"), "snr_db must be a number, got '30'"),
    "profile-name-int": (lambda: _uav(name=1), "profile name must be a string, got 1"),
    "config-profile-text": (lambda: small_cfg(profiles=[*default_profiles(256), "uav"]),
                            "profiles must be a list or tuple of DeviceProfile"),
    "signal-class-text": (lambda: Signal(samples=[1.0], signal_class="uav"),
                          "signal_class must be a SignalClass, got 'uav'"),
    "numpy-fields": (_numpy_fields, None),
}


@pytest.mark.parametrize("case", RECORD_CASES)
def test_corpus_records_take_the_argument_rules(tmp_path, case):
    build, message = RECORD_CASES[case]
    if message is not None:
        with pytest.raises(ConfigError, match=message):
            build()
        return
    cfg = build()
    assert type(cfg.snr_db) is float and type(cfg.profiles[0].hop_period) is int
    cfg.save(tmp_path / "corpus.json")
    assert CorpusConfig.load(tmp_path / "corpus.json") == cfg


def test_integer_fields_beyond_int64_are_refused_where_they_are_built(tmp_path):
    # save would write what load refuses, so the constructor refuses it
    with pytest.raises(ConfigError, match="master_seed is beyond int64 range"):
        CorpusConfig(default_profiles(256), capture_len=256, master_seed=2**63)
    with pytest.raises(ConfigError, match="bt_phone: device_seed is beyond int64 range"):
        replace(default_profiles(256)[0], device_seed=-2**63 - 1)
    cfg = CorpusConfig(default_profiles(256), capture_len=256, master_seed=2**63 - 1)
    cfg.save(tmp_path / "corpus.json")
    assert CorpusConfig.load(tmp_path / "corpus.json") == cfg


def test_hop_period_longer_than_the_burst_is_rejected():
    cfg = small_cfg()
    assert cfg.burst_len == 288
    bt = cfg.profiles[0]
    assert bt.hop_period is not None
    for hop in (cfg.burst_len, cfg.burst_len - 1):  # at most the burst length is valid
        small_cfg(profiles=(replace(bt, hop_period=hop), *cfg.profiles[1:]))
    for hop in (cfg.burst_len + 1, 10**9, 2**62, 2**63 - 1):
        with pytest.raises(ConfigError, match=f"bt_phone: hop_period must not exceed the "
                                              f"burst length 288, got {hop}"):
            small_cfg(profiles=(replace(bt, hop_period=hop), *cfg.profiles[1:]))


def test_train_per_device_ratio():
    assert CorpusConfig(profiles=default_profiles()).train_per_device == 200
    assert small_cfg(signals_per_device=10).train_per_device == 7  # 7/3 of 10
    assert small_cfg(signals_per_device=300).train_per_device == 200


# -- noise helpers and burst generation ---------------------------------------


def test_mean_power_examples():
    assert mean_power(np.array([0.0, 0.0, 0.0, 0.0])) == 0.0
    assert mean_power(np.array([1.0, -1.0, 1.0, -1.0])) == 1.0
    assert mean_power(np.array([1.0, 2.0, 3.0, 4.0])) == 7.5  # (1+4+9+16)/4


def test_gen_burst_deterministic():
    cfg = small_cfg()
    p = cfg.profiles[0]
    a = gen_burst(p, 3, cfg)
    b = gen_burst(p, 3, cfg)
    assert np.array_equal(a.samples, b.samples)
    c = gen_burst(p, 4, cfg)
    assert not np.array_equal(a.samples, c.samples)


def test_gen_burst_metadata_and_length():
    cfg = small_cfg()
    for p in cfg.profiles:
        s = gen_burst(p, 0, cfg)
        assert s.device_id == p.name
        assert s.signal_class is p.signal_class
        assert s.snr_db == cfg.snr_db
        assert len(s) == cfg.lead_len + cfg.burst_len


def test_gen_burst_envelope_ramps_up():
    # early ramp is quieter than steady state
    cfg = small_cfg(snr_db=math.inf)
    for p in cfg.profiles:
        s = gen_burst(p, 1, cfg)
        onset = s.samples[cfg.lead_len : cfg.lead_len + max(1, p.envelope_rise // 4)]
        steady = s.samples[cfg.lead_len + p.envelope_rise :]
        assert float(np.mean(onset**2)) < float(np.mean(steady**2))


def test_gen_burst_triggers_cleanly():
    cfg = small_cfg()
    trigger = TriggerConfig(window_len=16, energy_threshold=0.05, capture_len=256)
    for p in cfg.profiles:
        burst = gen_burst(p, 2, cfg)
        start = find_trigger(burst, trigger)
        out = extract_transient(burst, trigger)
        assert out.shape == (256,)
        # the whole capture is signal: no zero-filled tail
        assert start + 256 <= len(burst)
        assert np.array_equal(out, burst.samples[start : start + 256])


def test_gen_burst_steady_state_power_is_normalized():
    # clean bursts share the per-signal amplitude scale (RMS-normalized carrier)
    cfg = small_cfg(snr_db=math.inf)
    powers = [
        mean_power(gen_burst(p, i, cfg).samples)
        for p in cfg.profiles
        for i in range(2)
    ]
    # amplitude jitter is +/-10%, so the spread stays well under the ~10x
    # gap unnormalized multitone vs single-tone waveforms would show
    assert max(powers) / min(powers) < 1.8


# -- corpus assembly ----------------------------------------------------------


def test_build_corpus_full_scale_shape():
    cfg = CorpusConfig(profiles=default_profiles(256), signals_per_device=300,
                       capture_len=256, master_seed=1)
    train, evaluation = build_corpus(cfg)
    assert len(train) == 800
    rec = [s for s in evaluation if s.signal_class is SignalClass.RECOGNIZED]
    uav = [s for s in evaluation if s.signal_class is SignalClass.UAV]
    assert len(rec) == 400 and len(uav) == 1800
    assert all(s.signal_class is SignalClass.RECOGNIZED for s in train)


def test_build_corpus_small_split():
    train, evaluation = build_corpus(small_cfg(signals_per_device=10))
    # 7/3 per recognized device; UAV eval-only
    assert len(train) == 4 * 7
    assert sum(1 for s in train if s.signal_class is SignalClass.UAV) == 0
    assert len(evaluation) == 4 * 3 + 6 * 10


def test_build_corpus_requires_class_mix():
    recognized_only = [p for p in default_profiles(256) if p.signal_class is SignalClass.RECOGNIZED]
    with pytest.raises(ConfigError):
        build_corpus(small_cfg(profiles=tuple(recognized_only)))


@pytest.mark.parametrize("keep, got", [
    (lambda i, p: p.signal_class is SignalClass.RECOGNIZED, "4/0"),
    (lambda i, p: p.signal_class is SignalClass.UAV or i == 0, "1/6"),
], ids=["recognized-only", "one-recognized"])
def test_corpus_config_requires_class_mix(keep, got):
    profiles = tuple(p for i, p in enumerate(default_profiles(256)) if keep(i, p))
    with pytest.raises(ConfigError, match=f"need >= 2 recognized and >= 1 UAV profiles, got {got}"):
        small_cfg(profiles=profiles)


def test_build_corpus_regeneration_is_bit_identical():
    cfg = small_cfg()
    a_train, a_eval = build_corpus(cfg)
    b_train, b_eval = build_corpus(cfg)
    for x, y in zip(a_train + a_eval, b_train + b_eval):
        assert np.array_equal(x.samples, y.samples)


def test_clean_bursts_reproduce_corpus_noise():
    """Re-noising a clean eval burst with its noise seed reproduces the corpus."""
    cfg = small_cfg()
    _, evaluation = build_corpus(cfg)
    _, plan = cfg.split()
    assert len(plan) == len(evaluation)
    clean_cfg = replace(cfg, snr_db=math.inf)
    for stored, (profile, index) in zip(evaluation, plan):
        ref = gen_burst(profile, index, clean_cfg)
        assert ref.snr_db is None
        unit_noise = np.random.default_rng(noise_seed(cfg, profile, index)).standard_normal(
            ref.samples.size)
        renoised = oracles.noisy_burst(ref.samples, cfg.snr_db, unit_noise)
        assert np.array_equal(renoised, stored.samples)
        assert ref.device_id == stored.device_id


@pytest.mark.parametrize("snrs", [
    [math.inf], [30.0], [6.0, 18.0, 30.0], [18.0, -3.0, math.inf, 30.0, 6.0, 18.0], [],
], ids=["clean", "corpus", "sorted", "unsorted", "empty"])
def test_gen_bursts_equal_corpus_bursts_at_each_snr(snrs):
    # one clean trace and one noise draw per burst give, at every SNR, the
    # burst a corpus at that SNR would hold
    cfg = small_cfg()
    assert cfg.snr_db == 30.0
    for profile in (cfg.profiles[0], cfg.profiles[2], cfg.profiles[-1]):
        for index in (0, 5):
            got = list(gen_bursts(profile, index, cfg, snrs))
            assert len(got) == len(snrs)
            for snr, burst in zip(snrs, got):
                want = gen_burst(profile, index, replace(cfg, snr_db=snr))
                assert burst.samples.tobytes() == want.samples.tobytes()
                assert (burst.device_id, burst.signal_class, burst.snr_db) == (
                    want.device_id, want.signal_class, want.snr_db)
                assert burst.snr_db == (None if snr == math.inf else snr)


@pytest.mark.parametrize("capture_len", [64, 256, 4096])
def test_bursts_match_the_plain_array_recipe(capture_len):
    # the library assembles each burst in place; the oracle makes a new array
    # per step, so equal bytes mean no step was reordered or fused
    cfg = CorpusConfig(profiles=default_profiles(capture_len), capture_len=capture_len,
                       master_seed=stage_seed(0, "corpus"))
    for profile in cfg.profiles:
        for index in (0, 1, 299):
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, profile.device_seed, index, "burst"))
            clean = oracles.clean_burst(profile, cfg.burst_len, cfg.lead_len, rng)
            unit_noise = np.random.default_rng(
                noise_seed(cfg, profile, index)).standard_normal(clean.size)
            corpus = oracles.noisy_burst(clean, cfg.snr_db, unit_noise)
            assert gen_burst(profile, index, cfg).samples.tobytes() == corpus.tobytes()
            snrs = [6.0, 18.0, math.inf]
            got = [burst.samples.tobytes() for burst in gen_bursts(profile, index, cfg, snrs)]
            assert got == [oracles.noisy_burst(clean, snr, unit_noise).tobytes()
                           for snr in snrs]


def test_noise_seed_is_snr_independent():
    cfg30 = small_cfg(snr_db=30.0)
    cfg10 = small_cfg(snr_db=10.0)
    p = cfg30.profiles[0]
    assert noise_seed(cfg30, p, 5) == noise_seed(cfg10, p, 5)


# -- splits -------------------------------------------------------------------


def test_stratified_split_full_scale_counts():
    labels = [SignalClass.RECOGNIZED] * 400 + [SignalClass.UAV] * 1800
    test_idx, val_idx = stratified_split_indices(labels, 0.7, seed=11)
    assert len(test_idx) == 1540 and len(val_idx) == 660
    rec_test = sum(1 for i in test_idx if labels[i] is SignalClass.RECOGNIZED)
    assert rec_test == 280  # 70% of 400, exact here
    assert sorted(test_idx + val_idx) == list(range(2200))
    assert set(test_idx).isdisjoint(val_idx)


def test_stratified_split_smallest_case():
    labels = [SignalClass.UAV, SignalClass.UAV]
    test_idx, val_idx = stratified_split_indices(labels, 0.5, seed=2)
    assert len(test_idx) == 1 and len(val_idx) == 1


def test_stratified_split_validation():
    with pytest.raises(RfSentryError, match="cannot split an empty evaluation set"):
        stratified_split_indices([], 0.7, seed=1)
    with pytest.raises(ValueError):
        stratified_split_indices([SignalClass.UAV], 1.0, seed=1)
    with pytest.raises(ConfigError, match="test_frac must be in"):
        stratified_split_indices([SignalClass.UAV], math.nan, seed=1)


def test_stratified_split_deterministic():
    labels = ([SignalClass.RECOGNIZED] * 40) + ([SignalClass.UAV] * 60)
    a = stratified_split_indices(labels, 0.7, seed=4)
    b = stratified_split_indices(labels, 0.7, seed=4)
    c = stratified_split_indices(labels, 0.7, seed=5)
    assert a == b
    assert a != c


def test_balanced_indices():
    labels = [SignalClass.RECOGNIZED] * 50 + [SignalClass.UAV] * 300
    picked = balanced_indices(labels, 40, seed=6)
    assert len(picked) == 80
    rec = sum(1 for i in picked if labels[i] is SignalClass.RECOGNIZED)
    assert rec == 40
    with pytest.raises(ConfigError):
        balanced_indices(labels, 60, seed=6)
    for per_class in (0, -2):
        with pytest.raises(ConfigError, match="per_class must be at least 1"):
            balanced_indices(labels, per_class, seed=6)


# One mixed label list, 12 recognized and 8 UAV, and the indices each picker
# returned for it before the two shared one per-class loop.
_R, _U = SignalClass.RECOGNIZED, SignalClass.UAV
_MIXED = [_R, _U, _R, _R, _U, _R, _U, _U, _R, _R, _U, _R, _R, _U, _R, _R, _U, _R, _U, _R]


@pytest.mark.parametrize("seed, test_idx, val_idx", [
    (0, [0, 1, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 18, 19], [2, 10, 11, 13, 14, 17]),
    (13, [0, 1, 2, 3, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18], [4, 5, 6, 15, 17, 19]),
])
def test_stratified_split_indices_are_pinned(seed, test_idx, val_idx):
    assert stratified_split_indices(_MIXED, 0.7, seed) == (test_idx, val_idx)


@pytest.mark.parametrize("seed, picked", [
    (0, [3, 4, 6, 7, 8, 12, 15, 18]),
    (13, [0, 1, 2, 7, 9, 10, 11, 18]),
])
def test_balanced_indices_are_pinned(seed, picked):
    assert balanced_indices(_MIXED, 4, seed) == picked


def test_balanced_indices_name_the_short_class():
    with pytest.raises(ConfigError, match="need 9 uav signals for a balanced set, got 8"):
        balanced_indices(_MIXED, 9, seed=0)
    with pytest.raises(ConfigError, match="need 1 recognized signals for a balanced set, got 0"):
        balanced_indices([_U] * 3, 1, seed=0)


def test_balanced_eval_plan_picks_without_generating(mini_cfg, monkeypatch):
    # the picks are balanced_indices over the generated evaluation split, seeded
    # with the corpus's balanced stage seed
    _, evaluation = build_corpus(mini_cfg)
    picked = balanced_indices([sig.signal_class for sig in evaluation], 10,
                              stage_seed(mini_cfg.master_seed, "balanced"))
    calls = []
    monkeypatch.setattr(synth, "gen_bursts", lambda *a: calls.append(a) or gen_bursts(*a))
    plan = balanced_eval_plan(mini_cfg, 10)
    assert calls == []
    _, eval_plan = mini_cfg.split()
    assert plan == [eval_plan[i] for i in picked]
    assert len(plan) == 20
    assert [p.name for p, _ in plan] == [evaluation[i].device_id for i in picked]


def test_split_states_the_rule(mini_cfg):
    # a recognized device's first train_per_device bursts train; every other
    # burst, and every UAV burst, is evaluation; each half in corpus order
    every = [(p, i) for p in mini_cfg.profiles for i in range(mini_cfg.signals_per_device)]
    train, evaluation = mini_cfg.split()
    assert train == [(p, i) for p, i in every
                     if p.signal_class is SignalClass.RECOGNIZED and i < mini_cfg.train_per_device]
    assert evaluation == [pair for pair in every if pair not in train]
    assert len(train) == 4 * 8 and len(evaluation) == 4 * 4 + 6 * 12


def test_split_rule_matches_the_corpus(mini_cfg):
    train, evaluation = build_corpus(mini_cfg)
    for plan, bursts in zip(mini_cfg.split(), (train, evaluation)):
        assert [(p.name, p.signal_class) for p, _ in plan] == [
            (s.device_id, s.signal_class) for s in bursts
        ]
        for (profile, index), burst in zip(plan, bursts):
            assert np.array_equal(gen_burst(profile, index, mini_cfg).samples, burst.samples)


# -- separability sanity ------------------------------------------------------


def test_uav_fingerprints_are_far_from_recognized(mini_cfg):
    trigger = mini_cfg.trigger
    train, evaluation = build_corpus(mini_cfg)
    table = table_from_signals(train + evaluation, trigger)
    m = np.asarray(table.matrix)
    rec = m[[c is SignalClass.RECOGNIZED for c in table.classes]]
    uav = m[[c is SignalClass.UAV for c in table.classes]]
    # high-band packet variances dominate only for UAV-class bursts
    assert float(np.median(uav[:, 2] + uav[:, 3])) > 5.0 * float(
        np.median(rec[:, 2] + rec[:, 3])
    )
