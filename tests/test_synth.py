"""Synthetic corpus generation and split protocol."""

import math

import numpy as np
import pytest

from rfsentry import synth
from rfsentry.errors import ConfigError, EmptyEval
from rfsentry.signals import SignalClass, TriggerConfig, add_awgn, extract_transient, mean_power
from rfsentry.synth import (
    CorpusConfig,
    DeviceKind,
    DeviceProfile,
    balanced_clean_eval,
    balanced_indices,
    build_corpus,
    clean_eval_signals,
    default_profiles,
    gen_burst,
    noise_seed,
    stratified_split_indices,
)

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


def test_corpus_snr_is_finite_or_the_clean_sentinel():
    assert math.isinf(small_cfg(snr_db=math.inf).snr_db)
    for snr in (math.nan, -math.inf):
        with pytest.raises(ConfigError, match="snr_db must be finite or \\+inf"):
            small_cfg(snr_db=snr)


def test_profile_dict_round_trip():
    for p in default_profiles():
        assert DeviceProfile.from_dict(p.to_dict()) == p


def test_corpus_config_dict_round_trip():
    cfg = small_cfg()
    assert CorpusConfig.from_dict(cfg.to_dict()) == cfg
    clean = small_cfg(snr_db=math.inf)
    back = CorpusConfig.from_dict(clean.to_dict())
    assert math.isinf(back.snr_db)


def test_train_per_device_ratio():
    assert CorpusConfig(profiles=default_profiles()).train_per_device == 200
    assert small_cfg(signals_per_device=10).train_per_device == 7  # 7/3 of 10
    assert small_cfg(signals_per_device=300).train_per_device == 200


# -- burst generation ---------------------------------------------------------


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
        out = extract_transient(gen_burst(p, 2, cfg), trigger)
        assert len(out) == 256
        assert not out.padded


def test_gen_burst_steady_state_power_is_normalized():
    # clean bursts share the per-signal amplitude scale (RMS-normalized carrier)
    cfg = small_cfg(snr_db=math.inf)
    powers = [
        mean_power(gen_burst(p, i, cfg))
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


def test_build_corpus_regeneration_is_bit_identical():
    cfg = small_cfg()
    a_train, a_eval = build_corpus(cfg)
    b_train, b_eval = build_corpus(cfg)
    for x, y in zip(a_train + a_eval, b_train + b_eval):
        assert np.array_equal(x.samples, y.samples)


def test_clean_eval_signals_reproduce_corpus_noise():
    """Re-noising a clean eval burst with its paired seed reproduces the corpus."""
    cfg = small_cfg()
    _, evaluation = build_corpus(cfg)
    clean = clean_eval_signals(cfg)
    assert len(clean) == len(evaluation)
    for stored, (ref, seed) in zip(evaluation, clean):
        assert ref.snr_db is None
        renoised = add_awgn(ref, cfg.snr_db, seed)
        assert np.array_equal(renoised.samples, stored.samples)
        assert ref.device_id == stored.device_id


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
    with pytest.raises(EmptyEval):
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


def test_balanced_clean_eval_regenerates_only_the_picked_bursts(mini_cfg, monkeypatch):
    clean = clean_eval_signals(mini_cfg)
    picked = balanced_indices([sig.signal_class for sig, _ in clean], 10, seed=8)
    calls = []
    monkeypatch.setattr(synth, "gen_burst", lambda *a: calls.append(a) or gen_burst(*a))
    balanced = balanced_clean_eval(mini_cfg, 10, seed=8)
    assert len(calls) == len(picked)
    assert len(balanced) == len(picked) == 20
    for (got, got_seed), (want, want_seed) in zip(balanced, [clean[i] for i in picked]):
        assert got_seed == want_seed
        assert got.device_id == want.device_id and got.snr_db is None
        assert np.array_equal(got.samples, want.samples)


def test_split_rule_matches_the_corpus(mini_cfg):
    train, evaluation = build_corpus(mini_cfg)
    plan = mini_cfg.eval_plan()
    assert [(p.name, p.signal_class) for p, _ in plan] == [
        (s.device_id, s.signal_class) for s in evaluation
    ]
    assert len(train) == sum(
        mini_cfg.is_train(p, i)
        for p in mini_cfg.profiles
        for i in range(mini_cfg.signals_per_device)
    )


# -- separability sanity ------------------------------------------------------


def test_uav_fingerprints_are_far_from_recognized(mini_cfg):
    trigger = TriggerConfig(capture_len=mini_cfg.capture_len)
    train, evaluation = build_corpus(mini_cfg)
    table = table_from_signals(train + evaluation, trigger)
    m = np.asarray(table.matrix)
    rec = m[[c is SignalClass.RECOGNIZED for c in table.classes]]
    uav = m[[c is SignalClass.UAV for c in table.classes]]
    # high-band packet variances dominate only for UAV-class bursts
    assert float(np.median(uav[:, 2] + uav[:, 3])) > 5.0 * float(
        np.median(rec[:, 2] + rec[:, 3])
    )
