"""Per-packet statistics, fingerprints, ranking, and feature CSV formats."""

import math

import numpy as np
import pytest

from rfsentry.errors import EmptyPacket, ShapeError, TooShort
from rfsentry.features import (
    FEATURE_CSV_HEADER,
    STAT_COLUMNS,
    STAT_NAMES,
    VARIANCE_COLUMNS,
    FeatureTable,
    energy_entropy,
    fingerprint,
    load_feature_csv,
    packet_stats,
    rank_features,
    sample_variance,
    save_feature_csv,
    stats_row,
)
from rfsentry.signals import Signal, SignalClass, TriggerConfig, extract_transient
from rfsentry.wpt import packet_coefficients, wpt2

from .oracles import brute_entropy, brute_moments, brute_variance


def test_column_layout():
    assert len(STAT_NAMES) == 11
    assert len(STAT_COLUMNS) == 44
    assert STAT_COLUMNS[0] == "a1_mean"
    assert STAT_COLUMNS[11] == "d1_mean"
    # variance sits at offset 6 inside each packet block
    assert VARIANCE_COLUMNS == (6, 17, 28, 39)
    assert all(STAT_COLUMNS[i].endswith("_variance") for i in VARIANCE_COLUMNS)


def test_packet_stats_constant_packet():
    st = packet_stats(np.array([1.0, 1.0, 1.0, 1.0]))
    assert st.mean == 1.0
    assert st.variance == 0.0
    assert st.std_dev == 0.0
    assert st.range == 0.0
    assert st.abs_peak == 1.0
    assert st.entropy == 2.0  # uniform energy over 4 coefficients
    assert st.skewness == 0.0 and st.kurtosis == 0.0  # zero-variance convention


def test_packet_stats_hand_example():
    st = packet_stats(np.array([1.0, 2.0, 3.0, 4.0]))
    assert st.mean == 2.5
    assert abs(st.variance - 5.0 / 3.0) < 1e-12  # n-1 = 3 denominator
    assert st.range == 3.0
    assert st.peak == 4.0
    smr = ((1 + math.sqrt(2) + math.sqrt(3) + 2) / 4) ** 2
    assert abs(st.mean_root - smr) < 1e-12
    assert st.abs_mean == 2.5
    assert st.abs_peak == 4.0


def test_packet_stats_symmetric_zero_skew():
    assert packet_stats(np.array([-2.0, -1.0, 1.0, 2.0])).skewness == 0.0


def test_packet_stats_against_reference_formulas():
    rng = np.random.default_rng(12)
    for _ in range(30):
        x = rng.standard_normal(int(rng.integers(2, 40))) * 3.0
        st = packet_stats(x)
        assert abs(st.variance - brute_variance(x)) <= 1e-9 * max(1.0, st.variance)
        assert abs(st.entropy - brute_entropy(x)) <= 1e-9
        skew, kurt = brute_moments(x)
        assert abs(st.skewness - skew) <= 1e-9
        assert abs(st.kurtosis - kurt) <= 1e-9
        assert abs(st.std_dev**2 - st.variance) <= 1e-9 * max(1.0, st.variance)


def test_packet_stats_empty_packet():
    with pytest.raises(EmptyPacket):
        packet_stats(np.array([]))


def test_sample_variance_singleton_rule():
    assert sample_variance(np.array([7.5])) == 0.0


def test_entropy_edge_cases():
    # single nonzero coefficient -> no spread -> 0
    assert energy_entropy(np.array([0.0, 0.0, 5.0, 0.0])) == 0.0
    # n equal-magnitude coefficients -> log2(n), signs irrelevant
    for n in (1, 2, 4, 8, 16):
        x = np.full(n, 1.3)
        x[::2] *= -1.0
        assert abs(energy_entropy(x) - math.log2(n)) <= 1e-12
    assert energy_entropy(np.zeros(8)) == 0.0


def test_variance_shift_and_scale_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.standard_normal(32)
        v = sample_variance(x)
        assert abs(sample_variance(x + 123.456) - v) <= 1e-9 * max(1.0, v)
        alpha = 2.5
        assert abs(sample_variance(alpha * x) - alpha**2 * v) <= 1e-9 * alpha**2 * v


def test_feature_vector_rules():
    assert sample_variance(np.zeros((4, 4))).tolist() == [0.0, 0.0, 0.0, 0.0]
    # singleton packets (a 4-sample capture) fall back to variance 0
    whole = TriggerConfig(window_len=1, energy_threshold=0.0, capture_len=4)
    singleton = Signal(samples=np.array([4.0, 1.0, -2.0, 7.0]), sample_rate=1.0)
    assert fingerprint(singleton, whole).tolist() == [0.0, 0.0, 0.0, 0.0]
    # a capture shorter than one 4-sample block has no packets at all
    short = TriggerConfig(window_len=1, energy_threshold=0.0, capture_len=3)
    with pytest.raises(TooShort):
        fingerprint(Signal(samples=np.ones(3), sample_rate=1.0), short)


def test_feature_vector_matches_packet_variances():
    rng = np.random.default_rng(14)
    x = rng.standard_normal(4096)
    variances = sample_variance(packet_coefficients(x))
    expected = [brute_variance(pk) for pk in wpt2(x).packets()]
    assert np.allclose(variances, expected, rtol=1e-9)


def test_stats_row_is_packet_major():
    rng = np.random.default_rng(15)
    p = wpt2(rng.standard_normal(64))
    row = stats_row(p)
    assert row.shape == (44,)
    for pi, packet in enumerate(p.packets()):
        st = packet_stats(packet)
        assert np.allclose(row[pi * 11 : (pi + 1) * 11], st.as_tuple())
    # fingerprint components live at the variance columns
    assert np.allclose(row[list(VARIANCE_COLUMNS)], sample_variance(np.stack(p.packets())))


def test_rank_features_single_live_column():
    m = np.ones((5, 44))
    m[:, 7] = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert rank_features(m)[0] == 7


def test_rank_features_matches_brute_sort():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((3, 44)) * rng.uniform(0.1, 10.0, 44)
    order = rank_features(m)
    brute = sorted(range(44), key=lambda i: (-np.var(m[:, i], ddof=1), i))
    assert order == brute


def test_rank_features_tie_break_lower_index_first():
    m = np.zeros((4, 44))
    column = np.array([0.0, 1.0, 2.0, 3.0])
    m[:, 10] = column
    m[:, 3] = column  # identical variance; 3 must rank before 10
    order = rank_features(m)
    assert order[:2] == [3, 10]


def test_rank_features_shape_errors():
    with pytest.raises(ShapeError):
        rank_features(np.ones((3, 10)))
    with pytest.raises(ShapeError):
        rank_features(np.ones((1, 44)))
    with pytest.raises(ShapeError):
        rank_features(np.ones(44))


def test_fingerprint_pipeline_composition():
    # fingerprint == per-packet variances of wpt2(extract_transient(.)), bit for bit
    rng = np.random.default_rng(17)
    burst = np.concatenate([np.zeros(100), rng.standard_normal(600)])
    s = Signal(samples=burst, sample_rate=1.0)
    cfg = TriggerConfig(window_len=16, energy_threshold=0.2, capture_len=512)
    fv = fingerprint(s, cfg)
    packets = wpt2(extract_transient(s, cfg)).packets()
    assert fv.dtype == np.float64 and fv.shape == (4,)
    assert fv.tolist() == [float(sample_variance(pk)) for pk in packets]


def test_feature_csv_round_trip(tmp_path):
    table = FeatureTable(
        device_ids=["bt", "uav"],
        classes=[SignalClass.RECOGNIZED, SignalClass.UAV],
        snr_db=[30.0, None],
        matrix=np.array([[1.5, 2.25, 0.125, 0.0625], [9.0, 8.0, 7.0, 6.0]]),
    )
    path = tmp_path / "features.csv"
    save_feature_csv(table, path)
    assert path.read_text().splitlines()[0] == ",".join(FEATURE_CSV_HEADER)
    back = load_feature_csv(path)
    assert back.device_ids == table.device_ids
    assert back.classes == table.classes
    assert back.snr_db == table.snr_db
    assert np.array_equal(back.matrix, table.matrix)  # repr round-trips exactly


def test_feature_table_select():
    table = FeatureTable(
        device_ids=["a", "b", "c"],
        classes=[SignalClass.RECOGNIZED] * 3,
        snr_db=[None, 10.0, 20.0],
        matrix=np.arange(12.0).reshape(3, 4),
    )
    sub = table.select([2, 0])
    assert sub.device_ids == ["c", "a"]
    assert sub.snr_db == [20.0, None]
    assert np.array_equal(sub.matrix, table.matrix[[2, 0]])

