"""Two-level Haar wavelet packet transform."""

import numpy as np
import pytest

from rfsentry.errors import ConfigError, RfSentryError
from rfsentry.features import fingerprint
from rfsentry.signals import Signal, TriggerConfig
from rfsentry.wpt import packet_coefficients

from .oracles import PACKET_ORDER, brute_variance, matrix_packets


def _two_stage_packets(x):
    """The packets as two separate filter-bank stages (pairwise Haar steps)."""

    def haar_step(v):
        n = v.size - (v.size % 2)
        even, odd = v[0:n:2], v[1:n:2]
        return (even + odd) / np.sqrt(2.0), (even - odd) / np.sqrt(2.0)

    low, high = haar_step(np.asarray(x, dtype=np.float64))
    return (*haar_step(low), *haar_step(high))


def test_wpt2_hand_example():
    p = packet_coefficients(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(p[0], [5.0], atol=1e-12)
    assert np.allclose(p[1], [-2.0], atol=1e-12)
    assert np.allclose(p[2], [-1.0], atol=1e-12)
    assert np.allclose(p[3], [0.0], atol=1e-12)
    assert abs(np.sum(p * p) - 30.0) < 1e-12


def test_wpt2_accepts_signal_objects():
    s = Signal(samples=np.array([1.0, 2.0, 3.0, 4.0]))
    p = packet_coefficients(s.samples)
    assert np.allclose(p[0], [5.0])


def test_wpt2_all_zero():
    p = packet_coefficients(np.zeros(16))
    for packet in p:
        assert packet.size == 4
        assert np.all(packet == 0.0)


def test_wpt2_packet_lengths():
    for n in (4, 8, 64, 4096):
        p = packet_coefficients(np.ones(n))
        for packet in p:
            assert packet.size == n // 4
    # non-multiples of 4 follow floor(floor(n/2)/2)
    p = packet_coefficients(np.ones(10))
    assert all(pk.size == 2 for pk in p)


def test_wpt2_too_short():
    with pytest.raises(RfSentryError, match="two-level decomposition needs >= 4 samples, got 3"):
        packet_coefficients(np.array([1.0, 2.0, 3.0]))


def test_packet_coefficients_rejects_arrays_that_are_not_1d():
    # a (3, 8) array is three rows, not 24 samples
    with pytest.raises(ConfigError, match=r"samples must be a 1-D array, got shape \(3, 8\)"):
        packet_coefficients(np.ones((3, 8)))
    with pytest.raises(ConfigError, match=r"got shape \(\)"):
        packet_coefficients(np.float64(5.0))


def test_wpt2_equals_two_stage_transform_bit_for_bit():
    rng = np.random.default_rng(43)
    lengths = [4, 5, 6, 7, 10, 4096, 4097, 4099]
    lengths += [int(n) for n in rng.integers(4, 4100, 60)]
    for n in lengths:
        x = rng.standard_normal(n) * float(10.0 ** rng.uniform(-3, 3))
        for mine, ref in zip(packet_coefficients(x), _two_stage_packets(x)):
            assert mine.size == ref.size == n // 4
            assert np.array_equal(mine, ref), n
        assert np.array_equal(packet_coefficients(x), np.stack(_two_stage_packets(x)))


def test_fingerprint_matches_oracle_variances():
    rng = np.random.default_rng(44)
    for n in (8, 64, 256, 1024):
        x = rng.standard_normal(n + 37) * float(10.0 ** rng.uniform(-2, 2))
        whole = TriggerConfig(window_len=1, energy_threshold=0.0, capture_len=n)
        fv = fingerprint(Signal(samples=x), whole)
        ref = matrix_packets(x[:n])
        want = np.array([brute_variance(ref[name]) for name in PACKET_ORDER])
        assert np.max(np.abs(fv - want) / want) <= 1e-12


def test_wpt2_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    for n in (8, 16, 64):
        for _ in range(20):
            x = rng.standard_normal(n)
            mine = packet_coefficients(x)
            ref = matrix_packets(x)
            for name, packet in zip(("a1", "d1", "a2", "d2"), mine):
                assert np.max(np.abs(packet - ref[name])) <= 1e-12


def test_wpt2_parseval_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = 4 * int(rng.integers(1, 257))
        x = rng.standard_normal(n) * float(10.0 ** rng.uniform(-2, 2))
        p = packet_coefficients(x)
        energy_in = float(np.sum(x * x))
        assert abs(np.sum(p * p) - energy_in) <= 1e-9 * max(energy_in, 1e-30)


def test_wpt2_linearity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    alpha, beta = 2.5, -1.25
    combined = packet_coefficients(alpha * x + beta * y)
    px, py = packet_coefficients(x), packet_coefficients(y)
    for c, a, b in zip(combined, px, py):
        assert np.max(np.abs(c - (alpha * a + beta * b))) <= 1e-9


def test_wpt2_constant_input_zero_details():
    p = packet_coefficients(np.full(32, 1.7))
    assert np.max(np.abs(p[1])) <= 1e-12
    assert np.max(np.abs(p[2])) <= 1e-12
    assert np.max(np.abs(p[3])) <= 1e-12
    # all energy lands in a1: each coefficient is 2 * 1.7
    assert np.allclose(p[0], 3.4, atol=1e-12)


def test_oracle_matrix_is_orthogonal():
    from .oracles import haar_packet_matrix

    m = haar_packet_matrix(16)
    assert np.max(np.abs(m @ m.T - np.eye(16))) <= 1e-12
