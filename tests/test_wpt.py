"""Two-level Haar wavelet packet transform."""

import numpy as np
import pytest

from rfsentry.errors import TooShort
from rfsentry.features import fingerprint
from rfsentry.signals import Signal, TriggerConfig
from rfsentry.wpt import packet_coefficients, wpt2

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
    p = wpt2(np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(p.a1, [5.0], atol=1e-12)
    assert np.allclose(p.d1, [-2.0], atol=1e-12)
    assert np.allclose(p.a2, [-1.0], atol=1e-12)
    assert np.allclose(p.d2, [0.0], atol=1e-12)
    assert abs(p.energy() - 30.0) < 1e-12


def test_wpt2_accepts_signal_objects():
    s = Signal(samples=np.array([1.0, 2.0, 3.0, 4.0]), sample_rate=1.0)
    p = wpt2(s)
    assert np.allclose(p.a1, [5.0])


def test_wpt2_all_zero():
    p = wpt2(np.zeros(16))
    for packet in p.packets():
        assert packet.size == 4
        assert np.all(packet == 0.0)


def test_wpt2_packet_lengths():
    for n in (4, 8, 64, 4096):
        p = wpt2(np.ones(n))
        for packet in p.packets():
            assert packet.size == n // 4
    # non-multiples of 4 follow floor(floor(n/2)/2)
    p = wpt2(np.ones(10))
    assert all(pk.size == 2 for pk in p.packets())


def test_wpt2_too_short():
    with pytest.raises(TooShort):
        wpt2(np.array([1.0, 2.0, 3.0]))


def test_wpt2_equals_two_stage_transform_bit_for_bit():
    rng = np.random.default_rng(43)
    lengths = [4, 5, 6, 7, 10, 4096, 4097, 4099]
    lengths += [int(n) for n in rng.integers(4, 4100, 60)]
    for n in lengths:
        x = rng.standard_normal(n) * float(10.0 ** rng.uniform(-3, 3))
        for mine, ref in zip(wpt2(x).packets(), _two_stage_packets(x)):
            assert mine.size == ref.size == n // 4
            assert np.array_equal(mine, ref), n
        assert np.array_equal(packet_coefficients(x), np.stack(_two_stage_packets(x)))


def test_fingerprint_matches_oracle_variances():
    rng = np.random.default_rng(44)
    for n in (8, 64, 256, 1024):
        x = rng.standard_normal(n + 37) * float(10.0 ** rng.uniform(-2, 2))
        whole = TriggerConfig(window_len=1, energy_threshold=0.0, capture_len=n)
        fv = fingerprint(Signal(samples=x, sample_rate=1.0), whole)
        ref = matrix_packets(x[:n])
        want = np.array([brute_variance(ref[name]) for name in PACKET_ORDER])
        assert np.max(np.abs(fv - want) / want) <= 1e-12


def test_wpt2_matches_matrix_oracle():
    rng = np.random.default_rng(42)
    for n in (8, 16, 64):
        for _ in range(20):
            x = rng.standard_normal(n)
            mine = wpt2(x)
            ref = matrix_packets(x)
            for name, packet in zip(("a1", "d1", "a2", "d2"), mine.packets()):
                assert np.max(np.abs(packet - ref[name])) <= 1e-12


def test_wpt2_parseval_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = 4 * int(rng.integers(1, 257))
        x = rng.standard_normal(n) * float(10.0 ** rng.uniform(-2, 2))
        p = wpt2(x)
        energy_in = float(np.sum(x * x))
        assert abs(p.energy() - energy_in) <= 1e-9 * max(energy_in, 1e-30)


def test_wpt2_linearity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(64)
    y = rng.standard_normal(64)
    alpha, beta = 2.5, -1.25
    combined = wpt2(alpha * x + beta * y)
    px, py = wpt2(x), wpt2(y)
    for c, a, b in zip(combined.packets(), px.packets(), py.packets()):
        assert np.max(np.abs(c - (alpha * a + beta * b))) <= 1e-9


def test_wpt2_constant_input_zero_details():
    p = wpt2(np.full(32, 1.7))
    assert np.max(np.abs(p.d1)) <= 1e-12
    assert np.max(np.abs(p.a2)) <= 1e-12
    assert np.max(np.abs(p.d2)) <= 1e-12
    # all energy lands in a1: each coefficient is 2 * 1.7
    assert np.allclose(p.a1, 3.4, atol=1e-12)


def test_oracle_matrix_is_orthogonal():
    from .oracles import haar_packet_matrix

    m = haar_packet_matrix(16)
    assert np.max(np.abs(m @ m.T - np.eye(16))) <= 1e-12
