"""Independent reference implementations used to cross-check the library.

Nothing here calls into rfsentry: the WPT oracle is built straight from the
tensor-product definition of the two-level Haar packet basis, the LOF oracle
is a literal pure-Python transcription of the k-distance/reachability
definitions, the burst oracle writes the synthetic burst recipe one plain
array expression at a time, and the statistics helpers lean on the stdlib
where possible. The 44-statistic packet table, which only acceptance check
c11 ranks, lives here too: no command or product uses it.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# ---------------------------------------------------------------------------
# Two-level Haar packet basis as an explicit orthogonal matrix.
#
# Each block of four consecutive input samples contributes one coefficient to
# every packet; composing the two orthonormal filter stages by hand gives the
# block rows below (a scaled 4x4 Walsh-Hadamard block).
# ---------------------------------------------------------------------------

_BLOCK = {
    "a1": (0.5, 0.5, 0.5, 0.5),
    "d1": (0.5, 0.5, -0.5, -0.5),
    "a2": (0.5, -0.5, 0.5, -0.5),
    "d2": (0.5, -0.5, -0.5, 0.5),
}

PACKET_ORDER = ("a1", "d1", "a2", "d2")


def haar_packet_matrix(n: int) -> np.ndarray:
    """n x n orthogonal matrix; rows grouped a1 | d1 | a2 | d2."""
    if n % 4 != 0:
        raise ValueError("matrix oracle needs a length divisible by 4")
    q = n // 4
    m = np.zeros((n, n))
    for j in range(q):
        col = 4 * j
        for row_group, name in enumerate(PACKET_ORDER):
            m[row_group * q + j, col : col + 4] = _BLOCK[name]
    return m


def matrix_packets(x: np.ndarray) -> dict[str, np.ndarray]:
    """Packets of x via the explicit matrix product."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    coeffs = haar_packet_matrix(n) @ x
    q = n // 4
    return {name: coeffs[i * q : (i + 1) * q] for i, name in enumerate(PACKET_ORDER)}


# ---------------------------------------------------------------------------
# Brute-force LOF on the Breunig definitions, plain Python floats throughout.
# ---------------------------------------------------------------------------

LOF_EPS = 1e-10


def _dist(a, b, metric: str) -> float:
    if metric == "manhattan":
        return sum(abs(x - y) for x, y in zip(a, b))
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def brute_lof_scores(train, queries, k: int, metric: str = "manhattan") -> list[float]:
    """Novelty-mode LOF: queries scored against the training set only."""
    train = [list(map(float, row)) for row in np.asarray(train)]
    queries = [list(map(float, row)) for row in np.asarray(queries)]
    n = len(train)

    kdist = []
    neighborhoods = []
    for i in range(n):
        dists = sorted(_dist(train[i], train[j], metric) for j in range(n) if j != i)
        kd = dists[k - 1]
        kdist.append(kd)
        neighborhoods.append(
            [j for j in range(n) if j != i and _dist(train[i], train[j], metric) <= kd]
        )

    lrd = []
    for i in range(n):
        reach = [
            max(kdist[j], _dist(train[i], train[j], metric)) for j in neighborhoods[i]
        ]
        lrd.append(1.0 / (sum(reach) / len(reach) + LOF_EPS))

    scores = []
    for q in queries:
        dists = sorted(_dist(q, train[j], metric) for j in range(n))
        kd = dists[k - 1]
        nbrs = [j for j in range(n) if _dist(q, train[j], metric) <= kd]
        reach = [max(kdist[j], _dist(q, train[j], metric)) for j in nbrs]
        lrd_q = 1.0 / (sum(reach) / len(reach) + LOF_EPS)
        scores.append((sum(lrd[j] for j in nbrs) / len(nbrs)) / lrd_q)
    return scores


# ---------------------------------------------------------------------------
# Plain statistics references.
# ---------------------------------------------------------------------------


def brute_variance(xs) -> float:
    xs = [float(v) for v in xs]
    if len(xs) < 2:
        return 0.0
    return statistics.variance(xs)


def brute_entropy(xs) -> float:
    xs = [float(v) for v in xs]
    total = sum(v * v for v in xs)
    if total == 0.0:
        return 0.0
    acc = 0.0
    for v in xs:
        p = v * v / total
        if p > 0.0:
            acc -= p * math.log2(p)
    return acc


def brute_moments(xs) -> tuple[float, float]:
    """(skewness, kurtosis) with /n central moments; 0/0 convention -> 0."""
    xs = [float(v) for v in xs]
    n = len(xs)
    mean = sum(xs) / n
    m2 = sum((v - mean) ** 2 for v in xs) / n
    if m2 == 0.0:
        return 0.0, 0.0
    m3 = sum((v - mean) ** 3 for v in xs) / n
    m4 = sum((v - mean) ** 4 for v in xs) / n
    return m3 / m2**1.5, m4 / m2**2


# ---------------------------------------------------------------------------
# The 44-statistic table behind the paper's choice of variance: eleven
# statistics of each of the four packets, one packet at a time, laid out
# packet-major. Acceptance check c11 ranks its columns by spread.
# ---------------------------------------------------------------------------

STAT_NAMES = ("mean", "std_dev", "mean_root", "abs_mean", "skewness", "kurtosis",
              "variance", "entropy", "peak", "range", "abs_peak")
VARIANCE_COLUMNS = (6, 17, 28, 39)  # "variance" in each packet's block of eleven


def energy_entropy(x) -> float:
    """Shannon entropy (base 2) of the normalized coefficient energies; 0 with no energy."""
    e = np.asarray(x, dtype=np.float64) ** 2
    total = e.sum()
    if total == 0.0:
        return 0.0
    p = e / total
    p = p[p > 0.0]  # 0 * log(0) is 0
    return float(0.0 - np.sum(p * np.log2(p)))  # not a unary minus, which gives -0.0


def packet_stats(packet) -> list[float]:
    """The eleven statistics of one packet, in ``STAT_NAMES`` order.

    Skewness and kurtosis use /n central moments and are 0 for a constant
    packet; the variance is the n-1 sample variance, 0 for one coefficient.
    """
    x = np.asarray(packet, dtype=np.float64)
    mean, peak, magnitude = x.mean(), x.max(), np.abs(x)
    centered = x - mean
    squares = centered**2
    m2 = np.mean(squares)
    variance = np.sum(squares) / (x.size - 1) if x.size > 1 else 0.0
    return [float(v) for v in (
        mean,
        np.sqrt(variance),
        np.mean(np.sqrt(magnitude)) ** 2,
        np.mean(magnitude),
        np.mean(squares * centered) / m2**1.5 if m2 > 0.0 else 0.0,
        np.mean(squares * squares) / m2**2 if m2 > 0.0 else 0.0,
        variance,
        energy_entropy(x),
        peak,
        peak - x.min(),
        magnitude.max(),
    )]


def stats_row(packets) -> np.ndarray:
    """The 44 statistics of a (4, q) packet matrix: packet-major, statistic-minor."""
    return np.array([v for packet in packets for v in packet_stats(packet)])


def rank_features(matrix) -> list[int]:
    """Column indices by descending across-row sample variance; lower index first on ties."""
    variances = np.var(np.asarray(matrix, dtype=np.float64), axis=0, ddof=1)
    return [int(i) for i in np.argsort(-variances, kind="stable")]


# ---------------------------------------------------------------------------
# The synthetic burst recipe as plain array expressions, one new array per
# step: no in-place update and no ``out=`` argument. Comparing bytes with
# the library's burst is CPU-independent, unlike a recorded digest, since
# numpy may dispatch ``sin`` to CPU-specific SIMD code.
# ---------------------------------------------------------------------------

BURST_AMPLITUDE = 3.0
BURST_AMPLITUDE_JITTER = 0.10
WIFI_TONES = 8


def hopped_waveform(profile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Frequency-hopped tone with a small in-hop FM wobble."""
    half_bw = profile.bandwidth_frac / 2.0
    fm_dev = 0.25 * half_bw * min(1.0, profile.modulation_index)
    hop_span = half_bw - fm_dev
    hop_period = profile.hop_period or n
    n_hops = n // hop_period + 2
    offsets = rng.uniform(-hop_span, hop_span, n_hops)
    start = int(rng.integers(0, hop_period))
    idx = (np.arange(n) + start) // hop_period
    freq = profile.carrier_frac + offsets[idx]
    wobble_rate = 1.0 / max(8, hop_period // 4)
    wobble_phase = rng.uniform(0.0, 2.0 * np.pi)
    freq = freq + fm_dev * np.sin(2.0 * np.pi * wobble_rate * np.arange(n) + wobble_phase)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * np.cumsum(freq) + phase0)


def multitone_waveform(profile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Wideband burst: several tones across the band with random weights."""
    half_bw = profile.bandwidth_frac / 2.0
    freqs = profile.carrier_frac + np.linspace(-half_bw, half_bw, WIFI_TONES)
    phases = rng.uniform(0.0, 2.0 * np.pi, WIFI_TONES)
    weights = 1.0 + 0.5 * profile.modulation_index * rng.uniform(-1.0, 1.0, WIFI_TONES)
    weights = np.maximum(weights, 0.1)
    t = np.arange(n)
    w = np.zeros(n)
    for f, ph, a in zip(freqs, phases, weights):
        w = w + a * np.sin(2.0 * np.pi * f * t + ph)
    return w


def clean_burst(profile, n: int, lead_len: int, rng: np.random.Generator) -> np.ndarray:
    """Quiet lead-in, then amplitude * envelope * unit-power waveform of ``n`` samples.

    ``rng`` is the burst's generator; ``profile`` needs the attributes of a
    device profile.
    """
    amplitude = BURST_AMPLITUDE * (1.0 + BURST_AMPLITUDE_JITTER * rng.uniform(-1.0, 1.0))
    if profile.hop_period is not None:
        w = hopped_waveform(profile, n, rng)
    else:
        w = multitone_waveform(profile, n, rng)
    w = w / np.sqrt(np.mean(w * w))
    rise = min(profile.envelope_rise, n)
    envelope = np.ones(n)
    envelope[:rise] = np.arange(1, rise + 1) / rise
    return np.concatenate([np.zeros(lead_len), amplitude * envelope * w])


def noisy_burst(clean: np.ndarray, snr_db: float, unit_noise: np.ndarray) -> np.ndarray:
    """``clean`` plus ``unit_noise`` scaled to ``snr_db``; +inf is ``clean`` itself."""
    if snr_db == math.inf:
        return clean
    noise_std = math.sqrt(np.mean(clean * clean) / 10.0 ** (snr_db / 10.0))
    return clean + noise_std * unit_noise
