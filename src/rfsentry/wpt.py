"""Two-level Haar wavelet packet decomposition as one block butterfly.

One filter-bank stage convolves with the orthonormal Haar pair
g = (1, 1)/sqrt(2) (low pass) and h = (1, -1)/sqrt(2) (high pass) and
downsamples by 2. Unlike a plain DWT, the packet transform splits the
detail branch again, so two levels yield four equal-width sub-bands
a1, d1 (from the low branch) and a2, d2 (from the high branch).

Both stages only mix the four samples of one block (x0, x1, x2, x3), so the
transform is one 4-point butterfly per block (a scaled Walsh-Hadamard
block; Coifman & Wickerhauser, IEEE T-IT 1992). ``packet_coefficients``
computes it in the two stages' own order: s01 = (x0 + x1)/sqrt(2), s23,
d01, d23, then a1 = (s01 + s23)/sqrt(2), d1, a2, d2. A partial last block
is dropped. The transform is orthogonal and preserves signal energy
exactly, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooShort
from .signals import Signal

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class PacketSet:
    """The four level-2 packet coefficient sequences of one signal."""

    a1: np.ndarray
    d1: np.ndarray
    a2: np.ndarray
    d2: np.ndarray

    def packets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.a1, self.d1, self.a2, self.d2)

    def energy(self) -> float:
        return float(sum(np.dot(p, p) for p in self.packets()))


def packet_coefficients(signal: Signal | np.ndarray) -> np.ndarray:
    """The (4, n // 4) packet matrix of a burst (or raw samples): rows a1, d1, a2, d2."""
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal, dtype=np.float64)
    if x.size < 4:
        raise TooShort(f"two-level decomposition needs >= 4 samples, got {x.size}")
    x0, x1, x2, x3 = x[: x.size // 4 * 4].reshape(-1, 4).T
    s01, s23 = (x0 + x1) / _SQRT2, (x2 + x3) / _SQRT2
    d01, d23 = (x0 - x1) / _SQRT2, (x2 - x3) / _SQRT2
    return np.stack([(s01 + s23) / _SQRT2, (s01 - s23) / _SQRT2,
                     (d01 + d23) / _SQRT2, (d01 - d23) / _SQRT2])


def wpt2(signal: Signal | np.ndarray) -> PacketSet:
    """Full two-level packet decomposition of a burst (or raw samples)."""
    return PacketSet(*packet_coefficients(signal))
