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
d01, d23, then a1 = (s01 + s23)/sqrt(2), d1, a2, d2. Each stage is one
add, one subtract and one in-place divide on two rows at a time, the same
operations on the same operands. A partial last block is dropped. The transform is orthogonal and preserves signal energy
exactly, which the tests rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, RfSentryError, float_array

_SQRT2 = np.sqrt(2.0)


def packet_coefficients(samples: np.ndarray) -> np.ndarray:
    """The (4, n // 4) packet matrix of a sample array: rows a1, d1, a2, d2."""
    x = float_array(samples, "samples")
    if x.ndim != 1:
        raise ConfigError(f"samples must be a 1-D array, got shape {x.shape}")
    if x.size < 4:
        raise RfSentryError(f"two-level decomposition needs >= 4 samples, got {x.size}")
    # pairs[i, p, b] is x[4b + 2p + i]: pairs[0] holds rows x0, x2 and pairs[1] x1, x3
    pairs = x[: x.size // 4 * 4].reshape(-1, 2, 2).T
    stage1 = np.empty((2, 2, pairs.shape[2]))  # rows s01, s23, then d01, d23
    np.add(pairs[0], pairs[1], out=stage1[0])
    np.subtract(pairs[0], pairs[1], out=stage1[1])
    stage1 /= _SQRT2
    out = np.empty((4, pairs.shape[2]))
    np.add(stage1[:, 0], stage1[:, 1], out=out[0::2])  # a1, a2
    np.subtract(stage1[:, 0], stage1[:, 1], out=out[1::2])  # d1, d2
    out /= _SQRT2
    return out
