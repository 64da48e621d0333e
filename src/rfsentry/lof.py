"""Local Outlier Factor novelty detector.

Semi-supervised protocol: the model is fitted on recognized fingerprints
only, and every query is scored against that fixed reference set (the query
never joins it). Scores hover around 1 inside the training distribution and
grow with isolation, so a fixed threshold separates inliers from outliers.

Definitions used throughout (k-distance, reachability distance, local
reachability density) are the classic density-based ones:

    kdist(p)      = distance from p to its k-th nearest training neighbor
    N_k(p)        = all training points within kdist(p)  (>= k under ties)
    reach(p, o)   = max(kdist(o), d(p, o))
    lrd(p)        = 1 / (mean_{o in N_k(p)} reach(p, o) + eps)
    score(p)      = mean_{o in N_k(p)} lrd(o) / lrd(p)

Distances are computed one block at a time: a slab of at most about
``_BLOCK_ELEMENTS`` entries, filled by accumulating the feature columns in
order, never through a ``(q, n, d)`` difference tensor, and never the
whole table. One partition per block at the grid's largest k, then one
sort of the head it leaves, yields the k-distances of every k of a grid
(see ``_kdist``), so the public API is a k grid (``fit_grid`` and
``score_grid``); a one-element grid takes the single partition alone.

Fitting follows the two steps of the LOF paper (Breunig et al., SIGMOD
2000, section 7). Pass 1 walks the reference against itself, no point
counting as its own neighbor, and keeps each point's neighborhood at the
largest grid k as a neighbor list: the position of every entry within
its k-distance, ties included. A smaller k's neighborhood is the part of
that list within its own k-distance. Pass 2 takes each entry's distance
again, in the same operations, and computes each k's densities from the
lists. Scoring needs no store: the reference densities are known, so one
fused pass per query block computes its distances to all n reference
rows, its k-distances and every model's scores.

Pass 1 skips, exactly, the pairs that cannot be neighbors, where that is
cheaper than brute force (``_band_plan``). For a sign vector v, |v.(a - b)|
is at most the Manhattan distance of a and b, and at most sqrt(d) times
the Euclidean one. So with the rows sorted by p = z.v, every neighbor of a
row lies in the band of rows whose p is within that bound of its k-distance.
The search picks v by how few rows its bands keep around 64 sample rows
with exact k-distances, bounds each row's k-distance from above by the
distances to a window of rows near it in p, widens each bound by a derived
rounding slack, and measures each block of rows only against the run of
sorted rows that its bands span. A block's rows and columns are indices of
z, its columns measured in ascending order, and each distance is
accumulated as brute force does it, so the k-distances and each row's list
entries are brute force's bit for bit. Brute force is the plan that
measures every row against all n in order, and one list builder serves
both. It is used below 64 blocks of table, above 6 features, or where the
sample says that the bounds and bands would measure more than half of the
table, as for all-identical rows. The gain depends on the data: on 8,000
fingerprint rows of 4 devices pass 1 took 0.21-0.27 s against 0.40-0.47 s
for brute force, and on 16,000 0.48-0.64 s against 1.55-1.65 s (2-vCPU VM,
2 threads); i.i.d. 4-D lognormal rows keep brute force at 8,000 and 16,000
rows, where bounds and bands would measure 56-69 % of the table.

Blocks are independent, and nearly all the time of a distance pass is in
numpy kernels on whole blocks, which release the GIL. So the distance
passes of fit pass 1 and the score pass run on W threads: W is the number
of CPUs the process may use (its affinity mask, which ``taskset`` limits),
at most one per block. Each thread takes one contiguous group of blocks,
with scratch arrays of its own, and writes only its own rows. Pass 2 stays
on the calling thread (see ``_fit_lrds``). Fit memory is 4 bytes per list
entry, n * k_max entries (more where distances tie; pass 1 refuses a zero
k-distance at k_max in the block that measures it, but ``_on_threads``
lets each helper finish its group before the error re-raises), plus O(n)
for the plan's row indices and W sets of block-sized scratch arrays in
pass 1, or one group's transient entry distances in pass 2; scoring takes
the scratch arrays alone.
``LofModel.save`` encodes the large arrays a slice at a time, so writing
model.json adds no copy of its whole text.

Each sum has one fixed order, so no result depends on the plan, on W or
on the grid. A fit density sums a row's N_k entries alone, in column
order: within about 1e-15 relative of the dense-table formula (one (n, n)
table), with its inf and NaN. A score sums whole rows of all n columns,
with zeros outside N_k: the dense formula (one (q, n) table per query set)
bit for bit, given the model's lrd.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError, float_array, integer, real
from .formats import json_document, json_fields
from .seeding import chunk_bounds, usable_cpus

LRD_EPSILON = 1e-10

DEFAULT_K = 100
DEFAULT_THRESHOLD = 1.5

MODEL_FORMAT = "rfsentry-lof"
MODEL_FORMAT_VERSION = 1
_ARRAYS = ("train", "kdist", "lrd", "scaler_mean", "scaler_std")
# Rows of train, kdist or lrd that LofModel.save encodes at once. A slice of
# train is about 90 KB of text: saving an 8,000-row model peaked at 0.62 MiB
# of tracemalloc, against 6.3 MiB for one json.dumps of the whole document.
_SAVE_ROWS = 1024

# Distance-table entries per row block. Each block temporary is 512 KiB of
# float64 whatever the number of reference rows, small enough for two of
# them to stay in a core's L2 cache: fit at n=8,000 plus 2,200 scores took
# 2.0 s with 2**21-entry blocks and 1.2 s with 2**16 (2-vCPU Xeon VM, one
# BLAS thread).
_BLOCK_ELEMENTS = 1 << 16

# Fit pass 1's band search (see _band_plan). It runs only where its
# distance entries, window pass included, would be at most _BAND_MAX_COST
# of the brute-force table, because a band entry costs more: at n=8,000
# (2-vCPU VM) the band measured 23 % of the table's entries in 47-61 % of
# brute force's time. It needs at least _BAND_MIN_BLOCKS blocks of
# _BLOCK_ELEMENTS in the table: with fewer, each block is a large share of
# it, and at n=800, k=10 the bands covered 60 % of the pairs, against 7 %
# in the sample, and took 1.8x brute force's time. And it needs at most
# _BAND_MAX_DIM features: the projection bound loosens as d grows (on
# i.i.d. normal and lognormal rows at n=8,000, k=100 the sample kept
# 42-57 % of the pairs at d=6), and the sign vectors tried double per
# feature.
_BAND_MAX_COST = 0.5
_BAND_MIN_BLOCKS = 64
_BAND_MAX_DIM = 6
_SAMPLE_ROWS = 64
_BAND_GROUPS = 4
# No distance overflows while every row's L1 norm is below this, so the
# band skips no pair that would overflow under the caller's errstate.
_NORM_LIMIT = math.sqrt(np.finfo(np.float64).max) / 4
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# The errors of a model's zero k-distances, for fit pass 1 and LofModel alike
_ZERO_KDIST = ("{} training rows have k-distance 0 at k={}: each is at distance 0 from k or "
               "more others (identical, or closer than the metric resolves); deduplicate them "
               "or raise k")
_UNFIT = "cannot fit the model at k={}: {}"


class Metric(Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"

    @classmethod
    def _missing_(cls, value):  # Metric(value) raises this, so the lookup is the metric rule
        names = ", ".join(m.value for m in cls)
        raise ConfigError(f"metric must be one of {names}, got {value!r}")


def _boolean(value, what: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):  # save writes a JSON boolean
        raise ConfigError(f"{what} must be a boolean, got {value!r}")
    return bool(value)


def _row_blocks(rows: int, cols: int) -> list[tuple[slice, slice]]:
    """Blocks of whole rows of a (rows, cols) table, as ``_distance_blocks`` takes them."""
    step = max(1, _BLOCK_ELEMENTS // max(cols, 1))
    return [(slice(start, min(start + step, rows)), slice(0, cols))
            for start in range(0, rows, step)]


def _on_threads(fn, items: list) -> list:
    """``fn`` of each contiguous group of ``items``, one group per thread, in order.

    There are as many groups as usable CPUs, at most one per item, split by
    ``seeding.chunk_bounds``. The calling thread runs the first group and a
    pool made for this call runs the rest. Each helper runs in a copy of the
    caller's context, which holds numpy's errstate. An exception re-raises here
    once every helper has run its whole group. ``fn`` writes only what its group owns.
    """
    workers = max(1, min(usable_cpus(), len(items)))
    groups = [items[lo:hi] for lo, hi in chunk_bounds(len(items), workers)]
    if len(groups) < 2:
        return [fn(group) for group in groups]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=len(groups) - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, fn, group)
                   for group in groups[1:]]
        first = fn(groups[0])
        return [first] + [future.result() for future in futures]


class _Block(NamedTuple):
    """One block of a distance table and scratch arrays of its shape.

    Every block of a pass reuses the same allocation, so each array is valid
    until the next block. Fresh (block, n) arrays per block let glibc trim
    the heap and fault the pages back in each time: 59,000 to 131,000 page
    faults, by malloc settings, in the 13 query passes of an n=800 SNR
    sweep, against 0 to 13 with reuse.
    """

    rows: slice | np.ndarray  # of a: a slice or an index array
    cols: slice | np.ndarray  # of b: a slice or an ascending index array
    dist: np.ndarray  # float64 distances, rows x cols
    spare: np.ndarray  # float64
    bits: np.ndarray  # int64, _lof's mask for _masked_row_sums
    mask: np.ndarray  # bool


def _accumulate(pairs, metric: Metric, dist: np.ndarray, spare: np.ndarray) -> None:
    """Write into ``dist`` the distances whose feature operands are ``pairs``, in order.

    ``pairs`` yields ``(a_j, b_j)`` for features j = 0..d-1, arrays that
    broadcast to ``dist``'s shape. The first term is written into ``dist``
    itself and the rest are added through ``spare``: a term is +0.0 or more,
    inf or NaN, and 0.0 + t is t for each, so this is a sum from zero bit for
    bit. Every distance of the package is taken here, so all of them round
    alike whatever arrays hold their operands.
    """
    for j, (a, b) in enumerate(pairs):
        term = spare if j else dist
        np.subtract(a, b, out=term)
        if metric is Metric.MANHATTAN:
            np.abs(term, out=term)
        else:
            np.multiply(term, term, out=term)
        if j:
            dist += term
    if metric is Metric.EUCLIDEAN:
        np.sqrt(dist, out=dist)


def _distance_blocks(at: np.ndarray, bt: np.ndarray, metric: Metric, blocks: list[tuple]):
    """The ``_Block`` of each ``(rows, cols)`` pair: those rows of a against those of b.

    Each side is a slice or an index array; an index array of columns is
    sorted as its block is measured, so a block's columns always ascend.
    ``at`` and ``bt`` are ``a.T`` and ``b.T`` as contiguous feature columns,
    copied once per pass and shared by its threads. Columns are accumulated in
    order 0..d-1 (``_accumulate``). For d < 8 that is the order numpy's own
    reduction over the feature axis uses, so every entry equals the
    difference-tensor formula bit for bit, in any block. One set of scratch
    arrays, of the largest block's size, serves every block.
    """
    def length(index) -> int:
        return len(index) if isinstance(index, np.ndarray) else index.stop - index.start

    size = max(length(rows) * length(cols) for rows, cols in blocks)
    floats = np.empty((2, size))
    bits = np.empty(size, dtype=np.int64)
    mask = np.empty(size, dtype=bool)
    for rows, cols in blocks:
        if isinstance(cols, np.ndarray):
            cols = np.sort(cols)
        shape = (length(rows), length(cols))
        dist, spare = floats[:, : shape[0] * shape[1]].reshape(2, *shape)
        _accumulate(((a[rows, None], b[cols]) for a, b in zip(at, bt)), metric, dist, spare)
        size = shape[0] * shape[1]
        yield _Block(rows, cols, dist, spare, bits[:size].reshape(shape),
                     mask[:size].reshape(shape))


def _kdist(dist: np.ndarray, ks: list[int], spare: np.ndarray) -> np.ndarray:
    """Each row's k-th smallest distance for every k in ``ks``: a (len(ks), rows) array.

    A copy in ``spare`` is partitioned once at the largest k, which puts a
    row's ``max(ks)`` smallest entries first. For a grid of several k that
    head is then sorted, and every k reads its order statistic from it. An
    order statistic is an entry of the row, so every k gets the value a
    single-k partition gives. NumPy's multi-kth partition costs far more:
    1.1-2.0 ms against 0.18-0.28 ms for the 6-k and 20-k sweep grids on an
    81 x 800 block (2-vCPU VM).
    """
    top = max(ks)
    np.copyto(spare, dist)
    spare.partition(top - 1, axis=1)
    if len(set(ks)) > 1:
        spare[:, :top].sort(axis=1)
    return np.take(spare, [k - 1 for k in ks], axis=1).T


def _lrd(mean_reach: np.ndarray) -> np.ndarray:
    return 1.0 / (mean_reach + LRD_EPSILON)


def _masked_row_sums(values: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Row sums of ``np.where(bits != 0, values, 0.0)``, zeroing ``values`` in place.

    ``bits`` is -1 (all 64 bits set) where an entry counts and 0 where it
    does not. ANDing the bit pattern of a float64 with all ones keeps it,
    inf and nan included, and with zeros makes it +0.0, so this is
    ``np.where`` bit for bit without a temporary.
    """
    as_int = values.view(np.int64)
    np.bitwise_and(as_int, bits, out=as_int)
    return values.sum(axis=1)


def _lof(block: _Block, kdist: np.ndarray, ref_kdist: np.ndarray,
         ref_lrd: np.ndarray) -> np.ndarray:
    """The LOF score of each row of one distance block.

    ``kdist`` belongs to the block's rows and ``ref_kdist``/``ref_lrd`` to
    its columns. N_k keeps every column with ``dist <= kdist``, ties
    included. Each mean is a whole-row sum over all n columns with zeros
    outside N_k.
    """
    neighborhood = np.less_equal(block.dist, kdist[:, None], out=block.mask)
    counts = neighborhood.sum(axis=1)
    np.negative(neighborhood.view(np.int8), out=block.bits)
    np.maximum(ref_kdist[None, :], block.dist, out=block.spare)
    lrd = _lrd(_masked_row_sums(block.spare, block.bits) / counts)
    np.copyto(block.spare, ref_lrd[None, :])
    return _masked_row_sums(block.spare, block.bits) / counts / lrd


def _projection(zt: np.ndarray, signs) -> np.ndarray:
    """p = z·v for the sign vector ``signs``, accumulated over the feature columns in order."""
    p = np.zeros(zt.shape[1])
    for column, sign in zip(zt, signs):
        (np.add if sign > 0 else np.subtract)(p, column, out=p)
    return p


def _kth_distances(zt: np.ndarray, metric: Metric, blocks: list, k: int) -> np.ndarray:
    """Each row of z's k-th smallest distance within its block's columns, itself excluded.

    The blocks take each row of z at most once; a row in none is left unset.
    """
    kth, index = np.empty(zt.shape[1]), np.arange(zt.shape[1])

    def rows_kth(blocks: list) -> None:
        for block in _distance_blocks(zt, zt, metric, blocks):
            rows, cols = index[block.rows], index[block.cols]
            block.dist[np.arange(len(rows)), np.searchsorted(cols, rows)] = np.inf
            kth[rows] = _kdist(block.dist, [k], block.spare)[0]

    _on_threads(rows_kth, blocks)
    return kth


def _sign_vector(zt: np.ndarray, metric: Metric, k_max: int) -> tuple[tuple, float]:
    """The sign vector whose band keeps the fewest rows around a sample, and that mean count.

    The sample is ``_SAMPLE_ROWS`` evenly spaced rows, each with its exact
    k_max-distance as the band's half-width. Every v with first entry +1 is
    tried (v and -v give the same bands).
    """
    d, n = zt.shape
    sample = np.linspace(0, n - 1, min(n, _SAMPLE_ROWS)).astype(np.intp)  # distinct rows
    blocks = [(sample[rows], cols) for rows, cols in _row_blocks(len(sample), n)]
    radius = _kth_distances(zt, metric, blocks, k_max)[sample]
    if metric is Metric.EUCLIDEAN:
        radius *= math.sqrt(d)

    def kept(signs: tuple) -> int:
        p = _projection(zt, signs)
        ordered = np.sort(p)
        return int(np.sum(np.searchsorted(ordered, p[sample] + radius, "right")
                          - np.searchsorted(ordered, p[sample] - radius, "left")))

    counts = {signs: kept(signs) for signs in itertools.product((1.0, -1.0), repeat=d)
              if signs[0] > 0}
    best = min(counts, key=counts.get)
    return best, counts[best] / len(sample)


def _band_plan(zt: np.ndarray, metric: Metric, k_max: int):
    """Fit pass 1's band search: its blocks, or None where brute force is cheaper.

    Each block is a ``(rows, cols)`` pair of index arrays of z: rows that lie
    near each other when sorted by their projection p, and the run of rows in
    p order that holds every neighbor of each of them, the rows themselves
    included. The blocks take every row of z exactly once.
    """
    d, n = zt.shape
    # A band holds at least a row and its k_max neighbors. The window pass
    # costs about the sampled share of the table, and the bands about twice.
    if (d > _BAND_MAX_DIM or n * n < _BAND_MIN_BLOCKS * _BLOCK_ELEMENTS
            or 3 * (k_max + 1) > _BAND_MAX_COST * n):
        return None
    norm = float(np.abs(zt).sum(axis=0).max())  # the largest row L1 norm
    if norm >= _NORM_LIMIT:
        return None
    signs, width = _sign_vector(zt, metric, k_max)
    if 3 * width > _BAND_MAX_COST * n:
        return None
    p = _projection(zt, signs)
    order = np.argsort(p, kind="stable")
    p = p[order]

    # Upper bounds: each row's k_max-th smallest distance to a window of
    # rows around it in p order, as wide as the sample's mean band. The
    # k_max-th smallest of any k_max candidates is at least the k-distance.
    width = min(n, max(k_max + 1, math.ceil(width)))
    height = max(1, min(width, _BLOCK_ELEMENTS // width))
    windows = []
    for start in range(0, n, height):
        first = min(max(0, start - (width - height) // 2), n - width)
        windows.append((order[start:start + height], order[first:first + width]))
    bound = _kth_distances(zt, metric, windows, k_max)[order]

    # Rounding slack: the band must hold every column whose computed
    # distance D is at most the row's bound. With u = 2**-53 and x = a - b
    # for two rows (exact, as both are floats):
    # - Manhattan D rounds d differences and d - 1 sums, so
    #   |x|_1 <= D (1 - u)**-d. Euclidean D also rounds d squares and the
    #   root, so |x|_2 <= D (1 - u)**-(d/2 + 2), and |x|_1 <= sqrt(d) |x|_2.
    #   A square may also underflow, by at most half the smallest subnormal
    #   s, which adds at most sqrt(d s) to the root.
    # - |v.x| <= |x|_1, and a computed p, a sum of d terms, is off by at
    #   most (d - 1) u |z_i|_1 to first order: two p differ by at most
    #   2 (d - 1) u norm more than exactly.
    # - Computing half and the band edges p -/+ half rounds 7 more times.
    # So half = scale (bound + sqrt(d s)) (1 + c) + c norm holds every
    # such column if c exceeds (d + 9) u and (2 d - 1) u by more than the
    # second-order terms; c = 4 (d + 4) u is at least twice both.
    slack = 4 * (d + 4) * np.finfo(np.float64).eps / 2
    scale = math.sqrt(d) if metric is Metric.EUCLIDEAN else 1.0
    half = (bound + math.sqrt(d * _SUBNORMAL)) * (scale * (1 + slack)) + slack * norm
    lo = np.searchsorted(p, p - half, "left")
    hi = np.searchsorted(p, p + half, "right")

    # Blocks: rows adjacent in p within one of _BAND_GROUPS quantile groups
    # of half-width, so that one row of a sparse region does not widen the
    # band of many. A block measures the union of its rows' bands, at most
    # _BLOCK_ELEMENTS entries.
    group = np.searchsorted(np.sort(half)[n * np.arange(1, _BAND_GROUPS) // _BAND_GROUPS], half)
    grouped = np.argsort(group, kind="stable")  # sorted positions, group by group
    group, lo, hi = group[grouped], lo[grouped], hi[grouped]
    longest = max(1, _BLOCK_ELEMENTS // (k_max + 1))
    blocks, start, area = [], 0, 0
    while start < n:
        stop = min(start + longest, np.searchsorted(group, group[start], "right"))
        span = np.maximum.accumulate(hi[start:stop]) - np.minimum.accumulate(lo[start:stop])
        count = max(1, np.count_nonzero(span * np.arange(1, stop - start + 1) <= _BLOCK_ELEMENTS))
        rows = slice(start, start + count)
        blocks.append((order[grouped[rows]], order[lo[rows].min():hi[rows].max()]))
        area += count * int(span[count - 1])
        start += count
    if n * width + area > _BAND_MAX_COST * n * n:
        return None
    return blocks


def _neighbor_lists(zt: np.ndarray, metric: Metric, ks: list[int]):
    """Fit pass 1: the k-distances of every k in ``ks`` and the neighbor lists.

    ``zt`` is the reference as contiguous feature columns. Returns the
    (len(ks), n) k-distances and, per block of pass 1, ``(ids, starts,
    cols)``: the block's row indices, where each row's entries start, and
    the int32 column of every entry within its row's k-distance at the
    largest k, ties included. Each row's entries are one run, never empty,
    in ascending column order, because every block measures its columns in
    that order. The lists keep no distance, so an entry costs 4 bytes: pass
    2 takes each entry's distance again, in the same operations. Brute force
    is the plan of ``_row_blocks``: every row, in order, against all n.
    A zero k-distance at the largest k, a zero at every k, is refused under
    the grid's first k as soon as a block measures one, before its lists are
    stored; the count is the block's ("at least N" unless it holds every row).
    """
    n = zt.shape[1]
    kdist = np.empty((len(ks), n))
    largest = ks.index(max(ks))
    blocks = _band_plan(zt, metric, max(ks)) or _row_blocks(n, n)  # None: brute force
    index = np.arange(n)

    def lists(blocks: list) -> list:
        out = []
        for block in _distance_blocks(zt, zt, metric, blocks):
            rows, cols, dist = index[block.rows], index[block.cols], block.dist
            dist[np.arange(len(rows)), np.searchsorted(cols, rows)] = np.inf  # not its own neighbor
            kd = _kdist(dist, ks, block.spare)
            if not kd[largest].all():
                zero = np.count_nonzero(kd[0] == 0.0)
                count = zero if len(rows) == n else f"at least {zero}"
                raise ConfigError(_UNFIT.format(ks[0], _ZERO_KDIST.format(count, ks[0])))
            kdist[:, rows] = kd
            mask = np.less_equal(dist, kd[largest, :, None], out=block.mask)
            counts = np.count_nonzero(mask, axis=1)
            entries = np.flatnonzero(mask)
            entries %= len(cols)  # each entry's place in its row
            out.append((rows, np.cumsum(counts) - counts, cols[entries].astype(np.int32)))
        return out

    groups = _on_threads(lists, blocks)
    return kdist, [entry for group in groups for entry in group]


def _fit_lrds(lists, kdists: np.ndarray, zt: np.ndarray, metric: Metric) -> np.ndarray:
    """Fit pass 2: every reference point's lrd at every k, from the neighbor lists.

    ``zt`` is the reference as pass 1 took it. A group's entry distances
    are taken once, before its k loop, through ``_accumulate`` in pass 1's
    feature order and operand order (the row minus the column), so each is
    pass 1's bit for bit. N_k of a row is the part of its run within the
    row's k-distance: at least k entries, so never empty, which
    ``np.add.reduceat`` needs (it returns the next entry for an empty run,
    not 0). Each k sums exactly its own entries, in column order, so every
    lrd depends on neither the plan nor the thread count, and each k of a
    grid equals a one-element grid at that k bit for bit.

    It runs on the calling thread. Its numpy calls are small (a block's list
    held a median 4,850 entries on lof_scale's rows, n=8,000, k=100), and
    threads gained nothing: on a 2-vCPU VM there, two threads took a median
    0.028-0.030 s against 0.017-0.023 s for one at k=100, 0.095-0.100 s
    against 0.093-0.109 s for the 5-k grid 100:200:25, and 0.29-0.31 s
    against 0.30-0.31 s for the 20-k grid 10:200:10.
    """
    lrds = np.empty_like(kdists)
    for ids, starts, cols in lists:
        cols = cols.astype(np.intp)  # once, not at every index use below
        rows = np.repeat(ids, np.diff(starts, append=len(cols)))  # each entry's row
        d = np.empty(len(cols))
        _accumulate(((column[rows], column[cols]) for column in zt), metric, d, np.empty_like(d))
        # no point is its own neighbor, as in pass 1; a run holds its own row
        # only where the row's k-distance is inf
        d[rows == cols] = np.inf
        for kdist, lrd in zip(kdists, lrds):
            keep = d <= kdist[rows]
            counts = np.add.reduceat(keep, starts, dtype=np.intp)
            reach = np.maximum(kdist[cols], d)[keep]
            lrd[ids] = _lrd(np.add.reduceat(reach, np.cumsum(counts) - counts) / counts)
    return lrds


def _check_numbers(values, name: str, path) -> None:
    """Each entry of a model.json array, or of a ``train`` row, is a JSON number.

    ``np.array`` alone would read ``[1.0, true]`` as floats. A value or a
    ``train`` row that is not a list is left to the constructor.
    """
    if type(values) is not list:
        return
    if name == "train":
        values = [v for row in values if type(row) is list for v in row]
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise FormatError(f"{path}: {name} entries must be numbers, got {bad!r}")


def _threshold(value) -> float:
    threshold = real(value, "threshold")
    if not math.isfinite(threshold):  # JSON has no inf or NaN, and inf flags nothing
        raise ConfigError(f"threshold must be finite, got {threshold!r}")
    return threshold


@dataclass(frozen=True)
class LofModel:
    """Immutable fitted detector state, usable by construction.

    ``train`` holds the (standardized) reference matrix; ``kdist`` and
    ``lrd`` are its per-point k-distances and local reachability densities.
    ``scaler_mean``/``scaler_std`` transform raw queries into the space the
    model was fitted in (identity when standardization is off). The
    constructor is the rule of a usable model, for ``fit_grid`` and ``load``
    alike: field types, shapes, k, finite values and no zero k-distance (a
    density of 1/``LRD_EPSILON``). Arrays are stored as read-only views.
    """

    train: np.ndarray
    k: int
    metric: Metric
    threshold: float
    kdist: np.ndarray
    lrd: np.ndarray
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    standardized: bool

    def __post_init__(self) -> None:
        # stored as Python values and float64 arrays, so save writes what load reads
        object.__setattr__(self, "k", integer(self.k, "k"))
        object.__setattr__(self, "metric", Metric(self.metric))
        object.__setattr__(self, "threshold", _threshold(self.threshold))
        object.__setattr__(self, "standardized", _boolean(self.standardized, "standardized"))
        for name in _ARRAYS:
            array = float_array(getattr(self, name), name)
            if array.flags.writeable:  # else stored as is: one fit's models share its z
                array = array.view()
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.train.ndim != 2 or len(self.train) < 2:
            raise ConfigError(
                f"train must be a matrix of at least 2 rows, got shape {self.train.shape}")
        n, dim = self.train.shape
        for name, size in (("kdist", n), ("lrd", n), ("scaler_mean", dim), ("scaler_std", dim)):
            shape = getattr(self, name).shape
            if shape != (size,):
                raise ConfigError(f"{name} has shape {shape}, expected ({size},)")
        if not 1 <= self.k <= n - 1:
            raise ConfigError(f"k={self.k} outside 1..{n - 1} for {n} training rows")
        for name in _ARRAYS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} holds non-finite values")
        if np.any(self.scaler_std <= 0.0):
            raise ConfigError("scaler_std must be positive")
        zero = np.count_nonzero(self.kdist == 0.0)
        if zero:
            raise ConfigError(_ZERO_KDIST.format(zero, self.k))

    @property
    def dim(self) -> int:
        return self.train.shape[1]

    # -- scoring ------------------------------------------------------------

    def _transform(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(float_array(queries, "query features"))  # one row, or a scalar
        if q.ndim > 2:
            raise ConfigError(f"queries must be one row or a 2-D array, got {q.ndim} dimensions")
        if q.shape[1] != self.dim:
            raise ConfigError(f"query dimension {q.shape[1]} != model dimension {self.dim}")
        if not np.all(np.isfinite(q)):
            raise ConfigError("query features must be finite")
        return (q - self.scaler_mean) / self.scaler_std

    def outliers(self, scores) -> np.ndarray:
        """The boolean outlier mask of ``scores``.

        A score exactly at the threshold, or NaN, stays an inlier.
        """
        return float_array(scores, "scores") > self.threshold

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the model as model.json, which ``load`` reads back.

        The file holds ``json.dumps(doc) + "\n"`` byte for byte, but
        ``train``, ``kdist`` and ``lrd`` are encoded ``_SAVE_ROWS`` rows at a
        time, so that no text of the whole document is ever held. Every value
        is finite (the constructor's rule), so the text is JSON.
        """
        head = json.dumps({  # json.dumps runs the C encoder; json.dump does not
            "format": MODEL_FORMAT,
            "version": MODEL_FORMAT_VERSION,
            "k": self.k,
            "metric": self.metric.value,
            "threshold": self.threshold,
            "standardized": self.standardized,
            "scaler_mean": self.scaler_mean.tolist(),
            "scaler_std": self.scaler_std.tolist(),
        })
        with open(path, "w") as fh:
            fh.write(head[:-1])  # without its closing brace
            for name in ("train", "kdist", "lrd"):
                array = getattr(self, name)
                fh.write(f', "{name}": [')
                for start in range(0, len(array), _SAVE_ROWS):
                    if start:
                        fh.write(", ")
                    fh.write(json.dumps(array[start:start + _SAVE_ROWS].tolist())[1:-1])
                fh.write("]")
            fh.write("}\n")

    @classmethod
    def load(cls, path: str | Path) -> "LofModel":
        """Read a model written by ``save``; any inconsistency is a FormatError.

        The reader checks the keys and the array entries; every other rule is
        the constructor's, whose ConfigError becomes a FormatError naming the file.
        """
        doc = json_fields(json_document(path, MODEL_FORMAT, MODEL_FORMAT_VERSION),
                          [f.name for f in fields(cls)], str(path))
        for name in _ARRAYS:
            _check_numbers(doc[name], name, path)
        try:
            return cls(**doc)
        except ConfigError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _fit_arrays(x: np.ndarray, ks: list[int], metric: Metric, standardize: bool):
    """``fit_grid``'s arrays, z = (x - mean) / std, mean, std and each k's kdist and lrd."""
    d = x.shape[1]
    mean, std = (x.mean(axis=0), x.std(axis=0)) if standardize else (np.zeros(d), np.ones(d))
    std = np.where(std == 0.0, 1.0, std)  # constant columns contribute 0
    z = (x - mean) / std
    if not np.all(np.isfinite(z)):  # NaN distances would leave a neighbor list empty
        raise ConfigError("cannot standardize the training features: a column's mean "
                          "or spread is beyond the float range")
    zt = z.T.copy()
    kdists, lists = _neighbor_lists(zt, metric, ks)
    return z, mean, std, kdists, _fit_lrds(lists, kdists, zt, metric)


def fit_grid(
    train,
    ks: list[int],
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = DEFAULT_THRESHOLD,
    standardize: bool = True,
) -> list[LofModel]:
    """One model per k in ``ks``, in that order, from one pass over the training distances.

    Columns are z-scored with training statistics by default so no single
    feature dominates the Manhattan metric; pass standardize=False for raw
    distances. The reference is measured against itself with the diagonal
    set to inf, so no point is its own neighbor; one pass yields every k's
    k-distances and the neighbor lists that every k's densities come from.
    A model that would break ``LofModel``'s rule is a ConfigError naming the
    first such k in grid order; pass 1 refuses zero k-distances at the largest k.
    """
    metric = Metric(metric)
    threshold = _threshold(threshold)  # before the O(n^2) passes
    standardize = _boolean(standardize, "standardize")
    x = float_array(train, "training features")
    if x.ndim != 2:
        raise ConfigError(f"training matrix must be 2-D, got shape {x.shape}")
    if x.shape[1] == 0:  # every distance would be 0
        raise ConfigError("training matrix must have at least one column")
    if not np.all(np.isfinite(x)):
        raise ConfigError("training features must be finite")
    try:
        ks = list(ks)
    except TypeError:
        raise ConfigError(f"k_grid must be a sequence of integers, got {ks!r}") from None
    if not ks:
        raise ConfigError("k_grid must be non-empty")
    ks = [integer(k, "k") for k in ks]  # k + 1 could wrap as a numpy int
    for k in ks:
        if k < 1:
            raise ConfigError(f"k must be at least 1, got {k}")
        if len(x) < k + 1:
            raise ConfigError(f"need at least k+1={k + 1} rows, got {len(x)}")
    z, mean, std, kdists, lrds = _fit_arrays(x, ks, metric, standardize)
    z.flags.writeable = False  # stored as is, so score_grid tells the models of one fit by it
    models = []
    for k, kdist, lrd in zip(ks, kdists, lrds):
        try:
            models.append(LofModel(train=z, k=k, metric=metric, threshold=threshold,
                                   kdist=kdist, lrd=lrd, scaler_mean=mean, scaler_std=std,
                                   standardized=standardize))
        except ConfigError as exc:
            raise ConfigError(_UNFIT.format(k, exc)) from None
    return models


def score_grid(models: list[LofModel], queries) -> list[np.ndarray]:
    """Each model's LOF scores of ``queries``, from one pass over the query distances.

    The models must come from one ``fit_grid`` call: they share its training
    rows, metric and scaler, and with them every query block's distances and
    its k-distance selection.
    """
    if not (isinstance(models, (list, tuple))
            and all(isinstance(model, LofModel) for model in models)):
        raise ConfigError("models must be a list or tuple of LofModel")
    if not models or any(model.train is not models[0].train for model in models):
        raise ConfigError("score_grid needs models from one fit_grid call")
    first = models[0]
    q = first._transform(queries)
    scores = np.empty((len(models), len(q)))
    ks = [model.k for model in models]
    qt, train_t = q.T.copy(), first.train.T.copy()

    def score_blocks(blocks: list[slice]) -> None:
        for block in _distance_blocks(qt, train_t, first.metric, blocks):
            kdists = _kdist(block.dist, ks, block.spare)
            for out, model, kdist in zip(scores, models, kdists):
                out[block.rows] = _lof(block, kdist, model.kdist, model.lrd)

    _on_threads(score_blocks, _row_blocks(len(q), len(first.train)))
    return list(scores)

