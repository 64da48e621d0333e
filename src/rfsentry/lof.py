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

Neighbor search is exact brute force, one row block of distances at a time:
a ``(block, n)`` slab filled by accumulating the feature columns in order,
never through a ``(q, n, d)`` difference tensor, and never the whole
``(q, n)`` table. A block holds about ``_BLOCK_ELEMENTS`` entries. One
partition per block at the grid's largest k, then one sort of the head it
leaves, yields the k-distances of every k of a grid (see ``_kdist``), so the
public API is a k grid; ``fit`` and ``score_batch`` are the same calls with
a one-element grid, and take the single partition alone.

Fitting follows the two steps of the LOF paper (Breunig et al., SIGMOD
2000, section 7). Pass 1 walks the reference against itself, the diagonal
set to inf, and keeps each point's neighborhood at the largest grid k as a
neighbor list: the position and distance of every entry within its
k-distance, ties included. A smaller k's neighborhood is the part of that
list within its own k-distance. Pass 2 computes each k's densities from the
lists. Scoring needs no store: the reference densities are known, so one
fused pass per query block computes its distances, its k-distances and
every model's scores.

Row blocks are independent, and nearly all the time of a distance pass is
in numpy kernels on whole blocks, which release the GIL. So fit pass 1 and
the score pass run on W threads: W is the number of CPUs the process may
use (its affinity mask, which ``taskset`` limits), at most one per block.
Each thread takes one contiguous group of blocks, with scratch arrays of
its own, and writes only its own rows. Pass 2 stays on the calling thread
(see ``_fit_lrds``). Fit memory is O(n * k_max) for the lists (more where
distances tie) plus O(W * block * n) for the block-sized arrays; scoring
takes O(W * block * n).

Every density is a whole-row sum over all n columns with zeros outside N_k,
not a sum over gathered neighbors: that fixes the summation order, and with
it the last bit of every lrd and score. The results equal the dense-table
formula, one (n, n) table for fit and one (q, n) table per query set, bit
for bit, for any W.
"""

from __future__ import annotations

import contextvars
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FormatError
from .formats import BOOL, INT, LIST, NUMBER, STRING, json_document, json_fields
from .seeding import chunk_bounds, usable_cpus

LRD_EPSILON = 1e-10

DEFAULT_K = 100
DEFAULT_THRESHOLD = 1.5

MODEL_FORMAT = "rfsentry-lof"
MODEL_FORMAT_VERSION = 1
_ARRAYS = ("train", "kdist", "lrd", "scaler_mean", "scaler_std")
_MODEL_FIELDS = {"k": INT, "metric": STRING, "threshold": NUMBER, "standardized": BOOL,
                 **dict.fromkeys(["scaler_mean", "scaler_std", "train", "kdist", "lrd"], LIST)}

# Distance-table entries per row block. Each block temporary is 512 KiB of
# float64 whatever the number of reference rows, small enough for two of
# them to stay in a core's L2 cache: fit at n=8,000 plus 2,200 scores took
# 2.0 s with 2**21-entry blocks and 1.2 s with 2**16 (2-vCPU Xeon VM, one
# BLAS thread).
_BLOCK_ELEMENTS = 1 << 16


class Metric(Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, _BLOCK_ELEMENTS // max(cols, 1))
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _on_threads(fn, items: list) -> list:
    """``fn`` of each contiguous group of ``items``, one group per thread, in order.

    There are as many groups as usable CPUs, at most one per item, split by
    ``seeding.chunk_bounds``. The calling thread runs the first group and a
    pool made for this call runs the rest. Each helper runs in a copy of the
    caller's context, which holds numpy's errstate, and an exception in a
    helper re-raises here. ``fn`` must write only what its own group owns.
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
    """One row block of a distance table and scratch arrays of its shape.

    Every block of a pass reuses the same allocation, so each array is valid
    until the next block. Fresh (block, n) arrays per block let glibc trim
    the heap and fault the pages back in each time: 59,000 to 131,000 page
    faults, by malloc settings, in the 13 query passes of an n=800 SNR
    sweep, against 0 to 13 with reuse.
    """

    rows: slice
    dist: np.ndarray  # float64 distances, row block x all columns
    spare: np.ndarray  # float64
    bits: np.ndarray  # int64, a mask for _masked_row_sums
    mask: np.ndarray  # bool


def _distance_blocks(at: np.ndarray, bt: np.ndarray, metric: Metric, blocks: list[slice]):
    """Each of ``blocks``, row blocks of the distance table of ``a`` to ``b``, as a ``_Block``.

    ``at`` and ``bt`` are ``a.T`` and ``b.T`` as contiguous feature columns,
    copied once per pass and shared by its threads. Columns are accumulated in
    order 0..d-1. For d < 8 that is the order numpy's own reduction over the
    feature axis uses, so every entry equals the difference-tensor formula
    bit for bit. The first block is the tallest; one set of scratch arrays
    of its size serves every block.
    """
    shape = (blocks[0].stop - blocks[0].start, bt.shape[1])
    floats = np.empty((2, *shape))
    bits = np.empty(shape, dtype=np.int64)
    mask = np.empty(shape, dtype=bool)
    for rows in blocks:
        height = rows.stop - rows.start
        dist, spare = floats[:, :height]
        dist.fill(0.0)
        for j in range(len(at)):
            np.subtract(at[j, rows, None], bt[j], out=spare)
            if metric is Metric.MANHATTAN:
                np.abs(spare, out=spare)
            else:
                np.multiply(spare, spare, out=spare)
            dist += spare
        if metric is Metric.EUCLIDEAN:
            np.sqrt(dist, out=dist)
        yield _Block(rows, dist, spare, bits[:height], mask[:height])


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
    return spare[:, [k - 1 for k in ks]].T


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


def _neighbor_lists(z: np.ndarray, metric: Metric, ks: list[int]):
    """Fit pass 1: the k-distances of every k in ``ks`` and the neighbor lists.

    Returns the (len(ks), n) k-distances and, per row block, ``(rows, flat,
    dist)``: the flat index into the block's (rows, n) table and the
    distance of every entry within its row's k-distance at the largest k,
    ties included, in row-major order.
    """
    kdist = np.empty((len(ks), len(z)))
    largest = ks.index(max(ks))
    zt = z.T.copy()

    def lists(blocks: list[slice]) -> list:
        out = []
        for block in _distance_blocks(zt, zt, metric, blocks):
            rows, dist = block.rows, block.dist
            local = np.arange(len(dist))
            dist[local, local + rows.start] = np.inf  # no point is its own neighbor
            kdist[:, rows] = _kdist(dist, ks, block.spare)
            flat = np.flatnonzero(np.less_equal(dist, kdist[largest, rows, None], out=block.mask))
            out.append((rows, flat, dist.ravel()[flat]))
        return out

    groups = _on_threads(lists, _row_blocks(len(z), len(z)))
    return kdist, [entry for group in groups for entry in group]


def _fit_lrds(lists, kdists: np.ndarray) -> np.ndarray:
    """Fit pass 2: every reference point's lrd at every k, from the neighbor lists.

    N_k of a row is the part of its list within the row's k-distance. Its
    reach values are scattered into a zeroed ``(block, n)`` array at the
    positions where ``_lof`` keeps them and reduced by the same whole-row
    sum, so each lrd is the dense formula's bit for bit. Every k of a block
    writes the same list positions, so the array is zeroed once and only
    those positions are cleared after each block.

    It runs on the calling thread. Most of its numpy calls are small (a
    block's list is about 800 entries at n=8,000, k=100), and threads gained
    nothing: on a 2-vCPU VM at n=8,000, two threads took a median 0.11-0.13 s
    against 0.09-0.10 s for one at k=100, and 0.46-0.52 s against 0.45-0.48 s
    for a 5-k grid.
    """
    n = kdists.shape[1]
    lrds = np.empty_like(kdists)
    first, _, _ = lists[0]
    reach = np.zeros((first.stop - first.start, n))
    for rows, flat, d in lists:
        block = reach[: rows.stop - rows.start]
        r, c = np.divmod(flat, n)
        starts = np.searchsorted(r, np.arange(len(block)))  # no row's list is empty
        for kdist, lrd in zip(kdists, lrds):
            keep = d <= kdist[rows][r]
            np.put(block, flat, np.where(keep, np.maximum(kdist[c], d), 0.0))
            counts = np.add.reduceat(keep, starts, dtype=np.intp)
            lrd[rows] = _lrd(block.sum(axis=1) / counts)
        np.put(block, flat, 0.0)
    return lrds


def _check_numbers(values: list, name: str, path) -> None:
    """Each entry of a model.json array, or of a ``train`` row, is a JSON number.

    ``np.array`` alone would read ``"1.5"`` as 1.5 and ``true`` as 1.0. A
    ``train`` row that is not a list fails the shape checks instead.
    """
    if name == "train":
        values = [v for row in values if type(row) is list for v in row]
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise FormatError(f"{path}: {name} entries must be numbers, got {bad!r}")


@dataclass(frozen=True)
class LofModel:
    """Immutable fitted detector state.

    ``train`` holds the (standardized) reference matrix; ``kdist`` and
    ``lrd`` are its per-point k-distances and local reachability densities.
    ``scaler_mean``/``scaler_std`` transform raw queries into the space the
    model was fitted in (identity when standardization is off).
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
        for name in _ARRAYS:
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.train.shape[1]

    # -- scoring ------------------------------------------------------------

    def _transform(self, queries: np.ndarray) -> np.ndarray:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))  # one row, or a scalar
        if q.ndim > 2:
            raise ConfigError(f"queries must be one row or a 2-D array, got {q.ndim} dimensions")
        if q.shape[1] != self.dim:
            raise ConfigError(f"query dimension {q.shape[1]} != model dimension {self.dim}")
        if not np.all(np.isfinite(q)):
            raise ConfigError("query features must be finite")
        return (q - self.scaler_mean) / self.scaler_std

    def score_batch(self, queries) -> np.ndarray:
        """LOF score of each query against the training reference set."""
        return score_grid([self], queries)[0]

    def outliers(self, scores) -> np.ndarray:
        """The boolean outlier mask of ``scores``.

        A score exactly at the threshold, or NaN, stays an inlier.
        """
        return np.asarray(scores) > self.threshold

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_FORMAT_VERSION,
            "k": self.k,
            "metric": self.metric.value,
            "threshold": self.threshold,
            "standardized": self.standardized,
            "scaler_mean": self.scaler_mean.tolist(),
            "scaler_std": self.scaler_std.tolist(),
            "train": self.train.tolist(),
            "kdist": self.kdist.tolist(),
            "lrd": self.lrd.tolist(),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(doc) + "\n")  # json.dumps runs the C encoder; json.dump does not

    @classmethod
    def load(cls, path: str | Path) -> "LofModel":
        """Read a model written by ``save``; any inconsistency is a FormatError."""
        doc = json_fields(json_document(path, MODEL_FORMAT, MODEL_FORMAT_VERSION),
                          _MODEL_FIELDS, str(path))
        k, threshold = doc["k"], float(doc["threshold"])
        for name in _ARRAYS:
            _check_numbers(doc[name], name, path)
        try:
            metric = Metric(doc["metric"])
            arrays = {name: np.array(doc[name], dtype=np.float64) for name in _ARRAYS}
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: {exc}") from None
        train = arrays["train"]
        if train.ndim != 2 or len(train) < 2:
            raise FormatError(
                f"{path}: train must be a matrix of at least 2 rows, got shape {train.shape}"
            )
        n, dim = train.shape
        for name, size in (("kdist", n), ("lrd", n), ("scaler_mean", dim), ("scaler_std", dim)):
            if arrays[name].shape != (size,):
                raise FormatError(
                    f"{path}: {name} has shape {arrays[name].shape}, expected ({size},)"
                )
        if not 1 <= k <= n - 1:
            raise FormatError(f"{path}: k={k} outside 1..{n - 1} for {n} training rows")
        for name, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise FormatError(f"{path}: {name} holds non-finite values")
        if math.isnan(threshold):
            raise FormatError(f"{path}: threshold is NaN")
        if np.any(arrays["scaler_std"] <= 0.0):
            raise FormatError(f"{path}: scaler_std must be positive")
        return cls(k=k, metric=metric, threshold=threshold,
                   standardized=doc["standardized"], **arrays)


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
    """
    metric = Metric(metric)
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError(f"training matrix must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigError("training features must be finite")
    if not ks:
        raise ConfigError("k_grid must be non-empty")
    for k in ks:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ConfigError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ConfigError(f"k must be at least 1, got {k}")
        if len(x) < k + 1:
            raise ConfigError(f"need at least k+1={k + 1} rows, got {len(x)}")
    ks = [int(k) for k in ks]  # a numpy integer k would not save to JSON
    if math.isnan(threshold):
        raise ConfigError("threshold must be a number, got NaN")
    if standardize:
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)  # constant columns contribute 0
    else:
        mean = np.zeros(x.shape[1])
        std = np.ones(x.shape[1])
    z = (x - mean) / std
    kdists, lists = _neighbor_lists(z, metric, ks)
    return [
        LofModel(train=z, k=k, metric=metric, threshold=threshold, kdist=kdist,
                 lrd=lrd, scaler_mean=mean, scaler_std=std, standardized=standardize)
        for k, kdist, lrd in zip(ks, kdists, _fit_lrds(lists, kdists))
    ]


def score_grid(models: list[LofModel], queries) -> list[np.ndarray]:
    """Each model's LOF scores of ``queries``, from one pass over the query distances.

    The models must come from one ``fit_grid`` call: they share its training
    rows, metric and scaler, and with them every query block's distances and
    its k-distance selection.
    """
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


def fit(
    train,
    k: int = DEFAULT_K,
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = DEFAULT_THRESHOLD,
    standardize: bool = True,
) -> LofModel:
    """Fit the reference densities on recognized fingerprints (``fit_grid`` at one k)."""
    return fit_grid(train, [k], metric, threshold, standardize)[0]
