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

Neighbor search is exact brute force over one distance table per (query
set, reference set): a ``(q, n)`` matrix filled by accumulating the feature
columns in order, never through a ``(q, n, d)`` difference tensor. Fitting
is the reference scored against itself with the diagonal set to inf. Every
pass over a table (filling it, k-distances, densities, scores) walks it in
row blocks of about ``_BLOCK_ELEMENTS`` entries, so besides the table itself
the temporaries are O(block * n) floats. The table does not depend on k, so
the public API is a k grid: ``fit_grid`` builds the training table once and
``score_grid`` one table per query set, and one multi-kth partition per row
block yields the k-distances of every grid k. ``fit`` and ``score_batch``
are the same calls with a one-element grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    FormatError,
    NonFiniteFeature,
    NotEnoughTrainingData,
    ShapeError,
)

LRD_EPSILON = 1e-10

DEFAULT_K = 100
DEFAULT_THRESHOLD = 1.5

MODEL_FORMAT = "rfsentry-lof"
MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = ("k", "metric", "threshold", "standardized", "scaler_mean",
               "scaler_std", "train", "kdist", "lrd")

# Distance-table entries per row block. Each block temporary is 512 KiB of
# float64 whatever the number of reference rows, small enough for two of
# them to stay in a core's L2 cache: fit at n=8,000 plus 2,200 scores took
# 2.0 s with 2**21-entry blocks and 1.2 s with 2**16 (2-vCPU Xeon VM, one
# BLAS thread).
_BLOCK_ELEMENTS = 1 << 16


class Label(Enum):
    INLIER = "inlier"
    OUTLIER = "outlier"


class Metric(Enum):
    MANHATTAN = "manhattan"
    EUCLIDEAN = "euclidean"


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D feature vector, got shape {v.shape}")
    return v


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, _BLOCK_ELEMENTS // max(cols, 1))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _distance_table(a: np.ndarray, b: np.ndarray, metric: Metric) -> np.ndarray:
    """(len(a), len(b)) distance matrix, filled one row block at a time.

    Columns are accumulated in order 0..d-1. For d < 8 that is the order
    numpy's own reduction over the feature axis uses, so the table equals
    the difference-tensor formula bit for bit.
    """
    at, bt = a.T.copy(), b.T.copy()  # contiguous feature columns
    table = np.zeros((len(a), len(b)))
    for rows in _row_blocks(*table.shape):
        out = table[rows]
        diff = np.empty_like(out)
        for j in range(len(at)):
            np.subtract(at[j, rows, None], bt[j], out=diff)
            if metric is Metric.MANHATTAN:
                np.abs(diff, out=diff)
            else:
                np.multiply(diff, diff, out=diff)
            out += diff
        if metric is Metric.EUCLIDEAN:
            np.sqrt(out, out=out)
    return table


def _kdist(table: np.ndarray, ks: list[int]) -> np.ndarray:
    """Each row's k-th smallest distance for every k in ``ks``: a (len(ks), rows) array.

    One multi-kth partition per row block places every requested order
    statistic at once; each is an entry of the row, so every k gets the same
    value a single-k partition gives.
    """
    kth = [k - 1 for k in ks]
    kdist = np.empty((len(ks), len(table)))
    for rows in _row_blocks(*table.shape):
        kdist[:, rows] = np.partition(table[rows], kth, axis=1)[:, kth].T
    return kdist


def _lof(
    table: np.ndarray,
    kdist: np.ndarray,
    ref_kdist: np.ndarray,
    ref_lrd: np.ndarray | None = None,
) -> np.ndarray:
    """Each table row's lrd, or its LOF score when ``ref_lrd`` is given.

    ``kdist`` belongs to the table's rows and ``ref_kdist``/``ref_lrd`` to
    its columns. N_k keeps every column with ``dist <= kdist``, ties
    included. Each row is reduced over all n columns with zeros outside
    N_k, not over gathered neighbor indices: that fixes the summation order,
    and with it the last bit of every score.
    """
    out = np.empty(len(table))
    for rows in _row_blocks(*table.shape):
        dist = table[rows]
        neighborhood = dist <= kdist[rows, None]
        counts = neighborhood.sum(axis=1)
        reach = np.maximum(ref_kdist[None, :], dist)
        mean_reach = np.where(neighborhood, reach, 0.0).sum(axis=1) / counts
        lrd = 1.0 / (mean_reach + LRD_EPSILON)
        if ref_lrd is None:
            out[rows] = lrd
        else:
            neighbor_lrd = np.where(neighborhood, ref_lrd[None, :], 0.0).sum(axis=1)
            out[rows] = neighbor_lrd / counts / lrd
    return out


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
        for name in ("train", "kdist", "lrd", "scaler_mean", "scaler_std"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.train.shape[1]

    # -- scoring ------------------------------------------------------------

    def _transform(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=np.float64)
        if q.ndim == 1:
            q = q[None, :]
        if q.shape[1] != self.dim:
            raise DimensionMismatch(
                f"query dimension {q.shape[1]} != model dimension {self.dim}"
            )
        if not np.all(np.isfinite(q)):
            raise NonFiniteFeature("query features must be finite")
        return (q - self.scaler_mean) / self.scaler_std

    def score_batch(self, queries) -> np.ndarray:
        """LOF score of each query against the training reference set."""
        return score_grid([self], queries)[0]

    def score(self, x) -> float:
        return float(self.score_batch(_as_vector(x)[None, :])[0])

    def labels(self, scores) -> list[Label]:
        """Decision for each score; a score exactly at the threshold stays an inlier."""
        return [Label.OUTLIER if s > self.threshold else Label.INLIER for s in scores]

    def classify_batch(self, queries) -> list[Label]:
        return self.labels(self.score_batch(queries))

    def classify(self, x) -> Label:
        return self.labels([self.score(x)])[0]

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
            json.dump(doc, fh)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "LofModel":
        """Read a model written by ``save``; any inconsistency is a FormatError."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:
                raise FormatError(f"{path}: not JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise FormatError(f"{path}: not a {MODEL_FORMAT} document")
        if doc.get("version") != MODEL_FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported model version {doc.get('version')}")
        missing = [key for key in _MODEL_KEYS if key not in doc]
        if missing:
            raise FormatError(f"{path}: missing key(s) {', '.join(missing)}")
        k, standardized = doc["k"], doc["standardized"]
        if type(k) is not int or type(standardized) is not bool:
            raise FormatError(f"{path}: k must be an integer and standardized a boolean")
        try:
            metric = Metric(doc["metric"])
            threshold = float(doc["threshold"])
            arrays = {
                name: np.array(doc[name], dtype=np.float64)
                for name in ("train", "kdist", "lrd", "scaler_mean", "scaler_std")
            }
        except (TypeError, ValueError) as exc:
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
        return cls(k=k, metric=metric, threshold=threshold, standardized=standardized,
                   **arrays)


def fit_grid(
    train,
    ks: list[int],
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = DEFAULT_THRESHOLD,
    standardize: bool = True,
) -> list[LofModel]:
    """One model per k in ``ks``, in that order, from one training distance table.

    Columns are z-scored with training statistics by default so no single
    feature dominates the Manhattan metric; pass standardize=False for raw
    distances. The table is the reference against itself with the diagonal
    set to inf, so no point is its own neighbor; one k-distance pass over it
    serves every k.
    """
    metric = Metric(metric)
    x = np.asarray(train, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"training matrix must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteFeature("training features must be finite")
    for k in ks:
        if k < 1:
            raise NotEnoughTrainingData(f"k must be at least 1, got {k}")
        if len(x) < k + 1:
            raise NotEnoughTrainingData(f"need at least k+1={k + 1} rows, got {len(x)}")
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
    table = _distance_table(z, z, metric)
    np.fill_diagonal(table, np.inf)
    return [
        LofModel(train=z, k=k, metric=metric, threshold=threshold, kdist=kdist,
                 lrd=_lof(table, kdist, kdist), scaler_mean=mean, scaler_std=std,
                 standardized=standardize)
        for k, kdist in zip(ks, _kdist(table, ks))
    ]


def score_grid(models: list[LofModel], queries) -> list[np.ndarray]:
    """Each model's LOF scores of ``queries``, from one query table and one k-distance pass.

    The models must come from one ``fit_grid`` call: they share its training
    rows, metric and scaler, and with them the query table.
    """
    if not models or any(model.train is not models[0].train for model in models):
        raise ValueError("score_grid needs models from one fit_grid call")
    first = models[0]
    table = _distance_table(first._transform(queries), first.train, first.metric)
    kdists = _kdist(table, [model.k for model in models])
    return [_lof(table, kdist, model.kdist, model.lrd) for model, kdist in zip(models, kdists)]


def fit(
    train,
    k: int = DEFAULT_K,
    metric: Metric | str = Metric.MANHATTAN,
    threshold: float = DEFAULT_THRESHOLD,
    standardize: bool = True,
) -> LofModel:
    """Fit the reference densities on recognized fingerprints (``fit_grid`` at one k)."""
    return fit_grid(train, [k], metric, threshold, standardize)[0]
