"""Local Outlier Factor: distances, the band search, fit/score/outliers, memory, persistence."""

import json
import math
import re
import threading
import warnings

import numpy as np
import pytest

from rfsentry import lof
from rfsentry.errors import ConfigError, FormatError
from rfsentry.lof import (
    DEFAULT_K,
    DEFAULT_THRESHOLD,
    LofModel,
    Metric,
    fit_grid,
    score_grid,
)

from .conftest import table_from_signals, traced_peak
from .oracles import brute_lof_scores


def block_table(a, b, metric: Metric) -> np.ndarray:
    """The row blocks of the distance pass stacked into one table, for small inputs."""
    at, bt = a.T.copy(), b.T.copy()
    blocks = lof._row_blocks(len(a), len(b))
    return np.vstack([block.dist.copy() for block in lof._distance_blocks(at, bt, metric, blocks)])


def distance(a, b, metric: Metric) -> float:
    """One distance, for hand examples."""
    return float(block_table(np.atleast_2d(a), np.atleast_2d(b), metric)[0, 0])


# -- distances ----------------------------------------------------------------


def test_manhattan_examples():
    m = Metric.MANHATTAN
    assert distance(np.zeros(4), np.zeros(4), m) == 0.0
    assert distance(np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1]), m) == 8.0


def test_euclidean_example():
    assert distance(np.array([3.0, 0.0]), np.array([0.0, 4.0]), Metric.EUCLIDEAN) == 5.0


def test_distance_dimension_mismatch():
    # the distance pass trusts its shapes; queries are checked where they enter
    with pytest.raises(ConfigError, match="query dimension 3 != model dimension 4"):
        score_grid(fit_grid(np.eye(4), [1], metric="manhattan"), np.zeros(3))
    with pytest.raises(ConfigError, match="query dimension 5 != model dimension 2"):
        score_grid(fit_grid(np.eye(2) * 3.0, [1], metric="euclidean"), np.zeros(5))
    # a third axis is its own error, whether or not the last axis fits the model
    for shape in ((2, 4, 4), (2, 2, 4)):
        with pytest.raises(ConfigError,
                           match="queries must be one row or a 2-D array, got 3 dimensions"):
            score_grid(fit_grid(np.eye(4), [1]), np.zeros(shape))


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(21)
    for metric in Metric:
        for _ in range(20):
            abc = rng.standard_normal((3, 4))
            d = block_table(abc, abc, metric)
            assert np.all(d >= 0.0)
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0.0)
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


@pytest.mark.parametrize("metric", list(Metric))
def test_distance_blocks_take_index_arrays_and_measure_columns_in_ascending_order(metric):
    # fit pass 1's band blocks are index arrays: rows in any order, and
    # columns that the distance pass sorts as it measures them, leaving the
    # caller's array as it was; a slice mixes with them in one pass
    rng = np.random.default_rng(47)
    a, b = rng.standard_normal((30, 4)), rng.standard_normal((50, 4))
    rows, cols = rng.permutation(30)[:9], rng.permutation(50)[:23]
    given = cols.copy()
    blocks = [(rows, cols), (rows[:4], slice(10, 40))]
    measured = lof._distance_blocks(a.T.copy(), b.T.copy(), metric, blocks)
    for (block_rows, block_cols), block in zip(blocks, measured, strict=True):
        columns = np.sort(np.arange(50)[block_cols])
        assert np.array_equal(block.rows, block_rows)
        assert np.array_equal(np.arange(50)[block.cols], columns)
        diff = a[block_rows, None, :] - b[None, columns, :]
        if metric is Metric.MANHATTAN:
            expected = np.abs(diff).sum(axis=2)
        else:
            expected = np.sqrt((diff**2).sum(axis=2))
        assert block.dist.tobytes() == expected.tobytes()
    assert np.array_equal(cols, given)


# -- the shared core against its references -----------------------------------


def tensor_lof(train, queries, k, metric, ref_lrd=None):
    """The (q, n, d) difference-tensor formula the row-block core replaced.

    The scores are against ``ref_lrd`` where it is given, else against the
    formula's own lrd.
    """

    def pairwise(a, b):
        diff = a[:, None, :] - b[None, :, :]
        if metric == "manhattan":
            return np.abs(diff).sum(axis=2)
        return np.sqrt((diff**2).sum(axis=2))

    def densities(dist, ref_kdist):
        kd = np.partition(dist, k - 1, axis=1)[:, k - 1]
        neighborhood = dist <= kd[:, None]
        counts = neighborhood.sum(axis=1)
        reach = np.maximum(ref_kdist[None, :], dist)
        mean_reach = np.where(neighborhood, reach, 0.0).sum(axis=1) / counts
        return neighborhood, counts, 1.0 / (mean_reach + lof.LRD_EPSILON)

    dist = pairwise(train, train)
    np.fill_diagonal(dist, np.inf)
    kdist = np.partition(dist, k - 1, axis=1)[:, k - 1]
    _, _, lrd = densities(dist, kdist)
    ref_lrd = lrd if ref_lrd is None else ref_lrd
    neighborhood, counts, lrd_q = densities(pairwise(queries, train), kdist)
    mean_neighbor_lrd = np.where(neighborhood, ref_lrd[None, :], 0.0).sum(axis=1) / counts
    return kdist, lrd, mean_neighbor_lrd / lrd_q


def assert_lrd_near(mine, dense):
    """Fit lrds within 1e-12 relative of the dense formula's, inf and NaN where it has them.

    Fit pass 2 sums each row's N_k entries in column order, and the dense
    formula sums whole rows with zeros outside N_k: the two round apart.
    """
    finite = np.isfinite(dense)
    assert np.array_equal(np.isfinite(mine), finite)
    assert np.array_equal(mine[~finite], dense[~finite], equal_nan=True)
    assert np.allclose(mine[finite], dense[finite], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "normal"])
@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_core_matches_references_across_block_edges(metric, grid, monkeypatch):
    # integer grid data forces distance ties, and normal data makes the
    # rounding of every sum visible; 7-row blocks put both the fit (30 rows)
    # and every query count below on and around block edges; the scores are
    # the formula's bit for bit, fed the model's own lrd
    block, n, d = 7, 30, 4
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(34)

    def sample(rows, lo, hi):
        if grid:
            return rng.integers(lo, hi, (rows, d)).astype(float)
        return rng.normal(lo, hi - lo, (rows, d))

    train = sample(n, 0, 4)
    model = fit_grid(train, [3], metric=metric, standardize=False)[0]
    for q in (1, block - 1, block, block + 1, 2 * block + 3):
        queries = sample(q, -2, 6)
        kdist, lrd, scores = tensor_lof(train, queries, 3, metric, model.lrd)
        assert np.array_equal(model.kdist, kdist)
        assert_lrd_near(model.lrd, lrd)
        mine = score_grid([model], queries)[0]
        assert np.array_equal(mine, scores)
        ref = brute_lof_scores(train, queries, k=3, metric=metric)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)


def assert_kdist_is_one_partition_per_k(table, ks):
    kdists = lof._kdist(table, ks, np.empty_like(table))
    assert kdists.shape == (len(ks), len(table))
    for k, kdist in zip(ks, kdists):
        assert kdist.tobytes() == np.partition(table, k - 1, axis=1)[:, k - 1].tobytes()


@pytest.mark.parametrize("rows", [1, 6, 7, 8, 17])
def test_multi_k_kdist_equals_one_partition_per_k(rows):
    # integer-grid distances tie often; the grid is unsorted and repeats a k
    n = 12
    table = np.random.default_rng(36).integers(0, 5, (rows, n)).astype(float)
    assert_kdist_is_one_partition_per_k(table, [n - 1, 3, 1, 7, 3])


@pytest.mark.parametrize("ks", [list(range(100, 201, 20)), list(range(10, 201, 10)), [150],
                                [200, 20, 150, 20]],
                         ids=["sweep-snr", "sweep-n", "one-k", "unsorted"])
@pytest.mark.parametrize("data", ["lognormal", "integer"])
def test_kdist_of_a_sweep_block_equals_one_partition_per_k(ks, data):
    # one 81 x 800 row block, the size a sweep's n=800 distance pass uses
    rng = np.random.default_rng(42)
    if data == "lognormal":
        table = rng.lognormal(size=(81, 800))
    else:
        table = rng.integers(0, 9, (81, 800)).astype(float)
    assert_kdist_is_one_partition_per_k(table, ks)


MODEL_ARRAYS = ("train", "kdist", "lrd", "scaler_mean", "scaler_std")


def lattice_rows(rng, n, d, side=5):
    """``n`` distinct rows of the integer lattice {0..side-1}^d: their distances tie often.

    No row repeats, so no k-distance is 0 and a model fits at every k.
    """
    cells = rng.choice(side**d, n, replace=False)
    return np.stack(np.unravel_index(cells, (side,) * d), axis=1).astype(float)


def fit_arrays(x, ks, metric, standardize=True):
    """``fit_grid``'s own arrays, (z, mean, std, kdists, lrds), before any model is built."""
    return lof._fit_arrays(np.asarray(x, dtype=float), ks, Metric(metric), standardize)


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_grid_equals_one_fit_and_score_per_k(metric):
    # each k of a longer grid equals a one-element grid at that k; distinct
    # integer-grid rows tie often, and the grid is unsorted and repeats a k
    rng = np.random.default_rng(37)
    train = lattice_rows(rng, 25, 4)
    queries = rng.integers(-2, 7, (9, 4)).astype(float)
    ks = [24, 3, 1, 7, 3]
    models = fit_grid(train, ks, metric, threshold=1.2)
    assert [m.k for m in models] == ks
    for model, k in zip(models, ks):
        single = fit_grid(train, [k], metric, threshold=1.2)[0]
        assert (model.metric, model.threshold, model.standardized) == (
            single.metric, single.threshold, single.standardized)
        for name in MODEL_ARRAYS:
            assert getattr(model, name).tobytes() == getattr(single, name).tobytes(), name
    scores = score_grid(models, queries)
    assert len(scores) == len(ks)
    for model, grid_scores in zip(models, scores):
        assert grid_scores.tobytes() == score_grid([model], queries)[0].tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("data", ["lognormal", "integer"])
def test_score_grid_of_stacked_sets_equals_one_call_per_set(data, cpus, monkeypatch):
    # 7-row blocks: the sets of 5, 9, 1 and 13 rows straddle block edges
    rng = np.random.default_rng(43)
    n = 30
    if data == "lognormal":
        train, queries = rng.lognormal(size=(n, 4)), rng.lognormal(size=(28, 4))
    else:
        train, queries = (rng.integers(0, 5, (n, 4)).astype(float),
                          rng.integers(-2, 7, (28, 4)).astype(float))
    sets = np.split(queries, [5, 14, 15])
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", 7 * n)
    monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
    models = fit_grid(train, [3, 10, 1, 29])
    stacked = score_grid(models, np.concatenate(sets))
    lo = 0
    for queries in sets:
        hi = lo + len(queries)
        for row, alone in zip(stacked, score_grid(models, queries)):
            assert row[lo:hi].tobytes() == alone.tobytes()
        lo = hi


def test_score_grid_needs_models_of_one_fit():
    train = np.random.default_rng(38).standard_normal((20, 4))
    a = fit_grid(train, [3, 5])
    b = fit_grid(train, [3, 5])
    with pytest.raises(ValueError, match="one fit_grid call"):
        score_grid([a[0], b[1]], train[:2])
    with pytest.raises(ValueError, match="one fit_grid call"):
        score_grid([], train[:2])


def test_fit_grid_rejects_an_empty_grid():
    with pytest.raises(ConfigError, match="k_grid must be non-empty"):
        fit_grid(np.random.default_rng(40).standard_normal((10, 4)), [])


def test_fit_rejects_nan_threshold():
    with pytest.raises(ConfigError, match="threshold"):
        fit_grid(np.random.default_rng(39).standard_normal((10, 4)), [3],
                 threshold=float("nan"))


def dense_table(a, b, metric):
    """The whole (len(a), len(b)) table the row-block pass replaced, column by column."""
    table = np.zeros((len(a), len(b)))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        table += np.abs(diff) if metric == "manhattan" else diff * diff
    return table if metric == "manhattan" else np.sqrt(table)


def dense_lof(table, kdist, ref_kdist, ref_lrd=None):
    """The dense formula: each table row's lrd, or its score when ``ref_lrd`` is given."""
    neighborhood = table <= kdist[:, None]
    counts = neighborhood.sum(axis=1)
    reach = np.maximum(ref_kdist[None, :], table)
    mean_reach = np.where(neighborhood, reach, 0.0).sum(axis=1) / counts
    lrd = 1.0 / (mean_reach + lof.LRD_EPSILON)
    if ref_lrd is None:
        return lrd
    return np.where(neighborhood, ref_lrd[None, :], 0.0).sum(axis=1) / counts / lrd


def dense_kdist(table, k):
    return np.partition(table, k - 1, axis=1)[:, k - 1]


@pytest.mark.parametrize("n", [28, 30], ids=["whole-blocks", "ragged-blocks"])
@pytest.mark.parametrize("data", ["grid", "lognormal", "overflow"])
@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_neighbor_lists_and_fused_score_equal_dense_tables(metric, data, n, monkeypatch):
    # the dense fit (one (n, n) table, diagonal inf) and dense score (one
    # (q, n) table) are the reference: k-distances and scores (fed the
    # model's own lrd) bit for bit, lrd to 1e-12; integer-grid data ties
    # often, lognormal data shows the rounding of every sum, and rows at
    # 1e308 overflow to inf distances and k-distances; 7-row blocks put the
    # fit and every query count on and around block edges; the grid is
    # unsorted and repeats a k. The fit's arrays come before any model, so
    # repeated grid rows and overflow rows fit too; the models are fitted on
    # distinct grid rows, or lognormal rows with the overflow rows among the
    # queries, whose k-distances are finite and nonzero at every k
    block, d = 7, 4
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(41)

    def sample(rows, overflow=data == "overflow"):
        if data == "grid":
            return rng.integers(0, 5, (rows, d)).astype(float)
        x = rng.lognormal(0.0, 1.0, (rows, d))
        if overflow:
            x[1::11] = 1e308
        return x

    train = sample(n)
    ks = [24, 3, 1, 7, 3]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, _, _, kdists, lrds = fit_arrays(train, ks, metric, standardize=False)
        table = dense_table(train, train, metric)
        np.fill_diagonal(table, np.inf)
        for k, kdist, lrd in zip(ks, kdists, lrds):
            dense = dense_kdist(table, k)
            assert kdist.tobytes() == dense.tobytes()
            assert_lrd_near(lrd, dense_lof(table, dense, dense))
        if data == "overflow":
            assert np.isinf(table).any() and np.isinf(kdists[0]).any()

        if data == "grid":
            train = lattice_rows(rng, n, d)
        elif data == "overflow":
            train = sample(n, overflow=False)
        models = fit_grid(train, ks, metric, standardize=False)
        table = dense_table(train, train, metric)
        np.fill_diagonal(table, np.inf)
        for q in (1, block - 1, block, block + 1, 2 * block + 3):
            queries = sample(q)
            query_table = dense_table(queries, train, metric)
            for model, scores in zip(models, score_grid(models, queries)):
                expected = dense_lof(query_table, dense_kdist(query_table, model.k),
                                     dense_kdist(table, model.k), model.lrd)
                assert scores.tobytes() == expected.tobytes()
    if data == "overflow":
        assert np.isinf(query_table).any()


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_a_row_with_an_infinite_k_distance_is_not_its_own_neighbor(metric):
    # three rows near the float range are finitely apart but infinitely far
    # from the rest, so at k=3 their list holds every column, their own
    # included; at k=1 and 2 their k-distances are finite, and pass 2's
    # recomputed distance of a row to itself must not count there
    rng = np.random.default_rng(47)
    train = rng.lognormal(0.0, 1.0, (12, 4))
    train[:3] = (1e308 if metric == "manhattan" else 1e154) * np.array([[1.0], [1.01], [1.03]])
    ks = [3, 1, 2]
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, kdists, lrds = fit_arrays(train, ks, metric, standardize=False)
        for k, kdist, lrd in list(zip(ks, kdists, lrds))[1:]:
            _, _, _, single_kdist, single_lrd = fit_arrays(train, [k], metric, standardize=False)
            assert kdist.tobytes() == single_kdist[0].tobytes()
            assert lrd.tobytes() == single_lrd[0].tobytes(), k
    assert np.all(np.isinf(kdists[0][:3])) and np.all(np.isfinite(kdists[1]))


# -- threads ------------------------------------------------------------------


def test_row_block_groups_run_on_threads_that_end_with_the_call(monkeypatch):
    # 3 usable CPUs and 5 blocks: groups of 1, 2 and 2 in order, the first in
    # the calling thread and the others on helpers
    monkeypatch.setattr(lof, "usable_cpus", lambda: 3)
    before = threading.active_count()
    groups = lof._on_threads(lambda group: (group, threading.get_ident()), list(range(5)))
    assert [group for group, _ in groups] == [[0], [1, 2], [3, 4]]
    idents = [ident for _, ident in groups]
    assert idents[0] == threading.get_ident() not in idents[1:]
    assert threading.active_count() == before
    assert lof._on_threads(lambda group: group, []) == []


@pytest.mark.parametrize("cpus", [2, 3, 50])
@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_results_do_not_depend_on_the_thread_count(metric, cpus, monkeypatch):
    # 7-row blocks: a fit of 30 rows has 5 blocks (the last ragged), so 2
    # and 3 threads get ragged groups and 50 is more threads than blocks;
    # one thread is the reference, bit for bit. Duplicate rows tie: in the
    # fit's arrays, where they have k-distance 0 below k=7, and among the
    # queries, which repeat training rows of the distinct rows the models fit
    block, n = 7, 30
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(44)
    train = rng.lognormal(0.0, 1.0, (n, 4))
    duplicated = train.copy()
    duplicated[1::5] = train[0]
    ks = [24, 3, 1, 7, 3]
    query_sets = [rng.lognormal(0.0, 1.0, (q, 4)) for q in (1, 6, 7, 8, 17)] + [train[::3]]

    def run():
        _, _, _, kdists, lrds = fit_arrays(duplicated, ks, metric)
        models = fit_grid(train, ks, metric)
        arrays = [(m.kdist.tobytes(), m.lrd.tobytes()) for m in models]
        scores = [[s.tobytes() for s in score_grid(models, q)] for q in query_sets]
        return kdists.tobytes(), lrds.tobytes(), arrays, scores

    monkeypatch.setattr(lof, "usable_cpus", lambda: 1)
    reference = run()
    monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
    assert run() == reference


def overflow_between_helper_rows(monkeypatch):
    """Training rows whose only overflowing distance lies in a helper thread's group.

    24 rows in 4-row blocks on 2 threads: the calling thread takes rows 0-11
    and the helper rows 12-23. Rows 15 and 20 sit at +1e308 and -1e308 in
    one column, so only the distance between them (and, for queries, a
    query at -1e308 against row 15) overflows; every other distance is
    about 1e308 at most. With k=3 no other row has them as neighbors.
    """
    n = 24
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", 4 * n)
    monkeypatch.setattr(lof, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(45)
    train = rng.standard_normal((n, 4))
    train[15, 0], train[20, 0] = 1e308, -1e308
    queries = rng.standard_normal((n, 4))
    queries[18, 0] = -1e308
    return train, queries


def test_helpers_raise_under_the_callers_errstate(monkeypatch):
    train, queries = overflow_between_helper_rows(monkeypatch)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            fit_grid(train, [3], standardize=False)
    with np.errstate(all="ignore"):
        model = fit_grid(np.delete(train, 20, axis=0), [3], standardize=False)[0]
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            score_grid([model], queries)


def test_helpers_stay_quiet_under_the_callers_errstate(monkeypatch):
    # the same inputs overflow in a helper; a warning from it is an error here
    train, queries = overflow_between_helper_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            score_grid(fit_grid(train, [3], standardize=False), queries)


# one (block, n) float64 distance slab, whatever n is
SLAB_BYTES = lof._BLOCK_ELEMENTS * 8


# each bound holds at one thread and at two, each thread with its own slabs;
# the tests pin the thread count, so the machine's CPU count does not pick it


def test_fit_peak_memory_is_bounded(monkeypatch):
    # fit holds the neighbor lists, an int32 column per entry (n * k
    # entries: normal data has no ties) and no distance, plus a few slabs of
    # one block in pass 1 and, on the band path, a few index arrays of n but
    # no reordered copy of the rows; pass 2 then holds a few arrays of one
    # block's entries, within the slabs pass 1 has freed. A distance per
    # entry as well (12 bytes) breaks the bound at two threads. The (n, n)
    # table alone would be 72 MB, over 10x the bound. These rows take brute
    # force; an unbounded cost sends them down the band path.
    n, k = 3000, 100
    x = np.random.default_rng(35).standard_normal((n, 4))
    z = fit_grid(x, [k])[0].train
    list_bytes = n * k * 4
    for cost in (lof._BAND_MAX_COST, math.inf):
        monkeypatch.setattr(lof, "_BAND_MAX_COST", cost)
        assert (lof._band_plan(z.T.copy(), Metric.MANHATTAN, k) is None) == (cost != math.inf)
        for cpus in (1, 2):
            monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
            peak = traced_peak(lambda: fit_grid(x, [k])[0])
            assert peak < 2 * list_bytes + 8 * SLAB_BYTES, (cost, cpus)
    assert n * n * 8 > 10 * (2 * list_bytes + 8 * SLAB_BYTES)


def test_score_peak_memory_is_bounded(monkeypatch):
    # scoring keeps no store: a few slabs of one query block plus copies of
    # the queries; the (q, n) table alone would be 64 MB, over 10x the bound
    n, q = 1000, 8000
    rng = np.random.default_rng(40)
    models = fit_grid(rng.standard_normal((n, 4)), [5, 20])
    queries = rng.standard_normal((q, 4))
    for cpus in (1, 2):
        monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
        peak = traced_peak(lambda: score_grid(models, queries))
        assert peak < 8 * SLAB_BYTES + 4 * queries.nbytes, cpus
    assert q * n * 8 > 10 * (8 * SLAB_BYTES + 4 * queries.nbytes)


# -- the band search of fit pass 1 ---------------------------------------------

# pass 1's refusal of a zero k-distance at the grid's largest k, under its first k
ZERO_KDIST_REFUSAL = (r"cannot fit the model at k={k}: (at least )?\d+ training rows have "
                      r"k-distance 0 at k={k}: each is at distance 0 from k or more others "
                      r"\(identical, or closer than the metric resolves\); deduplicate them "
                      r"or raise k")

# module settings that send any fit down each path of pass 1
BRUTE_FORCE = {"_BAND_MAX_DIM": 0}
BAND = {"_BAND_MAX_COST": math.inf, "_BAND_MIN_BLOCKS": 0}


def assert_band_blocks_cover_z(blocks, n):
    """The band plan's invariant, which pass 1's own-column lookup relies on.

    Each block's columns hold all of its rows, and the blocks take every row
    of z exactly once.
    """
    for rows, cols in blocks:
        assert np.all(np.isin(rows, cols))
    assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in blocks])), np.arange(n))


def neighbor_entries(z, metric, ks):
    """Pass 1's k-distances and its lists as (row, column) arrays, row by row.

    Each row's entries must be one run, never empty, of int32 columns in
    strictly ascending order: the layout pass 2 sums. Runs keep their order,
    so comparing two results compares it.
    """
    kdist, lists = lof._neighbor_lists(z.T.copy(), Metric(metric), ks)
    rows, cols = [], []
    for ids, starts, c in lists:
        assert c.dtype == np.int32 and len(starts) == len(ids)
        counts = np.diff(starts, append=len(c))
        assert starts[0] == 0 and np.all(counts > 0)
        r = np.repeat(ids, counts)
        assert np.all((np.diff(c) > 0) | (np.diff(r) != 0))
        rows.append(r)
        cols.append(c)
    rows, cols = map(np.concatenate, (rows, cols))
    order = np.argsort(rows, kind="stable")
    return kdist, rows[order], cols[order]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("data", ["lognormal", "grid", "duplicated", "identical"])
@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_band_search_equals_brute_force(metric, data, d, monkeypatch):
    # integer-grid rows, not standardized, put columns exactly on a band's
    # edge; duplicated and identical rows tie; 16-row blocks give the band
    # path many blocks at n=240; the first grid repeats a k. Where rows tie
    # at distance 0 up to the largest k (identical rows, a 1-D grid, and a
    # 2-D grid at k=7), both paths refuse the fit in pass 1, at every
    # thread count; elsewhere the fit's arrays are compared, zero k-distances
    # at smaller k included
    n = 240
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", 16 * n)
    rng = np.random.default_rng(46)
    x = {
        "lognormal": lambda: rng.lognormal(0.0, 1.0, (n, d)),
        "grid": lambda: rng.integers(0, 5, (n, d)).astype(float),
        "duplicated": lambda: np.repeat(rng.lognormal(0.0, 1.0, (n // 4, d)), 4, axis=0),
        "identical": lambda: np.ones((n, d)),
    }[data]()
    standardize = data != "grid"
    defaults = {name: getattr(lof, name) for name in {**BRUTE_FORCE, **BAND}}
    for ks in ([30, 5, 30, 1], [7]):
        results = []
        for settings in (BRUTE_FORCE, BAND):
            for name, value in {**defaults, **settings}.items():
                monkeypatch.setattr(lof, name, value)
            for cpus in (1, 2):
                monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
                try:
                    z, _, _, kdists, lrds = fit_arrays(x, ks, metric, standardize)
                except ConfigError as exc:
                    assert re.fullmatch(ZERO_KDIST_REFUSAL.format(k=ks[0]), str(exc)), str(exc)
                    with pytest.raises(ConfigError, match="have k-distance 0"):
                        fit_grid(x, ks, metric, standardize=standardize)
                    results.append("refused")
                    continue
                plan = lof._band_plan(z.T.copy(), Metric(metric), max(ks))
                assert (plan is None) == (settings is BRUTE_FORCE)
                if plan is not None:
                    assert_band_blocks_cover_z(plan, n)
                entries = neighbor_entries(z, metric, ks)
                results.append((kdists.tobytes(), lrds.tobytes(), [a.tobytes() for a in entries]))
        assert all(result == results[0] for result in results), ks
        # 5 values a column: a 1-D grid repeats each row 48 times, a 2-D one about 10
        zero_at_largest_k = data == "identical" or (data == "grid" and d <= (2 if ks == [7] else 1))
        assert (results[0] == "refused") == zero_at_largest_k, ks


def test_the_default_corpus_fits_by_brute_force(default_corpus, default_trigger):
    # 800 training rows: the train command's k=100 and the sweeps' largest
    # k=200 both take brute force, which is faster at this size
    _, train, _ = default_corpus
    matrix = table_from_signals(train, default_trigger).matrix
    z = fit_grid(matrix, [1])[0].train
    assert len(z) == 800
    for k in (100, 200):
        assert lof._band_plan(z.T.copy(), Metric.MANHATTAN, k) is None, k


def test_a_clustered_tie_free_fit_takes_the_band():
    # 3,000 rows around 4 centers, like the fingerprints of 4 devices, at
    # k=10 and at the train command's k=100 and metric
    rng = np.random.default_rng(0)
    centers = rng.normal(0.0, 10.0, (4, 4))
    x = centers[np.arange(3000) % 4] + rng.standard_normal((3000, 4))
    z = fit_grid(x, [1])[0].train
    for metric, k in [(Metric.MANHATTAN, 10), (Metric.EUCLIDEAN, 10), (Metric.MANHATTAN, 100)]:
        plan = lof._band_plan(z.T.copy(), metric, k)
        assert plan is not None, (metric, k)
        assert_band_blocks_cover_z(plan, len(z))


# -- fit ----------------------------------------------------------------------


def test_fit_unit_square_hand_values():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit_grid(square, [2], standardize=False)[0]
    # Manhattan: each corner sees distances (1, 1, 2) -> kdist 1; all lrds equal
    assert np.allclose(model.kdist, 1.0)
    assert np.allclose(model.lrd, model.lrd[0])


def test_fit_validation():
    square = np.ones((4, 2))
    with pytest.raises(ConfigError, match=r"need at least k\+1=5 rows, got 4"):
        fit_grid(square, [4])
    with pytest.raises(ConfigError, match="k must be at least 1, got 0"):
        fit_grid(square, [0])
    with pytest.raises(ConfigError, match="training features must be finite"):
        fit_grid(np.array([[1.0, np.nan], [0.0, 1.0], [2.0, 0.5]]), [1])
    # finite rows whose column mean overflows standardize to NaN
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError, match="cannot standardize the training features"):
            fit_grid(np.array([[0.0, 1.0], [1.7e308, 0.0], [1.7e308, 0.5]]), [1])
    with pytest.raises(ConfigError, match=r"training matrix must be 2-D, got shape \(8,\)"):
        fit_grid(np.ones(8), [2])
    with pytest.raises(ConfigError,
                       match="metric must be one of manhattan, euclidean, got 'cosine'"):
        fit_grid(np.eye(3), [1], metric="cosine")


@pytest.mark.parametrize("k", [2.5, 3.0, True, np.True_, "3"])
def test_fit_rejects_a_k_that_is_not_an_integer(k):
    x = np.random.default_rng(24).standard_normal((10, 2))
    with pytest.raises(ConfigError, match="k must be an integer, got"):
        fit_grid(x, [k])
    with pytest.raises(ConfigError, match="k must be an integer, got"):
        fit_grid(x, [2, k])


def test_fit_accepts_a_numpy_integer_k(tmp_path):
    # it fits the same model as the int, and the model saves
    x = np.random.default_rng(24).standard_normal((10, 2))
    model = fit_grid(x, [np.int64(3)])[0]
    assert type(model.k) is int
    assert np.array_equal(model.lrd, fit_grid(x, [3])[0].lrd)
    model.save(tmp_path / "model.json")
    assert LofModel.load(tmp_path / "model.json").k == 3


def test_fit_takes_numpy_ks_and_threshold(tmp_path):
    # an ndarray grid fits as the list does, and a float32 threshold and a
    # numpy bool standardize save
    x = np.random.default_rng(24).standard_normal((10, 2))
    models = fit_grid(x, np.array([2, 3]), threshold=np.float32(1.5), standardize=np.bool_(True))
    assert [m.k for m in models] == [2, 3] and type(models[0].threshold) is float
    assert models[0].standardized is True
    assert np.array_equal(models[1].lrd, fit_grid(x, [2, 3])[1].lrd)
    models[0].save(tmp_path / "model.json")
    assert LofModel.load(tmp_path / "model.json").threshold == 1.5


def test_fit_is_deterministic():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, 3))
    a = fit_grid(x, [5])[0]
    b = fit_grid(x, [5])[0]
    assert np.array_equal(a.kdist, b.kdist)
    assert np.array_equal(a.lrd, b.lrd)
    assert np.array_equal(a.train, b.train)


def test_model_defaults():
    x = np.random.default_rng(23).standard_normal((150, 4))
    model = fit_grid(x, [DEFAULT_K])[0]
    assert model.k == DEFAULT_K == 100
    assert model.threshold == DEFAULT_THRESHOLD == 1.5
    assert model.metric is Metric.MANHATTAN


# -- scoring ------------------------------------------------------------------


def test_score_unit_square_far_query():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit_grid(square, [2], standardize=False)[0]
    score = score_grid([model], np.array([5.0, 5.0]))[0][0]
    # hand value: kdist(q)=9 ties in all of (1,1),(0,1),(1,0); reaches 8,9,9
    # -> lrd(q)=3/26, neighbor lrds 1 -> score 26/3 (up to the lrd epsilon)
    assert score > 3.0
    assert abs(score - 26.0 / 3.0) < 1e-6
    ref = brute_lof_scores(square, [[5.0, 5.0]], k=2)[0]
    assert abs(score - ref) <= 1e-9 * ref


def test_score_inlier_near_one():
    rng = np.random.default_rng(24)
    cluster = rng.uniform(0.0, 1.0, (100, 2))
    model = fit_grid(cluster, [10], standardize=False)[0]
    # a training point interior to the uniform cluster scores close to 1
    interior = cluster[np.argmin(np.abs(cluster - 0.5).sum(axis=1))]
    assert 0.8 <= score_grid([model], interior)[0][0] <= 1.2


def test_score_duplicates_stay_finite():
    # three copies of each row: at k=3 each has a neighbor beyond its copies
    data = np.array([[1.0, 1.0]] * 3 + [[2.0, 2.0]] * 3)
    model = fit_grid(data, [3], standardize=False)[0]
    assert np.all(np.isfinite(model.lrd)) and np.all(model.kdist == 2.0)
    s = score_grid([model], np.array([1.0, 1.0]))[0][0]
    assert np.isfinite(s)
    # five copies tie at distance 0 beyond k=3, a density of 1/LRD_EPSILON
    with pytest.raises(ConfigError, match="k=3: 10 training rows have k-distance 0 at k=3"):
        fit_grid(np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5), [3], standardize=False)


def test_score_grid_matches_oracle_with_ties():
    # distinct integer grid rows make distance ties common
    rng = np.random.default_rng(25)
    train = lattice_rows(rng, 30, 2, side=8)
    queries = rng.integers(-2, 6, (10, 2)).astype(float)
    for metric in ("manhattan", "euclidean"):
        model = fit_grid(train, [3], metric=metric, standardize=False)[0]
        mine = score_grid([model], queries)[0]
        ref = brute_lof_scores(train, queries, k=3, metric=metric)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(26)
    train = rng.standard_normal((60, 3))
    queries = rng.standard_normal((15, 3))
    base = score_grid(fit_grid(train, [7]), queries)[0]
    perm = rng.permutation(60)
    shuffled = score_grid(fit_grid(train[perm], [7]), queries)[0]
    assert np.max(np.abs(base - shuffled)) <= 1e-12


def test_monotone_isolation_along_ray():
    rng = np.random.default_rng(27)
    cluster = rng.uniform(-1.0, 1.0, (80, 2))
    model = fit_grid(cluster, [10], standardize=False)[0]
    radii = np.linspace(2.0, 30.0, 15)
    scores = [score_grid([model], np.array([r, r]))[0][0] for r in radii]
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_scaling_invariance_with_standardization():
    rng = np.random.default_rng(28)
    train = rng.standard_normal((50, 4))
    queries = rng.standard_normal((10, 4))
    scale = np.array([100.0, 0.01, 7.0, 1e5])
    base = score_grid(fit_grid(train, [5], standardize=True), queries)[0]
    scaled = score_grid(fit_grid(train * scale, [5], standardize=True), queries * scale)[0]
    assert np.allclose(base, scaled, rtol=1e-9)


def test_standardize_equals_manual_zscore():
    rng = np.random.default_rng(29)
    train = rng.standard_normal((40, 3)) * np.array([10.0, 0.1, 1.0]) + 5.0
    queries = rng.standard_normal((8, 3))
    a = score_grid(fit_grid(train, [4], standardize=True), queries)[0]
    mu, sd = train.mean(axis=0), train.std(axis=0)
    b = score_grid(fit_grid((train - mu) / sd, [4], standardize=False), (queries - mu) / sd)[0]
    assert np.allclose(a, b, rtol=1e-12)


def test_constant_column_does_not_blow_up():
    rng = np.random.default_rng(30)
    train = rng.standard_normal((30, 3))
    train[:, 1] = 4.2  # zero-std column; scaler guard maps it to 1
    model = fit_grid(train, [3])[0]
    scores = score_grid([model], rng.standard_normal((5, 3)))[0]
    assert np.all(np.isfinite(scores))


def test_query_validation():
    model = fit_grid(np.random.default_rng(31).standard_normal((20, 4)), [3])[0]
    with pytest.raises(ConfigError, match="query dimension 3 != model dimension 4"):
        score_grid([model], np.zeros(3))
    with pytest.raises(ConfigError, match="query dimension 1 != model dimension 4"):
        score_grid([model], 5.0)
    with pytest.raises(ConfigError, match="query features must be finite"):
        score_grid([model], np.array([1.0, 2.0, np.inf, 0.0]))


# -- outliers -----------------------------------------------------------------


def test_classify_threshold_rules():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit_grid(square, [2], threshold=1.5, standardize=False)[0]
    assert not model.outliers(score_grid([model], np.array([0.5, 0.5]))[0])[0]
    assert model.outliers(score_grid([model], np.array([9.0, 9.0]))[0])[0]
    # boundary: score exactly at threshold stays an inlier
    exact = fit_grid(square, [2], threshold=score_grid([model], np.array([5.0, 5.0]))[0][0],
                     standardize=False)[0]
    assert not exact.outliers(score_grid([exact], np.array([5.0, 5.0]))[0])[0]


def test_classify_batch_agrees_with_scalar():
    rng = np.random.default_rng(32)
    train = rng.standard_normal((30, 2))
    queries = rng.standard_normal((12, 2)) * 3.0
    model = fit_grid(train, [4])[0]
    batch = model.outliers(score_grid([model], queries)[0])
    assert batch.tolist() == [model.outliers(score_grid([model], q)[0])[0] for q in queries]


def test_outliers_at_the_threshold_and_at_nan_are_inliers():
    model = fit_grid(np.random.default_rng(33).standard_normal((10, 2)), [3], threshold=1.5)[0]
    mask = model.outliers([1.5, np.nan, np.nextafter(1.5, 2.0), 0.0, np.inf])
    assert mask.dtype == bool
    assert mask.tolist() == [False, False, True, False, True]
    assert model.outliers(np.array([])).shape == (0,)


# -- persistence --------------------------------------------------------------


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    train = rng.standard_normal((40, 4)) * np.array([1.0, 10.0, 0.1, 2.0])
    queries = rng.standard_normal((10, 4))
    model = fit_grid(train, [6], metric="euclidean", threshold=2.0)[0]
    path = tmp_path / "model.json"
    model.save(path)
    back = LofModel.load(path)
    assert back.k == 6 and back.metric is Metric.EUCLIDEAN and back.threshold == 2.0
    assert np.array_equal(back.train, model.train)
    # identical scores after the round trip
    assert np.array_equal(score_grid([back], queries)[0], score_grid([model], queries)[0])


def whole_document(model) -> str:
    """model.json as one ``json.dumps`` of the whole document, the text ``save`` writes."""
    doc = {
        "format": lof.MODEL_FORMAT,
        "version": lof.MODEL_FORMAT_VERSION,
        "k": model.k,
        "metric": model.metric.value,
        "threshold": model.threshold,
        "standardized": model.standardized,
        "scaler_mean": model.scaler_mean.tolist(),
        "scaler_std": model.scaler_std.tolist(),
        "train": model.train.tolist(),
        "kdist": model.kdist.tolist(),
        "lrd": model.lrd.tolist(),
    }
    return json.dumps(doc) + "\n"


@pytest.mark.parametrize("n", [3, 4, 5, 11], ids=["slice-1", "slice", "slice+1", "2slices+3"])
@pytest.mark.parametrize("metric, standardize",
                         [("manhattan", True), ("euclidean", True), ("manhattan", False)])
def test_model_json_is_the_whole_document_written_in_slices(metric, standardize, n, tmp_path,
                                                           monkeypatch):
    # 4-row slices: a model of n rows ends one short of, on, one past and
    # three past a slice edge
    monkeypatch.setattr(lof, "_SAVE_ROWS", 4)
    train = np.random.default_rng(48).lognormal(0.0, 1.0, (n, 4)) * [1.0, 10.0, 0.1, 3.0]
    model = fit_grid(train, [2], metric, threshold=1.25, standardize=standardize)[0]
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_text() == whole_document(model)
    back = LofModel.load(path)
    for name in MODEL_ARRAYS:
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes(), name
    assert (back.k, back.metric, back.threshold, back.standardized) == (
        model.k, model.metric, model.threshold, model.standardized)


def test_model_save_peak_memory_is_below_its_text(tmp_path):
    # an 8,000-row model's text is about 0.94 MiB; written in slices, save
    # holds one slice's lists and text at a time, not the whole document
    rng = np.random.default_rng(49)
    n = 8000
    model = LofModel(train=rng.standard_normal((n, 4)), k=100, metric=Metric.MANHATTAN,
                     threshold=1.5, kdist=rng.uniform(0.5, 1.0, n), lrd=rng.uniform(0.5, 2.0, n),
                     scaler_mean=np.zeros(4), scaler_std=np.ones(4), standardized=True)
    path = tmp_path / "model.json"
    peak = traced_peak(lambda: model.save(path))
    size = path.stat().st_size
    assert size > 900_000
    assert peak < size, (peak, size)


def test_zero_kdist_refusal_names_distinct_rows_the_metric_cannot_tell_apart():
    # distinct rows 1e-170 apart: their squared differences underflow to 0
    x = np.array([[0.0, 0, 0, 0], [1e-170, 0, 0, 0], [3e-170, 0, 0, 0], [5, 5, 5, 5], [9, 1, 2, 3]])
    with pytest.raises(ConfigError) as refusal:
        fit_grid(x, [1], metric="euclidean", standardize=False)
    assert str(refusal.value) == (
        "cannot fit the model at k=1: 3 training rows have k-distance 0 at k=1: each is at "
        "distance 0 from k or more others (identical, or closer than the metric resolves); "
        "deduplicate them or raise k")
    manhattan = fit_grid(x, [1], standardize=False)[0]
    assert manhattan.kdist[0] == 1e-170


def fitted_fields(x, ks, at, standardize=True) -> dict:
    """``LofModel``'s arguments for the model at ``ks[at]``, from ``fit_grid``'s own arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        z, mean, std, kdists, lrds = fit_arrays(x, ks, "manhattan", standardize)
    return dict(train=z, k=ks[at], metric=Metric.MANHATTAN, threshold=DEFAULT_THRESHOLD,
                kdist=kdists[at], lrd=lrds[at], scaler_mean=mean, scaler_std=std,
                standardized=standardize)


def usable_fields() -> dict:
    """The arguments of a model of 8 distinct rows at k=2, which builds."""
    return fitted_fields(np.random.default_rng(50).standard_normal((8, 4)), [2], 0)


def edited_fields(name, edit) -> dict:
    fields_ = usable_fields()
    return {**fields_, name: edit(fields_[name])}


def nudged(array, at, value):
    array = array.copy()
    array[at] = value
    return array


# three copies of a row: each other's two nearest neighbors, but not three
COPIES = [[1.0, 2.0, 3.0, 4.0]] * 3 + np.random.default_rng(49).standard_normal((5, 4)).tolist()
# rows near the float range: without standardization the distances overflow
# to an infinite k-distance, and with it the variance to an infinite scaler_std
OVERFLOW = [[1e308, 1.0], [-1e308, 1.0], [0.5, 1.0]]
SPREAD = [*np.random.default_rng(48).standard_normal((20, 4)).tolist(),
          [1e308, 0, 0, 0], [-1e308, 0, 0, 0]]
ZERO_KDIST_RULE = ("3 training rows have k-distance 0 at k=2: each is at distance 0 from k or "
                   "more others (identical, or closer than the metric resolves); deduplicate "
                   "them or raise k")
ZERO_KDIST_FIT = f"cannot fit the model at k=2: {ZERO_KDIST_RULE}"

# Each case of the usable-model rule: LofModel's arguments, its rule text,
# and the fit_grid calls that produce the case, with what each raises
RULE_CASES = {
    # at k=3 the copies fit, so the constructor refuses k=2; at k=2 alone, pass 1 does
    "zero-kdist": (lambda: fitted_fields(COPIES, [2, 3], 0), ZERO_KDIST_RULE,
                   [(lambda: fit_grid(COPIES, [2, 3]), ZERO_KDIST_FIT),
                    (lambda: fit_grid(COPIES, [2]), ZERO_KDIST_FIT)]),
    "kdist-non-finite": (lambda: fitted_fields(OVERFLOW, [2], 0, standardize=False),
                         "kdist holds non-finite values",
                         [(lambda: fit_grid(OVERFLOW, [1, 2], standardize=False),
                           "cannot fit the model at k=2: kdist holds non-finite values")]),
    "lrd-non-finite": (lambda: edited_fields("lrd", lambda a: nudged(a, 3, np.inf)),
                       "lrd holds non-finite values", []),
    "scaler-std-non-finite": (lambda: fitted_fields(SPREAD, [2], 0),
                              "scaler_std holds non-finite values",
                              [(lambda: fit_grid(SPREAD, [2, 5]), "cannot fit the model at "
                                "k=2: scaler_std holds non-finite values")]),
    "scaler-std-zero": (lambda: edited_fields("scaler_std", lambda a: nudged(a, 1, 0.0)),
                        "scaler_std must be positive", []),
    "scaler-std-negative": (lambda: edited_fields("scaler_std", lambda a: nudged(a, 0, -1.0)),
                            "scaler_std must be positive", []),
    "k-zero": (lambda: edited_fields("k", lambda k: 0), "k=0 outside 1..7 for 8 training rows",
               []),
    "k-n": (lambda: edited_fields("k", lambda k: 8), "k=8 outside 1..7 for 8 training rows", []),
    "short-kdist": (lambda: edited_fields("kdist", lambda a: a[:-1]),
                    "kdist has shape (7,), expected (8,)", []),
    "row-train": (lambda: edited_fields("train", lambda a: a[0]),
                  "train must be a matrix of at least 2 rows, got shape (4,)", []),
    "threshold-inf": (lambda: edited_fields("threshold", lambda t: np.inf),
                      "threshold must be finite, got inf",
                      [(lambda: fit_grid(COPIES, [2], threshold=np.inf),
                        "threshold must be finite, got inf")]),
    "threshold-minus-inf": (lambda: edited_fields("threshold", lambda t: -np.inf),
                            "threshold must be finite, got -inf",
                            [(lambda: fit_grid(COPIES, [2], threshold=float("-inf")),
                              "threshold must be finite, got -inf")]),
    "threshold-nan": (lambda: edited_fields("threshold", lambda t: np.nan),
                      "threshold must be finite, got nan",
                      [(lambda: fit_grid(COPIES, [2], threshold=np.nan),
                        "threshold must be finite, got nan")]),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_one_rule_at_every_entry_point(case, tmp_path):
    # the constructor, load and fit_grid refuse each case with the rule's
    # own text; load names the file, and fit_grid the first k in grid order
    # whose model breaks it, where a fit can produce the case at all (it
    # refuses a k outside 1..n-1 with its own argument rule, and never fits
    # a zero scaler_std or a mis-shaped array). A threshold is refused
    # before the fit, and a zero k-distance at the largest k in pass 1.
    make_fields, rule, fits = RULE_CASES[case]
    fields_ = make_fields()
    with pytest.raises(ConfigError) as refusal:
        LofModel(**fields_)
    assert str(refusal.value) == rule
    doc = {"format": lof.MODEL_FORMAT, "version": lof.MODEL_FORMAT_VERSION,
           **{name: value.tolist() if isinstance(value, np.ndarray) else value
              for name, value in fields_.items()}, "metric": fields_["metric"].value}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # an infinity or NaN as JavaScript writes it
    with pytest.raises(FormatError) as refusal:
        LofModel.load(path)
    assert str(refusal.value) == f"{path}: {rule}"
    for fit, message in fits:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConfigError) as refusal:
                fit()
        assert str(refusal.value) == message


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_fit_with_zero_k_distances_is_refused_before_its_lists_grow(cpus, monkeypatch):
    # pass 1 refuses a zero k-distance at the largest k in the first block
    # that measures one: identical rows would otherwise store n - 1 neighbor
    # entries a row, against k on tie-free rows; so the refused fits peak
    # below a tie-free fit of the same size, at one thread and at two
    n, k = 2000, 10
    monkeypatch.setattr(lof, "usable_cpus", lambda: cpus)
    rng = np.random.default_rng(53)
    tie_free = rng.lognormal(0.0, 1.0, (n, 4))
    bound = traced_peak(lambda: fit_grid(tie_free, [k], standardize=False))
    two_groups = np.repeat(rng.lognormal(0.0, 1.0, (2, 4)), n // 2, axis=0)
    for x in (two_groups, np.ones((n, 4))):

        def refused():
            with pytest.raises(ConfigError, match=ZERO_KDIST_REFUSAL.format(k=k)):
                fit_grid(x, [k], standardize=False)

        assert traced_peak(refused) < bound


def test_records_store_read_only_views_of_the_callers_arrays():
    # the model cannot change an array, and the caller still can
    fields_ = usable_fields()
    arrays = {name: np.array(fields_[name]) for name in MODEL_ARRAYS}
    model = LofModel(**{**fields_, **arrays})
    for name, array in arrays.items():
        assert array.flags.writeable and not getattr(model, name).flags.writeable, name
        assert np.shares_memory(array, getattr(model, name)), name
        array[0] = 1.0
    # one fit's models share one read-only reference, which score_grid checks
    models = fit_grid(arrays["train"], [2, 3])
    assert models[0].train is models[1].train and not models[0].train.flags.writeable


def test_model_load_rejects_other_documents(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        LofModel.load(path)
