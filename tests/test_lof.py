"""Local Outlier Factor: distances, fit/score/outliers, memory, persistence."""

import threading
import warnings

import numpy as np
import pytest

from rfsentry import lof
from rfsentry.errors import ConfigError
from rfsentry.lof import (
    DEFAULT_K,
    DEFAULT_THRESHOLD,
    LofModel,
    Metric,
    fit,
    fit_grid,
    score_grid,
)

from .conftest import traced_peak
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
        fit(np.eye(4), k=1, metric="manhattan").score_batch(np.zeros(3))
    with pytest.raises(ConfigError, match="query dimension 5 != model dimension 2"):
        fit(np.eye(2) * 3.0, k=1, metric="euclidean").score_batch(np.zeros(5))
    # a third axis is its own error, whether or not the last axis fits the model
    for shape in ((2, 4, 4), (2, 2, 4)):
        with pytest.raises(ConfigError,
                           match="queries must be one row or a 2-D array, got 3 dimensions"):
            fit(np.eye(4), k=1).score_batch(np.zeros(shape))


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


# -- the shared core against its references -----------------------------------


def tensor_lof(train, queries, k, metric):
    """The (q, n, d) difference-tensor formula the row-block core replaced."""

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
    neighborhood, counts, lrd_q = densities(pairwise(queries, train), kdist)
    mean_neighbor_lrd = np.where(neighborhood, lrd[None, :], 0.0).sum(axis=1) / counts
    return kdist, lrd, mean_neighbor_lrd / lrd_q


@pytest.mark.parametrize("grid", [True, False], ids=["grid", "normal"])
@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_core_matches_references_across_block_edges(metric, grid, monkeypatch):
    # integer grid data forces distance ties, and normal data makes the
    # rounding of every sum visible; 7-row blocks put both the fit (30 rows)
    # and every query count below on and around block edges
    block, n, d = 7, 30, 4
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(34)

    def sample(rows, lo, hi):
        if grid:
            return rng.integers(lo, hi, (rows, d)).astype(float)
        return rng.normal(lo, hi - lo, (rows, d))

    train = sample(n, 0, 4)
    model = fit(train, k=3, metric=metric, standardize=False)
    for q in (1, block - 1, block, block + 1, 2 * block + 3):
        queries = sample(q, -2, 6)
        kdist, lrd, scores = tensor_lof(train, queries, 3, metric)
        assert np.array_equal(model.kdist, kdist)
        assert np.array_equal(model.lrd, lrd)
        mine = model.score_batch(queries)
        assert np.array_equal(mine, scores)
        ref = brute_lof_scores(train, queries, k=3, metric=metric)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("rows", [1, 6, 7, 8, 17])
def test_multi_k_kdist_equals_one_partition_per_k(rows):
    # integer-grid distances tie often; the grid is unsorted and repeats a k
    n = 12
    table = np.random.default_rng(36).integers(0, 5, (rows, n)).astype(float)
    ks = [n - 1, 3, 1, 7, 3]
    kdists = lof._kdist(table, ks, np.empty_like(table))
    assert kdists.shape == (len(ks), rows)
    for k, kdist in zip(ks, kdists):
        assert kdist.tobytes() == np.partition(table, k - 1, axis=1)[:, k - 1].tobytes()


MODEL_ARRAYS = ("train", "kdist", "lrd", "scaler_mean", "scaler_std")


@pytest.mark.parametrize("metric", ["manhattan", "euclidean"])
def test_grid_equals_one_fit_and_score_per_k(metric):
    # integer-grid data ties often; the grid is unsorted and repeats a k
    rng = np.random.default_rng(37)
    train = rng.integers(0, 5, (25, 4)).astype(float)
    queries = rng.integers(-2, 7, (9, 4)).astype(float)
    ks = [24, 3, 1, 7, 3]
    models = fit_grid(train, ks, metric, threshold=1.2)
    assert [m.k for m in models] == ks
    for model, k in zip(models, ks):
        single = fit(train, k, metric, threshold=1.2)
        assert (model.metric, model.threshold, model.standardized) == (
            single.metric, single.threshold, single.standardized)
        for name in MODEL_ARRAYS:
            assert getattr(model, name).tobytes() == getattr(single, name).tobytes(), name
    scores = score_grid(models, queries)
    assert len(scores) == len(ks)
    for model, grid_scores in zip(models, scores):
        assert grid_scores.tobytes() == model.score_batch(queries).tobytes()


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
        fit(np.random.default_rng(39).standard_normal((10, 4)), k=3, threshold=float("nan"))


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
    # (q, n) table) are the reference, bit for bit: integer-grid data ties
    # often, lognormal data shows the rounding of every sum, and rows at
    # 1e308 overflow to inf distances and k-distances; 7-row blocks put the
    # fit and every query count on and around block edges; the grid is
    # unsorted and repeats a k
    block, d = 7, 4
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(41)

    def sample(rows):
        if data == "grid":
            return rng.integers(0, 5, (rows, d)).astype(float)
        x = rng.lognormal(0.0, 1.0, (rows, d))
        if data == "overflow":
            x[1::11] = 1e308
        return x

    train = sample(n)
    ks = [24, 3, 1, 7, 3]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        models = fit_grid(train, ks, metric, standardize=False)
        table = dense_table(train, train, metric)
        np.fill_diagonal(table, np.inf)
        kdists = [dense_kdist(table, k) for k in ks]
        lrds = [dense_lof(table, kdist, kdist) for kdist in kdists]
        for model, kdist, lrd in zip(models, kdists, lrds):
            assert model.kdist.tobytes() == kdist.tobytes()
            assert model.lrd.tobytes() == lrd.tobytes()
        for q in (1, block - 1, block, block + 1, 2 * block + 3):
            queries = sample(q)
            query_table = dense_table(queries, train, metric)
            for k, kdist, lrd, scores in zip(ks, kdists, lrds, score_grid(models, queries)):
                expected = dense_lof(query_table, dense_kdist(query_table, k), kdist, lrd)
                assert scores.tobytes() == expected.tobytes()
    if data == "overflow":
        assert np.isinf(table).any() and np.isinf(kdists[0]).any()


# -- threads ------------------------------------------------------------------


def test_row_block_groups_run_on_threads_that_end_with_the_call(monkeypatch):
    # 3 usable CPUs and 5 blocks: groups of 1, 2 and 2 in order, the first in
    # the calling thread and the others on helpers
    monkeypatch.setattr(lof, "_usable_cpus", lambda: 3)
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
    # one thread is the reference, bit for bit; duplicate rows tie
    block, n = 7, 30
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", block * n)
    rng = np.random.default_rng(44)
    train = rng.lognormal(0.0, 1.0, (n, 4))
    train[1::5] = train[0]
    ks = [24, 3, 1, 7, 3]
    query_sets = [rng.lognormal(0.0, 1.0, (q, 4)) for q in (1, 6, 7, 8, 17)]

    def run():
        models = fit_grid(train, ks, metric)
        arrays = [(m.kdist.tobytes(), m.lrd.tobytes()) for m in models]
        scores = [[s.tobytes() for s in score_grid(models, q)] for q in query_sets]
        return arrays, scores

    monkeypatch.setattr(lof, "_usable_cpus", lambda: 1)
    reference = run()
    monkeypatch.setattr(lof, "_usable_cpus", lambda: cpus)
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
    monkeypatch.setattr(lof, "_usable_cpus", lambda: 2)
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
            fit(train, k=3, standardize=False)
    with np.errstate(all="ignore"):
        model = fit(np.delete(train, 20, axis=0), k=3, standardize=False)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            score_grid([model], queries)


def test_helpers_stay_quiet_under_the_callers_errstate(monkeypatch):
    # the same inputs overflow in a helper; a warning from it is an error here
    train, queries = overflow_between_helper_rows(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            fit(train, k=3, standardize=False).score_batch(queries)


# one (block, n) float64 distance slab, whatever n is
SLAB_BYTES = lof._BLOCK_ELEMENTS * 8


# each bound holds at one thread and at two, each thread with its own slabs;
# the tests pin the thread count, so the machine's CPU count does not pick it


def test_fit_peak_memory_is_bounded(monkeypatch):
    # fit holds the neighbor lists, a flat index and a distance per entry
    # (n * k entries: normal data has no ties), plus a few slabs of one row
    # block; the (n, n) table alone would be 72 MB, over 10x the bound
    n, k = 3000, 10
    x = np.random.default_rng(35).standard_normal((n, 4))
    list_bytes = n * k * (8 + 8)
    for cpus in (1, 2):
        monkeypatch.setattr(lof, "_usable_cpus", lambda: cpus)
        peak = traced_peak(lambda: fit(x, k=k))
        assert peak < 2 * list_bytes + 8 * SLAB_BYTES, cpus
    assert n * n * 8 > 10 * (2 * list_bytes + 8 * SLAB_BYTES)


def test_score_peak_memory_is_bounded(monkeypatch):
    # scoring keeps no store: a few slabs of one query block plus copies of
    # the queries; the (q, n) table alone would be 64 MB, over 10x the bound
    n, q = 1000, 8000
    rng = np.random.default_rng(40)
    models = fit_grid(rng.standard_normal((n, 4)), [5, 20])
    queries = rng.standard_normal((q, 4))
    for cpus in (1, 2):
        monkeypatch.setattr(lof, "_usable_cpus", lambda: cpus)
        peak = traced_peak(lambda: score_grid(models, queries))
        assert peak < 8 * SLAB_BYTES + 4 * queries.nbytes, cpus
    assert q * n * 8 > 10 * (8 * SLAB_BYTES + 4 * queries.nbytes)


# -- fit ----------------------------------------------------------------------


def test_fit_unit_square_hand_values():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit(square, k=2, standardize=False)
    # Manhattan: each corner sees distances (1, 1, 2) -> kdist 1; all lrds equal
    assert np.allclose(model.kdist, 1.0)
    assert np.allclose(model.lrd, model.lrd[0])


def test_fit_validation():
    square = np.ones((4, 2))
    with pytest.raises(ConfigError, match=r"need at least k\+1=5 rows, got 4"):
        fit(square, k=4)
    with pytest.raises(ConfigError, match="k must be at least 1, got 0"):
        fit(square, k=0)
    with pytest.raises(ConfigError, match="training features must be finite"):
        fit(np.array([[1.0, np.nan], [0.0, 1.0], [2.0, 0.5]]), k=1)
    with pytest.raises(ConfigError, match=r"training matrix must be 2-D, got shape \(8,\)"):
        fit(np.ones(8), k=2)


@pytest.mark.parametrize("k", [2.5, 3.0, True, np.True_, "3"])
def test_fit_rejects_a_k_that_is_not_an_integer(k):
    x = np.random.default_rng(24).standard_normal((10, 2))
    with pytest.raises(ConfigError, match="k must be an integer, got"):
        fit(x, k=k)
    with pytest.raises(ConfigError, match="k must be an integer, got"):
        fit_grid(x, [2, k])


def test_fit_accepts_a_numpy_integer_k(tmp_path):
    # it fits the same model as the int, and the model saves
    x = np.random.default_rng(24).standard_normal((10, 2))
    model = fit(x, k=np.int64(3))
    assert type(model.k) is int
    assert np.array_equal(model.lrd, fit(x, k=3).lrd)
    model.save(tmp_path / "model.json")
    assert LofModel.load(tmp_path / "model.json").k == 3


def test_fit_is_deterministic():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, 3))
    a = fit(x, k=5)
    b = fit(x, k=5)
    assert np.array_equal(a.kdist, b.kdist)
    assert np.array_equal(a.lrd, b.lrd)
    assert np.array_equal(a.train, b.train)


def test_model_defaults():
    x = np.random.default_rng(23).standard_normal((150, 4))
    model = fit(x)
    assert model.k == DEFAULT_K == 100
    assert model.threshold == DEFAULT_THRESHOLD == 1.5
    assert model.metric is Metric.MANHATTAN


# -- scoring ------------------------------------------------------------------


def test_score_unit_square_far_query():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit(square, k=2, standardize=False)
    score = model.score_batch(np.array([5.0, 5.0]))[0]
    # hand value: kdist(q)=9 ties in all of (1,1),(0,1),(1,0); reaches 8,9,9
    # -> lrd(q)=3/26, neighbor lrds 1 -> score 26/3 (up to the lrd epsilon)
    assert score > 3.0
    assert abs(score - 26.0 / 3.0) < 1e-6
    ref = brute_lof_scores(square, [[5.0, 5.0]], k=2)[0]
    assert abs(score - ref) <= 1e-9 * ref


def test_score_inlier_near_one():
    rng = np.random.default_rng(24)
    cluster = rng.uniform(0.0, 1.0, (100, 2))
    model = fit(cluster, k=10, standardize=False)
    # a training point interior to the uniform cluster scores close to 1
    interior = cluster[np.argmin(np.abs(cluster - 0.5).sum(axis=1))]
    assert 0.8 <= model.score_batch(interior)[0] <= 1.2


def test_score_duplicates_stay_finite():
    data = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
    model = fit(data, k=3, standardize=False)
    assert np.all(np.isfinite(model.lrd))
    s = model.score_batch(np.array([1.0, 1.0]))[0]
    assert np.isfinite(s)


def test_score_batch_matches_oracle_with_ties():
    # integer grid data makes distance ties common
    rng = np.random.default_rng(25)
    train = rng.integers(0, 4, (30, 2)).astype(float)
    queries = rng.integers(-2, 6, (10, 2)).astype(float)
    for metric in ("manhattan", "euclidean"):
        model = fit(train, k=3, metric=metric, standardize=False)
        mine = model.score_batch(queries)
        ref = brute_lof_scores(train, queries, k=3, metric=metric)
        assert np.allclose(mine, ref, rtol=1e-9, atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(26)
    train = rng.standard_normal((60, 3))
    queries = rng.standard_normal((15, 3))
    base = fit(train, k=7).score_batch(queries)
    perm = rng.permutation(60)
    shuffled = fit(train[perm], k=7).score_batch(queries)
    assert np.max(np.abs(base - shuffled)) <= 1e-12


def test_monotone_isolation_along_ray():
    rng = np.random.default_rng(27)
    cluster = rng.uniform(-1.0, 1.0, (80, 2))
    model = fit(cluster, k=10, standardize=False)
    radii = np.linspace(2.0, 30.0, 15)
    scores = [model.score_batch(np.array([r, r]))[0] for r in radii]
    assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))


def test_scaling_invariance_with_standardization():
    rng = np.random.default_rng(28)
    train = rng.standard_normal((50, 4))
    queries = rng.standard_normal((10, 4))
    scale = np.array([100.0, 0.01, 7.0, 1e5])
    base = fit(train, k=5, standardize=True).score_batch(queries)
    scaled = fit(train * scale, k=5, standardize=True).score_batch(queries * scale)
    assert np.allclose(base, scaled, rtol=1e-9)


def test_standardize_equals_manual_zscore():
    rng = np.random.default_rng(29)
    train = rng.standard_normal((40, 3)) * np.array([10.0, 0.1, 1.0]) + 5.0
    queries = rng.standard_normal((8, 3))
    a = fit(train, k=4, standardize=True).score_batch(queries)
    mu, sd = train.mean(axis=0), train.std(axis=0)
    b = fit((train - mu) / sd, k=4, standardize=False).score_batch((queries - mu) / sd)
    assert np.allclose(a, b, rtol=1e-12)


def test_constant_column_does_not_blow_up():
    rng = np.random.default_rng(30)
    train = rng.standard_normal((30, 3))
    train[:, 1] = 4.2  # zero-std column; scaler guard maps it to 1
    model = fit(train, k=3)
    scores = model.score_batch(rng.standard_normal((5, 3)))
    assert np.all(np.isfinite(scores))


def test_query_validation():
    model = fit(np.random.default_rng(31).standard_normal((20, 4)), k=3)
    with pytest.raises(ConfigError, match="query dimension 3 != model dimension 4"):
        model.score_batch(np.zeros(3))
    with pytest.raises(ConfigError, match="query dimension 1 != model dimension 4"):
        model.score_batch(5.0)
    with pytest.raises(ConfigError, match="query features must be finite"):
        model.score_batch(np.array([1.0, 2.0, np.inf, 0.0]))


# -- outliers -----------------------------------------------------------------


def test_classify_threshold_rules():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit(square, k=2, threshold=1.5, standardize=False)
    assert not model.outliers(model.score_batch(np.array([0.5, 0.5])))[0]
    assert model.outliers(model.score_batch(np.array([9.0, 9.0])))[0]
    # boundary: score exactly at threshold stays an inlier
    exact = fit(square, k=2, threshold=model.score_batch(np.array([5.0, 5.0]))[0],
                standardize=False)
    assert not exact.outliers(exact.score_batch(np.array([5.0, 5.0])))[0]


def test_classify_batch_agrees_with_scalar():
    rng = np.random.default_rng(32)
    train = rng.standard_normal((30, 2))
    queries = rng.standard_normal((12, 2)) * 3.0
    model = fit(train, k=4)
    batch = model.outliers(model.score_batch(queries))
    assert batch.tolist() == [model.outliers(model.score_batch(q))[0] for q in queries]


def test_outliers_at_the_threshold_and_at_nan_are_inliers():
    model = fit(np.random.default_rng(33).standard_normal((10, 2)), k=3, threshold=1.5)
    mask = model.outliers([1.5, np.nan, np.nextafter(1.5, 2.0), 0.0, np.inf])
    assert mask.dtype == bool
    assert mask.tolist() == [False, False, True, False, True]
    assert model.outliers(np.array([])).shape == (0,)


# -- persistence --------------------------------------------------------------


def test_model_json_round_trip(tmp_path):
    rng = np.random.default_rng(33)
    train = rng.standard_normal((40, 4)) * np.array([1.0, 10.0, 0.1, 2.0])
    queries = rng.standard_normal((10, 4))
    model = fit(train, k=6, metric="euclidean", threshold=2.0)
    path = tmp_path / "model.json"
    model.save(path)
    back = LofModel.load(path)
    assert back.k == 6 and back.metric is Metric.EUCLIDEAN and back.threshold == 2.0
    assert np.array_equal(back.train, model.train)
    # identical scores after the round trip
    assert np.array_equal(back.score_batch(queries), model.score_batch(queries))


def test_model_load_rejects_other_documents(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        LofModel.load(path)
