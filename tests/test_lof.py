"""Local Outlier Factor: distance table, fit/score/classify, persistence."""

import tracemalloc

import numpy as np
import pytest

from rfsentry import lof
from rfsentry.errors import (
    ConfigError,
    DimensionMismatch,
    NonFiniteFeature,
    NotEnoughTrainingData,
    ShapeError,
)
from rfsentry.lof import (
    DEFAULT_K,
    DEFAULT_THRESHOLD,
    Label,
    LofModel,
    Metric,
    _distance_table,
    fit,
    fit_grid,
    score_grid,
)

from .oracles import brute_lof_scores


def distance(a, b, metric: Metric) -> float:
    """One entry of the distance table, for hand examples."""
    return float(_distance_table(np.atleast_2d(a), np.atleast_2d(b), metric)[0, 0])


# -- distance table -----------------------------------------------------------


def test_manhattan_examples():
    m = Metric.MANHATTAN
    assert distance(np.zeros(4), np.zeros(4), m) == 0.0
    assert distance(np.array([1.0, 2, 3, 4]), np.array([4.0, 3, 2, 1]), m) == 8.0


def test_euclidean_example():
    assert distance(np.array([3.0, 0.0]), np.array([0.0, 4.0]), Metric.EUCLIDEAN) == 5.0


def test_distance_dimension_mismatch():
    # the table trusts its shapes; queries are checked where they enter
    with pytest.raises(DimensionMismatch):
        fit(np.eye(4), k=1, metric="manhattan").score_batch(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        fit(np.eye(2) * 3.0, k=1, metric="euclidean").score_batch(np.zeros(5))


def test_metric_axioms_on_random_triples():
    rng = np.random.default_rng(21)
    for metric in Metric:
        for _ in range(20):
            abc = rng.standard_normal((3, 4))
            d = _distance_table(abc, abc, metric)
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
def test_multi_k_kdist_equals_one_partition_per_k(rows, monkeypatch):
    # integer-grid distances tie often; 7-row blocks put the row counts on
    # and around block edges; the grid is unsorted and repeats a k
    n = 12
    monkeypatch.setattr(lof, "_BLOCK_ELEMENTS", 7 * n)
    table = np.random.default_rng(36).integers(0, 5, (rows, n)).astype(float)
    ks = [n - 1, 3, 1, 7, 3]
    kdists = lof._kdist(table, ks)
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


def test_fit_rejects_nan_threshold():
    with pytest.raises(ConfigError, match="threshold"):
        fit(np.random.default_rng(39).standard_normal((10, 4)), k=3, threshold=float("nan"))


def test_fit_peak_memory_is_bounded():
    # the (n, n) table is the only n*n allocation; an (n, n, d) difference
    # tensor would alone be 4x the table at d=4
    n = 3000
    x = np.random.default_rng(35).standard_normal((n, 4))
    table_bytes = n * n * 8
    tracemalloc.start()
    try:
        fit(x, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table_bytes <= peak < 2.5 * table_bytes


# -- fit ----------------------------------------------------------------------


def test_fit_unit_square_hand_values():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit(square, k=2, standardize=False)
    # Manhattan: each corner sees distances (1, 1, 2) -> kdist 1; all lrds equal
    assert np.allclose(model.kdist, 1.0)
    assert np.allclose(model.lrd, model.lrd[0])


def test_fit_validation():
    square = np.ones((4, 2))
    with pytest.raises(NotEnoughTrainingData):
        fit(square, k=4)
    with pytest.raises(NotEnoughTrainingData):
        fit(square, k=0)
    with pytest.raises(NonFiniteFeature):
        fit(np.array([[1.0, np.nan], [0.0, 1.0], [2.0, 0.5]]), k=1)
    with pytest.raises(ShapeError):
        fit(np.ones(8), k=2)


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
    score = model.score(np.array([5.0, 5.0]))
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
    assert 0.8 <= model.score(interior) <= 1.2


def test_score_duplicates_stay_finite():
    data = np.array([[1.0, 1.0]] * 5 + [[2.0, 2.0]] * 5)
    model = fit(data, k=3, standardize=False)
    assert np.all(np.isfinite(model.lrd))
    s = model.score(np.array([1.0, 1.0]))
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
    scores = [model.score(np.array([r, r])) for r in radii]
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
    with pytest.raises(DimensionMismatch):
        model.score(np.zeros(3))
    with pytest.raises(NonFiniteFeature):
        model.score(np.array([1.0, 2.0, np.inf, 0.0]))


# -- classify -----------------------------------------------------------------


def test_classify_threshold_rules():
    square = np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]])
    model = fit(square, k=2, threshold=1.5, standardize=False)
    assert model.classify(np.array([0.5, 0.5])) is Label.INLIER
    assert model.classify(np.array([9.0, 9.0])) is Label.OUTLIER
    # boundary: score exactly at threshold stays an inlier
    exact = fit(square, k=2, threshold=model.score(np.array([5.0, 5.0])),
                standardize=False)
    assert exact.classify(np.array([5.0, 5.0])) is Label.INLIER


def test_classify_batch_agrees_with_scalar():
    rng = np.random.default_rng(32)
    train = rng.standard_normal((30, 2))
    queries = rng.standard_normal((12, 2)) * 3.0
    model = fit(train, k=4)
    batch = model.classify_batch(queries)
    assert batch == [model.classify(q) for q in queries]


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
