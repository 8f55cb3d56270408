import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuneseer import cluster
from tuneseer.cluster import (
    MAX_ITER,
    ClusterModel,
    FeatureScaler,
    fit,
    kmeanspp_seed,
    lloyd,
)
from tuneseer.errors import ContractError
from tuneseer.sampling import substream


def partitions_up_to(n, max_parts):
    """All set partitions of range(n) into at most max_parts parts."""

    def rec(i, parts):
        if i == n:
            yield [tuple(p) for p in parts]
            return
        for p in parts:
            p.append(i)
            yield from rec(i + 1, parts)
            p.pop()
        if len(parts) < max_parts:
            parts.append([i])
            yield from rec(i + 1, parts)
            parts.pop()

    yield from rec(0, [])


def optimal_partition_inertia(points, k):
    """Exhaustive minimum sum of squared distances to part means."""
    best = math.inf
    best_parts = None
    for parts in partitions_up_to(len(points), k):
        ss = 0.0
        for part in parts:
            cloud = points[list(part)]
            ss += float(((cloud - cloud.mean(axis=0)) ** 2).sum())
        if ss < best:
            best = ss
            best_parts = parts
    return best, best_parts


def two_triads():
    return np.array(
        [
            [0.0, 0.0],
            [0.1, 0.0],
            [0.0, 0.1],
            [5.0, 5.0],
            [5.1, 5.0],
            [5.0, 5.1],
        ]
    )


def test_k_equals_point_count_gives_zero_inertia():
    pts = two_triads()
    model = fit(pts, k=len(pts), scale=False)
    assert model.inertia == pytest.approx(0.0, abs=1e-12)


def test_k1_converges_to_mean():
    pts = two_triads()
    model = fit(pts, k=1, scale=False)
    assert np.allclose(model.centroids[0], pts.mean(axis=0), atol=1e-9)


def test_two_triads_matches_bruteforce_partition(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 25)
    pts = two_triads()
    model = fit(pts, k=2, scale=False)
    oracle_inertia, oracle_parts = optimal_partition_inertia(pts, 2)
    assert model.inertia == pytest.approx(oracle_inertia, rel=1e-9)
    labels = model.classify_all(pts)
    got = {frozenset(np.nonzero(labels == c)[0].tolist()) for c in set(labels)}
    want = {frozenset(p) for p in oracle_parts}
    assert got == want


def test_random_small_datasets_match_exhaustive_optimum(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 25)
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, 2))
        model = fit(pts, k=min(k, n), scale=False)
        oracle, _ = optimal_partition_inertia(pts, min(k, n))
        assert model.inertia <= oracle * (1 + 1e-9) + 1e-12


def test_lloyd_fixed_point_on_optimal_centroids():
    pts = two_triads()
    optimal = np.stack([pts[:3].mean(axis=0), pts[3:].mean(axis=0)])
    centroids, labels, inertia, history = lloyd(pts, optimal)
    assert np.allclose(centroids, optimal, atol=1e-12)
    assert len(history) <= 3  # assignment, converged update, final


def test_lloyd_inertia_monotone():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(40, 3))
    init = kmeanspp_seed(pts, 4, substream(0))
    _, _, _, history = lloyd(pts, init)
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_fit_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(25, 3))
    a = fit(pts, 3, seed=9)
    b = fit(pts, 3, seed=9)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia


def test_classify_centroid_and_k1(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 25)
    pts = two_triads()
    model = fit(pts, k=2, scale=False)
    back = model.centroids * model.scaler.stds + model.scaler.means
    for c in range(2):
        assert model.classify(back[c]) == c
    k1 = fit(pts, k=1, scale=False)
    assert k1.classify([100.0, 100.0]) == 0


def test_classify_tie_breaks_to_lowest_index():
    model = ClusterModel(
        k=2,
        centroids=np.array([[0.0], [2.0]]),
        scaler=FeatureScaler.identity(1),
        inertia=0.0,
    )
    assert model.classify([1.0]) == 0


def test_scaler_standardizes():
    rng = np.random.default_rng(1)
    pts = rng.normal(loc=3.0, scale=[1.0, 50.0, 0.01], size=(30, 3))
    z = FeatureScaler.fit(pts).transform(pts)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12


def test_scaler_round_trip():
    # transform is undone exactly by the stored means and stds
    rng = np.random.default_rng(1)
    pts = rng.normal(loc=3.0, scale=[1.0, 50.0, 0.01], size=(30, 3))
    scaler = FeatureScaler.fit(pts)
    back = scaler.transform(pts) * scaler.stds + scaler.means
    assert np.abs(back - pts).max() < 1e-12


def test_scaler_handles_constant_feature():
    pts = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    scaler = FeatureScaler.fit(pts)
    z = scaler.transform(pts)
    assert np.all(np.isfinite(z))
    assert scaler.stds[1] == 1.0
    assert np.all(z[:, 1] == 0.0)


def test_permutation_invariance_on_separated_data(monkeypatch):
    monkeypatch.setattr(cluster, "RESTARTS", 25)
    pts = two_triads()
    perm = np.array([4, 0, 3, 5, 1, 2])
    a = fit(pts, 2, seed=0, scale=False)
    b = fit(pts[perm], 2, seed=1, scale=False)
    parts_a = {
        frozenset(map(tuple, pts[a.classify_all(pts) == c])) for c in range(2)
    }
    parts_b = {
        frozenset(map(tuple, pts[perm][b.classify_all(pts[perm]) == c]))
        for c in range(2)
    }
    assert parts_a == parts_b


def test_kmeanspp_rejects_large_k():
    pts = two_triads()
    with pytest.raises(ContractError):
        kmeanspp_seed(pts, len(pts) + 1, substream(0))
    assert kmeanspp_seed(pts, len(pts), substream(0)).shape[0] == len(pts)


def test_kmeanspp_clamps_large_k(monkeypatch):
    # fit seeds k-means++ with k clamped to n, so every point is a centroid
    monkeypatch.setattr(cluster, "RESTARTS", 1)
    pts = two_triads()
    model = fit(pts, 10, scale=False)
    assert model.centroids.shape == pts.shape
    assert sorted(map(tuple, model.centroids)) == sorted(map(tuple, pts))
    assert model.inertia == 0.0


def test_fit_clamps_large_k_with_one_warning(caplog):
    pts = two_triads()
    with caplog.at_level(logging.WARNING):
        model = fit(pts, 10)
    assert model.k == len(pts)
    assert [r.name for r in caplog.records] == ["tuneseer.cluster"]


def test_fit_validates_k():
    with pytest.raises(ContractError):
        fit(two_triads(), 0)


def test_fit_needs_a_non_empty_two_dimensional_array():
    for points in (np.empty((0, 3)), np.array([1.0, 2.0, 3.0])):
        with pytest.raises(ContractError, match="fit needs a non-empty"):
            fit(points, 1)


def test_json_round_trip():
    model = fit(two_triads(), 2, seed=4)
    clone = ClusterModel.from_json(model.to_json())
    assert clone.k == model.k
    assert np.allclose(clone.centroids, model.centroids)
    assert np.allclose(clone.scaler.means, model.scaler.means)
    pts = two_triads()
    assert np.array_equal(clone.classify_all(pts), model.classify_all(pts))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_empty_cluster_reseeding_keeps_monotonicity(seed):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(size=(12, 2)), rng.normal(size=(12, 2)) + 20.0])
    # adversarial init: all centroids inside one blob
    init = pts[:3] + rng.normal(scale=0.01, size=(3, 2))
    _, _, _, history = lloyd(pts, init)
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 5),
    n=st.integers(1, 30),
    k=st.integers(1, 12),
    d=st.integers(1, 4),
    spread_init=st.booleans(),
)
def test_lloyd_converges_on_duplicated_points(seed, distinct, n, k, d, spread_init):
    # fewer distinct rows than clusters: a re-seed must not take the only
    # member of a cluster, which left a 0/0 centroid and a NaN inertia that
    # never met the tolerance
    rng = np.random.default_rng(seed)
    rows = rng.integers(-3, 4, size=(distinct, d)).astype(float)
    pts = rows[rng.integers(0, distinct, size=n)]
    k = min(k, n)
    if spread_init:
        init = kmeanspp_seed(pts, k, substream(seed))
    else:  # arbitrary rows, repeats allowed: many empty clusters at once
        init = pts[rng.integers(0, n, size=k)]
    centroids, _, _, history = lloyd(pts, init)
    assert np.all(np.isfinite(centroids))
    assert np.all(np.isfinite(history))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(history, history[1:]))
    assert len(history) - 1 < MAX_ITER


def test_lloyd_rejects_more_centroids_than_points():
    with pytest.raises(ContractError):
        lloyd(two_triads(), np.zeros((7, 2)))


# -- the broadcast kernel as the reference ---------------------------------
#
# These are the distance and update routines as they were before the
# column-order kernel: every fit, seeding, Lloyd run and classification must
# give the same floats bit for bit.  The equality holds for 2 to 7 features:
# from 8 on, numpy sums the broadcast form's last axis pairwise, and with one
# feature the masked mean sums its single column pairwise, while the kernel
# and the bincount update sum in index order.  The cases below stay within
# that range (stored feature vectors have 3), and none reaches the one place
# where the re-seeding rule changed: a farthest point that is the only
# member of its cluster.


def _reference_pairwise_sq(points, centroids):
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def _reference_kmeanspp_seed(points, k, rng):
    n = points.shape[0]
    k = min(k, n)
    chosen = [int(rng.integers(0, n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(0, n))
        else:
            idx = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _reference_lloyd(points, centroids, max_iter=300, tol=1e-9):
    centroids = centroids.copy()
    k = centroids.shape[0]
    history = []
    for _ in range(max_iter):
        d2 = _reference_pairwise_sq(points, centroids)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(points.shape[0]), labels]
        for c in range(k):
            if not np.any(labels == c):
                far = int(np.argmax(point_d2))
                centroids[c] = points[far]
                labels[far] = c
                point_d2[far] = 0.0
        history.append(float(point_d2.sum()))
        new_centroids = np.stack(
            [points[labels == c].mean(axis=0) for c in range(k)]
        )
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = _reference_pairwise_sq(points, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    history.append(inertia)
    return centroids, labels, inertia, history


def _reference_fit(points, k, seed=0, restarts=10):
    scaler = FeatureScaler.fit(points)
    z = scaler.transform(points)
    rng = substream(seed)
    best = None
    for _ in range(restarts):
        init = _reference_kmeanspp_seed(z, min(k, len(points)), rng)
        centroids, _, inertia, _ = _reference_lloyd(z, init)
        if best is None or inertia < best[1]:
            best = (centroids, inertia)
    return best[0], scaler, best[1]


def _reference_classify_all(centroids, scaler, points):
    return np.argmin(_reference_pairwise_sq(scaler.transform(points), centroids), axis=1)


def _feature_like(n, seed):
    """Rows shaped like stored feature vectors: the dimension count (a few
    repeated values), a skew-like and a kurtosis-like column."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.choice([2.0, 5.0, 10.0, 20.0, 40.0], size=n),
            rng.normal(scale=0.8, size=n),
            rng.gamma(2.0, 1.5, size=n) - 1.2,
        ]
    )


def _assert_lloyd_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert got[3] == want[3]


@pytest.mark.parametrize("n", [150, 450, 900, 1440])
def test_fit_matches_broadcast_reference(n):
    pts = _feature_like(n, seed=n)
    for seed in (0, 1):
        model = fit(pts, 10, seed=seed)
        centroids, scaler, inertia = _reference_fit(pts, 10, seed=seed)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia
        assert np.array_equal(model.scaler.means, scaler.means)
        assert np.array_equal(model.scaler.stds, scaler.stds)
        probe = _feature_like(300, seed=n + 1)
        want = _reference_classify_all(centroids, scaler, probe)
        assert np.array_equal(model.classify_all(probe), want)
        assert [model.classify(row) for row in probe[:40]] == want[:40].tolist()


@pytest.mark.parametrize("n", [150, 900, 1440])
def test_seed_and_lloyd_match_broadcast_reference(n):
    pts = _feature_like(n, seed=7 * n)
    z = FeatureScaler.fit(pts).transform(pts)
    for seed in range(3):
        init = kmeanspp_seed(z, 10, substream(seed))
        assert np.array_equal(init, _reference_kmeanspp_seed(z, 10, substream(seed)))
        _assert_lloyd_equal(lloyd(z, init), _reference_lloyd(z, init))


def test_small_random_sets_match_broadcast_reference(monkeypatch):
    # continuous sets up to k = n, and integer-grid sets with repeated rows
    # and exact ties up to k = the number of distinct rows (more centroids
    # than distinct rows is the re-seeding corner tested above)
    monkeypatch.setattr(cluster, "RESTARTS", 3)
    rng = np.random.default_rng(2024)
    for case in range(300):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(2, 8))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.01, 100.0, size=d)
        if case % 3 == 0:
            pts = np.round(pts / pts.std(axis=0, keepdims=True).clip(1e-3))
        distinct = len(np.unique(pts, axis=0))
        k = distinct if case % 5 == 0 else int(rng.integers(1, distinct + 1))
        seed = int(rng.integers(0, 1_000_000))
        init = kmeanspp_seed(pts, k, substream(seed))
        assert np.array_equal(init, _reference_kmeanspp_seed(pts, k, substream(seed)))
        _assert_lloyd_equal(lloyd(pts, init), _reference_lloyd(pts, init))
        model = fit(pts, k, seed=seed)
        centroids, scaler, inertia = _reference_fit(pts, k, seed=seed, restarts=3)
        assert np.array_equal(model.centroids, centroids)
        assert model.inertia == inertia
        assert np.array_equal(
            model.classify_all(pts), _reference_classify_all(centroids, scaler, pts)
        )


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_lloyd_stops_at_iteration_cap_like_reference(monkeypatch, cap):
    # the cap exit: no run below converges in 3 updates, so each stops there
    monkeypatch.setattr(cluster, "MAX_ITER", cap)
    rng = np.random.default_rng(cap)
    for seed in range(5):
        pts = rng.normal(size=(200, 3))
        init = kmeanspp_seed(pts, 6, substream(seed))
        got = lloyd(pts, init)
        _assert_lloyd_equal(got, _reference_lloyd(pts, init, max_iter=cap))
        assert len(got[3]) == cap + 1


# -- the bound-pruned Lloyd passes against the full-row reference ----------
#
# A pass after the first proves most labels from bounds instead of full
# distance rows.  Exact ties and near-ties are where a float bound could
# misjudge a label, so these inputs are made of them.


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(2, 12),
    n=st.integers(2, 60),
    d=st.integers(2, 4),
    data=st.data(),
)
def test_lloyd_matches_reference_on_integer_grids(seed, distinct, n, d, data):
    # repeated rows and exact distance ties, up to k = the number of
    # distinct rows
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(distinct, d)).astype(float)
    pts = rows[rng.integers(0, distinct, size=n)]
    k = data.draw(st.integers(1, len(np.unique(pts, axis=0))), label="k")
    init = kmeanspp_seed(pts, k, substream(seed))
    _assert_lloyd_equal(lloyd(pts, init), _reference_lloyd(pts, init))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    copies=st.integers(1, 3),
    extra=st.integers(0, 30),
)
def test_lloyd_matches_reference_on_a_bisector(seed, d, copies, extra):
    # every grid point exactly as far from both seeds, repeated, plus a
    # random cloud; with two centroids an empty cluster leaves every point
    # in the other one, so the reference's re-seeding agrees with lloyd's
    rng = np.random.default_rng(seed)
    step = 2.0 * rng.integers(-1, 2, size=d)
    step[0] = 2.0  # the midpoint is a grid point, and so on the bisector
    seeds = rng.integers(-2, 3, size=d) + np.stack([np.zeros(d), step])
    grid = np.array(list(itertools.product(range(-4, 5), repeat=d)), dtype=float)
    to_seed = [((grid - seed) ** 2).sum(axis=1) for seed in seeds]
    on_bisector = np.repeat(grid[to_seed[0] == to_seed[1]], copies, axis=0)
    cloud = rng.integers(-4, 5, size=(extra, d)) + rng.choice([0.0, 0.5], size=(extra, d))
    pts = rng.permutation(np.vstack([on_bisector, cloud]))
    _assert_lloyd_equal(lloyd(pts, seeds), _reference_lloyd(pts, seeds))


def _empty_cluster_updates(points, init):
    """The updates (counted from 0) that the reference starts with an empty
    cluster, so re-seeds."""
    updates = len(_reference_lloyd(points, init)[3]) - 1
    labels_after = [_reference_lloyd(points, init, max_iter=t)[1] for t in range(updates)]
    return [t for t, labels in enumerate(labels_after) if len(set(labels)) < len(init)]


@pytest.mark.parametrize("seed", [44, 72, 74, 84])
def test_lloyd_matches_reference_across_a_mid_run_reseed(seed):
    # three centroids inside one of two blobs: one of them empties after the
    # first update, when the passes prove labels from their bounds
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(size=(12, 2)), rng.normal(size=(12, 2)) + 20.0])
    init = pts[:3] + rng.normal(scale=0.01, size=(3, 2))
    assert _empty_cluster_updates(pts, init) == [1]
    _assert_lloyd_equal(lloyd(pts, init), _reference_lloyd(pts, init))


def test_fit_matches_broadcast_reference_at_5000_rows():
    pts = _feature_like(5000, seed=5000)
    model = fit(pts, 10, seed=3)
    centroids, scaler, inertia = _reference_fit(pts, 10, seed=3)
    assert np.array_equal(model.centroids, centroids)
    assert model.inertia == inertia
    probe = _feature_like(2000, seed=5001)
    assert np.array_equal(
        model.classify_all(probe), _reference_classify_all(centroids, scaler, probe)
    )
