from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gbsclust import baselines
from gbsclust.baselines import (
    KMeansResult,
    _assign,
    _best_fits,
    _kmeans_pp_init_fits,
    _lloyd,
    _repair_empty,
    _restart_rngs,
    dbscan,
    dbscan_with_postprocess,
    elbow_select_k,
    kmeans,
)
from gbsclust.errors import InvalidInputError
from gbsclust.graph_core import PointSet, build_adjacency, compute_distance_matrix

from helpers import (
    adjusted_rand_index,
    dbscan_bfs,
    elbow_per_restart,
    graph_from_edges,
    kmeans_per_restart,
    kmeans_pp_init_all_centroids,
    repair_empty_rescanning,
)


def pts(coords):
    return PointSet([f"p{i}" for i in range(len(coords))], np.array(coords, dtype=float))


def blobs(centers, size, spread, seed=0):
    rng = np.random.default_rng(seed)
    coords, truth = [], []
    for gid, c in enumerate(np.asarray(centers, dtype=float)):
        coords.extend(c + rng.normal(0, spread, size=(size, 2)))
        truth.extend([gid] * size)
    return pts(coords), np.array(truth)


class TestKMeans:
    def test_two_far_blobs(self):
        points, truth = blobs([[0, 0], [100, 100]], size=5, spread=0.5)
        result = kmeans(points, 2, seed=0)
        assert adjusted_rand_index(result.labels, truth) == 1.0
        within = sum(
            ((points.coords[truth == g] - points.coords[truth == g].mean(axis=0)) ** 2).sum()
            for g in (0, 1)
        )
        assert result.inertia == pytest.approx(within, rel=1e-9)

    def test_k_equals_m(self):
        points, _ = blobs([[0, 0], [10, 10]], size=3, spread=1.0, seed=4)
        result = kmeans(points, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)

    def test_unit_square_two_centroids(self):
        points = pts([[0, 0], [0, 1], [1, 0], [1, 1]])
        result = kmeans(points, 2, seed=0)
        # both stable solutions pair opposite square edges at inertia 1.0
        assert result.inertia == pytest.approx(1.0, rel=1e-12)

    def test_k_out_of_range(self):
        points = pts([[0, 0], [1, 1]])
        with pytest.raises(InvalidInputError):
            kmeans(points, 3, seed=0)
        with pytest.raises(InvalidInputError):
            kmeans(points, 0, seed=0)

    @pytest.mark.parametrize(
        "k, seed, problem",
        [(2.5, 0, "k must be an integer of at least 1"), (True, 0, "k must be an integer"),
         (2, -1, "seed must be an integer of at least 0"), (2, 1.5, "seed must be")],
    )
    def test_bad_count_or_seed_rejected(self, k, seed, problem):
        with pytest.raises(InvalidInputError, match=problem):
            kmeans(pts([[0, 0], [1, 1], [5, 5]]), k, seed=seed)

    def test_deterministic(self):
        points, _ = blobs([[0, 0], [5, 5], [10, 0]], size=4, spread=1.0, seed=7)
        r1 = kmeans(points, 3, seed=11)
        r2 = kmeans(points, 3, seed=11)
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.inertia == r2.inertia

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_distances_rejected(self):
        points = pts([[1e200, 0.0], [-1e200, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="overflow"):
            kmeans(points, 2, seed=0)

    def test_underflowing_distances_rejected(self):
        # every squared distance underflows to 0, which read as 8 coincident points
        points = pts(np.arange(16.0).reshape(8, 2) * 1e-170)
        with pytest.raises(InvalidInputError, match="underflow"):
            kmeans(points, 3, seed=0)
        with pytest.raises(InvalidInputError, match="underflow"):
            elbow_select_k(points, 5, seed=0)

    def test_coincident_points_still_fit(self):
        # 9 points at 2 positions fit at k = 2, and k = 3 names both counts
        points = pts([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]] * 3)
        result = kmeans(points, 2, seed=0)
        assert result.labels.tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1]
        assert result.inertia == 0.0
        with pytest.raises(InvalidInputError, match="k = 3 exceeds the 2 distinct point"):
            kmeans(points, 3, seed=0)

    def test_partition(self):
        points, _ = blobs([[0, 0], [8, 8]], size=6, spread=2.0, seed=3)
        clustering = kmeans(points, 3, seed=0).to_clustering()
        assert sorted(n for c in clustering.clusters for n in c) == list(range(12))

    def test_unused_label_fails_the_partition(self):
        # the repair leaves no cluster empty, so an empty one is a bug to surface
        result = KMeansResult(np.zeros((3, 2)), np.array([0, 0, 2]), 0.0)
        with pytest.raises(InvalidInputError, match="empty cluster"):
            result.to_clustering()


class TestKMeansEnds:
    """With k at most the distinct positions, no fit can cycle."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4), st.integers(1, 11), st.integers(0, 2**32 - 1), st.integers(0, 10**6)
    )
    def test_coincident_points_end_or_reject_k(self, n_positions, k, layout, seed):
        # 14 points at 2-4 positions, the layouts where k above the positions
        # once ran every fit to its 300th round
        rng = np.random.default_rng(layout)
        where = rng.permutation(np.arange(14) % n_positions)
        points = pts(rng.random((n_positions, 2))[where])
        if k > n_positions:
            with pytest.raises(InvalidInputError, match=f"k = {k} exceeds the {n_positions} "):
                kmeans(points, k, seed=seed)
            return
        spy = mock.Mock(wraps=baselines._assign)
        with mock.patch.object(baselines, "_assign", spy):
            result = kmeans(points, k, seed=seed)
        assert spy.call_count <= 20
        assert sorted(set(result.labels.tolist())) == list(range(k))


class TestElbow:
    def test_three_blobs(self):
        points, _ = blobs([[0, 0], [40, 0], [20, 30]], size=5, spread=0.8, seed=1)
        assert elbow_select_k(points, 8, seed=0).k == 3

    def test_single_blob_degenerate(self):
        points, _ = blobs([[0, 0]], size=10, spread=1.0, seed=2)
        k = elbow_select_k(points, 6, seed=0).k
        assert 2 <= k <= 5  # interior of the range; no true elbow exists

    def test_three_points(self):
        points = pts([[0, 0], [1, 0], [10, 10]])
        assert elbow_select_k(points, 3, seed=0).k == 2

    def test_small_range_rejected(self):
        points = pts([[0, 0], [1, 0], [10, 10]])
        with pytest.raises(InvalidInputError):
            elbow_select_k(points, 2, seed=0)

    def test_k_max_is_capped_at_the_distinct_positions(self):
        # 5 points at 4 positions: k_max 4 and 8 both fit k = 1..4
        points = pts([[0, 0], [1, 0], [10, 10], [1, 0], [11, 10]])
        capped = elbow_select_k(points, 4, seed=0)
        result = elbow_select_k(points, 8, seed=0)
        assert result.k == capped.k
        assert np.array_equal(result.labels, capped.labels)
        assert result.inertia == capped.inertia

    def test_fewer_than_three_positions_rejected(self):
        points = pts([[0, 0], [1, 0], [0, 0], [1, 0]])
        with pytest.raises(InvalidInputError, match="2 distinct positions"):
            elbow_select_k(points, 8, seed=0)

    @pytest.mark.parametrize(
        "k_max, seed, problem",
        [(3.0, 0, "k_max must be an integer of at least 3"), (3, -1, "seed must be")],
    )
    def test_bad_count_or_seed_rejected(self, k_max, seed, problem):
        points = pts([[0, 0], [1, 0], [10, 10]])
        with pytest.raises(InvalidInputError, match=problem):
            elbow_select_k(points, k_max, seed=seed)


class TestDbscan:
    def test_two_blobs_no_noise(self):
        points, truth = blobs([[0, 0], [10, 10]], size=4, spread=0.01, seed=5)
        result = dbscan(compute_distance_matrix(points), eps=0.1, min_pts=2)
        assert len(result.clusters) == 2
        assert result.noise == []
        labels = np.empty(8, dtype=int)
        for cid, cluster in enumerate(result.clusters):
            labels[cluster] = cid
        assert adjusted_rand_index(labels, truth) == 1.0

    def test_far_point_is_noise(self):
        points = pts([[0, 0], [0.001, 0], [0, 0.001], [5, 5]])
        result = dbscan(compute_distance_matrix(points), eps=0.01, min_pts=2)
        assert result.noise == [3]

    def test_chain_connects(self):
        eps = 0.005
        coords = [[0, i * eps / 2] for i in range(10)]
        result = dbscan(compute_distance_matrix(pts(coords)), eps=eps, min_pts=2)
        assert len(result.clusters) == 1
        assert sorted(result.clusters[0]) == list(range(10))

    def test_border_point_joins_the_lower_numbered_cluster(self):
        # point 0 is within eps of one core point of each cluster, nearer the
        # second's, but has only 3 points in reach, so it is no core point
        xs = (0.97, -0.3, -0.2, -0.1, 0.0, 1.9, 2.0, 2.1, 2.2)
        coords = [[x, 0.0] for x in xs]
        result = dbscan(compute_distance_matrix(pts(coords)), eps=1.0, min_pts=4)
        assert result.clusters == [[0, 1, 2, 3, 4], [5, 6, 7, 8]]
        assert result.noise == []

    def test_order_invariance(self):
        points, _ = blobs([[0, 0], [3, 3], [6, 0]], size=5, spread=0.3, seed=8)
        result = dbscan(compute_distance_matrix(points), eps=1.0, min_pts=2)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(points))
        shuffled = pts(points.coords[perm])
        result_shuffled = dbscan(compute_distance_matrix(shuffled), eps=1.0, min_pts=2)

        def as_partition(res, mapping=None):
            groups = []
            for cluster in res.clusters:
                groups.append(frozenset(mapping[i] if mapping is not None else i for i in cluster))
            for n in res.noise:
                groups.append(frozenset({mapping[n] if mapping is not None else n}))
            return frozenset(groups)

        assert as_partition(result) == as_partition(result_shuffled, mapping=perm)

    def test_bad_params_rejected(self):
        d = compute_distance_matrix(pts([[0, 0], [1, 1]]))
        with pytest.raises(InvalidInputError):
            dbscan(d, eps=0.0, min_pts=2)
        with pytest.raises(InvalidInputError):
            dbscan(d, eps=1.0, min_pts=0)

    @pytest.mark.parametrize("min_pts", [float("nan"), 2.5, 2.0, True, "2"])
    def test_non_integer_min_pts_rejected(self, min_pts):
        # NaN fails min_pts < 1 and every core test, so all points were noise
        d = compute_distance_matrix(pts([[0, 0], [0.001, 0], [5, 5]]))
        with pytest.raises(InvalidInputError, match="min_pts must be an integer of at least 1"):
            dbscan(d, eps=0.01, min_pts=min_pts)

    @pytest.mark.parametrize(
        "d, problem",
        [([[0, 1], [5, 0]], "symmetric"), (-np.ones((3, 3)), "distance"),
         (np.ones(3), "square")],
        ids=["asymmetric", "negative", "vector"],
    )
    def test_malformed_distances_rejected(self, d, problem):
        # the asymmetric matrix was clustered, the negative one made one cluster
        with pytest.raises(InvalidInputError, match=problem):
            dbscan(np.asarray(d, dtype=float), 2.0, 2)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        # NaN fails every comparison, so a bare eps <= 0 check lets it through
        d = compute_distance_matrix(pts([[0, 0], [1, 1]]))
        with pytest.raises(InvalidInputError, match="eps must be finite and positive"):
            dbscan(d, eps=eps, min_pts=2)


class TestDbscanWithPostprocess:
    def test_no_noise_is_identity(self):
        points, _ = blobs([[0, 0], [10, 10]], size=4, spread=0.01, seed=5)
        a = graph_from_edges(8, [])
        d = compute_distance_matrix(points)
        raw = dbscan(d, eps=0.1, min_pts=2)
        full = dbscan_with_postprocess(d, 0.1, 2, a)
        assert sorted(map(tuple, full.clusters)) == sorted(map(tuple, raw.clusters))

    def test_isolated_noise_becomes_singleton(self):
        points = pts([[0, 0], [0.001, 0], [5, 5]])
        a = graph_from_edges(3, [(0, 1)])
        full = dbscan_with_postprocess(compute_distance_matrix(points), 0.01, 2, a)
        assert [2] in full.clusters

    def test_connected_noise_absorbed(self):
        points = pts([[0, 0], [0.001, 0], [0.02, 0]])
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        full = dbscan_with_postprocess(compute_distance_matrix(points), 0.01, 2, a)
        assert full.clusters == [[0, 1, 2]]

    @pytest.mark.parametrize("size", [2, 4])
    def test_graph_of_another_size_rejected(self, size):
        # a 4-node graph for 3 points was read as if it were theirs
        d = compute_distance_matrix(pts([[0, 0], [0.001, 0], [0.02, 0]]))
        a = graph_from_edges(size, [(0, 1)])
        with pytest.raises(InvalidInputError, match="cover 3 points"):
            dbscan_with_postprocess(d, 0.01, 2, a)

    def test_always_full_partition(self):
        points, _ = blobs([[0, 0], [0.02, 0.02]], size=5, spread=0.004, seed=9)
        d = compute_distance_matrix(points)
        a = build_adjacency(d, 0.02)
        full = dbscan_with_postprocess(d, 0.005, 2, a)
        assert sorted(n for c in full.clusters for n in c) == list(range(10))


def distinct_positions(x):
    return len(np.unique(x, axis=0))


@st.composite
def points_with_duplicates(draw):
    """2-14 points drawn from fewer or equally many distinct ones, and a k
    up to the number of distinct positions they take."""
    m = draw(st.integers(2, 14))
    distinct = draw(st.integers(1, m))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.random((distinct, 2))[rng.integers(distinct, size=m)]
    taken = distinct_positions(x)
    k = draw(st.one_of(st.just(taken), st.integers(1, taken)))
    return x, k, seed


@st.composite
def points_with_ks(draw):
    """Points as ``points_with_duplicates`` draws them, with every k up to
    its k, as the elbow fits them, or up to four distinct k in any order."""
    x, k, seed = draw(points_with_duplicates())
    taken = distinct_positions(x)
    some = st.lists(st.integers(1, taken), min_size=1, max_size=4, unique=True)
    return x, draw(st.one_of(st.just(range(1, k + 1)), some)), seed


@st.composite
def points_on_lines(draw):
    """2-5 short lines of 1-5 points laid end to end on one axis, points
    0.25 or 0.5 apart within a line and 0.6-1 apart between lines, so a
    one-point line often sits within eps = 1 of core points of the lines
    on both sides without being a core point itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = []
    for line in range(rng.integers(2, 6)):
        if line:
            gaps.append(rng.choice([0.6, 0.75, 0.9, 1.0]))
        gaps.extend(rng.choice([0.25, 0.5], size=rng.integers(0, 5)))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    return np.column_stack([xs, np.zeros_like(xs)])


class TestDbscanEqualsBfs:
    """Clusters as connected core components are the clusters BFS grows."""

    @settings(max_examples=200, deadline=None)
    @given(
        points_with_duplicates(),
        st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
        st.integers(1, 5),
    )
    def test_equals_bfs(self, case, eps, min_pts):
        x, _, _ = case
        d = compute_distance_matrix(pts(x))
        result = dbscan(d, eps, min_pts)
        assert (result.clusters, result.noise) == dbscan_bfs(d, eps, min_pts)

    @settings(max_examples=200, deadline=None)
    @given(points_on_lines(), st.integers(1, 5))
    def test_equals_bfs_on_lines_at_spacings_near_eps(self, x, min_pts):
        # border points within eps of two clusters test the tie rule too
        d = compute_distance_matrix(pts(x))
        result = dbscan(d, 1.0, min_pts)
        assert (result.clusters, result.noise) == dbscan_bfs(d, 1.0, min_pts)


class TestKMeansBitIdentity:
    """The k-means steps that reuse what they hold match the rescanning ones."""

    @settings(max_examples=150, deadline=None)
    @given(points_with_duplicates())
    def test_init_equals_recomputing_every_centroid(self, case):
        x, k, seed = case
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        centroids = _kmeans_pp_init_fits(x, k, [rng_new])[0]
        reference = kmeans_pp_init_all_centroids(x, k, rng_ref)
        assert np.array_equal(centroids, reference)
        assert np.array_equal(_assign(x, centroids), _assign(x, reference))
        assert rng_new.random() == rng_ref.random()

    @settings(max_examples=150, deadline=None)
    @given(points_with_duplicates(), st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_repair_equals_rescanning_repair(self, case, label_seed, pad):
        # the fit owns its first k slots; the ``pad`` past them hold +inf
        x, k, _ = case
        rng = np.random.default_rng(label_seed)
        used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        labels = used[rng.integers(used.size, size=x.shape[0])]
        centroids = rng.random((k, 2))
        got_centroids = np.vstack([centroids, np.full((pad, 2), np.inf)])[None]
        ref_centroids = centroids.copy()
        got_labels = labels[None].copy()
        (got_flag,) = _repair_empty(x, got_centroids, got_labels, np.array([k]))
        ref_labels, ref_flag = repair_empty_rescanning(x, ref_centroids, labels.copy())
        assert np.array_equal(got_labels[0], ref_labels)
        assert np.array_equal(got_centroids[0, :k], ref_centroids)
        assert np.isposinf(got_centroids[0, k:]).all()
        assert got_flag == ref_flag

    def test_repair_fills_several_empty_clusters(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([2, 2, 2, 4, 4])
        centroids = np.array([[9.0, 9.0], [9.0, 9.0], [1.0, 0.0], [9.0, 9.0], [3.0, 0.0]])
        ref_labels, ref_flag = repair_empty_rescanning(
            x, centroids.copy(), labels.copy()
        )
        got_labels = labels[None].copy()
        (got_flag,) = _repair_empty(x, centroids[None].copy(), got_labels, np.array([5]))
        got_labels = got_labels[0]
        assert got_flag and ref_flag
        assert np.array_equal(got_labels, ref_labels)
        assert sorted(np.bincount(got_labels, minlength=5)) == [1, 1, 1, 1, 1]

    @settings(max_examples=40, deadline=None)
    @given(points_with_duplicates())
    def test_inertia_is_that_of_the_returned_fit(self, case):
        x, k, seed = case
        result = kmeans(pts(x), k, seed=seed)
        assert result.inertia == float(((x - result.centroids[result.labels]) ** 2).sum())


class TestKMeansSeedingPrefix:
    """One seeding at k_max serves every smaller k bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(points_with_duplicates())
    @example((np.repeat(np.eye(2), 3, axis=0), 2, 0))  # 6 points at 2 positions
    def test_prefix_equals_seeding_at_k(self, case):
        x, k_max, seed = case
        seeding = _kmeans_pp_init_fits(x, k_max, _restart_rngs(seed))
        for k in range(1, k_max + 1):
            fresh = _kmeans_pp_init_fits(x, k, _restart_rngs(seed))
            assert np.array_equal(seeding[:, :k], fresh)
        # the Lloyd batch writes into copies, never into the shared seeding
        ks = np.repeat(np.arange(1, k_max + 1), seeding.shape[0])
        batch = np.tile(seeding, (k_max, 1, 1))
        _lloyd(x, batch, ks)
        assert np.array_equal(batch, np.tile(seeding, (k_max, 1, 1)))


# a bench-like strip: two rows of points about 0.045 apart
TWO_ROWS = np.array(
    [[45.019, 7.013], [45.011, 7.059], [45.018, 7.016], [45.014, 7.062], [45.017, 7.018],
     [45.016, 7.066], [45.014, 7.019], [45.019, 7.069], [45.013, 7.022]]
)


class TestKMeansLockstep:
    """Restarts run in lockstep give the fits of restarts run one by one."""

    @settings(max_examples=60, deadline=None)
    @given(points_with_duplicates())
    def test_equals_per_restart_loop(self, case):
        x, k, seed = case
        result = kmeans(pts(x), k, seed=seed)
        centroids, labels, inertia = kmeans_per_restart(x, k, seed)
        assert np.array_equal(result.centroids, centroids)
        assert np.array_equal(result.labels, labels)
        assert result.inertia == inertia

    @settings(max_examples=60, deadline=None)
    @given(points_with_ks())
    @example((np.repeat(TWO_ROWS[:3], 2, axis=0), range(1, 4), 0))  # 3 positions, twice
    @example((TWO_ROWS, range(1, 9), 0))  # k = 6, 7 move off if slots past k start as points
    @example((TWO_ROWS, [2, 5], 0))  # the ks need not run from 1, nor ascend
    @example((TWO_ROWS, [5, 2], 0))
    def test_every_k_of_the_batch_equals_kmeans_at_k(self, case):
        x, ks, seed = case
        fits = _best_fits(x, ks, seed)
        assert [fit.k for fit in fits] == list(ks)
        for k, fit in zip(ks, fits):
            alone = kmeans(pts(x), k, seed=seed)
            assert np.array_equal(fit.centroids, alone.centroids)
            assert np.array_equal(fit.labels, alone.labels)
            assert fit.inertia == alone.inertia

    @settings(max_examples=25, deadline=None)
    @given(points_with_duplicates(), st.integers(3, 10))
    def test_elbow_picks_the_per_restart_fit(self, case, k_max):
        # the elbow fits k = 1..min(k_max, distinct positions)
        x, _, seed = case
        assume(distinct_positions(x) >= 3)
        result = elbow_select_k(pts(x), k_max, seed=seed)
        centroids, labels, inertia = elbow_per_restart(x, k_max, seed)
        assert result.k == centroids.shape[0]
        assert np.array_equal(result.centroids, centroids)
        assert np.array_equal(result.labels, labels)
        assert result.inertia == inertia
