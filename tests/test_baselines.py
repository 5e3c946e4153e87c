from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gbsclust import baselines
from gbsclust.baselines import (
    KMeansResult,
    _assign,
    _kmeans_pp_init_fits,
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

    def test_partition(self):
        points, _ = blobs([[0, 0], [8, 8]], size=6, spread=2.0, seed=3)
        clustering = kmeans(points, 3, seed=0).to_clustering()
        assert sorted(n for c in clustering.clusters for n in c) == list(range(12))


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

    def test_k_max_beyond_m_rejected(self):
        points = pts([[0, 0], [1, 0], [10, 10]])
        with pytest.raises(InvalidInputError):
            elbow_select_k(points, 4, seed=0)


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

    def test_always_full_partition(self):
        points, _ = blobs([[0, 0], [0.02, 0.02]], size=5, spread=0.004, seed=9)
        d = compute_distance_matrix(points)
        a = build_adjacency(d, 0.02)
        full = dbscan_with_postprocess(d, 0.005, 2, a)
        assert sorted(n for c in full.clusters for n in c) == list(range(10))


@st.composite
def points_with_duplicates(draw):
    """2-14 points drawn from fewer or equally many distinct ones, and a k."""
    m = draw(st.integers(2, 14))
    distinct = draw(st.integers(1, m))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.random((distinct, 2))[rng.integers(distinct, size=m)]
    k = draw(st.one_of(st.just(m), st.integers(1, m)))
    return x, k, seed


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
    @given(points_with_duplicates(), st.integers(0, 2**32 - 1))
    def test_repair_equals_rescanning_repair(self, case, label_seed):
        x, k, _ = case
        rng = np.random.default_rng(label_seed)
        used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        labels = used[rng.integers(used.size, size=x.shape[0])]
        centroids = rng.random((k, 2))
        got_centroids, ref_centroids = centroids.copy(), centroids.copy()
        got_labels = labels[None].copy()
        (got_flag,) = _repair_empty(x, got_centroids[None], got_labels)
        got_labels = got_labels[0]
        ref_labels, ref_flag = repair_empty_rescanning(x, ref_centroids, labels.copy())
        assert np.array_equal(got_labels, ref_labels)
        assert np.array_equal(got_centroids, ref_centroids)
        assert got_flag == ref_flag

    def test_repair_fills_several_empty_clusters(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [3.0, 0.0]])
        labels = np.array([2, 2, 2, 4, 4])
        centroids = np.array([[9.0, 9.0], [9.0, 9.0], [1.0, 0.0], [9.0, 9.0], [3.0, 0.0]])
        ref_labels, ref_flag = repair_empty_rescanning(
            x, centroids.copy(), labels.copy()
        )
        got_labels = labels[None].copy()
        (got_flag,) = _repair_empty(x, centroids[None].copy(), got_labels)
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
    @example((np.zeros((4, 2)), 4, 0))  # all points coincide: no draw after the first
    def test_prefix_equals_seeding_at_k(self, case):
        x, k_max, seed = case
        seeding = _kmeans_pp_init_fits(x, k_max, _restart_rngs(seed))
        for k in range(1, k_max + 1):
            fresh = _kmeans_pp_init_fits(x, k, _restart_rngs(seed))
            assert np.array_equal(seeding[:, :k], fresh)
            got = kmeans(pts(x), k, seed, seeding=seeding)
            ref = kmeans(pts(x), k, seed)
            assert np.array_equal(got.centroids, ref.centroids)
            assert np.array_equal(got.labels, ref.labels)
            assert got.inertia == ref.inertia
        # the fits wrote into copies, never into the shared seeding
        assert np.array_equal(
            seeding, _kmeans_pp_init_fits(x, k_max, _restart_rngs(seed))
        )

    def test_wrongly_shaped_seeding_rejected(self):
        points = pts([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        seeding = _kmeans_pp_init_fits(points.coords, 3, _restart_rngs(0))
        for bad in (seeding[:, :2], seeding[:5], seeding[..., :1], seeding[0]):
            with pytest.raises(InvalidInputError, match="seeding"):
                kmeans(points, 3, 0, seeding=bad)


def _kmeans_one_restart_at_a_time(points, k, seed=None, *, seeding=None):
    # ignores the elbow's shared seeding: the reference seeds every k afresh
    return KMeansResult(*kmeans_per_restart(points.coords, k, seed))


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

    @settings(max_examples=25, deadline=None)
    @given(points_with_duplicates())
    def test_elbow_picks_the_per_restart_fit(self, case):
        x, _, seed = case
        assume(x.shape[0] >= 3)
        k_max = min(8, x.shape[0])
        result = elbow_select_k(pts(x), k_max, seed=seed)
        with mock.patch.object(baselines, "kmeans", _kmeans_one_restart_at_a_time):
            reference = elbow_select_k(pts(x), k_max, seed=seed)
        assert result.k == reference.k
        assert np.array_equal(result.centroids, reference.centroids)
        assert np.array_equal(result.labels, reference.labels)
        assert result.inertia == reference.inertia
