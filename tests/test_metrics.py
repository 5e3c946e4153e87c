import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gbsclust.errors import InvalidInputError
from gbsclust.graph_core import PointSet, build_adjacency, compute_distance_matrix
from gbsclust.metrics import (
    _breakdown,
    _row_sums,
    cohesion,
    compute_report,
    silhouette,
    weighted_density,
)
from gbsclust.qclust import Clustering

from helpers import breakdown_per_cluster, graph_from_edges, silhouette_per_point


def pts(coords):
    return PointSet([f"p{i}" for i in range(len(coords))], np.array(coords, dtype=float))


def clustering(clusters, n):
    return Clustering(clusters=[list(c) for c in clusters], n_points=n, method="test")


TIGHT_PAIRS = pts([[0, 0], [0, 0.01], [10, 10], [10, 10.01]])
TIGHT_PAIRS_D = compute_distance_matrix(TIGHT_PAIRS)
PAIRS_CLUSTERING = clustering([[0, 1], [2, 3]], 4)


class TestSilhouette:
    def test_tight_pairs(self):
        value = silhouette(TIGHT_PAIRS_D, PAIRS_CLUSTERING)
        # hand computation: a = 0.01 for every point, b is the mean
        # distance to the other pair
        d = np.sqrt(((TIGHT_PAIRS.coords[:, None] - TIGHT_PAIRS.coords[None]) ** 2).sum(-1))
        expected = np.mean(
            [
                (d[i, [j, k]].mean() - 0.01) / d[i, [j, k]].mean()
                for i, (j, k) in enumerate([(2, 3), (2, 3), (0, 1), (0, 1)])
            ]
        )
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.999, abs=1e-3)

    def test_all_singletons(self):
        assert silhouette(TIGHT_PAIRS_D, clustering([[0], [1], [2], [3]], 4)) == 0.0

    def test_swapped_points_go_negative(self):
        swapped = clustering([[0, 3], [1, 2]], 4)
        assert silhouette(TIGHT_PAIRS_D, swapped) < 0.0

    def test_single_cluster_scores_zero(self):
        # no point has a nearest other cluster, so every s(i) is 0
        assert silhouette(TIGHT_PAIRS_D, clustering([[0, 1, 2, 3]], 4)) == 0.0

    def test_coincident_points_score_zero(self):
        d = compute_distance_matrix(pts([[0, 0], [0, 0], [5, 5], [0, 1]]))
        value = silhouette(d, clustering([[0, 1], [2, 3]], 4))
        # the coincident pair has a = 0 < b, scoring 1 each; finite result
        assert -1.0 <= value <= 1.0

    def test_negative_distances_rejected(self):
        # returned 0.0
        with pytest.raises(InvalidInputError, match="distance"):
            silhouette(-np.ones((3, 3)), clustering([[0, 1], [2]], 3))

    @pytest.mark.parametrize("size", [2, 4])
    def test_matrix_of_another_size_rejected(self, size):
        # a 4 x 4 matrix for 3 points raised IndexError
        d = compute_distance_matrix(pts([[0, 0], [1, 0], [0, 1], [1, 1]][:size]))
        with pytest.raises(InvalidInputError, match=f"covers {size} points"):
            silhouette(d, clustering([[0, 1], [2]], 3))

    @pytest.mark.parametrize(
        "bad, problem",
        [(np.ones((3, 2)), "square"), (np.full((3, 3), np.nan), "finite"),
         ([[0, 1, 2], [1, 0, 1], [5, 1, 0]], "symmetric"), (np.ones((3, 3)), "zero diagonal"),
         (np.eye(3) - 1.0, "nonnegative")],
        ids=["not-square", "nan", "asymmetric", "nonzero-diagonal", "negative"],
    )
    def test_malformed_matrix_rejected(self, bad, problem):
        with pytest.raises(InvalidInputError, match=problem):
            silhouette(bad, clustering([[0, 1], [2]], 3))


class TestWeightedDensity:
    def test_single_complete_cluster(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert weighted_density(clustering([[0, 1, 2]], 3), a) == 1.0

    def test_all_singletons_convention(self):
        a = np.zeros((3, 3))
        assert weighted_density(clustering([[0], [1], [2]], 3), a) == 1.0

    def test_triangle_plus_path(self):
        a = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)])
        value = weighted_density(clustering([[0, 1, 2], [3, 4, 5]], 6), a)
        assert value == pytest.approx(5 / 6)


class TestCohesion:
    def test_two_disjoint_triangles(self):
        a = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        assert cohesion(clustering([[0, 1, 2], [3, 4, 5]], 6), a) == 1.0

    def test_whole_graph_single_cluster(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        value = cohesion(clustering([[0, 1, 2, 3]], 4), a)
        assert value == pytest.approx(3 / 6)  # density of the graph itself

    def test_triangle_plus_pendant(self):
        a = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        value = cohesion(clustering([[0, 1, 2], [3]], 4), a)
        # triangle: 1 - 1/(3*1); pendant singleton: 1 - 1/(1*3)
        assert value == pytest.approx(2 / 3)


class TestGraphChecked:
    def test_weighted_graph_rejected(self):
        # returned 7.0, outside [0, 1]
        with pytest.raises(InvalidInputError, match="0 or 1"):
            weighted_density(clustering([[0, 1], [2]], 3), np.full((3, 3), 5.0) - 5.0 * np.eye(3))
        with pytest.raises(InvalidInputError):
            weighted_density(clustering([[0, 1], [2]], 3), np.full((3, 3), 5.0))

    def test_graph_with_self_loops_rejected(self):
        # a 5 x 5 matrix of ones for a 3-point partition returned -1.0
        with pytest.raises(InvalidInputError, match="zero diagonal"):
            cohesion(clustering([[0, 1], [2]], 3), np.ones((5, 5)))

    @pytest.mark.parametrize("size", [2, 4])
    def test_graph_of_another_size_rejected(self, size):
        a = graph_from_edges(size, [(0, 1)])
        for score in (weighted_density, cohesion):
            with pytest.raises(InvalidInputError, match=f"graph has {size} nodes"):
                score(clustering([[0, 1], [2]], 3), a)
        with pytest.raises(InvalidInputError, match=f"graph has {size} nodes"):
            compute_report(TIGHT_PAIRS_D[:3, :3], clustering([[0, 1], [2]], 3), a)


class TestInvariances:
    def test_relabeling_and_permutation(self):
        rng = np.random.default_rng(10)
        a = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 4)])
        clusters = [[0, 1, 2], [3, 4], [5, 6]]
        w0 = weighted_density(clustering(clusters, 7), a)
        c0 = cohesion(clustering(clusters, 7), a)
        assert weighted_density(clustering(clusters[::-1], 7), a) == pytest.approx(w0)
        assert cohesion(clustering(clusters[::-1], 7), a) == pytest.approx(c0)
        perm = rng.permutation(7)
        a_p = a[np.ix_(perm, perm)]
        inv = np.argsort(perm)
        clusters_p = [[int(inv[i]) for i in c] for c in clusters]
        assert weighted_density(clustering(clusters_p, 7), a_p) == pytest.approx(w0)
        assert cohesion(clustering(clusters_p, 7), a_p) == pytest.approx(c0)

    def test_complete_components_score_perfectly(self):
        a = graph_from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
        parts = clustering([[0, 1], [2, 3, 4]], 5)
        assert weighted_density(parts, a) == 1.0
        assert cohesion(parts, a) == 1.0

    def test_cross_edge_never_raises_cohesion(self):
        a = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        parts = clustering([[0, 1, 2], [3, 4, 5]], 6)
        before = cohesion(parts, a)
        a2 = a.copy()
        a2[2, 3] = a2[3, 2] = 1.0
        assert cohesion(parts, a2) <= before


class TestReport:
    def test_report_shape_and_ranges(self):
        a = graph_from_edges(4, [(0, 1), (2, 3)])
        report = compute_report(TIGHT_PAIRS_D, PAIRS_CLUSTERING, a)
        assert report.silhouette == silhouette(TIGHT_PAIRS_D, PAIRS_CLUSTERING)
        assert report.weighted_density == weighted_density(PAIRS_CLUSTERING, a) == 1.0
        assert report.cohesion == cohesion(PAIRS_CLUSTERING, a) == 1.0
        assert -1 <= report.silhouette <= 1


def bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestRowSums:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 300), st.data())
    def test_equals_np_sum_of_each_row(self, rows, n, data):
        x = data.draw(arrays(np.float64, (rows, n), elements=st.floats(
            allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)))
        assert _row_sums(x).tobytes() == bits(*(np.sum(row) for row in x))

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 15, 16, 127, 128, 129, 136, 257, 1100])
    def test_equals_np_sum_and_mean_at_the_order_boundaries(self, n):
        # magnitudes far apart make every change of order show in the bits
        rng = np.random.default_rng(n)
        x = rng.standard_normal((50, n)) * 10.0 ** rng.uniform(-300, 300, (50, n))
        # a gather such as d[:, members] comes out column-major
        for layout in (x, np.asfortranarray(x)):
            assert _row_sums(layout).tobytes() == bits(*(np.sum(row) for row in x))
            if n:
                assert (_row_sums(layout) / n).tobytes() == bits(*(row.mean() for row in x))


# cluster sizes: singletons, small clusters, and ones that reach numpy's
# 8-lane and 128-entry split rules, in distinct and coincident positions
CLUSTER_SIZES = st.lists(
    st.one_of(st.integers(1, 3), st.integers(4, 20), st.integers(125, 140)),
    min_size=1, max_size=5,
).filter(lambda sizes: 2 <= sum(sizes) <= 320)


def scored_partition(sizes, seed, spread):
    """Points in blobs on a coarse grid, so positions may coincide, split at
    random into clusters of ``sizes``, with their distances and a threshold
    graph."""
    rng = np.random.default_rng(seed)
    m = sum(sizes)
    centers = rng.integers(0, 4, size=(len(sizes), 2)).astype(float)
    coords = np.repeat(centers, sizes, axis=0) + np.round(rng.normal(0, spread, (m, 2)), 1)
    order = rng.permutation(m)
    clusters = np.split(order, np.cumsum(sizes)[:-1])
    d = compute_distance_matrix(pts(coords))
    a = build_adjacency(d, 1.0)
    return d, clustering([c.tolist() for c in clusters], m), a


class TestEqualsPerPointOracles:
    @settings(max_examples=120, deadline=None)
    @given(CLUSTER_SIZES, st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 1.0]))
    @example([1, 1, 1], 0, 1.0)  # singletons only
    @example([9], 1, 1.0)  # one cluster
    @example([130, 12, 1], 2, 0.0)  # one position per cluster: a = 0
    @example([140, 133], 3, 1.0)
    def test_scores_have_the_oracles_bits(self, sizes, seed, spread):
        d, parts, a = scored_partition(sizes, seed, spread)
        assert bits(silhouette(d, parts)) == bits(silhouette_per_point(d, parts))
        assert bits(*_breakdown(parts, a)) == bits(*breakdown_per_cluster(parts, a))

    @pytest.mark.parametrize("sizes", [[2, 3], [8, 1, 9], [130, 129]])
    def test_coincident_clusters_take_the_zero_denominator_rule(self, sizes):
        # every point at one position: a = b = 0 for every non-singleton
        m = sum(sizes)
        d = np.zeros((m, m))
        parts = clustering(np.split(np.arange(m), np.cumsum(sizes)[:-1]), m)
        assert silhouette(d, parts) == 0.0
        assert bits(silhouette(d, parts)) == bits(silhouette_per_point(d, parts))
