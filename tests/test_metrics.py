import numpy as np
import pytest

from gbsclust.errors import InvalidInputError
from gbsclust.graph_core import PointSet, compute_distance_matrix
from gbsclust.metrics import (
    cohesion,
    compute_report,
    silhouette,
    weighted_density,
)
from gbsclust.qclust import Clustering

from helpers import graph_from_edges


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
