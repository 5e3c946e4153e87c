import numpy as np
import pytest

from gbsclust.graph_core import PointSet
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
PAIRS_CLUSTERING = clustering([[0, 1], [2, 3]], 4)


class TestSilhouette:
    def test_tight_pairs(self):
        value = silhouette(TIGHT_PAIRS, PAIRS_CLUSTERING)
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
        assert silhouette(TIGHT_PAIRS, clustering([[0], [1], [2], [3]], 4)) == 0.0

    def test_swapped_points_go_negative(self):
        swapped = clustering([[0, 3], [1, 2]], 4)
        assert silhouette(TIGHT_PAIRS, swapped) < 0.0

    def test_single_cluster_scores_zero(self):
        # no point has a nearest other cluster, so every s(i) is 0
        assert silhouette(TIGHT_PAIRS, clustering([[0, 1, 2, 3]], 4)) == 0.0

    def test_coincident_points_score_zero(self):
        points = pts([[0, 0], [0, 0], [5, 5], [0, 1]])
        value = silhouette(points, clustering([[0, 1], [2, 3]], 4))
        # the coincident pair has a = 0 < b, scoring 1 each; finite result
        assert -1.0 <= value <= 1.0


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
        points = TIGHT_PAIRS
        report = compute_report(points, PAIRS_CLUSTERING, a)
        payload = report.as_dict()
        assert set(payload) == {"silhouette", "weighted_density", "cohesion", "per_cluster"}
        assert len(payload["per_cluster"]) == 2
        assert sum(b["n"] for b in payload["per_cluster"]) == 4
        assert -1 <= payload["silhouette"] <= 1
        assert 0 <= payload["weighted_density"] <= 1
        assert -1 <= payload["cohesion"] <= 1
