import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsclust import qclust
from gbsclust.errors import InvalidInputError
from gbsclust.gbs_engine import MODE_THRESHOLD, SampleBatch
from gbsclust.graph_core import (
    PointSet,
    build_adjacency,
    compute_distance_matrix,
    graph_density,
    threshold_graph,
)
from gbsclust.metrics import cohesion, weighted_density
from gbsclust.qclust import (
    T_MIN,
    ClusterParams,
    Clustering,
    compute_threshold,
    find_densest_candidate,
    gbs_cluster,
    post_process,
)

from helpers import graph_from_edges, post_process_loop


@st.composite
def binary_graphs(draw, max_nodes=10):
    """Symmetric 0/1 adjacency matrices with a zero diagonal."""
    n = draw(st.integers(1, max_nodes))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = bits
    return a + a.T


def batch_of(m, *subsets):
    """A batch over ``m`` nodes whose row i holds ``subsets[i]``; threshold
    mode, so mixed odd and even subset sizes are legal."""
    hits = np.zeros((len(subsets), m), dtype=bool)
    for row, subset in zip(hits, subsets):
        row[list(subset)] = True
    return SampleBatch(hits, MODE_THRESHOLD)


def three_cliques_points(side=10.0, spread=0.1, size=5, seed=0):
    """Three tight 5-point groups at the corners of a large triangle."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side]])
    coords = []
    for c in centers:
        coords.extend(c + rng.uniform(-spread, spread, size=(size, 2)))
    ids = [f"p{i}" for i in range(3 * size)]
    return PointSet(ids=ids, coords=np.array(coords))


class TestComputeThreshold:
    def test_schedule(self):
        assert compute_threshold(0) == pytest.approx(0.90)
        assert compute_threshold(5) == pytest.approx(0.90 * 0.95 ** 5)
        assert compute_threshold(500) == pytest.approx(0.50)

    def test_negative_round_rejected(self):
        with pytest.raises(InvalidInputError):
            compute_threshold(-1)


class TestFindDensestCandidate:
    def test_density_beats_size(self):
        a = graph_from_edges(
            7, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6)]
        )
        batch = batch_of(7, (0, 1, 2), (3, 4, 5, 6))
        assert find_densest_candidate(batch, a, 3) == ((0, 1, 2), 1.0)

    def test_tie_broken_by_size(self):
        a = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)])
        batch = batch_of(6, (4, 5), (0, 1, 2, 3))
        assert find_densest_candidate(batch, a, 2) == ((0, 1, 2, 3), 1.0)

    def test_tie_broken_lexicographically(self):
        a = graph_from_edges(4, [(0, 1), (2, 3)])
        batch = batch_of(4, (2, 3), (0, 1))
        assert find_densest_candidate(batch, a, 2) == ((0, 1), 1.0)

    def test_all_below_minimum_size(self):
        a = graph_from_edges(4, [(0, 1)])
        batch = batch_of(4, (0, 1), ())
        assert find_densest_candidate(batch, a, 3) is None

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matrix_scores_equal_graph_density_loop(self, data):
        # l_min of 0 or 1 lets empty and one-node subsets through, which score 0
        a = data.draw(
            st.one_of(
                binary_graphs(max_nodes=25),
                # every subset of one size ties on an empty or a complete graph
                st.builds(lambda n, k: np.full((n, n), k) - np.diag(np.full(n, k)),
                          st.integers(1, 25), st.sampled_from([0.0, 1.0])),
            )
        )
        m = a.shape[0]
        rows = st.sets(st.integers(0, m - 1))
        subsets = data.draw(
            st.one_of(
                st.lists(rows, min_size=1, max_size=40),
                # rows drawn from a small pool repeat, and their copies tie
                st.lists(rows, min_size=1, max_size=8).flatmap(
                    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
                ),
            )
        )
        batch = batch_of(m, *subsets)
        l_min = data.draw(st.integers(0, m))
        found = find_densest_candidate(batch, a, l_min)
        expected = densest_by_graph_density(batch, a, l_min)
        assert found == expected
        if found is not None:
            assert np.float64(found[1]).tobytes() == np.float64(expected[1]).tobytes()

    def test_duplicate_rows_tied_with_others(self):
        a = graph_from_edges(5, [(0, 1), (2, 3), (3, 4)])
        batch = batch_of(5, (2, 3), (0, 1), (2, 3), (0, 1), (2, 3, 4))
        assert find_densest_candidate(batch, a, 2) == ((0, 1), 1.0)

    def test_batch_of_another_width_rejected(self):
        a = graph_from_edges(3, [(0, 1)])
        for m in (2, 4):
            with pytest.raises(InvalidInputError, match="node columns"):
                find_densest_candidate(batch_of(m, (0, 1)), a, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_graph_rejected(self, bad):
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            find_densest_candidate(batch_of(3, (0, 1), (1, 2)), np.full((3, 3), bad), 2)
        with pytest.raises(InvalidInputError, match="finite"):
            find_densest_candidate(batch_of(3, (0, 1), (1, 2)), a, 2)
        # also when no kept subset has an edge to read
        with pytest.raises(InvalidInputError, match="finite"):
            find_densest_candidate(batch_of(3, (0,), ()), a, 5)


def densest_by_graph_density(batch, a, l_min):
    """The candidate rule scored one subset at a time with ``graph_density``."""
    keys = [
        (-graph_density(a, subset), -len(subset), tuple(sorted(subset)))
        for subset in batch.samples
        if len(subset) >= l_min
    ]
    if not keys:
        return None
    best = min(keys)
    return best[2], -best[0]


class TestPostProcess:
    def test_ratio_prefers_small_tight_cluster(self):
        # node 5: two edges into the 4-node cluster, one into the singleton
        a = graph_from_edges(6, [(5, 0), (5, 1), (5, 4), (0, 1), (1, 2), (2, 3)])
        clusters = post_process([5], [[0, 1, 2, 3], [4]], a)
        assert clusters == [[0, 1, 2, 3], [4, 5]]

    def test_isolated_node_becomes_singleton(self):
        a = graph_from_edges(4, [(0, 1), (1, 2)])
        clusters = post_process([3], [[0, 1, 2]], a)
        assert clusters == [[0, 1, 2], [3]]

    def test_single_connected_cluster_wins(self):
        a = graph_from_edges(4, [(3, 0), (0, 1)])
        clusters = post_process([3], [[0, 1], [2]], a)
        assert clusters == [[0, 1, 3], [2]]

    def test_tie_goes_to_lower_cluster_index(self):
        a = graph_from_edges(5, [(4, 0), (4, 2)])
        clusters = post_process([4], [[0, 1], [2, 3]], a)
        assert clusters == [[0, 1, 4], [2, 3]]

    def test_no_clusters_all_isolated(self):
        a = np.zeros((3, 3))
        clusters = post_process([0, 1, 2], [], a)
        assert clusters == [[0], [1], [2]]

    def test_nan_graph_rejected(self):
        # attached node 2 to cluster [0, 1]
        with pytest.raises(InvalidInputError, match="adjacency"):
            post_process([2], [[0, 1]], np.full((3, 3), np.nan))

    @pytest.mark.parametrize(
        "leftover, clusters",
        [([-1], [[0, 1]]), ([5], [[0, 1]]), ([2], [[0, 3]])],
        ids=["negative-leftover", "leftover-past-the-end", "member-past-the-end"],
    )
    def test_node_out_of_range_rejected(self, leftover, clusters):
        # -1 returned [[-1, 0, 1]]; 5 raised IndexError
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InvalidInputError, match="out of range for a 3-node graph"):
            post_process(leftover, clusters, a)

    @settings(max_examples=200, deadline=None)
    @given(
        case=binary_graphs(max_nodes=12).flatmap(
            lambda a: st.tuples(
                st.just(a),
                st.lists(st.integers(-1, 4), min_size=len(a), max_size=len(a)),
                st.booleans(),
            )
        )
    )
    def test_matches_the_per_pair_loop(self, case):
        # label -1 leaves a node over; an empty cluster and no cluster at
        # all are legal, and equal ratios tie
        a, labels, empty = case
        clusters = [[i for i, g in enumerate(labels) if g == cid] for cid in range(5)]
        clusters = [c for c in clusters if c] + ([[]] if empty else [])
        leftover = [i for i, g in enumerate(labels) if g == -1]
        expected = post_process_loop(leftover, clusters, a)
        assert post_process(leftover, clusters, a) == expected


class TestClusteringType:
    def test_partition_enforced(self):
        with pytest.raises(InvalidInputError):
            Clustering(clusters=[[0, 1], [1, 2]], n_points=3, method="x")
        with pytest.raises(InvalidInputError):
            Clustering(clusters=[[0]], n_points=2, method="x")
        with pytest.raises(InvalidInputError):
            Clustering(clusters=[[0], []], n_points=1, method="x")

    def test_labels(self):
        c = Clustering(clusters=[[0, 2], [1]], n_points=3, method="x")
        assert c.labels.tolist() == [0, 1, 0]


class TestClusterParams:
    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown sampling mode"):
            ClusterParams(mode="bogus")

    @pytest.mark.parametrize(
        "field, value, low",
        [("n_samples", 2.5, 1), ("n_samples", True, 1), ("n_samples", 0, 1),
         ("seed", -1, 0), ("seed", 1.5, 0), ("seed", False, 0)],
    )
    def test_bad_count_or_seed_rejected(self, field, value, low):
        # these failed only later, in numpy, with errors of numpy's own
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer of at least {low}"):
            ClusterParams(**{field: value})

    def test_numpy_integers_accepted(self):
        params = ClusterParams(n_samples=np.int64(5), seed=np.uint32(3))
        assert (params.n_samples, params.seed) == (5, 3)


class TestDeriveSeed:
    @pytest.mark.parametrize(
        "seed, path, problem",
        [(-1, (0,), "seed must be an integer of at least 0"), (1.5, (0,), "seed must be"),
         (0, (-1,), r"path\[0\] must be an integer of at least 0"), (0, (1, 2.5), r"path\[1\]"),
         (None, (True,), r"path\[0\]")],
    )
    def test_bad_seed_or_path_rejected(self, seed, path, problem):
        with pytest.raises(InvalidInputError, match=problem):
            qclust.derive_seed(seed, *path)

    def test_seed_sequence_words_accepted(self):
        # the benchmark feeds 64-bit words back in as seeds
        word = np.uint64(qclust.derive_seed(6, 0))
        expected = np.random.SeedSequence([word, 2]).generate_state(1, np.uint64)[0]
        assert qclust.derive_seed(word, 2) == int(expected)


class TestGbsCluster:
    def test_three_cliques_recovered_exactly(self):
        points = three_cliques_points()
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        params = ClusterParams(seed=11)
        result = gbs_cluster(a, params)
        expected = [list(range(0, 5)), list(range(5, 10)), list(range(10, 15))]
        assert sorted(result.clusters) == expected

    def test_empty_graph_gives_singletons(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(0, 100, size=(6, 2))
        points = PointSet([str(i) for i in range(6)], coords)
        # threshold below every pairwise distance leaves the graph empty
        a = build_adjacency(compute_distance_matrix(points), 1e-9)
        params = ClusterParams(seed=0)
        result = gbs_cluster(a, params)
        assert result.clusters == [[i] for i in range(6)]

    def test_two_close_points_form_one_cluster(self):
        points = PointSet(["a", "b"], np.array([[0.0, 0.0], [0.0, 0.1]]))
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        params = ClusterParams(seed=5)
        result = gbs_cluster(a, params)
        assert result.clusters == [[0, 1]]

    def test_deterministic_given_seed(self):
        points = three_cliques_points(seed=3)
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        params = ClusterParams(seed=42)
        r1 = gbs_cluster(a, params)
        r2 = gbs_cluster(a, params)
        assert r1.clusters == r2.clusters

    def test_full_partition_and_density_floor(self):
        points = three_cliques_points(seed=7)
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        params = ClusterParams(seed=1)
        result = gbs_cluster(a, params)
        assert sorted(n for c in result.clusters for n in c) == list(range(15))
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        # the recovered cliques are complete, so their density clears t_min
        for cluster in result.clusters:
            if len(cluster) > 1:
                assert graph_density(a, cluster) > T_MIN

    def test_percentile_rule_lands_in_the_gap(self):
        # groups of 8, 4 and 3 give exactly 37 within-group pairs out of
        # 105, so the 35th percentile (position 36.4) falls between the
        # largest within and the smallest cross distance
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [50.0, 0.0], [25.0, 40.0]])
        sizes = (8, 4, 3)
        coords, truth = [], []
        for gid, (c, size) in enumerate(zip(centers, sizes)):
            coords.extend(c + rng.uniform(-0.5, 0.5, size=(size, 2)))
            truth.extend([gid] * size)
        points = PointSet([f"p{i}" for i in range(15)], np.array(coords))

        from gbsclust.graph_core import percentile, upper_triangle_values

        d = compute_distance_matrix(points)
        d_tilde = percentile(upper_triangle_values(d), 0.35)
        a = build_adjacency(d, d_tilde)
        # the graph is exactly the disjoint union of three cliques
        for i in range(15):
            for j in range(15):
                assert a[i, j] == (1.0 if i != j and truth[i] == truth[j] else 0.0)

        result = gbs_cluster(threshold_graph(d, 0.35), ClusterParams(seed=9))
        # no cluster may span two groups (graph components never mix)
        for cluster in result.clusters:
            assert len({truth[i] for i in cluster}) == 1

    def test_method_tag_and_params_recorded(self):
        points = three_cliques_points(seed=4)
        result = gbs_cluster(
            build_adjacency(compute_distance_matrix(points), 1.0), ClusterParams(seed=2)
        )
        assert result.method == "gbs"
        assert result.params["seed"] == 2
        assert result.n_points == 15

    def test_clique_fixture_scores_perfectly(self):
        from gbsclust.metrics import cohesion, weighted_density

        points = three_cliques_points(seed=8)
        result = gbs_cluster(
            build_adjacency(compute_distance_matrix(points), 1.0), ClusterParams(seed=3)
        )
        a = build_adjacency(compute_distance_matrix(points), 1.0)
        assert weighted_density(result, a) == 1.0
        assert cohesion(result, a) == 1.0


class TestDriverSchedule:
    """The round budget, the L schedule and where the accepted density comes from."""

    def record_l_min(self, monkeypatch, a):
        seen = []

        def nothing_dense(batch, sub, l_min):
            seen.append(l_min)
            return None

        monkeypatch.setattr(qclust, "find_densest_candidate", nothing_dense)
        result = gbs_cluster(a, ClusterParams(n_samples=1, seed=0))
        assert result.clusters == [[i] for i in range(a.shape[0])]
        return seen

    def test_l_halves_after_failures_16_32_and_48(self, monkeypatch):
        # twelve disjoint edges and a lone node: 25 nodes, L starts at 9
        a = graph_from_edges(25, [(2 * i, 2 * i + 1) for i in range(12)])
        seen = self.record_l_min(monkeypatch, a)
        assert seen == [9] * 16 + [5] * 16 + [3] * 16 + [2] * 2

    def test_l_of_one_is_never_raised_to_two(self, monkeypatch):
        a = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert self.record_l_min(monkeypatch, a) == [1] * 50

    def test_accepted_density_is_the_candidates_graph_density(self, monkeypatch):
        found = []
        densest = qclust.find_densest_candidate

        def spy(batch, sub, l_min):
            candidate = densest(batch, sub, l_min)
            if candidate is not None:
                found.append((sub, *candidate))
            return candidate

        monkeypatch.setattr(qclust, "find_densest_candidate", spy)
        a = build_adjacency(compute_distance_matrix(three_cliques_points()), 1.0)
        result = gbs_cluster(a, ClusterParams(seed=11))
        assert len(result.clusters) == 3
        assert found
        for sub, subset, density in found:
            assert density == graph_density(sub, subset)

    def test_driver_accepts_on_the_returned_density(self, monkeypatch):
        densest = qclust.find_densest_candidate

        def sparse_looking(batch, sub, l_min):
            candidate = densest(batch, sub, l_min)
            return None if candidate is None else (candidate[0], 0.0)

        monkeypatch.setattr(qclust, "find_densest_candidate", sparse_looking)
        a = build_adjacency(compute_distance_matrix(three_cliques_points()), 1.0)
        result = gbs_cluster(a, ClusterParams(seed=11))
        assert result.clusters == [[i] for i in range(15)]


class TestGbsClusterOnGraphs:
    @settings(max_examples=40, deadline=None)
    @given(a=binary_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_partition_seed_determinism_and_metric_ranges(self, a, seed):
        n = a.shape[0]
        result = gbs_cluster(a, ClusterParams(seed=seed))
        assert result.n_points == n
        assert sorted(i for c in result.clusters for i in c) == list(range(n))
        assert gbs_cluster(a, ClusterParams(seed=seed)).clusters == result.clusters
        assert 0.0 <= weighted_density(result, a) <= 1.0
        assert -1.0 <= cohesion(result, a) <= 1.0

    @pytest.mark.parametrize(
        "a, problem",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "symmetric"),
            ([[0.0, 0.5], [0.5, 0.0]], "0 or 1"),
            ([[1.0, 1.0], [1.0, 0.0]], "zero diagonal"),
        ],
        ids=["asymmetric", "non-binary", "nonzero-diagonal"],
    )
    def test_invalid_graph_rejected(self, a, problem):
        with pytest.raises(InvalidInputError, match=problem):
            gbs_cluster(np.array(a), ClusterParams(seed=0))
