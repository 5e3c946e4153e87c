from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsclust import graph_core
from gbsclust.errors import CapacityError, InvalidInputError
from gbsclust.graph_core import (
    EDGE_LIST_MAX_BYTES,
    PointSet,
    build_adjacency,
    check_adjacency,
    check_distances,
    compute_distance_matrix,
    connected_components,
    edge_counts,
    graph_density,
    induced_subgraph,
    load_points_csv,
    percentile,
    read_edge_list,
    save_points_csv,
    threshold_graph,
    upper_triangle_values,
)

from helpers import graph_from_edges


def pts(*coords):
    return PointSet(ids=[f"p{i}" for i in range(len(coords))], coords=np.array(coords))


class TestDistanceMatrix:
    def test_three_four_five(self):
        d = compute_distance_matrix(pts((0, 0), (3, 4)))
        assert np.allclose(d, [[0, 5], [5, 0]])

    def test_coincident_points(self):
        d = compute_distance_matrix(pts((1, 1), (1, 1)))
        assert np.array_equal(d, np.zeros((2, 2)))

    def test_right_triangle(self):
        d = compute_distance_matrix(pts((0, 0), (1, 0), (0, 1)))
        assert d[1, 2] == pytest.approx(np.sqrt(2), abs=1e-12)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_single_point_rejected(self):
        with pytest.raises(InvalidInputError):
            PointSet(ids=["a"], coords=np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_coordinates_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            pts((0.0, 0.0), (bad, 1.0), (1.0, 1.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            PointSet(ids=["a", "a"], coords=np.zeros((2, 2)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.floats(-150.0, 150.0))
    def test_every_computed_matrix_passes_the_distance_checks(self, m, seed, log_scale):
        # x_i - x_j negates x_j - x_i exactly, so the matrix is bitwise symmetric
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(m, 2)) * 10.0**log_scale
        coords[rng.integers(m)] = coords[0]  # a coincident pair
        d = compute_distance_matrix(PointSet([f"p{i}" for i in range(m)], coords))
        assert np.array_equal(check_distances(d), d)


class TestPercentile:
    def test_linear_interpolation(self):
        assert percentile(list(range(1, 101)), 0.35) == pytest.approx(35.65, abs=1e-12)

    def test_single_element(self):
        for q in (0.0, 0.3, 1.0):
            assert percentile([7.0], q) == 7.0

    def test_extremes(self):
        assert percentile([1.0, 2.0], 1.0) == 2.0
        assert percentile([1.0, 2.0], 0.0) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            percentile([], 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="percentile population must be finite"):
            percentile([bad, 1.0, 2.0], 0.5)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        qs = np.linspace(0, 1, 21)
        results = [percentile(values, q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(results, results[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.one_of(st.sampled_from([0.0, 0.35, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    def test_equals_numpy_linear_quantile(self, values, q):
        ours = percentile(values, q)
        theirs = np.quantile(np.array(values), q, method="linear")
        # + 0.0 maps -0.0 to 0.0 and changes no other value: where 0.0 and
        # -0.0 tie, the sort and numpy's partition may order them apart
        assert np.float64(ours + 0.0).tobytes() == np.float64(theirs + 0.0).tobytes()
        assert ours == theirs or (np.isnan(ours) and np.isnan(theirs))


class TestBuildAdjacency:
    def test_edge_below_threshold(self):
        a = build_adjacency(np.array([[0.0, 5.0], [5.0, 0.0]]), 6.0)
        assert a[0, 1] == 1

    def test_strict_inequality_at_threshold(self):
        a = build_adjacency(np.array([[0.0, 5.0], [5.0, 0.0]]), 5.0)
        assert a[0, 1] == 0

    def test_collinear_path(self):
        d = compute_distance_matrix(pts((0, 0), (1, 0), (2, 0)))
        a = build_adjacency(d, 1.5)
        assert np.array_equal(a, graph_from_edges(3, [(0, 1), (1, 2)]))

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=(8, 2))
            d = compute_distance_matrix(PointSet([str(i) for i in range(8)], x))
            a = build_adjacency(d, rng.uniform(0.1, 3.0))
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 2))
        d = compute_distance_matrix(PointSet([str(i) for i in range(10)], x))
        a1 = build_adjacency(d, 0.5)
        a2 = build_adjacency(d, 1.5)
        assert np.all(a1 <= a2)

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            build_adjacency(np.zeros((2, 2)), 0.0)

    def test_nan_threshold_rejected(self):
        # NaN fails d_tilde <= 0, and no distance lies below it
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        with pytest.raises(InvalidInputError, match="must be positive, got nan"):
            build_adjacency(d, float("nan"))
        assert np.array_equal(build_adjacency(d, float("inf")), np.ones((3, 3)) - np.eye(3))

    def test_nan_distances_rejected(self):
        # NaN fails d < d_tilde, so the graph came back edgeless
        with pytest.raises(InvalidInputError, match="finite"):
            build_adjacency(np.full((3, 3), np.nan), 1.0)

    def test_asymmetric_distances_rejected(self):
        # the "graph" came back asymmetric
        with pytest.raises(InvalidInputError, match="symmetric"):
            build_adjacency(np.array([[0.0, 1.0], [5.0, 0.0]]), 2.0)

    def test_non_square_distances_rejected(self):
        # a 2x3 matrix gave a 2x3 "graph"
        with pytest.raises(InvalidInputError, match="square"):
            build_adjacency(np.zeros((2, 3)), 1.0)


class TestCheckAdjacency:
    # finiteness is checked before symmetry, so NaN, unequal to itself, is
    # named as what it is and not as an asymmetry
    @pytest.mark.parametrize(
        "bad, problem", [(np.nan, "finite"), (2.0, "0 or 1"), (-1.0, "0 or 1")]
    )
    def test_entries_other_than_zero_or_one_rejected(self, bad, problem):
        a = graph_from_edges(3, [(0, 1)])
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(InvalidInputError, match=problem):
            check_adjacency(a)

    def test_negative_zero_accepted(self):
        a = graph_from_edges(3, [(0, 1)])
        a[1, 2] = a[2, 1] = -0.0
        assert check_adjacency(a) is not None


class TestThresholdGraph:
    def test_percentile_and_explicit_threshold(self):
        points = pts((0, 0), (1, 0), (3, 0), (7, 0))
        d = compute_distance_matrix(points)
        d_tilde = percentile(upper_triangle_values(d), 0.5)
        assert np.array_equal(threshold_graph(d, 0.5), build_adjacency(d, d_tilde))

    def test_distances_checked_once(self):
        d = compute_distance_matrix(pts((0, 0), (1, 0), (3, 0), (7, 0)))
        spy = mock.Mock(wraps=check_distances)
        with mock.patch.object(graph_core, "check_distances", spy):
            threshold_graph(d, 0.5)
        assert spy.call_count == 1

    def test_zero_threshold_rejected(self):
        d = compute_distance_matrix(pts((1, 1), (1, 1), (1, 1), (4, 4)))
        with pytest.raises(InvalidInputError, match="3 of 6 point pairs are at distance 0"):
            threshold_graph(d, 0.35)

    def test_two_coincident_groups_rejected(self):
        d = compute_distance_matrix(pts(*[(0, 0)] * 3, *[(5, 5)] * 3))
        with pytest.raises(InvalidInputError, match="use a larger d_percentile"):
            threshold_graph(d, 0.35)
        # past the coincident pairs the threshold is positive again
        assert threshold_graph(d, 0.5).sum() == 12

    def test_nan_distance_rejected(self):
        # a NaN distance once gave an edgeless graph without error
        d = compute_distance_matrix(pts((0, 0), (1, 0), (3, 0)))
        d[0, 2] = d[2, 0] = np.nan
        with pytest.raises(InvalidInputError, match="distance matrix must be finite"):
            threshold_graph(d, 0.5)

    @pytest.mark.parametrize(
        "d, problem",
        [([[0, 1, -1], [1, 0, 2], [-1, 2, 0]], "nonnegative"),
         ([[0, 1, 2], [1, 0, 3], [5, 3, 0]], "symmetric")],
        ids=["negative", "asymmetric"],
    )
    def test_malformed_distances_rejected(self, d, problem):
        # both built a graph: the percentile of the upper triangle is 1
        with pytest.raises(InvalidInputError, match=problem):
            threshold_graph(np.array(d, dtype=float), 0.5)

    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_percentile_outside_open_interval_rejected(self, q):
        with pytest.raises(InvalidInputError, match="d_percentile"):
            threshold_graph(compute_distance_matrix(pts((0, 0), (1, 0), (3, 0))), q)


class TestGraphDensity:
    def test_triangle(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert graph_density(a, [0, 1, 2]) == 1.0

    def test_path(self):
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        assert graph_density(a, [0, 1, 2]) == pytest.approx(2 / 3)

    def test_k4_minus_edge(self):
        a = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert graph_density(a, range(4)) == pytest.approx(5 / 6)

    def test_small_subsets_are_zero(self):
        a = graph_from_edges(3, [(0, 1)])
        assert graph_density(a, [0]) == 0.0
        assert graph_density(a, []) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            graph_density(np.zeros((3, 3)), [0, 5])

    def test_density_one_iff_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(2, 8)
            a = (rng.random((n, n)) < 0.5).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            complete = np.all(a + np.eye(n) > 0)
            assert (graph_density(a, range(n)) == 1.0) == complete


class TestInducedSubgraph:
    def test_identity(self):
        a = graph_from_edges(4, [(0, 1), (2, 3)])
        assert np.array_equal(induced_subgraph(a, range(4)), a)

    def test_triangle_pair(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert np.array_equal(induced_subgraph(a, [0, 1]), graph_from_edges(2, [(0, 1)]))

    def test_path_endpoints_disconnected(self):
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        assert np.array_equal(induced_subgraph(a, [0, 2]), np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            induced_subgraph(np.zeros((2, 2)), [])


class TestEdgeCounts:
    def test_triangle_full(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert edge_counts(a, range(3)) == (3, 0)

    def test_triangle_single_node(self):
        a = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert edge_counts(a, [0]) == (0, 2)

    def test_bridged_triangles(self):
        a = graph_from_edges(
            6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
        )
        assert edge_counts(a, [0, 1, 2]) == (3, 1)

    def test_partition_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = rng.integers(3, 10)
            a = (rng.random((n, n)) < 0.4).astype(float)
            a = np.triu(a, 1)
            a = a + a.T
            subset = [i for i in range(n) if rng.random() < 0.5]
            comp = [i for i in range(n) if i not in subset]
            internal, external = edge_counts(a, subset)
            comp_internal, _ = edge_counts(a, comp)
            assert internal + external + comp_internal == int(a.sum() / 2)


class TestConnectedComponents:
    def test_interleaved_components_and_isolated_node(self):
        a = graph_from_edges(6, [(0, 2), (2, 4), (1, 5)])
        parts = connected_components(a)
        assert [p.tolist() for p in parts] == [[0, 2, 4], [1, 5], [3]]

    def test_connected_and_edgeless(self):
        path = graph_from_edges(4, [(0, 3), (3, 1), (1, 2)])
        assert [p.tolist() for p in connected_components(path)] == [[0, 1, 2, 3]]
        parts = connected_components(np.zeros((3, 3)))
        assert [p.tolist() for p in parts] == [[0], [1], [2]]


class TestFileFormats:
    def test_points_csv_roundtrip(self, tmp_path):
        original = pts((45.0, 7.001), (45.002, 7.003), (44.998, 7.0))
        path = tmp_path / "points.csv"
        save_points_csv(original, path)
        loaded = load_points_csv(path)
        assert loaded.ids == original.ids
        assert np.allclose(loaded.coords, original.coords)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(InvalidInputError):
            load_points_csv(path)

    @pytest.mark.parametrize("row", ["p1,abc,7.0", "p1,45.0,"])
    def test_unparsable_coordinate_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "points.csv"
        path.write_text(f"id,lat,lon\np0,45.0,7.0\n{row}\n")
        with pytest.raises(InvalidInputError, match=r"points\.csv, line 3"):
            load_points_csv(path)

    def test_edge_list_roundtrip(self, tmp_path):
        a = graph_from_edges(5, [(0, 1), (1, 4), (2, 3)])
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 4\n2 3\n")
        assert np.array_equal(read_edge_list(path), a)

    @pytest.mark.parametrize("line", ["x 2", "0 1.5"])
    def test_edge_list_non_integer_node_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n\n{line}\n")
        with pytest.raises(InvalidInputError, match=r"graph\.txt, line 3"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2 2", r"bad edge \(2, 2\) in .*graph\.txt, line 3$"),
            ("-1 2", r"bad edge \(-1, 2\) in .*graph\.txt, line 3$"),
            ("1 4", r"edge \(1, 4\) in .*graph\.txt, line 3 exceeds node count 4$"),
        ],
        ids=["self-loop", "negative", "past-node-count"],
    )
    def test_edge_list_bad_edge_names_path_and_line(self, tmp_path, line, message):
        path = tmp_path / "graph.txt"
        path.write_text(f"0 1\n\n{line}\n")
        with pytest.raises(InvalidInputError, match=message):
            read_edge_list(path, n_nodes=4)

    def test_edge_list_explicit_node_count(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        a = read_edge_list(path, n_nodes=4)
        assert a.shape == (4, 4)
        assert a.sum() == 2

    def test_edge_list_past_the_matrix_bound_rejected(self, tmp_path):
        # 0 30000 asked numpy for a 6.71 GiB matrix
        assert 8 * 11585**2 <= EDGE_LIST_MAX_BYTES < 8 * 11586**2
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n0 30000\n")
        with pytest.raises(CapacityError, match="30001 nodes needs a 7200480008-byte"):
            read_edge_list(path)
        path.write_text("0 1\n")
        with pytest.raises(CapacityError, match="11586 nodes"):
            read_edge_list(path, n_nodes=11586)

    @pytest.mark.parametrize("n_nodes", [-1, 2.5, True])
    def test_edge_list_bad_node_count_rejected(self, tmp_path, n_nodes):
        # -1 reached numpy's bare ValueError, 2.5 a TypeError
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n")
        with pytest.raises(InvalidInputError, match="n_nodes must be an integer of at least 0"):
            read_edge_list(path, n_nodes=n_nodes)
