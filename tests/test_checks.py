"""The shared matrix checks, and every public function that takes a matrix.

``errors.check_symmetric`` tests a matrix for squareness, then finiteness,
then exact symmetry, and names the first property that fails.  The table
below passes each malformed matrix to each matrix argument of the package
and expects that property named.
"""

import numpy as np
import pytest

from gbsclust.baselines import dbscan, dbscan_with_postprocess
from gbsclust.errors import InvalidInputError, check_finite, check_symmetric
from gbsclust.gbs_engine import (
    MODE_THRESHOLD,
    GraphSampler,
    SampleBatch,
    encode,
    sample,
    subset_weight,
    takagi,
)
from gbsclust.graph_core import (
    PointSet,
    build_adjacency,
    check_adjacency,
    check_distances,
    compute_distance_matrix,
    connected_components,
    edge_counts,
    graph_density,
    induced_subgraph,
    threshold_graph,
)
from gbsclust.matchers import (
    count_perfect_matchings,
    hafnian,
    hafnian_all_subsets,
    hafnian_fast,
    torontonian,
)
from gbsclust.metrics import cohesion, compute_report, silhouette, weighted_density
from gbsclust.qclust import Clustering, find_densest_candidate, gbs_cluster, post_process

from helpers import graph_from_edges

# a valid graph, a 4-node path, and the valid distances of 4 points
PATH = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
DISTANCES = compute_distance_matrix(
    PointSet(ids=list("abcd"), coords=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
)
PAIRS = Clustering([[0, 1], [2, 3]], 4, "test")
FIRST_EDGE = SampleBatch(np.array([[1, 1, 0, 0]]), MODE_THRESHOLD)


def with_entry(value):
    """The path graph with ``value`` at (0, 2) and (2, 0)."""
    a = PATH.copy()
    a[0, 2] = a[2, 0] = value
    return a


def one_way(value=0.0):
    """The path graph with ``value`` in place of its (1, 0) entry, so edge
    (0, 1) is kept in one direction only, or nearly both."""
    a = PATH.copy()
    a[1, 0] = value
    return a


MALFORMED = {
    "1-D": (np.ones(4), "square"),
    "non-square": (np.zeros((4, 3)), "square"),
    "nan": (with_entry(np.nan), "finite"),
    "inf": (with_entry(np.inf), "finite"),
    "asymmetric": (one_way(), "symmetric"),
    # symmetric up to rounding is not symmetric: there is no tolerance
    "near-symmetric": (one_way(1.0 + 1e-13), "symmetric"),
}

# each public function that takes a matrix: the call with the matrix x in
# one argument and valid values in the others, and a valid x
MATRIX_ARGUMENTS = {
    "hafnian": (hafnian, PATH),
    "hafnian_fast": (hafnian_fast, PATH),
    "hafnian_all_subsets": (hafnian_all_subsets, PATH),
    "count_perfect_matchings": (count_perfect_matchings, PATH),
    "torontonian": (torontonian, np.zeros((4, 4))),
    "takagi": (takagi, PATH),
    "encode": (lambda x: encode(x, 1.0), PATH),
    "subset_weight": (lambda x: subset_weight(x, encode(PATH, 1.0), [0, 1]), PATH),
    "GraphSampler": (lambda x: GraphSampler(x, 1.0).tables, PATH),
    "sample": (lambda x: sample(x, 1.0, 5, seed=0), PATH),
    "check_adjacency": (check_adjacency, PATH),
    "check_distances": (check_distances, DISTANCES),
    "build_adjacency": (lambda x: build_adjacency(x, 1.2), DISTANCES),
    "threshold_graph": (lambda x: threshold_graph(x, 0.5), DISTANCES),
    "connected_components": (connected_components, PATH),
    "graph_density": (lambda x: graph_density(x, [0, 1]), PATH),
    "edge_counts": (lambda x: edge_counts(x, [0, 1]), PATH),
    "induced_subgraph": (lambda x: induced_subgraph(x, [0, 1]), PATH),
    "dbscan": (lambda x: dbscan(x, 1.2, 2), DISTANCES),
    "dbscan_with_postprocess[d]": (lambda x: dbscan_with_postprocess(x, 1.2, 2, PATH), DISTANCES),
    "dbscan_with_postprocess[a]": (lambda x: dbscan_with_postprocess(DISTANCES, 0.5, 2, x), PATH),
    "silhouette": (lambda x: silhouette(x, PAIRS), DISTANCES),
    "weighted_density": (lambda x: weighted_density(PAIRS, x), PATH),
    "cohesion": (lambda x: cohesion(PAIRS, x), PATH),
    "compute_report[d]": (lambda x: compute_report(x, PAIRS, PATH), DISTANCES),
    "compute_report[a]": (lambda x: compute_report(DISTANCES, PAIRS, x), PATH),
    "gbs_cluster": (gbs_cluster, PATH),
    "post_process": (lambda x: post_process([3], [[0, 1, 2]], x), PATH),
    "find_densest_candidate": (lambda x: find_densest_candidate(FIRST_EDGE, x, 2), PATH),
}
CALLS = [call for call, _ in MATRIX_ARGUMENTS.values()]


class TestMatrixArguments:
    @pytest.mark.parametrize("call, valid", MATRIX_ARGUMENTS.values(), ids=MATRIX_ARGUMENTS.keys())
    def test_valid_matrix_accepted(self, call, valid):
        # so in the table below only the matrix can be at fault
        call(valid)

    @pytest.mark.parametrize("bad, problem", MALFORMED.values(), ids=MALFORMED.keys())
    @pytest.mark.parametrize("call", CALLS, ids=MATRIX_ARGUMENTS.keys())
    def test_malformed_matrix_named(self, call, bad, problem):
        with pytest.raises(InvalidInputError, match=problem):
            call(bad)

    def test_asymmetric_graph_rejected_by_the_candidate_choice(self):
        # an asymmetric graph was scored, its one-way edge as half an edge
        with pytest.raises(InvalidInputError, match="graph must be symmetric"):
            find_densest_candidate(FIRST_EDGE, one_way(), 2)

    def test_non_square_graph_rejected_by_the_candidate_choice(self):
        # a 4 x 5 graph ended in numpy's broadcast ValueError
        with pytest.raises(InvalidInputError, match=r"graph must be square, got shape \(4, 5\)"):
            find_densest_candidate(FIRST_EDGE, np.zeros((4, 5)), 2)

    @pytest.mark.parametrize("bad, problem", MALFORMED.values(), ids=MALFORMED.keys())
    def test_sampler_names_the_graph_before_the_mode(self, bad, problem):
        # connected_components is the sampler's one check of its graph
        with pytest.raises(InvalidInputError, match=f"graph must be {problem}"):
            GraphSampler(bad, 1.0, mode="no such mode")

    @pytest.mark.parametrize(
        "a, problem",
        [([[0.0, 2.0], [2.0, 0.0]], "0 or 1"), ([[1.0, 1.0], [1.0, 1.0]], "zero diagonal")],
        ids=["weighted", "self-loops"],
    )
    def test_matching_count_takes_only_a_graph(self, a, problem):
        # the rounded hafnian counted 2 and 1 perfect matchings here
        with pytest.raises(InvalidInputError, match=problem):
            count_perfect_matchings(a)


def two_edges_one_sided():
    """Edges 0-1 and 2-3, and a one-sided 1e-13 at (2, 0)."""
    a = graph_from_edges(4, [(0, 1), (2, 3)])
    a[2, 0] = 1e-13
    return a


class TestOneSidedNearEdge:
    # within a 1e-12 tolerance this graph was sampled as one 4-node
    # component: its weights summed to 1.728, where its two edges give
    # (1 + c^2)^2 = 1.44, and encode's eigh read the lower triangle while
    # the hafnian sweep read the upper one
    @pytest.mark.parametrize(
        "call",
        [
            lambda x: GraphSampler(x, 1.0),
            lambda x: sample(x, 1.0, 5, seed=0),
            lambda x: encode(x, 1.0),
            hafnian_all_subsets,
        ],
        ids=["GraphSampler", "sample", "encode", "hafnian_all_subsets"],
    )
    def test_every_sampler_entry_point_rejects_it(self, call):
        with pytest.raises(InvalidInputError, match="symmetric"):
            call(two_edges_one_sided())



class TestCheckSymmetric:
    def test_returns_a_float_array(self):
        checked = check_symmetric([[0, 1], [1, 0]], "m")
        assert checked.dtype == float
        assert np.array_equal(checked, [[0.0, 1.0], [1.0, 0.0]])

    def test_checked_array_is_not_copied(self):
        assert check_symmetric(PATH, "m") is PATH

    @pytest.mark.parametrize(
        "matrix, message",
        [(np.full((2, 3), np.nan), "m must be square, got shape (2, 3)"),
         ([[0.0, np.nan], [1.0, 0.0]], "m must be finite; not so at [[0, 1]]"),
         ([[0.0, np.inf], [np.inf, 0.0]], "m must be finite; not so at [[0, 1], [1, 0]]"),
         ([[0.0, 1.0], [2.0, 0.0]], "m must be symmetric")],
        ids=["square-first", "finite-before-symmetric", "inf", "symmetric"],
    )
    def test_first_failing_property_named(self, matrix, message):
        with pytest.raises(InvalidInputError) as info:
            check_symmetric(matrix, "m")
        assert str(info.value) == message

    def test_tolerance(self):
        # there is none: a 1e-13 asymmetry is an asymmetry
        near = [[0.0, 1.0], [1.0 + 1e-13, 0.0]]
        with pytest.raises(InvalidInputError) as info:
            check_symmetric(near, "m")
        assert str(info.value) == "m must be symmetric"

    def test_symmetrized_matrix_accepted(self):
        near = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert check_symmetric((near + near.T) / 2, "m") is not None

    def test_empty_matrix_accepted(self):
        assert check_symmetric(np.zeros((0, 0)), "m").shape == (0, 0)


class TestCheckFinite:
    def test_first_four_positions_named(self):
        with pytest.raises(InvalidInputError) as info:
            check_finite([np.nan, 1.0, np.inf, -np.inf, np.nan, np.nan], "values")
        assert str(info.value) == "values must be finite; not so at [[0], [2], [3], [4]]"

    def test_returns_a_float_array(self):
        assert check_finite([1, 2], "values").dtype == float


class TestEmptyPartition:
    def test_clustering_of_no_points_rejected(self):
        # silhouette and compute_report once ended in a bare ValueError and
        # a ZeroDivisionError on it
        with pytest.raises(InvalidInputError, match="n_points must be an integer of at least 1"):
            Clustering([], 0, "test")

    def test_methods_reject_zero_nodes_by_name(self):
        empty = np.zeros((0, 0))
        with pytest.raises(InvalidInputError, match="n_points"):
            gbs_cluster(empty)
        with pytest.raises(InvalidInputError, match="n_points"):
            dbscan_with_postprocess(empty, 1.0, 2, empty)
