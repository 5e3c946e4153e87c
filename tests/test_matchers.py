from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbsclust import matchers
from gbsclust.errors import CapacityError, InvalidInputError
from gbsclust.matchers import (
    PNR_MAX_NODES,
    count_perfect_matchings,
    hafnian,
    hafnian_all_subsets,
    hafnian_fast,
    torontonian,
)

from helpers import (
    MultisetHafnian,
    count_matchings_bruteforce,
    graph_from_edges,
    hafnian_all_subsets_untiled,
    hafnian_bruteforce,
    hafnian_table_loops,
    unpack_table,
)


def complete_graph(n):
    return np.ones((n, n)) - np.eye(n)


def random_symmetric(rng, n, binary=True):
    if binary:
        a = (rng.random((n, n)) < 0.5).astype(float)
    else:
        a = rng.normal(size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


class TestHafnian:
    def test_empty_matrix(self):
        assert hafnian(np.zeros((0, 0))) == 1.0
        assert hafnian_fast(np.zeros((0, 0))) == 1.0

    def test_single_pair(self):
        assert hafnian(np.array([[0.0, 1.0], [1.0, 0.0]])) == 1.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fast_equals_reference_below_three_nodes(self, n):
        # the packed tables are [1.0], [1.0] and [1.0, b01]; diagonals never count
        b = np.array([[0.3, 0.7], [0.7, -1.1]])[:n, :n]
        assert hafnian_fast(b) == hafnian(b)
        assert hafnian_all_subsets(b).tolist() == [1.0, 0.7][:max(n, 1)]

    def test_odd_dimension_vanishes(self):
        rng = np.random.default_rng(0)
        assert hafnian(random_symmetric(rng, 3, binary=False)) == 0.0
        assert hafnian_fast(random_symmetric(rng, 5)) == 0.0

    def test_k4(self):
        assert hafnian(complete_graph(4)) == 3.0
        assert hafnian_fast(complete_graph(4)) == 3.0

    def test_k4_minus_edge(self):
        a = complete_graph(4)
        a[0, 1] = a[1, 0] = 0.0
        assert hafnian(a) == 2.0

    def test_non_symmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            hafnian(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            hafnian_fast(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_symmetry_tolerance_and_nan(self):
        near = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert hafnian(near) == 1.0
        assert hafnian_fast(near) == 1.0
        far = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        nan = np.array([[0.0, np.nan], [np.nan, 0.0]])
        for bad, problem in ((far, "symmetric within 1e-12"), (nan, "finite")):
            with pytest.raises(InvalidInputError, match=problem):
                hafnian(bad)
            with pytest.raises(InvalidInputError, match=problem):
                hafnian_fast(bad)

    def test_fast_matches_enumeration_real_valued(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(0, 7)) * 2
            b = random_symmetric(rng, n, binary=False)
            ref = hafnian(b)
            fast = hafnian_fast(b)
            assert fast == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_matches_pairing_bruteforce(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            n = int(rng.integers(1, 5)) * 2
            b = random_symmetric(rng, n, binary=False)
            assert hafnian(b) == pytest.approx(hafnian_bruteforce(b), rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(1, 6)) * 2
            b = random_symmetric(rng, n, binary=False)
            perm = rng.permutation(n)
            assert hafnian_fast(b[np.ix_(perm, perm)]) == pytest.approx(
                hafnian_fast(b), rel=1e-9
            )

    def test_diagonal_is_ignored(self):
        rng = np.random.default_rng(45)
        b = random_symmetric(rng, 6, binary=False)
        with_diag = b + np.diag(rng.normal(size=6))
        assert hafnian(with_diag) == pytest.approx(hafnian(b), rel=1e-12)


@st.composite
def zero_one_graphs(draw):
    """0/1 adjacency matrices of 0-12 nodes, each edge drawn on its own."""
    n = draw(st.integers(0, 12))
    pairs = n * (n - 1) // 2
    edges = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    a = np.zeros((n, n))
    a[np.triu_indices(n, 1)] = edges
    return a + a.T


@st.composite
def symmetric_matrices(draw):
    """Symmetric matrices of 0-14 nodes: 0/1 adjacencies, or weights that
    mix zeros, unit entries and arbitrary floats of either sign."""
    n = draw(st.integers(0, 14))
    pairs = n * (n - 1) // 2
    if draw(st.booleans()):
        entry = st.sampled_from([0.0, 1.0])
    else:
        entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-4.0, 4.0))
    b = np.zeros((n, n))
    b[np.triu_indices(n, 1)] = draw(st.lists(entry, min_size=pairs, max_size=pairs))
    return b + b.T


def band_graph(n, width):
    """0/1 graph joining the nodes at most ``width`` apart around a cycle."""
    return graph_from_edges(n, [(i, (i + d) % n) for i in range(n) for d in range(1, width + 1)])


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestTiledSweep:
    """The tiled sweep gives the untiled one's table bit for bit.

    Tiles of 2-16 entries make every level past the first few span many
    tiles, so node 0's masked update meets tiles of odd popcount, and runs
    of half a tile or more take whole-tile adds or none; 64 and 128 entries
    also give masked runs (of at most 1/64 of a full tile) and strided ones.
    """

    @settings(max_examples=80, deadline=None)
    @given(b=symmetric_matrices(), tile=st.sampled_from([2, 4, 8, 16, 64, 128]))
    def test_equals_the_untiled_sweep(self, b, tile):
        with mock.patch.object(matchers, "TABLE_TILE", tile):
            table = hafnian_all_subsets(b)
        assert same_bits(table, hafnian_all_subsets_untiled(b))

    def test_band_graph_at_the_real_tile(self):
        # 22 nodes: the top blocks span 256 tiles, and the band's wrap joins
        # the top nodes to node 0 and to the short runs of nodes 1-3, so
        # every kind of update runs, node 0's on tiles of odd popcount too
        a = band_graph(22, 4)
        assert same_bits(hafnian_all_subsets(a), hafnian_all_subsets_untiled(a))

    def test_overflowed_entries_stay_inf(self):
        # every subset of 4 or more nodes of K8 weighted 1e200 overflows; a
        # 0.0 / 1.0 mask product would make those entries NaN
        b = 1e200 * (np.ones((8, 8)) - np.eye(8))
        with np.errstate(over="ignore"):
            table = hafnian_all_subsets(b)
            oracle = hafnian_all_subsets_untiled(b)
        assert np.count_nonzero(np.isinf(table)) == 99
        assert not np.isnan(table).any()
        assert same_bits(table, oracle)


class TestSweepCapacity:
    @pytest.mark.parametrize("n", [PNR_MAX_NODES + 1, PNR_MAX_NODES + 2, 40])
    def test_too_many_nodes_refused_before_allocation(self, n):
        # 40 nodes would need 4 TiB, which numpy itself would refuse
        with pytest.raises(CapacityError, match=f"{n} nodes exceeds the 26-node bound") as info:
            hafnian_all_subsets(np.zeros((n, n)))
        assert f"it would need {8 << (n - 1)} bytes" in str(info.value)

    def test_fast_hafnian_past_the_bound(self):
        # an odd matrix has hafnian 0 and needs no table
        assert hafnian_fast(np.ones((27, 27)) - np.eye(27)) == 0.0
        with pytest.raises(CapacityError, match="28 nodes"):
            hafnian_fast(np.ones((28, 28)) - np.eye(28))


class TestSubsetTable:
    @settings(max_examples=20, deadline=None)
    @given(zero_one_graphs())
    def test_every_entry_is_the_exact_matching_count(self, a):
        # exact integers are what lets any summation order keep the bytes
        n = a.shape[0]
        # an odd mask holds 0, the brute-force count of an odd subgraph
        table = unpack_table(hafnian_all_subsets(a), n)
        for mask in range(1 << n):
            bits = [i for i in range(n) if (mask >> i) & 1]
            assert table[mask] == count_matchings_bruteforce(a[np.ix_(bits, bits)])

    def test_matches_per_subset_enumeration(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            b = random_symmetric(rng, n)
            table = unpack_table(hafnian_all_subsets(b), n)
            for mask in rng.integers(0, 1 << n, size=20):
                bits = [i for i in range(n) if (int(mask) >> i) & 1]
                sub = b[np.ix_(bits, bits)]
                assert table[mask] == pytest.approx(hafnian(sub), abs=1e-9)

    def test_strided_sweep_is_exact_on_connected_graph(self):
        # a 12-cycle with chords is connected; its hafnians are integers
        n = 12
        edges = [(i, (i + 1) % n) for i in range(n)] + [(0, 6), (2, 9), (3, 7), (5, 11)]
        a = graph_from_edges(n, edges)
        table = unpack_table(hafnian_all_subsets(a), n)
        assert np.array_equal(table, hafnian_table_loops(a))
        assert np.array_equal(table, np.round(table))
        assert table[-1] == hafnian_bruteforce(a)

    def test_strided_sweep_matches_scalar_order_on_real_matrix(self):
        rng = np.random.default_rng(47)
        b = random_symmetric(rng, 10, binary=False)
        assert np.array_equal(unpack_table(hafnian_all_subsets(b), 10), hafnian_table_loops(b))


class TestCountPerfectMatchings:
    def test_complete_graphs(self):
        # (2m-1)!! matchings for K_{2m}
        expected = {2: 1, 4: 3, 6: 15, 8: 105}
        for n, count in expected.items():
            assert count_perfect_matchings(complete_graph(n)) == count

    def test_odd_graph(self):
        assert count_perfect_matchings(complete_graph(5)) == 0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            n = int(rng.integers(1, 6)) * 2
            a = random_symmetric(rng, n)
            assert count_perfect_matchings(a) == count_matchings_bruteforce(a)


class TestHafnianWithRepeats:
    def test_matches_explicit_expansion(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            b = random_symmetric(rng, n, binary=False)
            b += np.diag(rng.normal(size=n))
            counts = rng.integers(0, 4, size=n)
            if counts.sum() > 10:
                continue
            reps = [i for i in range(n) for _ in range(counts[i])]
            explicit = b[np.ix_(reps, reps)]
            assert MultisetHafnian(b).value(counts) == pytest.approx(
                hafnian(explicit), rel=1e-9, abs=1e-12
            )

    def test_indicator_counts_reduce_to_submatrix(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert MultisetHafnian(a).value([1, 1, 1, 1]) == hafnian(a)
        assert MultisetHafnian(a).value([1, 1, 0, 0]) == 1.0


class TestTorontonian:
    def test_vacuum_coupling_is_zero(self):
        assert torontonian(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_single_mode_closed_form(self):
        # paired coupling b gives tor = 1/sqrt(1 - b^2) - 1
        b = 1 / np.sqrt(2)
        o = np.array([[0.0, b], [b, 0.0]])
        assert torontonian(o) == pytest.approx(1 / np.sqrt(1 - b * b) - 1, rel=1e-12)

    def test_odd_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            torontonian(np.zeros((3, 3)))

    def test_unphysical_spectrum_rejected(self):
        with pytest.raises(InvalidInputError):
            torontonian(np.eye(2) * 1.5)
