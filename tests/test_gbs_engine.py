import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from gbsclust import gbs_engine
from gbsclust.errors import (
    CapacityError,
    DegenerateGraphError,
    InvalidInputError,
    NoSolutionError,
    NumericError,
)
from gbsclust.gbs_engine import (
    MODE_PNR,
    MODE_THRESHOLD,
    GbsEncoding,
    GraphSampler,
    SampleBatch,
    calibrate_scaling,
    encode,
    sample,
    subset_weight,
    takagi,
)
from gbsclust.graph_core import connected_components
from gbsclust.matchers import hafnian_all_subsets

from helpers import (
    calibrate_scaling_200_steps,
    det_sigma_q,
    graph_from_edges,
    hafnian_bruteforce,
    pnr_probability,
    pnr_support_masses,
    product_table,
    sampler_weights,
    subset_probabilities,
    threshold_draws_whole_graph,
    threshold_weights_by_combinations,
    total_variation_distance,
    unpack_table,
)

SINGLE_EDGE = graph_from_edges(2, [(0, 1)])
K4 = graph_from_edges(4, list(itertools.combinations(range(4), 2)))


def top_of(lam):
    """The top of the calibration's bracket, (1 - 1e-14) / lam_max."""
    return (1.0 - 1e-14) / float(np.max(lam))


@st.composite
def spectra(draw):
    """Singular values from 1e-5 to 1e5 with zeros and repeats, and a factor
    that, when above 1, sets the target that far past the mean at the top."""
    size = draw(st.integers(1, 26))
    values = 10.0 ** np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=size)))
    picks = st.lists(st.integers(0, values.size - 1), min_size=size, max_size=size)
    lam = values[np.array(draw(picks))]  # each value may repeat
    zeros = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    lam[np.array(zeros) & (lam < lam.max())] = 0.0
    overshoot = draw(st.sampled_from([1.0, 1.0, 1.0, 1.5, 1e3]))
    return lam, overshoot


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    a = np.triu(a, 1)
    return a + a.T


class TestTakagi:
    def test_identity(self):
        f = takagi(np.eye(2))
        assert np.allclose(f.lam, [1.0, 1.0])
        assert np.allclose(f.u @ f.u.conj().T, np.eye(2), atol=1e-12)

    def test_swap_matrix(self):
        f = takagi(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(f.lam, [1.0, 1.0])

    def test_zero_matrix(self):
        f = takagi(np.zeros((3, 3)))
        assert np.allclose(f.lam, 0.0)
        assert np.allclose(f.reconstruct(), 0.0)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 16))
            a = random_symmetric(rng, n)
            f = takagi(a)
            err = np.linalg.norm(f.reconstruct() - a)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(a))
            assert np.all(np.diff(f.lam) <= 1e-12)
            assert np.all(f.lam >= 0)
            assert np.allclose(f.u @ f.u.conj().T, np.eye(n), atol=1e-10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            takagi(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_empty_matrix(self):
        f = takagi(np.zeros((0, 0)))
        assert f.u.shape == (0, 0)
        assert f.lam.shape == (0,)

    def test_infinite_entry_rejected(self):
        match = re.escape("must be finite; not so at [[0, 1], [1, 0]]")
        with pytest.raises(InvalidInputError, match=match):
            takagi(np.array([[0.0, np.inf], [np.inf, 0.0]]))


class TestCalibrateScaling:
    def test_single_mode_closed_form(self):
        c = calibrate_scaling(np.array([1.0]), 1.0)
        assert c == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_two_symmetric_modes(self):
        c = calibrate_scaling(np.array([1.0, 1.0]), 2.0)
        assert c == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_small_target_gives_small_c(self):
        c = calibrate_scaling(np.array([2.0, 1.0]), 1e-8)
        assert 0 < c < 1e-3

    def test_random_lambda_sets_hit_target(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            lam = rng.uniform(0.05, 4.0, size=int(rng.integers(1, 12)))
            n_mean = float(rng.uniform(0.1, 10.0))
            c = calibrate_scaling(lam, n_mean)
            x = (c * lam) ** 2
            assert np.sum(x / (1 - x)) == pytest.approx(n_mean, abs=1e-9)
            assert 0 < c * lam.max() < 1

    def test_edgeless_spectrum_rejected(self):
        with pytest.raises(NoSolutionError):
            calibrate_scaling(np.zeros(3), 1.0)

    def test_nonpositive_target_rejected(self):
        with pytest.raises(InvalidInputError):
            calibrate_scaling(np.array([1.0]), 0.0)

    @settings(max_examples=300, deadline=None)
    @given(spectra(), st.floats(-40.0, 12.0))
    @example((np.array([3.0, 2.0, 0.5]), 1.0), 16.5)  # n_mean 3e16: 1 + n_mean == n_mean
    def test_equals_200_step_bisection(self, case, log_n_mean):
        lam, overshoot = case
        n_mean = 10.0**log_n_mean
        if overshoot > 1.0:  # past the mean at top, where the root is clamped
            n_mean = overshoot * gbs_engine._mean_photons(top_of(lam), lam)
        assert calibrate_scaling(lam, n_mean) == calibrate_scaling_200_steps(lam, n_mean)

    @settings(max_examples=300, deadline=None)
    @given(spectra(), st.floats(-300.0, 300.0))
    @example((np.array([1e5, 1e-5]), 1.0), -100.0)  # the 200-step oracle is 6e-12 off here
    @example((np.array([1e5, 1e-5]), 1.0), -300.0)  # s = c^2 is subnormal
    def test_lands_on_the_float_boundary(self, case, log_n_mean):
        # c = 0.5 * (prev(b) + b), b the least float in (0, top] whose mean
        # reaches n_mean, or b = top when none does; this holds also for the
        # tiny targets where a 200-step bisection stops short of adjacent floats
        lam, _ = case
        n_mean = 10.0**log_n_mean
        mean = gbs_engine._mean_photons
        top = top_of(lam)
        c = calibrate_scaling(lam, n_mean)
        b = c if mean(c, lam) >= n_mean else min(np.nextafter(c, np.inf), top)
        below = np.nextafter(b, 0.0)
        assert b == top or mean(below, lam) < n_mean <= mean(b, lam)
        assert c == 0.5 * (below + b)

    @pytest.mark.parametrize("n_mean", [1e16, 3e16])
    def test_huge_target_below_the_top_starts_newton_off_the_pole(self, n_mean):
        # 1 + n_mean == n_mean, so the largest term reaches n_mean only at the
        # pole; 1000 modes at the top carry 5e16 photons, so the root is below it
        lam = np.ones(1000)
        assert gbs_engine._mean_photons(top_of(lam), lam) > n_mean
        assert calibrate_scaling(lam, n_mean) == calibrate_scaling_200_steps(lam, n_mean)

    def test_stops_once_the_bracket_is_adjacent_floats(self, monkeypatch):
        evaluations = []
        mean_photons = gbs_engine._mean_photons

        def counted(c, lam):
            evaluations.append(c)
            return mean_photons(c, lam)

        monkeypatch.setattr(gbs_engine, "_mean_photons", counted)
        for n_mean in (0.5, 2.0, 6.25):
            evaluations.clear()
            calibrate_scaling(np.array([3.0, 2.0, 0.5]), n_mean)
            assert len(evaluations) <= 5

    @pytest.mark.parametrize(
        "lam, n_mean, problem",
        [([np.nan], 1.0, "must be finite"), ([np.inf], 1.0, "must be finite"),
         ([1.0, -np.inf], 1.0, "must be finite"), ([-3.0, 1.0], 100.0, "must be nonnegative")],
        ids=["nan", "inf", "minus-inf", "negative"],
    )
    def test_bad_singular_value_rejected(self, lam, n_mean, problem):
        # nan gave c = nan, inf gave c = 0, and [-3, 1] bracketed by lam.max()
        # = 1 put c * 3 past the pole
        with pytest.raises(InvalidInputError, match=f"singular values {problem}"):
            calibrate_scaling(np.array(lam), n_mean)

    @pytest.mark.parametrize("lam_max", [5e-324, 1e-310])
    def test_subnormal_largest_singular_value_rejected(self, lam_max):
        # 1 / lam_max overflows, and the bracket's top of inf gave c = inf
        with pytest.raises(InvalidInputError, match="too small to calibrate"):
            calibrate_scaling(np.array([lam_max]), 1.0)

    @pytest.mark.parametrize("n_mean", [float("nan"), float("inf")])
    def test_nonfinite_target_rejected(self, n_mean):
        # nan compares false against everything and would bisect c down to 0
        with pytest.raises(InvalidInputError):
            calibrate_scaling(np.array([5.0, 1.0]), n_mean)


class TestEncoding:
    def test_det_sigma_q_product_form(self):
        enc = encode(SINGLE_EDGE, 1.0)
        # lam = (1, 1), c = 1/sqrt(3): det sigma_Q = (1/(1 - 1/3))^2
        assert enc.c == pytest.approx(1 / np.sqrt(3), abs=1e-12)
        assert det_sigma_q(enc) == pytest.approx(2.25, abs=1e-9)

    def test_inconsistent_encoding_rejected(self):
        with pytest.raises(InvalidInputError):
            GbsEncoding(lam=takagi(SINGLE_EDGE).lam, c=0.9, n_mean=1.0)

    @pytest.mark.parametrize("name", ["c", "n_mean"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_scale_or_target_rejected(self, name, value):
        # NaN fails every comparison, so the consistency checks let it through
        fields = {"lam": np.array([1.0, 1.0]), "c": 3 ** -0.5, "n_mean": 1.0, name: value}
        with pytest.raises(InvalidInputError, match=f"{name} must be finite"):
            GbsEncoding(**fields)

    @pytest.mark.parametrize("n_mean", [1e4, 1e6, 1e12])
    def test_target_near_the_pole_accepted(self, n_mean):
        # adjacent floats of c here differ by more than CALIBRATION_ATOL photons
        assert encode(K4, n_mean).n_mean == n_mean

    @pytest.mark.parametrize("n_mean", [2.0, 1e6])
    @pytest.mark.parametrize("factor", [1.0 - 1e-4, 1.0 + 1e-4])
    def test_miscalibrated_c_rejected(self, n_mean, factor):
        enc = encode(K4, n_mean)
        with pytest.raises(InvalidInputError):
            GbsEncoding(lam=enc.lam, c=enc.c * factor, n_mean=n_mean)

    @pytest.mark.parametrize(
        "a",
        [
            SINGLE_EDGE,  # eigenvalues -1, 1
            graph_from_edges(3, [(0, 1), (1, 2), (0, 2)]),  # -1, -1, 2
            K4,  # -1 three times, 3
            graph_from_edges(4, [(0, 1), (2, 3)]),  # -1, -1, 1, 1
            *(
                random_symmetric(np.random.default_rng(seed), n)
                for seed, n in ((4, 6), (5, 11), (6, 17))
            ),
        ],
        ids=["edge", "triangle", "K4", "two-edges", "random-6", "random-11", "random-17"],
    )
    def test_encoding_takes_takagis_singular_values_without_takagi(self, a):
        expected = takagi(a).lam
        with mock.patch.object(gbs_engine, "takagi", side_effect=AssertionError("U built")):
            enc = encode(a, 2.0)
        assert np.array_equal(enc.lam, expected)
        assert enc.c == calibrate_scaling(expected, 2.0)

    def test_infinite_entry_rejected(self):
        a = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(InvalidInputError, match="must be finite"):
            encode(a, 1.0)
        for mode in (MODE_PNR, MODE_THRESHOLD):
            with pytest.raises(InvalidInputError, match="must be finite"):
                sample(a, 1.0, 5, mode=mode, seed=0)

    @pytest.mark.parametrize("weight", [1e300, 1e-300])
    def test_unrepresentable_weight_table_rejected(self, weight):
        # c^2 and Haf^2 leave the float range in opposite directions, so
        # their product is nan; without the check every draw came out empty
        sampler = GraphSampler(weight * SINGLE_EDGE, 1.0)
        match = "2-node component weights sum to nan"
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=match):
            sampler.draw(5, seed=0)

    def test_target_beyond_the_bracket_rejected(self):
        # c is capped at (1 - 1e-14) / lam_max, which gives K4 ~4.9e13 photons
        with pytest.raises(InvalidInputError, match="mean photons"):
            encode(K4, 1e15)

    @pytest.mark.parametrize("mode", [MODE_PNR, MODE_THRESHOLD])
    def test_sampler_rejects_a_target_beyond_the_bracket(self, mode):
        # the sampler takes c from an encoding, whose check must stop it from
        # drawing at the cap's ~4.9e13 photons in place of the target
        with pytest.raises(InvalidInputError, match="mean photons"):
            sample(K4, 1e15, 5, mode=mode, seed=0)
        with pytest.raises(InvalidInputError, match="mean photons"):
            GraphSampler(K4, 1e15, mode).draw(5, 0)


class TestSubsetWeight:
    def test_empty_subset(self):
        enc = encode(SINGLE_EDGE, 1.0)
        assert subset_weight(SINGLE_EDGE, enc, ()) == 1.0

    def test_single_edge_pair(self):
        enc = encode(SINGLE_EDGE, 1.0)
        assert subset_weight(SINGLE_EDGE, enc, (0, 1)) == pytest.approx(
            enc.c ** 2, rel=1e-12
        )

    def test_odd_subsets_vanish(self):
        a = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        enc = encode(a, 1.0)
        assert subset_weight(a, enc, (0,)) == 0.0
        assert subset_weight(a, enc, (0, 1, 2)) == 0.0


class TestSampleBatch:
    @pytest.mark.parametrize(
        "hits", [np.ones(4), np.ones((2, 2, 2)), np.array(1)], ids=["1-D", "3-D", "0-D"]
    )
    def test_matrix_not_2d_rejected(self, hits):
        with pytest.raises(InvalidInputError, match="must be 2-D"):
            SampleBatch(hits, MODE_THRESHOLD)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_entry_other_than_0_or_1_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="0 or 1"):
            SampleBatch(np.array([[0.0, 1.0], [1.0, bad]]), MODE_THRESHOLD)

    def test_odd_pnr_row_rejected(self):
        hits = np.array([[1, 1, 0], [1, 1, 1]])
        with pytest.raises(InvalidInputError, match="odd-size subset"):
            SampleBatch(hits, MODE_PNR)
        assert SampleBatch(hits, MODE_THRESHOLD).samples == [(0, 1), (0, 1, 2)]

    def test_integer_matrix_kept_as_bool(self):
        batch = SampleBatch(np.array([[0, 1, 1], [0, 0, 0]]), MODE_PNR)
        assert batch.hits.dtype == bool
        assert batch.samples == [(1, 2), ()]

    def test_batches_compare_by_identity(self):
        # a generated __eq__ would compare the matrices as one truth value
        hits = np.array([[1, 1, 0], [0, 1, 1]])
        batch = SampleBatch(hits, MODE_PNR)
        assert batch == batch
        assert batch != SampleBatch(hits.copy(), MODE_PNR)


class TestSample:
    def test_empty_graph_degenerate(self):
        with pytest.raises(DegenerateGraphError):
            sample(np.zeros((3, 3)), 1.0, 10, seed=0)

    def test_capacity_bound(self):
        # the bound holds per connected component; a path is one component
        path = [(i, i + 1) for i in range(26)]
        with pytest.raises(CapacityError, match=r"27 nodes .* 536870912 bytes"):
            sample(graph_from_edges(27, path), 1.0, 10, seed=0)
        with pytest.raises(CapacityError, match=r"21 nodes .* 16777216 bytes"):
            sample(graph_from_edges(21, path[:20]), 1.0, 10, mode=MODE_THRESHOLD, seed=0)

    @pytest.mark.parametrize("mode, size", [(MODE_PNR, 14), (MODE_THRESHOLD, 11)])
    def test_split_graph_beyond_the_whole_graph_bound_samples(self, mode, size):
        # two rings, on the even and on the odd nodes, each within the bound
        n = 2 * size
        a = graph_from_edges(n, [(i, (i + 2) % n) for i in range(n)])
        assert n > gbs_engine.max_nodes(mode)
        batch = sample(a, n / 4, 200, mode=mode, seed=5)
        assert batch.samples == GraphSampler(a, n / 4, mode).draw(200, 5).samples
        assert any(batch.samples)
        if mode == MODE_PNR:  # each ring contributes an even part
            assert all(sum(i % 2 for i in s) % 2 == 0 for s in batch.samples)

    def test_single_edge_frequencies(self):
        batch = sample(SINGLE_EDGE, 1.0, 20000, seed=123)
        freq_pair = sum(1 for s in batch.samples if s == (0, 1)) / 20000
        # weights 1 : c^2 with c^2 = 1/3, so P(pair) = 1/4
        assert freq_pair == pytest.approx(0.25, abs=0.01)
        assert all(s in ((), (0, 1)) for s in batch.samples)

    def test_disjoint_edges_never_mix(self):
        a = graph_from_edges(4, [(0, 1), (2, 3)])
        dist = subset_probabilities(a, 2.0)
        enc = encode(a, 2.0)
        assert (0, 2) not in dist
        assert (0, 1, 2, 3) in dist
        # Haf of two disjoint edges is 1, so the 4-set weight is c^4
        ratio = dist[(0, 1, 2, 3)] / dist[()]
        assert ratio == pytest.approx(enc.c ** 4, rel=1e-9)

    def test_even_cardinality_invariant(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        batch = sample(a, 2.0, 500, seed=7)
        assert all(len(s) % 2 == 0 for s in batch.samples)

    def test_determinism(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        b1 = sample(a, 2.0, 100, seed=99)
        b2 = sample(a, 2.0, 100, seed=99)
        assert b1.samples == b2.samples

    @pytest.mark.parametrize("mode", [MODE_PNR, MODE_THRESHOLD])
    def test_sampler_draws_match_sample(self, mode):
        a = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        sampler = GraphSampler(a, 2.0, mode)
        for seed in (5, 11):
            expected = sample(a, 2.0, 200, mode=mode, seed=seed)
            assert sampler.draw(200, seed).samples == expected.samples
            reused = sample(a, 2.0, 200, mode=mode, seed=seed, sampler=sampler)
            assert reused.samples == expected.samples

    def test_sampler_of_another_graph_rejected(self):
        a = graph_from_edges(3, [(0, 1), (1, 2)])
        sampler = GraphSampler(a, 1.0)
        with pytest.raises(InvalidInputError):
            sample(graph_from_edges(3, [(0, 1)]), 1.0, 5, sampler=sampler)
        with pytest.raises(InvalidInputError):
            sample(a, 2.0, 5, sampler=sampler)
        with pytest.raises(InvalidInputError):
            sample(a, 1.0, 5, mode=MODE_THRESHOLD, sampler=sampler)

    @pytest.mark.parametrize("a", [SINGLE_EDGE, np.zeros((3, 3))])
    def test_no_samples_rejected_before_enumeration(self, a):
        with pytest.raises(InvalidInputError):
            sample(a, 1.0, 0)

    @pytest.mark.parametrize(
        "n_samples, seed, problem",
        [(2.5, 0, "n_samples must be an integer of at least 1"), (True, 0, "n_samples"),
         (5, -1, "seed must be an integer of at least 0"), (5, 1.5, "seed")],
    )
    def test_bad_count_or_seed_rejected(self, n_samples, seed, problem):
        with pytest.raises(InvalidInputError, match=problem):
            sample(SINGLE_EDGE, 1.0, n_samples, seed=seed)
        with pytest.raises(InvalidInputError, match=problem):
            GraphSampler(SINGLE_EDGE, 1.0).draw(n_samples, seed)

    def test_no_weight_table_outlives_the_call(self):
        sample(SINGLE_EDGE, 1.0, 10, seed=0)  # warm up lazy imports and state
        complete = np.ones((18, 18)) - np.eye(18)
        table_bytes = 8 << 18
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sample(complete, 9.0, 10, seed=0)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < table_bytes // 2

    def test_zero_row_never_sampled(self):
        # node 3 is isolated
        a = graph_from_edges(4, [(0, 1), (1, 2), (0, 2)])
        for mode in (MODE_PNR, MODE_THRESHOLD):
            dist = subset_probabilities(a, 1.5, mode=mode)
            assert all(3 not in subset for subset in dist)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        a = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        perm = rng.permutation(5)
        relabeled = a[np.ix_(perm, perm)]
        dist = subset_probabilities(a, 2.5)
        dist_rel = subset_probabilities(relabeled, 2.5)
        # node i of the relabeled graph is node perm[i] of the original
        mapped = {
            tuple(sorted(perm[list(s)])): p for s, p in dist_rel.items()
        }
        assert set(mapped) == set(dist)
        for subset, p in dist.items():
            assert mapped[subset] == pytest.approx(p, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.integers(2, 10).flatmap(
            lambda n: st.tuples(
                st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
                st.permutations(range(n)),
            )
        ),
        n_mean=st.floats(0.1, 6.0),
        mode=st.sampled_from([MODE_PNR, MODE_THRESHOLD]),
    )
    def test_relabelling_permutes_the_distribution(self, case, n_mean, mode):
        # c comes from eigh of each matrix, so equal only up to rounding
        bits, perm = case
        assume(any(bits))
        n = len(perm)
        a = np.zeros((n, n))
        a[np.triu_indices(n, 1)] = bits
        a += a.T
        perm = np.array(perm)
        dist = subset_probabilities(a, n_mean, mode=mode)
        relabeled = subset_probabilities(a[np.ix_(perm, perm)], n_mean, mode=mode)
        # node i of the relabeled graph is node perm[i] of the original
        mapped = {tuple(sorted(perm[list(s)])): p for s, p in relabeled.items()}
        for subset in set(dist) | set(mapped):
            assert abs(dist.get(subset, 0.0) - mapped.get(subset, 0.0)) <= 1e-12

    def test_small_fidelity(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        n_mean = 2.0
        enc = encode(a, n_mean)
        exact = {}
        for r in range(5):
            for subset in itertools.combinations(range(4), r):
                sub = a[np.ix_(subset, subset)]
                w = enc.c ** len(subset) * hafnian_bruteforce(sub) ** 2
                if w > 0:
                    exact[subset] = w
        total = sum(exact.values())
        exact = {k: v / total for k, v in exact.items()}
        batch = sample(a, n_mean, 30000, seed=17)
        counts = {}
        for s in batch.samples:
            counts[s] = counts.get(s, 0) + 1
        empirical = {k: v / 30000 for k, v in counts.items()}
        assert total_variation_distance(exact, empirical) < 0.02


class TestProbabilityPnr:
    def test_vacuum(self):
        enc = encode(SINGLE_EDGE, 1.0)
        p = pnr_probability(SINGLE_EDGE, enc, (0, 0))
        assert p == pytest.approx(1 / np.sqrt(det_sigma_q(enc)), rel=1e-12)

    def test_single_pair_pattern(self):
        enc = encode(SINGLE_EDGE, 1.0)
        p = pnr_probability(SINGLE_EDGE, enc, (1, 1))
        assert p == pytest.approx(enc.c ** 2 / np.sqrt(det_sigma_q(enc)), rel=1e-12)

    def test_double_pair_pattern(self):
        # pattern (2, 2): repeated matrix has hafnian 2, pattern! = 4
        enc = encode(SINGLE_EDGE, 1.0)
        p = pnr_probability(SINGLE_EDGE, enc, (2, 2))
        expected = enc.c ** 4 * 4.0 / (4.0 * np.sqrt(det_sigma_q(enc)))
        assert p == pytest.approx(expected, rel=1e-12)

    def test_normalization_single_edge(self):
        enc = encode(SINGLE_EDGE, 1.0)
        sums = []
        for cutoff in (2, 5, 10, 20):
            total = sum(
                pnr_probability(SINGLE_EDGE, enc, (n1, n2))
                for n1 in range(cutoff + 1)
                for n2 in range(cutoff + 1)
            )
            sums.append(total)
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert sums[-1] > 0.999


class TestThresholdMode:
    def test_single_mode_click_probability_matches_pnr_tail(self):
        # one squeezed mode at c*lam = 1/sqrt(2): the normalized torontonian
        # weight must equal the summed probability of seeing any photons
        a = np.array([[1.0]])
        enc = encode(a, 1.0, mode=MODE_THRESHOLD)
        assert enc.c == pytest.approx(1 / np.sqrt(2), abs=1e-12)
        click_weight = subset_weight(a, enc, (0,))
        click_prob = click_weight / np.sqrt(det_sigma_q(enc))
        enc_pnr = encode(a, 1.0)
        # (c lam)^2 = 1/2 decays slowly, so the tail needs a deep cutoff
        tail = sum(pnr_probability(a, enc_pnr, (n,)) for n in range(1, 41))
        assert click_prob == pytest.approx(tail, rel=1e-4)
        assert click_prob == pytest.approx(1 - 1 / np.sqrt(2), rel=1e-12)

    def test_weights_match_pnr_support_sums_triangle(self):
        a = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        n_mean = 0.5
        enc = encode(a, n_mean, mode=MODE_THRESHOLD)
        masses = pnr_support_masses(a, enc.c, cutoff=14)
        ratios = []
        for support, mass in masses.items():
            if not support:
                continue
            w = subset_weight(a, enc, tuple(sorted(support)))
            ratios.append(w / mass)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() - 1 < 1e-6

    def test_distribution_table_matches_direct_weights(self):
        a = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        n_mean = 1.0
        enc = encode(a, n_mean, mode=MODE_THRESHOLD)
        dist = subset_probabilities(a, n_mean, mode=MODE_THRESHOLD)
        direct = {}
        for r in range(5):
            for subset in itertools.combinations(range(4), r):
                w = subset_weight(a, enc, subset)
                if w > 1e-15:
                    direct[subset] = w
        total = sum(direct.values())
        for subset, w in direct.items():
            assert dist[subset] == pytest.approx(w / total, rel=1e-9)

    def test_self_looped_lone_node_keeps_its_weight(self):
        # Tor of a lone node reads its diagonal, so its clicks carry weight
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        enc = encode(a, 1.0, mode=MODE_THRESHOLD)
        direct = {
            subset: subset_weight(a, enc, subset)
            for r in range(4)
            for subset in itertools.combinations(range(3), r)
        }
        total = sum(direct.values())
        dist = subset_probabilities(a, 1.0, mode=MODE_THRESHOLD)
        assert set(dist) == {s for s, w in direct.items() if w > 0.0}
        assert {(2,), (0, 1, 2)} <= set(dist)
        for subset, w in direct.items():
            assert dist.get(subset, 0.0) == pytest.approx(w / total, rel=1e-12)

    def test_self_looped_lone_node_never_drawn_photon_counting(self):
        a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        sampler = GraphSampler(a, 1.0)
        assert [nodes.tolist() for nodes in sampler.components] == [[0, 1]]
        assert set(sampler.draw(200, seed=4).samples) == {(), (0, 1)}

    def test_threshold_samples_allow_odd_subsets(self):
        a = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        batch = sample(a, 1.5, 2000, mode=MODE_THRESHOLD, seed=3)
        assert any(len(s) % 2 == 1 for s in batch.samples)


@st.composite
def split_graphs(draw):
    """0/1 graphs of up to 14 nodes whose nodes fall into up to 4 labelled
    groups with no edge between groups: several components, interleaved
    node labels, isolated nodes."""
    n = draw(st.integers(2, 14))
    groups = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    density = draw(st.floats(0.2, 0.9))
    seed = draw(st.integers(0, 2**32 - 1))
    return split_graph(groups, density, seed)


@st.composite
def connected_with_isolated(draw):
    """0/1 graphs of up to 14 nodes with one connected component of two or
    more nodes on interleaved labels; the other nodes are isolated."""
    n = draw(st.integers(2, 14))
    inside = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    nodes = [i for i in range(n) if inside[i]]
    assume(len(nodes) >= 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.zeros((n, n))
    for i in range(1, len(nodes)):  # a random spanning tree joins the members
        j = nodes[int(rng.integers(i))]
        a[nodes[i], j] = a[j, nodes[i]] = 1.0
    extra = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 0.8)), 1)
    extra &= np.outer(inside, inside)
    return np.maximum(a, extra + extra.T)


def split_graph(groups, density, seed):
    """Random 0/1 graph with an edge only between nodes of the same group."""
    n = len(groups)
    upper = np.random.default_rng(seed).random((n, n)) < density
    same = np.equal.outer(groups, groups)
    a = np.triu(upper & same, 1).astype(float)
    return a + a.T


def packed_masks(n):
    """The mask of each entry of a packed n-node table, in entry order."""
    return np.flatnonzero(unpack_table(np.ones(max((1 << n) // 2, 1)), n))


def full_cumsum_at_packed(sweep, n, powers):
    """One cumsum of c^|S| Haf^2 over all 2^n masks of an unpacked sweep,
    read at the masks the packed table keeps."""
    full = unpack_table(sweep, n)
    sizes = np.bitwise_count(np.arange(full.size))
    return np.cumsum(full * full * powers[sizes])[packed_masks(n)]


def dense_support(a, n_mean):
    """(masks, cum) of the nonzero weights of one sweep over the whole graph."""
    n = a.shape[0]
    weights = unpack_table(hafnian_all_subsets(a), n)
    weights *= weights
    sizes = np.array([bin(mask).count("1") for mask in range(1 << n)])
    weights *= (encode(a, n_mean).c ** np.arange(n + 1, dtype=float))[sizes]
    masks = np.flatnonzero(weights)
    return masks, np.cumsum(weights)[masks], weights


# split graphs, interleaved labels: 4+4, 5+4+isolated, 7+7, 3+3+3+3
THRESHOLD_SPLIT_CASES = [
    ([0, 1] * 4, 0.7, 1),
    ([0, 1, 0, 2, 1, 0, 1, 0, 1, 0], 0.6, 2),
    ([0, 1] * 7, 0.5, 7),
    ([0, 1, 2, 3] * 3, 0.8, 4),
]


class TestSupport:
    @pytest.mark.parametrize("mode", [MODE_PNR, MODE_THRESHOLD])
    def test_tables_calibrate_once(self, mode):
        # the tables take c from one encoding and calibrate nowhere else
        a = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
        encoded = mock.Mock(wraps=encode)
        calibrated = mock.Mock(wraps=calibrate_scaling)
        with mock.patch.object(gbs_engine, "encode", encoded), mock.patch.object(
            gbs_engine, "calibrate_scaling", calibrated
        ):
            GraphSampler(a, 2.0, mode).tables
        assert encoded.call_count == calibrated.call_count == 1

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=split_graphs(), n_mean=st.floats(0.1, 6.0))
    def test_per_component_support_equals_dense_route(self, a, n_mean):
        assume(a.sum() > 0)
        sampler = GraphSampler(a, n_mean)
        sweeps = []

        def recording(sub):
            table = hafnian_all_subsets(sub)
            sweeps.append(table.copy())
            return table

        with mock.patch.object(gbs_engine, "hafnian_all_subsets", recording):
            tables = sampler.tables
        # one sweep per component, and multiplied out they are the dense sweep
        assert len(sweeps) == len(sampler.components)
        full_sweeps = [unpack_table(t, nodes.size) for nodes, t in zip(sampler.components, sweeps)]
        assert np.array_equal(
            product_table(a, sampler.components, full_sweeps),
            unpack_table(hafnian_all_subsets(a), a.shape[0]),
        )
        # each table is its component's c^|S| Haf^2, accumulated in mask order
        powers = encode(a, n_mean).c ** np.arange(a.shape[0] + 1, dtype=float)
        for nodes, sweep, cum in zip(sampler.components, sweeps, tables):
            assert np.array_equal(cum, full_cumsum_at_packed(sweep, nodes.size, powers))
        _, _, weights = dense_support(a, n_mean)
        full_cum = np.cumsum(weights)
        for seed in (0, 1, 2, 3):
            u = np.random.default_rng(seed).random(64) * full_cum[-1]
            picked = np.searchsorted(full_cum, u, side="right")
            expected = [tuple(i for i in range(a.shape[0]) if (m >> i) & 1) for m in picked]
            assert sampler.draw(64, seed).samples == expected

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=connected_with_isolated(), n_mean=st.floats(0.1, 6.0))
    def test_one_component_draws_equal_dense_route_bit_for_bit(self, a, n_mean):
        sampler = GraphSampler(a, n_mean)
        assert len(sampler.components) == 1
        masks, cum, _ = dense_support(a, n_mean)
        assert sampler.total == cum[-1]
        for seed in (0, 1, 2, 3):
            u = np.random.default_rng(seed).random(64) * cum[-1]
            picked = masks[np.searchsorted(cum, u, side="right")]
            expected = [tuple(i for i in range(a.shape[0]) if (m >> i) & 1) for m in picked]
            assert sampler.draw(64, seed).samples == expected

    @pytest.mark.parametrize(
        "groups",
        [[0] * 17, [0, 1] * 6 + [0] * 10],
        ids=["one 17-node component", "16 + 6 split"],
    )
    def test_blockwise_table_build_equals_three_passes(self, groups):
        # a 16-node component's table spans many tiles, so the running
        # total is carried across tile boundaries
        a = split_graph(groups, 0.7, 21)
        n_mean = 4.0
        sampler = GraphSampler(a, n_mean)
        largest = max(nodes.size for nodes in sampler.components)
        assert largest >= 16 and (1 << largest) > gbs_engine.TABLE_TILE
        powers = encode(a, n_mean).c ** np.arange(a.shape[0] + 1, dtype=float)
        for nodes, cum in zip(sampler.components, sampler.tables):
            h = hafnian_all_subsets(a[np.ix_(nodes, nodes)])
            assert np.array_equal(cum, full_cumsum_at_packed(h, nodes.size, powers))

    def test_photon_counting_tables_keep_only_even_subsets(self):
        # a 5-node and a 3-node component; a threshold table keeps every mask
        a = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)])
        assert [cum.size for cum in GraphSampler(a, 2.0).tables] == [1 << 4, 1 << 2]
        threshold = GraphSampler(a, 2.0, MODE_THRESHOLD)
        assert [cum.size for cum in threshold.tables] == [1 << 5, 1 << 3]

    def test_table_build_peaks_near_the_packed_table(self):
        # a connected 20-node graph's packed table is 8 << 19 bytes; the
        # sweep adds only tile-sized masks and temporaries, and the table
        # pass one factor array per tile start popcount
        a = np.ones((20, 20)) - np.eye(20)
        GraphSampler(SINGLE_EDGE, 1.0).tables  # warm up lazy imports and state
        sampler = GraphSampler(a, 5.0)
        tracemalloc.start()
        try:
            sampler.tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (8 << 19)

    def test_descent_never_takes_a_massless_half(self):
        # on path 0-1-2, once nodes 1 and 2 are in, node 0's bit-1 half
        # {0, 1, 2} has no mass; u at or past the total passes every bit-0 mass
        a = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        sampler = GraphSampler(a, 2.0)
        weights = sampler_weights(sampler)
        total = sampler.total
        u = np.array([np.nextafter(total, 0.0), total, total * (1 + 1e-12), 2 * total])
        picked = sampler._descend(u)
        masks = sum(
            ((packed_masks(nodes.size)[local][:, None] >> np.arange(nodes.size)) & 1)
            @ (1 << nodes)
            for nodes, local in zip(sampler.components, picked)
        )
        assert np.all(weights[masks] > 0.0)
        assert masks.tolist() == [np.flatnonzero(weights)[-1]] * 4

    def test_threshold_support_skips_zero_weights_only(self):
        # a click pattern carries weight exactly when no clicked node is
        # isolated in the induced subgraph; node 4 is isolated outright
        a = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 0)])
        weights = sampler_weights(GraphSampler(a, 1.5, MODE_THRESHOLD))
        expected = [
            mask for mask in range(1 << 5)
            if all(
                any((mask >> j) & 1 and a[i, j] for j in range(5))
                for i in range(5) if (mask >> i) & 1
            )
        ]
        assert np.flatnonzero(weights).tolist() == expected
        assert np.all(weights >= 0.0)

    def test_weighted_components_factorize(self):
        a = np.zeros((6, 6))
        for (u, v), w in {(0, 3): 0.7, (3, 5): 1.3, (0, 5): 0.4, (1, 4): 2.1}.items():
            a[u, v] = a[v, u] = w
        weights = sampler_weights(GraphSampler(a, 2.0))
        masks = np.flatnonzero(weights)
        dense_masks, dense_cum, _ = dense_support(a, 2.0)
        assert np.array_equal(masks, dense_masks)
        assert np.allclose(np.cumsum(weights[masks]), dense_cum, rtol=1e-13, atol=0.0)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=split_graphs(), n_mean=st.floats(0.1, 6.0))
    def test_per_component_threshold_support_equals_whole_graph_table(self, a, n_mean):
        assume(a.sum() > 0)
        sampler = GraphSampler(a, n_mean, MODE_THRESHOLD)
        table = sampler_weights(sampler)
        whole = gbs_engine._threshold_weights(a, encode(a, n_mean, MODE_THRESHOLD).c)
        assert np.allclose(table, whole, rtol=0.0, atol=1e-12 * sampler.total)

    @pytest.mark.parametrize("groups, density, seed", THRESHOLD_SPLIT_CASES)
    def test_threshold_draws_equal_whole_graph_route(self, groups, density, seed):
        a = split_graph(groups, density, seed)
        n_mean = 0.5 * a.shape[0]
        sampler = GraphSampler(a, n_mean, MODE_THRESHOLD)
        c = encode(a, n_mean, MODE_THRESHOLD).c
        for draw_seed in (0, 1, 2, 3):
            assert sampler.draw(256, draw_seed).samples == threshold_draws_whole_graph(
                a, c, 256, draw_seed
            )

    def test_per_component_threshold_weights_are_more_accurate(self):
        # one subset-sum transform per component sums at most 2^7 signed
        # terms per subset, the whole graph's up to 2^14
        mpmath = pytest.importorskip("mpmath")
        groups = [0, 1] * 7
        a = split_graph(groups, 0.5, 7)
        c = encode(a, 7.0, MODE_THRESHOLD).c
        with mpmath.workdps(40):
            reference = np.ones(1 << 14, dtype=object)
            for g in (0, 1):
                nodes = [i for i in range(14) if groups[i] == g]
                part = _torontonian_table_mp(mpmath, a[np.ix_(nodes, nodes)], c)
                local = np.zeros(1 << 14, dtype=np.int64)
                for bit, node in enumerate(nodes):
                    local |= ((np.arange(1 << 14) >> node) & 1) << bit
                reference *= np.array(part, dtype=object)[local]
            reference = np.array([float(w) for w in reference])
        components = GraphSampler(a, 7.0, MODE_THRESHOLD).components
        parts = [gbs_engine._threshold_weights(a[np.ix_(nodes, nodes)], c) for nodes in components]
        per_component = product_table(a, components, parts)
        whole = gbs_engine._threshold_weights(a, c)
        per_component_err = np.abs(per_component - reference).max()
        whole_err = np.abs(whole - reference).max()
        assert per_component_err <= whole_err
        assert per_component_err < 1e-14 * reference.sum()


def _torontonian_table_mp(mpmath, a, c):
    """Tor(O_S) for every subset mask of a small graph, in mpmath."""
    n = a.shape[0]
    b = mpmath.mpf(c) * mpmath.matrix(a.tolist())
    h = [mpmath.mpf(1)]  # signed vacuum factors (-1)^|Z| / sqrt(det(I - O_Z))
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if (mask >> i) & 1]
        sub = mpmath.matrix([[b[i, j] for j in idx] for i in idx])
        eye = mpmath.eye(len(idx))
        vacuum = 1 / mpmath.sqrt(mpmath.det(eye - sub) * mpmath.det(eye + sub))
        h.append(vacuum * (-1) ** len(idx))
    for bit in range(n):
        for mask in range(1 << n):
            if (mask >> bit) & 1:
                h[mask] += h[mask ^ (1 << bit)]
    return [w * (-1) ** bin(mask).count("1") for mask, w in enumerate(h)]


@st.composite
def threshold_couplings(draw, max_nodes=12):
    """A 0/1 or weighted symmetric graph of 1 to ``max_nodes`` nodes and a
    physical c."""
    n = draw(st.integers(1, max_nodes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1).astype(float)
    if draw(st.booleans()):
        a *= rng.uniform(0.1, 3.0, size=(n, n))
    a = a + a.T
    lam_max = float(np.abs(np.linalg.eigvalsh(a)).max())
    scale = draw(st.floats(0.05, 0.95))
    return a, scale / lam_max if lam_max > 0.0 else scale


def connected_gnp(n, p, seed):
    """The first connected G(n, p) graph drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    while True:
        a = np.triu(rng.random((n, n)) < p, 1).astype(float)
        a = a + a.T
        if len(connected_components(a)) == 1:
            return a


class TestMaskRoutes:
    """Subset sizes and members come from the masks; the bytes do not move."""

    def test_subsets_read_members_off_the_mask_bits(self):
        masks = np.array([0, 0b101, 0b110, 1 << 25, (1 << 26) - 1], dtype=np.int64)
        assert SampleBatch(gbs_engine._bits(masks, 26), MODE_THRESHOLD).samples == [
            (),
            (0, 2),
            (1, 2),
            (25,),
            tuple(range(26)),
        ]
        assert SampleBatch(gbs_engine._bits(masks[:0], 26), MODE_THRESHOLD).samples == []


class TestThresholdSweep:
    """The threshold table's node-elimination sweep against batched
    determinants, mpmath, and the zeros and bounds the physics fixes."""

    @settings(max_examples=80, deadline=None)
    @given(threshold_couplings())
    def test_weights_agree_with_combination_route(self, case):
        a, c = case
        reference = threshold_weights_by_combinations(a, c)
        assert np.allclose(
            gbs_engine._threshold_weights(a, c), reference, rtol=0.0, atol=1e-12 * reference.sum()
        )

    def test_weights_agree_with_combination_route_across_chunks(self):
        # at 19 nodes the complements pass THRESHOLD_BLOCK entries at level
        # 10, so level 9's 512 prefixes finish in chunks of 56, the last of 8
        rng = np.random.default_rng(19)
        a = np.triu(rng.random((19, 19)) < 0.3, 1).astype(float)
        a = a + a.T
        c = 0.8 / float(np.abs(np.linalg.eigvalsh(a)).max())
        reference = threshold_weights_by_combinations(a, c)
        assert np.allclose(
            gbs_engine._threshold_weights(a, c), reference, rtol=0.0, atol=1e-12 * reference.sum()
        )

    @settings(max_examples=20, deadline=None)
    @given(threshold_couplings(max_nodes=8))
    def test_weights_within_rounding_of_mpmath(self, case):
        mpmath = pytest.importorskip("mpmath")
        a, c = case
        with mpmath.workdps(30):
            reference = np.array([float(w) for w in _torontonian_table_mp(mpmath, a, c)])
        error = np.abs(gbs_engine._threshold_weights(a, c) - reference)
        assert error.max() <= 1e-13 * reference.sum()

    @pytest.mark.parametrize("a, c", [
        # det(I - B) = det(I + B) = -1.25: their product is positive
        (SINGLE_EDGE, 1.5),
        # one sign fails: det(I - B) = -0.5, then det(I + B) = -0.5
        (np.array([[2.0]]), 0.75),
        (np.array([[-2.0]]), 0.75),
    ])
    def test_nonpositive_pivot_of_either_sign_is_not_physical(self, a, c):
        with pytest.raises(InvalidInputError, match="not physical"):
            gbs_engine._threshold_weights(a, c)

    @settings(max_examples=80, deadline=None)
    @given(threshold_couplings())
    def test_node_without_coupling_inside_the_subset_weighs_exactly_zero(self, case):
        a, c = case
        n = a.shape[0]
        masks = np.arange(1 << n)
        neighbours = (a != 0.0) @ (1 << np.arange(n))
        lonely = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        lonely &= (masks[:, None] & neighbours) == 0
        weights = gbs_engine._threshold_weights(a, c)
        assert np.all(weights[lonely.any(axis=1)] == 0.0)

    @pytest.mark.parametrize("p", [0.2, 0.4, 0.7])
    def test_twenty_node_tables_pass_the_floor_check(self, p):
        # the table build raises NumericError below -1e-11 of its largest
        # entry; the lattice's total mass is 1 / sqrt(det(I - O))
        a = connected_gnp(20, p, 20)
        sampler = GraphSampler(a, 10.0, MODE_THRESHOLD)
        cl = encode(a, 10.0, MODE_THRESHOLD).c * np.linalg.eigvalsh(a)
        assert sampler.total == pytest.approx(np.prod(1.0 / np.sqrt(1.0 - cl * cl)), rel=1e-12)

    def test_twenty_node_table_peak_memory(self):
        # at most 2.5x the 8 MiB table
        a = connected_gnp(20, 0.4, 20)
        c = encode(a, 10.0, MODE_THRESHOLD).c
        tracemalloc.start()
        try:
            gbs_engine._threshold_weights(a, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20
