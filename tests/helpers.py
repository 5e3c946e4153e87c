"""Independent oracles shared by the test modules.

Everything here is deliberately written from scratch, without calling into
the package, so the tests compare two genuinely different routes to the same
value.  The exceptions are the earlier implementations kept verbatim as
bit-identity references (``threshold_weights_by_combinations``,
``threshold_draws_whole_graph``, ``kmeans_pp_init_all_centroids``,
``repair_empty_rescanning``, ``kmeans_per_restart``, ``post_process_loop``),
which raise the package's error types, and the readers of a sampler's
per-component tables (``sampler_weights``, ``subset_probabilities``), which
multiply them out over the whole graph with ``product_table`` so tests can
check them against independent weights.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gbsclust.errors import InvalidInputError, NumericError
from gbsclust.gbs_engine import MODE_PNR, GraphSampler


def all_pairings(items):
    """Yield every way to split ``items`` into unordered pairs."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        partner = items[k]
        rest = items[1:k] + items[k + 1:]
        for tail in all_pairings(rest):
            yield [(first, partner)] + tail


def count_matchings_bruteforce(a: np.ndarray) -> int:
    """Perfect matchings by generate-and-test over all pairings."""
    n = a.shape[0]
    if n % 2:
        return 0
    count = 0
    for pairing in all_pairings(range(n)):
        if all(a[u, v] != 0 for u, v in pairing):
            count += 1
    return count


def hafnian_bruteforce(b: np.ndarray) -> float:
    """Hafnian by summing products over all pairings."""
    n = b.shape[0]
    if n % 2:
        return 0.0
    total = 0.0
    for pairing in all_pairings(range(n)):
        prod = 1.0
        for u, v in pairing:
            prod *= b[u, v]
        total += prod
    return total


class MultisetHafnian:
    """Hafnian of a matrix with repeated rows/columns, shared memo per matrix.

    Walks multiplicity vectors: take one copy of the first live index and
    pair it with a remaining copy of the same index (diagonal entry) or of a
    later index.  The memo persists across patterns of the same matrix so a
    whole cutoff lattice is cheap to sweep.
    """

    def __init__(self, b: np.ndarray):
        self.b = np.asarray(b, dtype=float)
        self.memo: dict[tuple[int, ...], float] = {}

    def value(self, counts) -> float:
        counts = tuple(int(c) for c in counts)
        if sum(counts) % 2:
            return 0.0
        return self._rec(counts)

    def _rec(self, m: tuple[int, ...]) -> float:
        if sum(m) == 0:
            return 1.0
        cached = self.memo.get(m)
        if cached is not None:
            return cached
        i = next(k for k, c in enumerate(m) if c > 0)
        rest = list(m)
        rest[i] -= 1
        total = 0.0
        if rest[i] > 0 and self.b[i, i] != 0.0:
            m2 = list(rest)
            m2[i] -= 1
            total += rest[i] * self.b[i, i] * self._rec(tuple(m2))
        for j in range(i + 1, len(m)):
            if rest[j] > 0 and self.b[i, j] != 0.0:
                m2 = list(rest)
                m2[j] -= 1
                total += rest[j] * self.b[i, j] * self._rec(tuple(m2))
        self.memo[m] = total
        return total


def pnr_support_masses(a: np.ndarray, c: float, cutoff: int) -> dict[frozenset, float]:
    """Photon-pattern probability mass per detector support, brute force.

    Sums c^s Haf(A_pattern)^2 / pattern! over all patterns with every count
    at most ``cutoff`` (the constant 1/sqrt(det sigma_Q) is left out, so the
    result is an unnormalized mass per support).
    """
    m = a.shape[0]
    haf = MultisetHafnian(a)
    masses: dict[frozenset, float] = {}
    for pattern in itertools.product(range(cutoff + 1), repeat=m):
        h = haf.value(pattern)
        if h == 0.0:
            continue
        s = sum(pattern)
        nfact = 1.0
        for p in pattern:
            nfact *= math.factorial(p)
        weight = c ** s * h * h / nfact
        support = frozenset(i for i, p in enumerate(pattern) if p > 0)
        masses[support] = masses.get(support, 0.0) + weight
    return masses


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions given as label arrays."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = labels_a.size
    classes_a = np.unique(labels_a)
    classes_b = np.unique(labels_b)
    table = np.zeros((classes_a.size, classes_b.size), dtype=np.int64)
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            table[i, j] = np.sum((labels_a == ca) & (labels_b == cb))

    def comb2(x):
        return x * (x - 1) / 2.0

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:
        return 1.0
    return float((index - expected) / (maximum - expected))


def total_variation_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def graph_from_edges(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def hafnian_table_loops(b: np.ndarray) -> np.ndarray:
    """Subset hafnian table by scalar loops, one mask at a time.

    Follows the subset dynamic program's update order (top bit h
    ascending, then partner j < h ascending, then source mask ascending),
    so on any matrix its floats match a vectorized sweep in that order bit
    for bit.
    """
    n = b.shape[0]
    table = [0.0] * (1 << n)
    table[0] = 1.0
    for h in range(1, n):
        for j in range(h):
            bjh = float(b[j, h])
            if bjh == 0.0:
                continue
            for source in range(1 << h):
                if not (source >> j) & 1:
                    table[source | (1 << j) | (1 << h)] += bjh * table[source]
    return np.array(table)


def unpack_table(packed, n: int) -> np.ndarray:
    """A packed photon-counting table spread over all 2^n masks of n nodes.

    Packed entry k belongs to whichever of the masks 2k and 2k + 1 has an
    even number of set bits; every odd mask gets 0.  A table of n >= 1
    nodes must have 2^(n-1) entries, and one of 0 nodes the single entry of
    the empty set.
    """
    packed = np.asarray(packed)
    assert packed.size == max((1 << n) // 2, 1)
    full = np.zeros(1 << n, dtype=packed.dtype)
    for k, value in enumerate(packed.tolist()):
        full[2 * k + bin(k).count("1") % 2] = value
    return full


def product_table(a, components, tables):
    """The whole graph's table over graph masks: per-component tables over
    local masks, each gathered at its nodes' bits of every mask, multiplied;
    a mask holding a node of no component (an isolated node) gets 0."""
    masks = np.arange(1 << a.shape[0])
    covered = sum(1 << int(node) for nodes in components for node in nodes)
    product = np.where(masks & ~covered, 0.0, 1.0)
    for nodes, table in zip(components, tables):
        local = ((masks[:, None] >> nodes) & 1) @ (1 << np.arange(nodes.size))
        product *= table[local]
    return product


def sampler_weights(sampler):
    """The whole graph's weights as the sampler's component tables give them."""
    parts = [np.diff(cum, prepend=0.0) for cum in sampler.tables]
    if sampler.mode == MODE_PNR:
        parts = [unpack_table(part, nodes.size) for nodes, part in zip(sampler.components, parts)]
    return product_table(sampler.a, sampler.components, parts)


def subset_probabilities(a, n_mean, mode=MODE_PNR):
    """Normalized subset probabilities of ``GraphSampler(a, n_mean, mode)``,
    keyed by sorted node tuple: ``sampler_weights`` over the sampler's total,
    with the zero-weight subsets left out."""
    sampler = GraphSampler(a, n_mean, mode)
    weights = sampler_weights(sampler)
    total = sampler.total
    return {
        tuple(i for i in range(sampler.m) if (mask >> i) & 1): float(weights[mask] / total)
        for mask in np.flatnonzero(weights > 0.0).tolist()
    }


def calibrate_scaling_200_steps(lam: np.ndarray, n_mean: float) -> float:
    """Photon-budget rescaling c by a fixed 200-step bisection.

    Solves sum_i (c lam_i)^2 / (1 - (c lam_i)^2) = n_mean on
    [0, (1 - 1e-14) / lam_max] and never stops early, so it is the
    reference an early-stopping bisection must reproduce exactly.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = 0.0, (1.0 - 1e-14) / float(lam.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x = (mid * lam) ** 2
        if float(np.sum(x / (1.0 - x))) < n_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _popcounts(n_bits: int) -> np.ndarray:
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n_bits):
        pc = np.concatenate([pc, pc + 1])
    return pc


def threshold_weights_by_combinations(a: np.ndarray, c: float) -> np.ndarray:
    """Tor(O_S) for every subset mask, batching index lists by combinations.

    The threshold table as it was built from ``itertools.combinations``
    index lists in chunks of 65536 subsets, with a concatenated popcount
    table; the package's mask-driven route must match it bit for bit.
    """
    n = a.shape[0]
    b = c * a
    z = np.empty(1 << n)
    z[0] = 1.0
    for k in range(1, n + 1):
        combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
        masks = (1 << combos).sum(axis=1)
        eye = np.eye(k)
        for s in range(0, combos.shape[0], 65536):
            idx = combos[s:s + 65536]
            sub = b[idx[:, :, None], idx[:, None, :]]
            dets = np.linalg.det(eye - sub) * np.linalg.det(eye + sub)
            if np.any(dets <= 0.0):
                raise InvalidInputError("threshold coupling is not physical")
            z[masks[s:s + 65536]] = 1.0 / np.sqrt(dets)
    pc = _popcounts(n)
    sign = np.where(pc % 2 == 0, 1.0, -1.0)
    h = z * sign
    for bit in range(n):
        view = h.reshape(-1, 2, 1 << bit)
        view[:, 1, :] += view[:, 0, :]
    w = h * sign
    # inclusion-exclusion cancellation leaves float dust around zero
    floor = float(w.min())
    if floor < -1e-8 * max(1.0, float(w.max())):
        raise NumericError(f"threshold weight went negative: {floor:.3e}")
    np.clip(w, 0.0, None, out=w)
    return w


def threshold_draws_whole_graph(
    a: np.ndarray, c: float, n_samples: int, seed: int
) -> list[tuple[int, ...]]:
    """Threshold-mode draws from one weight table of the whole graph.

    The threshold route as it was before tables were built per connected
    component: the whole-graph torontonian table (the route above, equal
    to the package's table bit for bit), its nonzero masks in mask order,
    their cumulative weights, and one inverse-CDF lookup per draw.
    """
    weights = threshold_weights_by_combinations(a, c)
    masks = np.flatnonzero(weights)
    cum = np.cumsum(weights[masks])
    u = np.random.default_rng(seed).random(n_samples) * float(cum[-1])
    picked = masks[np.searchsorted(cum, u, side="right")]
    return [tuple(i for i in range(a.shape[0]) if (m >> i) & 1) for m in picked]


def kmeans_pp_init_all_centroids(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding that recomputes the distance to every chosen centroid."""
    m = x.shape[0]
    chosen = [int(rng.integers(m))]
    while len(chosen) < k:
        d2 = ((x[:, None, :] - x[chosen][None, :, :]) ** 2).sum(axis=-1).min(axis=1)
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid; pick lowest new index
            fresh = [i for i in range(m) if i not in chosen]
            chosen.append(fresh[0])
            continue
        chosen.append(int(rng.choice(m, p=d2 / total)))
    return x[chosen].copy()


def repair_empty_rescanning(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Empty-cluster repair that rescans the labels for every cluster."""
    k = centroids.shape[0]
    repaired = False
    for empty in range(k):
        if np.any(labels == empty):
            continue
        sizes = np.bincount(labels, minlength=k)
        donor = int(sizes.argmax())
        members = np.nonzero(labels == donor)[0]
        dist = ((x[members] - centroids[donor]) ** 2).sum(axis=1)
        steal = int(members[dist.argmax()])
        labels[steal] = empty
        centroids[empty] = x[steal]
        repaired = True
    return labels, repaired


def kmeans_per_restart(
    x: np.ndarray, k: int, seed: int | None, n_restarts: int = 10
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best-of-``n_restarts`` k-means, one restart after another.

    The restart loop as it was before restarts ran in lockstep, on the
    reference seeding and repair above; returns (centroids, labels,
    inertia) of the first restart with the least inertia.
    """

    def assign(centroids):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        return d2.argmin(axis=1)

    m = x.shape[0]
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must be in [1, {m}], got {k}")
    best = None
    for restart in range(n_restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence([0 if seed is None else seed, restart])
        )
        centroids = kmeans_pp_init_all_centroids(x, k, rng)
        labels, _ = repair_empty_rescanning(x, centroids, assign(centroids))
        prev_inertia = np.inf
        for _ in range(300):
            for c in range(k):  # repaired labels leave no cluster empty
                centroids[c] = x[labels == c].mean(axis=0)
            new_labels, repaired = repair_empty_rescanning(x, centroids, assign(centroids))
            inertia = float(((x - centroids[new_labels]) ** 2).sum())
            # Lloyd steps never increase inertia; repairs may, transiently
            if not repaired and inertia > prev_inertia + 1e-9:
                raise AssertionError("Lloyd iteration increased inertia")
            prev_inertia = inertia
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        # labels equals new_labels here, so the last step's inertia is the fit's
        result = (centroids.copy(), labels.copy(), inertia)
        if best is None or result[2] < best[2]:
            best = result
    return best


def post_process_loop(unclustered, clusters, a) -> list[list[int]]:
    """Leftover-node attachment, one (node, cluster) pair at a time.

    The rule as it was before the link ratios were taken as one matrix:
    each leftover node, ascending, joins the first cluster with the
    largest positive edges(node, cluster) / |cluster| among the clusters
    as they were on entry, or becomes a singleton.
    """
    result = [list(c) for c in clusters]
    base = [sorted(c) for c in clusters]
    for node in sorted(int(n) for n in unclustered):
        best_cid = None
        best_ratio = 0.0
        for cid, members in enumerate(base):
            links = float(a[node, members].sum()) if members else 0.0
            if links <= 0.0:
                continue
            ratio = links / len(members)
            if best_cid is None or ratio > best_ratio:
                best_cid, best_ratio = cid, ratio
        if best_cid is None:
            result.append([node])
        else:
            result[best_cid].append(node)
    return [sorted(c) for c in result if c]
