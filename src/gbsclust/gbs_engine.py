"""Exact simulation of graph-encoded Gaussian boson sampling.

A symmetric matrix A is encoded through its Takagi singular values and a
rescaling c chosen so that the squeezed modes carry a target mean photon
number.  Restricted to binary photon patterns, the outcome distribution over
node subsets S of the encoded graph is

    pnr_postselected:  P(S) proportional to c^|S| * Haf(A_S)^2
    threshold:         P(S) proportional to Tor(O_S),  O = [[0, cA], [cA, 0]]

where A_S is the induced submatrix and O_S keeps the paired rows/columns of
S.  At the scales this package targets (connected components of at most 26
nodes) a ``GraphSampler`` enumerates every subset weight once and draws from
the exact categorical distribution, which makes every downstream result
reproducible from a seed.  Both weights factorize over the connected
components of A: Haf(A_S) is the product of the hafnians of S's parts, and
Tor(O_S) the product of their torontonians.  So each component is tabulated
on its own lattice (a hafnian sweep, or a torontonian table at the c
calibrated on the whole graph, whose determinants come from one sweep that
eliminates a node at a time), and the product over the whole graph is
never formed, so the enumeration bound applies to each component and never
to the graph as a whole.  A photon-counting table keeps only the even
subsets, half of the lattice, since an odd subset has no perfect matching.
A draw fixes the graph's bits from the highest down, reading each bit's two
halves off the owning component's cumulative weights, which is the inverse
CDF of the whole graph in mask order.
Nothing is kept between calls: the weight tables belong to the sampler that
built them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import graph_core
from .errors import (
    CapacityError,
    DegenerateGraphError,
    InvalidInputError,
    NoSolutionError,
    NumericError,
    check_finite,
    check_integer,
    check_seed,
    check_symmetric,
)
from .matchers import (
    PNR_MAX_NODES,
    TABLE_TILE,
    hafnian_all_subsets,
    hafnian_fast,
    torontonian,
)

__all__ = [
    "MODE_PNR",
    "MODE_THRESHOLD",
    "TakagiFactors",
    "GbsEncoding",
    "SampleBatch",
    "GraphSampler",
    "max_nodes",
    "takagi",
    "calibrate_scaling",
    "encode",
    "subset_weight",
    "sample",
]

MODE_PNR = "pnr_postselected"
MODE_THRESHOLD = "threshold"

# exact subset enumeration bounds per connected component of k nodes,
# whose table holds 2^(k-1) weights in photon-counting mode (its even
# subsets, up to the sweep's PNR_MAX_NODES) and 2^k in threshold mode; the
# threshold bound dates from when each subset took its own pair of
# determinants, and is kept so that the same graphs are accepted
THRESHOLD_MAX_NODES = 20

# Schur complement entries per chunk of the threshold table build
THRESHOLD_BLOCK = 1 << 17

RECONSTRUCTION_RTOL = 1e-10
CALIBRATION_ATOL = 1e-9
# Newton's iterates fall monotonically onto the root; this only bounds them
NEWTON_MAX_STEPS = 100


def max_nodes(mode: str) -> int:
    """Largest connected component the exact sampler enumerates in ``mode``."""
    if mode not in (MODE_PNR, MODE_THRESHOLD):
        raise InvalidInputError(f"unknown sampling mode {mode!r}")
    return PNR_MAX_NODES if mode == MODE_PNR else THRESHOLD_MAX_NODES


@dataclass
class TakagiFactors:
    """Takagi factorization A = U diag(lam) U^T with lam >= 0 descending.

    For a real symmetric A the factors come from the eigendecomposition,
    with the sign of each negative eigenvalue absorbed into a phase of the
    corresponding column, so U is unitary with real or purely imaginary
    columns.
    """

    u: np.ndarray = field(repr=False)
    lam: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return np.real(self.u @ np.diag(self.lam) @ self.u.T)


@dataclass
class GbsEncoding:
    """A matrix's Takagi singular values ``lam`` (descending) plus the
    squeezing scale for a photon budget."""

    lam: np.ndarray
    c: float
    n_mean: float
    mode: str = MODE_PNR

    def __post_init__(self):
        max_nodes(self.mode)  # rejects an unknown mode
        # NaN fails every comparison below, so it would pass them all
        for name, value in (("c", self.c), ("n_mean", self.n_mean)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
        if np.any((self.c * self.lam) ** 2 >= 1.0):
            raise InvalidInputError("rescaling violates c * lambda_max < 1")
        # c's mean photon number may miss n_mean by ATOL, or by the step to a
        # neighbouring float of c, which near the pole can be over ATOL
        implied = _mean_photons(self.c, self.lam)
        step = max(
            abs(_mean_photons(np.nextafter(self.c, end), self.lam) - implied)
            for end in (0.0, np.inf)
        )
        if abs(implied - self.n_mean) > max(CALIBRATION_ATOL, step):
            raise InvalidInputError(
                f"c implies mean photons {implied!r}, expected {self.n_mean!r}"
            )


@dataclass(eq=False)
class SampleBatch:
    """Node subsets drawn from the GBS distribution of one graph, as the
    rows of a 0/1 matrix: ``hits[i, v]`` is set when sample i holds node v.
    ``samples`` reads the same subsets as ascending node tuples, built on
    first read, so ``hits`` is not to be changed after that.  Batches
    compare by identity."""

    hits: np.ndarray
    mode: str

    def __post_init__(self):
        hits = np.asarray(self.hits)
        if hits.ndim != 2:
            raise InvalidInputError(f"sample matrix must be 2-D, got shape {hits.shape}")
        if hits.dtype != bool and not ((hits == 0) | (hits == 1)).all():
            raise InvalidInputError("sample matrix entries must be 0 or 1")
        self.hits = hits.astype(bool, copy=False)
        if self.mode == MODE_PNR and np.any(np.count_nonzero(self.hits, axis=1) % 2):
            raise InvalidInputError("odd-size subset in pnr_postselected batch")

    @functools.cached_property
    def samples(self) -> list[tuple[int, ...]]:
        """The nodes set in each row, as an ascending tuple."""
        nodes = np.nonzero(self.hits)[1].tolist()
        ends = np.cumsum(np.count_nonzero(self.hits, axis=1)).tolist()
        return [tuple(nodes[s:e]) for s, e in zip([0, *ends], ends)]


def _sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a checked symmetric matrix in Takagi order: stably
    sorted by |eigenvalue|, largest first."""
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(-np.abs(evals), kind="stable")
    return evals[order], evecs[:, order]


def takagi(a: np.ndarray) -> TakagiFactors:
    """Takagi factors of a real symmetric matrix.

    Eigenvalues give the singular values up to sign; negative ones are
    rotated into the columns with a factor of 1j, which keeps U unitary and
    the reconstruction U diag(lam) U^T exact.  The sampler needs only lam,
    which ``encode`` takes from the same sorted eigenvalues without U.
    """
    a = check_symmetric(a, "matrix")
    evals, evecs = _sorted_eigh(a)
    factors = TakagiFactors(u=evecs * np.where(evals < 0.0, 1j, 1.0), lam=np.abs(evals))
    err = np.linalg.norm(factors.reconstruct() - a)
    if err > RECONSTRUCTION_RTOL * max(1.0, np.linalg.norm(a)):
        raise InvalidInputError(f"takagi reconstruction failed, residual {err:.3e}")
    return factors


def _mean_photons(c: float, lam: np.ndarray) -> float:
    """Mean photon number sum_i (c lam_i)^2 / (1 - (c lam_i)^2)."""
    x = (c * lam) ** 2
    return float(np.sum(x / (1.0 - x)))


def _least_reaching(lam: np.ndarray, n_mean: float, guess: float, top: float) -> float:
    """The least float b in (0, top] with ``_mean_photons(b) >= n_mean``.

    Needs ``_mean_photons(top) >= n_mean``.  Positive floats order as their
    bit patterns do, so this gallops from ``guess`` over 1, 2, 4, ... floats
    until it brackets b, then bisects the bit patterns: a guess within a
    float of b costs two evaluations.
    """

    def value(bits: int) -> float:
        return float(np.int64(bits).view(np.float64))

    def reaches(bits: int) -> bool:
        return _mean_photons(value(bits), lam) >= n_mean

    bits, top_bits = (int(np.float64(v).view(np.int64)) for v in (guess, top))
    step = 1
    if reaches(bits):  # so guess > 0, where the mean is 0
        lo, hi = bits - 1, bits
        while reaches(lo):
            step *= 2
            lo, hi = max(lo - step, 0), lo
    else:  # so guess < top
        lo, hi = bits, bits + 1
        while not reaches(hi):
            step *= 2
            lo, hi = hi, min(hi + step, top_bits)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return value(hi)


def calibrate_scaling(lam: np.ndarray, n_mean: float) -> float:
    """Rescaling c in (0, 1/lam_max) hitting a target mean photon number.

    Solves sum_i (c lam_i)^2 / (1 - (c lam_i)^2) = n_mean; the left side is
    strictly increasing in c and diverges at 1/lam_max, so the root exists
    and is unique for any finite positive target.  c is the point where a
    bisection of [0, top], top = (1 - 1e-14) / lam_max, stops once lo and
    hi are adjacent floats, found without bisecting.  Every operation in
    ``_mean_photons`` is correctly rounded and monotone, and its summation
    order is fixed, so in floating point it is non-decreasing in c.  The
    bisection therefore ends at hi = b, the least float in (0, top] whose
    mean reaches n_mean, with lo the float just below b, or at hi = top
    when no float reaches it, and returns 0.5 * (lo + hi).

    Here Newton's method finds the root in s = (c lam_max)^2, on the
    reciprocal of sum_i 1 / (1 - s r_i), r_i = (lam_i / lam_max)^2, which is
    concave in s (Cauchy-Schwarz).  It starts where the largest term alone
    reaches n_mean, capped at (top lam_max)^2, so at or above the root, and
    from there the iterates fall monotonically and never cross the pole;
    equal singular values take one step.  A search over the floats around
    that root, through the unchanged ``_mean_photons``, then pins b: about
    three evaluations in all.  Below about n_mean 1e-89 a bisection capped
    at 200 steps stops before its bracket is adjacent (at 1e-100 its c is
    6e-12 relative off); the c here is still the midpoint at the exact
    boundary.
    """
    lam = check_finite(lam, "singular values")
    if np.any(lam < 0.0):
        bad = lam[lam < 0.0][:4].tolist()
        raise InvalidInputError(f"singular values must be nonnegative, got {bad}")
    if lam.size == 0 or float(lam.max()) <= 0.0:
        raise NoSolutionError("cannot calibrate scaling: all singular values are 0")
    if not (math.isfinite(n_mean) and n_mean > 0.0):
        raise InvalidInputError(
            f"mean photon target must be finite and positive, got {n_mean}"
        )
    lam_max = float(lam.max())
    # the largest rescaling considered, just short of the pole at 1 / lam_max
    top = (1.0 - 1e-14) / lam_max
    if not math.isfinite(top):
        raise InvalidInputError(
            f"largest singular value {lam_max!r} is too small to calibrate"
        )
    if _mean_photons(top, lam) < n_mean:
        return 0.5 * (float(np.nextafter(top, 0.0)) + top)
    # s = (c lam_max)^2; the mean is sum_i (q_i - 1), q_i = 1 / (1 - s r_i)
    r = (lam[lam > 0.0] / lam_max) ** 2
    s = min(n_mean / (1.0 + n_mean), (top * lam_max) ** 2)
    for _ in range(NEWTON_MAX_STEPS):
        x = s * r
        q = 1.0 / (1.0 - x)
        excess = float((x * q).sum()) - n_mean
        if excess <= 0.0:
            break
        # Newton on 1 / sum_i q_i, which is concave in s
        total = float(q.sum())
        s_next = s - excess * total / ((n_mean + r.size) * float((r * q * q).sum()))
        if not 0.0 < s_next < s:
            break
        s = s_next
    b = _least_reaching(lam, n_mean, min(math.sqrt(s) / lam_max, top), top)
    return 0.5 * (float(np.nextafter(b, 0.0)) + b)


def encode(a: np.ndarray, n_mean: float, mode: str = MODE_PNR) -> GbsEncoding:
    """Takagi singular values of ``a`` and the rescaling for ``n_mean`` photons."""
    lam = np.abs(_sorted_eigh(check_symmetric(a, "matrix"))[0])
    return GbsEncoding(lam=lam, c=calibrate_scaling(lam, n_mean), n_mean=n_mean, mode=mode)


def subset_weight(a: np.ndarray, enc: GbsEncoding, subset) -> float:
    """Unnormalized sampling weight of one node subset.

    pnr_postselected: c^|S| Haf(A_S)^2, zero for odd |S|.  threshold:
    torontonian of the paired coupling block of cA restricted to S.
    """
    a = check_symmetric(a, "graph")
    idx = graph_core._subset_array(a, subset)
    k = idx.size
    if enc.mode == MODE_PNR:
        if k % 2:
            return 0.0
        haf = hafnian_fast(a[np.ix_(idx, idx)]) if k else 1.0
        return float(enc.c ** k * haf * haf)
    b = enc.c * a[np.ix_(idx, idx)]
    o = np.zeros((2 * k, 2 * k))
    o[:k, k:] = b
    o[k:, :k] = b
    return float(torontonian(o))


# ---------------------------------------------------------------------------
# exact subset distribution
# ---------------------------------------------------------------------------

def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """0/1 matrix whose row i holds the n low bits of masks[i], lowest first."""
    return (masks[:, None] >> np.arange(n)) & 1


def _unpack(k: np.ndarray) -> np.ndarray:
    """Local masks of packed photon-counting table indices: the even-popcount
    mask of each pair {2k, 2k + 1}."""
    return (k << 1) | (np.bitwise_count(k) & 1)


def _eliminate(m: np.ndarray, view: np.ndarray, steps: int) -> np.ndarray:
    """Decide the next ``steps`` nodes for a batch of prefixes.

    ``m`` has shape (2, P, r, r): for each of P prefixes (subsets of the
    nodes decided so far), the Schur complements of I - B and of I + B on
    the r undecided nodes.  ``view`` is the (2^r, P) view of the table
    whose row 0 holds the P prefixes' determinant products.  Each step
    decides the first undecided node: skipping it drops its row and
    column, taking it multiplies the determinants by its pivots and
    eliminates it by a rank-one update.  The taken prefixes go after the
    skipped ones, so rows [2^j, 2^(j+1)) of ``view`` receive the products of
    the prefixes that take node j of the batch.  Returns the complements
    of the 2^steps P prefixes then decided.
    """
    for j in range(steps):
        pivots = m[:, :, 0, 0]
        # I - B and I + B are positive definite, so all their pivots are
        # positive, exactly when the coupling is physical; NaN fails too
        if not np.all(pivots > 0.0):
            raise InvalidInputError("threshold coupling is not physical")
        rows = 1 << j
        np.multiply(view[:rows], (pivots[0] * pivots[1]).reshape(rows, -1),
                    out=view[rows:2 * rows])
        rest = m[:, :, 1:, 1:]
        count = m.shape[1]
        step = np.empty((2, 2 * count) + rest.shape[2:])
        step[:, :count] = rest
        taken = step[:, count:]
        np.multiply(m[:, :, 1:, :1] / pivots[:, :, None, None], m[:, :, :1, 1:], out=taken)
        np.subtract(rest, taken, out=taken)
        m = step
    return m


def _threshold_weights(a: np.ndarray, c: float) -> np.ndarray:
    """Tor(O_S) for every subset mask, by eliminating one node at a time.

    Uses det(I - O_S) = det(I - B_S) det(I + B_S) for the paired coupling
    block of B = cA.  Nodes are decided in ascending order, and every
    subset of the nodes decided so far (a prefix) keeps the Schur
    complements of I - B and I + B on the undecided nodes, so entry S of
    the table receives the product of S's pivots, det(I - B_S) det(I + B_S),
    and every subset shares the work of its prefixes (see ``_eliminate``).
    Each entry is then turned into the vacuum factor z(S) = 1 / sqrt of
    itself in place, and inclusion-exclusion runs as a subset-difference
    (Moebius) transform in place: for each bit, the masks with the bit set
    subtract their partner without it, leaving sum over Z in S of
    (-1)^|S - Z| z(Z) at mask S.

    All prefixes advance together up to the last level i whose complements
    fit in ``THRESHOLD_BLOCK`` entries.  From there the prefixes are
    finished in chunks, each filling its columns of the table seen as
    2^(n - i) rows of 2^i prefixes, and sized so that up to
    ``THRESHOLD_MAX_NODES`` nodes no chunk holds more complement entries
    than that either.  A taken node with no coupling inside S has pivots
    1.0 and leaves the complement on S's other nodes as it was, so z(S)
    equals z(S - {v}) bit for bit and the transform leaves exactly 0.0 at S.
    """
    n = a.shape[0]
    b = c * a
    eye = np.eye(n)
    z = np.empty(1 << n)
    z[0] = 1.0
    # complement entries per level i: 2 signs, 2^i prefixes, (n - i)^2
    entries = [(n - i) ** 2 << (i + 1) for i in range(n + 1)]
    split = next((i for i, e in enumerate(entries) if e > THRESHOLD_BLOCK), n + 1) - 1
    m = _eliminate(np.stack([eye - b, eye + b])[:, None], z.reshape(-1, 1), split)
    chunk = max(1, (THRESHOLD_BLOCK << split) // max(1, *entries[split:]))
    columns = z.reshape(-1, 1 << split)
    for s in range(0, 1 << split, chunk):
        _eliminate(m[:, s:s + chunk], columns[:, s:s + chunk], n - split)
    np.sqrt(z, out=z)
    np.divide(1.0, z, out=z)
    for bit in range(n):
        view = z.reshape(-1, 2, 1 << bit)
        view[:, 1, :] -= view[:, 0, :]
    # inclusion-exclusion cancellation leaves float dust around zero
    floor = float(z.min())
    if floor < -1e-11 * max(1.0, float(z.max())):
        raise NumericError(f"threshold weight went negative: {floor:.3e}")
    np.clip(z, 0.0, None, out=z)
    return z


class GraphSampler:
    """Exact GBS sampler of one graph.

    The constructor checks the graph once, as
    ``graph_core.connected_components`` finds its components, then the mode
    and the enumeration bound of every connected component, raising
    CapacityError before anything is allocated.  The first ``draw``, or the
    first read of ``tables``, takes c from ``encode``, calibrated for
    ``n_mean`` photons on the whole graph's singular values, and tabulates
    every component of two or more nodes, raising DegenerateGraphError for
    an all-zero matrix: a hafnian sweep in photon-counting mode, a
    node-elimination sweep and its torontonian (Moebius) transform in
    threshold mode.  Each table is kept as the cumulative weights of the
    component's subsets in local mask order (local bit b is node
    ``components[k][b]``).  A k-node threshold table has 2^k entries, one
    per mask.  A photon-counting table has 2^(k-1): an odd subset has no
    perfect matching, so entry i holds the even-popcount mask of the pair
    {2i, 2i + 1}, as ``hafnian_all_subsets`` packs it.  A zero weight never
    moves a cumulative sum, so a draw picks the same subset as it would from
    the nonzero weights alone.  A lone node is tabulated only in threshold
    mode and only with a self-loop; any other lone node is never drawn.  A
    draw costs O(n_samples * M * K) for K components and the tables take the
    sum of their entries; the product over the whole graph is never formed.
    The tables live exactly as long as the sampler, so its owner decides how
    long the memory stays in use.
    """

    def __init__(self, a: np.ndarray, n_mean: float, mode: str = MODE_PNR):
        # connected_components checks the graph, before the mode is checked;
        # a lone node's hafnian is 0, but a self-loop gives it a torontonian
        self.a = np.asarray(a, dtype=float)
        self.components = [
            nodes
            for nodes in graph_core.connected_components(self.a)
            if nodes.size > 1 or (mode == MODE_THRESHOLD and self.a[nodes[0], nodes[0]])
        ]
        self.m = self.a.shape[0]
        limit = max_nodes(mode)
        # a photon-counting table is packed: local bit 0 follows from parity
        packed = int(mode == MODE_PNR)
        for nodes in self.components:
            if nodes.size > limit:
                raise CapacityError(
                    f"a connected component of {nodes.size} nodes exceeds the {mode} "
                    f"enumeration bound {limit}; its table would need "
                    f"{8 << (nodes.size - packed)} bytes"
                )
        # (component, table bit value, the other components), highest node
        # first; a packed table's local bit b is its bit b - 1
        count = len(self.components)
        others = [[j for j in range(count) if j != k] for k in range(count)]
        owners = sorted(
            (node, k, b - packed)
            for k, nodes in enumerate(self.components)
            for b, node in enumerate(nodes.tolist())
            if b >= packed
        )
        self._schedule = [(k, 1 << b, others[k]) for _, k, b in reversed(owners)]
        self.n_mean = n_mean
        self.mode = mode

    @functools.cached_property
    def tables(self) -> list[np.ndarray]:
        """Per component, the cumulative weights of its subsets in local
        mask order, packed to the even subsets in photon-counting mode."""
        if float(np.abs(self.a).sum()) == 0.0:
            # only the empty subset would carry mass, and calibration has no root
            raise DegenerateGraphError("graph has no edges, nothing to sample")
        # the encoding's check rejects a target past what calibration reaches
        c = encode(self.a, self.n_mean, self.mode).c
        powers = c ** np.arange(self.m + 1, dtype=float)
        tables = []
        for nodes in self.components:
            sub = self.a[np.ix_(nodes, nodes)]
            if self.mode == MODE_PNR:
                weights = hafnian_all_subsets(sub)
                # square, times c^|S| and cumulative sum in one pass over
                # tiles, where |s + i| = |s| + |i| and a packed entry's
                # subset has that many nodes rounded up to even, so a
                # tile's factors depend only on the popcount of its start
                # s and are built once per popcount; the running total
                # enters a tile's first entry before its cumsum, so every
                # sum adds in the order of one cumsum over the table
                width = min(weights.size, TABLE_TILE)
                low = np.bitwise_count(np.arange(width))
                factors = []
                for count in range((weights.size // width).bit_length()):
                    size = low + count
                    factors.append(powers[size + (size & 1)])
                carry = 0.0
                for s in range(0, weights.size, width):
                    tile = weights[s:s + width]
                    np.multiply(tile, tile, out=tile)
                    np.multiply(tile, factors[s.bit_count()], out=tile)
                    tile[0] += carry
                    carry = np.cumsum(tile, out=tile)[-1]
            else:
                weights = _threshold_weights(sub, c)
                np.cumsum(weights, out=weights)
            # entries near 1e+-300 take c^|S| and Haf^2 out of the float range
            if not math.isfinite(weights[-1]):
                raise NumericError(f"{nodes.size}-node component weights sum to {weights[-1]}")
            tables.append(weights)
        return tables

    @property
    def total(self) -> float:
        """Unnormalized mass of the whole subset lattice."""
        return math.prod((float(cum[-1]) for cum in self.tables), start=1.0)

    def draw(self, n_samples: int, seed: int | None = None) -> SampleBatch:
        """Draw ``n_samples`` node subsets, reproducibly for an integer seed."""
        check_integer("n_samples", n_samples, 1)
        check_seed(seed)
        rng = np.random.default_rng(seed)
        u = rng.random(n_samples) * self.total
        if len(self.tables) == 1:
            picked = [np.searchsorted(self.tables[0], u, side="right")]
        else:
            picked = self._descend(u)
        if self.mode == MODE_PNR:
            picked = [_unpack(k) for k in picked]
        hits = np.zeros((n_samples, self.m), dtype=bool)
        for nodes, local in zip(self.components, picked):
            hits[:, nodes] = _bits(local, nodes.size)
        return SampleBatch(hits, self.mode)

    def _descend(self, u: np.ndarray) -> list[np.ndarray]:
        """Per component, the local masks of the subsets whose interval of
        the whole graph's cumulative weight, in graph mask order, holds u.

        Bits are fixed from the highest graph node down.  Each component
        keeps the range of its local masks that agree with its bits fixed so
        far, [lo, lo + 2 step) before its bit ``step``, with cumulative
        weight ``base`` just before the range, ``top`` at its end, and
        ``mass`` = top - base.  The range's bit-0 half ends at
        cum[lo + step - 1]; its mass times the other components' masses is
        the weight of the graph's remaining subsets with this bit 0.  Bit 1
        is taken when u lies at or past that weight and bit 1's half has
        mass, and u then drops by that weight.  Ranges and bits are those of
        the tables, so a packed table's masks are its indices; its local
        bit 0 is never fixed, since one of that bit's halves always has no
        mass, and fixing it would change neither u nor any other state.
        """
        u = u.copy()
        lo = [np.zeros(u.size, dtype=np.int64) for _ in self.tables]
        base = [np.zeros(u.size) for _ in self.tables]
        top = [np.full(u.size, cum[-1]) for cum in self.tables]
        mass = [t.copy() for t in top]
        for k, step, others in self._schedule:
            mid = self.tables[k][lo[k] + (step - 1)]
            mass0 = mid - base[k]
            for j in others:
                mass0 *= mass[j]
            one = u >= mass0
            one &= top[k] > mid
            u -= mass0 * one
            lo[k] += step * one
            np.copyto(base[k], mid, where=one)
            top[k] = np.where(one, top[k], mid)
            np.subtract(top[k], base[k], out=mass[k])
        return lo


def sample(
    a: np.ndarray,
    n_mean: float,
    n_samples: int,
    mode: str = MODE_PNR,
    seed: int | None = None,
    sampler: GraphSampler | None = None,
) -> SampleBatch:
    """Draw ``n_samples`` node subsets from the exact GBS distribution.

    Without ``sampler`` this builds a throwaway :class:`GraphSampler`, so
    the subset weights are enumerated on every call.  Callers that draw
    repeatedly from one graph pass the sampler they built for the same
    ``(a, n_mean, mode)``; its table is then enumerated once.
    """
    if sampler is None:
        sampler = GraphSampler(a, n_mean, mode)
    elif not (
        sampler.mode == mode
        and sampler.n_mean == n_mean
        and np.array_equal(sampler.a, a)
    ):
        raise InvalidInputError("sampler was built for another graph, target or mode")
    return sampler.draw(n_samples, seed)
