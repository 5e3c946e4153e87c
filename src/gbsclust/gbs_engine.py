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
calibrated on the whole graph), and the product over the whole graph is
never formed, so the enumeration bound applies to each component and never
to the graph as a whole.  A photon-counting table keeps only the even
subsets, half of the lattice, since an odd subset has no perfect matching.
A draw fixes the graph's bits from the highest down, reading each bit's two
halves off the owning component's cumulative weights, which is the inverse
CDF of the whole graph in mask order.
Nothing is kept between calls: the weight tables belong to the sampler that
built them.

``probability_pnr`` evaluates the full photon-number-resolved probability of
an arbitrary pattern (repetitions allowed) and exists as the oracle that
normalization and threshold-mode tests are checked against.
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
)
from .matchers import (
    _check_symmetric,
    hafnian_all_subsets,
    hafnian_fast,
    hafnian_with_repeats,
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
    "probability_pnr",
]

MODE_PNR = "pnr_postselected"
MODE_THRESHOLD = "threshold"

# exact subset enumeration bounds per connected component of k nodes,
# whose table holds 2^(k-1) weights in photon-counting mode (its even
# subsets) and 2^k in threshold mode; threshold mode is tighter because
# every subset of a component needs a pair of determinants rather than one
# shared sweep
PNR_MAX_NODES = 26
THRESHOLD_MAX_NODES = 20

# entries per block of the photon-counting table build
TABLE_BLOCK = 1 << 12

RECONSTRUCTION_RTOL = 1e-10
CALIBRATION_ATOL = 1e-9


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
        implied = _mean_photons(self.c, self.lam)
        # near the pole, c's neighbouring floats can be over ATOL photons apart
        step = max(
            abs(_mean_photons(np.nextafter(self.c, end), self.lam) - implied)
            for end in (0.0, np.inf)
        )
        if abs(implied - self.n_mean) > max(CALIBRATION_ATOL, step):
            raise InvalidInputError(
                f"c implies mean photons {implied!r}, expected {self.n_mean!r}"
            )

    @property
    def det_sigma_q(self) -> float:
        """det(sigma_Q) of the pure encoded state: prod 1/(1 - (c lam_i)^2)."""
        x = (self.c * self.lam) ** 2
        return float(np.prod(1.0 / (1.0 - x)))


@dataclass
class SampleBatch:
    """Node subsets drawn from the GBS distribution of one graph."""

    samples: list[tuple[int, ...]]
    mode: str

    def __post_init__(self):
        if self.mode == MODE_PNR and any(len(s) % 2 for s in self.samples):
            raise InvalidInputError("odd-size subset in pnr_postselected batch")


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
    a = _check_symmetric(a)
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


def calibrate_scaling(lam: np.ndarray, n_mean: float) -> float:
    """Rescaling c in (0, 1/lam_max) hitting a target mean photon number.

    Solves sum_i (c lam_i)^2 / (1 - (c lam_i)^2) = n_mean by bisection; the
    left side is strictly increasing in c and diverges at 1/lam_max, so the
    root exists and is unique for any finite positive target.  The bisection
    stops once the midpoint rounds to an end of the bracket, i.e. lo and hi
    are adjacent floats (about 53 steps), and returns that midpoint; 200
    steps bound it for roots so close to 0 that the floats there are finer.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size == 0 or float(lam.max()) <= 0.0:
        raise NoSolutionError("cannot calibrate scaling: all singular values are 0")
    if not (math.isfinite(n_mean) and n_mean > 0.0):
        raise InvalidInputError(
            f"mean photon target must be finite and positive, got {n_mean}"
        )
    lo, hi = 0.0, (1.0 - 1e-14) / float(lam.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _mean_photons(mid, lam) < n_mean:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def encode(a: np.ndarray, n_mean: float, mode: str = MODE_PNR) -> GbsEncoding:
    """Takagi singular values of ``a`` and the rescaling for ``n_mean`` photons."""
    lam = np.abs(_sorted_eigh(_check_symmetric(a))[0])
    return GbsEncoding(lam=lam, c=calibrate_scaling(lam, n_mean), n_mean=n_mean, mode=mode)


def subset_weight(a: np.ndarray, enc: GbsEncoding, subset) -> float:
    """Unnormalized sampling weight of one node subset.

    pnr_postselected: c^|S| Haf(A_S)^2, zero for odd |S|.  threshold:
    torontonian of the paired coupling block of cA restricted to S.
    """
    a = _check_symmetric(a)
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


def _subsets(hits: np.ndarray) -> list[tuple[int, ...]]:
    """The columns set in each row of a 0/1 matrix, as an ascending tuple."""
    nodes = np.nonzero(hits)[1].tolist()
    ends = np.cumsum(np.count_nonzero(hits, axis=1)).tolist()
    return [tuple(nodes[s:e]) for s, e in zip([0, *ends], ends)]


def _threshold_weights(a: np.ndarray, c: float) -> np.ndarray:
    """Tor(O_S) for every subset mask, via batched determinants.

    Uses det(I - O_Z) = det(I - B_Z) det(I + B_Z) for the paired coupling
    block of B = cA to get every subset's vacuum factor z(Z), then runs
    inclusion-exclusion as a subset-difference (Moebius) transform in place:
    for each bit, the masks with the bit set subtract their partner without
    it, leaving sum over Z in S of (-1)^|S - Z| z(Z) at mask S.  B_Z takes
    its rows and columns, ascending, from the bits of Z's mask.  Subsets of
    size k go through the determinants in chunks of 2^20 / k^2 masks, so
    each (chunk, k, k) stack holds about 8 MB whatever k is.
    """
    n = a.shape[0]
    b = c * a
    z = np.empty(1 << n)
    z[0] = 1.0
    pc = np.bitwise_count(np.arange(1 << n))
    for k in range(1, n + 1):
        masks = np.flatnonzero(pc == k)
        eye = np.eye(k)
        step = max(1, (1 << 20) // (k * k))
        for s in range(0, masks.size, step):
            chunk = masks[s:s + step]
            idx = np.nonzero(_bits(chunk, n))[1].reshape(-1, k)
            sub = b[idx[:, :, None], idx[:, None, :]]
            dets = np.linalg.det(eye - sub) * np.linalg.det(eye + sub)
            if np.any(dets <= 0.0):
                raise InvalidInputError("threshold coupling is not physical")
            z[chunk] = 1.0 / np.sqrt(dets)
    for bit in range(n):
        view = z.reshape(-1, 2, 1 << bit)
        view[:, 1, :] -= view[:, 0, :]
    # inclusion-exclusion cancellation leaves float dust around zero
    floor = float(z.min())
    if floor < -1e-8 * max(1.0, float(z.max())):
        raise NumericError(f"threshold weight went negative: {floor:.3e}")
    np.clip(z, 0.0, None, out=z)
    return z


class GraphSampler:
    """Exact GBS sampler of one graph.

    The constructor checks the mode and the enumeration bound of every
    connected component, raising CapacityError before anything is
    allocated.  The first ``draw``, or the first read of ``tables``, encodes
    ``a`` for ``n_mean`` photons (c is calibrated on the whole graph) and
    tabulates every component of two or more nodes, raising
    DegenerateGraphError for an all-zero matrix: a hafnian sweep in
    photon-counting mode, a torontonian table in threshold mode.  Each
    table is kept as the cumulative weights of the component's subsets in
    local mask order (local bit b is node ``components[k][b]``).  A k-node
    threshold table has 2^k entries, one per mask.  A photon-counting table
    has 2^(k-1): an odd subset has no perfect matching, so entry i holds
    the even-popcount mask of the pair {2i, 2i + 1}, as
    ``hafnian_all_subsets`` packs it.  A zero weight never moves a
    cumulative sum, so a draw picks the same subset as it would from the
    nonzero weights alone.  A lone node is tabulated only in threshold mode
    and only with a self-loop; any other lone node is never drawn.  A draw
    costs O(n_samples * M * K) for K components and the tables take the sum
    of their entries; the product over the whole graph is never formed.  The
    tables live exactly as long as the sampler, so its owner decides how long
    the memory stays in use.
    """

    def __init__(self, a: np.ndarray, n_mean: float, mode: str = MODE_PNR):
        self.a = _check_symmetric(a)
        self.m = self.a.shape[0]
        limit = max_nodes(mode)
        # a lone node's hafnian is 0, but a self-loop gives it a torontonian
        self.components = [
            nodes
            for nodes in graph_core.connected_components(self.a)
            if nodes.size > 1 or (mode == MODE_THRESHOLD and self.a[nodes[0], nodes[0]])
        ]
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
        c = encode(self.a, self.n_mean, self.mode).c
        powers = c ** np.arange(self.m + 1, dtype=float)
        tables = []
        for nodes in self.components:
            sub = self.a[np.ix_(nodes, nodes)]
            if self.mode == MODE_PNR:
                weights = hafnian_all_subsets(sub)
                # square, times c^|S| and cumulative sum in one pass over
                # aligned blocks, where |s + i| = |s| + |i| and a packed
                # entry's subset has that many nodes rounded up to even; the
                # running total enters a block's first entry before its
                # cumsum, so every sum adds in the order of one cumsum over
                # the table
                low = np.bitwise_count(np.arange(min(weights.size, TABLE_BLOCK)))
                carry = 0.0
                for s in range(0, weights.size, low.size):
                    block = weights[s:s + low.size]
                    block *= block
                    size = s.bit_count() + low
                    block *= powers[size + (size & 1)]
                    block[0] += carry
                    carry = np.cumsum(block, out=block)[-1]
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
        if n_samples < 1:
            raise InvalidInputError("need at least one sample")
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
        return SampleBatch(_subsets(hits), self.mode)

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


def probability_pnr(a: np.ndarray, enc: GbsEncoding, pattern) -> float:
    """Photon-number-resolved probability of an arbitrary output pattern.

    Evaluates c^s Haf(A_pattern)^2 / (pattern! sqrt(det sigma_Q)) with the
    matrix built by dropping silent modes and repeating row/column i by the
    photon count n_i.  This is the oracle that anchors normalization and
    threshold-mode consistency; it is not on the sampling path.
    """
    a = _check_symmetric(a)
    pattern = tuple(int(p) for p in pattern)
    if len(pattern) != a.shape[0]:
        raise InvalidInputError("pattern length must match mode count")
    if any(p < 0 for p in pattern):
        raise InvalidInputError("photon counts must be nonnegative")
    s = sum(pattern)
    haf = hafnian_with_repeats(a, pattern)
    pattern_factorial = 1.0
    for p in pattern:
        pattern_factorial *= math.factorial(p)
    return float(
        enc.c ** s * haf * haf / (pattern_factorial * math.sqrt(enc.det_sigma_q))
    )
