"""Hafnian and Torontonian kernels.

The hafnian of a symmetric 2m-square matrix sums, over all perfect-matching
pairings of the indices, the product of the matched entries.  On a 0/1
adjacency matrix it counts perfect matchings of the graph.  Two evaluation
routes are provided: a direct enumeration used as the oracle, and a
subset-dynamic-programming path that is exponentially cheaper and doubles as
a table of hafnians over every even induced subgraph, which is what the
sampler consumes.

The torontonian is the inclusion-exclusion companion used for threshold
(click / no-click) detection.  Its value on the 2m-square coupling matrix O
is

    sum over Z subset of {1..m} of (-1)^(m-|Z|) / sqrt(det(I - O_Z))

where O_Z keeps rows and columns z and z+m for z in Z, and the empty subset
contributes (-1)^m.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import CapacityError, InvalidInputError, NumericError, check_symmetric

__all__ = [
    "hafnian",
    "hafnian_fast",
    "hafnian_all_subsets",
    "count_perfect_matchings",
    "torontonian",
]

SYMMETRY_ATOL = 1e-12
# the most nodes ``hafnian_all_subsets`` tabulates: 2^25 entries, 256 MiB
PNR_MAX_NODES = 26
# entries per tile of the hafnian sweep and of the sampler's pass over its
# table: 32 KiB of floats, which stay in cache while a tile is worked on
TABLE_TILE = 1 << 12


# the kernels take a matrix within SYMMETRY_ATOL of symmetric
_check_symmetric = functools.partial(check_symmetric, atol=SYMMETRY_ATOL)


def hafnian(b: np.ndarray) -> float:
    """Reference hafnian by direct perfect-matching enumeration.

    Cost grows as (n-1)!!, so keep n small (n <= 14 or so).  Returns 1 for
    the empty matrix and 0 for odd dimension.
    """
    b = _check_symmetric(b, "matrix")
    n = b.shape[0]
    if n % 2:
        return 0.0

    def rec(idx: tuple[int, ...]) -> float:
        if not idx:
            return 1.0
        i0 = idx[0]
        rest = idx[1:]
        total = 0.0
        for k, j in enumerate(rest):
            bij = b[i0, j]
            if bij != 0.0:
                total += bij * rec(rest[:k] + rest[k + 1:])
        return total

    return rec(tuple(range(n)))


def hafnian_all_subsets(b: np.ndarray) -> np.ndarray:
    """Hafnians of every even principal submatrix of ``b`` in one sweep.

    An odd index set has no perfect matching, and of the masks 2k and
    2k + 1 exactly one has even popcount, so the table is packed: for
    n >= 1 it has 2^(n-1) entries, and ``t[k]`` is the hafnian of ``b``
    restricted to the index set of mask (k << 1) | parity(k).  Node 0 is
    implied by the parity; node h >= 1 is packed bit h - 1.  Ascending k is
    ascending mask.  For n = 0 the table is ``[1.0]``.  A matrix of more
    than ``PNR_MAX_NODES`` nodes raises CapacityError before anything is
    allocated.

    Recurses on the highest node h of a set S:
    Haf(S) = sum over j in S, j < h of b[j, h] * Haf(S - {h, j}), with j
    ascending.  The sets whose top node is h form the block
    [2^(h-1), 2^h), filled from the finished entries below 2^(h-1).  The
    update for j >= 1 adds to the entries whose offset in the block has
    bit j - 1 set, in runs of 2^(j-1), the entries 2^(j-1) below them; the
    update for node 0 adds to the entries whose offset has even popcount,
    which are the sets holding node 0, the entries at the same offset.

    The block is walked in tiles of up to ``TABLE_TILE`` entries, which
    stay in cache while every update, j ascending, is applied to them, so
    each entry receives the same adds in the same order as in a sweep of
    whole blocks.  Node 0's update, and in a full tile an update whose
    runs are at most 1/64 of it, is one contiguous shifted add of the
    source ANDed, as int64 bits, with a 0 / -1 mask over the tile's
    offsets.  x & 0 is +0.0 for every float x, inf and NaN included (a
    0.0 / 1.0 product would turn inf into NaN), and adding a zero leaves an
    entry as it was: every entry starts at +0.0, and a sum is -0.0 only
    when both its terms are.  Runs of half a tile or more are one add to
    the tile's upper half, to all of it, or to none of it; the runs between
    are strided views.  The parity mask covers two tiles, and a run's mask
    is built when a full tile first takes it.  O(n * 2^(n-1)) time, and
    O(2^(n-1)) memory plus O(tile) for the masks; the sampler calls it
    once per connected component.

    On a 0/1 matrix every entry is a perfect-matching count, at most
    25!! < 2^53 for 26 nodes, so every partial sum is an exact integer and
    any summation order gives the same bits.  On weighted input the order
    matters: other orders of the same sum may differ in the last bits.
    """
    b = _check_symmetric(b, "matrix")
    n = b.shape[0]
    if n > PNR_MAX_NODES:
        raise CapacityError(
            f"a hafnian table of {n} nodes exceeds the {PNR_MAX_NODES}-node bound; "
            f"it would need {8 << (n - 1)} bytes"
        )
    table = np.zeros(1 << max(n - 1, 0))
    table[0] = 1.0
    bits = table.view(np.int64)
    # the longest tile; masks are 0 or -1 (every bit set) over its offsets
    width = min(max(table.size >> 1, 1), TABLE_TILE)
    # parity[i] is -1 where i has even popcount, and a tile whose start has
    # odd popcount reads it from offset width on
    parity = np.empty(2 * width, dtype=np.int64)
    parity[:8] = (-1, 0, 0, -1, 0, -1, -1, 0)[:parity.size]
    s = 8
    while s < parity.size:
        # offset s + i has one more bit set than offset i
        np.invert(parity[:s], out=parity[s:2 * s])
        s *= 2
    # runs[j] is -1 at the offsets with bit j - 1 set, built when a full
    # tile first takes it
    runs = {}
    columns = b.T.tolist()
    for h in range(1, n):
        size = 1 << (h - 1)
        low = table[:size]
        block = table[size:2 * size]
        step = min(size, width)
        partners = [(j, w) for j, w in enumerate(columns[h][:h]) if w != 0.0]
        for t0 in range(0, size, step):
            tile = block[t0:t0 + step]
            for j, w in partners:
                run = (1 << j) >> 1
                if j == 0:
                    # node 0 is in the sets whose offset has even popcount
                    start = width * (t0.bit_count() & 1)
                    mask = parity[start:start + step]
                    source = np.bitwise_and(bits[t0:t0 + step], mask).view(np.float64)
                    target = tile
                elif 64 * run <= step == TABLE_TILE:
                    # in a full tile, a strided view would pay for each of 32 or more runs
                    if j not in runs:
                        runs[j] = np.zeros(step, dtype=np.int64)
                        runs[j].reshape(-1, 2, run)[:, 1, :] = -1
                    mask = runs[j][run:]
                    source = np.bitwise_and(bits[t0:t0 + mask.size], mask).view(np.float64)
                    target = tile[run:]
                elif 2 * run < step:
                    # the runs without node j feed the runs with it
                    source = low[t0:t0 + step].reshape(-1, 2, run)[:, 0, :]
                    target = tile.reshape(-1, 2, run)[:, 1, :]
                elif run < step or t0 & run:
                    # the tile's upper half, or all of it, holds node j
                    start = run % step
                    source = low[t0 + start - run:t0 + step - run]
                    target = tile[start:]
                else:
                    continue
                # unit weights, all of a 0/1 adjacency, skip the product
                np.add(target, source if w == 1.0 else w * source, out=target)
    return table


def hafnian_fast(b: np.ndarray) -> float:
    """Hafnian via the subset dynamic program; equals :func:`hafnian`.

    Memory is O(2^(n-1)).  An odd matrix is 0 without a table, so only an
    even one of more than ``PNR_MAX_NODES`` nodes raises CapacityError.
    ``gbs_engine.subset_weight`` and
    :func:`count_perfect_matchings` call it; the sampler's weight tables
    call :func:`hafnian_all_subsets` directly.
    """
    b = _check_symmetric(b, "matrix")
    if b.shape[0] % 2:
        return 0.0
    # the last packed entry is the full set
    return float(hafnian_all_subsets(b)[-1])


def count_perfect_matchings(a: np.ndarray) -> int:
    """Number of perfect matchings of the graph with adjacency ``a``.

    The hafnian of a 0/1 adjacency matrix is exactly this count; the result
    is checked to be a nonnegative integer.
    """
    value = hafnian_fast(a)
    nearest = round(value)
    if abs(value - nearest) > 1e-6 or nearest < 0:
        raise NumericError(f"matching count came out non-integral: {value}")
    return int(nearest)


def torontonian(o: np.ndarray) -> float:
    """Torontonian of a symmetric 2m-square matrix with spectral radius < 1.

    Evaluates the inclusion-exclusion sum over index subsets; the spectral
    radius condition keeps every determinant under the square root positive
    (eigenvalues of principal submatrices interlace).
    """
    o = _check_symmetric(o, "matrix")
    n = o.shape[0]
    if n % 2:
        raise InvalidInputError("torontonian input must be 2m-square")
    m = n // 2
    if n:
        radius = float(np.abs(np.linalg.eigvalsh(o)).max())
        if radius >= 1.0:
            raise InvalidInputError(
                f"torontonian needs spectral radius < 1, got {radius:.6g}"
            )
    total = 0.0
    for r in range(m + 1):
        sign = (-1.0) ** (m - r)
        for z in itertools.combinations(range(m), r):
            idx = list(z) + [k + m for k in z]
            sub = np.eye(2 * r) - o[np.ix_(idx, idx)]
            det = float(np.linalg.det(sub))
            if det <= 0.0:
                raise InvalidInputError("nonpositive determinant under the root")
            total += sign / np.sqrt(det)
    return total
