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

import itertools

import numpy as np

from .errors import InvalidInputError, NumericError

__all__ = [
    "hafnian",
    "hafnian_fast",
    "hafnian_all_subsets",
    "hafnian_with_repeats",
    "count_perfect_matchings",
    "torontonian",
]

SYMMETRY_ATOL = 1e-12


def _check_symmetric(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise InvalidInputError("matrix must be square")
    # exact equality is the common case and ~10x cheaper than allclose;
    # NaN never equals itself, so it still reaches allclose and is rejected
    if not (b == b.T).all() and not np.allclose(b, b.T, rtol=0.0, atol=SYMMETRY_ATOL):
        raise InvalidInputError("matrix must be symmetric within 1e-12")
    # inf == inf, so an infinite entry passes the symmetry test
    bad = np.argwhere(~np.isfinite(b)).tolist()
    if bad:
        raise InvalidInputError(f"matrix entries must be finite; not so at {bad[:4]}")
    return b


def hafnian(b: np.ndarray) -> float:
    """Reference hafnian by direct perfect-matching enumeration.

    Cost grows as (n-1)!!, so keep n small (n <= 14 or so).  Returns 1 for
    the empty matrix and 0 for odd dimension.
    """
    b = _check_symmetric(b)
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
    ascending mask.  For n = 0 the table is ``[1.0]``.

    Recurses on the highest node h of a set S:
    Haf(S) = sum over j in S, j < h of b[j, h] * Haf(S - {h, j}), with j
    ascending.  The sets whose top node is h form the block
    [2^(h-1), 2^h), filled from the finished entries below 2^(h-1).  An
    update for j >= 1 adds contiguous runs of 2^(j-1) entries, with no
    index arrays; the update for node 0 adds to the entries whose offset in
    the block has even popcount, which are the sets holding node 0.
    O(n * 2^(n-1)) time and O(2^(n-1)) memory; the sampler calls it once
    per connected component.

    On a 0/1 matrix every entry is a perfect-matching count, at most
    25!! < 2^53 for 26 nodes, so every partial sum is an exact integer and
    any summation order gives the same bits.  On weighted input the order
    matters: other orders of the same sum may differ in the last bits.
    """
    b = _check_symmetric(b)
    n = b.shape[0]
    table = np.zeros(1 << max(n - 1, 0))
    table[0] = 1.0
    # even[i]: i has even popcount; each doubling flips the parity of its copy
    even = np.ones(max(table.size >> 1, 1), dtype=bool)
    s = 1
    while s < even.size:
        even[s:2 * s] = ~even[:s]
        s *= 2
    for h in range(1, n):
        low = table[:1 << (h - 1)]
        block = table[1 << (h - 1):1 << h]
        for j in range(h):
            bjh = b[j, h]
            if bjh == 0.0:
                continue
            # unit entries, all of a 0/1 adjacency, skip the product
            if j == 0:
                # node 0 is in the sets whose offset in the block is even
                np.add(block, low if bjh == 1.0 else bjh * low, out=block,
                       where=even[:low.size])
            else:
                # the runs of 2^(j-1) entries without node j feed the runs with it
                source = low.reshape(-1, 2, 1 << (j - 1))[:, 0, :]
                block.reshape(-1, 2, 1 << (j - 1))[:, 1, :] += (
                    source if bjh == 1.0 else bjh * source
                )
    return table


def hafnian_fast(b: np.ndarray) -> float:
    """Hafnian via the subset dynamic program; equals :func:`hafnian`.

    Memory is O(2^(n-1)).  ``gbs_engine.subset_weight`` and
    :func:`count_perfect_matchings` call it; the sampler's weight tables
    call :func:`hafnian_all_subsets` directly.
    """
    b = _check_symmetric(b)
    if b.shape[0] % 2:
        return 0.0
    # the last packed entry is the full set
    return float(hafnian_all_subsets(b)[-1])


def hafnian_with_repeats(b: np.ndarray, counts) -> float:
    """Hafnian of ``b`` with row/column i duplicated ``counts[i]`` times.

    Equivalent to expanding the matrix explicitly and calling
    :func:`hafnian`, but the recursion runs over multiplicity vectors, so
    large photon patterns over few modes stay cheap (state space is the
    product of counts+1, not 2^total).
    """
    b = _check_symmetric(b)
    counts = tuple(int(c) for c in counts)
    if len(counts) != b.shape[0]:
        raise InvalidInputError("counts length must match matrix dimension")
    if any(c < 0 for c in counts):
        raise InvalidInputError("repeat counts must be nonnegative")
    if sum(counts) % 2:
        return 0.0
    memo: dict[tuple[int, ...], float] = {}

    def rec(m: tuple[int, ...]) -> float:
        if sum(m) == 0:
            return 1.0
        cached = memo.get(m)
        if cached is not None:
            return cached
        i = next(k for k, c in enumerate(m) if c > 0)
        rest = list(m)
        rest[i] -= 1
        total = 0.0
        if rest[i] > 0 and b[i, i] != 0.0:
            m2 = list(rest)
            m2[i] -= 1
            total += rest[i] * b[i, i] * rec(tuple(m2))
        for j in range(i + 1, len(m)):
            if rest[j] > 0 and b[i, j] != 0.0:
                m2 = list(rest)
                m2[j] -= 1
                total += rest[j] * b[i, j] * rec(tuple(m2))
        memo[m] = total
        return total

    return rec(counts)


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
    o = _check_symmetric(o)
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
