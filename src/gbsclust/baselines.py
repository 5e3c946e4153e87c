"""Classical comparators: k-means with elbow-selected k, and DBSCAN.

Both are written for small benchmark datasets (tens of points) with fully
deterministic tie-breaking, so benchmark rows are reproducible bit for bit.
k-means uses k-means++ seeding, Lloyd iterations, empty-cluster repair by
stealing the farthest point from the largest cluster, and keeps the best of
10 restarts by inertia.  k may not exceed the number of distinct point
positions, and the elbow fits k only up to that number, so seeding puts
every centroid on a position of its own and no fit starts with an empty
cluster.  ``kmeans`` and the elbow share one fitter: it
seeds each dataset once, at the largest k asked for, and runs every k's 10
restarts as one Lloyd batch, each fit with its own k and its own generator
and bit for bit the one it would be alone.  k-means++ at k makes the draws
of the first k steps at any larger k, so every k starts from a prefix of
that one seeding and fits exactly as if it had seeded itself.
DBSCAN uses closed neighborhoods (a point counts itself).  Its clusters are
the connected components of the core points' eps-graph; a border point
joins the lowest-numbered cluster with a core point within eps, and the
rest is noise, which can be folded back into clusters with the same
connectivity-ratio post-processing the GBS driver uses.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_integer, check_seed
from .graph_core import PointSet, check_distances, connected_components
from .qclust import Clustering, post_process

__all__ = [
    "KMeansResult",
    "DbscanResult",
    "kmeans",
    "elbow_select_k",
    "dbscan",
    "dbscan_with_postprocess",
]

MAX_LLOYD_ITERATIONS = 300
N_RESTARTS = 10


@dataclass
class KMeansResult:
    centroids: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    inertia: float

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def to_clustering(self) -> Clustering:
        clusters = [np.nonzero(self.labels == c)[0].tolist() for c in range(self.k)]
        return Clustering(
            clusters=clusters,
            n_points=self.labels.size,
            method="kmeans",
            params={"k": self.k},
        )


@dataclass
class DbscanResult:
    clusters: list[list[int]]
    noise: list[int]


def _squared_distances(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distance of every point to every centroid, shape (..., M, k);
    ``centroids`` may lead with a fit axis.  The coordinates add one by one,
    so 2-D points get the bits of ``((x - c) ** 2).sum(axis=-1)`` without
    its slow reduction over an axis of two."""
    d2 = (x[:, 0, None] - centroids[..., None, :, 0]) ** 2
    for j in range(1, x.shape[1]):
        d2 += (x[:, j, None] - centroids[..., None, :, j]) ** 2
    return d2


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid of every point; ``centroids`` may lead with a fit axis."""
    # argmin takes the lowest centroid index on ties
    return _squared_distances(x, centroids).argmin(axis=-1)


def _kmeans_pp_init_fits(
    x: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """k-means++ seeding of one fit per generator, all fits in step.

    Each draw is ``rng.choice(m, p=d2 / total)`` spelled out as numpy does
    it (normalized cumulative sum, one ``random()``, right-side search), so
    picks and generator states are those of the per-fit call.  A draw only
    lands on a point at a positive squared distance from every centroid its
    fit holds, so a fit's k centroids are k distinct positions.
    """
    m = x.shape[0]
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(m) for rng in rngs]
    # squared distance of every point to its fit's nearest chosen centroid
    d2 = np.full((len(rngs), m), np.inf)
    for step in range(1, k):
        d2 = np.minimum(d2, _squared_distances(x, x[chosen[:, step - 1], None, :])[..., 0])
        total = d2.sum(axis=1)
        if not np.isfinite(total).all():
            raise InvalidInputError("squared distances overflow in k-means++ seeding")
        # k is at most the distinct positions, so only underflow leaves a
        # fit with no point at a positive distance from its centroids
        if not (total > 0.0).all():
            raise InvalidInputError("squared distances underflow in k-means++ seeding")
        cdf = np.cumsum(d2 / total[:, None], axis=1)
        cdf = cdf / cdf[:, -1:]
        u = np.array([rng.random() for rng in rngs])
        chosen[:, step] = np.count_nonzero(cdf <= u[:, None], axis=1)
    return x[chosen]


def _repair_empty(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """Move, in place, the farthest point of the largest cluster into each
    empty cluster of every fit, fit f owning the first ``ks[f]`` centroid
    slots; returns which fits were repaired.  A donor always keeps a point,
    so the empty clusters are known up front."""
    fits, slots = centroids.shape[:2]
    cells = np.arange(fits)[:, None] * slots + labels
    sizes = np.bincount(cells.ravel(), minlength=fits * slots).reshape(fits, slots)
    empty = (sizes == 0) & (np.arange(slots) < ks[:, None])
    repaired = empty.any(axis=1)
    for fit in np.flatnonzero(repaired):
        fit_sizes, fit_labels, fit_centroids = sizes[fit], labels[fit], centroids[fit]
        for cluster in np.flatnonzero(empty[fit]):
            donor = int(fit_sizes.argmax())
            members = np.nonzero(fit_labels == donor)[0]
            dist = ((x[members] - fit_centroids[donor]) ** 2).sum(axis=1)
            steal = int(members[dist.argmax()])
            fit_labels[steal] = cluster
            fit_sizes[donor] -= 1
            fit_sizes[cluster] += 1
            fit_centroids[cluster] = x[steal]
    return repaired


def _restart_rngs(seed: int | None) -> list[np.random.Generator]:
    """One generator per restart, restart r drawing from ``[seed, r]``."""
    return [
        np.random.default_rng(np.random.SeedSequence([0 if seed is None else seed, r]))
        for r in range(N_RESTARTS)
    ]


def _lloyd(
    x: np.ndarray, seeding: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's iterations of a batch of fits, fit f starting from the first
    ``ks[f]`` centroids of ``seeding[f]``; returns every fit's centroids,
    labels and inertia.

    The fits advance together as arrays, and each drops out once its labels
    stop changing, or after 300 rounds.  A fit's slots at or past its k
    hold +inf, so they are never nearest, never repaired and never divided
    by their empty count, and each fit is the one it would be alone: a
    cluster's bincount adds its members in point order, as mean() does.
    """
    n_fits, slots, dim = seeding.shape
    real = np.arange(slots) < ks[:, None]
    centroids = np.where(real[..., None], seeding, np.inf)
    # each seed point is at squared distance 0 from its own centroid only,
    # so no cluster starts empty
    labels = _assign(x, centroids)
    inertia = np.full(n_fits, np.inf)
    active = np.arange(n_fits)
    for _ in range(MAX_LLOYD_ITERATIONS):
        fits = active.size
        old_labels = labels[active]
        cells = (np.arange(fits)[:, None] * slots + old_labels).ravel()
        counts = np.bincount(cells, minlength=fits * slots)
        sums = np.stack(
            [
                np.bincount(cells, weights=np.tile(x[:, j], fits), minlength=fits * slots)
                for j in range(dim)
            ],
            axis=-1,
        )
        # only real slots are divided, and repaired labels leave none empty
        used = real[active].ravel()
        fit_centroids = np.full((fits * slots, dim), np.inf)
        fit_centroids[used] = sums[used] / counts[used, None]
        fit_centroids = fit_centroids.reshape(fits, slots, dim)
        new_labels = _assign(x, fit_centroids)
        repaired = _repair_empty(x, fit_centroids, new_labels, ks[active])
        diff = x - fit_centroids[np.arange(fits)[:, None], new_labels]
        fit_inertia = (diff**2).reshape(fits, -1).sum(axis=1)
        # Lloyd steps never increase inertia; repairs may, transiently
        if np.any(~repaired & (fit_inertia > inertia[active] + 1e-9)):
            raise AssertionError("Lloyd iteration increased inertia")
        centroids[active] = fit_centroids
        labels[active] = new_labels
        inertia[active] = fit_inertia
        active = active[~(new_labels == old_labels).all(axis=1)]
        if active.size == 0:
            break
    return centroids, labels, inertia


def _distinct_positions(x: np.ndarray) -> int:
    """The number of distinct rows of ``x``: equal rows lie next to each
    other once sorted.  ``np.unique(x, axis=0)`` counts the same but
    imports ``numpy.ma``."""
    ordered = x[np.lexsort(x.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def kmeans(points: PointSet, k: int, seed: int | None = None) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding, best of 10 restarts.

    k may not exceed the number of distinct point positions: seeding then
    puts each centroid on a position of its own, so no cluster starts
    empty.  Iterates until assignments stop changing or 300 rounds; a
    cluster that a later round leaves empty is repaired by stealing the
    farthest point from the largest cluster.
    The restarts advance together as arrays; each keeps its own generator
    and drops out once its labels stop changing, so every fit is the one
    it would be if run alone.
    """
    x = points.coords
    check_integer("k", k, 1)
    check_seed(seed)
    distinct = _distinct_positions(x)
    if k > distinct:
        raise InvalidInputError(f"k = {k} exceeds the {distinct} distinct point positions")
    return _best_fits(x, [k], seed)[0]


def _best_fits(x: np.ndarray, ks: Sequence[int], seed: int | None) -> list[KMeansResult]:
    """``kmeans(points, k, seed)`` for every k in ``ks``, as one Lloyd batch.

    The restarts are seeded once, at max(ks): k-means++ at k makes the
    draws of the first k steps at any larger k, so each k starts from the
    first k centroids of that seeding, the ones seeding at k would pick.
    All len(ks) x 10 fits then run together, and each k keeps its first
    restart with the least inertia.
    """
    seeding = _kmeans_pp_init_fits(x, max(ks), _restart_rngs(seed))
    fit_ks = np.repeat(ks, N_RESTARTS)
    centroids, labels, inertia = _lloyd(x, np.tile(seeding, (len(ks), 1, 1)), fit_ks)
    first = np.arange(0, fit_ks.size, N_RESTARTS)
    # argmin takes the first restart among equal inertias
    best = first + inertia.reshape(len(ks), -1).argmin(axis=1)
    return [
        KMeansResult(centroids[fit, :k], labels[fit], float(inertia[fit]))
        for k, fit in zip(ks, best.tolist())
    ]


def elbow_select_k(
    points: PointSet, k_max: int, seed: int | None = None
) -> KMeansResult:
    """The k-means fit whose k is picked by the inertia curve's elbow.

    Fits k = 1..min(k_max, D), D the number of distinct point positions,
    and returns the fit at the interior k where the improvement flattens
    the most, i.e. the largest second difference of the inertia; ties go
    to the smaller k.  Every k's fit is ``kmeans(points, k, seed)``, all of
    them made in one batch.
    """
    check_integer("k_max", k_max, 3)
    check_seed(seed)
    distinct = _distinct_positions(points.coords)
    if distinct < 3:
        raise InvalidInputError(
            f"the elbow needs k up to 3, but the points have {distinct} distinct positions"
        )
    k_max = min(k_max, distinct)
    ks = range(1, k_max + 1)
    fits = dict(zip(ks, _best_fits(points.coords, ks, seed)))
    best_k, best_curve = None, -np.inf
    for k in range(2, k_max):
        curve = fits[k - 1].inertia - 2.0 * fits[k].inertia + fits[k + 1].inertia
        if curve > best_curve + 1e-12:
            best_k, best_curve = k, curve
    assert best_k is not None
    return fits[best_k]


def dbscan(d: np.ndarray, eps: float, min_pts: int) -> DbscanResult:
    """Density-reachability clustering on a distance matrix.

    ``d`` is the points' (M, M) matrix from
    ``graph_core.compute_distance_matrix``; ``check_distances`` rejects one
    that is no distance matrix.  A point is core when its closed
    eps-neighborhood (itself included) holds at least ``min_pts`` points.
    The clusters are the connected components of the core points within
    eps of each other, ordered by their lowest core point.  Every other
    point joins the lowest-numbered cluster with a core point within eps,
    or is noise.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidInputError(f"eps must be finite and positive, got {eps}")
    check_integer("min_pts", min_pts, 1)
    d = check_distances(d)
    near = d <= eps
    core = np.flatnonzero(np.count_nonzero(near, axis=1) >= min_pts)
    components = connected_components(near[np.ix_(core, core)])
    labels = np.full(len(d), -1)
    # a core point reaches only its own cluster's core points; a border
    # point keeps the lowest cluster that reaches it, as it is written last
    for cluster in reversed(range(len(components))):
        labels[near[:, core[components[cluster]]].any(axis=1)] = cluster
    clusters = [np.flatnonzero(labels == c).tolist() for c in range(len(components))]
    noise = np.flatnonzero(labels == -1).tolist()
    return DbscanResult(clusters=clusters, noise=noise)


def dbscan_with_postprocess(
    d: np.ndarray, eps: float, min_pts: int, a: np.ndarray
) -> Clustering:
    """DBSCAN on the distances ``d`` whose noise points are reattached
    through the graph ``a``, one node per point."""
    raw = dbscan(d, eps, min_pts)
    # post_process checks the graph itself once its size is known to fit
    if np.shape(a)[:1] != (len(d),):
        raise InvalidInputError(
            f"graph has shape {np.shape(a)}, the distances cover {len(d)} points"
        )
    clusters = post_process(raw.noise, raw.clusters, a)
    return Clustering(
        clusters=clusters,
        n_points=len(d),
        method="dbscan",
        params={"eps": eps, "min_pts": min_pts},
    )
