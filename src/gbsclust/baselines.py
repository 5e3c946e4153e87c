"""Classical comparators: k-means with elbow-selected k, and DBSCAN.

Both are written for small benchmark datasets (tens of points) with fully
deterministic tie-breaking, so benchmark rows are reproducible bit for bit.
k-means uses k-means++ seeding, Lloyd iterations, empty-cluster repair by
stealing the farthest point from the largest cluster, and keeps the best of
10 restarts by inertia.  The restarts advance together as arrays, each with
its own generator, and every fit is bit for bit the one it would be alone.
The elbow seeds each dataset once, at k_max: k-means++ at k makes the
draws of the first k steps at any larger k, so every k starts from a
prefix of that one seeding and fits exactly as if it had seeded itself.
DBSCAN uses brute-force neighbor scans with closed neighborhoods (a point
counts itself), and its noise points can be folded back into clusters with
the same connectivity-ratio post-processing the GBS driver uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_integer
from .graph_core import PointSet
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
            clusters=[c for c in clusters if c],
            n_points=self.labels.size,
            method="kmeans",
            params={"k": self.k},
        )


@dataclass
class DbscanResult:
    clusters: list[list[int]]
    noise: list[int]


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid of every point; ``centroids`` may lead with a fit axis."""
    d2 = ((x[:, None, :] - centroids[..., None, :, :]) ** 2).sum(axis=-1)
    return d2.argmin(axis=-1)  # argmin takes the lowest centroid index on ties


def _kmeans_pp_init_fits(
    x: np.ndarray, k: int, rngs: list[np.random.Generator]
) -> np.ndarray:
    """k-means++ seeding of one fit per generator, all fits in step.

    Each draw is ``rng.choice(m, p=d2 / total)`` spelled out as numpy does
    it (normalized cumulative sum, one ``random()``, right-side search), so
    picks and generator states are those of the per-fit call.
    """
    m = x.shape[0]
    chosen = np.empty((len(rngs), k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(m) for rng in rngs]
    # squared distance of every point to its fit's nearest chosen centroid
    d2 = np.full((len(rngs), m), np.inf)
    for step in range(1, k):
        d2 = np.minimum(d2, ((x - x[chosen[:, step - 1], None, :]) ** 2).sum(axis=-1))
        total = d2.sum(axis=1)
        if not np.isfinite(total).all():
            raise InvalidInputError("squared distances overflow in k-means++ seeding")
        draw = total > 0.0
        cdf = np.cumsum(d2[draw] / total[draw, None], axis=1)
        cdf = cdf / cdf[:, -1:]
        for row, fit in zip(cdf, np.flatnonzero(draw)):
            chosen[fit, step] = np.count_nonzero(row <= rngs[fit].random())
        for fit in np.flatnonzero(~draw):
            # all remaining points coincide with a centroid; pick lowest new index
            chosen[fit, step] = next(i for i in range(m) if i not in chosen[fit, :step])
    return x[chosen]


def _repair_empty(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Move, in place, the farthest point of the largest cluster into each
    empty cluster of every fit; returns which fits were repaired.  A donor
    always keeps a point, so the empty clusters are known up front."""
    fits, k = centroids.shape[:2]
    cells = np.arange(fits)[:, None] * k + labels
    sizes = np.bincount(cells.ravel(), minlength=fits * k).reshape(fits, k)
    repaired = (sizes == 0).any(axis=1)
    for fit in np.flatnonzero(repaired):
        fit_sizes, fit_labels, fit_centroids = sizes[fit], labels[fit], centroids[fit]
        for empty in np.flatnonzero(fit_sizes == 0):
            donor = int(fit_sizes.argmax())
            members = np.nonzero(fit_labels == donor)[0]
            dist = ((x[members] - fit_centroids[donor]) ** 2).sum(axis=1)
            steal = int(members[dist.argmax()])
            fit_labels[steal] = empty
            fit_sizes[donor] -= 1
            fit_sizes[empty] += 1
            fit_centroids[empty] = x[steal]
    return repaired


def _restart_rngs(seed: int | None) -> list[np.random.Generator]:
    """One generator per restart, restart r drawing from ``[seed, r]``."""
    return [
        np.random.default_rng(np.random.SeedSequence([0 if seed is None else seed, r]))
        for r in range(N_RESTARTS)
    ]


def kmeans(
    points: PointSet,
    k: int,
    seed: int | None = None,
    *,
    seeding: np.ndarray | None = None,
) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding, best of 10 restarts.

    Iterates until assignments stop changing or 300 rounds; empty clusters
    are repaired by stealing the farthest point from the largest cluster.
    The restarts advance together as arrays; each keeps its own generator
    and drops out once its labels stop changing, so every fit is the one
    it would be if run alone.  ``seeding``, an ``(N_RESTARTS, >= k, dim)``
    k-means++ seeding from ``seed``'s generators, replaces the fit's own:
    its first k centroids per restart are the ones seeding at k would pick.
    """
    x = points.coords
    m, dim = x.shape
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must be in [1, {m}], got {k}")
    if seeding is None:
        centroids = _kmeans_pp_init_fits(x, k, _restart_rngs(seed))
    else:
        shape = seeding.shape
        if len(shape) != 3 or shape[0] != N_RESTARTS or shape[1] < k or shape[2] != dim:
            raise InvalidInputError(
                f"seeding must have shape ({N_RESTARTS}, >= {k}, {dim}), got {shape}"
            )
        centroids = seeding[:, :k].copy()  # repairs write centroids in place
    labels = _assign(x, centroids)
    _repair_empty(x, centroids, labels)
    inertia = np.full(N_RESTARTS, np.inf)
    active = np.arange(N_RESTARTS)
    for _ in range(MAX_LLOYD_ITERATIONS):
        fits = active.size
        old_labels = labels[active]
        # bincount adds each cluster's members in point order, as mean() does;
        # repaired labels leave no cluster empty
        cells = (np.arange(fits)[:, None] * k + old_labels).ravel()
        counts = np.bincount(cells, minlength=fits * k)
        sums = [
            np.bincount(cells, weights=np.tile(x[:, j], fits), minlength=fits * k)
            for j in range(dim)
        ]
        fit_centroids = np.stack(sums, axis=-1) / counts[:, None]
        fit_centroids = fit_centroids.reshape(fits, k, dim)
        new_labels = _assign(x, fit_centroids)
        repaired = _repair_empty(x, fit_centroids, new_labels)
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
    best = int(np.argmin(inertia))  # the first restart among equal inertias
    return KMeansResult(centroids[best], labels[best], float(inertia[best]))


def elbow_select_k(
    points: PointSet, k_max: int, seed: int | None = None
) -> KMeansResult:
    """The k-means fit whose k is picked by the inertia curve's elbow.

    Fits k = 1..k_max and returns the fit at the interior k where the
    improvement flattens the most, i.e. the largest second difference of
    the inertia; ties go to the smaller k.  The restarts are seeded once,
    at k_max, and each k starts from the first k centroids of that
    seeding, which are the ones seeding at k would pick.
    """
    m = len(points)
    if k_max < 3:
        raise InvalidInputError("elbow selection needs k_max >= 3")
    if k_max > m:
        raise InvalidInputError(f"k_max must not exceed the point count {m}")
    seeding = _kmeans_pp_init_fits(points.coords, k_max, _restart_rngs(seed))
    fits = {
        k: kmeans(points, k, seed=seed, seeding=seeding) for k in range(1, k_max + 1)
    }
    best_k, best_curve = None, -np.inf
    for k in range(2, k_max):
        curve = fits[k - 1].inertia - 2.0 * fits[k].inertia + fits[k + 1].inertia
        if curve > best_curve + 1e-12:
            best_k, best_curve = k, curve
    assert best_k is not None
    return fits[best_k]


def dbscan(d: np.ndarray, eps: float, min_pts: int) -> DbscanResult:
    """Density-reachability clustering with brute-force neighbor scans.

    ``d`` is the points' (M, M) matrix from
    ``graph_core.compute_distance_matrix``, trusted as given.  A point is
    core when its closed eps-neighborhood (itself included) holds at least
    ``min_pts`` points.  Clusters are grown from core points in ascending
    index order; border points join the first cluster that reaches them;
    anything unreachable is noise.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise InvalidInputError(f"eps must be finite and positive, got {eps}")
    check_integer("min_pts", min_pts, 1)
    m = len(d)
    neighbors = [np.nonzero(d[i] <= eps)[0] for i in range(m)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])

    labels = np.full(m, -1, dtype=int)
    cluster_id = 0
    for start in range(m):
        if labels[start] != -1 or not core[start]:
            continue
        labels[start] = cluster_id
        queue = [start]
        while queue:
            p = queue.pop(0)
            for q in neighbors[p]:
                q = int(q)
                if labels[q] == -1:
                    labels[q] = cluster_id
                    if core[q]:
                        queue.append(q)
        cluster_id += 1
    clusters = [np.nonzero(labels == c)[0].tolist() for c in range(cluster_id)]
    noise = np.nonzero(labels == -1)[0].tolist()
    return DbscanResult(clusters=clusters, noise=noise)


def dbscan_with_postprocess(
    d: np.ndarray, eps: float, min_pts: int, a: np.ndarray
) -> Clustering:
    """DBSCAN on the distances ``d`` whose noise points are reattached
    through the graph ``a``."""
    raw = dbscan(d, eps, min_pts)
    clusters = post_process(raw.noise, raw.clusters, a)
    return Clustering(
        clusters=clusters,
        n_points=len(d),
        method="dbscan",
        params={"eps": eps, "min_pts": min_pts},
    )
