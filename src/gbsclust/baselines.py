"""Classical comparators: k-means with elbow-selected k, and DBSCAN.

Both are written for small benchmark datasets (tens of points) with fully
deterministic tie-breaking, so benchmark rows are reproducible bit for bit.
k-means uses k-means++ seeding, Lloyd iterations, empty-cluster repair by
stealing the farthest point from the largest cluster, and keeps the best of
10 restarts by inertia.  DBSCAN uses brute-force neighbor scans with closed
neighborhoods (a point counts itself), and its noise points can be folded
back into clusters with the same connectivity-ratio post-processing the GBS
driver uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
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
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    return d2.argmin(axis=1)  # argmin takes the lowest centroid index on ties


def _inertia(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    return float(((x - centroids[labels]) ** 2).sum())


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    m = x.shape[0]
    chosen = [int(rng.integers(m))]
    d2 = np.full(m, np.inf)  # squared distance to the nearest chosen centroid
    while len(chosen) < k:
        d2 = np.minimum(d2, ((x - x[chosen[-1]]) ** 2).sum(axis=-1))
        total = d2.sum()
        if total <= 0.0:
            # all remaining points coincide with a centroid; pick lowest new index
            chosen.append(next(i for i in range(m) if i not in chosen))
        else:
            chosen.append(int(rng.choice(m, p=d2 / total)))
    return x[chosen].copy()


def _repair_empty(
    x: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Move the farthest point of the largest cluster into each empty one; a
    donor always keeps a point, so the empty clusters are known up front."""
    sizes = np.bincount(labels, minlength=centroids.shape[0])
    empties = np.flatnonzero(sizes == 0)
    for empty in empties:
        donor = int(sizes.argmax())
        members = np.nonzero(labels == donor)[0]
        dist = ((x[members] - centroids[donor]) ** 2).sum(axis=1)
        steal = int(members[dist.argmax()])
        labels[steal] = empty
        sizes[donor] -= 1
        sizes[empty] += 1
        centroids[empty] = x[steal]
    return labels, empties.size > 0


def kmeans(points: PointSet, k: int, seed: int | None = None) -> KMeansResult:
    """Lloyd's k-means with k-means++ seeding, best of 10 restarts.

    Iterates until assignments stop changing or 300 rounds; empty clusters
    are repaired by stealing the farthest point from the largest cluster.
    """
    x = points.coords
    m = x.shape[0]
    if not 1 <= k <= m:
        raise InvalidInputError(f"k must be in [1, {m}], got {k}")
    best: KMeansResult | None = None
    for restart in range(N_RESTARTS):
        rng = np.random.default_rng(
            np.random.SeedSequence([0 if seed is None else seed, restart])
        )
        centroids = _kmeans_pp_init(x, k, rng)
        labels, _ = _repair_empty(x, centroids, _assign(x, centroids))
        prev_inertia = np.inf
        for _ in range(MAX_LLOYD_ITERATIONS):
            for c in range(k):  # repaired labels leave no cluster empty
                centroids[c] = x[labels == c].mean(axis=0)
            new_labels, repaired = _repair_empty(x, centroids, _assign(x, centroids))
            inertia = _inertia(x, centroids, new_labels)
            # Lloyd steps never increase inertia; repairs may, transiently
            if not repaired and inertia > prev_inertia + 1e-9:
                raise AssertionError("Lloyd iteration increased inertia")
            prev_inertia = inertia
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        # labels equals new_labels here, so the last step's inertia is the fit's
        result = KMeansResult(centroids.copy(), labels.copy(), inertia)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def elbow_select_k(
    points: PointSet, k_max: int, seed: int | None = None
) -> KMeansResult:
    """The k-means fit whose k is picked by the inertia curve's elbow.

    Fits k = 1..k_max and returns the fit at the interior k where the
    improvement flattens the most, i.e. the largest second difference of
    the inertia; ties go to the smaller k.
    """
    m = len(points)
    if k_max < 3:
        raise InvalidInputError("elbow selection needs k_max >= 3")
    if k_max > m:
        raise InvalidInputError(f"k_max must not exceed the point count {m}")
    fits = {k: kmeans(points, k, seed=seed) for k in range(1, k_max + 1)}
    best_k, best_curve = None, -np.inf
    for k in range(2, k_max):
        curve = fits[k - 1].inertia - 2.0 * fits[k].inertia + fits[k + 1].inertia
        if curve > best_curve + 1e-12:
            best_k, best_curve = k, curve
    assert best_k is not None
    return fits[best_k]


def dbscan(points: PointSet, eps: float, min_pts: int) -> DbscanResult:
    """Density-reachability clustering with brute-force neighbor scans.

    A point is core when its closed eps-neighborhood (itself included) holds
    at least ``min_pts`` points.  Clusters are grown from core points in
    ascending index order; border points join the first cluster that reaches
    them; anything unreachable is noise.
    """
    if eps <= 0.0:
        raise InvalidInputError("eps must be positive")
    if min_pts < 1:
        raise InvalidInputError("min_pts must be at least 1")
    x = points.coords
    m = x.shape[0]
    d = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
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
    points: PointSet, eps: float, min_pts: int, a: np.ndarray
) -> Clustering:
    """DBSCAN whose noise points are reattached through the graph ``a``."""
    raw = dbscan(points, eps, min_pts)
    clusters = post_process(raw.noise, raw.clusters, a)
    return Clustering(
        clusters=clusters,
        n_points=len(points),
        method="dbscan",
        params={"eps": eps, "min_pts": min_pts},
    )
