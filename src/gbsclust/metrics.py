"""Clustering quality scores: silhouette, weighted density, cohesion.

The silhouette score lives in metric space; the other two are read off the
threshold graph.  Weighted density averages per-cluster subgraph densities
weighted by cluster size.  Cohesion averages, over clusters, internal edge
density minus normalized external connectivity.  Singleton clusters count
as perfectly dense (density 1, internal density 1) and score 0 in the
silhouette, conventions the isolated-point rule of the pipelines makes
unavoidable.  A one-cluster partition also scores 0 in the silhouette: no
point has a nearest other cluster, so b(i) does not exist, the same gap
the singleton rule covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import PointSet, compute_distance_matrix, edge_counts
from .graph_core import graph_density  # noqa: F401  (re-exported)
from .qclust import Clustering

__all__ = [
    "ClusterBreakdown",
    "MetricsReport",
    "silhouette",
    "weighted_density",
    "cohesion",
    "compute_report",
]


@dataclass
class ClusterBreakdown:
    n: int
    density: float
    delta_int: float
    delta_ext: float


@dataclass
class MetricsReport:
    silhouette: float
    weighted_density: float
    cohesion: float
    per_cluster: list[ClusterBreakdown]

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.silhouette <= 1.0 + 1e-12:
            raise AssertionError(f"silhouette out of range: {self.silhouette}")
        if not -1e-12 <= self.weighted_density <= 1.0 + 1e-12:
            raise AssertionError(f"weighted density out of range: {self.weighted_density}")
        if not -1.0 - 1e-12 <= self.cohesion <= 1.0 + 1e-12:
            raise AssertionError(f"cohesion out of range: {self.cohesion}")

    def as_dict(self) -> dict:
        return {
            "silhouette": self.silhouette,
            "weighted_density": self.weighted_density,
            "cohesion": self.cohesion,
            "per_cluster": [
                {
                    "n": b.n,
                    "density": b.density,
                    "delta_int": b.delta_int,
                    "delta_ext": b.delta_ext,
                }
                for b in self.per_cluster
            ],
        }


def silhouette(points: PointSet, clustering: Clustering) -> float:
    """Mean silhouette over points; singleton members contribute 0, and a
    one-cluster partition, where no point has another cluster, scores 0."""
    if len(clustering.clusters) == 1:
        return 0.0
    d = compute_distance_matrix(points)
    labels = clustering.labels
    scores = np.zeros(len(points))
    for i in range(len(points)):
        own = clustering.clusters[labels[i]]
        if len(own) == 1:
            continue  # singleton convention: s(i) = 0
        others = [j for j in own if j != i]
        a = float(d[i, others].mean())
        b = min(
            float(d[i, cluster].mean())
            for cid, cluster in enumerate(clustering.clusters)
            if cid != labels[i]
        )
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def _breakdown(
    clustering: Clustering, a: np.ndarray
) -> tuple[list[ClusterBreakdown], float, float]:
    """Per-cluster breakdown, plus the weighted density and cohesion read off it.

    ``a`` is the binary threshold graph, on which the cluster's subgraph
    density equals delta_int = edges_int / (n_i (n_i - 1) / 2), taken as 1
    for singletons; delta_ext is edges_ext / (n_i (M - n_i)), 0 when the
    cluster is the whole graph.
    """
    m = clustering.n_points
    breakdown = []
    total = 0.0
    for cluster in clustering.clusters:
        n_i = len(cluster)
        internal, external = edge_counts(a, cluster)
        d_int = 1.0 if n_i == 1 else internal / (n_i * (n_i - 1) / 2.0)
        d_ext = 0.0 if n_i == m else external / (n_i * (m - n_i))
        total += n_i * d_int
        breakdown.append(
            ClusterBreakdown(n=n_i, density=d_int, delta_int=d_int, delta_ext=d_ext)
        )
    deltas = [b.delta_int - b.delta_ext for b in breakdown]
    return breakdown, total / m, float(np.mean(deltas))


def weighted_density(clustering: Clustering, a: np.ndarray) -> float:
    """Size-weighted mean of per-cluster densities; singletons count as 1."""
    return _breakdown(clustering, a)[1]


def cohesion(clustering: Clustering, a: np.ndarray) -> float:
    """Mean over clusters of internal density minus external connectivity."""
    return _breakdown(clustering, a)[2]


def compute_report(
    points: PointSet, clustering: Clustering, a: np.ndarray
) -> MetricsReport:
    """All three scores plus the per-cluster breakdown, ranges asserted."""
    breakdown, density, cohesion_score = _breakdown(clustering, a)
    return MetricsReport(
        silhouette=silhouette(points, clustering),
        weighted_density=density,
        cohesion=cohesion_score,
        per_cluster=breakdown,
    )
