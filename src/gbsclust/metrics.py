"""Clustering quality scores: silhouette, weighted density, cohesion.

The silhouette score is read off the points' distance matrix, which the
caller builds once with ``compute_distance_matrix`` and passes in; the other
two are read off the threshold graph.  Weighted density averages
per-cluster subgraph densities weighted by cluster size.  Cohesion averages,
over clusters, internal edge density minus normalized external
connectivity.  Singleton clusters count as perfectly dense (density 1,
internal density 1) and score 0 in the silhouette, conventions the
isolated-point rule of the pipelines makes unavoidable.  A one-cluster
partition also scores 0 in the silhouette: no point has a nearest other
cluster, so b(i) does not exist, the same gap the singleton rule covers.

Each score is taken a whole cluster at a time.  The silhouette gathers every
point's distances to one cluster into a row and sums the rows with
``_row_sums``, which adds each row in the order ``np.sum`` adds a 1-D array,
so every mean distance, and so every score, has the bits of a per-point
``d[i, cluster].mean()``.  Density and cohesion read every cluster's internal
and external edge counts off Y^T A Y, Y the (M, K) cluster-incidence matrix;
its entries are sums of 0/1 products, exact integers in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .graph_core import check_adjacency, check_distances

# compute_distance_matrix, edge_counts and graph_density are re-exported for
# the benchmark tracer
from .graph_core import compute_distance_matrix, edge_counts, graph_density  # noqa: F401
from .qclust import Clustering

__all__ = [
    "MetricsReport",
    "silhouette",
    "weighted_density",
    "cohesion",
    "compute_report",
]


@dataclass
class MetricsReport:
    silhouette: float
    weighted_density: float
    cohesion: float

    def __post_init__(self):
        if not -1.0 - 1e-12 <= self.silhouette <= 1.0 + 1e-12:
            raise AssertionError(f"silhouette out of range: {self.silhouette}")
        if not -1e-12 <= self.weighted_density <= 1.0 + 1e-12:
            raise AssertionError(f"weighted density out of range: {self.weighted_density}")
        if not -1.0 - 1e-12 <= self.cohesion <= 1.0 + 1e-12:
            raise AssertionError(f"cohesion out of range: {self.cohesion}")


def _row_sums(x: np.ndarray) -> np.ndarray:
    """The sum of each row of the 2-D array ``x``, bit for bit the
    ``np.sum`` of that row on its own.

    numpy adds a 1-D float array pairwise (Higham, SIAM J. Sci. Comput. 14,
    783, 1993) from an initial 0.0: under 8 entries in turn; up to 128 in 8
    lanes, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
    turn; past 128 split at n//2 rounded down to a multiple of 8.  A
    reduction along the axis that is contiguous in memory runs the same loop
    on each row, so the rows are made contiguous first: a gather such as
    ``d[:, members]`` comes out column-major, and summed that way its rows
    add in another order.
    """
    return np.ascontiguousarray(x).sum(axis=1)


def silhouette(d: np.ndarray, clustering: Clustering) -> float:
    """Mean silhouette over points, from their (M, M) distance matrix ``d``;
    singleton members contribute 0, and a one-cluster partition, where no
    point has another cluster, scores 0."""
    d = check_distances(d)
    m = len(d)
    if m != clustering.n_points:
        raise InvalidInputError(
            f"distance matrix covers {m} points, the clustering {clustering.n_points}"
        )
    clusters = clustering.clusters
    if len(clusters) == 1:
        return 0.0
    labels = clustering.labels
    # mean_to[i, k]: point i's mean distance to the members of cluster k
    mean_to = np.empty((m, len(clusters)))
    a = np.zeros(m)
    singletons = []
    for k, members in enumerate(clusters):
        n_k = len(members)
        members = np.array(members)
        to_k = d[:, members]
        mean_to[:, k] = _row_sums(to_k) / n_k
        if n_k == 1:
            singletons.append(members[0])
            continue
        # the members' block without its diagonal: row r holds the distances
        # from member r to the others, in order
        others = to_k[members].reshape(-1)[1:].reshape(n_k - 1, n_k + 1)[:, :-1]
        a[members] = _row_sums(others.reshape(n_k, n_k - 1)) / (n_k - 1)
    mean_to[np.arange(m), labels] = np.inf
    b = mean_to.min(axis=1)
    # singleton convention: s(i) = 0, as the rule for a = b = 0 gives it
    b[singletons] = 0.0
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(m), where=denom != 0.0)
    return float(scores.mean())


def _breakdown(clustering: Clustering, a: np.ndarray) -> tuple[float, float]:
    """Weighted density and cohesion of a clustering on the graph ``a``.

    ``a`` is the binary threshold graph, on which the cluster's subgraph
    density equals delta_int = edges_int / (n_i (n_i - 1) / 2), taken as 1
    for singletons; delta_ext is edges_ext / (n_i (M - n_i)), 0 when the
    cluster is the whole graph.
    """
    a = check_adjacency(a)
    m = clustering.n_points
    if len(a) != m:
        raise InvalidInputError(f"graph has {len(a)} nodes, the clustering {m} points")
    incidence = np.zeros((m, len(clustering.clusters)))
    incidence[np.arange(m), clustering.labels] = 1.0
    # edges[k, l]: the edges between clusters k and l; edges[k, k] counts
    # each edge inside cluster k twice
    edges = incidence.T @ a @ incidence
    inside = np.diagonal(edges) / 2
    across = edges.sum(axis=1) - np.diagonal(edges)
    total = 0.0
    deltas = []
    for cluster, internal, external in zip(clustering.clusters, inside.tolist(), across.tolist()):
        n_i = len(cluster)
        d_int = 1.0 if n_i == 1 else internal / (n_i * (n_i - 1) / 2.0)
        d_ext = 0.0 if n_i == m else external / (n_i * (m - n_i))
        total += n_i * d_int
        deltas.append(d_int - d_ext)
    return total / m, float(np.mean(deltas))


def weighted_density(clustering: Clustering, a: np.ndarray) -> float:
    """Size-weighted mean of per-cluster densities; singletons count as 1."""
    return _breakdown(clustering, a)[0]


def cohesion(clustering: Clustering, a: np.ndarray) -> float:
    """Mean over clusters of internal density minus external connectivity."""
    return _breakdown(clustering, a)[1]


def compute_report(
    d: np.ndarray, clustering: Clustering, a: np.ndarray
) -> MetricsReport:
    """All three scores from the distances ``d`` and the graph ``a``,
    ranges asserted."""
    density, cohesion_score = _breakdown(clustering, a)
    return MetricsReport(
        silhouette=silhouette(d, clustering),
        weighted_density=density,
        cohesion=cohesion_score,
    )
