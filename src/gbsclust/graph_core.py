"""Point sets, distance matrices and threshold graphs.

A point set is converted to an undirected simple graph by connecting every
pair of points strictly closer than a distance threshold.  The graph is kept
as a dense symmetric 0/1 numpy array with a zero diagonal; node order follows
the point order.  All functions here are pure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "PointSet",
    "pairwise_distances",
    "compute_distance_matrix",
    "upper_triangle_values",
    "percentile",
    "build_adjacency",
    "threshold_graph",
    "check_adjacency",
    "graph_density",
    "induced_subgraph",
    "edge_counts",
    "connected_components",
    "load_points_csv",
    "save_points_csv",
    "read_edge_list",
]


@dataclass
class PointSet:
    """Labeled 2-D points (latitude, longitude pairs in degrees).

    ``coords`` has shape (M, 2); ``ids`` are unique opaque labels aligned
    with the rows of ``coords``.
    """

    ids: list[str]
    coords: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.ndim != 2 or self.coords.shape[1] != 2:
            raise InvalidInputError("coords must have shape (M, 2)")
        if not np.isfinite(self.coords).all():
            raise InvalidInputError("coordinates must be finite, got NaN or inf")
        if len(self.ids) != self.coords.shape[0]:
            raise InvalidInputError("ids and coords length mismatch")
        if len(set(self.ids)) != len(self.ids):
            raise InvalidInputError("point ids must be unique")
        if len(self.ids) < 2:
            raise InvalidInputError("a point set needs at least 2 points")

    def __len__(self) -> int:
        return self.coords.shape[0]


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an (M, d) array.

    Returns a symmetric (M, M) matrix with a zero diagonal.
    """
    diff = x[:, None, :] - x[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def compute_distance_matrix(points: PointSet) -> np.ndarray:
    """Pairwise Euclidean distances on the raw coordinates.

    Returns a symmetric (M, M) matrix with a zero diagonal.  Coordinates are
    treated as plain numbers; no geodesic correction is applied.
    """
    return pairwise_distances(points.coords)


def upper_triangle_values(d: np.ndarray) -> np.ndarray:
    """Off-diagonal distance population, each unordered pair counted once."""
    d = np.asarray(d, dtype=float)
    iu = np.triu_indices(d.shape[0], k=1)
    return d[iu]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of ``values`` at fraction ``q``.

    q=0 gives the minimum, q=1 the maximum; interior values interpolate
    between order statistics at position q * (n - 1).
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise InvalidInputError("percentile of an empty population")
    if not np.isfinite(values).all():
        raise InvalidInputError("percentile of a population with NaN or infinite values")
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"percentile fraction must be in [0, 1], got {q}")
    return float(np.quantile(values, q, method="linear"))


def build_adjacency(d: np.ndarray, d_tilde: float) -> np.ndarray:
    """Threshold graph: connect i and j exactly when D_ij < d_tilde.

    The inequality is strict, so pairs at exactly the threshold stay
    disconnected.  Output is a symmetric 0/1 float matrix, zero diagonal.
    """
    if not d_tilde > 0:  # NaN fails every comparison; inf connects every pair
        raise InvalidInputError(f"distance threshold must be positive, got {d_tilde}")
    d = np.asarray(d, dtype=float)
    a = (d < d_tilde).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def threshold_graph(d: np.ndarray, d_percentile: float) -> np.ndarray:
    """Threshold graph at the ``d_percentile`` percentile of the distances ``d``.

    ``d`` is the (M, M) matrix ``compute_distance_matrix`` returns, built
    once per point set by the caller and trusted as given; a NaN or
    infinite distance is rejected by ``percentile``.  ``d_percentile`` must
    lie strictly in (0, 1).  When so many points coincide that the
    percentile is a distance of 0, no pair lies strictly closer, and
    InvalidInputError names the pairs at distance 0 instead of returning
    the edgeless graph.  For a fixed threshold, pass ``d`` to
    ``build_adjacency``.
    """
    if not 0.0 < d_percentile < 1.0:
        raise InvalidInputError(
            f"d_percentile must lie strictly in (0, 1), got {d_percentile}"
        )
    values = upper_triangle_values(d)
    d_tilde = percentile(values, d_percentile)
    if d_tilde <= 0:
        raise InvalidInputError(
            f"{np.count_nonzero(values == 0)} of {values.size} point pairs are at "
            f"distance 0, so the threshold at d_percentile {d_percentile} is 0 and "
            "connects no pair; use a larger d_percentile"
        )
    return build_adjacency(d, d_tilde)


def check_adjacency(a: np.ndarray) -> np.ndarray:
    """Validate an adjacency matrix: square, symmetric, binary, zero diagonal."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("adjacency matrix must be square")
    if not np.array_equal(a, a.T):
        raise InvalidInputError("adjacency matrix must be symmetric")
    if np.any(np.diag(a) != 0):
        raise InvalidInputError("adjacency matrix must have a zero diagonal")
    if not np.isin(a, (0.0, 1.0)).all():
        raise InvalidInputError("adjacency entries must be 0 or 1")
    return a


def _subset_array(a: np.ndarray, subset) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    n = a.shape[0]
    if idx.size and (idx[0] < 0 or idx[-1] >= n):
        raise InvalidInputError(f"node index out of range for a {n}-node graph")
    return idx


def graph_density(a: np.ndarray, subset) -> float:
    """Edge density of the subgraph induced by ``subset``, in [0, 1].

    Density is 2 * E_S / (n_S * (n_S - 1)).  Subsets with at most one node
    return 0 by convention (the metric-level singleton convention lives in
    :mod:`gbsclust.metrics`).
    """
    idx = _subset_array(a, subset)
    n_s = idx.size
    if n_s <= 1:
        return 0.0
    internal = a[np.ix_(idx, idx)].sum() / 2.0
    return float(2.0 * internal / (n_s * (n_s - 1)))


def induced_subgraph(a: np.ndarray, subset) -> np.ndarray:
    """Adjacency restricted to ``subset``; rows follow ascending node index."""
    idx = _subset_array(a, subset)
    if idx.size == 0:
        raise InvalidInputError("induced subgraph of an empty subset")
    return a[np.ix_(idx, idx)].copy()


def edge_counts(a: np.ndarray, subset) -> tuple[int, int]:
    """(internal, external) edge counts for a node subset.

    Internal edges have both endpoints in the subset, external edges exactly
    one.
    """
    idx = _subset_array(a, subset)
    if idx.size == 0:
        return 0, 0
    mask = np.zeros(a.shape[0], dtype=bool)
    mask[idx] = True
    internal = a[np.ix_(idx, idx)].sum() / 2.0
    external = a[np.ix_(idx, ~mask)].sum() if (~mask).any() else 0.0
    return int(round(internal)), int(round(external))


def connected_components(a: np.ndarray) -> list[np.ndarray]:
    """Node index arrays of the connected components of ``a``.

    Each array is ascending and the components are ordered by their lowest
    node; an isolated node is a component of its own.
    """
    adj = np.asarray(a) != 0
    unseen = np.ones(adj.shape[0], dtype=bool)
    components = []
    for start in range(adj.shape[0]):
        if not unseen[start]:
            continue
        reached = np.zeros_like(unseen)
        reached[start] = True
        frontier = reached.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~reached
            reached |= frontier
        unseen &= ~reached
        components.append(np.flatnonzero(reached))
    return components


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_points_csv(path) -> PointSet:
    """Read a point set from CSV with header ``id,lat,lon``.

    A malformed row or an unparsable coordinate raises InvalidInputError
    naming the path and the 1-based line.
    """
    ids: list[str] = []
    coords: list[tuple[float, float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["id", "lat", "lon"]:
            raise InvalidInputError(f"expected header 'id,lat,lon' in {path}")
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) != 3:
                raise InvalidInputError(f"malformed row {row!r} in {where}")
            try:
                coords.append((float(row[1]), float(row[2])))
            except ValueError:
                raise InvalidInputError(
                    f"unparsable coordinate in {where}: {row!r}"
                ) from None
            ids.append(row[0])
    return PointSet(ids=ids, coords=np.array(coords, dtype=float))


def save_points_csv(points: PointSet, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon"])
        for pid, (x, y) in zip(points.ids, points.coords):
            writer.writerow([pid, f"{x:.17g}", f"{y:.17g}"])


def read_edge_list(path, n_nodes: int | None = None) -> np.ndarray:
    """Read a ``u v`` per line edge list into an adjacency matrix.

    Node count defaults to max index + 1; trailing isolated nodes need an
    explicit ``n_nodes``.  A line that is not two integers raises
    InvalidInputError naming the path and the 1-based line.
    """
    edges: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        for line_num, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}, line {line_num}"
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInputError(f"malformed edge line {line!r} in {where}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise InvalidInputError(f"non-integer node in {where}: {line!r}") from None
            if u < 0 or v < 0 or u == v:
                raise InvalidInputError(f"bad edge ({u}, {v})")
            edges.append((u, v))
    if n_nodes is None:
        n_nodes = max((max(e) for e in edges), default=-1) + 1
    a = np.zeros((n_nodes, n_nodes))
    for u, v in edges:
        if u >= n_nodes or v >= n_nodes:
            raise InvalidInputError(f"edge ({u}, {v}) exceeds node count {n_nodes}")
        a[u, v] = a[v, u] = 1.0
    return a
