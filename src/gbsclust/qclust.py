"""Iterative densest-subgraph clustering driven by GBS samples.

The driver takes the caller's graph (a symmetric 0/1 adjacency matrix with a
zero diagonal, typically ``graph_core.threshold_graph`` of a point set) and
repeatedly samples node subsets from the GBS distribution of the remaining
graph.  Each round keeps only subsets of at least L nodes, takes the densest
one (ties go to the larger subset), and accepts it as a cluster when its
density clears a threshold that decays geometrically over failed rounds.
Accepted clusters leave the graph; when the leftover graph is too small or
too sparse, the remaining nodes are attached to clusters by a
connectivity-ratio rule, with fully disconnected nodes becoming singletons.

Two stall guards keep the loop finite on awkward graphs.  After every third
of the per-cluster round budget with no acceptance, the post-selection size
L is halved while it exceeds 2: in photon-counting mode only even-size
subsets ever appear, so an odd minimum can silently exclude every dense
candidate.  If a full budget of rounds passes without any acceptance,
extraction stops and whatever is left goes straight to post-processing.

The loop's fixed settings, for R remaining nodes:

- ``N_MEAN_FACTOR`` (0.5): the photon budget is 0.5 * R;
- ``L_FACTOR`` (1/3): post-selection keeps subsets of at least ceil(R / 3)
  nodes;
- ``T0``, ``GAMMA``, ``T_MIN`` (0.90, 0.95, 0.50): after i failed rounds the
  acceptance threshold is max(T_MIN, T0 * GAMMA**i);
- ``MIN_REMAINING`` (3): extraction stops below this many nodes;
- ``MAX_ROUNDS_PER_CLUSTER`` (50): the round budget of one extraction.
- ``HALVING_PATIENCE`` (16): L is halved after failed rounds 16, 32 and 48.

Child seeds come from ``derive_seed(seed, *path)``, the first word of
``SeedSequence([seed, *path])`` (of ``[*path]`` for a None seed): round r of
a run draws with ``derive_seed(seed, r)``, and the benchmark derives its
dataset, point and method seeds the same way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import gbs_engine, graph_core
from .errors import InvalidInputError, check_integer, check_seed, check_symmetric
from .gbs_engine import MODE_PNR, SampleBatch

__all__ = [
    "ClusterParams",
    "Clustering",
    "compute_threshold",
    "derive_seed",
    "find_densest_candidate",
    "post_process",
    "gbs_cluster",
]


N_MEAN_FACTOR = 0.5
L_FACTOR = 1.0 / 3.0
T0 = 0.90
GAMMA = 0.95
T_MIN = 0.50
MIN_REMAINING = 3
MAX_ROUNDS_PER_CLUSTER = 50
HALVING_PATIENCE = MAX_ROUNDS_PER_CLUSTER // 3


@dataclass
class ClusterParams:
    """Settings of one GBS clustering run: 50 samples per round by default."""

    n_samples: int = 50
    mode: str = MODE_PNR
    seed: int | None = None

    def __post_init__(self):
        check_integer("n_samples", self.n_samples, 1)
        check_seed(self.seed)
        gbs_engine.max_nodes(self.mode)  # rejects an unknown mode


@dataclass
class Clustering:
    """A full partition of point indices into clusters."""

    clusters: list[list[int]]
    n_points: int
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_integer("n_points", self.n_points, 1)
        seen: set[int] = set()
        for cluster in self.clusters:
            if not cluster:
                raise InvalidInputError("empty cluster in partition")
            for node in cluster:
                if node in seen:
                    raise InvalidInputError(f"node {node} assigned twice")
                seen.add(node)
        if seen != set(range(self.n_points)):
            raise InvalidInputError("clusters do not partition the point set")
        self.clusters = [sorted(int(i) for i in c) for c in self.clusters]

    @property
    def labels(self) -> np.ndarray:
        out = np.empty(self.n_points, dtype=int)
        for cid, cluster in enumerate(self.clusters):
            out[cluster] = cid
        return out

    def to_json_dict(self, points: graph_core.PointSet) -> dict:
        """The partition with each node named by its point id."""
        clusters = [[points.ids[i] for i in c] for c in self.clusters]
        return {"method": self.method, "params": self.params, "clusters": clusters}


def compute_threshold(i: int) -> float:
    """Density acceptance threshold after ``i`` failed rounds."""
    if i < 0:
        raise InvalidInputError("round index must be nonnegative")
    return max(T_MIN, T0 * GAMMA ** i)


def find_densest_candidate(
    batch: SampleBatch, a: np.ndarray, l_min: int
) -> tuple[tuple[int, ...], float] | None:
    """Densest post-selected subset of a batch and its density, or None if
    all are too small.

    Keeps subsets with at least ``l_min`` nodes; ranks by density, then by
    size, then by lexicographically smallest node list so the choice is
    deterministic.  The kept rows of the batch's 0/1 matrix are scored
    together as a float matrix H: twice a subset's edge count is the row
    sum of (H a) * H, an exact integer on a 0/1 ``a``, so each density
    equals ``graph_core.graph_density``'s bit for bit; a subset of at most
    one node scores 0.  Node tuples are built only for the rows tied at the
    best density and size.  ``a`` must be square, finite and symmetric,
    and the batch must have one column per node of it.
    """
    # NaN never ties the best density, inf * 0 is NaN in H @ a, and the
    # row sums count edges only on a symmetric a
    a = check_symmetric(a, "graph")
    if batch.hits.shape[1] != a.shape[0]:
        raise InvalidInputError(
            f"batch has {batch.hits.shape[1]} node columns, the graph {a.shape[0]} nodes"
        )
    counts = np.count_nonzero(batch.hits, axis=1)
    keep = counts >= l_min
    if not keep.any():
        return None
    hits = batch.hits[keep].astype(float)
    sizes = counts[keep].astype(float)
    pairs = sizes * (sizes - 1.0)
    density = np.divide(
        ((hits @ a) * hits).sum(axis=1), pairs, out=np.zeros(len(hits)), where=pairs > 0.0
    )
    top = density.max()
    tied = density == top
    tied &= sizes == sizes[tied].max()
    best = min(tuple(np.flatnonzero(row).tolist()) for row in hits[tied])
    return best, float(top)


def post_process(
    unclustered,
    clusters: list[list[int]],
    a: np.ndarray,
) -> list[list[int]]:
    """Attach leftover nodes to clusters by connectivity ratio.

    A node with no edge into any cluster becomes a singleton.  Otherwise it
    joins the cluster maximizing edges(node, cluster) / |cluster|, ties
    broken by the smaller cluster index.  Nodes are handled in ascending
    index order against the cluster sizes as they were on entry, so the
    order of processing never changes a ratio denominator.  ``a`` must be a
    symmetric 0/1 matrix with a zero diagonal, and every node, leftover or
    clustered, an index into it.
    """
    a = graph_core.check_adjacency(a)
    nodes = sorted(int(n) for n in unclustered)
    for node in (*nodes, *(int(n) for c in clusters for n in c)):
        if not 0 <= node < len(a):
            raise InvalidInputError(f"node {node} out of range for a {len(a)}-node graph")
    # column 0 stands for a singleton, so a row with no positive ratio picks it
    ratio = np.zeros((len(nodes), len(clusters) + 1))
    for cid, members in enumerate(clusters, start=1):
        if members:
            ratio[:, cid] = a[np.ix_(nodes, members)].sum(axis=1) / len(members)
    result = [list(c) for c in clusters]
    for node, cid in zip(nodes, ratio.argmax(axis=1).tolist()):
        if cid:
            result[cid - 1].append(node)
        else:
            result.append([node])
    return [sorted(c) for c in result if c]


def derive_seed(seed: int | None, *path: int) -> int:
    """Child seed of ``seed`` at ``path``; a None seed uses the path alone.
    The seed and every path entry must be integers of at least 0."""
    check_seed(seed)
    for i, step in enumerate(path):
        check_integer(f"path[{i}]", step, 0)
    entropy = [*path] if seed is None else [seed, *path]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def gbs_cluster(a: np.ndarray, params: ClusterParams | None = None) -> Clustering:
    """Cluster the nodes of graph ``a`` with the GBS densest-subgraph loop.

    ``a`` must be a symmetric 0/1 matrix with a zero diagonal; anything else
    raises InvalidInputError.  Deterministic given (a, params).  The returned
    clustering is always a full partition of the nodes; accepted clusters
    have density above the decay floor, everything else is attached in
    post-processing.
    """
    params = params or ClusterParams()
    a = graph_core.check_adjacency(a)
    m_total = a.shape[0]

    remaining = list(range(m_total))
    clusters: list[list[int]] = []
    round_index = 0
    # a 2-point input must still reach the sampler, so the stop size never
    # exceeds the input size (and never drops below a samplable pair)
    stop_size = max(2, min(MIN_REMAINING, m_total))

    while len(remaining) >= stop_size:
        sub = graph_core.induced_subgraph(a, remaining)
        if sub.sum() == 0:
            break  # leftover graph has no edges, nothing left to sample
        n_mean = N_MEAN_FACTOR * len(remaining)
        l_min = math.ceil(L_FACTOR * len(remaining))
        sampler = gbs_engine.GraphSampler(sub, n_mean, params.mode)

        accepted: tuple[int, ...] | None = None
        # every round before an acceptance failed, so the index counts them
        for failed in range(MAX_ROUNDS_PER_CLUSTER):
            batch = gbs_engine.sample(
                sub,
                n_mean,
                params.n_samples,
                mode=params.mode,
                seed=derive_seed(params.seed, round_index),
                sampler=sampler,
            )
            round_index += 1
            candidate = find_densest_candidate(batch, sub, l_min)
            if candidate is not None and candidate[1] > compute_threshold(failed):
                accepted = candidate[0]
                break
            if (failed + 1) % HALVING_PATIENCE == 0 and l_min > 2:
                l_min = math.ceil(l_min / 2)
        del sampler  # the extraction is over, so are its weight tables

        if accepted is None:
            break  # budget exhausted with nothing dense enough; post-process
        clusters.append(sorted(remaining[i] for i in accepted))
        remaining = [n for i, n in enumerate(remaining) if i not in accepted]

    final = post_process(remaining, clusters, a)
    return Clustering(
        clusters=final,
        n_points=m_total,
        method="gbs",
        params=asdict(params),
    )
