"""GBS-based clustering on a classical simulator, with classical baselines."""

from .baselines import dbscan, dbscan_with_postprocess, elbow_select_k, kmeans
from .bench import BenchConfig, emit_report, generate_dataset, run_benchmark
from .errors import (
    CapacityError,
    DegenerateGraphError,
    GbsClustError,
    InvalidInputError,
    NoSolutionError,
    NumericError,
)
from .gbs_engine import (
    MODE_PNR,
    MODE_THRESHOLD,
    GbsEncoding,
    GraphSampler,
    SampleBatch,
    TakagiFactors,
    calibrate_scaling,
    encode,
    sample,
    subset_weight,
    takagi,
)
from .graph_core import (
    PointSet,
    build_adjacency,
    compute_distance_matrix,
    edge_counts,
    graph_density,
    induced_subgraph,
    load_points_csv,
    percentile,
    save_points_csv,
    threshold_graph,
    upper_triangle_values,
)
from .matchers import (
    count_perfect_matchings,
    hafnian,
    hafnian_fast,
    torontonian,
)
from .metrics import MetricsReport, cohesion, compute_report, silhouette, weighted_density
from .qclust import ClusterParams, Clustering, gbs_cluster, post_process

__version__ = "0.1.0"
