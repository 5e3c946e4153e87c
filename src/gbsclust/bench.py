"""Synthetic datasets and the three-way benchmark harness.

Datasets are seeded point layouts on a small latitude/longitude patch,
scaled so the DBSCAN preset (eps = 0.005, 2 points) is meaningful.  Each
dataset is clustered by the GBS driver, k-means with elbow-selected k, and
DBSCAN with noise reattachment; all three are scored with the same graph
and distance matrix.  Per-dataset package errors (``GbsClustError``) are
recorded on their row and excluded from the aggregates rather than aborting
the run; any other exception is a bug and propagates.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real

import numpy as np

from . import baselines, graph_core, metrics, qclust
from .errors import CapacityError, GbsClustError, InvalidInputError
from .gbs_engine import MODE_PNR, max_nodes

__all__ = [
    "BenchConfig",
    "BenchRow",
    "BenchReport",
    "generate_dataset",
    "run_benchmark",
    "emit_report",
]

METHODS = ("gbs", "kmeans", "dbscan")


@dataclass
class BenchConfig:
    """Benchmark settings; field names match the JSON config exactly.

    Datasets cycle through two location profiles.  Three of every four are
    "strip" datasets: two road-like point strips with different point
    spacings, far apart, the regime where density chaining and graph
    density disagree.  The fourth is a "blob" dataset: 2 to 4 isotropic
    Gaussian blobs whose spread straddles the DBSCAN radius.
    """

    dataset_count: int = 30
    m_min: int = 15
    m_max: int = 25
    box_lat: float = 45.0
    box_lon: float = 7.0
    strip_box: float = 0.08
    strip_separation: float = 0.045
    strip_spacing_short: tuple = (0.0022, 0.0028)
    strip_spacing_long: tuple = (0.0040, 0.0046)
    strip_jitter: float = 0.0005
    blob_min: int = 2
    blob_max: int = 4
    blob_box: float = 0.05
    blob_separation: float = 0.02
    jitter_sigma: float = 0.006
    blob_every: int = 4
    d_percentile: float = 0.35
    gbs_samples: int = 50
    gbs_mode: str = MODE_PNR
    kmeans_k_max: int = 8
    dbscan_eps: float = 0.005
    dbscan_min_pts: int = 2
    master_seed: int = 6

    def __post_init__(self):
        # reject, never convert, so a config's report bytes cannot move
        for f in fields(self):
            value = getattr(self, f.name)
            kind = {"int": Integral, "float": Real}.get(f.type)
            if kind and (
                isinstance(value, bool)
                or not isinstance(value, kind)
                or (f.type == "float" and not math.isfinite(value))
            ):
                noun = "an integer" if f.type == "int" else "a finite number"
                raise InvalidInputError(f"{f.name} must be {noun}, got {value!r}")
        for name, low in (
            ("dataset_count", 1),
            ("blob_every", 1),
            ("master_seed", 0),
            ("gbs_samples", 1),
            ("kmeans_k_max", 3),
            ("dbscan_min_pts", 1),
        ):
            if getattr(self, name) < low:
                raise InvalidInputError(f"{name} must be at least {low}")
        if self.dbscan_eps <= 0:
            raise InvalidInputError("dbscan_eps must be positive")
        if not 2 <= self.m_min <= self.m_max:
            raise InvalidInputError("need 2 <= m_min <= m_max")
        limit = max_nodes(self.gbs_mode)
        if self.m_max > limit:
            raise CapacityError(
                f"m_max {self.m_max} exceeds the {self.gbs_mode} sampler bound {limit}"
            )
        if not 1 <= self.blob_min <= self.blob_max:
            raise InvalidInputError("need 1 <= blob_min <= blob_max")
        for name in ("strip_spacing_short", "strip_spacing_long"):
            bounds = getattr(self, name)
            numbers = isinstance(bounds, (list, tuple)) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in bounds
            )
            if not (numbers and len(bounds) == 2 and 0 < bounds[0] <= bounds[1] < math.inf):
                raise InvalidInputError(
                    f"{name} must be two finite positive numbers, low <= high; "
                    f"got {bounds!r}"
                )
            setattr(self, name, tuple(bounds))
        if self.blob_box <= 0 or self.strip_box <= 0 or self.jitter_sigma <= 0:
            raise InvalidInputError("degenerate bounding box or jitter")

    @classmethod
    def from_json(cls, path) -> "BenchConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise InvalidInputError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InvalidInputError(
                f"config {path} must be a JSON object, got {type(raw).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
        return cls(**raw)


@dataclass
class BenchRow:
    dataset_id: int
    method: str
    silhouette: float | None = None
    weighted_density: float | None = None
    cohesion: float | None = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == ""


@dataclass
class BenchReport:
    config: BenchConfig
    rows: list[BenchRow] = field(default_factory=list)

    def summary(self) -> dict:
        out: dict = {"dataset_count": self.config.dataset_count, "methods": {}}
        for method in METHODS:
            good = [r for r in self.rows if r.method == method and r.ok]
            stats = {}
            for name in ("silhouette", "weighted_density", "cohesion"):
                vals = np.array([getattr(r, name) for r in good], dtype=float)
                stats[name] = {
                    "mean": float(vals.mean()) if vals.size else None,
                    "std": float(vals.std()) if vals.size else None,
                }
            stats["rows_ok"] = len(good)
            out["methods"][method] = stats
        out["failed_rows"] = sum(1 for r in self.rows if not r.ok)
        return out


def generate_dataset(
    seed: int, m: int, config: BenchConfig, profile: str = "strip"
) -> graph_core.PointSet:
    """One synthetic dataset, deterministic per seed.

    ``profile`` picks the shape family.  "strip": two line-shaped point
    strips (round-robin split) with one short and one long spacing, placed
    at least ``strip_separation`` apart.  "blob": 2 to 4 isotropic Gaussian
    blobs, round-robin points, shared jitter sigma.
    """
    if m < 2:
        raise InvalidInputError("need at least 2 points")
    rng = np.random.default_rng(seed)
    if profile == "strip":
        return _strip_dataset(rng, m, config)
    if profile == "blob":
        return _blob_dataset(rng, m, config)
    raise InvalidInputError(f"unknown dataset profile {profile!r}")


def _ids(m: int) -> list[str]:
    return [f"p{i:03d}" for i in range(m)]


def _strip_dataset(rng, m, config: BenchConfig) -> graph_core.PointSet:
    lo, hi = config.box_lat, config.box_lat + config.strip_box
    lo2, hi2 = config.box_lon, config.box_lon + config.strip_box
    for _ in range(200):
        centers = np.column_stack([rng.uniform(lo, hi, 2), rng.uniform(lo2, hi2, 2)])
        if np.linalg.norm(centers[0] - centers[1]) >= config.strip_separation:
            break
    assignment = np.arange(m) % 2
    spacings = [
        rng.uniform(*config.strip_spacing_short),
        rng.uniform(*config.strip_spacing_long),
    ]
    coords = np.empty((m, 2))
    for b in range(2):
        members = np.nonzero(assignment == b)[0]
        theta = rng.uniform(0.0, np.pi)
        direction = np.array([np.cos(theta), np.sin(theta)])
        normal = np.array([-direction[1], direction[0]])
        offsets = (np.arange(members.size) - (members.size - 1) / 2.0) * spacings[b]
        coords[members] = (
            centers[b][None, :]
            + offsets[:, None] * direction[None, :]
            + rng.normal(0.0, config.strip_jitter, (members.size, 1)) * normal[None, :]
        )
    return graph_core.PointSet(ids=_ids(m), coords=coords)


def _blob_dataset(rng, m, config: BenchConfig) -> graph_core.PointSet:
    n_blobs = int(rng.integers(config.blob_min, config.blob_max + 1))
    for _ in range(300):
        centers = np.column_stack(
            [
                rng.uniform(config.box_lat, config.box_lat + config.blob_box, n_blobs),
                rng.uniform(config.box_lon, config.box_lon + config.blob_box, n_blobs),
            ]
        )
        gaps = graph_core.pairwise_distances(centers)
        if n_blobs == 1 or gaps[np.triu_indices(n_blobs, 1)].min() >= config.blob_separation:
            break
    assignment = np.arange(m) % n_blobs
    coords = centers[assignment] + rng.normal(0.0, config.jitter_sigma, (m, 2))
    return graph_core.PointSet(ids=_ids(m), coords=coords)


def _run_one(
    method: str,
    points: graph_core.PointSet,
    d: np.ndarray,
    a: np.ndarray,
    config: BenchConfig,
    seed: int,
) -> qclust.Clustering:
    if method == "gbs":
        params = qclust.ClusterParams(
            n_samples=config.gbs_samples, mode=config.gbs_mode, seed=seed
        )
        return qclust.gbs_cluster(a, params)
    if method == "kmeans":
        return baselines.elbow_select_k(points, config.kmeans_k_max, seed=seed).to_clustering()
    return baselines.dbscan_with_postprocess(  # the last of METHODS
        d, config.dbscan_eps, config.dbscan_min_pts, a
    )


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Score every method on every generated dataset.

    Deterministic: per-dataset seeds derive from the master seed and the
    dataset index, and all methods of one dataset see the identical graph
    and the one distance matrix it was built from.
    """
    report = BenchReport(config=config)
    for idx in range(config.dataset_count):
        data_seed = qclust.derive_seed(config.master_seed, idx)
        rng = np.random.default_rng(data_seed)
        m = int(rng.integers(config.m_min, config.m_max + 1))
        profile = "blob" if (idx + 1) % config.blob_every == 0 else "strip"
        points = generate_dataset(
            qclust.derive_seed(config.master_seed, idx, 1), m, config, profile=profile
        )
        d = graph_core.compute_distance_matrix(points)
        a = graph_core.threshold_graph(d, config.d_percentile)
        method_seed = qclust.derive_seed(config.master_seed, idx, 2)
        for method in METHODS:
            row = BenchRow(dataset_id=idx, method=method)
            try:
                clustering = _run_one(method, points, d, a, config, method_seed)
                scores = metrics.compute_report(d, clustering, a)
                row.silhouette = scores.silhouette
                row.weighted_density = scores.weighted_density
                row.cohesion = scores.cohesion
            except GbsClustError as exc:  # fail-soft: keep the run alive
                row.error = f"{type(exc).__name__}: {exc}"
            report.rows.append(row)
    return report


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def emit_report(report: BenchReport, out_dir) -> tuple[str, str]:
    """Write report.csv (one row per dataset and method) and summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "summary.json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dataset_id", "method", "silhouette", "weighted_density", "cohesion", "error"]
        )
        for row in report.rows:
            writer.writerow(
                [
                    row.dataset_id,
                    row.method,
                    _fmt(row.silhouette),
                    _fmt(row.weighted_density),
                    _fmt(row.cohesion),
                    row.error,
                ]
            )
    payload = {"config": asdict(report.config), "summary": report.summary()}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
