"""One cold ``gbsclust bench`` call in a fresh interpreter.

    python3 perfbench/child.py <request.json>

The request holds the bench config, the output directory, the result path,
and whether to trace or only to set up.  Set-up (interpreter start, imports,
config load) ends at the first call into the workload, a
``gbsclust bench --config <file> --out <dir>`` call made in process; the
process then times that call, checks the partitions it scored and the report
it wrote, and writes its findings as JSON to the result path.  A fresh
process per timed call keeps the sampler's module-level weight cache and the
peak RSS of one call out of the next.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

REPORT_FILES = ("report.csv", "summary.json")
METHODS = ("gbs", "kmeans", "dbscan")
SCORE_RANGES = {
    "silhouette": (-1.0, 1.0),
    "weighted_density": (0.0, 1.0),
    "cohesion": (-1.0, 1.0),
}


def partition_error(points, clustering) -> str | None:
    """Why ``clustering`` is not a partition of the points, or None."""
    n = len(points)
    if clustering.n_points != n:
        return f"clustering covers {clustering.n_points} points, dataset has {n}"
    seen = [int(i) for cluster in clustering.clusters for i in cluster]
    if any(not cluster for cluster in clustering.clusters):
        return "empty cluster"
    if sorted(seen) != list(range(n)):
        return "clusters do not cover every point exactly once"
    return None


def check_report(out_dir: Path, dataset_count: int) -> tuple[list[str], int, int]:
    """Problems found in report.csv and summary.json, rows, failed rows."""
    problems = []
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(str(i), m) for i in range(dataset_count) for m in METHODS]
    if [(r["dataset_id"], r["method"]) for r in rows] != expected:
        problems.append("report.csv rows are not one per dataset and method")
    failed = [r for r in rows if r["error"]]
    for r in failed[:5]:
        problems.append(f"dataset {r['dataset_id']} {r['method']} failed: {r['error']}")
    for r in rows:
        if r["error"]:
            continue
        for name, (lo, hi) in SCORE_RANGES.items():
            value = float(r[name])
            if not (math.isfinite(value) and lo - 1e-9 <= value <= hi + 1e-9):
                problems.append(f"dataset {r['dataset_id']} {r['method']} {name}={value}")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))["summary"]
    if summary["failed_rows"] != len(failed):
        problems.append("summary.json failed_rows disagrees with report.csv")
    for method in METHODS:
        good = [r for r in rows if r["method"] == method and not r["error"]]
        for name in SCORE_RANGES:
            mean = summary["methods"][method][name]["mean"]
            if good and not math.isclose(
                mean, sum(float(r[name]) for r in good) / len(good), rel_tol=1e-9
            ):
                problems.append(f"summary.json {method} {name} mean disagrees with report.csv")
    return problems, len(rows), len(failed)


def environment() -> dict:
    """Interpreter, numpy and BLAS versions, BLAS thread settings, threads."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "threads": threads,
        "child_processes_cpu_s": sum(resource.getrusage(resource.RUSAGE_CHILDREN)[:2]),
    }


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    from gbsclust import bench, cli, metrics

    out_dir = Path(request["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    config = bench.BenchConfig(**request["config"])
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(request["config"]), encoding="utf-8")

    partition_errors: list[str] = []
    compute_report = metrics.compute_report

    @functools.wraps(compute_report)
    def checked_compute_report(points, clustering, a):
        error = partition_error(points, clustering)
        if error is not None:
            partition_errors.append(f"{clustering.method}: {error}")
        return compute_report(points, clustering, a)

    metrics.compute_report = checked_compute_report

    tracer = None
    if request.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    result: dict = {"first_call": time.monotonic()}
    if not request.get("setup_only"):
        args = ["bench", "--config", str(config_path), "--out", str(out_dir)]
        start = time.perf_counter()
        try:
            if tracer is None:
                cli.main(args, standalone_mode=False)
            else:
                with tracer.span("cli.main"):
                    cli.main(args, standalone_mode=False)
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_code"] = exit_code
        problems, rows, failed = check_report(out_dir, config.dataset_count)
        result["problems"] = problems + partition_errors[:5]
        result["rows"] = rows
        result["failed_rows"] = failed
        result["digests"] = {name: digest(out_dir / name) for name in REPORT_FILES}
        result["master_seed"] = config.master_seed
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        result["gbs"] = {
            name: summary["summary"]["methods"]["gbs"][name]["mean"]
            for name in SCORE_RANGES
        }
        result["environment"] = environment()
        if tracer is not None:
            tracer.uninstall()
            result["span_problems"] = tracer.span_problems()[:5]
            result["layers"] = tracer.layer_metrics()
            result["traffic"] = tracer.traffic()
            result["dataset_sizes"] = tracer.dataset_sizes
            tracer.write_spans(out_dir / "spans.json")
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
