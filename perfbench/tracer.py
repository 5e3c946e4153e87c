"""Span tracer that wraps gbsclust's public functions from outside the package.

Each function is wrapped at the name its caller looks up: ``bench`` and
``qclust`` reach graph functions as ``graph_core.<name>``, ``qclust`` reaches
the sampler as ``gbs_engine.sample``, ``gbs_engine`` calls the hafnian sweep
through its own global ``hafnian_all_subsets``, and ``metrics`` and
``baselines`` imported ``graph_density`` and ``post_process`` by name.  A span
is named after the module that defines the function, so a sweep is
``matchers.hafnian_all_subsets`` whichever module called it.

Spans stay in memory as (parent, name, start, end, dataset) rows; the dataset
is the index of the latest ``bench.generate_dataset`` call.  A few hooks read
call arguments and results to count work (hafnian pair updates, sampled graph
shapes, post-selection passes, accepted clusters) where it happens.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import time
from collections import Counter

import numpy as np

# hooks run in spans of their own, so their time is no layer's self time
HOOK_SPAN = "trace.hook"

# (module whose attribute the caller looks up, attribute name)
WRAP_POINTS = (
    ("bench", "run_benchmark"),
    ("bench", "emit_report"),
    ("bench", "generate_dataset"),
    ("graph_core", "compute_distance_matrix"),
    ("graph_core", "upper_triangle_values"),
    ("graph_core", "percentile"),
    ("graph_core", "build_adjacency"),
    ("graph_core", "induced_subgraph"),
    ("graph_core", "graph_density"),
    ("qclust", "gbs_cluster"),
    ("qclust", "find_densest_candidate"),
    ("qclust", "compute_threshold"),
    ("qclust", "post_process"),
    ("gbs_engine", "sample"),
    ("gbs_engine", "encode"),
    ("gbs_engine", "takagi"),
    ("gbs_engine", "calibrate_scaling"),
    ("gbs_engine", "hafnian_all_subsets"),
    ("baselines", "elbow_select_k"),
    ("baselines", "kmeans"),
    ("baselines", "dbscan_with_postprocess"),
    ("baselines", "dbscan"),
    ("baselines", "post_process"),
    ("metrics", "compute_report"),
    ("metrics", "silhouette"),
    ("metrics", "weighted_density"),
    ("metrics", "cohesion"),
    ("metrics", "compute_distance_matrix"),
    ("metrics", "edge_counts"),
    ("metrics", "graph_density"),
)


def component_sizes(a: np.ndarray) -> list[int]:
    """Connected component sizes of an adjacency matrix, largest first."""
    adj = np.asarray(a) != 0
    seen = np.zeros(adj.shape[0], dtype=bool)
    sizes = []
    for start in range(adj.shape[0]):
        if seen[start]:
            continue
        seen[start] = True
        frontier, size = [start], 0
        while frontier:
            v = frontier.pop()
            size += 1
            for w in np.nonzero(adj[v] & ~seen)[0]:
                seen[w] = True
                frontier.append(int(w))
        sizes.append(size)
    return sorted(sizes, reverse=True)


class Tracer:
    """In-memory span recorder plus the counters its hooks fill."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.datasets: list[int] = []
        self.dataset = -1
        self.dataset_sizes: list[int] = []
        self.counts = Counter()
        self.sample_first: dict[int, bool] = {}
        self.tables: dict[tuple, dict] = {}
        self.call_n: list[int] = []
        self.reused_n: list[int] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._cluster_sampled = True
        self._before = {
            "bench.generate_dataset": self._new_dataset,
            "qclust.gbs_cluster": self._new_cluster,
        }
        self._after = {
            "matchers.hafnian_all_subsets": self._count_sweep,
            "gbs_engine.sample": self._record_sample,
            "qclust.find_densest_candidate": self._count_pass,
            "qclust.post_process": self._count_accepted,
        }

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.datasets.append(self.dataset)
        self.ends.append(float("nan"))
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                hook = self._open(HOOK_SPAN)
                before(args, kwargs)
                self._close(hook)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                hook = self._open(HOOK_SPAN)
                after(sid, args, kwargs, result)
                self._close(hook)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every point in WRAP_POINTS; originals are read before any patch."""
        targets = []
        for modname, attr in WRAP_POINTS:
            module = importlib.import_module(f"gbsclust.{modname}")
            targets.append((module, attr, getattr(module, attr)))
        for module, attr, fn in targets:
            setattr(module, attr, self._wrap(fn))
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # -- hooks ---------------------------------------------------------------

    def _new_dataset(self, args, kwargs) -> None:
        self.dataset += 1
        self.dataset_sizes.append(int(args[1] if len(args) > 1 else kwargs["m"]))

    def _new_cluster(self, args, kwargs) -> None:
        self._cluster_sampled = False

    def _count_sweep(self, sid, args, kwargs, result) -> None:
        b = np.asarray(args[0])
        n = b.shape[0]
        self.counts["sweep_max_n"] = max(self.counts["sweep_max_n"], n)
        if n >= 2:
            nnz = int(np.count_nonzero(np.triu(b, 1)))
            self.counts["pair_updates"] += nnz << (n - 2)

    def _record_sample(self, sid, args, kwargs, result) -> None:
        a = np.ascontiguousarray(args[0], dtype=float)
        n_mean = float(args[1])
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "pnr_postselected")
        key = (hashlib.sha1(a.tobytes()).hexdigest(), a.shape[0], n_mean, mode)
        first = key not in self.tables
        self.sample_first[sid] = first
        if first:
            self.tables[key] = {
                "n": a.shape[0], "components": component_sizes(a), "dataset": self.dataset,
            }
        elif self.tables[key]["dataset"] != self.dataset:
            self.reused_n.append(a.shape[0])
        self.call_n.append(a.shape[0])
        parent = self.parents[sid]
        if parent >= 0 and self.names[parent] == "qclust.gbs_cluster":
            self.counts["rounds"] += 1
            if not self._cluster_sampled:
                self._cluster_sampled = True
                self.counts["initial_graphs"] += 1
                if len(self.tables[key]["components"]) > 1:
                    self.counts["initial_graphs_split"] += 1

    def _count_pass(self, sid, args, kwargs, result) -> None:
        samples = args[0].samples
        l_min = args[2] if len(args) > 2 else kwargs["l_min"]
        self.counts["samples_drawn"] += len(samples)
        self.counts["samples_passed"] += sum(1 for s in samples if len(s) >= l_min)

    def _count_accepted(self, sid, args, kwargs, result) -> None:
        # gbs_cluster hands the clusters its rounds accepted to post_process
        parent = self.parents[sid]
        if parent >= 0 and self.names[parent] == "qclust.gbs_cluster":
            clusters = args[1] if len(args) > 1 else kwargs["clusters"]
            self.counts["rounds_accepted"] += len(clusters)

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """(durations, self times, parents) as numpy arrays."""
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child, parents

    def span_problems(self, tol: float = 1e-9) -> list[str]:
        """Spans that are open, end before they start, stick out of their
        parent, or have negative self time."""
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} spans still open")
        dur, self_t, parents = self.arrays()
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        for sid in np.nonzero(~(dur >= 0))[0]:
            problems.append(f"span {sid} {self.names[sid]} has duration {dur[sid]}")
        for sid in np.nonzero(self_t < -tol)[0]:
            problems.append(f"span {sid} {self.names[sid]} has self time {self_t[sid]}")
        has_parent = np.nonzero(parents >= 0)[0]
        p = parents[has_parent]
        outside = (starts[has_parent] < starts[p]) | (ends[has_parent] > ends[p])
        for sid in has_parent[outside]:
            problems.append(f"span {sid} {self.names[sid]} lies outside its parent")
        return problems

    def traffic(self) -> dict:
        """Histogram of the graphs the sampler served, from its arguments."""
        tables = list(self.tables.values())
        shapes = Counter("+".join(map(str, t["components"])) for t in tables)
        return {
            "sample_calls": len(self.call_n),
            "tables": len(tables),
            "call_n_hist": _hist(self.call_n),
            "table_n_hist": _hist([t["n"] for t in tables]),
            # calls on a graph an earlier dataset already sampled
            "cross_dataset_reuse_n_hist": _hist(self.reused_n),
            "table_components_hist": dict(sorted(shapes.items())),
            "tables_split": sum(len(t["components"]) > 1 for t in tables),
            "tables_split_nontrivial": sum(
                sum(c >= 2 for c in t["components"]) > 1 for t in tables
            ),
            "initial_graphs": self.counts["initial_graphs"],
            "initial_graphs_split": self.counts["initial_graphs_split"],
            "max_component_n": max((t["components"][0] for t in tables), default=0),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: name -> (value, unit)."""
        dur, self_t, _ = self.arrays()
        names = np.asarray(self.names)

        def pick(name):
            return names == name

        def total(name):
            return float(dur[pick(name)].sum())

        def calls(name):
            return float(pick(name).sum())

        def module_self(module):
            mask = np.char.startswith(names.astype(str), module + ".")
            return float(self_t[mask].sum())

        sample_ids = np.nonzero(pick("gbs_engine.sample"))[0]
        first = np.array([self.sample_first[int(s)] for s in sample_ids], dtype=bool)
        cluster_durs = dur[pick("qclust.gbs_cluster")]
        sweep_s = total("matchers.hafnian_all_subsets")
        updates = self.counts["pair_updates"]
        rounds = self.counts["rounds"]
        drawn = self.counts["samples_drawn"]
        table_n = [t["n"] for t in self.tables.values()]
        traffic = self.traffic()
        return {
            "matchers.hafnian_all_subsets.calls": (calls("matchers.hafnian_all_subsets"), "count"),
            "matchers.hafnian_all_subsets.s": (sweep_s, "s"),
            "matchers.hafnian_all_subsets.max_n": (float(self.counts["sweep_max_n"]), "nodes"),
            "matchers.hafnian_all_subsets.pair_updates": (float(updates), "count"),
            "matchers.hafnian_all_subsets.ns_per_update": (
                sweep_s * 1e9 / updates if updates else 0.0, "ns"),
            "gbs_engine.sample.calls": (float(sample_ids.size), "count"),
            "gbs_engine.sample.first_s": (float(self_t[sample_ids[first]].sum()), "s"),
            "gbs_engine.sample.repeat_s": (float(self_t[sample_ids[~first]].sum()), "s"),
            "gbs_engine.distinct_tables": (float(len(self.tables)), "count"),
            "gbs_engine.calibrate_scaling.calls": (calls("gbs_engine.calibrate_scaling"), "count"),
            "gbs_engine.calibrate_scaling.s": (total("gbs_engine.calibrate_scaling"), "s"),
            "gbs_engine.takagi.s": (total("gbs_engine.takagi"), "s"),
            "qclust.gbs_cluster.s": (float(cluster_durs.sum()), "s"),
            "qclust.gbs_cluster.s_p50": (
                float(np.median(cluster_durs)) if cluster_durs.size else 0.0, "s"),
            "qclust.self_s": (module_self("qclust"), "s"),
            "qclust.find_densest_candidate.s": (total("qclust.find_densest_candidate"), "s"),
            "qclust.rounds": (float(rounds), "count"),
            "qclust.round_accept_frac": (
                self.counts["rounds_accepted"] / rounds if rounds else 0.0, "ratio"),
            "qclust.sample_pass_frac": (
                self.counts["samples_passed"] / drawn if drawn else 0.0, "ratio"),
            "baselines.elbow_select_k.s": (total("baselines.elbow_select_k"), "s"),
            "baselines.kmeans.calls": (calls("baselines.kmeans"), "count"),
            "baselines.kmeans.s": (total("baselines.kmeans"), "s"),
            "baselines.dbscan_with_postprocess.s": (total("baselines.dbscan_with_postprocess"), "s"),
            "metrics.compute_report.s": (total("metrics.compute_report"), "s"),
            "metrics.silhouette.s": (total("metrics.silhouette"), "s"),
            "graph_core.compute_distance_matrix.calls": (
                calls("graph_core.compute_distance_matrix"), "count"),
            "graph_core.graph_density.calls": (calls("graph_core.graph_density"), "count"),
            "graph_core.s": (module_self("graph_core"), "s"),
            "bench.generate_dataset.s": (total("bench.generate_dataset"), "s"),
            "bench.emit_report.s": (total("bench.emit_report"), "s"),
            "bench.self_s": (module_self("bench"), "s"),
            "cli.self_s": (module_self("cli"), "s"),
            "traffic.graph_n_p50": (float(np.median(table_n)) if table_n else 0.0, "nodes"),
            "traffic.max_component_n": (float(traffic["max_component_n"]), "nodes"),
            "traffic.split_graph_frac": (
                traffic["tables_split"] / traffic["tables"] if traffic["tables"] else 0.0,
                "ratio"),
        }

    def write_spans(self, path) -> None:
        """Spans as rows of [parent, name, start_s, end_s, dataset], times
        relative to the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [p, n, s - t0, e - t0, d]
            for p, n, s, e, d in zip(
                self.parents, self.names, self.starts, self.ends, self.datasets
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["parent", "name", "start_s", "end_s", "dataset"],
                       "spans": rows}, fh)


def _hist(values) -> dict[str, int]:
    return {str(k): v for k, v in sorted(Counter(values).items())}
