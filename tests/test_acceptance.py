"""End-to-end acceptance suite.

Each test prints one pass/fail line so the whole gate is readable from the
test log.  Expected values come from independent routes: pairing
enumeration for matching counts, brute-force photon-pattern sums for the
threshold detector, and hand-derived closed forms.
"""

import itertools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from gbsclust import baselines, bench, gbs_engine, graph_core, matchers, metrics, qclust
from gbsclust.cli import main as cli_main

from helpers import (
    MultisetHafnian,
    adjusted_rand_index,
    count_matchings_bruteforce,
    graph_from_edges,
    hafnian_bruteforce,
    pnr_support_masses,
    subset_probabilities,
    total_variation_distance,
)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


@pytest.fixture(scope="module")
def bench_report():
    config = bench.BenchConfig()
    started = time.time()
    result = bench.run_benchmark(config)
    return result, time.time() - started


def test_criterion_01_hafnian_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    started = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7)) * 2
        a = (rng.random((n, n)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        fast = matchers.hafnian_fast(a)
        ref = matchers.hafnian(a)
        denom = max(1.0, abs(ref))
        worst = max(worst, abs(fast - ref) / denom)
    counts_ok = (
        matchers.count_perfect_matchings(graph_from_edges(4, list(itertools.combinations(range(4), 2)))) == 3
        and matchers.count_perfect_matchings(graph_from_edges(6, list(itertools.combinations(range(6), 2)))) == 15
        and matchers.count_perfect_matchings(graph_from_edges(5, list(itertools.combinations(range(5), 2)))) == 0
    )
    elapsed = time.time() - started
    report(
        1,
        "hafnian oracle equivalence",
        worst < 1e-9 and counts_ok and elapsed < 10.0,
        f"worst rel err {worst:.2e}, K4/K6/odd counts ok={counts_ok}, {elapsed:.1f}s",
    )


def test_criterion_02_takagi_reconstruction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 26))
        a = rng.normal(size=(n, n))
        a = a + a.T
        factors = gbs_engine.takagi(a)
        err = np.linalg.norm(factors.reconstruct() - a)
        worst = max(worst, err / max(1.0, np.linalg.norm(a)))
    report(2, "takagi reconstruction", worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_03_scaling_calibration():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        lam = rng.uniform(0.05, 4.0, size=int(rng.integers(1, 14)))
        n_mean = float(rng.uniform(0.1, 12.0))
        c = gbs_engine.calibrate_scaling(lam, n_mean)
        x = (c * lam) ** 2
        worst = max(worst, abs(float(np.sum(x / (1 - x))) - n_mean))
    c_unit = gbs_engine.calibrate_scaling(np.array([1.0]), 1.0)
    closed_form_err = abs(c_unit - 1 / np.sqrt(2))
    report(
        3,
        "scaling calibration",
        worst < 1e-9 and closed_form_err < 1e-12,
        f"worst photon-budget err {worst:.2e}, closed-form err {closed_form_err:.2e}",
    )


def test_criterion_04_normalization_oracle():
    a = graph_from_edges(2, [(0, 1)])
    enc = gbs_engine.encode(a, 1.0)
    sums = []
    for cutoff in (5, 10, 15, 20):
        total = sum(
            gbs_engine.probability_pnr(a, enc, (n1, n2))
            for n1 in range(cutoff + 1)
            for n2 in range(cutoff + 1)
        )
        sums.append(total)
    increasing = all(a_ < b_ for a_, b_ in zip(sums, sums[1:]))
    report(
        4,
        "normalization oracle",
        sums[-1] > 0.999 and increasing,
        f"cutoff-20 sum {sums[-1]:.12f}, increasing={increasing}",
    )


def test_criterion_05_threshold_pnr_consistency():
    worst_spread = 0.0
    n_graphs = 0
    for m in (2, 3, 4):
        all_pairs = list(itertools.combinations(range(m), 2))
        for edge_bits in range(1, 1 << len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs)) if (edge_bits >> i) & 1]
            a = graph_from_edges(m, edges)
            n_mean = 0.5
            enc = gbs_engine.encode(a, n_mean, mode=gbs_engine.MODE_THRESHOLD)
            masses = pnr_support_masses(a, enc.c, cutoff=8)
            dist = subset_probabilities(a, n_mean, mode=gbs_engine.MODE_THRESHOLD)
            ratios = []
            for support, mass in masses.items():
                subset = tuple(sorted(support))
                weight = dist.get(subset, 0.0)
                ratios.append(weight / mass)
            ratios = np.array(ratios)
            spread = float(ratios.max() / ratios.min() - 1.0)
            worst_spread = max(worst_spread, spread)
            n_graphs += 1
    report(
        5,
        "threshold/pnr consistency",
        worst_spread < 1e-3,
        f"{n_graphs} graphs, worst ratio spread {worst_spread:.2e}",
    )


def test_criterion_06_sampler_fidelity():
    # two triangles joined by a bridge
    a = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    n_mean, n_samples = 3.0, 50_000
    started = time.time()
    enc = gbs_engine.encode(a, n_mean)
    exact = {}
    for r in range(0, 7, 2):
        for subset in itertools.combinations(range(6), r):
            sub = a[np.ix_(subset, subset)]
            w = enc.c ** len(subset) * hafnian_bruteforce(sub) ** 2
            if w > 0.0:
                exact[subset] = w
    total = sum(exact.values())
    exact = {k: v / total for k, v in exact.items()}
    batch = gbs_engine.sample(a, n_mean, n_samples, seed=20240801)
    counts: dict = {}
    for s in batch.samples:
        counts[s] = counts.get(s, 0) + 1
    empirical = {k: v / n_samples for k, v in counts.items()}
    tvd = total_variation_distance(exact, empirical)
    elapsed = time.time() - started
    report(
        6,
        "sampler fidelity",
        tvd < 0.02 and elapsed < 60.0,
        f"TVD {tvd:.4f} over {len(exact)} outcomes, {elapsed:.1f}s",
    )


def three_cliques_points(seed=123):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 10.0]])
    coords = []
    for c in centers:
        coords.extend(c + rng.uniform(-0.1, 0.1, size=(5, 2)))
    return graph_core.PointSet([f"p{i}" for i in range(15)], np.array(coords))


def test_criterion_07_clustering_ground_truth():
    points = three_cliques_points()
    truth = np.repeat([0, 1, 2], 5)
    all_exact = True
    for seed in range(10):
        result = qclust.gbs_cluster(
            graph_core.build_adjacency(graph_core.compute_distance_matrix(points), 1.0),
            qclust.ClusterParams(seed=seed),
        )
        ari = adjusted_rand_index(result.labels, truth)
        if ari != pytest.approx(1.0):
            all_exact = False
            break
    rng = np.random.default_rng(1)
    scattered = graph_core.PointSet(
        [str(i) for i in range(8)], rng.uniform(0, 1000, size=(8, 2))
    )
    singletons = qclust.gbs_cluster(
        graph_core.build_adjacency(graph_core.compute_distance_matrix(scattered), 1e-9),
        qclust.ClusterParams(seed=0),
    )
    all_singleton = singletons.clusters == [[i] for i in range(8)]
    report(
        7,
        "clustering ground truth",
        all_exact and all_singleton,
        f"three cliques exact over 10 seeds={all_exact}, empty graph singletons={all_singleton}",
    )


def test_criterion_08_benchmark_trend(bench_report):
    result, elapsed = bench_report
    summary = result.summary()["methods"]

    def means(method):
        s = summary[method]
        return (
            s["weighted_density"]["mean"],
            s["cohesion"]["mean"],
            s["silhouette"]["mean"],
        )

    gw, gc, gs = means("gbs")
    dw, dc, ds = means("dbscan")
    kw, kc, ks = means("kmeans")
    w_ok = gw >= dw >= kw
    coh_ok = gc >= dc >= kc
    sil_ok = ks > gs and ks > ds
    time_ok = elapsed < 1800.0
    report(
        8,
        "benchmark trend",
        w_ok and coh_ok and sil_ok and time_ok,
        f"w {gw:.3f}/{dw:.3f}/{kw:.3f}, cohesion {gc:.3f}/{dc:.3f}/{kc:.3f}, "
        f"silhouette {gs:.2f}/{ds:.2f}/{ks:.2f} (gbs/dbscan/kmeans), {elapsed:.0f}s",
    )


def test_criterion_09_metric_unit_checks(bench_report):
    two_triangles = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    parts = qclust.Clustering(
        clusters=[[0, 1, 2], [3, 4, 5]], n_points=6, method="fixture"
    )
    w = metrics.weighted_density(parts, two_triangles)
    coh = metrics.cohesion(parts, two_triangles)

    tight_pairs = graph_core.PointSet(
        ["a", "b", "c", "d"],
        np.array([[0.0, 0.0], [0.0, 0.01], [10.0, 10.0], [10.0, 10.01]]),
    )
    pair_clusters = qclust.Clustering(
        clusters=[[0, 1], [2, 3]], n_points=4, method="fixture"
    )
    sil = metrics.silhouette(graph_core.compute_distance_matrix(tight_pairs), pair_clusters)

    result, _ = bench_report
    rows_in_range = all(
        (-1.0 <= r.silhouette <= 1.0)
        and (0.0 <= r.weighted_density <= 1.0)
        and (-1.0 <= r.cohesion <= 1.0)
        for r in result.rows
        if r.ok
    )
    no_failed_rows = all(r.ok for r in result.rows)
    report(
        9,
        "metric unit checks",
        w == 1.0 and coh == 1.0 and abs(sil - 0.999) < 1e-3 and rows_in_range and no_failed_rows,
        f"w={w}, cohesion={coh}, silhouette={sil:.5f}, rows in range={rows_in_range}",
    )


def test_criterion_10_bench_determinism(tmp_path):
    runner = CliRunner()
    config_path = tmp_path / "bench.json"
    config_path.write_text(
        '{"dataset_count": 4, "m_min": 10, "m_max": 13, "master_seed": 3}'
    )
    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        result = runner.invoke(
            cli_main, ["bench", "--config", str(config_path), "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        outputs.append(
            (
                (out_dir / "report.csv").read_bytes(),
                (out_dir / "summary.json").read_bytes(),
            )
        )
    identical = outputs[0] == outputs[1]
    report(10, "bench determinism", identical, "byte-identical report.csv and summary.json")
