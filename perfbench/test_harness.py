"""Self-tests of the benchmark harness on a tiny bench config.

    python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {"dataset_count": 3, "m_min": 8, "m_max": 10}
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
OUT = run.OUT / "selftest"


@pytest.fixture(scope="module", autouse=True)
def clean_out():
    yield
    shutil.rmtree(OUT, ignore_errors=True)


def check_line(line: dict, declared: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        printed = line["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], float) and math.isfinite(printed["value"])


def test_every_end_to_end_metric_prints_with_its_unit():
    seeds = workloads.master_seeds(1, 3, 8, 10, 0)
    line, stamp, traffic = run.measure(TINY, seeds, 1.0, False, {}, OUT / "plain")
    check_line(line, DECLARED["end_to_end"])
    assert line["attempted"] == 9 * len(stamp["master_seeds"])
    assert len(set(stamp["master_seeds"])) == len(stamp["master_seeds"])
    assert traffic is None
    assert stamp["nproc"] >= 1 and stamp["numpy"] and stamp["threads"] >= 1


def test_every_per_layer_metric_prints_with_its_unit():
    seeds = workloads.master_seeds(1, 3, 8, 10, 0)
    line, _, traffic = run.measure(TINY, seeds, 1.0, True, {}, OUT / "traced")
    check_line(line, DECLARED["per_layer"])
    assert traffic["dataset_sizes"] == workloads.dataset_sizes(1, 3, 8, 10)
    assert traffic["initial_graphs"] == 3
    assert sum(traffic["call_n_hist"].values()) == traffic["sample_calls"]


def test_perturbed_report_fails_the_digest_gate():
    out = OUT / "digest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = dict(TINY, master_seed=workloads.RECORDED_SEED)
    result, _ = run.run_child({"config": config}, "call", out, run.child_env())
    recorded = dict(result["digests"])
    assert run.problems_of([result], recorded) == []

    report = out / "call" / "report.csv"
    text = report.read_text(encoding="utf-8")
    report.write_text(text.replace("0.", "1.", 1), encoding="utf-8")
    perturbed = dict(result, digests={name: child.digest(out / "call" / name)
                                      for name in child.REPORT_FILES})
    assert perturbed["digests"]["report.csv"] != recorded["report.csv"]
    assert any("differ from the recorded" in p for p in run.problems_of([perturbed], recorded))


def test_spans_nest_and_self_times_are_nonnegative():
    from gbsclust import bench

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            bench.run_benchmark(bench.BenchConfig(**TINY))
    finally:
        tracer.uninstall()
    assert tracer.span_problems() == []
    dur, self_t, parents = tracer.arrays()
    assert (self_t >= -1e-9).all()
    for sid, parent in enumerate(parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[sid]
            assert tracer.ends[sid] <= tracer.ends[parent]
    assert tracer.names[0] == "cli.main" and parents[0] == -1
    assert set(tracer.datasets) == {-1, 0, 1, 2}
    assert bench.run_benchmark.__name__ == "run_benchmark"
    assert not hasattr(bench.run_benchmark, "__wrapped__")


def test_span_check_flags_a_child_outside_its_parent():
    tracer = Tracer()
    with tracer.span("bench.run_benchmark"):
        pass
    with tracer.span("graph_core.graph_density"):
        pass
    tracer.parents[1] = 0
    assert any("outside its parent" in p for p in tracer.span_problems())


def test_recorded_seed_comes_first_and_others_keep_its_size_profile():
    sizes = (30, 15, 25)
    assert next(workloads.master_seeds(workloads.RECORDED_SEED, *sizes, 3)) == workloads.RECORDED_SEED
    target = workloads.dataset_sizes(workloads.RECORDED_SEED, *sizes)
    for seed in (0, 1):
        chosen = list(itertools.islice(workloads.master_seeds(seed, *sizes, 3), 3))
        assert chosen == list(itertools.islice(workloads.master_seeds(seed, *sizes, 3), 3))
        assert len(set(chosen)) == 3
        for master in chosen:
            got = workloads.dataset_sizes(master, *sizes)
            for m in (25, 24, 23):
                assert got.count(m) == target.count(m)
    assert next(workloads.master_seeds(7, *sizes, 0)) == 7
