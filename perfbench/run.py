"""Benchmark of the ``gbsclust bench`` command.

    python3 perfbench/run.py --workload bench-default --seed 6 --seconds 40 --trace 0

Runs from the root of a source checkout; the package is imported from
``src/``.  Every timed call is a closed loop of one client: one fresh
interpreter (``perfbench/child.py``) makes one in-process
``gbsclust bench --config <workload> --out <dir>`` call, and the next call
starts when it has exited, so no weight table or peak RSS carries over.
Calls repeat until ``--seconds`` would be exceeded (at least one), each at
the next master seed drawn from ``--seed`` (see ``workloads.py``), and a few
extra interpreters only set up, so that set-up time is a median too.

``--trace 0`` prints the end-to-end metrics: set-up time, wall time and
peak RSS (medians over the calls), the share of rows without an error, and
the GBS quality means from the first call's summary.json.  ``--trace 1``
makes an untraced, a traced and another untraced call at one seed and
prints the per-layer metrics of the traced call plus the tracing overhead
against the mean of the untraced ones.

Outputs are correct when every report row is present and error-free, every
scored clustering is a partition, the summary agrees with the rows, a traced
call writes the same bytes as the untraced ones, and, at the recorded seed,
report.csv and summary.json match the recorded sha256 digests.  The last
line of standard output is one JSON object: correct, attempted (report
rows), failed (rows with an error) and metrics.  Without ``src/gbsclust``
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    """The environment of a call: this one, with ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(request: dict, label: str, out: Path, env: dict) -> tuple[dict, float]:
    """Run one fresh interpreter; return its result and its launch time."""
    out_dir = out / label
    request = dict(request, out_dir=str(out_dir), result=str(out / f"{label}.json"))
    request_path = out / f"{label}.request.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(request_path)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchmark call {label} exited with code {proc.returncode}")
    return json.loads(Path(request["result"]).read_text(encoding="utf-8")), launched


def problems_of(results: list[dict], recorded: dict) -> list[str]:
    """Correctness problems across the calls of one run.  ``recorded`` holds
    the digests a call at the recorded seed must reproduce."""
    from workloads import RECORDED_SEED

    problems = []
    for r in results:
        if r["exit_code"] != 0:
            problems.append(f"gbsclust bench exited with code {r['exit_code']}")
        problems.extend(r["problems"])
        problems.extend(r.get("span_problems", []))
        env = r["environment"]
        if env["threads"] > env["nproc"] or env["child_processes_cpu_s"] > 0:
            problems.append(
                f"load ran on {env['threads']} threads with {env['nproc']} CPUs "
                f"and {env['child_processes_cpu_s']} s in child processes"
            )
        if r["master_seed"] == RECORDED_SEED and r["digests"] != recorded:
            problems.append(f"report digests {r['digests']} differ from the recorded ones")
    return problems


def measure(config: dict, seeds, seconds: float, trace: bool, recorded: dict,
            out: Path) -> tuple[dict, dict, dict | None]:
    """One benchmark run of ``config``, each call at the next master seed of
    ``seeds``; return the result line, environment stamp and, for a traced
    run, the traffic record."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env()

    started = time.monotonic()
    first = {"config": dict(config, master_seed=next(seeds))}
    setups: list[float] = []
    results: list[dict] = []
    if not trace:
        for i in range(SETUP_PROBES):
            probe, launched = run_child(dict(first, setup_only=True), f"setup{i}", out, env)
            setups.append(probe["first_call"] - launched)
        while True:
            call = first if not results else {"config": dict(config, master_seed=next(seeds))}
            result, launched = run_child(call, f"call{len(results)}", out, env)
            setups.append(result["first_call"] - launched)
            results.append(result)
            per_call = statistics.median(r["wall_s"] for r in results)
            if time.monotonic() - started + per_call > seconds:
                break
    else:
        # untraced calls on both sides of the traced one, so that a drift in
        # machine speed cancels to first order in the overhead
        before, _ = run_child(first, "untraced0", out, env)
        traced, _ = run_child(dict(first, trace=True), "traced", out, env)
        after, _ = run_child(first, "untraced1", out, env)
        results = [before, traced, after]

    problems = problems_of(results, recorded)
    attempted = sum(r["rows"] for r in results)
    failed = sum(r["failed_rows"] for r in results)
    stamp = dict(results[0]["environment"],
                 master_seeds=[r["master_seed"] for r in results])
    traffic = None
    if not trace:
        # quality is read off the first call: its seed is the run's own
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
            "ok_row_frac": ((attempted - failed) / attempted, "ratio"),
            "gbs_weighted_density": (results[0]["gbs"]["weighted_density"], "score"),
            "gbs_cohesion": (results[0]["gbs"]["cohesion"], "score"),
            "gbs_silhouette": (results[0]["gbs"]["silhouette"], "score"),
        }
    else:
        if not traced["digests"] == before["digests"] == after["digests"]:
            problems.append("the traced call wrote other report bytes than the untraced ones")
        plain_s = (before["wall_s"] + after["wall_s"]) / 2
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = ((traced["wall_s"] - plain_s) / plain_s, "ratio")
        traffic = dict(traced["traffic"], dataset_sizes=traced["dataset_sizes"])
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return line, stamp, traffic


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gbsclust" / "__init__.py").is_file():
        print(f"no gbsclust package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gbsclust.bench import BenchConfig

    from workloads import DIGESTS, WORKLOADS, dataset_sizes, master_seeds

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    defaults = BenchConfig(**workload["config"])
    size_args = (defaults.dataset_count, defaults.m_min, defaults.m_max)
    seeds = master_seeds(args.seed, *size_args, workload["matched_sizes"])
    out = OUT / args.workload
    line, stamp, traffic = measure(
        workload["config"], seeds, args.seconds, bool(args.trace),
        DIGESTS[args.workload], out,
    )
    stamp = dict(stamp, workload=args.workload, seed=args.seed)
    (out / "environment.json").write_text(json.dumps(stamp, indent=2), encoding="utf-8")
    print("environment " + json.dumps(stamp, sort_keys=True))
    if traffic is not None:
        master = stamp["master_seeds"][0]
        if traffic["dataset_sizes"] != dataset_sizes(master, *size_args):
            print("incorrect: generate_dataset received other sizes than the seed "
                  "mapping in workloads.py assumes", file=sys.stderr)
            line["correct"] = False
        traffic = dict(traffic, workload=args.workload, master_seed=master)
        (out / "traffic.json").write_text(json.dumps(traffic, indent=2), encoding="utf-8")
        print("traffic " + json.dumps(traffic, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
