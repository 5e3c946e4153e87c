import csv
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from gbsclust.bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    emit_report,
    generate_dataset,
    run_benchmark,
)
from gbsclust import qclust
from gbsclust.cli import main as cli_main
from gbsclust.errors import CapacityError, InvalidInputError
from gbsclust.gbs_engine import MODE_PNR, MODE_THRESHOLD
from gbsclust.graph_core import load_points_csv

SMALL = BenchConfig(dataset_count=4, m_min=10, m_max=12, master_seed=5)


class TestGenerateDataset:
    def test_deterministic(self):
        for profile in ("strip", "blob"):
            p1 = generate_dataset(42, 15, SMALL, profile=profile)
            p2 = generate_dataset(42, 15, SMALL, profile=profile)
            assert p1.ids == p2.ids
            assert np.array_equal(p1.coords, p2.coords)

    def test_round_robin_blob_sizes(self):
        config = BenchConfig(blob_min=3, blob_max=3, jitter_sigma=1e-7)
        points = generate_dataset(7, 15, config, profile="blob")
        # with negligible jitter the three blob populations are recoverable
        # by rounding, and round-robin assignment makes them 5/5/5
        groups = {}
        for xy in np.round(points.coords, 4):
            groups[tuple(xy)] = groups.get(tuple(xy), 0) + 1
        assert sorted(groups.values()) == [5, 5, 5]

    def test_single_blob_is_one_dbscan_cluster(self):
        from gbsclust.baselines import dbscan

        config = BenchConfig(blob_min=1, blob_max=1, jitter_sigma=0.001)
        points = generate_dataset(3, 15, config, profile="blob")
        result = dbscan(points, eps=0.005, min_pts=2)
        assert len(result.clusters) == 1
        assert result.noise == []

    def test_strip_profile_has_two_far_groups(self):
        config = BenchConfig()
        points = generate_dataset(11, 20, config, profile="strip")
        a = points.coords[0::2].mean(axis=0)
        b = points.coords[1::2].mean(axis=0)
        assert np.linalg.norm(a - b) >= config.strip_separation * 0.9

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(0, 1, SMALL)

    def test_unknown_profile_rejected(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(0, 10, SMALL, profile="spiral")


class TestConfig:
    def test_capacity_validation(self):
        with pytest.raises(CapacityError):
            BenchConfig(m_max=27)

    def test_capacity_bound_follows_mode(self):
        BenchConfig(m_max=26)
        BenchConfig(gbs_mode="threshold", m_max=20)
        with pytest.raises(CapacityError, match="threshold"):
            BenchConfig(gbs_mode="threshold", m_max=24)
        with pytest.raises(InvalidInputError):
            BenchConfig(gbs_mode="photon")

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"dataset_count": 3, "m_min": 8, "m_max": 10}))
        config = BenchConfig.from_json(path)
        assert config.dataset_count == 3
        assert config.m_min == 8

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"dataset_counts": 3}))
        with pytest.raises(InvalidInputError):
            BenchConfig.from_json(path)


class TestRunBenchmark:
    def test_rows_and_summary(self):
        report = run_benchmark(SMALL)
        assert len(report.rows) == SMALL.dataset_count * 3
        summary = report.summary()
        for method in ("gbs", "kmeans", "dbscan"):
            stats = summary["methods"][method]
            good = [r for r in report.rows if r.method == method and r.ok]
            if good:
                w = np.array([r.weighted_density for r in good])
                assert stats["weighted_density"]["mean"] == pytest.approx(
                    float(w.mean()), abs=1e-12
                )
                assert stats["weighted_density"]["std"] == pytest.approx(
                    float(w.std()), abs=1e-12
                )

    def test_metrics_in_range_on_every_row(self):
        report = run_benchmark(SMALL)
        for row in report.rows:
            if not row.ok:
                continue
            assert -1.0 <= row.silhouette <= 1.0
            assert 0.0 <= row.weighted_density <= 1.0
            assert -1.0 <= row.cohesion <= 1.0

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(points, params):
            return 1 / 0

        monkeypatch.setattr(qclust, "gbs_cluster", broken)
        with pytest.raises(ZeroDivisionError):
            run_benchmark(BenchConfig(dataset_count=1, m_min=10, m_max=10))

    def test_package_errors_recorded_on_their_row(self, monkeypatch):
        def too_big(points, params):
            raise CapacityError("too big")

        monkeypatch.setattr(qclust, "gbs_cluster", too_big)
        report = run_benchmark(BenchConfig(dataset_count=1, m_min=10, m_max=10))
        errors = {row.method: row.error for row in report.rows}
        assert errors == {"gbs": "CapacityError: too big", "kmeans": "", "dbscan": ""}

    def test_one_cluster_partition_scores(self):
        # bench-small's dataset 35 at this master seed: an 8-point blob that
        # GBS leaves as one cluster, which once failed its row
        config = BenchConfig(dataset_count=36, m_min=8, m_max=14, master_seed=978535258)
        row = next(
            r for r in run_benchmark(config).rows if r.dataset_id == 35 and r.method == "gbs"
        )
        assert row.error == ""
        assert row.silhouette == 0.0

    def test_deterministic_reports(self, tmp_path):
        r1 = run_benchmark(SMALL)
        r2 = run_benchmark(SMALL)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        emit_report(r1, d1)
        emit_report(r2, d2)
        assert (d1 / "report.csv").read_bytes() == (d2 / "report.csv").read_bytes()
        assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


# sha256 of report.csv + summary.json, recorded before k-means restarts ran
# in lockstep; seeds other than the benchmark's recorded one catch drift
# that a single pinned seed misses
PINNED_REPORTS = {
    (MODE_PNR, 1): "8e2acc7bff4249233aa4e2c78184209c17cb62fc8f59aa179d53fe3fa320402b",
    (MODE_PNR, 2): "f433483d2de6c3d57696a0b08ab6d3582623c2b8a96241260f03197f8971cbe1",
    (MODE_PNR, 3): "bed3ff1906e716b4c10320c2c334e4f22d07f1617c02ce055d6b705643934ea6",
    (MODE_THRESHOLD, 1): "efe39f722b0e2056c7f5ef273f88722d59525e942201fde0b05d413f1cb05e3b",
    (MODE_THRESHOLD, 2): "5278eec42e5216a19884a3a04382fd426f4d27d35a7f7061cf4bea57da850ba6",
    (MODE_THRESHOLD, 3): "be7cdf370feb90f8840c4664f174489b78cb74ec441a00f9b2d314dcf0897206",
}


@pytest.mark.parametrize(("mode", "seed"), sorted(PINNED_REPORTS))
def test_report_bytes_pinned(tmp_path, mode, seed):
    config = BenchConfig(dataset_count=8, m_min=8, m_max=12, gbs_mode=mode, master_seed=seed)
    csv_path, json_path = emit_report(run_benchmark(config), tmp_path)
    digest = hashlib.sha256()
    for path in (csv_path, json_path):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    assert digest.hexdigest() == PINNED_REPORTS[(mode, seed)]


class TestEmitReport:
    def test_csv_shape(self, tmp_path):
        report = run_benchmark(SMALL)
        csv_path, json_path = emit_report(report, tmp_path / "out")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "dataset_id",
            "method",
            "silhouette",
            "weighted_density",
            "cohesion",
            "error",
        ]
        assert len(rows) == 1 + SMALL.dataset_count * 3
        with open(json_path) as fh:
            payload = json.load(fh)
        assert set(payload) == {"config", "summary"}

    def test_empty_report_header_only(self, tmp_path):
        report = BenchReport(config=SMALL, rows=[])
        csv_path, _ = emit_report(report, tmp_path / "out")
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1

    def test_summary_recompute_from_csv(self, tmp_path):
        report = run_benchmark(SMALL)
        csv_path, json_path = emit_report(report, tmp_path / "out")
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            per_method = {}
            for row in reader:
                if row["error"]:
                    continue
                per_method.setdefault(row["method"], []).append(
                    float(row["weighted_density"])
                )
        with open(json_path) as fh:
            payload = json.load(fh)
        for method, values in per_method.items():
            stored = payload["summary"]["methods"][method]["weighted_density"]["mean"]
            assert stored == pytest.approx(float(np.mean(values)), abs=1e-12)


class TestCli:
    def test_gen_cluster_kmeans_dbscan(self, tmp_path):
        runner = CliRunner()
        points_path = tmp_path / "points.csv"
        result = runner.invoke(
            cli_main, ["gen", "--seed", "3", "--m", "12", "--out", str(points_path)]
        )
        assert result.exit_code == 0, result.output
        assert len(load_points_csv(points_path)) == 12

        for cmd, out_name in (
            (["cluster", "--samples", "20", "--seed", "1"], "gbs.json"),
            (["kmeans", "--k", "2", "--seed", "1"], "km.json"),
            (["kmeans", "--k", "auto", "--k-max", "5", "--seed", "1"], "km_auto.json"),
            (["dbscan"], "db.json"),
        ):
            out_path = tmp_path / out_name
            result = runner.invoke(
                cli_main,
                cmd + ["--input", str(points_path), "--out", str(out_path)],
            )
            assert result.exit_code == 0, result.output
            payload = json.loads(out_path.read_text())
            assert set(payload) == {"method", "params", "clusters"}
            flattened = sorted(i for c in payload["clusters"] for i in c)
            assert flattened == sorted(f"p{i:03d}" for i in range(12))

    def test_hafnian_and_sample(self, tmp_path):
        runner = CliRunner()
        graph_path = tmp_path / "k4.txt"
        graph_path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        result = runner.invoke(cli_main, ["hafnian", str(graph_path)])
        assert result.exit_code == 0
        assert result.output.strip() == "3"

        result = runner.invoke(
            cli_main,
            [
                "sample",
                "--graph",
                str(graph_path),
                "--n-mean",
                "2",
                "--samples",
                "5",
                "--seed",
                "0",
            ],
        )
        assert result.exit_code == 0
        lines = result.output.split("\n")[:-1]  # one line per subset, empty for {}
        assert len(lines) == 5
        for line in lines:
            if line:
                indices = [int(tok) for tok in line.split()]
                assert indices == sorted(indices)

    def test_bench_exit_codes(self, tmp_path):
        runner = CliRunner()
        config_path = tmp_path / "bench.json"
        config_path.write_text(
            json.dumps(
                {"dataset_count": 2, "m_min": 8, "m_max": 10, "master_seed": 5}
            )
        )
        out_dir = tmp_path / "out"
        result = runner.invoke(
            cli_main,
            ["bench", "--config", str(config_path), "--out", str(out_dir)],
        )
        assert result.exit_code == 0, result.output
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "summary.json").exists()


class TestCliErrors:
    """A package error ends a command with one ``Error:`` line, no traceback."""

    def invoke(self, tmp_path, csv_text, extra):
        points_path = tmp_path / "points.csv"
        points_path.write_text(csv_text)
        return CliRunner().invoke(
            cli_main,
            ["cluster", "--input", str(points_path), "--out", str(tmp_path / "g.json")]
            + extra,
        )

    def test_percentile_zero(self, tmp_path):
        result = self.invoke(
            tmp_path, "id,lat,lon\np0,0.1,0.2\np1,0.2,0.3\np2,0.5,0.5\n",
            ["--d-percentile", "0"],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: d_percentile must lie strictly in (0, 1)" in result.output
        assert "Traceback" not in result.output
        assert not (tmp_path / "g.json").exists()

    def test_unparsable_csv_cell(self, tmp_path):
        result = self.invoke(tmp_path, "id,lat,lon\np0,0.1,0.2\np1,abc,0.3\n", [])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: unparsable coordinate" in result.output
        assert "line 3" in result.output
        assert "Traceback" not in result.output

    def test_bench_failed_rows_keep_exit_code_one(self, tmp_path, monkeypatch):
        def too_big(a, params):
            raise CapacityError("too big")

        monkeypatch.setattr(qclust, "gbs_cluster", too_big)
        config_path = tmp_path / "bench.json"
        config_path.write_text(json.dumps({"dataset_count": 1, "m_min": 8, "m_max": 8}))
        result = CliRunner().invoke(
            cli_main, ["bench", "--config", str(config_path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert "1 failed rows" in result.output
        assert "Error:" not in result.output
