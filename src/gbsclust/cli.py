"""Command line interface."""

from __future__ import annotations

import json
import sys

import click

from . import baselines, bench, errors, gbs_engine, graph_core, matchers, qclust

_MODES = {"pnr": gbs_engine.MODE_PNR, "threshold": gbs_engine.MODE_THRESHOLD}

# numpy seeds every stream from a SeedSequence, which takes no negative entropy
_seed_option = click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))


def _write_clustering(clustering: qclust.Clustering, points, out_path: str) -> None:
    payload = clustering.to_json_dict(points)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {out_path} ({len(clustering.clusters)} clusters)")


class _Group(click.Group):
    """Command group that reports a package error as one ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except errors.GbsClustError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """GBS-based clustering toolkit."""


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--d-percentile", default=0.35, show_default=True)
@click.option("--samples", default=50, show_default=True)
@click.option("--mode", type=click.Choice(sorted(_MODES)), default="pnr", show_default=True)
@_seed_option
@click.option("--out", "out_path", required=True, type=click.Path())
def cluster(input_path, d_percentile, samples, mode, seed, out_path):
    """Cluster a points CSV with the GBS driver."""
    points = graph_core.load_points_csv(input_path)
    a = graph_core.threshold_graph(graph_core.compute_distance_matrix(points), d_percentile)
    params = qclust.ClusterParams(n_samples=samples, mode=_MODES[mode], seed=seed)
    _write_clustering(qclust.gbs_cluster(a, params), points, out_path)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--k", default="auto", show_default=True, help="cluster count or 'auto' for elbow selection")
@click.option("--k-max", default=8, show_default=True)
@_seed_option
@click.option("--out", "out_path", required=True, type=click.Path())
def kmeans(input_path, k, k_max, seed, out_path):
    """Cluster a points CSV with k-means."""
    points = graph_core.load_points_csv(input_path)
    if k == "auto":
        result = baselines.elbow_select_k(points, k_max, seed=seed)
    else:
        try:
            k = int(k)
        except ValueError:
            raise errors.InvalidInputError(
                f"--k must be 'auto' or a positive integer, got {k!r}"
            ) from None
        result = baselines.kmeans(points, k, seed=seed)
    _write_clustering(result.to_clustering(), points, out_path)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--eps", default=0.005, show_default=True)
@click.option("--min-pts", default=2, show_default=True)
@click.option("--d-percentile", default=0.35, show_default=True, help="threshold graph used to reattach noise")
@click.option("--out", "out_path", required=True, type=click.Path())
def dbscan(input_path, eps, min_pts, d_percentile, out_path):
    """Cluster a points CSV with DBSCAN plus graph noise reattachment."""
    points = graph_core.load_points_csv(input_path)
    d = graph_core.compute_distance_matrix(points)
    a = graph_core.threshold_graph(d, d_percentile)
    clustering = baselines.dbscan_with_postprocess(d, eps, min_pts, a)
    _write_clustering(clustering, points, out_path)


@main.command()
@click.argument("edge_list", type=click.Path(exists=True))
def hafnian(edge_list):
    """Print the perfect-matching count of an edge-list graph."""
    a = graph_core.read_edge_list(edge_list)
    click.echo(str(matchers.count_perfect_matchings(a)))


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True))
@click.option("--n-mean", required=True, type=float)
@click.option("--samples", "n_samples", default=50, show_default=True)
@click.option("--mode", type=click.Choice(sorted(_MODES)), default="pnr", show_default=True)
@_seed_option
def sample(graph_path, n_mean, n_samples, mode, seed):
    """Draw subsets from the GBS distribution of an edge-list graph."""
    a = graph_core.read_edge_list(graph_path)
    batch = gbs_engine.sample(a, n_mean, n_samples, mode=_MODES[mode], seed=seed)
    for subset in batch.samples:
        click.echo(" ".join(str(i) for i in subset))


@main.command(name="bench")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None, help="JSON config; defaults apply when omitted")
@click.option("--out", "out_dir", required=True, type=click.Path())
def bench_cmd(config_path, out_dir):
    """Run the three-method benchmark and write report.csv / summary.json."""
    config = bench.BenchConfig.from_json(config_path) if config_path else bench.BenchConfig()
    report = bench.run_benchmark(config)
    csv_path, json_path = bench.emit_report(report, out_dir)
    failed = sum(1 for r in report.rows if not r.ok)
    click.echo(f"wrote {csv_path} and {json_path}; {failed} failed rows")
    if failed:
        sys.exit(1)


@main.command()
@_seed_option
@click.option("--m", "m", default=20, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def gen(seed, m, out_path):
    """Generate one synthetic dataset as a points CSV."""
    config = bench.BenchConfig()
    points = bench.generate_dataset(seed, m, config)
    graph_core.save_points_csv(points, out_path)
    click.echo(f"wrote {out_path} ({m} points)")


if __name__ == "__main__":
    main()
