"""The package names the benchmark harness relies on.

``perfbench/tracer.py`` wraps the functions listed in its ``WRAP_POINTS``
by module attribute, and its hooks read some arguments by position;
``perfbench/child.py`` wraps ``metrics.compute_report`` as a call of three
positional arguments, ``(d, clustering, a)``, and reads only ``len()`` of
the first, which for the (M, M) distance matrix is the point count M.  A
rename or a signature change in the package would break the benchmark
without failing any other test, so all three are checked here.  The
tracer is read as source, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gbsclust import baselines, bench, gbs_engine, metrics, qclust

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def wrap_points():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAP_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAP_POINTS in {TRACER}")


WRAP_POINTS = wrap_points()


@pytest.mark.parametrize(
    "modname, attr", WRAP_POINTS, ids=[f"{m}.{a}" for m, a in WRAP_POINTS]
)
def test_wrap_point_is_a_callable_attribute(modname, attr):
    module = importlib.import_module(f"gbsclust.{modname}")
    assert callable(getattr(module, attr, None)), f"gbsclust.{modname}.{attr}"


def test_compute_report_takes_points_clustering_and_graph():
    inspect.signature(metrics.compute_report).bind(1, 2, 3)


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_sample_starts_with_graph_and_photon_target_and_takes_mode():
    # the tracer keys weight tables by args[0], args[1] and mode (or args[3])
    params = parameters(gbs_engine.sample)
    assert params[:2] == ["a", "n_mean"]
    assert params[3] == "mode"


def test_find_densest_candidate_takes_batch_graph_and_size_floor():
    # the tracer counts passing samples from args[0].samples and args[2]
    assert parameters(qclust.find_densest_candidate) == ["batch", "a", "l_min"]


def test_batch_samples_are_one_ascending_tuple_per_row():
    # the tracer reads args[0].samples and the len() of each subset
    a = np.ones((6, 6)) - np.eye(6)
    batch = gbs_engine.GraphSampler(a, 2.0, gbs_engine.MODE_THRESHOLD).draw(40, seed=3)
    samples = batch.samples
    assert isinstance(samples, list) and len(samples) == len(batch.hits)
    for subset, row in zip(samples, batch.hits):
        assert type(subset) is tuple
        assert all(type(i) is int for i in subset)
        assert list(subset) == sorted(set(subset))
        assert len(subset) == np.count_nonzero(row)
        assert all(row[i] for i in subset)


def test_post_process_takes_clusters_second():
    # the tracer counts accepted clusters from args[1]
    assert parameters(qclust.post_process)[1] == "clusters"


def test_dbscan_with_postprocess_reaches_both_spans_through_the_module():
    # the tracer's dbscan and post_process spans nest under
    # dbscan_with_postprocess only if it calls them as baselines' globals
    d = np.array([[0.0, 0.001, 5.0], [0.001, 0.0, 5.0], [5.0, 5.0, 0.0]])
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with (
        mock.patch.object(baselines, "dbscan", wraps=baselines.dbscan) as dbscan,
        mock.patch.object(baselines, "post_process", wraps=baselines.post_process) as post,
    ):
        baselines.dbscan_with_postprocess(d, 0.01, 2, a)
    assert dbscan.call_count == 1
    assert post.call_count == 1


def test_dbscan_components_add_no_span():
    # dbscan clusters through graph_core.connected_components, which no
    # span wraps, so each dbscan call stays one span
    assert ("graph_core", "connected_components") not in WRAP_POINTS


def test_generate_dataset_takes_point_count_second():
    # the tracer reads each dataset's size from args[1]
    assert parameters(bench.generate_dataset)[1] == "m"
