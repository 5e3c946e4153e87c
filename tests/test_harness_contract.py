"""The package names the benchmark harness relies on.

``perfbench/tracer.py`` wraps the functions listed in its ``WRAP_POINTS``
by module attribute, and ``perfbench/child.py`` wraps
``metrics.compute_report`` with a ``(points, clustering, a)`` signature.
A rename or a signature change in the package would break the benchmark
without failing any other test, so both are checked here.  The tracer is
read as source, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from gbsclust import metrics

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
