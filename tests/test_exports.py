"""Every name a module of the package exports resolves.

A deletion that leaves its name in ``__all__`` breaks
``from gbsclust.<module> import *`` and nothing else, so each module is
star-imported here.
"""

import importlib
import pkgutil

import pytest

import gbsclust

MODULES = ["gbsclust"] + [f"gbsclust.{m.name}" for m in pkgutil.iter_modules(gbsclust.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
