"""Every exported name resolves.

The benchmark's tracer wraps each layer by calling getattr on every name
in its ``__all__``, so a stale entry would fail every traced run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import riskbounds

LAYERS = ("bounds", "models", "measures", "quadrature", "oracle", "sdpi",
          "distributions")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_name_in_all_resolves(layer):
    module = importlib.import_module(f"riskbounds.{layer}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_import_exists():
    tree = ast.parse(Path(riskbounds.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"riskbounds.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert hasattr(riskbounds, alias.asname or alias.name)
