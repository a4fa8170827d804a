"""Every exported name resolves, and the bounds and models layers export
nothing that only tests call, apart from the named oracles of `models`.

The benchmark's tracer wraps each layer by calling getattr on every name
in its ``__all__``, so a stale entry would fail every traced run.
"""

import ast
import importlib
import inspect
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


def _used_names(tree):
    """The names a module reads, as a variable or an attribute, outside the
    definition that binds them and outside annotations; an import, an
    assignment or an ``__all__`` string is not a read."""
    used = set()

    def walk(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        read = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read = node.attr
        if read is not None and read not in own:
            used.add(read)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    walk(child, own)

    walk(tree, frozenset())
    return used


def _package_reads():
    used = set()
    for path in Path(riskbounds.__file__).parent.glob("*.py"):
        used |= _used_names(ast.parse(path.read_text()))
    return used


def test_every_bounds_export_is_used_by_the_package():
    # code that only tests call is kept only as an oracle, and an oracle of
    # the bounds is not part of their public interface
    from riskbounds import bounds

    used = _package_reads()
    assert [name for name in bounds.__all__ if name not in used] == []


# the exported model functions that only tests call, each an oracle: the
# exact noisy joint shows where the single-letter contraction breaks, and
# the simplified p = 3/2 constant is dominated by the Hellinger bound
MODEL_ORACLES = {"noisy_bernoulli_joint", "gaussian_hellinger_closed_form_bound"}


def test_every_models_function_is_used_by_the_package():
    from riskbounds import models

    functions = {name for name in models.__all__
                 if inspect.isfunction(getattr(models, name))}
    used = _package_reads()
    assert sorted(functions - used - MODEL_ORACLES) == []
    # an oracle that the package starts to call leaves the list
    assert sorted(MODEL_ORACLES - (functions - used)) == []
