"""Every exported name resolves, and no layer exports anything that only
tests call, apart from its named oracles.

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


# each layer's exports that only tests call, each kept as an oracle: the
# simplified p = 3/2 constant is dominated by the Hellinger bound; the
# Dobrushin coefficient, the Renyi contraction ratio and its sampled
# estimate reproduce the paper's claim that Renyi divergences can contract
# more slowly than the Dobrushin coefficient (acceptance criteria 6 and
# 10); the one-model Monte-Carlo risk checks the pooled one; the
# contraction-refined Hellinger bound of one noisy model is the closed form
# of criterion 7 and checks the noisy sdpi column.  The quadrature oracles
# of the closed forms live in tests/quadrature_oracle.py
ORACLES = {
    "bounds": set(),
    "models": {"gaussian_hellinger_closed_form_bound", "noisy_bernoulli_bound"},
    "measures": set(),
    "quadrature": set(),
    "oracle": {"mc_risk"},
    "sdpi": {"dobrushin_coefficient", "renyi_sdpi_ratio", "eta_estimate_by_sampling"},
    "distributions": set(),
}


@pytest.mark.parametrize("layer", LAYERS)
def test_every_export_is_used_by_the_package(layer):
    # code that only tests call is kept only as an oracle, and an oracle is
    # not part of a layer's public interface
    module = importlib.import_module(f"riskbounds.{layer}")
    unused = set(module.__all__) - _package_reads()
    assert sorted(unused - ORACLES[layer]) == []
    # an oracle that the package starts to call leaves the list
    assert sorted(ORACLES[layer] - unused) == []


def test_only_models_imports_quadrature():
    # the quadrature layer serves the Bernoulli MI alone
    importers = set()
    for path in Path(riskbounds.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any("quadrature" in name.split(".") for name in names):
                    importers.add(path.stem)
    assert importers == {"models"}
