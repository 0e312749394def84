"""Every exported name exists, so ``from tring import *`` and any tool that
walks ``__all__`` (the benchmark's tracer wraps each entry) never meet a
stale one, and every name at ``tring``'s top level is one that the README
or a demo shows.  The reference implementations in ``tests/oracles.py``
are each written once there, and import nothing from ``tring``."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import tring

LAYERS = ("images", "fileio", "graph", "tensor_ops", "ring", "solver", "metrics")
ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", ["tring"] + [f"tring.{layer}" for layer in LAYERS])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_every_top_level_name_is_documented_or_demonstrated():
    texts = [(ROOT / "README.md").read_text(encoding="utf-8")]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    shown = [name for name in tring.__all__
             if any(re.search(rf"\b{name}\b", text) for text in texts)]
    assert sorted(set(tring.__all__) - set(shown)) == []


@pytest.mark.parametrize("module, name", [
    ("solver", "search_point"), ("solver", "prox_step"), ("solver", "solve_core"),
    ("ring", "core_fold2"),
    ("metrics", "entropy"), ("metrics", "mutual_information"),
])
def test_layer_internals_stay_public_in_their_module(module, name):
    # Not exported from tring itself, but still in the layer's __all__,
    # so the tracer times them.
    mod = importlib.import_module(f"tring.{module}")
    assert name in mod.__all__ and name not in tring.__all__


def test_oracles_import_only_the_standard_library_and_numpy():
    # A reference that imported tring could move with the code it checks.
    nodes = list(ast.walk(_tree(TESTS / "oracles.py")))
    roots = {a.name.split(".")[0] for n in nodes if isinstance(n, ast.Import) for a in n.names}
    roots |= {(n.module or "").split(".")[0] for n in nodes if isinstance(n, ast.ImportFrom)}
    assert "tring" not in roots
    assert roots - {"numpy"} <= sys.stdlib_module_names


def test_no_test_module_redefines_an_oracle():
    oracles = {n.name for n in _tree(TESTS / "oracles.py").body if isinstance(n, ast.FunctionDef)}
    copies = [f"{path.name}: {n.name}" for path in sorted(TESTS.glob("test_*.py"))
              for n in _tree(path).body if isinstance(n, ast.FunctionDef) and n.name in oracles]
    assert oracles and copies == []
