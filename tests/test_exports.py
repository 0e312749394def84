"""Every exported name exists, so ``from tring import *`` and any tool that
walks ``__all__`` (the benchmark's tracer wraps each entry) never meet a
stale one, and every name at ``tring``'s top level is one that the README
or a demo shows."""

import importlib
import re
from pathlib import Path

import pytest

import tring

LAYERS = ("images", "fileio", "graph", "tensor_ops", "ring", "solver", "metrics")
ROOT = Path(__file__).resolve().parent.parent


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
