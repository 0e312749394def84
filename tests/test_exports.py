"""Every exported name exists, so ``from tring import *`` and any tool that
walks ``__all__`` (the benchmark's tracer wraps each entry) never meet a
stale one."""

import importlib

import pytest

LAYERS = ("images", "fileio", "graph", "tensor_ops", "ring", "solver", "metrics")


@pytest.mark.parametrize("module", ["tring"] + [f"tring.{layer}" for layer in LAYERS])
def test_every_public_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
