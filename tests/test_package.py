"""Package-level invariants that no single module test covers."""

import importlib
import pkgutil

import pytest

import seqret

MODULES = sorted(info.name for info in pkgutil.iter_modules(seqret.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"seqret.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"seqret.{name}.__all__ names missing attributes: {missing}"
