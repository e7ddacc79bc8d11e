"""Package-level invariants that no single module test covers."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import seqret

MODULES = sorted(info.name for info in pkgutil.iter_modules(seqret.__path__))
ROOT = Path(__file__).resolve().parent.parent
# Public names whose only caller is the frozen tests/test_acceptance.py.
ACCEPTANCE_ONLY = {"fisher_kernel", "unwarp_time"}


@functools.cache
def program_references() -> set[str]:
    """Every name that the package, the scripts and perfbench load, read as
    an attribute or import."""
    names: set[str] = set()
    for folder in (ROOT / "src" / "seqret", ROOT / "scripts", ROOT / "perfbench"):
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"seqret.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"seqret.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_program_caller(name):
    """No public function exists only for its tests."""
    module = importlib.import_module(f"seqret.{name}")
    unused = sorted(set(getattr(module, "__all__", ())) - program_references() - ACCEPTANCE_ONLY)
    assert not unused, f"seqret.{name}.__all__ names used only by tests: {unused}"
