"""The public names: every ``__all__`` entry resolves, and none is listed twice."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import signalnorm

SUBMODULES = sorted(
    (importlib.import_module(f"signalnorm.{info.name}")
     for info in pkgutil.iter_modules(signalnorm.__path__)),
    key=lambda module: module.__name__,
)
# The CLI module is the only one that declares no public names.
MODULES = [module for module in SUBMODULES if hasattr(module, "__all__")]


def test_package_all_resolves_without_duplicates():
    assert len(set(signalnorm.__all__)) == len(signalnorm.__all__)
    assert [name for name in signalnorm.__all__ if not hasattr(signalnorm, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_submodule_all_resolves(module):
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_perfbench_traced_functions_resolve(monkeypatch):
    """The benchmark's tracer rebinds each function of its TRACED table by
    module path, so a fold or a move of one of them would crash every traced run."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    unresolved = [f"{modname}.{fname}" for modname, funcs in tracing.TRACED.items()
                  for fname in funcs
                  if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert tracing.TRACED and unresolved == []
