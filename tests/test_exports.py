"""The public names: every ``__all__`` entry resolves, and none is listed twice."""

import importlib
import pkgutil

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
