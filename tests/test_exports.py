"""The public names: every ``__all__`` entry resolves, none is listed twice, each
package-level name has one home module, the README cites only package names, and
the library functions state the same tuning defaults as the config."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import signalnorm
from signalnorm import calibration, harness, highdim, lowdim, model, pipeline, slope

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


def test_each_package_name_has_one_home():
    """Each package-level name is declared public by exactly one submodule, and
    the package re-exports that module's object, so it has one import path."""
    homes = {name: [m for m in MODULES if name in m.__all__] for name in signalnorm.__all__}
    assert {name: [m.__name__ for m in found] for name, found in homes.items()
            if len(found) != 1} == {}
    assert [name for name, (home,) in homes.items()
            if getattr(signalnorm, name) is not getattr(home, name)] == []


def test_readme_cites_only_package_names():
    """Every `sn.<name>` in the README is in the package's `__all__`, so a name
    that leaves the namespace cannot stay behind in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cited = set(re.findall(r"\bsn\.(\w+)", readme))
    assert cited and sorted(cited - set(signalnorm.__all__)) == []


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


# Each tuning constant's and entry law's default, stated by every library callable
# that takes it (as (callable, parameter)); the CLI states no tuning default and
# forwards only what is given.
DEFAULT_OWNERS = {
    "alpha": [(f, "alpha") for f in (pipeline.estimate, pipeline.detect,
                                     calibration.calibrate_beta, lowdim.estimate_lowdim,
                                     highdim.estimate_highdim)],
    "c1": [(f, "c1") for f in (pipeline.estimate, pipeline.detect, calibration.calibrate_beta,
                               highdim.estimate_highdim, slope.sqrt_slope_fit,
                               slope.slope_weights)],
    "delta": [(f, "delta") for f in (pipeline.detect, calibration.calibrate_beta,
                                     harness.summarize, harness.report)],
    "calib_trials": [(pipeline.detect, "calib_trials"), (calibration.calibrate_beta, "trials")],
    "design": [(calibration.calibrate_beta, "design"), (model.ModelSpec, "design")],
    "noise": [(calibration.calibrate_beta, "noise"), (model.ModelSpec, "noise")],
}


@pytest.mark.parametrize("name", sorted(DEFAULT_OWNERS))
def test_library_defaults_agree_with_config(name):
    """The library and `ExperimentConfig` each state a tuning constant's or an
    entry law's default; they state the same one."""
    expected = getattr(harness.ExperimentConfig(seed=0), name)
    got = {f"{func.__qualname__}({param})": inspect.signature(func).parameters[param].default
           for func, param in DEFAULT_OWNERS[name]}
    assert got == dict.fromkeys(got, expected)
