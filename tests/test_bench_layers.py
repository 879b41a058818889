"""The traced benchmark wraps layer functions by name; they must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "kunzbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("kunzbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module_name, path", _layers())
def test_traced_layer_resolves(module_name, path):
    owner = importlib.import_module(f"kunz.{module_name}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
        assert inspect.isclass(owner)
    # A module-level layer is wrapped by rebinding the module global, so it
    # must be a plain function defined in that module.
    target = getattr(owner, attr)
    assert inspect.isfunction(target)
    if not classes:
        assert target.__module__ == f"kunz.{module_name}"


def test_traced_pair_counter_resolves():
    # tracing.py counts engine.pairs by patching this attribute, which is
    # not a layer, so the test above does not cover it
    engine = importlib.import_module("kunz.engine")
    assert engine.BudgetTracker.charge_pair is engine.Budget.charge_pair
