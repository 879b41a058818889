"""The traced benchmark wraps layer functions by name; they must exist."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kunz

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


LOADED_PROBE = """
import json, sys
import kunz.cli
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("kunz."))))
"""


def test_cli_import_loads_every_traced_layer():
    # tracing.py reads sys.modules["kunz.<layer>"] right after importing
    # kunz.cli, so every layer must be in sys.modules, lazily or not
    source = str(Path(kunz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source}
    out = subprocess.run([sys.executable, "-c", LOADED_PROBE],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    layers = {f"kunz.{module_name}" for module_name, _ in _layers()}
    assert layers <= set(json.loads(out.stdout))


@pytest.mark.parametrize("command, job, layer", [
    ("tame", "p = 5;\nbranch = 2, 3;\n", "textio.parse_job"),
    ("hk", "p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\nemax = 1;\n",
     "hk.hk_sequence"),
])
def test_tracing_a_job_records_its_layers(tmp_path, command, job, layer):
    # tracing.py as the benchmark runs it: a child in place of kunz.cli
    path = tmp_path / "job.txt"
    path.write_text(job)
    spans_path = tmp_path / "spans.json"
    source = str(Path(kunz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source}
    out = subprocess.run([sys.executable, str(TRACING), str(spans_path),
                          command, "--input", str(path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["payload"]
    spans = json.loads(spans_path.read_text())["spans"]
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    assert layer in {name for name, *_ in spans[1:]}


@pytest.mark.parametrize("job, flags, code", [
    ("p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\n", ["--emax", "1"], 0),
    ("p = 5;\nvars = x;\nideal\n", [], 2),
    ("p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\n", ["--emax", "x"], 2),
], ids=["success", "job_parse_error", "usage_error"])
def test_traced_call_exits_with_the_job_code(tmp_path, job, flags, code):
    # the call tracing.py makes: it always ends in SystemExit
    cli = importlib.import_module("kunz.cli")
    path = tmp_path / "job.txt"
    path.write_text(job)
    with pytest.raises(SystemExit) as stop:
        cli.main.main(args=["hk", "--input", str(path), *flags],
                      prog_name="kunz")
    assert stop.value.code == code
