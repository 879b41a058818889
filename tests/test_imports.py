"""Each command compiles only the modules it runs, and the package's public
names resolve on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kunz
from test_readme import JOB_COMMANDS, job_files

# Prints the kunz modules that have run, after `import kunz.cli` and after
# the command line in argv, if any. A lazily registered module that was
# never touched is not a plain ModuleType. The document goes to --json.
EXECUTED_PROBE = """
import json, sys, types

def executed():
    return sorted(name.removeprefix("kunz.")
                  for name, module in sys.modules.items()
                  if name.startswith("kunz.")
                  and type(module) is types.ModuleType)

import kunz.cli
seen = {"import": executed()}
if len(sys.argv) > 1:
    try:
        kunz.cli.main.main(args=sys.argv[1:], prog_name="kunz")
    except SystemExit as stop:
        seen["exit"] = stop.code
    seen["job"] = executed()
print(json.dumps(seen))
"""


def executed(args=()):
    source = str(Path(kunz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source}
    out = subprocess.run([sys.executable, "-c", EXECUTED_PROBE, *args],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_importing_the_cli_runs_no_layer_module():
    assert executed()["import"] == ["cli", "errors", "records", "textio"]


# modules each command must never run: on node.job (x*y), a diagonal
# hypersurface, hk, fsig and fedder take every number from a theorem
NEVER_RUN = {
    "tame": {"budget", "engine", "poly", "kernel", "localring", "hk",
             "fsplit", "scan", "series"},
    "hk": {"engine", "curves", "series", "fsplit", "scan"},
    "fsig": {"engine", "curves", "series", "scan"},
    "fedder": {"engine", "curves", "series", "scan"},
}
# (README job file, command, the statements it leaves out): fedder runs
# node.job, which it reads but for its emax
RUNS = [(name, command, ()) for name, commands in JOB_COMMANDS.items()
        for command in commands] + [("node", "fedder", ("emax",))]


@pytest.mark.parametrize("name, command, left_out", RUNS,
                         ids=[f"{name}-{command}" for name, command, _ in RUNS])
def test_a_command_runs_only_the_modules_it_calls(tmp_path, name, command,
                                                  left_out):
    job = tmp_path / f"{name}.job"
    job.write_text("".join(
        line for line in job_files()[name].splitlines(keepends=True)
        if line.split(" = ")[0] not in left_out), encoding="utf-8")
    seen = executed([command, "--input", str(job),
                     "--json", str(tmp_path / "out.json")])
    assert seen["exit"] == 0
    assert json.loads((tmp_path / "out.json").read_text())["payload"]
    assert not NEVER_RUN.get(command, set()) & set(seen["job"])


def test_the_public_budget_runs_no_engine():
    source = str(Path(kunz.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source}
    probe = ("import sys, kunz; kunz.Budget; "
             "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    loaded = {name for name in out.stdout.split() if name.startswith("kunz")}
    assert loaded == {"kunz", "kunz.budget", "kunz.errors"}


@pytest.mark.parametrize("name", sorted(set(kunz.__all__) - {"__version__"}))
def test_each_public_name_is_its_defining_modules_object(name):
    value = getattr(kunz, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_an_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Monomial'"):
        kunz.Monomial


def test_dir_lists_every_public_name():
    assert set(kunz.__all__) <= set(dir(kunz))
