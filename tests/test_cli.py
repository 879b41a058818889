import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kunz.cli
from kunz.cli import main

CONE = "p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\n"
NODE = "p = 3;\nvars = x, y;\nideal = x*y;\n"
CUBIC_XYZ = "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3 + x*y*z;\n"
CUSP_BOUNDS = ("p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n"
               "inner = x, y;\nsocle = 1;\nm = 2;\nDelta = 9;\n")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_output(result):
    return json.loads(result.stdout)


def test_hk_happy_path(runner, tmp_path):
    job = write(tmp_path, "cone.job", CONE)
    result = invoke(runner, ["hk", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    document = parse_output(result)
    assert document["payload"]["samples"][0]["lambda"] == {
        "num": "37", "den": "25"}
    assert document["schema_version"] == 1
    assert "content_hash" in document


def test_json_and_csv_files(runner, tmp_path):
    job = write(tmp_path, "node.job", NODE)
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    result = invoke(runner, ["fsig", "--input", job, "--emax", "2",
                             "--json", str(json_path),
                             "--csv", str(csv_path)])
    assert result.exit_code == 0
    document = json.loads(json_path.read_text())
    assert document["payload"]["samples"][0]["s"] == {"num": "1", "den": "3"}
    assert document["payload"]["is_F_pure"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "e,q,colength,s"
    assert lines[1].endswith("1/3")


def test_fsig_on_a_complete_intersection_reaches_level_4(runner, tmp_path):
    job = write(tmp_path, "ci.job",
                "p = 3;\nvars = x, y, z, w;\n"
                "ideal = x*y - z*w, x*z - y*w;\nemax = 4;\n")
    result = invoke(runner, ["fsig", "--input", job])
    assert result.exit_code == 0
    samples = parse_output(result)["payload"]["samples"]
    assert [sample["e"] for sample in samples] == [1, 2, 3, 4]


def test_fedder_command(runner, tmp_path):
    job = write(tmp_path, "fermat.job",
                "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3;\n")
    result = invoke(runner, ["fedder", "--input", job])
    assert result.exit_code == 0
    assert parse_output(result)["payload"]["is_F_pure"] is True


def test_tame_command(runner, tmp_path):
    job = write(tmp_path, "cusp.job", "p = 5;\nbranch = 2, 3;\n")
    result = invoke(runner, ["tame", "--input", job])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["delta"] == 2 and payload["Delta"] == 9
    assert payload["discriminant_valuation"] == 9


def test_tame_refuses_a_characteristic_outside_the_field_range(
        runner, tmp_path):
    # 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5 and 7
    job = write(tmp_path, "curve.job", "p = 3215031751;\nbranch = 2, 3;\n")
    result = invoke(runner, ["tame", "--input", job])
    assert result.exit_code == 3
    error = parse_output(result)["error"]
    assert error["type"] == "PreconditionError"
    assert "[2, 2^31)" in error["message"]


@pytest.mark.parametrize("precision", [16, 20])
def test_tame_extension_degree_is_delta_at_an_explicit_precision(
        runner, tmp_path, precision):
    job = write(tmp_path, "curve.job",
                f"p = 11;\nbranch = 4, 5;\nprecision = {precision};\n")
    result = invoke(runner, ["tame", "--input", job])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["delta"] == 12
    assert payload["extension_degree"] == payload["generator_count"] == 12
    assert payload["generator_bound"]["count"] == 12
    assert payload["precision"] == precision


def test_scan_command(runner, tmp_path):
    job = write(tmp_path, "scan.job", NODE + "points = (0,0) (1,0);\n")
    result = invoke(runner, ["scan", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["points"][0]["lambda"][0] == {"num": "5", "den": "3"}
    assert payload["verdicts"]["violations"] == []


def test_verify_bounds_command(runner, tmp_path):
    job = write(tmp_path, "bounds.job", CUSP_BOUNDS)
    result = invoke(runner, ["verify-bounds", "--input", job, "--emax", "2"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["all_passed"] is True
    assert payload["conditional"] is True
    assert len(payload["entries"]) == 3


def test_verify_bounds_derives_constants_from_branches(runner, tmp_path):
    job = write(tmp_path, "bounds.job",
                "p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n"
                "inner = x, y;\nbranch = 2, 3;\n")
    result = invoke(runner, ["verify-bounds", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["constants"]["m"] == 2
    assert payload["constants"]["Delta"] == 9
    assert payload["conditional"] is False


EMAX_JOBS = {"hk": CONE, "fsig": CONE, "scan": NODE,
             "verify-bounds": CUSP_BOUNDS}


@pytest.mark.parametrize("command", list(EMAX_JOBS))
@pytest.mark.parametrize("route", ["job", "flag"])
def test_explicit_zero_emax_exits_3(runner, tmp_path, command, route):
    text = EMAX_JOBS[command]
    if route == "job":
        job, flags = write(tmp_path, "zero.job", text + "emax = 0;\n"), []
    else:
        job, flags = write(tmp_path, "zero.job", text), ["--emax", "0"]
    result = invoke(runner, [command, "--input", job] + flags)
    assert result.exit_code == 3
    assert parse_output(result)["error"]["type"] == "PreconditionError"


def test_explicit_zero_ecap_exits_3(runner, tmp_path):
    job = write(tmp_path, "zero.job", NODE + "element = x;\necap = 0;\n")
    result = invoke(runner, ["fedder", "--input", job])
    assert result.exit_code == 3
    assert "e_cap" in parse_output(result)["error"]["message"]


def test_parse_errors_exit_2(runner, tmp_path):
    text = "p = 5;\nvars = x;\nideal\n"
    job = write(tmp_path, "bad.job", text)
    result = invoke(runner, ["hk", "--input", job])
    assert result.exit_code == 2
    error = parse_output(result)["error"]
    assert error["type"] == "ParseError"
    assert error["exit_code"] == 2
    assert error["position"] == text.index("ideal")


def test_command_mismatch_exits_2(runner, tmp_path):
    job = write(tmp_path, "mismatch.job", "command = hk;\n" + CONE)
    result = invoke(runner, ["fsig", "--input", job])
    assert result.exit_code == 2


def test_missing_file_exits_2(runner, tmp_path):
    result = invoke(runner, ["hk", "--input", str(tmp_path / "absent.job")])
    assert result.exit_code == 2
    assert parse_output(result)["error"]["type"] == "ParseError"


def test_budget_exhaustion_exits_4(runner, tmp_path):
    # the cubic is not diagonal, so it stays on the engine; its e = 1 level
    # takes 5 pairs, and the fourth one breaks the budget
    job = write(tmp_path, "cubic.job", CUBIC_XYZ)
    result = invoke(runner, ["hk", "--input", job, "--emax", "2",
                             "--budget-pairs", "3"])
    assert result.exit_code == 4
    error = parse_output(result)["error"]
    assert error["type"] == "BudgetExceededError"
    assert error["pairs"] == 4


def test_pair_budget_spans_the_whole_job(runner, tmp_path):
    # the e = 1 and e = 2 levels take 5 pairs each: each fits in 8,
    # together they do not, so the second level truncates the sequence
    job = write(tmp_path, "cubic.job", CUBIC_XYZ)
    result = invoke(runner, ["hk", "--input", job, "--emax", "2",
                             "--budget-pairs", "8"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["truncated"] is True
    assert len(payload["samples"]) == 1


def test_pair_budget_leaves_diagonal_hypersurfaces_alone(runner, tmp_path):
    # the cone takes Han's route, which computes no Groebner basis
    job = write(tmp_path, "cone.job", CONE)
    result = invoke(runner, ["hk", "--input", job, "--emax", "2",
                             "--budget-pairs", "3"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["truncated"] is False
    assert len(payload["samples"]) == 2


def test_csv_on_non_tabular_command_exits_3(runner, tmp_path, monkeypatch):
    # the refusal comes before the job runs: no runner may be called
    called = []
    monkeypatch.setattr(kunz.cli, "_RUNNERS", {
        name: (lambda job, name=name: called.append(name))
        for name in kunz.cli._RUNNERS})
    job = write(tmp_path, "any.job",
                "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3;\n"
                "branch = 2, 3;\n")
    for command in ("fedder", "tame"):
        result = invoke(runner, [command, "--input", job,
                                 "--csv", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        assert "no tabular view" in parse_output(result)["error"]["message"]
    assert called == []
    assert not (tmp_path / "x.csv").exists()


def test_identical_jobs_have_identical_payloads(runner, tmp_path):
    job = write(tmp_path, "cone.job", CONE)
    results = [parse_output(invoke(
        runner, ["hk", "--input", job, "--emax", "1"])) for _ in range(2)]
    assert results[0]["payload"] == results[1]["payload"]
    assert results[0]["content_hash"] == results[1]["content_hash"]


def test_version_flag(runner):
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert "kunz" in result.output


def run_child(args, code=None):
    """python -m kunz.cli in a fresh interpreter (or `-c code` in its
    place), importing the package from where this process found it."""
    source = str(Path(kunz.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": source + os.pathsep + path if path else source}
    command = ["-c", code] if code is not None else ["-m", "kunz.cli"]
    return subprocess.run([sys.executable, *command, *args],
                          capture_output=True, text=True, env=env)


def test_stderr_carries_one_status_line(tmp_path):
    good = run_child(["hk", "--input", write(tmp_path, "cone.job", CONE),
                      "--emax", "1"])
    assert good.returncode == 0
    assert "payload" in json.loads(good.stdout)
    assert re.fullmatch(r"INFO kunz: hk finished in \d+\.\d{3}s\n",
                        good.stderr)

    bad = run_child(["hk", "--input",
                     write(tmp_path, "bad.job", "p = 5;\nvars = x;\nideal\n")])
    assert bad.returncode == 2
    error = json.loads(bad.stdout)["error"]
    assert error["type"] == "ParseError"
    assert bad.stderr == f"ERROR kunz: ParseError: {error['message']}\n"


QUADRIC = "p = 3;\nvars = x, y, z, w;\nideal = x*y - z*w;\n"
FERMAT = "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3;\n"

# content hashes the Groebner engine computed for these jobs before Han's
# route took them over; the route must reproduce every payload
HEAVY_HASHES = [
    ("hk", FERMAT, 4,
     "1fbbe070e5123fb35ef0d492e989971f18b36b06498a11f0c05dcff7a1e95b4a"),
    ("fsig", CONE, 4,
     "bb61b6197ccef7b481af64d7288f9de6e738cbcf6684bc781ffe52964135bb30"),
    ("hk", QUADRIC, 5,
     "fdfad904a96cdde0b5b8f2b6d802ab06ddc5dad4ddca2b9a5b10270c186ebfde"),
    ("fsig", QUADRIC, 5,
     "4d5aa896129f413af4bfa2ba0bbb5014cf70864fc7212071e59039346304e33d"),
]


@pytest.mark.parametrize("command, text, emax, content_hash", HEAVY_HASHES,
                         ids=["hk_fermat", "fsig_cone", "hk_quadric",
                              "fsig_quadric"])
def test_heavy_hypersurface_jobs_keep_their_hashes(tmp_path, command, text,
                                                   emax, content_hash):
    out = run_child([command, "--input", write(tmp_path, "heavy.job", text),
                     "--emax", str(emax)])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["content_hash"] == content_hash


RECORDS = {
    "curves": ("BranchInvariants", "TameInvariants", "BranchRealization",
               "GeneratorBoundCheck", "RootClosureCheck",
               "SplitReductionCheck", "TameReport"),
    "fsplit": ("SplittingSample", "PurityVerdict", "FSplitReport"),
    "hk": ("HKReport", "BoundConstants", "PairBoundEntry", "BoundCheck",
           "BasicLengthsCheck", "HypersurfaceBoundCheck"),
    "localring": ("FrobeniusSample", "SmoothnessReport"),
    "records": ("RunRecord",),
    "scan": ("PointRecord", "WitnessValues", "SubvarietyRecord",
             "ScanVerdicts", "ScanReport"),
    "textio": ("SubvarietySpec",),
}


IMPORT_PROBE = """
import dataclasses, importlib, json, sys
import kunz.cli
records = json.loads(sys.argv[1])
print(json.dumps({
    "logging": "logging" in sys.modules,
    "dataclasses": [
        f"{module}.{name}" for module, names in records.items()
        for name in names if dataclasses.is_dataclass(
            getattr(importlib.import_module(f"kunz.{module}"), name))],
}))
"""


def test_cli_import_generates_no_record_code():
    """Result records are NamedTuples, built without dataclass code
    generation, and the two stderr lines need no logging import."""
    out = run_child([json.dumps(RECORDS)], code=IMPORT_PROBE)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"logging": False, "dataclasses": []}
