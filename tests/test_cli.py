import json

import pytest
from click.testing import CliRunner

from kunz.cli import main

CONE = "p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\n"
NODE = "p = 3;\nvars = x, y;\nideal = x*y;\n"
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
    job = write(tmp_path, "cone.job", CONE)
    result = invoke(runner, ["hk", "--input", job, "--emax", "2",
                             "--budget-pairs", "3"])
    assert result.exit_code == 4
    error = parse_output(result)["error"]
    assert error["type"] == "BudgetExceededError"
    assert error["pairs"] == 4


def test_pair_budget_spans_the_whole_job(runner, tmp_path):
    # the e = 1 and e = 2 levels take 12 and 52 pairs: each fits in 60,
    # together they do not, so the second level truncates the sequence
    job = write(tmp_path, "cone.job", CONE)
    result = invoke(runner, ["hk", "--input", job, "--emax", "2",
                             "--budget-pairs", "60"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["truncated"] is True
    assert len(payload["samples"]) == 1


def test_csv_on_non_tabular_command_exits_3(runner, tmp_path):
    job = write(tmp_path, "fermat.job",
                "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3;\n")
    result = invoke(runner, ["fedder", "--input", job,
                             "--csv", str(tmp_path / "x.csv")])
    assert result.exit_code == 3
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
