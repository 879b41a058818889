import gc
import json
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

from typing import NamedTuple

import pytest

import kunz.cli
from kunz.cli import main
from kunz.curves import Branch, BranchCurve, realize_curve
from kunz.engine import Budget
from kunz.textio import READS
from lemmas import realized_rank_drop

CONE = "p = 5;\nvars = x, y, z;\nideal = x*y - z^2;\n"
NODE = "p = 3;\nvars = x, y;\nideal = x*y;\n"
QUADRIC = "p = 3;\nvars = x, y, z, w;\nideal = x*y - z*w;\n"
CUBIC_XYZ = "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3 + x*y*z;\n"
RANK_5 = ("p = 3;\nvars = a, b, c, d, e;\n"
          "ideal = a^2 + b^2 + c^2 + d^2 + e^2;\n")
# the monomial curve <5,6,7,8>, which is not F-pure at p = 3
MONOMIAL_CURVE = ("p = 3;\nvars = x, y, z, w;\n"
                  "ideal = y^2 - x*z, y*w - z^2, x*w - y*z, w^2 - x^2*y, "
                  "z*w - x^3;\n")
CUSP_BOUNDS = ("p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n"
               "inner = x, y;\nsocle = 1;\nm = 2;\nDelta = 9;\n")


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture()
def cli(capsys):
    """Run one command line in process: its exit code and captured streams.

    Every run, a successful one too, ends in SystemExit.
    """
    def invoke(args):
        with pytest.raises(SystemExit) as stop:
            main.main(args=args, prog_name="kunz")
        out, err = capsys.readouterr()
        return Result(stop.value.code, out, err)
    return invoke


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_output(result):
    return json.loads(result.stdout)


def test_hk_happy_path(cli, tmp_path):
    job = write(tmp_path, "cone.job", CONE)
    result = cli(["hk", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    document = parse_output(result)
    assert document["payload"]["samples"][0]["lambda"] == {
        "num": "37", "den": "25"}
    assert document["schema_version"] == 1
    assert "content_hash" in document


def test_json_and_csv_files(cli, tmp_path):
    job = write(tmp_path, "node.job", NODE)
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    result = cli(["fsig", "--input", job, "--emax", "2",
                 "--json", str(json_path),
                 "--csv", str(csv_path)])
    assert result.exit_code == 0
    document = json.loads(json_path.read_text())
    assert document["payload"]["samples"][0]["s"] == {"num": "1", "den": "3"}
    assert document["payload"]["is_F_pure"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "e,q,colength,s"
    assert lines[1].endswith("1/3")


def test_fsig_on_a_complete_intersection_reaches_level_4(cli, tmp_path):
    job = write(tmp_path, "ci.job",
                "p = 3;\nvars = x, y, z, w;\n"
                "ideal = x*y - z*w, x*z - y*w;\nemax = 4;\n")
    result = cli(["fsig", "--input", job])
    assert result.exit_code == 0
    samples = parse_output(result)["payload"]["samples"]
    assert [sample["e"] for sample in samples] == [1, 2, 3, 4]


def test_fedder_command(cli, tmp_path):
    job = write(tmp_path, "fermat.job",
                "p = 7;\nvars = x, y, z;\nideal = x^3 + y^3 + z^3;\n")
    result = cli(["fedder", "--input", job])
    assert result.exit_code == 0
    assert parse_output(result)["payload"]["is_F_pure"] is True


def test_tame_command(cli, tmp_path):
    job = write(tmp_path, "cusp.job", "p = 5;\nbranch = 2, 3;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["delta"] == 2 and payload["Delta"] == 9
    assert payload["discriminant_valuation"] == 9


def test_tame_refuses_a_characteristic_outside_the_field_range(
        cli, tmp_path):
    # 151 * 751 * 28351 passes Miller-Rabin to the bases 2, 3, 5 and 7
    job = write(tmp_path, "curve.job", "p = 3215031751;\nbranch = 2, 3;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 3
    error = parse_output(result)["error"]
    assert error["type"] == "PreconditionError"
    assert "[2, 2^31)" in error["message"]


@pytest.mark.parametrize("precision", [16, 20])
def test_tame_extension_degree_is_delta_at_an_explicit_precision(
        cli, tmp_path, precision):
    """The payload's extension degree is delta = 12 although a realization
    truncated at 16 or 20, below the rank threshold 24, shows a smaller
    rank drop: the degree comes from the theorem, not from a truncation.
    The payload's precision is the oracle's default, 2 Delta + 2, with
    Delta = 13^2 for gamma = 12."""
    job = write(tmp_path, "curve.job", "p = 11;\nbranch = 4, 5;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["delta"] == 12
    assert payload["extension_degree"] == payload["generator_count"] == 12
    assert payload["generator_bound"]["count"] == 12
    assert payload["precision"] == 340
    curve = BranchCurve(11, (Branch((4, 5)),))
    branches = realize_curve(curve, precision)
    assert realized_rank_drop(curve, branches, precision) < 12


def test_tame_refuses_a_precision_statement(cli, tmp_path):
    """The payload's precision is the default the series oracle takes, so
    a job cannot set it."""
    job = write(tmp_path, "cusp.job",
                "p = 5;\nbranch = 2, 3;\nprecision = 9;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 2
    assert result.stdout == (
        '{"error":{"exit_code":2,"message":"unknown statement key '
        '\'precision\'","type":"ParseError"},"schema_version":1}\n')


# the cap holds the whole curve's default precision, 2 Delta + 2: each of
# the two branches alone would pass it (611620)
@pytest.mark.parametrize("text, top", [
    ("p = 7;\nbranch = 40, 41;\n", 4873444),
    ("p = 7;\nbranch = 24, 25;\nbranch = 24, 25;\ncross = 1: 1;\n"
     "cross = 2: 1;\n", 1232102),
], ids=["default", "two_branches"])
def test_tame_refuses_a_precision_past_the_cap(cli, tmp_path, text, top):
    job = write(tmp_path, "curve.job", text)
    result = cli(["tame", "--input", job])
    assert result.exit_code == 3
    assert result.stdout == (
        '{"error":{"exit_code":3,"message":"precision %d exceeds 1048576",'
        '"type":"PreconditionError"},"schema_version":1}\n' % top)


def test_tame_generator_bound_at_a_large_mu(cli, tmp_path):
    job = write(tmp_path, "cusp.job", "p = 5;\nbranch = 2, 3;\nmu = 100;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 0
    bound = parse_output(result)["payload"]["generator_bound"]
    assert bound["bound"] == 2 ** 100 and bound["passed"]


def test_tame_refuses_a_bound_too_long_to_write(cli, tmp_path):
    """2^100000 has 30103 digits, past what JSON output can write."""
    job = write(tmp_path, "cusp.job",
                "p = 5;\nbranch = 2, 3;\nmu = 100000;\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 5
    assert result.stdout == (
        '{"error":{"exit_code":5,"message":"generator bound delta^mu = '
        '2^100000 exceeds 4300 digits","type":"CapacityError"},'
        '"schema_version":1}\n')


def test_scan_command(cli, tmp_path):
    job = write(tmp_path, "scan.job", NODE + "points = (0,0) (1,0);\n")
    result = cli(["scan", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["points"][0]["lambda"][0] == {"num": "5", "den": "3"}
    assert payload["verdicts"]["violations"] == []


@pytest.mark.parametrize("param, witness", [("z^2 + z", "0, 0, 0"),
                                            ("x", "0, 0, 1")],
                         ids=["length_2", "one_dimensional"])
def test_a_witness_whose_parameters_miss_its_point_exits_3(cli, tmp_path,
                                                           param, witness):
    job = write(tmp_path, "scan.job",
                "p = 3;\nvars = x, y, z;\nideal = x*y;\npoints = (0,0,0);\n"
                "sub.1.ideal = x, y;\n"
                f"sub.1.witnesses = ({witness.replace(' ', '')});\n"
                f"sub.1.params = {param};\n")
    result = cli(["scan", "--input", job, "--emax", "1"])
    assert result.exit_code == 3
    assert parse_output(result)["error"]["message"] == (
        "witness rejected: the parameters do not cut the subvariety to its "
        f"point at ({witness})")


def test_verify_bounds_command(cli, tmp_path):
    job = write(tmp_path, "bounds.job", CUSP_BOUNDS)
    result = cli(["verify-bounds", "--input", job, "--emax", "2"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["all_passed"] is True
    assert payload["conditional"] is True
    assert len(payload["entries"]) == 3


def test_verify_bounds_derives_constants_from_branches(cli, tmp_path):
    job = write(tmp_path, "bounds.job",
                "p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n"
                "inner = x, y;\nbranch = 2, 3;\n")
    result = cli(["verify-bounds", "--input", job, "--emax", "1"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["constants"]["m"] == 2
    assert payload["constants"]["Delta"] == 9
    assert payload["conditional"] is False


# the cusp at the smooth point (1, 1), where the keys are read in the
# job's own coordinates and moved with the ideal
CUSP_AT_1_1 = "p = 5;\nvars = x, y;\nideal = y^2 - x^3;\npoint = 1, 1;\n"


def test_verify_bounds_moves_inner_and_socle_with_the_point(cli, tmp_path):
    bounds = "socle = x + y - 1;\nm = 2;\nDelta = 9;\n"
    job = write(tmp_path, "moved.job",
                CUSP_AT_1_1 + "inner = x - 1, y - 1;\n" + bounds)
    result = cli(["verify-bounds", "--input", job, "--emax", "2"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["inner"] == ["x", "y"]
    assert payload["socle"] == "x + y + 1"
    assert payload["all_passed"] is True
    # the origin's maximal ideal does not vanish at the point
    job = write(tmp_path, "origin.job",
                CUSP_AT_1_1 + "inner = x, y;\n" + bounds)
    result = cli(["verify-bounds", "--input", job, "--emax", "2"])
    assert result.exit_code == 3
    assert parse_output(result)["error"]["message"] == (
        "point (1, 1) does not lie on the zero set: x evaluates to 1")


@pytest.mark.parametrize("element, moved, exponent", [
    ("x", "x + 1", 1),  # a unit at (1, 1)
    ("x - 1", "x", None),  # x times (xy)^(q-1) lies in m^[q] at every q
])
def test_fedder_moves_the_element_with_the_point(cli, tmp_path, element,
                                                 moved, exponent):
    # (x - 1)(y - 1) at (1, 1) is the node xy
    job = write(tmp_path, "node.job",
                "p = 3;\nvars = x, y;\nideal = x*y - x - y + 1;\n"
                f"point = 1, 1;\nelement = {element};\necap = 2;\n")
    result = cli(["fedder", "--input", job])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["element"] == moved
    assert payload["purity_exponent"] == exponent


EMAX_JOBS = {"hk": CONE, "fsig": CONE, "scan": NODE,
             "verify-bounds": CUSP_BOUNDS}


@pytest.mark.parametrize("command", list(EMAX_JOBS))
@pytest.mark.parametrize("route", ["job", "flag"])
def test_explicit_zero_emax_exits_3(cli, tmp_path, command, route):
    text = EMAX_JOBS[command]
    if route == "job":
        job, flags = write(tmp_path, "zero.job", text + "emax = 0;\n"), []
    else:
        job, flags = write(tmp_path, "zero.job", text), ["--emax", "0"]
    result = cli([command, "--input", job] + flags)
    assert result.exit_code == 3
    assert parse_output(result)["error"]["type"] == "PreconditionError"


@pytest.mark.parametrize("route", ["job", "flag"])
def test_a_negative_pair_budget_exits_3(cli, tmp_path, route):
    if route == "job":
        text, flags = TWISTED_CUBIC + "budget_pairs = -1;\n", []
    else:
        text, flags = TWISTED_CUBIC, ["--budget-pairs", "-1"]
    job = write(tmp_path, "negative.job", text)
    result = cli(["fsig", "--input", job] + flags)
    assert result.exit_code == 3
    error = parse_output(result)["error"]
    assert error["type"] == "PreconditionError"
    assert error["message"] == "pair budget must be >= 0, got -1"
    # a zero budget stays valid: the cone's hk takes Han's count, no pairs
    zero = write(tmp_path, "zero.job", CONE + "budget_pairs = 0;\n")
    assert cli(["hk", "--input", zero]).exit_code == 0


def test_explicit_zero_ecap_exits_3(cli, tmp_path):
    job = write(tmp_path, "zero.job", NODE + "element = x;\necap = 0;\n")
    result = cli(["fedder", "--input", job])
    assert result.exit_code == 3
    assert "e_cap" in parse_output(result)["error"]["message"]


HUGE = "2147483647"


@pytest.mark.parametrize("command, text", [
    ("fedder", NODE + f"element = x + y;\necap = {HUGE};\n"),
    ("scan", NODE + f"emax = {HUGE};\n"),
    # Han's count for xy - zw is linear in q, so each level past about
    # e = 10 takes seconds
    ("hk", QUADRIC + f"emax = {HUGE};\n"),
    ("fsig", QUADRIC + f"emax = {HUGE};\n"),
    ("verify-bounds", CUSP_BOUNDS + f"emax = {HUGE};\n"),
])
def test_a_huge_frobenius_exponent_exits_5_at_once(cli, tmp_path, command,
                                                   text):
    """field.frobenius_levels refuses e >= 63 before any level runs and
    before p^e is taken: at 2^31 - 1 the power alone would not end."""
    job = write(tmp_path, "huge.job", text)
    started = time.perf_counter()
    result = cli([command, "--input", job])
    assert time.perf_counter() - started < 1
    assert result.exit_code == 5
    error = parse_output(result)["error"]
    p = text.split(";")[0].split()[-1]
    assert error == {
        "exit_code": 5, "type": "CapacityError",
        "message": f"p^e = {p}^{HUGE} exceeds the 63-bit capacity"}
    assert result.stderr == f"ERROR kunz: CapacityError: {error['message']}\n"


def test_a_payload_number_past_4300_digits_exits_5_before_any_output(
        cli, tmp_path):
    """The colength q^240 at q = (2^31 - 1)^2 has about 4480 digits, past
    what JSON output can write: neither the CSV view nor a result document
    is written, only the error document."""
    names = ", ".join(f"x{i}" for i in range(240))
    job = write(tmp_path, "wide.job",
                f"p = {HUGE};\nvars = {names};\nideal = ;\nemax = 2;\n")
    out, table = tmp_path / "out.json", tmp_path / "out.csv"
    result = cli(["hk", "--input", job, "--json", str(out),
                  "--csv", str(table)])
    assert result.exit_code == 5
    assert out.read_text() == (
        '{"error":{"exit_code":5,"message":"a payload number exceeds 4300 '
        'digits","type":"CapacityError"},"schema_version":1}\n')
    assert not table.exists()
    assert result.stderr == ("ERROR kunz: CapacityError: a payload number "
                             "exceeds 4300 digits\n")


def short_deadline(monkeypatch, seconds):
    """Cut the deadline of every job's budget to seconds."""
    budget = kunz.cli._budget

    def short(job):
        patched = budget(job)
        patched.deadline_seconds = seconds
        return patched

    monkeypatch.setattr(kunz.cli, "_budget", short)


LINE_POWER = "(x + y)^100000"


@pytest.mark.parametrize("command, text", [
    ("hk", f"ideal = {LINE_POWER};\n"),
    ("fsig", f"ideal = {LINE_POWER};\n"),
    ("fedder", f"ideal = {LINE_POWER};\n"),
    ("scan", f"ideal = {LINE_POWER};\npoints = (0,0);\n"),
    ("verify-bounds", f"ideal = {LINE_POWER};\ninner = x, y;\nm = 1;\n"
                      "Delta = 1;\n"),
    ("fedder", f"ideal = x*y;\nelement = {LINE_POWER};\n"),
    ("hk", "ideal = (x*y)^100000;\npoint = 1, 0;\n"),
], ids=["hk", "fsig", "fedder", "scan", "verify_bounds", "fedder_element",
        "hk_moved_to_a_point"])
def test_a_power_is_expanded_under_the_deadline(cli, tmp_path, monkeypatch,
                                                command, text):
    """(x + y)^100000 has 100001 terms at p = 100003, as has (x + 1)^100000,
    which moving (x*y)^100000 to the point (1, 0) expands. The job's budget
    exists before its first polynomial is parsed, and every product of a
    power's repeated squaring checks its deadline, here 0.5 s."""
    short_deadline(monkeypatch, 0.5)
    job = write(tmp_path, "power.job",
                "p = 100003;\nvars = x, y;\n" + text)
    started = time.perf_counter()
    result = cli([command, "--input", job])
    assert time.perf_counter() - started < 2
    assert result.exit_code == 4
    error = parse_output(result)["error"]
    assert error["message"] == "deadline of 0.5s exceeded"
    assert result.stderr == ("ERROR kunz: BudgetExceededError: "
                             f"{error['message']}\n")


@pytest.mark.parametrize("command, text", [
    ("fedder", "vars = x, y;\nideal = x + y;\n"),
    ("fsig", "vars = x, y;\nideal = x + y;\n"),
    ("fedder", "vars = x, y, z;\nideal = x*y - z^2;\n"
               "element = 1;\necap = 1;\n"),
], ids=["fedder_line", "fsig_line", "fedder_cone_element"])
def test_fedders_power_ends_at_the_deadline(cli, tmp_path, monkeypatch,
                                            command, text):
    """h^(p-1) at p = 100003 has about 10^5 terms or more, and every
    product building it checks the job's deadline, here 2 s."""
    short_deadline(monkeypatch, 2.0)
    job = write(tmp_path, "power.job", "p = 100003;\n" + text)
    started = time.perf_counter()
    result = cli([command, "--input", job])
    assert time.perf_counter() - started < 5
    assert result.exit_code == 4
    assert parse_output(result)["error"]["message"] == (
        "deadline of 2.0s exceeded")


def test_a_scan_of_many_points_ends_at_the_deadline(cli, tmp_path,
                                                    monkeypatch):
    """The zero ideal over F_251 vanishes at all 63001 points, and Kunz's
    count answers each with no deadline check of its own. The scan checks
    the job's deadline, here 0.5 s, once per point in both loops."""
    short_deadline(monkeypatch, 0.5)
    job = write(tmp_path, "plane.job",
                "p = 251;\nvars = x, y;\nideal = ;\nemax = 1;\n")
    started = time.perf_counter()
    result = cli(["scan", "--input", job])
    assert time.perf_counter() - started < 2
    assert result.exit_code == 4
    error = parse_output(result)["error"]
    assert error["message"] == "deadline of 0.5s exceeded"
    assert result.stderr == ("ERROR kunz: BudgetExceededError: "
                             f"{error['message']}\n")


def test_a_scan_of_the_plane_over_f53_ends_in_a_document(cli, tmp_path):
    """All 2809 points are smooth with equal values, so the verdict
    compares no pair: where every point was compared with every one, 7.9
    million checks, the scan took about 10 s."""
    job = write(tmp_path, "plane.job",
                "p = 53;\nvars = x, y;\nideal = ;\nemax = 1;\n")
    started = time.perf_counter()
    result = cli(["scan", "--input", job])
    assert time.perf_counter() - started < 1
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert len(payload["points"]) == 2809
    assert payload["verdicts"]["violations"] == []


@pytest.mark.parametrize("branch, refusal", [
    ("9999999999992, 3",
     "Schur's bound 19999999999982 for the semigroup (3, 9999999999992)"),
    ("100003, 100019",
     "Schur's bound 10002000036 for the semigroup (100003, 100019)"),
])
def test_a_semigroup_past_the_sieve_capacity_exits_5(cli, tmp_path, branch,
                                                     refusal):
    """The conductor sieve would hold one entry per integer below Schur's
    bound; past 2^20 of them the branch is refused before any is made."""
    job = write(tmp_path, "huge.job", f"p = 5;\nbranch = {branch};\n")
    result = cli(["tame", "--input", job])
    assert result.exit_code == 5
    assert result.stdout.count("\n") == 1
    error = parse_output(result)["error"]
    assert error == {
        "exit_code": 5, "type": "CapacityError",
        "message": f"{refusal} exceeds the sieve capacity 1048576"}
    assert result.stderr == f"ERROR kunz: CapacityError: {error['message']}\n"


# jobs missing a statement their command needs, with the exact refusal of
# each
NO_INNER = "p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n"
MISSING_STATEMENTS = [
    ("hk", "p = 5;\nideal = x;\n",
     "the job needs a `vars = ...;` statement"),
    ("scan", "p = 5;\nideal = x;\n",
     "the job needs a `vars = ...;` statement"),
    ("tame", "p = 5;\n",
     "the job needs at least one `branch = ...;` statement"),
    ("verify-bounds", NO_INNER,
     "verify-bounds needs an `inner = ...;` statement with the generators "
     "of the inner ideal"),
    ("verify-bounds",
     NO_INNER + "inner = x, y;\nbranch = 2, 3;\nm = 2;\nDelta = 9;\n",
     "give either branch lines or explicit m/Delta, not both"),
    ("verify-bounds", NO_INNER + "inner = x, y;\n",
     "verify-bounds needs `m = ...;` and `Delta = ...;` statements, or "
     "branch lines to derive them from"),
    ("scan", NODE + "points = ;\n", "no points to scan"),
]


@pytest.mark.parametrize("command, text, message", MISSING_STATEMENTS,
                         ids=["hk_no_vars", "scan_no_vars", "tame_no_branch",
                              "bounds_no_inner", "bounds_both",
                              "bounds_neither", "scan_no_points"])
def test_a_missing_statement_exits_3(cli, tmp_path, command, text, message):
    result = cli([command, "--input", write(tmp_path, "short.job", text)])
    assert result.exit_code == 3
    assert result.stdout == (
        '{"error":{"exit_code":3,"message":"%s","type":"PreconditionError"},'
        '"schema_version":1}\n' % message)


# malformed statements, with the exact refusal of each
MALFORMED_STATEMENTS = [
    ("hk", "p = x;\nvars = x;\nideal = x;\n",
     "p expects an integer, got 'x'"),
    ("hk", "p = 5;\nvars = x, 1y;\nideal = x;\n", "bad variable name '1y'"),
    ("hk", "vars = x;\nideal = x;\n",
     "missing required statement `p = ...;`"),
    ("scan", NODE + "points = (0,0) 1;\n",
     "points expects points like (0,0,1) separated by spaces, leftover '1'"),
]


@pytest.mark.parametrize("command, text, message", MALFORMED_STATEMENTS,
                         ids=["p_not_an_integer", "bad_variable_name",
                              "no_p", "points_leftover"])
def test_a_malformed_statement_exits_2(cli, tmp_path, command, text,
                                       message):
    result = cli([command, "--input", write(tmp_path, "bad.job", text)])
    assert result.exit_code == 2
    assert result.stdout == (
        '{"error":{"exit_code":2,"message":"%s","type":"ParseError"},'
        '"schema_version":1}\n' % message)


def test_a_job_key_the_command_does_not_read_exits_2(cli, tmp_path):
    job = write(tmp_path, "cone.job", CONE + "branch = 2, 3;\n")
    result = cli(["hk", "--input", job])
    assert result.exit_code == 2
    error = parse_output(result)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "the hk command reads no `branch` statement"


def test_an_unread_key_at_its_default_exits_2(cli, tmp_path):
    job = write(tmp_path, "cone.job", CONE + "mu = 1;\n")
    result = cli(["hk", "--input", job, "--emax", "1"])
    assert result.exit_code == 2
    error = parse_output(result)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "the hk command reads no `mu` statement"


def test_parse_errors_exit_2(cli, tmp_path):
    text = "p = 5;\nvars = x;\nideal\n"
    job = write(tmp_path, "bad.job", text)
    result = cli(["hk", "--input", job])
    assert result.exit_code == 2
    error = parse_output(result)["error"]
    assert error["type"] == "ParseError"
    assert error["exit_code"] == 2
    assert error["position"] == text.index("ideal")


def test_command_mismatch_exits_2(cli, tmp_path):
    job = write(tmp_path, "mismatch.job", "command = hk;\n" + CONE)
    result = cli(["fsig", "--input", job])
    assert result.exit_code == 2


def test_missing_file_exits_2(cli, tmp_path):
    result = cli(["hk", "--input", str(tmp_path / "absent.job")])
    assert result.exit_code == 2
    assert parse_output(result)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("option", ["--json", "--csv"])
def test_an_output_path_that_cannot_be_written_exits_2(cli, tmp_path,
                                                       option):
    """A symlink into a missing directory passes the usage check, and
    writing through it fails: the run ends with one error line, and stdout
    holds the error document alone."""
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing" / "out")
    job = write(tmp_path, "cone.job", CONE)
    result = cli(["hk", "--input", job, "--emax", "1", option, str(link)])
    assert result.exit_code == 2
    error = parse_output(result)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("cannot write output file: ")
    assert result.stderr == f"ERROR kunz: ParseError: {error['message']}\n"
    assert not (tmp_path / "missing").exists()


def test_budget_exhaustion_exits_4(cli, tmp_path):
    # the cubic is not diagonal, so it stays on the engine; its e = 1 level
    # takes 5 pairs, and the fourth one breaks the budget
    job = write(tmp_path, "cubic.job", CUBIC_XYZ)
    result = cli(["hk", "--input", job, "--emax", "2",
                 "--budget-pairs", "3"])
    assert result.exit_code == 4
    error = parse_output(result)["error"]
    assert error["type"] == "BudgetExceededError"
    assert error["pairs"] == 4


def test_pair_budget_spans_the_whole_job(cli, tmp_path):
    # the e = 1 and e = 2 levels take 5 pairs each: each fits in 8,
    # together they do not, so the second level truncates the sequence
    job = write(tmp_path, "cubic.job", CUBIC_XYZ)
    result = cli(["hk", "--input", job, "--emax", "2",
                 "--budget-pairs", "8"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["truncated"] is True
    assert len(payload["samples"]) == 1


def test_pair_budget_leaves_diagonal_hypersurfaces_alone(cli, tmp_path):
    # the cone takes Han's route, which computes no Groebner basis
    job = write(tmp_path, "cone.job", CONE)
    result = cli(["hk", "--input", job, "--emax", "2",
                 "--budget-pairs", "3"])
    assert result.exit_code == 0
    payload = parse_output(result)["payload"]
    assert payload["truncated"] is False
    assert len(payload["samples"]) == 2


def test_pair_budget_leaves_a_quadric_of_rank_5_alone(cli, tmp_path):
    # five squares fold into Han's count; the engine needs pairs at e = 1
    job = write(tmp_path, "rank5.job",
                RANK_5 + "emax = 4;\nbudget_pairs = 0;\n")
    result = cli(["hk", "--input", job])
    assert result.exit_code == 0
    samples = parse_output(result)["payload"]["samples"]
    assert [s["colength"] for s in samples] == [97, 7937, 643297, 52109057]


def test_fedder_builds_no_twist_level_past_an_empty_one(cli, tmp_path,
                                                        monkeypatch):
    # (I^[3] : I) lies in m^[3], so no element splits at any level; the
    # pinned hash is the one a walk through every level up to ecap gives
    presentations = []
    build = kunz.cli._presentation

    def keep(*args):
        presentations.append(build(*args))
        return presentations[-1]

    monkeypatch.setattr(kunz.cli, "_presentation", keep)
    job = write(tmp_path, "curve.job",
                MONOMIAL_CURVE + "element = 1;\necap = 3;\n")
    result = cli(["fedder", "--input", job])
    assert result.exit_code == 0
    document = parse_output(result)
    assert document["content_hash"] == (
        "55cc78312ba887207bf2796ed7501b5147b8b4949419cc8cdefa7bfd0b4a137d")
    assert document["payload"]["purity_exponent"] is None
    (presentation,) = presentations
    assert sorted(presentation.twist_colons) == [1]


def test_identical_jobs_have_identical_payloads(cli, tmp_path):
    job = write(tmp_path, "cone.job", CONE)
    results = [parse_output(cli(["hk", "--input", job, "--emax", "1"]))
               for _ in range(2)]
    assert results[0]["payload"] == results[1]["payload"]
    assert results[0]["content_hash"] == results[1]["content_hash"]


def test_version_flag(cli):
    result = cli(["--version"])
    assert result.exit_code == 0
    assert result.stdout == "kunz, version 0.1.0\n"


COMMANDS = ("hk", "fsig", "fedder", "tame", "scan", "verify-bounds")
# each command's options besides --help: --input and --json everywhere,
# --csv where there is a tabular view, and the value options of what the
# command reads
SAMPLED = ("--input", "--emax", "--json", "--csv", "--budget-pairs")
OPTIONS = {
    "hk": SAMPLED,
    "fsig": SAMPLED,
    "fedder": ("--input", "--json", "--budget-pairs"),
    "tame": ("--input", "--json"),
    "scan": SAMPLED,
    "verify-bounds": SAMPLED,
}
VALUE_OPTIONS = ("--emax", "--budget-pairs")


@pytest.mark.parametrize("args, listed", [
    (["--help"], COMMANDS + ("--version", "--help")),
    (["hk", "--help"], OPTIONS["hk"] + ("--help",)),
], ids=["kunz", "hk"])
def test_help_lists_the_commands_and_options(cli, args, listed):
    result = cli(args)
    assert result.exit_code == 0
    for name in listed:
        assert name in result.stdout
    assert "-h," not in result.stdout


def test_each_command_offers_exactly_its_options(cli):
    assert set(kunz.cli._COMMANDS) == set(READS)
    every = {flag for options in OPTIONS.values() for flag in options}
    offered = {name: {flag for flag in every
                      if flag in cli([name, "--help"]).stdout}
               for name in COMMANDS}
    assert offered == {name: set(options) for name, options in OPTIONS.items()}
    # (command, value option) pairs: 12 when every command took both
    assert sum(len(flags & set(VALUE_OPTIONS))
               for flags in offered.values()) == 9
    assert len(kunz.cli._OPTIONS) == 5


USAGE_ERRORS = {
    "no_command": [],
    "unknown_command": ["bogus", "--input", "{job}", "--json", "{out}"],
    "missing_input": ["hk", "--emax", "1", "--json", "{out}"],
    "emax_not_an_int": ["hk", "--input", "{job}", "--emax", "x",
                        "--json", "{out}"],
    "abbreviated_input": ["hk", "--inp", "{job}", "--json", "{out}"],
    "abbreviated_emax": ["hk", "--input", "{job}", "--em", "1",
                         "--json", "{out}"],
    "input_is_a_directory": ["hk", "--input", "{dir}", "--json", "{out}"],
    "json_is_a_directory": ["hk", "--input", "{job}", "--json", "{dir}"],
    "csv_is_a_directory": ["hk", "--input", "{job}", "--json", "{out}",
                           "--csv", "{dir}"],
    "json_directory_is_missing": ["hk", "--input", "{job}",
                                  "--json", "{missing}"],
    "csv_directory_is_missing": ["hk", "--input", "{job}",
                                 "--csv", "{missing}"],
    # no tabular view, so no --csv
    "fedder_csv": ["fedder", "--input", "{job}", "--csv", "{csv}"],
    "tame_csv": ["tame", "--input", "{job}", "--csv", "{csv}"],
    # value options only where the command reads the value
    "tame_emax": ["tame", "--input", "{job}", "--emax", "2"],
    "tame_budget_pairs": ["tame", "--input", "{job}",
                          "--budget-pairs", "5"],
    "fedder_emax": ["fedder", "--input", "{job}", "--emax", "2"],
    # no command offers --precision
    "hk_precision": ["hk", "--input", "{job}", "--precision", "9"],
    "scan_precision": ["scan", "--input", "{job}", "--precision", "9"],
    "tame_precision": ["tame", "--input", "{job}", "--precision", "9"],
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_2_before_the_job_runs(cli, tmp_path, monkeypatch,
                                                 case):
    called = []
    monkeypatch.setattr(kunz.cli, "_COMMANDS", {
        name: (lambda job, name=name: called.append(name), text)
        for name, (_, text) in kunz.cli._COMMANDS.items()})
    job = write(tmp_path, "cone.job", CONE)
    (tmp_path / "dir").mkdir()
    places = {"job": job, "dir": str(tmp_path / "dir"),
              "out": str(tmp_path / "out.json"),
              "csv": str(tmp_path / "out.csv"),
              "missing": str(tmp_path / "missing" / "out")}
    result = cli([arg.format(**places) for arg in USAGE_ERRORS[case]])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: kunz")
    assert called == []
    assert sorted(path.name for path in tmp_path.rglob("*")) == [
        "cone.job", "dir"]


def run_child(args, code=None, stdout=subprocess.PIPE):
    """python -m kunz.cli in a fresh interpreter (or `-c code` in its
    place), importing the package from where this process found it.
    stdout is captured unless another file descriptor is given."""
    source = str(Path(kunz.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": source + os.pathsep + path if path else source}
    command = ["-c", code] if code is not None else ["-m", "kunz.cli"]
    return subprocess.run([sys.executable, *command, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)


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


@pytest.mark.parametrize("text", [CONE, "p = 5;\nvars = x;\nideal\n"],
                         ids=["result", "error_document"])
def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, text):
    """stdout is a pipe whose read end closed before the child started, so
    its first write fails: the run ends there, with no traceback, no second
    write and no complaint from the flush at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = run_child(["hk", "--input", write(tmp_path, "job", text),
                           "--emax", "1"], stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert re.fullmatch(
        r"ERROR kunz: ParseError: output could not be written: .+\n",
        child.stderr)


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
    ("hk", RANK_5, 3,
     "2b8d237d63200bc9f868b5678f8d89816560b0f76556f3fe92e3278bd77c1b23"),
    ("fsig", RANK_5, 2,
     "10ed7db3ded7b361a780557394989be7165f34677ed0b515186a6ee9c533ee3e"),
]


@pytest.mark.parametrize("command, text, emax, content_hash", HEAVY_HASHES,
                         ids=["hk_fermat", "fsig_cone", "hk_quadric",
                              "fsig_quadric", "hk_rank_5", "fsig_rank_5"])
def test_heavy_hypersurface_jobs_keep_their_hashes(tmp_path, command, text,
                                                   emax, content_hash):
    out = run_child([command, "--input", write(tmp_path, "heavy.job", text),
                     "--emax", str(emax)])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["content_hash"] == content_hash


# the twisted cubic as the benchmark writes it at seed 0
TWISTED_CUBIC = ("p = 3;\nvars = x, y, z, w;\n"
                 "ideal = x*z + 2*y^2, x*w + 2*y*z, y*w + 2*z^2;\n")

# Jobs on the general route: the twisted cubic's twist colons by
# elimination, and Groebner bases of (f) + m^[q] for the cubic. The emax = 4
# hashes were computed by the engine under normal pair selection with a
# merged work list, in 21 and 120 s on a 2-vCPU host; the emax = 5 hash of
# the twisted cubic by the meets of single-divisor colons, in 27 s there.
GENERAL_ROUTE_HASHES = [
    ("fsig", TWISTED_CUBIC, 4, 30,
     "c67cf4cfab058c895980441f650d1934fd76b89c091e7764e1cc3326ab738e4e"),
    ("hk", CUBIC_XYZ, 4, 30,
     "4a1208c8568975104ef68a0c0646ba0ab832f7c2c79f2383dc94f3b98c14e17b"),
    ("fsig", TWISTED_CUBIC, 5, 10,
     "664a30124dbe27cc15b99ed73766bf6e2ab6b7a8c728c077d08de527091e9349"),
]


# Scans whose smooth points took the engine on I + m^[q] and the twist
# colon until Kunz's theorem gave their colengths: the hashes were computed
# that way, in 42 s (cusp) and 27 s (cone) on a 2-vCPU host.
REGULAR_POINT_SCAN_HASHES = [
    ("scan", "p = 5;\nvars = x, y;\nideal = y^2 - x^3;\n", 4, 10,
     "1db9618b9671c389b486832b237b8963d963489ec08c8002a44757646281614f"),
    ("scan", "p = 3;\nvars = x, y, z;\nideal = x*z - y^2;\n", 4, 10,
     "20794835afd050e232dc19616630606b1796d0a4c4fe13d09c25d9fe11a7b3f7"),
]


@pytest.mark.parametrize("command, text, emax, deadline, content_hash",
                         GENERAL_ROUTE_HASHES + REGULAR_POINT_SCAN_HASHES,
                         ids=["fsig_twisted_cubic", "hk_cubic_xyz",
                              "fsig_twisted_cubic_emax5", "scan_cusp_p5",
                              "scan_cone_xz_p3"])
def test_general_route_jobs_keep_their_hashes(tmp_path, monkeypatch, cli,
                                              command, text, emax, deadline,
                                              content_hash):
    """Each under a job deadline: a job slowed past it fails (fsig) or
    truncates (hk), and so changes the hash, instead of running for
    minutes. At emax = 4, under 30 s, the fsig job takes about 0.4 s and
    the hk job 2 to 3 s; with a merged work list the hk job takes 120 s,
    and truncates here. At emax = 5, under 10 s, the fsig job takes about
    3 to 4.5 s; by the meets of single-divisor colons it took 22 to 27 s,
    and fails here. The scans take about 10 ms each under 10 s, and fail
    here if a smooth point goes back to the engine."""
    monkeypatch.setattr(kunz.cli, "_budget",
                        lambda job: Budget(deadline_seconds=deadline))
    result = cli([command, "--input", write(tmp_path, "general.job", text),
                  "--emax", str(emax)])
    assert result.exit_code == 0, result.stdout
    assert json.loads(result.stdout)["content_hash"] == content_hash


# Benchmark anchor jobs at seed 0, as the benchmark writes them, with the
# hashes it pins: payloads written from records (scan verdicts, tame
# branches and generator bound, verify-bounds constants and entries) keep
# their keys and values.
RECORD_PAYLOAD_HASHES = [
    ("scan",
     "p = 3;\nvars = x, y, z;\nideal = x*y;\nsub.1.ideal = x, y;\n"
     "sub.1.witnesses = (0,0,0) (0,0,1);\nsub.1.params = z;\nemax = 2;\n",
     "07558f6cd952272871b273286ae51560d9cb425ee7a204e7fa35b0007017dbda"),
    ("tame",
     "p = 7;\nbranch = 2, 3;\nbranch = 2, 3;\ncross = 1: 4;\n"
     "cross = 2: 4;\nseed = 0;\n",
     "02d7006b3ada83e6f9bb279c267c190990e161ab8496dbc80c7ef280899830ad"),
    ("verify-bounds",
     "p = 5;\nvars = x, y;\nideal = y^2 + 4*x^3;\ninner = x, y;\n"
     "socle = 1;\nm = 2;\nDelta = 9;\nemax = 3;\n",
     "6785595d401d5ed65fff40eec17d78e9ff17b920061c4d8bf0713a1a8224f68d"),
    # the purity exponent keys: element, exponent_cap, purity_exponent and
    # cap_exhausted
    ("fedder", FERMAT + "element = x;\necap = 2;\n",
     "84b5237599babf6e327e21bfd942b483d83122e39a1be4a6ab13e35e926c9279"),
]


@pytest.mark.parametrize("command, text, content_hash", RECORD_PAYLOAD_HASHES,
                         ids=["scan_node_p3", "tame_two_branch_p7_k0",
                              "bounds_cusp_p5", "fedder_fermat_p7"])
def test_record_payloads_keep_their_hashes(cli, tmp_path, command, text,
                                           content_hash):
    result = cli([command, "--input", write(tmp_path, "anchor.job", text)])
    assert result.exit_code == 0, result.stdout
    assert json.loads(result.stdout)["content_hash"] == content_hash


RECORDS = {
    "curves": ("BranchInvariants", "TameInvariants", "BranchRealization",
               "GeneratorBoundCheck", "TameReport"),
    "fsplit": ("SplittingSample", "PurityVerdict", "FSplitReport"),
    "hk": ("HKReport", "BoundConstants", "PairBoundEntry", "BoundCheck"),
    "localring": ("FrobeniusSample", "SmoothnessReport"),
    "records": ("RunRecord",),
    "scan": ("PointRecord", "WitnessValues", "SubvarietyRecord",
             "ScanVerdicts", "ScanReport"),
    "textio": ("SubvarietySpec",),
}


VALUE_TYPES = {
    "field": ("FieldConfig",),
    "poly": ("PolyRing",),
    "curves": ("Branch", "BranchCurve"),
    "hk": ("RationalInterval",),
    "series": ("TruncatedSeries",),
    "textio": ("JobSpec",),
}


IMPORT_PROBE = """
import json, sys
import kunz.cli
loaded = [name for name in ("click", "dataclasses", "inspect", "logging")
          if name in sys.modules]
import dataclasses, importlib
classes = json.loads(sys.argv[1])
print(json.dumps({
    "loaded": loaded,
    "dataclasses": [
        f"{module}.{name}" for module, names in classes.items()
        for name in names if dataclasses.is_dataclass(
            getattr(importlib.import_module(f"kunz.{module}"), name))],
}))
"""


def test_cli_import_generates_no_record_code():
    """Result records and value types are namedtuples, built without
    dataclass code generation; the CLI is argparse, not click; and the two
    stderr lines need no logging import. So `import kunz.cli` loads none of
    click, dataclasses, inspect or logging."""
    classes = {module: RECORDS.get(module, ()) + VALUE_TYPES.get(module, ())
               for module in {**RECORDS, **VALUE_TYPES}}
    out = run_child([json.dumps(classes)], code=IMPORT_PROBE)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"loaded": [], "dataclasses": []}


# the content hash of `hk` on the cone at emax = 3, as the click CLI wrote it
CONE_HK_E3_HASH = (
    "624744915a72cd52c9185e6f2719d5d5ab3af53237dd4f19c9e5d7aa2912ef9c")

WITHOUT_CLICK = """
import runpy, sys
sys.modules["click"] = None  # any `import click` now raises ImportError
runpy.run_module("kunz.cli", run_name="__main__", alter_sys=True)
"""


def test_cli_runs_without_click(tmp_path):
    out = run_child(["hk", "--input", write(tmp_path, "cone.job", CONE),
                     "--emax", "3"], code=WITHOUT_CLICK)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["content_hash"] == CONE_HK_E3_HASH


def test_main_freezes_the_imports_and_keeps_the_collector(cli, tmp_path):
    """main freezes what the imports made instead of disabling the
    collector: after an in-process call, a cycle made later is reclaimed."""
    result = cli(["hk", "--input", write(tmp_path, "cone.job", CONE),
                  "--emax", "1"])
    assert result.exit_code == 0
    assert gc.get_freeze_count() > 0
    assert gc.isenabled()

    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None


CSV_PROBE = """
import json, sys
import kunz.cli
print(json.dumps("csv" in sys.modules))
"""

# `kunz hk --csv` on the cone at emax = 3, as the CLI wrote it when records
# imported csv at module level
CONE_HK_E3_CSV = ("e,q,colength,lambda\n1,5,37,37/25\n2,25,937,937/625\n"
                  "3,125,23437,23437/15625\n")


def test_csv_loads_only_for_a_csv_view(tmp_path):
    probe = run_child([], code=CSV_PROBE)
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) is False
    out_path = tmp_path / "out.csv"
    out = run_child(["hk", "--input", write(tmp_path, "cone.job", CONE),
                     "--emax", "3", "--csv", str(out_path)])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["content_hash"] == CONE_HK_E3_HASH
    assert out_path.read_bytes() == CONE_HK_E3_CSV.encode()
