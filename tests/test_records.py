import json
from fractions import Fraction

import pytest

from kunz.errors import PreconditionError
from kunz.records import (RunRecord, content_hash, csv_text, encode_value,
                          format_rational)
from kunz.textio import parse_job, render_job

JOB = parse_job("command = hk; p = 5; vars = x, y, z; "
                "ideal = x*y - z^2; emax = 1;")
PAYLOAD = {
    "p": 5,
    "samples": [{"e": 1, "q": 5, "colength": 37, "lambda": Fraction(37, 25)}],
    "empirical_gap_constant": Fraction(0),
}


def test_rationals_encode_as_string_pairs():
    encoded = encode_value({"value": Fraction(-5, 3), "count": 7,
                            "flag": True, "missing": None,
                            "list": (Fraction(1, 2), "x")})
    assert encoded["value"] == {"num": "-5", "den": "3"}
    assert encoded["count"] == 7 and encoded["flag"] is True
    assert encoded["missing"] is None
    assert encoded["list"] == [{"num": "1", "den": "2"}, "x"]
    value = encoded["value"]
    assert Fraction(int(value["num"]), int(value["den"])) == Fraction(-5, 3)


def test_floats_are_refused_in_payloads():
    with pytest.raises(PreconditionError):
        encode_value({"oops": 1.5})
    with pytest.raises(PreconditionError):
        encode_value([0.0])


def test_format_rational():
    assert format_rational(Fraction(5, 3)) == "5/3"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 4)) == "-1/4"


def test_document_shape_and_hash_stability():
    slow = RunRecord(job=JOB, payload=PAYLOAD, timings={"total": 9.9})
    fast = RunRecord(job=JOB, payload=PAYLOAD, timings={"total": 0.001})
    a, b = slow.to_document(), fast.to_document()
    assert a["content_hash"] == b["content_hash"]
    assert a["schema_version"] == 1
    assert a["job"]["text"] == render_job(JOB)
    assert a["timings_seconds"] != b["timings_seconds"]
    parsed = json.loads(slow.to_json())
    assert parsed["payload"]["samples"][0]["lambda"] == {
        "num": "37", "den": "25"}


def test_hash_tracks_job_and_payload():
    base = content_hash(render_job(JOB), PAYLOAD)
    other_payload = dict(PAYLOAD, p=7)
    assert content_hash(render_job(JOB), other_payload) != base
    other_job = render_job(JOB).replace("emax = 1", "emax = 2")
    assert content_hash(other_job, PAYLOAD) != base


def test_csv_views():
    hk = csv_text("hk", PAYLOAD)
    assert hk.splitlines() == ["e,q,colength,lambda", "1,5,37,37/25"]
    scan_payload = {
        "e_values": [1],
        "points": [{"point": [0, 0], "lambda": [Fraction(5, 3)],
                    "s": [Fraction(1, 3)]}],
    }
    scan = csv_text("scan", scan_payload)
    assert scan.splitlines() == ["point,e,lambda,s", "0 0,1,5/3,1/3"]
    bounds_payload = {"entries": [
        {"e": 1, "e_prime": 2, "lhs": Fraction(0), "rhs": Fraction(18, 5),
         "passed": True}]}
    bounds = csv_text("verify-bounds", bounds_payload)
    assert bounds.splitlines()[1] == "1,2,0,18/5,True"


def test_non_tabular_commands_have_no_csv():
    for command in ("fedder", "tame"):
        with pytest.raises(PreconditionError):
            csv_text(command, {})
