import importlib
import json
from fractions import Fraction

import pytest

from kunz.errors import CapacityError, PreconditionError
from kunz.field import FieldConfig
from kunz.poly import PolyRing
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


def test_values_of_other_types_are_refused_in_payloads():
    """No str() fallback: a set would be hashed in an order that varies
    between processes, and a Polynomial as its display text."""
    x = PolyRing(FieldConfig(5), ("x",)).variable("x")
    for value, name in [({1, 2}, "set"), (x, "Polynomial")]:
        with pytest.raises(PreconditionError) as err:
            encode_value({"oops": [value]})
        assert str(err.value) == (
            f"refusing to serialize a {name} into a results payload")


def test_numbers_past_4300_digits_are_refused_in_payloads():
    """Python's int-to-decimal limit: 10^4300 has 4301 digits."""
    longest = 10 ** 4300 - 1
    assert encode_value([longest, -longest]) == [longest, -longest]
    assert encode_value(Fraction(1, longest))["den"] == str(longest)
    for value in (10 ** 4300, -10 ** 4300, Fraction(10 ** 4300, 3),
                  Fraction(-1, 10 ** 4300)):
        with pytest.raises(CapacityError) as err:
            encode_value({"samples": [{"colength": value}]})
        assert str(err.value) == "a payload number exceeds 4300 digits"


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


# Every record class of the package, by module: its fields in order and its
# defaults. The payload builders read records by field, encode_value writes
# them as lists, and render_job omits a JobSpec field at its default.
_JOB_DEFAULTS = {
    "variables": (), "ideal": (), "point": None, "points": None,
    "branches": (), "cross": (), "subvarieties": (), "inner": (),
    "socle": None, "element": None, "m_constant": None,
    "delta_constant": None, "e_max": None, "e_cap": None, "seed": 0, "mu": 1,
    "budget_pairs": None}
_JOB_FIELDS = ("command p variables ideal point points branches cross "
               "subvarieties inner socle element m_constant delta_constant "
               "e_max e_cap seed mu budget_pairs")
_BRANCH = ("semigroup_generators cross_valuations conductor",
           {"cross_valuations": (), "conductor": None})
RECORD_SHAPES = {
    "curves": {
        "_Branch": _BRANCH,
        "Branch": _BRANCH,
        "_BranchCurve": ("p branches", {}),
        "BranchCurve": ("p branches", {}),
        "BranchInvariants": ("gamma0 beta gamma", {}),
        "TameInvariants": ("per_branch delta Delta", {}),
        "BranchRealization": ("gamma s basis_element", {}),
        "GeneratorBoundCheck": ("count delta mu bound passed", {}),
        "TameReport": (
            "p semigroups invariants parameter_valuations "
            "discriminant_valuation extension_degree generator_count "
            "generator_bound precision", {}),
    },
    "field": {"_FieldConfig": ("p", {}), "FieldConfig": ("p", {})},
    "fsplit": {
        "SplittingSample": ("e q colength s", {}),
        "PurityVerdict": ("is_F_pure witness detail", {}),
        "FSplitReport": ("presentation_id p dimension samples empirical_C "
                         "interval verdict", {}),
    },
    "hk": {
        "_RationalInterval": ("low high", {}),
        "RationalInterval": ("low high", {}),
        "HKReport": ("presentation_id p dimension samples empirical_C "
                     "interval stabilization_index truncated", {}),
        "BoundConstants": ("m Delta", {}),
        "PairBoundEntry": ("e e_prime lhs rhs", {}),
        "BoundCheck": ("constants entries", {}),
    },
    "localring": {
        "FrobeniusSample": ("e q colength normalized", {}),
        "SmoothnessReport": ("dimension codimension jacobian_rank smooth",
                             {}),
    },
    "poly": {"_PolyRing": ("field variables", {}),
             "PolyRing": ("field variables", {})},
    "records": {"RunRecord": ("job payload timings", {})},
    "scan": {
        "PointRecord": ("point dimension smooth lambda_values s_values", {}),
        "WitnessValues": ("witness values", {}),
        "SubvarietyRecord": ("generators height parameter_count "
                             "witness_values agreement", {}),
        "ScanVerdicts": ("upper_semicontinuous_lambda lower_semicontinuous_s "
                         "generic_constancy violations", {}),
        "ScanReport": ("p variables ideal_generators e_values points "
                       "subvarieties verdicts", {}),
    },
    "series": {"TruncatedSeries": ("p coeffs prec", {"prec": None})},
    "textio": {
        "SubvarietySpec": ("ideal witnesses params", {}),
        "_JobSpec": (_JOB_FIELDS, _JOB_DEFAULTS),
        "JobSpec": (_JOB_FIELDS, _JOB_DEFAULTS),
    },
}


@pytest.mark.parametrize("module_name", list(RECORD_SHAPES))
def test_record_classes_keep_their_shape(module_name):
    module = importlib.import_module(f"kunz.{module_name}")
    found = {name: cls for name, cls in vars(module).items()
             if isinstance(cls, type) and issubclass(cls, tuple)
             and cls.__module__ == module.__name__}
    assert set(found) == set(RECORD_SHAPES[module_name])
    for name, (fields, defaults) in RECORD_SHAPES[module_name].items():
        cls = found[name]
        assert cls._fields == tuple(fields.split()), name
        assert cls._field_defaults == defaults, name
        # no per-instance __dict__: records stay plain immutable tuples
        assert "__dict__" not in dir(cls), name
