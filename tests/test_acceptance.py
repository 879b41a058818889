"""Acceptance suite. One test per criterion; `pytest -v` prints one
pass/fail line for each. Every test also enforces its runtime budget, so a
pathological slowdown fails the criterion rather than hanging the suite.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import kunz
from kunz.curves import Branch, BranchCurve, tame_report
from kunz.engine import Ideal, maximal_ideal
from kunz.field import FieldConfig
from kunz.fsplit import fedder_test, fsplit_report, splitting_number
from kunz.hk import (BoundConstants, check_socle_condition, hk_sequence,
                     verify_pair_bounds)
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing
from kunz.records import canonical_json
from kunz.scan import scan_points
from kunz.textio import SubvarietySpec
from lemmas import (hypersurface_bound, tame_trial_valuation,
                    verify_basic_lengths)
from oracles import node_lambda, node_splitting


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.budget, (
            f"runtime budget exceeded: {elapsed:.1f}s >= {self.budget}s")


VARIABLE_SETS = [["x"], ["x", "y"], ["x", "y", "z"]]


def test_criterion_01_regularity_detection():
    watch = Stopwatch(10)
    for p in (2, 3, 5):
        for variables in VARIABLE_SETS:
            pres = LocalRingPresentation.from_texts(p, variables, [])
            for e in (1, 2, 3):
                assert pres.lambda_value(e) == 1
                assert splitting_number(pres, e).s == 1
    watch.check()


def test_criterion_02_node_closed_forms():
    watch = Stopwatch(30)
    for p in (2, 3, 5):
        pres = LocalRingPresentation.from_texts(p, ["x", "y"], ["x*y"])
        for e in (1, 2, 3):
            assert pres.lambda_value(e) == node_lambda(p, e)
            assert splitting_number(pres, e).s == node_splitting(p, e)
    watch.check()


def test_criterion_03_trace_determinant_trials():
    watch = Stopwatch(60)
    passed = 0
    for trial in range(100):
        rng = random.Random(f"acceptance:trial:{trial}")
        p = rng.choice([2, 3, 5, 7])
        degree = rng.choice([s for s in range(2, 6) if s % p != 0])
        widths = [w for w in range(degree + 1, 2 * degree + 2)
                  if gcd(w, degree) == 1]
        x_valuation = rng.choice(widths)
        value = tame_trial_valuation(p, degree, x_valuation, seed=trial)
        if value == (degree + 1) * x_valuation:
            passed += 1
    assert passed == 100
    watch.check()


def test_criterion_04_tame_invariant_suite():
    watch = Stopwatch(30)
    cusp = tame_report(BranchCurve(5, (Branch((2, 3)),)))
    branch = cusp.invariants.per_branch[0]
    assert (branch.gamma0, branch.beta, branch.gamma,
            cusp.invariants.delta, cusp.invariants.Delta) == (2, 0, 2, 2, 9)
    assert cusp.discriminant_valuation == 9
    assert cusp.extension_degree == cusp.invariants.delta
    node = tame_report(BranchCurve(5, (Branch((1,), cross_valuations=(1,)),
                                       Branch((1,), cross_valuations=(1,)))))
    assert node.invariants.delta == 2
    assert node.invariants.Delta == 8
    assert node.discriminant_valuation == 8
    assert node.extension_degree == node.invariants.delta
    watch.check()


def test_criterion_05_uniform_pair_bounds():
    watch = Stopwatch(300)
    cases = [
        (["y^2 - x^3"], BoundConstants(m=2, Delta=9)),
        (["x*y"], BoundConstants(m=2, Delta=8)),
    ]
    for gens, constants in cases:
        pres = LocalRingPresentation.from_texts(5, ["x", "y"], gens)
        check = verify_pair_bounds(pres, maximal_ideal(pres.ring),
                                   pres.ring.one(), 3, constants)
        assert len(check.entries) == 6
        assert check.all_passed, [
            (entry.e, entry.e_prime) for entry in check.entries
            if not entry.passed]
    watch.check()


def length_identity_draws():
    """(trial, pres, inner, u) for the 50 seeded socle instances of
    criterion 6: inner = (x'^a, y^b) after the unimodular change
    x' = x + c*y, and u = x'^(a-1) y^(b-1), in the polynomial ring."""
    for trial in range(50):
        rng = random.Random(f"acceptance:lengths:{trial}")
        p = rng.choice([2, 3, 5])
        ring = PolyRing(FieldConfig(p), ("x", "y"))
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        c = rng.randrange(p)
        x = ring.parse("x") + ring.parse("y").scale(c)
        y = ring.parse("y")
        inner = Ideal(ring, [x**a, y**b])
        u = x ** (a - 1) * y ** (b - 1)
        yield trial, LocalRingPresentation(ring, []), inner, u


def test_criterion_06_length_identity_instances():
    watch = Stopwatch(300)
    for trial, pres, inner, u in length_identity_draws():
        check_socle_condition(pres, inner, u)  # the draw must satisfy (I:u)=m
        for q in (pres.p, pres.p ** 2):
            check = verify_basic_lengths(pres, inner, u, q)
            assert check.passed, (trial, pres.p, inner, u, q)
    watch.check()


def hypersurface_draws():
    """(trial, f, n, e) for the 25 seeded hypersurfaces of criterion 7."""
    for trial in range(25):
        rng = random.Random(f"acceptance:hypersurface:{trial}")
        p = rng.choice([2, 3, 5, 7])
        nvars = rng.choice([2, 3])
        ring = PolyRing(FieldConfig(p), tuple("xyz"[:nvars]))
        f = ring.zero()
        while f.is_zero():
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in range(nvars))
                f = f + ring.monomial(exps, rng.randint(1, p - 1))
        n = f.order_of_vanishing()
        e = rng.choice([1, 2]) if p < 7 else 1
        yield trial, f, n, e


def test_criterion_07_hypersurface_colength_bound():
    watch = Stopwatch(120)
    for trial, f, n, e in hypersurface_draws():
        assert hypersurface_bound(f, n, e).passed, (trial, str(f), n, e)
    # the pure power family attains the bound exactly
    ring = PolyRing(FieldConfig(5), ("x", "y"))
    for n in (1, 2, 3, 4):
        for e in (1, 2):
            check = hypersurface_bound(ring.parse(f"x^{n}"), n, e)
            assert check.colength == check.bound
    watch.check()


FEDDER_SUITE = [
    (7, ["x", "y", "z"], ["x^3 + y^3 + z^3"], True),
    (5, ["x", "y", "z"], ["x^3 + y^3 + z^3"], False),
    (2, ["x", "y"], ["x^2"], False),
    (3, ["x", "y"], ["x^2"], False),
    (5, ["x", "y"], ["x^2"], False),
    (3, ["x", "y"], ["x^2*y^2"], False),
]


def test_criterion_08_fedder_and_purity():
    watch = Stopwatch(120)
    for p, variables, gens, expected in FEDDER_SUITE:
        pres = LocalRingPresentation.from_texts(p, variables, gens)
        verdict = fedder_test(pres)
        assert verdict.is_F_pure is expected, (p, gens)
        assert verdict.is_F_pure == (splitting_number(pres, 1).s > 0), (p, gens)
    watch.check()


def test_criterion_09_semicontinuity_scans():
    watch = Stopwatch(300)
    # plane cusp: the singular origin against the smooth points
    cusp_scan = scan_points(5, ("x", "y"), ["y^2 - x^3"], e_max=2)
    assert len(cusp_scan.points) == 5
    assert cusp_scan.verdicts.upper_semicontinuous_lambda
    assert cusp_scan.verdicts.lower_semicontinuous_s
    assert cusp_scan.verdicts.generic_constancy
    assert cusp_scan.verdicts.violations == ()

    # node surface: the factorized generic value along the singular line
    node_scan = scan_points(
        3, ("x", "y", "z"), ["x*y"], e_max=2,
        subvarieties=(SubvarietySpec(("x", "y"), ((0, 0, 0), (0, 0, 1)),
                                     ("z",)),))
    assert node_scan.verdicts.upper_semicontinuous_lambda
    assert node_scan.verdicts.lower_semicontinuous_s
    assert node_scan.verdicts.generic_constancy
    assert node_scan.verdicts.violations == ()
    sub = node_scan.subvarieties[0]
    assert sub.agreement and len(sub.witness_values) == 2
    direct = LocalRingPresentation.from_texts(3, ["x", "y"], ["x*y"])
    assert sub.witness_values[0].values[0] == Fraction(5, 3)
    assert sub.witness_values[0].values[0] == direct.lambda_value(1)
    watch.check()


SUITE_RINGS = [
    (5, ["x", "y"], []),
    (5, ["x", "y", "z"], ["x*y - z^2"]),
    (3, ["x", "y"], ["x*y"]),
    (5, ["x", "y"], ["y^2 - x^3"]),
    (7, ["x", "y", "z"], ["x^3 + y^3 + z^3"]),
]


def test_criterion_10_convergence_rate_evidence():
    watch = Stopwatch(600)
    for p, variables, gens in SUITE_RINGS:
        pres = LocalRingPresentation.from_texts(p, variables, gens)
        for builder in (hk_sequence, fsplit_report):
            shorter = builder(pres, 2)
            longer = builder(pres, 3)
            values = [(s.e, s.normalized if hasattr(s, "normalized") else s.s)
                      for s in longer.samples]
            gaps = [p**e * abs(v - values[i + 1][1])
                    for i, (e, v) in enumerate(values[:-1])]
            constant = max(gaps, default=Fraction(0))
            assert all(gap <= constant for gap in gaps)
            assert longer.empirical_C == constant
            # the tail interval from more samples must nest inside fewer
            assert longer.interval.low >= shorter.interval.low
            assert longer.interval.high <= shorter.interval.high
    watch.check()


JOB_TEXTS = {
    "hk": "p = 5; vars = x, y, z; ideal = x*y - z^2; emax = 2;",
    "fsig": "p = 3; vars = x, y; ideal = x*y; emax = 2;",
    "fedder": "p = 7; vars = x, y, z; ideal = x^3 + y^3 + z^3;",
    "tame": "p = 5; branch = 2, 3;",
    "scan": "p = 3; vars = x, y; ideal = x*y; points = (0,0) (1,0); emax = 1;",
    "verify-bounds": ("p = 5; vars = x, y; ideal = y^2 - x^3; inner = x, y; "
                      "m = 2; Delta = 9; emax = 2;"),
}


def _run_suite_once(tmp_path, tag):
    # the CLI children import the package under test from where this
    # process found it, which need not be on PYTHONPATH
    source = str(Path(kunz.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": source + os.pathsep + path if path else source}
    documents = {}
    for command, text in JOB_TEXTS.items():
        job = tmp_path / f"{command}-{tag}.job"
        job.write_text(text + "\n")
        out = subprocess.run(
            [sys.executable, "-m", "kunz.cli", command,
             "--input", str(job)],
            capture_output=True, text=True, env=env)
        assert out.returncode == 0, (command, out.stderr)
        documents[command] = json.loads(out.stdout)
    return documents


def test_criterion_11_deterministic_payloads(tmp_path):
    first = _run_suite_once(tmp_path, "a")
    second = _run_suite_once(tmp_path, "b")
    for command in JOB_TEXTS:
        payload_a = canonical_json(first[command]["payload"])
        payload_b = canonical_json(second[command]["payload"])
        assert payload_a == payload_b, command
        assert first[command]["content_hash"] == \
            second[command]["content_hash"], command
