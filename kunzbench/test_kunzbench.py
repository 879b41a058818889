"""Tests of the benchmark itself: python3 -m pytest kunzbench -q"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import gate
import run
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, job_text, parse_terms, rescale

ALL_JOBS = [job for jobs in WORKLOADS.values() for job in jobs]


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
def test_generator_is_deterministic_per_seed(seed):
    first = [job_text(job, seed) for job in ALL_JOBS]
    again = [job_text(job, seed) for job in ALL_JOBS]
    assert first == again


def test_seeds_change_the_job_text():
    texts = {seed: [job_text(job, seed) for job in ALL_JOBS]
             for seed in range(1, 6)}
    assert len({tuple(t) for t in texts.values()}) == len(texts)


def test_every_job_of_a_workload_has_its_own_label():
    for jobs in WORKLOADS.values():
        assert len({job.label for job in jobs}) == len(jobs)


def test_tame_seed_keys_do_not_repeat_across_seeds():
    tame = WORKLOADS["tame"]
    keys = [job_text(job, seed).splitlines()[-1]
            for seed in range(3) for job in tame if job.name == tame[0].name]
    assert len(set(keys)) == len(keys)


def test_default_seed_keeps_the_anchor_coefficients():
    cone = next(job for job in ALL_JOBS if job.name == "hk_cone_p5")
    assert "ideal = x*y + 4*z^2;" in job_text(cone, DEFAULT_SEED)


def test_rescaling_is_substitution_of_scaled_variables():
    variables = ("x", "y", "z")
    scales = (2, 3, 4)
    scaled = dict((exps, c) for c, exps in parse_terms(
        rescale("x^2*y - 3*z + 1", variables, 7, scales), variables, 7))
    assert scaled == {(2, 1, 0): 2 * 2 * 3 % 7, (0, 0, 1): -3 * 4 % 7,
                      (0, 0, 0): 1}


def test_rescaled_witnesses_stay_on_the_subvariety():
    node = next(job for job in ALL_JOBS if job.name == "scan_node_p3")
    for seed in range(1, 8):
        statements = dict(line.rstrip(";").split(" = ", 1)
                          for line in job_text(node, seed).splitlines())
        gens = statements["sub.1.ideal"].split(", ")
        points = [tuple(int(a) for a in point.strip("()").split(","))
                  for point in statements["sub.1.witnesses"].split()]
        for text in gens:
            for point in points:
                value = sum(c * x**e[0] * y**e[1] * z**e[2]
                            for c, e in parse_terms(text, node.variables, 3)
                            for x, y, z in [point])
                assert value % 3 == 0


@pytest.fixture(scope="module")
def tame_document(tmp_path_factory):
    """A real result document of the cheapest job, at the default seed."""
    job = next(job for job in ALL_JOBS if job.label == "tame_2_3_p5_k0")
    path = tmp_path_factory.mktemp("job") / "tame.job"
    path.write_text(job_text(job, DEFAULT_SEED))
    out = subprocess.run(
        [sys.executable, "-m", "kunz.cli", "tame", "--input", str(path)],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True,
        timeout=120, check=True)
    return job.label, json.loads(out.stdout)


def test_gate_accepts_the_program_output(tame_document):
    name, document = tame_document
    assert gate.check(name, document, gate.load_frozen(), True) == []


def test_gate_rejects_a_tampered_invariant(tame_document):
    name, document = tame_document
    tampered = copy.deepcopy(document)
    tampered["payload"]["Delta"] += 1
    tampered["content_hash"] = gate.recomputed_hash(tampered)
    failures = gate.check(name, tampered, gate.load_frozen(), False)
    assert failures == [f"{name}: invariant Delta differs"]


def test_gate_rejects_a_payload_edited_under_its_hash(tame_document):
    name, document = tame_document
    tampered = copy.deepcopy(document)
    tampered["payload"]["precision"] += 1
    failures = gate.check(name, tampered, gate.load_frozen(), True)
    assert f"{name}: content_hash does not match the payload" in failures


def test_self_time_of_a_synthetic_nested_call():
    # root [0, 10] > a [1, 6] > (b [2, 4], a [4.5, 5.5]); root > c [7, 9]
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 4.0, 1],
        ["a", 4.5, 5.5, 1],
        ["c", 7.0, 9.0, 0],
    ]
    times = tracing.span_times(spans)
    assert times["cli.main"]["self_s"] == pytest.approx(3.0)
    assert times["a"] == {"calls": 2, "self_s": pytest.approx(3.0),
                          "incl_s": pytest.approx(5.0)}
    assert times["b"]["self_s"] == pytest.approx(2.0)
    assert times["c"]["incl_s"] == pytest.approx(2.0)
    assert tracing.top_level_time(spans) == pytest.approx(7.0)


def test_recorder_links_nested_spans_to_their_parents():
    recorder = tracing.Recorder()

    def inner(x):
        return x + 1

    traced_inner = recorder.span("inner", inner)
    outer = recorder.span("outer", lambda x: traced_inner(x) * traced_inner(x))
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in recorder.spans] == [
        ("cli.main", -1), ("outer", 0), ("inner", 1), ("inner", 1)]


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"])
