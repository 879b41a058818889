"""End-to-end benchmark of the `kunz` CLI.

    python3 kunzbench/run.py --workload hk --seed 0 --seconds 10 --trace 0

Runs the workload's job list (see workloads.py) through the real CLI, one
job at a time: every job is a fresh `python -m kunz.cli <cmd> --input <job>`
child started from the source tree with PYTHONPATH=src, so the load is a
closed loop with one client. Every result passes the correctness gate
(gate.py) or counts as failed. Times are at a nominal CPU speed (clock.py).

--trace 0 measures the end-to-end metrics. It first times `setup_s`, then
starts passes over the job list until --seconds have passed, and reports
the median over passes.

--trace 1 runs one untraced pass and two traced passes (tracing.py) and
reports the per-layer metrics of the traced passes. The two traced passes
must give identical counts, or the run is not correct. Here every anchor job
runs at its first seed key only: three passes over all `tame` keys would not
fit the time a run may take.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The line before it holds the run facts, which are
also written with the metrics to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
from clock import Child, NominalClock, pin_to_one_cpu
from workloads import DEFAULT_SEED, WORKLOADS, Job, job_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).with_name("tracing.py")

JOB_TIMEOUT_S = 120.0
SETUP_REPEATS = 9

END_TO_END = {
    "batch_s": "s",
    "cpu_s": "s",
    "job_s_p50": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "job_success_rate": "ratio",
}

# Layer metrics: <module>.<function>.{calls,self_s,incl_s}, the counters
# recorded with them, and the shares left outside any layer.
PER_LAYER = (
    "engine.monomial_colength.calls", "engine.monomial_colength.self_s",
    "engine.groebner.calls", "engine.groebner.self_s", "engine.pairs",
    "kernel.reduce_full.calls", "kernel.reduce_full.self_s",
    "kernel.reduce_full.zero_frac",
    "kernel.s_poly.calls", "kernel.s_poly.self_s",
    "engine.Ideal.intersection.calls", "engine.Ideal.intersection.incl_s",
    "engine.div_exact.calls", "engine.div_exact.self_s",
    "engine.Ideal.dimension.calls",
    "localring.LocalRingPresentation.sample.calls",
    "localring.LocalRingPresentation.sample.incl_s",
    "hk.hk_sequence.incl_s",
    "fsplit.twist_colon_ideal.calls", "fsplit.twist_colon_ideal.incl_s",
    "fsplit.splitting_number.calls", "fsplit.splitting_number.incl_s",
    "fsplit.fedder_test.incl_s", "fsplit.fpurity_exponent.incl_s",
    "scan.scan_points.incl_s",
    "scan.generic_value.calls", "scan.generic_value.incl_s",
    "curves.discriminant_valuation.incl_s", "curves.extension_degree.incl_s",
    "curves.generator_bound_check.incl_s", "curves.realize_curve.calls",
    "series.TruncatedSeries.__mul__.calls",
    "series.TruncatedSeries.__mul__.self_s",
    "series.determinant_valuation.self_s",
    "textio.parse_job.self_s", "records.RunRecord.to_json.self_s",
    "cli.other_s", "trace.overhead_s", "trace.layer_share",
)
ZERO_FRAC = "kernel.reduce_full.zero_frac"


def unit_of(metric: str) -> str:
    if metric.endswith(".calls") or metric == tracing.PAIRS:
        return "count"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def is_deterministic(metric: str) -> bool:
    """Counts that must repeat exactly between two traced passes."""
    return unit_of(metric) == "count" or metric == ZERO_FRAC


@dataclass
class JobResult:
    child: Child
    failures: list[str]
    trace: dict | None = None


@dataclass
class Pass:
    jobs: list[JobResult]

    @property
    def wall_s(self) -> float:
        """Nominal-speed wall seconds of the pass's job children."""
        return sum(job.child.wall_s for job in self.jobs)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Runner:
    """Runs the jobs of one benchmark run and checks their results."""

    clock: NominalClock
    scratch: Path
    frozen: dict
    default_seed: bool

    def child(self, argv: list[str], name: str) -> Child:
        return self.clock.run(argv, ROOT, child_env(),
                              self.scratch / f"{name}.out",
                              self.scratch / f"{name}.err", JOB_TIMEOUT_S)

    def job(self, job: Job, job_path: Path, traced: bool) -> JobResult:
        spans_path = self.scratch / f"{job.label}.spans.json"
        cli_args = [job.command, "--input", str(job_path)]
        if traced:
            argv = [sys.executable, str(TRACER), str(spans_path)] + cli_args
        else:
            argv = [sys.executable, "-m", "kunz.cli"] + cli_args
        child = self.child(argv, job.label)
        failures = []
        trace = None
        if child.code is None:
            failures.append(
                f"{job.label}: timed out after {JOB_TIMEOUT_S:.0f} s")
        elif child.code != 0:
            failures.append(f"{job.label}: exit code {child.code}")
        else:
            out_path = self.scratch / f"{job.label}.out"
            try:
                document = json.loads(out_path.read_text(encoding="utf-8"))
                failures += gate.check(job.label, document, self.frozen,
                                       self.default_seed)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                failures.append(f"{job.label}: stdout is not a result "
                                f"document ({type(exc).__name__}: {exc})")
            if traced:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
        return JobResult(child, failures, trace)

    def one_pass(self, jobs: tuple[Job, ...], paths: list[Path],
                 traced: bool) -> Pass:
        return Pass([self.job(job, path, traced)
                     for job, path in zip(jobs, paths)])

    def setup_s(self) -> float:
        """Median wall seconds to start the interpreter and import kunz.cli.

        One untimed warm-up run first, so bytecode compilation is not
        counted.
        """
        argv = [sys.executable, "-c", "import kunz.cli"]
        times = []
        for attempt in range(SETUP_REPEATS + 1):
            child = self.child(argv, "setup")
            if child.code != 0:
                err = (self.scratch / "setup.err").read_text(errors="replace")
                raise SystemExit(f"`import kunz.cli` failed:\n{err}")
            if attempt:
                times.append(child.wall_s)
        return statistics.median(times)


def median_job_s(jobs: tuple[Job, ...], one_pass: Pass) -> float:
    """Median wall seconds per anchor job; an anchor run at several seed
    keys counts once, at the mean over its keys. A plain median over all
    jobs would fall between two anchors' groups of keys and jump with the
    seed."""
    by_anchor: dict[str, list[float]] = {}
    for job, result in zip(jobs, one_pass.jobs):
        by_anchor.setdefault(job.name, []).append(result.child.wall_s)
    return statistics.median(statistics.fmean(walls)
                             for walls in by_anchor.values())


def end_to_end_metrics(jobs: tuple[Job, ...], passes: list[Pass],
                       setup_s: float) -> dict:
    median = statistics.median
    results = [job for p in passes for job in p.jobs]
    return {
        "batch_s": median([p.wall_s for p in passes]),
        "cpu_s": median([sum(j.child.cpu_s for j in p.jobs) for p in passes]),
        "job_s_p50": median([median_job_s(jobs, p) for p in passes]),
        "peak_rss_mb": median([max(j.child.rss_mb for j in p.jobs)
                               for p in passes]),
        "setup_s": setup_s,
        "job_success_rate": sum(not j.failures for j in results) / len(results),
    }


def layer_metrics(traced: Pass) -> dict:
    """Per-layer metrics summed over the jobs of one traced pass."""
    rows: dict[str, dict[str, float]] = {}
    counters = {tracing.PAIRS: 0, tracing.ZERO_REDUCTIONS: 0}
    other = main_s = covered = 0.0
    for job in traced.jobs:
        if job.trace is None:
            continue
        spans = job.trace["spans"]
        for name, row in tracing.span_times(spans).items():
            total = rows.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "incl_s": 0.0})
            for key, value in row.items():
                total[key] += value
        for key, value in job.trace["counters"].items():
            counters[key] += value
        top = tracing.top_level_time(spans)
        other += job.child.raw_wall_s - top
        main_s += spans[0][2] - spans[0][1]
        covered += top
    metrics = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s", "incl_s"):
            metrics[metric] = rows.get(layer, {}).get(kind, 0)
    reductions = metrics["kernel.reduce_full.calls"]
    metrics[tracing.PAIRS] = counters[tracing.PAIRS]
    metrics[ZERO_FRAC] = (
        counters[tracing.ZERO_REDUCTIONS] / reductions if reductions else 0.0)
    metrics["cli.other_s"] = other
    metrics["trace.layer_share"] = covered / main_s if main_s else 0.0
    return metrics


def per_layer_metrics(untraced: Pass, traced: list[Pass]) -> tuple[dict, list[str]]:
    """Median over the traced passes, and the counts that differ between them."""
    runs = [layer_metrics(p) for p in traced]
    metrics = {}
    unstable = []
    for metric in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        values = [run[metric] for run in runs]
        if not is_deterministic(metric):
            metrics[metric] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            unstable.append(f"{metric}: {values}")
        metrics[metric] = values[0]
    metrics["trace.overhead_s"] = (
        statistics.median([p.wall_s for p in traced]) - untraced.wall_s)
    return metrics, unstable


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_facts(args, jobs: tuple[Job, ...], passes: list[Pass],
              load_start: tuple, backend: str | None) -> dict:
    """What a reader needs to compare this result with another one."""
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "clients": 1,
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "job_s": {job.label: statistics.median(p.jobs[i].child.wall_s
                                               for p in passes)
                  for i, job in enumerate(jobs)},
        "raw_batch_s": statistics.median(
            sum(j.child.raw_wall_s for j in p.jobs) for p in passes),
        "raw_cpu_s": statistics.median(
            sum(j.child.raw_cpu_s for j in p.jobs) for p in passes),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "backend": backend,
        "git_commit": _git_commit(),
    }


def _backend(scratch: Path, jobs: tuple[Job, ...]) -> str | None:
    """kunz.kernel.BACKEND as the first job's result document reports it."""
    try:
        document = json.loads((scratch / f"{jobs[0].label}.out").read_text())
        return document.get("backend")
    except (OSError, ValueError):
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kunz" / "cli.py").is_file():
        print(f"no kunz sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    if args.trace:
        jobs = tuple(job for job in jobs if job.key == 0)
    frozen = gate.load_frozen()
    default_seed = args.seed == DEFAULT_SEED
    load_start = os.getloadavg()

    # A terminated harness still stops its child: the exit unwinds through
    # NominalClock.run, which kills and reaps a child that is still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        paths = []
        for job in jobs:
            path = scratch / f"{job.label}.job"
            path.write_text(job_text(job, args.seed), encoding="utf-8")
            paths.append(path)
        runner = Runner(NominalClock(pause=not args.trace), scratch, frozen,
                        default_seed)

        def one_pass(traced: bool) -> Pass:
            return runner.one_pass(jobs, paths, traced)

        unstable: list[str] = []
        if args.trace:
            untraced = one_pass(False)
            traced = [one_pass(True), one_pass(True)]
            passes = [untraced] + traced
            metrics, unstable = per_layer_metrics(untraced, traced)
            units = {m: unit_of(m) for m in PER_LAYER}
        else:
            setup_s = runner.setup_s()
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(one_pass(False))
            metrics = end_to_end_metrics(jobs, passes, setup_s)
            units = END_TO_END
        backend = _backend(scratch, jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs_run = [job for p in passes for job in p.jobs]
    failures = [f for job in jobs_run for f in job.failures]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for line in unstable:
        print(f"NONDETERMINISTIC {line}", file=sys.stderr)
    failed = sum(bool(job.failures) for job in jobs_run)
    facts = run_facts(args, jobs, passes, load_start, backend)
    facts["error_rate"] = failed / len(jobs_run)
    result = {
        "correct": not failures and not unstable,
        "attempted": len(jobs_run),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / (f"{args.workload}-seed{args.seed}-"
                            f"trace{args.trace}.json")
    record.write_text(json.dumps({"facts": facts, "result": result},
                                 indent=2) + "\n", encoding="utf-8")
    for name, entry in result["metrics"].items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
