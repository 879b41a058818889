"""Command line front end.

Every subcommand reads one job file in the statement format documented in
textio, runs the matching computation, and emits a RunRecord document as
JSON (to --json or stdout). Tabular commands can additionally write a CSV
view with --csv. All diagnostics go to stderr; stdout carries results only.

Exit codes: 0 success, 2 parse error, 3 precondition violation, 4 budget
exhausted, 5 capacity limit, 6 precision loss. Failures still emit a
machine-readable error document on the JSON channel. Usage errors exit 2
before any job runs, with the usage message on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import NoReturn

from . import __version__
from .curves import (Branch, BranchCurve, TameReport, tame_invariants,
                     tame_report)
from .engine import Budget, Ideal
from .errors import (BudgetExceededError, CapacityError, KunzError,
                     ParseError, PrecisionLossError, PreconditionError)
from .fsplit import fedder_test, fpurity_exponent, fsplit_report
from .hk import BoundConstants, hk_sequence, verify_pair_bounds
from .localring import LocalRingPresentation
from .records import (SCHEMA_VERSION, RunRecord, canonical_json, csv_text,
                      require_tabular)
from .scan import Subvariety, scan_points
from .textio import JobSpec, parse_job

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_CAPACITY = 5
EXIT_PRECISION = 6

_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (PreconditionError, EXIT_PRECONDITION),
    (BudgetExceededError, EXIT_BUDGET),
    (CapacityError, EXIT_CAPACITY),
    (PrecisionLossError, EXIT_PRECISION),
)


def exit_code_for(err: KunzError) -> int:
    for cls, code in _EXIT_CODES:
        if isinstance(err, cls):
            return code
    return 1


# -- payload builders --------------------------------------------------------


def _interval(interval) -> dict:
    return {"low": interval.low, "high": interval.high}


def _presentation(job: JobSpec) -> LocalRingPresentation:
    if not job.variables:
        raise PreconditionError("the job needs a `vars = ...;` statement")
    return LocalRingPresentation.from_texts(
        job.p, list(job.variables), list(job.ideal), point=job.point)


def _budget(job: JobSpec) -> Budget:
    """The job's one budget: default ceilings unless the job caps pairs."""
    if job.budget_pairs is None:
        return Budget()
    return Budget(max_pairs=job.budget_pairs)


def _e_max(job: JobSpec, default: int) -> int:
    """The job's e_max, or the command's default when the job gives none."""
    return default if job.e_max is None else job.e_max


def run_hk(job: JobSpec) -> dict:
    presentation = _presentation(job)
    report = hk_sequence(presentation, _e_max(job, 3), _budget(job))
    return {
        "p": report.p,
        "presentation": report.presentation_id,
        "dimension": report.dimension,
        "samples": [
            {"e": s.e, "q": s.q, "colength": s.colength,
             "lambda": s.normalized}
            for s in report.samples
        ],
        "empirical_gap_constant": report.empirical_C,
        "interval": _interval(report.interval),
        "stabilization_index": report.stabilization_index,
        "truncated": report.truncated,
    }


def run_fsig(job: JobSpec) -> dict:
    presentation = _presentation(job)
    report = fsplit_report(presentation, _e_max(job, 3), _budget(job))
    return {
        "p": report.p,
        "presentation": report.presentation_id,
        "dimension": report.dimension,
        "samples": [
            {"e": s.e, "q": s.q, "colength": s.colength, "s": s.s}
            for s in report.samples
        ],
        "empirical_gap_constant": report.empirical_C,
        "interval": _interval(report.interval),
        "is_F_pure": report.verdict.is_F_pure,
        "purity_witness": (None if report.verdict.witness is None
                           else str(report.verdict.witness)),
        "purity_detail": report.verdict.detail,
    }


def run_fedder(job: JobSpec) -> dict:
    presentation = _presentation(job)
    budget = _budget(job)
    verdict = fedder_test(presentation, budget)
    payload = {
        "p": presentation.p,
        "is_F_pure": verdict.is_F_pure,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "detail": verdict.detail,
    }
    if job.element is not None:
        element = presentation.ring.parse(job.element)
        cap = 4 if job.e_cap is None else job.e_cap
        exponent = fpurity_exponent(presentation, element, cap, budget)
        payload["element"] = str(element)
        payload["exponent_cap"] = cap
        payload["purity_exponent"] = exponent
        payload["cap_exhausted"] = exponent is None
    return payload


def _curve(job: JobSpec) -> BranchCurve:
    if not job.branches:
        raise PreconditionError(
            "the job needs at least one `branch = ...;` statement")
    branches = tuple(
        Branch(gens, cross) for gens, cross in zip(job.branches, job.cross))
    return BranchCurve(job.p, branches)


def _tame_payload(curve: BranchCurve, report: TameReport) -> dict:
    return {
        "p": report.p,
        "branches": [
            {
                "semigroup": list(report.semigroups[i]),
                "cross": list(branch.cross_valuations),
                "conductor": branch.conductor,
                "gamma0": inv.gamma0,
                "beta": inv.beta,
                "gamma": inv.gamma,
            }
            for i, (branch, inv) in enumerate(
                zip(curve.branches, report.invariants.per_branch))
        ],
        "delta": report.invariants.delta,
        "Delta": report.invariants.Delta,
        "parameter_valuations": list(report.parameter_valuations),
        "discriminant_valuation": report.discriminant_valuation,
        "extension_degree": report.extension_degree,
        "generator_count": report.generator_count,
        "generator_bound": {
            "count": report.generator_bound.count,
            "delta": report.generator_bound.delta,
            "mu": report.generator_bound.mu,
            "bound": report.generator_bound.bound,
            "passed": report.generator_bound.passed,
        },
        "precision": report.precision,
        "seed": report.seed,
    }


def run_tame(job: JobSpec) -> dict:
    curve = _curve(job)
    report = tame_report(curve, precision=job.precision, seed=job.seed,
                         mu=job.mu)
    return _tame_payload(curve, report)


def run_scan(job: JobSpec) -> dict:
    if not job.variables:
        raise PreconditionError("the job needs a `vars = ...;` statement")
    subvarieties = tuple(
        Subvariety(spec.ideal, spec.witnesses, spec.params)
        for spec in job.subvarieties)
    points = None if job.points is None else list(job.points)
    report = scan_points(job.p, job.variables, list(job.ideal),
                         points=points, e_max=_e_max(job, 2),
                         subvarieties=subvarieties, budget=_budget(job))
    return {
        "p": report.p,
        "variables": list(report.variables),
        "ideal": list(report.ideal_generators),
        "e_values": list(report.e_values),
        "points": [
            {
                "point": list(record.point),
                "dimension": record.dimension,
                "smooth": record.smooth,
                "lambda": list(record.lambda_values),
                "s": list(record.s_values),
            }
            for record in report.points
        ],
        "subvarieties": [
            {
                "generators": list(record.generators),
                "height": record.height,
                "parameter_count": record.parameter_count,
                "witnesses": [
                    {"point": list(w.witness), "lambda": list(w.values)}
                    for w in record.witness_values
                ],
                "agreement": record.agreement,
            }
            for record in report.subvarieties
        ],
        "verdicts": {
            "upper_semicontinuous_lambda":
                report.verdicts.upper_semicontinuous_lambda,
            "lower_semicontinuous_s": report.verdicts.lower_semicontinuous_s,
            "generic_constancy": report.verdicts.generic_constancy,
            "violations": list(report.verdicts.violations),
        },
    }


def run_verify_bounds(job: JobSpec) -> dict:
    presentation = _presentation(job)
    if not job.inner:
        raise PreconditionError(
            "verify-bounds needs an `inner = ...;` statement with the "
            "generators of the inner ideal")
    ring = presentation.ring
    inner = Ideal(ring, [ring.parse(text) for text in job.inner])
    socle = ring.parse(job.socle if job.socle is not None else "1")
    if job.branches:
        if job.m_constant is not None or job.delta_constant is not None:
            raise PreconditionError(
                "give either branch lines or explicit m/Delta, not both")
        invariants = tame_invariants(_curve(job))
        constants = BoundConstants(m=invariants.delta, Delta=invariants.Delta)
        conditional = False
    else:
        if job.m_constant is None or job.delta_constant is None:
            raise PreconditionError(
                "verify-bounds needs `m = ...;` and `Delta = ...;` "
                "statements, or branch lines to derive them from")
        constants = BoundConstants(m=job.m_constant, Delta=job.delta_constant)
        conditional = True
    check = verify_pair_bounds(presentation, inner, socle,
                               _e_max(job, 3), constants, _budget(job))
    return {
        "p": presentation.p,
        "inner": [str(g) for g in inner.generators],
        "socle": str(socle),
        # b and e0, the filtration step count and nilpotency index of the
        # module variant, are fixed by the reduced rank-one case checked here
        "constants": {"m": constants.m, "Delta": constants.Delta,
                      "b": 1, "e0": 0},
        "conditional": conditional,
        "entries": [
            {"e": entry.e, "e_prime": entry.e_prime, "lhs": entry.lhs,
             "rhs": entry.rhs, "passed": entry.passed}
            for entry in check.entries
        ],
        "all_passed": check.all_passed,
    }


_RUNNERS = {
    "hk": run_hk,
    "fsig": run_fsig,
    "fedder": run_fedder,
    "tame": run_tame,
    "scan": run_scan,
    "verify-bounds": run_verify_bounds,
}


# -- command wiring ----------------------------------------------------------


def _emit(text: str, path: str | None) -> None:
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _log(level: str, message: str) -> None:
    """One diagnostic line on stderr, as `LEVEL kunz: message`."""
    print(f"{level} kunz: {message}", file=sys.stderr)


def _fail(err: KunzError, json_path: str | None) -> None:
    code = exit_code_for(err)
    detail = {"type": type(err).__name__, "message": str(err),
              "exit_code": code}
    if isinstance(err, ParseError) and err.position is not None:
        detail["position"] = err.position
    if isinstance(err, PrecisionLossError) and err.required is not None:
        detail["required_precision"] = err.required
    if isinstance(err, BudgetExceededError):
        detail["pairs"] = err.pairs
        detail["max_degree_seen"] = err.max_degree_seen
    document = {"schema_version": SCHEMA_VERSION, "error": detail}
    _emit(canonical_json(document), json_path)
    _log("ERROR", f"{type(err).__name__}: {err}")
    sys.exit(code)


def _execute(command: str, input_path: str, json_path: str | None,
             csv_path: str | None, **overrides: int | None) -> None:
    timings: dict[str, float] = {}
    started = time.perf_counter()
    try:
        try:
            with open(input_path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ParseError(f"cannot read input file: {exc}") from exc
        job = parse_job(text, command=command, **overrides)
        timings["parse"] = time.perf_counter() - started
        if csv_path is not None:
            require_tabular(command)
        compute_start = time.perf_counter()
        payload = _RUNNERS[command](job)
        timings[command] = time.perf_counter() - compute_start
        timings["total"] = time.perf_counter() - started
        record = RunRecord(job=job, payload=payload, timings=timings)
        csv_view = None if csv_path is None else csv_text(command, payload)
        _emit(record.to_json(), json_path)
        if csv_view is not None:
            _emit(csv_view, csv_path)
        _log("INFO", f"{command} finished in {timings['total']:.3f}s")
    except KunzError as err:
        _fail(err, json_path)


def _file(value: str) -> str:
    """A file path option: refuse a directory before the job runs."""
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    return value


_COMMANDS = (
    ("hk", "Normalized Frobenius colengths of a local ring."),
    ("fsig", "Splitting numbers with the same tail analysis."),
    ("fedder", "F-purity verdict, optionally with a purity exponent."),
    ("tame", "Invariants and discriminant of a tame branch curve."),
    ("scan", "Pointwise invariants and semicontinuity verdicts."),
    ("verify-bounds", "Pair bounds for relative colengths."),
)

_OPTIONS = (
    ("--input", dict(dest="input_path", required=True, type=_file,
                     metavar="FILE",
                     help="Job file in the statement format.")),
    ("--emax", dict(dest="e_max", type=int, metavar="EMAX",
                    help="Largest Frobenius exponent e to sample.")),
    ("--json", dict(dest="json_path", type=_file, metavar="FILE",
                    help="Write the result document here instead of stdout.")),
    ("--csv", dict(dest="csv_path", type=_file, metavar="FILE",
                   help="Also write the tabular view as CSV.")),
    ("--budget-pairs", dict(type=int,
                            help="Cap on critical pairs across the whole job.")),
    ("--precision", dict(type=int,
                         help="Series truncation order for curve commands.")),
)


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, add_help=False, allow_abbrev=False,
        description="Exact positive-characteristic singularity measurements.")
    parser.add_argument("--version", action="version",
                        version=f"kunz, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    subparsers = [commands.add_parser(name, help=text, description=text,
                                      add_help=False, allow_abbrev=False)
                  for name, text in _COMMANDS]
    for command in subparsers:
        for flag, options in _OPTIONS:
            command.add_argument(flag, **options)
    # one help flag, --help, and no -h
    for each in (parser, *subparsers):
        each.add_argument("--help", action="help",
                          help="Show this message and exit.")
    return parser


class _Main:
    """The console entry point. Like ``main()``, ``main.main(args=[...],
    prog_name="kunz")`` runs one command line and ends in SystemExit."""

    def main(self, args: list[str] | None = None,
             prog_name: str = "kunz") -> NoReturn:
        _execute(**vars(_parser(prog_name).parse_args(args)))
        sys.exit(0)

    __call__ = main


main = _Main()


if __name__ == "__main__":
    main()
