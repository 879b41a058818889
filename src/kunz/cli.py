"""Command line front end.

Every subcommand reads one job file in the statement format documented in
textio, runs the matching computation, and emits a RunRecord document as
JSON (to --json or stdout). Tabular commands can additionally write a CSV
view with --csv. All diagnostics go to stderr; stdout carries results only.
Each subcommand offers only the options its command reads (textio.READS).

A run exits 0, or with the exit_code of its error type (errors). Failures
still emit a machine-readable error document on the JSON channel. Usage
errors exit 2 before any job runs, with the usage message on stderr and
nothing on stdout. A stdout that cannot be written ends the run with exit 2
and no document.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import sys
import time
from types import ModuleType
from typing import NoReturn

from . import __version__
from .errors import (BudgetExceededError, KunzError, ParseError,
                     PreconditionError)
from .records import (SCHEMA_VERSION, TABULAR_COMMANDS, RunRecord,
                      canonical_json, csv_text)
from .textio import READS, JobSpec, parse_job


def _lazy(name: str) -> ModuleType:
    """kunz.<name>, compiled and run on its first attribute access.

    A module already imported is returned as it is: a second copy would
    split monkeypatches and wrappers between the two.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


# Each command compiles only the modules it runs: `tame` never loads the
# Groebner engine, the job's budget or the series layer, and `hk` never
# loads `curves` or `series`. The layer modules reach the engine and the
# series layer as modules (`from . import engine`), so each runs only once
# a route calls it.
budget = _lazy("budget")
curves = _lazy("curves")
engine = _lazy("engine")
fsplit = _lazy("fsplit")
hk = _lazy("hk")
localring = _lazy("localring")
scan = _lazy("scan")
# No runner calls these two. They are registered only because the
# benchmark's tracer reads sys.modules["kunz.<layer>"] for every traced
# layer right after `import kunz.cli`.
kernel = _lazy("kernel")
series = _lazy("series")

# -- payload builders --------------------------------------------------------


def _presentation(job: JobSpec, limits: budget.Budget
                  ) -> localring.LocalRingPresentation:
    """The job's ring at its point, parsed and moved under the job's
    deadline."""
    if not job.variables:
        raise PreconditionError("the job needs a `vars = ...;` statement")
    return localring.LocalRingPresentation.from_texts(
        job.p, list(job.variables), list(job.ideal), point=job.point,
        check_deadline=limits.check_deadline)


def _moved(job: JobSpec, ring, texts, limits: budget.Budget,
           vanishing: bool = False) -> list:
    """The polynomials of texts in the presentation's coordinates: moved by
    x_i -> x_i + a_i for the job's point a, as its ideal is. With
    vanishing, each must vanish at the point (localring.translate_to_origin).
    Parsed and moved under the job's deadline.
    """
    check = limits.check_deadline
    polynomials = [ring.parse(text, check) for text in texts]
    if job.point is None:
        return polynomials
    if vanishing:
        return localring.translate_to_origin(polynomials, job.point, check)
    return [f.substitute_shift(job.point, check) for f in polynomials]


def _budget(job: JobSpec) -> budget.Budget:
    """The job's one budget: default ceilings unless the job caps pairs.
    Each runner builds it before it parses a polynomial, so the job's
    deadline covers the parse too."""
    if job.budget_pairs is None:
        return budget.Budget()
    return budget.Budget(max_pairs=job.budget_pairs)


def _e_max(job: JobSpec, default: int) -> int:
    """The job's e_max, or the command's default when the job gives none."""
    return default if job.e_max is None else job.e_max


def run_hk(job: JobSpec) -> dict:
    limits = _budget(job)
    presentation = _presentation(job, limits)
    report = hk.hk_sequence(presentation, _e_max(job, 3), limits)
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
        "interval": report.interval._asdict(),
        "stabilization_index": report.stabilization_index,
        "truncated": report.truncated,
    }


def run_fsig(job: JobSpec) -> dict:
    limits = _budget(job)
    presentation = _presentation(job, limits)
    report = fsplit.fsplit_report(presentation, _e_max(job, 3), limits)
    return {
        "p": report.p,
        "presentation": report.presentation_id,
        "dimension": report.dimension,
        "samples": [s._asdict() for s in report.samples],
        "empirical_gap_constant": report.empirical_C,
        "interval": report.interval._asdict(),
        "is_F_pure": report.verdict.is_F_pure,
        "purity_witness": (None if report.verdict.witness is None
                           else str(report.verdict.witness)),
        "purity_detail": report.verdict.detail,
    }


def run_fedder(job: JobSpec) -> dict:
    limits = _budget(job)
    presentation = _presentation(job, limits)
    verdict = fsplit.fedder_test(presentation, limits)
    payload = {
        "p": presentation.p,
        "is_F_pure": verdict.is_F_pure,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "detail": verdict.detail,
    }
    if job.element is not None:
        (element,) = _moved(job, presentation.ring, [job.element], limits)
        cap = 4 if job.e_cap is None else job.e_cap
        exponent = fsplit.fpurity_exponent(presentation, element, cap, limits)
        payload["element"] = str(element)
        payload["exponent_cap"] = cap
        payload["purity_exponent"] = exponent
        payload["cap_exhausted"] = exponent is None
    return payload


def _curve(job: JobSpec) -> curves.BranchCurve:
    if not job.branches:
        raise PreconditionError(
            "the job needs at least one `branch = ...;` statement")
    branches = tuple(
        curves.Branch(gens, cross)
        for gens, cross in zip(job.branches, job.cross))
    return curves.BranchCurve(job.p, branches)


def run_tame(job: JobSpec) -> dict:
    curve = _curve(job)
    report = curves.tame_report(curve, mu=job.mu)
    return {
        "p": report.p,
        "branches": [
            {
                "semigroup": list(report.semigroups[i]),
                "cross": list(branch.cross_valuations),
                "conductor": branch.conductor,
                **inv._asdict(),
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
        "generator_bound": report.generator_bound._asdict(),
        # the series truncation order the oracle would take and the job's
        # seed key, both echoed only: the report realizes no branch
        "precision": report.precision,
        "seed": job.seed,
    }


def run_scan(job: JobSpec) -> dict:
    if not job.variables:
        raise PreconditionError("the job needs a `vars = ...;` statement")
    points = None if job.points is None else list(job.points)
    report = scan.scan_points(job.p, job.variables, list(job.ideal),
                              points=points, e_max=_e_max(job, 2),
                              subvarieties=job.subvarieties,
                              budget=_budget(job))
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
        "verdicts": report.verdicts._asdict(),
    }


def run_verify_bounds(job: JobSpec) -> dict:
    limits = _budget(job)
    presentation = _presentation(job, limits)
    if not job.inner:
        raise PreconditionError(
            "verify-bounds needs an `inner = ...;` statement with the "
            "generators of the inner ideal")
    ring = presentation.ring
    inner = engine.Ideal(ring, _moved(job, ring, job.inner, limits,
                                      vanishing=True))
    (socle,) = _moved(job, ring, [job.socle if job.socle is not None
                                  else "1"], limits)
    if job.branches:
        if job.m_constant is not None or job.delta_constant is not None:
            raise PreconditionError(
                "give either branch lines or explicit m/Delta, not both")
        invariants = curves.tame_invariants(_curve(job))
        constants = hk.BoundConstants(m=invariants.delta,
                                      Delta=invariants.Delta)
        conditional = False
    else:
        if job.m_constant is None or job.delta_constant is None:
            raise PreconditionError(
                "verify-bounds needs `m = ...;` and `Delta = ...;` "
                "statements, or branch lines to derive them from")
        constants = hk.BoundConstants(m=job.m_constant,
                                      Delta=job.delta_constant)
        conditional = True
    check = hk.verify_pair_bounds(presentation, inner, socle,
                                  _e_max(job, 3), constants, limits)
    return {
        "p": presentation.p,
        "inner": [str(g) for g in inner.generators],
        "socle": str(socle),
        # b and e0, the filtration step count and nilpotency index of the
        # module variant, are fixed by the reduced rank-one case checked here
        "constants": {**constants._asdict(), "b": 1, "e0": 0},
        "conditional": conditional,
        "entries": [{**entry._asdict(), "passed": entry.passed}
                    for entry in check.entries],
        "all_passed": check.all_passed,
    }


# command -> (runner, help text)
_COMMANDS = {
    "hk": (run_hk, "Normalized Frobenius colengths of a local ring."),
    "fsig": (run_fsig, "Splitting numbers with the same tail analysis."),
    "fedder": (run_fedder,
               "F-purity verdict, optionally with a purity exponent."),
    "tame": (run_tame, "Invariants and discriminant of a tame branch curve."),
    "scan": (run_scan, "Pointwise invariants and semicontinuity verdicts."),
    "verify-bounds": (run_verify_bounds,
                      "Pair bounds for relative colengths."),
}


# -- command wiring ----------------------------------------------------------


def _emit(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when path is None.

    A stdout that cannot take the text (its reader has gone, say) ends the
    run at once with exit 2 and one error line: nothing can reach stdout
    any more, so no error document is written. stdout is pointed at
    os.devnull first, so that the flush at exit does not fail on it again.
    """
    if path is None:
        try:
            print(text, flush=True)
        except OSError as exc:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _log("ERROR", f"ParseError: output could not be written: {exc}")
            sys.exit(ParseError.exit_code)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")


def _log(level: str, message: str) -> None:
    """One diagnostic line on stderr, as `LEVEL kunz: message`."""
    print(f"{level} kunz: {message}", file=sys.stderr)


def _fail(err: KunzError, json_path: str | None) -> None:
    detail = {"type": type(err).__name__, "message": str(err),
              "exit_code": err.exit_code}
    if isinstance(err, ParseError) and err.position is not None:
        detail["position"] = err.position
    if isinstance(err, BudgetExceededError):
        detail["pairs"] = err.pairs
        detail["max_degree_seen"] = err.max_degree_seen
    document = canonical_json({"schema_version": SCHEMA_VERSION,
                               "error": detail})
    try:
        _emit(document, json_path)
    except OSError:  # the --json path cannot be written: use stdout
        _emit(document, None)
    _log("ERROR", f"{type(err).__name__}: {err}")
    sys.exit(err.exit_code)


def _execute(command: str, input_path: str, json_path: str | None,
             csv_path: str | None = None, **overrides: int | None) -> None:
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
        compute_start = time.perf_counter()
        payload = _COMMANDS[command][0](job)
        timings[command] = time.perf_counter() - compute_start
        timings["total"] = time.perf_counter() - started
        document = RunRecord(job=job, payload=payload,
                             timings=timings).to_json()
        csv_view = None if csv_path is None else csv_text(command, payload)
        # the CSV view first: if it cannot be written, the JSON channel
        # still carries only the error document
        try:
            if csv_view is not None:
                _emit(csv_view, csv_path)
            _emit(document, json_path)
        except OSError as exc:
            raise ParseError(f"cannot write output file: {exc}") from exc
        _log("INFO", f"{command} finished in {timings['total']:.3f}s")
    except KunzError as err:
        _fail(err, json_path)


def _file(value: str) -> str:
    """A file path option: refuse a directory, or a path in a directory
    that does not exist, before the job runs."""
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} is a directory")
    if not os.path.isdir(os.path.dirname(value) or "."):
        raise argparse.ArgumentTypeError(f"no directory holds {value!r}")
    return value


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
    ("--budget-pairs", dict(dest="budget_pairs", type=int,
                            help="Cap on critical pairs across the whole job.")),
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
    for name, (_, text) in _COMMANDS.items():
        command = commands.add_parser(name, help=text, description=text,
                                      add_help=False, allow_abbrev=False)
        offered = {"input_path", "json_path", *READS[name]}
        if name in TABULAR_COMMANDS:
            offered.add("csv_path")
        for flag, options in _OPTIONS:
            if options["dest"] in offered:
                command.add_argument(flag, **options)
    # one help flag, --help, and no -h
    for each in (parser, *commands.choices.values()):
        each.add_argument("--help", action="help",
                          help="Show this message and exit.")
    return parser


class _Main:
    """The console entry point. Like ``main()``, ``main.main(args=[...],
    prog_name="kunz")`` runs one command line and ends in SystemExit.

    Each call first moves every object alive at that point, all that the
    eager imports made included, into the collector's permanent generation
    (gc.freeze), so neither the job's collections nor the final one at
    exit traverse them again. The layer modules a command loads on first
    use run after that, inside the job. The collector stays enabled: an
    in-process caller keeps a working one, in which only the frozen
    objects are never collected.
    """

    def main(self, args: list[str] | None = None,
             prog_name: str = "kunz") -> NoReturn:
        gc.freeze()
        _execute(**vars(_parser(prog_name).parse_args(args)))
        sys.exit(0)

    __call__ = main


main = _Main()


if __name__ == "__main__":
    main()
