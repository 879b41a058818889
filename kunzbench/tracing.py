"""Per-layer tracing of one `kunz` CLI job, from outside the program.

Run as a child in place of `python -m kunz.cli`:

    python kunzbench/tracing.py SPANS_OUT <command> --input JOB

It imports `kunz.cli`, wraps the public functions named in LAYERS in every
`kunz` module namespace that bound them (`from ... import` makes copies of
the name), runs the CLI, and writes the spans it recorded to SPANS_OUT as
JSON when the job ends. Spans are [layer, start, end, parent]; span 0 is
`cli.main`, the whole CLI call. Each child runs one job, so one spans file
holds the spans of one job, and the harness keys it by the job's name.

`span_times` and `top_level_time` turn one job's spans into layer times.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path) of every traced layer function.
LAYERS = (
    ("engine", "monomial_colength"),
    ("engine", "groebner"),
    ("engine", "div_exact"),
    ("engine", "Ideal.intersection"),
    ("engine", "Ideal.dimension"),
    ("kernel", "reduce_full"),
    ("kernel", "s_poly"),
    ("localring", "LocalRingPresentation.sample"),
    ("hk", "hk_sequence"),
    ("fsplit", "twist_colon_ideal"),
    ("fsplit", "splitting_number"),
    ("fsplit", "fedder_test"),
    ("fsplit", "fpurity_exponent"),
    ("scan", "scan_points"),
    ("scan", "generic_value"),
    ("curves", "discriminant_valuation"),
    ("curves", "extension_degree"),
    ("curves", "generator_bound_check"),
    ("curves", "realize_curve"),
    ("series", "TruncatedSeries.__mul__"),
    ("series", "determinant_valuation"),
    ("textio", "parse_job"),
    ("records", "RunRecord.to_json"),
)

ROOT = "cli.main"
PAIRS = "engine.pairs"
REDUCE = "kernel.reduce_full"
ZERO_REDUCTIONS = "kernel.reduce_full.zero"


class Recorder:
    """Spans as [layer, start, end, parent] lists, plus event counters."""

    def __init__(self) -> None:
        self.spans = [[ROOT, time.perf_counter(), 0.0, -1]]
        self.stack = [0]
        self.counters = {PAIRS: 0, ZERO_REDUCTIONS: 0}

    def span(self, name: str, fn, on_result=None):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1]]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, counter: str, fn):
        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _zero_remainder(self, result) -> None:
        if not result[0]:
            self.counters[ZERO_REDUCTIONS] += 1

    def install(self) -> None:
        """Wrap every layer wherever a `kunz` module bound it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "kunz" or name.startswith("kunz.")]
        for module_name, path in LAYERS:
            owner = sys.modules[f"kunz.{module_name}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            name = f"{module_name}.{path}"
            hook = self._zero_remainder if name == REDUCE else None
            wrapped = self.span(name, original, hook)
            if classes:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        engine = sys.modules["kunz.engine"]
        engine.BudgetTracker.charge_pair = self.count(
            PAIRS, engine.BudgetTracker.charge_pair)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def span_times(spans: list) -> dict[str, dict[str, float]]:
    """Per layer: calls, self_s and incl_s from one job's spans.

    self_s is each span's duration minus the part its child spans cover.
    incl_s counts a span only when no enclosing span has the same layer, so
    recursion is not counted twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _merged_length(children[index])
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["incl_s"] += end - start
    return out


def top_level_time(spans: list) -> float:
    """Time of the root span covered by layer spans directly under it."""
    return _merged_length([(s, e) for name, s, e, parent in spans
                           if parent == 0])


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import kunz.cli

    recorder = Recorder()
    recorder.install()
    recorder.spans[0][1] = time.perf_counter()
    try:
        kunz.cli.main.main(args=cli_args, prog_name="kunz")
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else int(bool(stop.code))
    finally:
        recorder.spans[0][2] = time.perf_counter()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
