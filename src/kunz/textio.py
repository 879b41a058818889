"""Job text format: statements, jobs, and lossless round-tripping.

A job file is a sequence of `key = value;` statements. Whitespace and line
breaks are free, and `#` starts a comment running to the end of the line.
Example ring block:

    p = 5;
    vars = x, y;
    ideal = y^2 - x^3;
    point = 0, 0;

Statement keys by command:

    all        command (optional), p, emax, ecap, precision, seed, mu,
               budget_pairs
    hk/fsig    vars, ideal, point (defaults to the origin)
    fedder     vars, ideal, element (optional c for the purity exponent)
    tame       branch (one per branch, semigroup generators),
               cross (one per branch of a multi-branch curve: `i: v, v'`
               assigns cross valuations to 1-based branch i)
    scan       vars, ideal, points = (0,0,0) (0,0,1) ...,
               sub.N.ideal, sub.N.witnesses, sub.N.params (N = 1, 2, ...)
    verify-bounds   vars, ideal, inner (ideal generators), socle (element u),
               m and Delta (explicit constants), or branch/cross lines to
               derive them from the tame model

parse_job and render_job are mutually inverse on well-formed jobs, so specs
round-trip losslessly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError

COMMANDS = ("hk", "fsig", "fedder", "tame", "scan", "verify-bounds")

_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$")
_COMMENT_RE = re.compile(r"#[^\r\n]*")


def parse_statements(text: str) -> list[tuple[str, str]]:
    """`key = value;` statements, in order, with comments removed.

    Parse errors carry the offset, in the text as given, of the first
    non-blank character of the offending statement.
    """
    # comments are overwritten by spaces, so offsets stay those of the text
    clean = _COMMENT_RE.sub(lambda m: " " * len(m.group()), text)
    statements = []
    offset = 0
    for chunk in clean.split(";"):
        piece = chunk.strip()
        if piece:
            start = offset + len(chunk) - len(chunk.lstrip())
            if "=" not in piece:
                raise ParseError(
                    f"statement {piece!r} is not of the form key = value",
                    position=start)
            key, value = piece.split("=", 1)
            key = key.strip()
            if not _KEY_RE.match(key):
                raise ParseError(f"bad statement key {key!r}",
                                 position=start)
            statements.append((key, value.strip()))
        offset += len(chunk) + 1
    return statements


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} expects an integer, got {value!r}") from None


def _int_list(value: str, key: str) -> tuple[int, ...]:
    parts = [v.strip() for v in value.split(",")]
    if parts == [""]:
        return ()
    return tuple(_int(v, key) for v in parts)


def _name_list(value: str) -> tuple[str, ...]:
    parts = [v.strip() for v in value.split(",")]
    if parts == [""]:
        return ()
    for name in parts:
        if not re.match(r"^[A-Za-z][A-Za-z0-9_]*$", name):
            raise ParseError(f"bad variable name {name!r}")
    return tuple(parts)


def _expr_list(value: str) -> tuple[str, ...]:
    parts = [v.strip() for v in value.split(",")]
    if parts == [""]:
        return ()
    return tuple(parts)


_POINT_RE = re.compile(r"\(([^()]*)\)")


def _point_list(value: str, key: str) -> tuple[tuple[int, ...], ...]:
    rest = _POINT_RE.sub("", value).strip()
    if rest:
        raise ParseError(
            f"{key} expects points like (0,0,1) separated by spaces, "
            f"leftover {rest!r}")
    return tuple(_int_list(m.group(1), key)
                 for m in _POINT_RE.finditer(value))


class SubvarietySpec(NamedTuple):
    ideal: tuple[str, ...]
    witnesses: tuple[tuple[int, ...], ...]
    params: tuple[str, ...]


@dataclass(frozen=True)
class JobSpec:
    """Everything one run needs, mirroring the text format exactly."""

    command: str
    p: int
    variables: tuple[str, ...] = ()
    ideal: tuple[str, ...] = ()
    point: tuple[int, ...] | None = None
    points: tuple[tuple[int, ...], ...] | None = None
    branches: tuple[tuple[int, ...], ...] = ()
    cross: tuple[tuple[int, ...], ...] = ()
    subvarieties: tuple[SubvarietySpec, ...] = ()
    inner: tuple[str, ...] = ()
    socle: str | None = None
    element: str | None = None
    m_constant: int | None = None
    delta_constant: int | None = None
    e_max: int | None = None
    e_cap: int | None = None
    precision: int | None = None
    seed: int = 0
    mu: int = 1
    budget_pairs: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ParseError(
                f"unknown command {self.command!r}, expected one of "
                f"{', '.join(COMMANDS)}")


def parse_job(text: str, command: str | None = None, **overrides) -> JobSpec:
    """Build a JobSpec from job text; explicit arguments win over the text."""
    statements = parse_statements(text)
    seen: dict[str, str] = {}
    branches: list[tuple[int, ...]] = []
    cross_map: dict[int, tuple[int, ...]] = {}
    subs: dict[int, dict[str, str]] = {}
    for key, value in statements:
        if key == "branch":
            branches.append(_int_list(value, key))
            continue
        if key == "cross":
            if ":" not in value:
                raise ParseError(
                    "cross expects `branch_index: v, v'` with a colon")
            index_text, vals = value.split(":", 1)
            index = _int(index_text.strip(), "cross index")
            if index < 1:
                raise ParseError("cross branch indices are 1-based")
            if index in cross_map:
                raise ParseError(f"duplicate cross line for branch {index}")
            cross_map[index] = _int_list(vals, key)
            continue
        m = re.match(r"^sub\.(\d+)\.(ideal|witnesses|params)$", key)
        if m:
            subs.setdefault(int(m.group(1)), {})[m.group(2)] = value
            continue
        if key in seen:
            raise ParseError(f"duplicate statement key {key!r}")
        seen[key] = value

    known = {
        "command": str, "p": int, "vars": None, "ideal": None,
        "point": None, "points": None, "inner": None, "socle": str,
        "element": str, "m": int, "Delta": int, "emax": int, "ecap": int,
        "precision": int, "seed": int, "mu": int, "budget_pairs": int,
    }
    for key in seen:
        if key not in known:
            raise ParseError(f"unknown statement key {key!r}")

    declared = seen.get("command")
    if command is not None and declared is not None and declared != command:
        raise ParseError(
            f"the job text declares command {declared!r} but "
            f"{command!r} was invoked")
    cmd = command or declared
    if cmd is None:
        raise ParseError("no command given (flag or `command = ...;`)")
    if "p" not in seen:
        raise ParseError("missing required statement `p = ...;`")

    if cross_map and (not branches or max(cross_map) > len(branches)):
        raise ParseError(
            "cross lines refer to branches that were never declared")
    cross = tuple(cross_map.get(i + 1, ()) for i in range(len(branches)))

    sub_specs = []
    for index in sorted(subs):
        block = subs[index]
        if "ideal" not in block or "witnesses" not in block:
            raise ParseError(
                f"subvariety {index} needs sub.{index}.ideal and "
                f"sub.{index}.witnesses")
        sub_specs.append(SubvarietySpec(
            _expr_list(block["ideal"]),
            _point_list(block["witnesses"], f"sub.{index}.witnesses"),
            _expr_list(block.get("params", ""))))

    values = dict(
        command=cmd,
        p=_int(seen["p"], "p"),
        variables=_name_list(seen.get("vars", "")),
        ideal=_expr_list(seen.get("ideal", "")),
        point=_int_list(seen["point"], "point") if "point" in seen else None,
        points=(_point_list(seen["points"], "points")
                if "points" in seen else None),
        branches=tuple(branches),
        cross=cross,
        subvarieties=tuple(sub_specs),
        inner=_expr_list(seen.get("inner", "")),
        socle=seen.get("socle"),
        element=seen.get("element"),
        m_constant=_int(seen["m"], "m") if "m" in seen else None,
        delta_constant=_int(seen["Delta"], "Delta") if "Delta" in seen else None,
        e_max=_int(seen["emax"], "emax") if "emax" in seen else None,
        e_cap=_int(seen["ecap"], "ecap") if "ecap" in seen else None,
        precision=(_int(seen["precision"], "precision")
                   if "precision" in seen else None),
        seed=_int(seen.get("seed", "0"), "seed"),
        mu=_int(seen.get("mu", "1"), "mu"),
        budget_pairs=(_int(seen["budget_pairs"], "budget_pairs")
                      if "budget_pairs" in seen else None),
    )
    for key, value in overrides.items():
        if value is not None:
            values[key] = value

    nvars = len(values["variables"])
    if nvars:
        labeled = [("point", values["point"])] if values["point"] else []
        if values["points"]:
            labeled += [("points", pt) for pt in values["points"]]
        for spec in values["subvarieties"]:
            labeled += [("witnesses", w) for w in spec.witnesses]
        for label, coords in labeled:
            if len(coords) != nvars:
                raise ParseError(
                    f"{label} entry {coords} has {len(coords)} coordinates "
                    f"but there are {nvars} variables")
    return JobSpec(**values)


def render_job(job: JobSpec) -> str:
    """Canonical text for a JobSpec; parse_job inverts it."""
    lines = [f"command = {job.command};", f"p = {job.p};"]
    if job.variables:
        lines.append(f"vars = {', '.join(job.variables)};")
    if job.ideal:
        lines.append(f"ideal = {', '.join(job.ideal)};")
    if job.point is not None:
        lines.append(f"point = {', '.join(str(a) for a in job.point)};")
    if job.points is not None:
        rendered = " ".join(
            "(" + ",".join(str(a) for a in pt) + ")" for pt in job.points)
        lines.append(f"points = {rendered};")
    for gens in job.branches:
        lines.append(f"branch = {', '.join(str(g) for g in gens)};")
    for i, vals in enumerate(job.cross):
        if vals:
            lines.append(
                f"cross = {i + 1}: {', '.join(str(v) for v in vals)};")
    for i, sub in enumerate(job.subvarieties, start=1):
        lines.append(f"sub.{i}.ideal = {', '.join(sub.ideal)};")
        rendered = " ".join(
            "(" + ",".join(str(a) for a in pt) + ")" for pt in sub.witnesses)
        lines.append(f"sub.{i}.witnesses = {rendered};")
        if sub.params:
            lines.append(f"sub.{i}.params = {', '.join(sub.params)};")
    if job.inner:
        lines.append(f"inner = {', '.join(job.inner)};")
    if job.socle is not None:
        lines.append(f"socle = {job.socle};")
    if job.element is not None:
        lines.append(f"element = {job.element};")
    if job.m_constant is not None:
        lines.append(f"m = {job.m_constant};")
    if job.delta_constant is not None:
        lines.append(f"Delta = {job.delta_constant};")
    if job.e_max is not None:
        lines.append(f"emax = {job.e_max};")
    if job.e_cap is not None:
        lines.append(f"ecap = {job.e_cap};")
    if job.precision is not None:
        lines.append(f"precision = {job.precision};")
    if job.seed != 0:
        lines.append(f"seed = {job.seed};")
    if job.mu != 1:
        lines.append(f"mu = {job.mu};")
    if job.budget_pairs is not None:
        lines.append(f"budget_pairs = {job.budget_pairs};")
    return "\n".join(lines) + "\n"
