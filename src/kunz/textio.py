"""Job text format: statements, jobs, and lossless round-tripping.

A job file is a sequence of `key = value;` statements. Whitespace and line
breaks are free, and `#` starts a comment running to the end of the line.
Example ring block:

    p = 5;
    vars = x, y;
    ideal = y^2 - x^3;
    point = 0, 0;

READS names the JobSpec fields each command reads besides command and p.
parse_job refuses a statement of any other field, even one that restates
the default, and JobSpec refuses any other field away from its default.

_STATEMENTS is the key list: it maps every key but branch, cross and
sub.N.* to its JobSpec field, parser and renderer. parse_job refuses any
key outside it and those three, and parses each value with the key's
parser. render_job writes one line per key, in the table's order, when the
value differs from the field's default (command and p always), and the
branch, cross and sub.N.* lines after points. parse_job and render_job are
mutually inverse on well-formed jobs, so specs round-trip losslessly.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import ParseError, PreconditionError

# command -> the JobSpec fields it reads besides command and p
READS = {
    "hk": ("variables", "ideal", "point", "e_max", "budget_pairs"),
    "fsig": ("variables", "ideal", "point", "e_max", "budget_pairs"),
    "fedder": ("variables", "ideal", "point", "element", "e_cap",
               "budget_pairs"),
    "tame": ("branches", "cross", "seed", "mu"),
    "scan": ("variables", "ideal", "points", "subvarieties", "e_max",
             "budget_pairs"),
    "verify-bounds": ("variables", "ideal", "point", "inner", "socle",
                      "m_constant", "delta_constant", "branches", "cross",
                      "e_max", "budget_pairs"),
}

COMMANDS = tuple(READS)

_KEY_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_.-]*$")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
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


def _text(value: str, key: str) -> str:
    return value


def _int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{key} expects an integer, got {value!r}") from None


def _expr_list(value: str, key: str) -> tuple[str, ...]:
    """The comma-separated parts of value, stripped; () when it is empty."""
    parts = tuple(v.strip() for v in value.split(","))
    return () if parts == ("",) else parts


def _int_list(value: str, key: str) -> tuple[int, ...]:
    return tuple(_int(v, key) for v in _expr_list(value, key))


def _name_list(value: str, key: str) -> tuple[str, ...]:
    names = _expr_list(value, key)
    for name in names:
        if not _NAME_RE.match(name):
            raise ParseError(f"bad variable name {name!r}")
    return names


_POINT_RE = re.compile(r"\(([^()]*)\)")


def _point_list(value: str, key: str) -> tuple[tuple[int, ...], ...]:
    rest = _POINT_RE.sub("", value).strip()
    if rest:
        raise ParseError(
            f"{key} expects points like (0,0,1) separated by spaces, "
            f"leftover {rest!r}")
    return tuple(_int_list(m.group(1), key)
                 for m in _POINT_RE.finditer(value))


def _join(values: tuple) -> str:
    return ", ".join(str(v) for v in values)


def _points(points: tuple[tuple[int, ...], ...]) -> str:
    return " ".join("(" + ",".join(str(a) for a in pt) + ")" for pt in points)


class SubvarietySpec(namedtuple("SubvarietySpec", "ideal witnesses params")):
    """One `sub.<i>` block: the ideal texts of a subvariety, containing the
    presentation ideal; witnesses, int tuples of rational points where it
    is smooth; and params, texts lifting a regular system of parameters of
    it there. A subvariety needs at least one witness."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SubvarietySpec:
        self = super().__new__(cls, *args, **kwargs)
        if not self.witnesses:
            raise PreconditionError("a subvariety needs at least one witness")
        return self


# every JobSpec field after command and p, at its "not given" default
_JOB_DEFAULTS = {
    "variables": (), "ideal": (), "point": None, "points": None,
    "branches": (), "cross": (), "subvarieties": (), "inner": (),
    "socle": None, "element": None, "m_constant": None,
    "delta_constant": None, "e_max": None, "e_cap": None, "seed": 0, "mu": 1,
    "budget_pairs": None,
}

_JobSpec = namedtuple("_JobSpec", ("command", "p", *_JOB_DEFAULTS),
                      defaults=_JOB_DEFAULTS.values())


class JobSpec(_JobSpec):
    """Everything one run needs, mirroring the text format exactly.

    command is the command name and p an int. variables, ideal and inner
    are tuples of texts; point is an int tuple and points, branches and
    cross are tuples of int tuples; subvarieties is a tuple of
    SubvarietySpec; socle and element are polynomial texts; the other
    fields are ints. A field at its default was not given.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> JobSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in READS:
            raise ParseError(
                f"unknown command {self.command!r}, expected one of "
                f"{', '.join(COMMANDS)}")
        for field, default in _JOB_DEFAULTS.items():
            if getattr(self, field) != default:
                _require_read(self.command, field)
        return self


def _require_read(command: str, field: str) -> None:
    """Refuse a JobSpec field the command does not read, by its key."""
    if field not in READS[command]:
        raise ParseError(
            f"the {command} command reads no `{_KEYS[field]}` statement")


# statement key -> (JobSpec field, parser, renderer), in render_job's order
_STATEMENTS = {
    "command": ("command", _text, str),
    "p": ("p", _int, str),
    "vars": ("variables", _name_list, _join),
    "ideal": ("ideal", _expr_list, _join),
    "point": ("point", _int_list, _join),
    "points": ("points", _point_list, _points),
    "inner": ("inner", _expr_list, _join),
    "socle": ("socle", _text, str),
    "element": ("element", _text, str),
    "m": ("m_constant", _int, str),
    "Delta": ("delta_constant", _int, str),
    "emax": ("e_max", _int, str),
    "ecap": ("e_cap", _int, str),
    "seed": ("seed", _int, str),
    "mu": ("mu", _int, str),
    "budget_pairs": ("budget_pairs", _int, str),
}

# statement key -> the JobSpec field it sets, but for the sub.N.* keys
_FIELDS = {key: field for key, (field, _, _) in _STATEMENTS.items()}
_FIELDS.update(branch="branches", cross="cross")
# JobSpec field -> the statement key that sets it
_KEYS = {field: key for key, field in _FIELDS.items()}
_KEYS.update(subvarieties="sub.N.*")


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

    for key in seen:
        if key not in _STATEMENTS:
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
    if cmd in READS:
        for key, _ in statements:
            if key not in ("command", "p"):
                _require_read(cmd, _FIELDS.get(key, "subvarieties"))

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
            _expr_list(block["ideal"], f"sub.{index}.ideal"),
            _point_list(block["witnesses"], f"sub.{index}.witnesses"),
            _expr_list(block.get("params", ""), f"sub.{index}.params")))

    values = {field: parse(seen[key], key)
              for key, (field, parse, _) in _STATEMENTS.items() if key in seen}
    values.update(command=cmd, branches=tuple(branches), cross=cross,
                  subvarieties=tuple(sub_specs))
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    job = JobSpec(**values)

    nvars = len(job.variables)
    if nvars:
        labeled = [("point", job.point)] if job.point else []
        if job.points:
            labeled += [("points", pt) for pt in job.points]
        for spec in job.subvarieties:
            labeled += [("witnesses", w) for w in spec.witnesses]
        for label, coords in labeled:
            if len(coords) != nvars:
                raise ParseError(
                    f"{label} entry {coords} has {len(coords)} coordinates "
                    f"but there are {nvars} variables")
    return job


def render_job(job: JobSpec) -> str:
    """Canonical text for a JobSpec; parse_job inverts it."""
    defaults = JobSpec._field_defaults
    lines = []
    for key, (field, _, render) in _STATEMENTS.items():
        value = getattr(job, field)
        if field not in defaults or value != defaults[field]:
            lines.append(f"{key} = {render(value)};")
        if key == "points":
            lines += [f"branch = {_join(gens)};" for gens in job.branches]
            lines += [f"cross = {i}: {_join(vals)};"
                      for i, vals in enumerate(job.cross, start=1) if vals]
            for i, sub in enumerate(job.subvarieties, start=1):
                lines.append(f"sub.{i}.ideal = {_join(sub.ideal)};")
                lines.append(f"sub.{i}.witnesses = {_points(sub.witnesses)};")
                if sub.params:
                    lines.append(f"sub.{i}.params = {_join(sub.params)};")
    return "\n".join(lines) + "\n"
