"""Every job ends in one document and a documented exit code.

The job texts are the README's job files (node, cusp, scan, bounds) after
one to three statement-level edits: a statement dropped or repeated, an
unknown key, a large prime or a non-prime as p, an extreme emax or ecap,
an empty or mis-sized vars, point or points, or every generator of the
ideal raised to a power. Each runs through kunz.cli.main in process, with
the job's deadline cut to 0.5 s and a 3 s alarm around the whole draw, so
a loop that polls no deadline fails the draw instead of hanging the suite.
The job's budget exists before its first polynomial is parsed, so the
deadline ends the expansion of a power such as (x + y)^100000 too.
"""

import contextlib
import io
import json
import re
import signal
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kunz.cli
from kunz.cli import main
from kunz.textio import COMMANDS, READS
from test_readme import job_files

DEADLINE_SECONDS = 0.5
ALARM_SECONDS = 3
DOCUMENTED_ERRORS = {2, 3, 4, 5}
HUGE = 2**31 - 1

BASE_JOBS = {name: re.findall(r"^(\S+) = (.*);$", text, re.M)
             for name, text in job_files().items()}

PRIMES = ["2", "3", "53", "100003", str(HUGE)]
NON_PRIMES = ["0", "1", "4", "9", "-5", str(2**31), "3215031751"]
EXPONENTS = ["0", "62", "63", str(HUGE)]
# the powers a power edit raises generators to: past 2^40 the parser
# refuses the exponent
POWERS = ["2", "7", "100000", str(2**40), str(2**40 + 1)]
# statement key -> the values a set edit draws from
VALUES = {
    "p": PRIMES + NON_PRIMES,
    "emax": EXPONENTS,
    "ecap": EXPONENTS,
    "vars": ["", "x", "x, y", "x, y, z, w, v"],
    "point": ["", "1", "1, 1", "0, 0, 0, 0, 0"],
    "points": ["", "(0,0)", "(1,1,1)", "(0,0,0,0)"],
    "element": ["1", "x + y", "z"],
}
# statement key -> its JobSpec field, where the two differ
FIELDS = {"vars": "variables", "emax": "e_max", "ecap": "e_cap"}
# (README job file, command, the keys it leaves out): fedder runs the node
# job, which it reads but for its emax
BASES = [("node", "hk", ()), ("node", "fsig", ()),
         ("node", "fedder", ("emax",)), ("cusp", "tame", ()),
         ("scan", "scan", ()), ("bounds", "verify-bounds", ())]


def _reads(command, key):
    return key == "p" or FIELDS.get(key, key) in READS[command]


def _drop(statements, command, draw):
    if statements:
        del statements[draw(st.integers(0, len(statements) - 1))]
    return command


def _repeat(statements, command, draw):
    if statements:
        statements.append(draw(st.sampled_from(statements)))
    return command


def _unknown_key(statements, command, draw):
    statements.append(("colour", "blue"))
    return command


def _other_command(statements, command, draw):
    return draw(st.sampled_from(COMMANDS))


def _set(statements, command, draw):
    """Set a key the command reads to a drawn value, in place or
    appended."""
    key = draw(st.sampled_from([k for k in VALUES if _reads(command, k)]))
    value = draw(st.sampled_from(VALUES[key]))
    keys = [k for k, _ in statements]
    if key in keys:
        statements[keys.index(key)] = (key, value)
    else:
        statements.append((key, value))
    return command


def _power(statements, command, draw):
    """Raise every generator of the ideal to one drawn power."""
    keys = [k for k, _ in statements]
    if "ideal" in keys:
        i = keys.index("ideal")
        power = draw(st.sampled_from(POWERS))
        statements[i] = ("ideal", ", ".join(
            f"({g})^{power}" for g in statements[i][1].split(", ")))
    return command


# repeats, unknown keys and other commands end almost every draw at the
# parser, so set and power edits, which reach the computation, are drawn
# more often
EDITS = [_drop, _repeat, _unknown_key, _other_command] + [_set] * 6 + [
    _power] * 2


@st.composite
def jobs(draw):
    """(command, job text): a README job file after one to three
    edits."""
    name, command, left_out = draw(st.sampled_from(BASES))
    statements = [(k, v) for k, v in BASE_JOBS[name] if k not in left_out]
    for edit in draw(st.lists(st.sampled_from(EDITS), min_size=1,
                              max_size=3)):
        command = edit(statements, command, draw)
    return command, "".join(f"{k} = {v};\n" for k, v in statements)


class _Alarm(Exception):
    pass


def _ring(signum, frame):
    raise _Alarm(f"the job ran past the {ALARM_SECONDS} s alarm")


BUDGET = kunz.cli._budget


def _short_budget(job):
    budget = BUDGET(job)
    budget.deadline_seconds = DEADLINE_SECONDS
    return budget


def run(command, text, path):
    """exit code, stdout and stderr of one in-process run."""
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, ALARM_SECONDS)
    try:
        with mock.patch.object(kunz.cli, "_budget", _short_budget), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main.main(args=[command, "--input", str(path)],
                          prog_name="kunz")
            except SystemExit as stop:
                code = stop.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


NODE_P3 = "p = 3;\nvars = x, y;\nideal = x*y;\n"
QUADRIC_P3 = "p = 3;\nvars = x, y, z, w;\nideal = x*y - z*w;\n"
LINE_P100003 = "p = 100003;\nvars = x, y;\nideal = x + y;\n"
PLANE_P5 = "p = 5;\nvars = x, y;\n"
LONG = "1" * 5000
# q^240 at q = (2^31 - 1)^2
WIDE_HK = ("p = 2147483647;\nvars = " + ", ".join(f"x{i}" for i in range(240))
           + ";\nideal = ;\nemax = 2;\n")


@settings(max_examples=60)
@given(jobs())
# the reproducers of three refusals: a semigroup past the sieve, and
# Frobenius exponents too large to take
@example(("tame", f"p = 5;\nbranch = 9999999999992, 3;\n"))
@example(("scan", NODE_P3 + f"emax = {HUGE};\n"))
@example(("fedder", NODE_P3 + f"element = x + y;\necap = {HUGE};\n"))
# every command refuses an over-capacity emax before its first level
@example(("hk", QUADRIC_P3 + f"emax = {HUGE};\n"))
@example(("fsig", QUADRIC_P3 + f"emax = {HUGE};\n"))
# Fedder's power at a large p ends at the deadline
@example(("fedder", LINE_P100003))
@example(("fsig", LINE_P100003))
@example(("fedder", "p = 100003;\nvars = x, y, z;\nideal = x*y - z^2;\n"
                    "element = 1;\necap = 1;\n"))
# a power is expanded under the job's deadline
@example(("hk", "p = 100003;\nvars = x, y;\nideal = (x + y)^100000;\n"))
# a scan of all 2809 points of the plane over F_53 ends in a document: no
# point can violate, so the verdict compares no pair
@example(("scan", "p = 53;\nvars = x, y;\nideal = ;\nemax = 1;\n"))
# the parser refuses a literal past Python's 4300-digit int() limit, and
# parentheses nested past its recursion cap
@example(("hk", PLANE_P5 + f"ideal = x + {LONG};\n"))
@example(("hk", PLANE_P5 + f"ideal = x^{LONG};\n"))
@example(("hk", PLANE_P5 + f"ideal = {'(' * 200}x{')' * 200};\n"))
# a colength of about 4480 digits is refused before any output is written
@example(("hk", WIDE_HK))
def test_every_job_ends_in_one_document(tmp_path_factory, job):
    command, text = job
    path = tmp_path_factory.getbasetemp() / "fuzz.job"
    code, out, err = run(command, text, path)
    document = json.loads(out)
    errors = [line for line in err.splitlines() if line.startswith("ERROR")]
    if code == 0:
        assert set(document) >= {"content_hash", "job", "payload"}
        assert errors == []
    else:
        assert code in DOCUMENTED_ERRORS
        assert document["error"]["exit_code"] == code
        assert errors == [f"ERROR kunz: {document['error']['type']}: "
                          f"{document['error']['message']}"]
