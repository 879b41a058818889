"""Run records: exact JSON payloads, content hashes, and CSV tables.

Results serialize to JSON with every rational encoded as
{"num": "...", "den": "..."} with string parts, so payloads never contain
floats and never lose precision. A run record wraps the payload with the
job, the package version, per-operation timings, and a content hash; the
hash covers the job, version, and payload but never the timings, so
repeated runs of one job hash identically.

RunRecord, like every record class of the package, is a
collections.namedtuple subclass, and encode_value writes any tuple as a
JSON list. Only csv_text imports csv, since only --csv needs it.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .errors import MAX_DIGITS, CapacityError, PreconditionError
from .textio import render_job

SCHEMA_VERSION = 1
# The least int of more than MAX_DIGITS decimal digits: no payload holds one.
_TOO_LONG = 10 ** MAX_DIGITS

# The commands whose payloads have a CSV view (csv_rows).
TABULAR_COMMANDS = ("hk", "fsig", "scan", "verify-bounds")


def encode_value(value):
    """Recursively make a payload JSON-safe; Fractions become num/den.
    Refuses every type but Fraction, bool, None, int, str, dict, list and
    tuple, and a number with a part of more than MAX_DIGITS digits."""
    if isinstance(value, (int, Fraction)) and _TOO_LONG <= max(
            abs(value.numerator), value.denominator):
        raise CapacityError(f"a payload number exceeds {MAX_DIGITS} digits")
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    # a float, a set (hashed in no fixed order) or any other type
    raise PreconditionError(f"refusing to serialize a {type(value).__name__} "
                            "into a results payload")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_hash(job_text: str, payload) -> str:
    digest = hashlib.sha256()
    digest.update(job_text.encode())
    digest.update(b"\x00")
    digest.update(str(SCHEMA_VERSION).encode())
    digest.update(b"\x00")
    digest.update(canonical_json(encode_value(payload)).encode())
    return digest.hexdigest()


class RunRecord(namedtuple("RunRecord", "job payload timings")):
    """A JobSpec, its payload dict, and the dict of timings in seconds."""

    __slots__ = ()

    def to_document(self) -> dict:
        job_text = render_job(self.job)
        payload = encode_value(self.payload)
        return {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "job": {"command": self.job.command, "text": job_text},
            "payload": payload,
            "content_hash": content_hash(job_text, payload),
            "timings_seconds": {k: round(v, 6)
                                for k, v in self.timings.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, sort_keys=True) + "\n"


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def require_tabular(command: str) -> None:
    """Refuse a CSV view of a command that has none."""
    if command not in TABULAR_COMMANDS:
        raise PreconditionError(
            f"the {command} command has no tabular view; drop the csv output")


def csv_rows(command: str, payload: dict) -> tuple[list[str], list[list]]:
    """Header and rows of the tabular view of a payload."""
    require_tabular(command)
    if command in ("hk", "fsig"):
        key = "lambda" if command == "hk" else "s"
        header = ["e", "q", "colength", key]
        rows = [[s["e"], s["q"], s["colength"], format_rational(s[key])]
                for s in payload["samples"]]
        return header, rows
    if command == "scan":
        header = ["point", "e", "lambda", "s"]
        rows = []
        for record in payload["points"]:
            point = " ".join(str(a) for a in record["point"])
            for i, e in enumerate(payload["e_values"]):
                rows.append([point, e,
                             format_rational(record["lambda"][i]),
                             format_rational(record["s"][i])])
        return header, rows
    header = ["e", "e_prime", "lhs", "rhs", "passed"]
    rows = [[entry["e"], entry["e_prime"],
             format_rational(entry["lhs"]),
             format_rational(entry["rhs"]), entry["passed"]]
            for entry in payload["entries"]]
    return header, rows


def csv_text(command: str, payload: dict) -> str:
    import csv  # only --csv needs it, so a JSON-only run never loads it
    header, rows = csv_rows(command, payload)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
