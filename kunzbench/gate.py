"""Correctness gate for the result documents of benchmark jobs.

`frozen.json` holds, per anchor job, the `content_hash` the program gave
on the default seed and the seed-invariant fields of its payload. Every
job must match the invariants; on the default seed its hash must also match
the frozen one. Each document's hash is recomputed from its job text and
payload, so a payload edited after the fact fails too.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FROZEN_PATH = Path(__file__).with_name("frozen.json")
SCHEMA_VERSION = 1


def invariants(command: str, payload: dict) -> dict:
    """The payload fields a diagonal rescaling or a tame seed cannot move."""
    if command == "hk":
        return {"dimension": payload["dimension"],
                "lambda": [s["lambda"] for s in payload["samples"]]}
    if command == "fsig":
        return {"dimension": payload["dimension"],
                "s": [s["s"] for s in payload["samples"]],
                "is_F_pure": payload["is_F_pure"]}
    if command == "fedder":
        return {"is_F_pure": payload["is_F_pure"],
                "purity_exponent": payload.get("purity_exponent")}
    if command == "tame":
        return {key: payload[key] for key in
                ("delta", "Delta", "discriminant_valuation",
                 "extension_degree")}
    if command == "scan":
        return {"verdicts": payload["verdicts"]}
    if command == "verify-bounds":
        return {"entries": payload["entries"]}
    raise ValueError(f"no invariants defined for command {command!r}")


def recomputed_hash(document: dict) -> str:
    """The content hash of a result document, by the program's recipe."""
    digest = hashlib.sha256()
    digest.update(document["job"]["text"].encode())
    digest.update(b"\x00")
    digest.update(str(SCHEMA_VERSION).encode())
    digest.update(b"\x00")
    digest.update(json.dumps(document["payload"], sort_keys=True,
                             separators=(",", ":")).encode())
    return digest.hexdigest()


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(name: str, document: dict, frozen: dict,
          default_seed: bool) -> list[str]:
    """Names of the checks this job's result document fails; [] if none."""
    expected = frozen[name]
    command = document["job"]["command"]
    failures = []
    if document.get("schema_version") != SCHEMA_VERSION:
        failures.append(f"{name}: schema_version")
    if document.get("content_hash") != recomputed_hash(document):
        failures.append(f"{name}: content_hash does not match the payload")
    if default_seed and document["content_hash"] != expected["content_hash"]:
        failures.append(f"{name}: content_hash differs from the frozen one")
    got = invariants(command, document["payload"])
    for key, value in expected["invariants"].items():
        if got.get(key) != value:
            failures.append(f"{name}: invariant {key} differs")
    return failures
