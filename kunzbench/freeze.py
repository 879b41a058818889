"""Write frozen.json: the default-seed hashes and invariants of every job.

    python3 kunzbench/freeze.py

Run it only when a change to the program is meant to change results (and
says so); otherwise the frozen values are the correctness gate's reference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
from run import ROOT, WORK, child_env
from workloads import DEFAULT_SEED, WORKLOADS, job_text


def main() -> int:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="freeze-", dir=WORK))
    frozen = {}
    try:
        for jobs in WORKLOADS.values():
            for job in jobs:
                path = scratch / f"{job.label}.job"
                path.write_text(job_text(job, DEFAULT_SEED), encoding="utf-8")
                out = subprocess.run(
                    [sys.executable, "-m", "kunz.cli", job.command,
                     "--input", str(path)], cwd=ROOT, env=child_env(),
                    capture_output=True, text=True)
                if out.returncode != 0:
                    print(f"{job.label}: exit code {out.returncode}\n"
                          f"{out.stderr}", file=sys.stderr)
                    return 1
                document = json.loads(out.stdout)
                frozen[job.label] = {
                    "content_hash": document["content_hash"],
                    "invariants": gate.invariants(job.command,
                                                  document["payload"]),
                }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    gate.FROZEN_PATH.write_text(json.dumps(frozen, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
