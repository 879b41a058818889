"""Timing of child processes at a nominal CPU speed.

On the shared 2-vCPU Xeon host the benchmark's bounds were set on, the speed
of a vCPU changes with load elsewhere on the host: the reference loop below
takes from 0.07 s to 0.17 s, and each state lasts from about a second to
tens of seconds. Raw run times then spread by 20% to 50% from run to run,
more than any regression bound.

So the harness pins itself and its children to one CPU, and a child runs in
segments of at most SAMPLE_S seconds. Between segments the child is stopped
(SIGSTOP) while the reference loop runs alone on that CPU, then continued.
Each segment's raw seconds are scaled by REFERENCE_NOMINAL_S over the mean
of the reference times just before and just after it. On a 14 s job this
cut the run-to-run spread (quartile distance over median) from 0.17 to
0.035. A faster program still reads faster: the loop does not change when
the program does. Raw seconds are reported next to the nominal ones.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

REFERENCE_NOMINAL_S = 0.08
SAMPLE_S = 1.0
POLL_S = 0.005


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop: sparse products in dicts of
    exponent tuples, the kind of work the kunz engine does."""
    p = 32003
    base = {(i, j): (7 * i + 3 * j + 1) % p
            for i in range(12) for j in range(12)}
    start = time.perf_counter()
    product = base
    for _ in range(5):
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in product.items():
            for (d, e), k in base.items():
                key = (a + d, b + e)
                out[key] = (out.get(key, 0) + c * k) % p
        product = {k: v for k, v in out.items() if k[0] < 24 and k[1] < 24}
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the reference
    loop measures the CPU the child runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


@dataclass
class Child:
    code: int | None  # None when the child was killed at the timeout
    raw_wall_s: float
    wall_s: float  # at the nominal speed
    raw_cpu_s: float  # user + sys
    rss_mb: float

    @property
    def cpu_s(self) -> float:
        """CPU seconds at the nominal speed."""
        return self.raw_cpu_s * self.wall_s / self.raw_wall_s


def _exited(pid: int) -> bool:
    """True once the child has exited; it stays unreaped."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) \
        is not None


class NominalClock:
    """Runs children one at a time and times them at the nominal speed.

    With pause=False a child runs without stops and is scaled by the
    reference times just before and after it only. Traced children need
    that: their own clock would count the stops inside their spans.
    """

    def __init__(self, pause: bool = True) -> None:
        self.sample_s = SAMPLE_S if pause else float("inf")
        self.last_reference_s = reference_s()

    def _scale(self, raw_s: float, before_s: float) -> float:
        after_s = reference_s()
        self.last_reference_s = after_s
        return raw_s * 2 * REFERENCE_NOMINAL_S / (before_s + after_s)

    def run(self, argv: list[str], cwd: Path, env: dict[str, str],
            stdout_path: Path, stderr_path: Path, timeout_s: float) -> Child:
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            try:
                return self._follow(proc, timeout_s)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()

    def _follow(self, proc: subprocess.Popen, timeout_s: float) -> Child:
        raw = nominal = 0.0
        timed_out = False
        while True:
            before = self.last_reference_s
            start = time.perf_counter()
            while time.perf_counter() - start < min(self.sample_s,
                                                    timeout_s - raw):
                if _exited(proc.pid):
                    break
                time.sleep(POLL_S)
            if _exited(proc.pid):
                segment = time.perf_counter() - start
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raw += segment
                nominal += self._scale(segment, before)
                break
            # os.kill, not Popen.send_signal: that polls, which would reap
            # the child and lose its rusage.
            if raw + time.perf_counter() - start >= timeout_s:
                timed_out = True
                os.kill(proc.pid, signal.SIGKILL)
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            os.waitid(os.P_PID, proc.pid,
                      os.WSTOPPED | os.WEXITED | os.WNOWAIT)
            segment = time.perf_counter() - start
            raw += segment
            nominal += self._scale(segment, before)
            os.kill(proc.pid, signal.SIGCONT)
        return Child(None if timed_out else proc.returncode, raw, nominal,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
