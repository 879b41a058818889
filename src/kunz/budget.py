"""One job's limits: ceilings on Groebner pairs, degree and wall time.

A Budget is the one object every layer of a job is given, the parser
included, so one deadline covers the whole job. Its module imports no
algebra: a route that a theorem answers runs no Groebner engine, yet still
checks the job's deadline.
"""

from __future__ import annotations

import time

from .errors import BudgetExceededError, PreconditionError

DEFAULT_MAX_PAIRS = 10**6
DEFAULT_MAX_DEGREE = 10**6
DEFAULT_DEADLINE_SECONDS = 600.0
# steps of a loop whose length the input sets between two deadline checks
DEADLINE_STRIDE = 4096


class Budget:
    """One job's ceilings on pairs, degree and wall time, and the running
    totals charged against them.

    A budget is job-wide: every call given the same Budget adds to its one
    pair count and shares its one deadline, which runs from the moment the
    Budget is built. A call given no budget starts a fresh one with the
    default ceilings.
    """

    def __init__(self, max_pairs: int = DEFAULT_MAX_PAIRS,
                 max_degree: int = DEFAULT_MAX_DEGREE,
                 deadline_seconds: float = DEFAULT_DEADLINE_SECONDS) -> None:
        if max_pairs < 0:
            raise PreconditionError(
                f"pair budget must be >= 0, got {max_pairs}")
        self.max_pairs = max_pairs
        self.max_degree = max_degree
        self.deadline_seconds = deadline_seconds
        self.pairs = 0
        self.max_degree_seen = 0
        self.started_at = time.monotonic()

    def charge_pair(self) -> None:
        self.pairs += 1
        if self.pairs > self.max_pairs:
            raise BudgetExceededError(
                f"pair budget of {self.max_pairs} exhausted",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)
        if self.pairs % 64 == 0:
            self.check_deadline()

    def observe_degree(self, degree: int) -> None:
        if degree > self.max_degree_seen:
            self.max_degree_seen = degree
        if degree > self.max_degree:
            raise BudgetExceededError(
                f"degree {degree} exceeds the budget of {self.max_degree}",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)

    def check_deadline(self) -> None:
        elapsed = time.monotonic() - self.started_at
        if elapsed > self.deadline_seconds:
            raise BudgetExceededError(
                f"deadline of {self.deadline_seconds}s exceeded",
                pairs=self.pairs, max_degree_seen=self.max_degree_seen)
