"""Benchmark workloads and the seeded job generator.

Each workload is a fixed list of anchor jobs. A seed turns the anchors into
job text: polynomial jobs get a diagonal unit rescaling x_i -> c_i * x_i
with c_i in F_p^*, expanded into the `ideal` line (and into every other
polynomial or point the job names). The rescaling is an F_p-automorphism of
the local ring that keeps every monomial support, so the work stays the same
across seeds and every invariant stays fixed. Seed 0 is the identity: it
gives the anchors themselves, whose content hashes are frozen in
`frozen.json`.

The seed sets the `seed` key of `tame` jobs, which draws the random units of
the curve's realization. Unlike the rescaling, that changes the work: one
curve takes from 0.6x to 1.3x its typical time, depending on the key. So
the `tame` job list holds every curve TAME_KEYS times, at the seed keys
seed * TAME_KEYS + k, and a run averages over them.

Draws depend only on the seed and the anchor, never on a measured time.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

DEFAULT_SEED = 0

FERMAT = "x^3 + y^3 + z^3"
CONE = "x*y - z^2"
QUADRIC = "x*y - z*w"
CUSP = "y^2 - x^3"


@dataclass(frozen=True)
class Job:
    """One anchor: a CLI command and its statements before seeding.

    `ideal`, `polys` (other polynomial statements) and `points` (statements
    holding rational points) are rescaled by the seed; `fixed` statements are
    copied as they are.
    """

    name: str
    command: str
    p: int
    variables: tuple[str, ...] = ()
    ideal: tuple[str, ...] = ()
    polys: dict[str, tuple[str, ...]] = field(default_factory=dict)
    points: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    fixed: tuple[tuple[str, str], ...] = ()
    key: int = 0

    @property
    def label(self) -> str:
        """Unique within a workload: the anchor name, and the key for tame."""
        return f"{self.name}_k{self.key}" if self.command == "tame" else self.name


def _ring(name, command, p, variables, ideal, **rest) -> Job:
    return Job(name, command, p, tuple(variables.split(", ")), tuple(ideal),
               **rest)


TAME_KEYS = 5


def _tame(name, p, *branch_lines) -> tuple[Job, ...]:
    return tuple(Job(name, "tame", p, fixed=tuple(branch_lines), key=k)
                 for k in range(TAME_KEYS))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "hk": (
        _ring("hk_fermat_p7", "hk", 7, "x, y, z", [FERMAT],
              fixed=(("emax", "3"),)),
        _ring("hk_cone_p5", "hk", 5, "x, y, z", [CONE],
              fixed=(("emax", "3"),)),
        _ring("hk_quadric_p3_e3", "hk", 3, "x, y, z, w", [QUADRIC],
              fixed=(("emax", "3"),)),
        _ring("hk_quadric_p3_e4", "hk", 3, "x, y, z, w", [QUADRIC],
              fixed=(("emax", "4"),)),
    ),
    "fsig": (
        _ring("fsig_cone_p5", "fsig", 5, "x, y, z", [CONE],
              fixed=(("emax", "3"),)),
        _ring("fsig_quadric_p3", "fsig", 3, "x, y, z, w", [QUADRIC],
              fixed=(("emax", "3"),)),
        _ring("fsig_ci_p3", "fsig", 3, "x, y, z, w",
              ["x*y - z^2", "z*w - x^2"], fixed=(("emax", "2"),)),
        _ring("fsig_twisted_cubic_p3", "fsig", 3, "x, y, z, w",
              ["x*z - y^2", "x*w - y*z", "y*w - z^2"],
              fixed=(("emax", "3"),)),
        # ecap 2: x lies in the splitting prime of the Fermat cone, so the
        # cap is always exhausted, and e = 3 alone would cost minutes.
        _ring("fedder_fermat_p7", "fedder", 7, "x, y, z", [FERMAT],
              polys={"element": ("x",)}, fixed=(("ecap", "2"),)),
    ),
    "scan": (
        _ring("scan_cusp_p5", "scan", 5, "x, y", [CUSP],
              fixed=(("emax", "2"),)),
        _ring("scan_node_p3", "scan", 3, "x, y, z", ["x*y"],
              polys={"sub.1.ideal": ("x", "y")},
              points={"sub.1.witnesses": ((0, 0, 0), (0, 0, 1))},
              fixed=(("sub.1.params", "z"), ("emax", "2"))),
        _ring("bounds_cusp_p5", "verify-bounds", 5, "x, y", [CUSP],
              polys={"inner": ("x", "y"), "socle": ("1",)},
              fixed=(("m", "2"), ("Delta", "9"), ("emax", "3"))),
    ),
    "tame": (
        *_tame("tame_4_5_p11", 11, ("branch", "4, 5")),
        *_tame("tame_3_5_p13", 13, ("branch", "3, 5")),
        *_tame("tame_2_3_p5", 5, ("branch", "2, 3")),
        *_tame("tame_two_branch_p7", 7, ("branch", "2, 3"),
               ("branch", "2, 3"), ("cross", "1: 4"), ("cross", "2: 4")),
    ),
}

_TERM_RE = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_terms(text: str, variables: tuple[str, ...],
                p: int) -> list[tuple[int, tuple[int, ...]]]:
    """`2*x^3*y - z` as [(coefficient mod p, exponent vector)]."""
    terms = []
    for sign, body in _TERM_RE.findall(text):
        coeff = -1 if sign == "-" else 1
        exps = [0] * len(variables)
        for factor in body.strip().split("*"):
            base, _, power = factor.strip().partition("^")
            if base.isdigit():
                coeff *= int(base)
            else:
                exps[variables.index(base)] += int(power or 1)
        terms.append((coeff % p, tuple(exps)))
    return terms


def render_terms(terms: list[tuple[int, tuple[int, ...]]],
                 variables: tuple[str, ...]) -> str:
    parts = []
    for coeff, exps in terms:
        factors = [v if e == 1 else f"{v}^{e}"
                   for v, e in zip(variables, exps) if e]
        if coeff != 1 or not factors:
            factors.insert(0, str(coeff))
        parts.append("*".join(factors))
    return " + ".join(parts)


def rescale(text: str, variables: tuple[str, ...], p: int,
            scales: tuple[int, ...]) -> str:
    """The polynomial f(c_1 x_1, ..., c_n x_n), expanded."""
    terms = []
    for coeff, exps in parse_terms(text, variables, p):
        for c, e in zip(scales, exps):
            coeff = coeff * pow(c, e, p) % p
        terms.append((coeff, exps))
    return render_terms(terms, variables)


def _scales(job: Job, seed: int) -> tuple[int, ...]:
    if seed == DEFAULT_SEED:
        return (1,) * len(job.variables)
    rng = random.Random(f"kunzbench:{seed}:{job.label}")
    return tuple(rng.randrange(1, job.p) for _ in job.variables)


def job_text(job: Job, seed: int) -> str:
    """The job file for one anchor under one seed."""
    lines = [("p", str(job.p))]
    if job.command == "tame":
        lines += list(job.fixed) + [("seed", str(seed * TAME_KEYS + job.key))]
    else:
        scales = _scales(job, seed)
        inverses = [pow(c, -1, job.p) for c in scales]

        def polys(texts):
            return ", ".join(rescale(t, job.variables, job.p, scales)
                             for t in texts)

        lines.append(("vars", ", ".join(job.variables)))
        lines.append(("ideal", polys(job.ideal)))
        lines += [(key, polys(texts)) for key, texts in job.polys.items()]
        # A point a of V(f) becomes c^-1 * a on V(f(c x)).
        lines += [(key, " ".join(
                       "(" + ",".join(str(a * i % job.p)
                                      for a, i in zip(point, inverses)) + ")"
                       for point in points))
                  for key, points in job.points.items()]
        lines += list(job.fixed)
    return "".join(f"{key} = {value};\n" for key, value in lines)
