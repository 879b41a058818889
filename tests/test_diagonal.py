"""Han's route for diagonal hypersurfaces, against the graded-rank oracle
for D and against the Groebner engine for the colengths."""

import traceback
from itertools import combinations_with_replacement, product

from hypothesis import given, reject, settings
from hypothesis import strategies as st
import pytest

from kunz.diagonal import diagonal_degrees, jordan_counts, syzygy_dimension
from kunz.engine import Budget, Ideal, maximal_ideal
from kunz.errors import BudgetExceededError
from kunz.field import FieldConfig
from kunz.fsplit import splitting_number
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing
import oracles


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_syzygy_dimension_on_a_small_grid(p):
    for a, b, c in product(range(7), repeat=3):
        assert (syzygy_dimension(a, b, c, p)
                == oracles.syzygy_dimension(a, b, c, p)), (a, b, c)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 20), st.integers(0, 20),
       st.integers(0, 20))
@settings(max_examples=300)
def test_syzygy_dimension_matches_graded_ranks(p, a, b, c):
    assert syzygy_dimension(a, b, c, p) == oracles.syzygy_dimension(a, b, c, p)


@st.composite
def diagonal_hypersurfaces(draw):
    """A form sum c_i x_i^(d_i) with d_i <= 4, absent variables and linear
    terms included, or, in odd p, any nonzero quadratic form, degenerate ones
    included; and a level q = p^e <= 9."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nvars = draw(st.integers(1, 4))
    ring = PolyRing(FieldConfig(p), tuple("xyzw"[:nvars]))
    f = ring.zero()
    if p != 2 and draw(st.booleans()):
        for i, j in combinations_with_replacement(range(nvars), 2):
            exps = [0] * nvars
            exps[i] += 1
            exps[j] += 1
            f = f + ring.monomial(tuple(exps), draw(st.integers(0, p - 1)))
    else:
        for i in range(nvars):
            exps = [0] * nvars
            exps[i] = draw(st.integers(0, 4))  # 0: x_i is absent
            if exps[i]:
                f = f + ring.monomial(tuple(exps), draw(st.integers(1, p - 1)))
    if f.is_zero():
        reject()
    e = draw(st.integers(1, 3 if p == 2 else 2 if p == 3 else 1))
    return ring, f, p**e


# The engine runs under one pair and degree ceiling, and a draw that
# reaches it is rejected, so no draw can stall the suite. The costliest of
# 300 draws took 245 pairs.
MAX_PAIRS = 400
MAX_DEGREE = 60


@given(diagonal_hypersurfaces())
@settings(max_examples=120)
def test_the_route_matches_the_engine(data):
    ring, f, q = data
    blocks, full = jordan_counts((f,), q)
    m_bracket = maximal_ideal(ring).bracket_power(q)
    budget = Budget(max_pairs=MAX_PAIRS, max_degree=MAX_DEGREE)
    try:
        first = Ideal(ring, [f]).sum_with(m_bracket).colength(budget)
        last = Ideal(ring, [f**(q - 1)]).sum_with(m_bracket).colength(budget)
    except BudgetExceededError:
        reject()
    assert blocks == first
    assert full == q**ring.nvars - last


@pytest.mark.parametrize("p, variables, gens", [
    (7, "x, y, z", ["x^3 + y^3 + z^3 + x*y*z"]),  # a mixed term
    (5, "x, y", ["x + x^2"]),  # one variable in two terms
    (2, "x, y", ["x*y"]),  # a quadric in characteristic 2
    (5, "x, y", ["x*y - y^3"]),  # a quadric plus a cubic
    (3, "x, y, z, w", ["x*y - z^2", "z*w - x^2"]),  # two generators
    (5, "a, b, c, d, e", ["a^2 + b^2 + c^3 + d^3 + e^5"]),  # five factors
    (5, "a, b, c, d, e", ["a*b + c*d + e^2"]),  # a quadric of rank 5
    (3, "x, y", ["0"]),  # the zero polynomial
])
def test_other_rings_stay_on_the_engine(p, variables, gens):
    ring = PolyRing(FieldConfig(p), tuple(variables.split(", ")))
    assert diagonal_degrees(tuple(ring.parse(g) for g in gens)) is None


@pytest.mark.parametrize("p, gens, degrees", [
    (5, ["x*y - z^2"], (2, 2, 2)),
    (3, ["x*y - z*w"], (2, 2, 2, 2)),
    (3, ["x^2 + 2*x*y + y^2"], (2,)),  # (x + y)^2 has rank 1
    (5, ["x*y"], (2, 2)),
    (2, ["x^2 + y^3 + w"], (1, 2, 3)),
])
def test_detection_reads_the_diagonal_form(p, gens, degrees):
    ring = PolyRing(FieldConfig(p), ("x", "y", "z", "w"))
    assert diagonal_degrees(tuple(ring.parse(g) for g in gens)) == degrees


@pytest.mark.parametrize("measure", [
    lambda pres, budget: pres.sample(3, budget),
    lambda pres, budget: splitting_number(pres, 3, budget),
], ids=["sample", "splitting_number"])
def test_the_route_polls_the_deadline(measure):
    pres = LocalRingPresentation.from_texts(3, ["x", "y", "z", "w"],
                                            ["x*y - z*w"])
    pres.dimension()
    with pytest.raises(BudgetExceededError) as caught:
        measure(pres, Budget(deadline_seconds=0))
    frames = [frame.name for frame in traceback.extract_tb(caught.tb)]
    assert "jordan_counts" in frames
