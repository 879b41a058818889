"""A linear change of coordinates moves no Frobenius count.

For g in GL_n(F_p), (sum_j a_j x_j)^q = sum_j a_j^q x_j^q, so g keeps
m^[q], and it commutes with I -> I^[q] and with colons. So
l(S/(I + m^[q])) and l(S/((I^[q] : I) + m^[q])) are the same for I and
g(I). A moved copy falls off the fast path its ring takes, so the hk
colength and the fsig numerator of every ring below are checked against
another route: the cusp moves off Han's count onto the engine, and the
complete intersections keep Fedder's route in new coordinates, where h
has more terms. Quadrics stay on Han's count, which takes them in any
coordinates. g(I) comes from oracles.linear_substitution, which expands
with no package arithmetic.

The moved hypersurfaces also check the two identities that keep a
hypersurface off the engine: dim S/(f) = n - 1, and the purity verdict
read from (f^[p] : f) = (f^(p-1)), each against the tuple kernel's basis.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kunz.engine import Budget, Ideal
from kunz.field import FieldConfig
from kunz.fsplit import fedder_test, splitting_samples
from kunz.localring import LocalRingPresentation
from kunz.poly import PolyRing, Polynomial
from oracles import (hypersurface_purity, krull_dimension,
                     linear_substitution, rank_mod_p)

# name -> (p, variables, generators, the largest e drawn)
CORPUS = {
    "node": (3, "xy", ["x*y"], 3),
    "cone": (3, "xyz", ["x*y - z^2"], 3),
    "quadric": (3, "xyzw", ["x*y - z*w"], 3),
    "cusp": (5, "xy", ["y^2 - x^3"], 3),
    "twisted_cubic": (3, "xyzw", ["x*z - y^2", "x*w - y*z", "y*w - z^2"], 1),
    "plane_and_line": (3, "xyz", ["x*y", "x*z"], 3),
    "complete_intersection": (3, "xyzw", ["x*y - z*w", "x*z - y*w"], 3),
}
HYPERSURFACES = sorted(name for name, (_, _, generators, _) in CORPUS.items()
                       if len(generators) == 1)
PAIRS = 2000
SECONDS = 5


@st.composite
def moves(draw, names=tuple(sorted(CORPUS))):
    """A ring of the corpus among names, an invertible matrix over its F_p
    and e."""
    name = draw(st.sampled_from(names))
    p, variables, _, top = CORPUS[name]
    n = len(variables)
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    assume(rank_mod_p(matrix, p) == n)
    return name, matrix, draw(st.integers(1, top))


def counts(ring, generators, e):
    """The hk colength and the fsig numerator of S/(generators) at level
    e, under a budget of their own."""
    budget = Budget(max_pairs=PAIRS, deadline_seconds=SECONDS)
    presentation = LocalRingPresentation(ring, generators)
    return (presentation.sample(e, budget).colength,
            splitting_samples(presentation, e, budget)[-1].colength)


@settings(max_examples=60)
@given(moves())
def test_a_linear_change_of_coordinates_moves_no_count(move):
    name, matrix, e = move
    ring, generators, moved = moved_copy(name, matrix)
    assert counts(ring, moved, e) == counts(ring, generators, e)


def moved_copy(name, matrix):
    """The ring of the corpus entry, its generators, and their images under
    the matrix."""
    p, variables, texts, _ = CORPUS[name]
    ring = PolyRing(FieldConfig(p), tuple(variables))
    generators = [ring.parse(text) for text in texts]
    moved = [Polynomial(ring, linear_substitution(dict(g), matrix, p))
             for g in generators]
    return ring, generators, moved


@settings(max_examples=30)
@given(moves(HYPERSURFACES))
def test_the_hypersurface_identities_hold_in_moved_coordinates(move):
    name, matrix, _ = move
    ring, _, (f,) = moved_copy(name, matrix)
    presentation = LocalRingPresentation(ring, [f])
    assert (presentation.dimension() == Ideal(ring, [f]).dimension()
            == krull_dimension([f], ring) == ring.nvars - 1)
    assert fedder_test(presentation) == hypersurface_purity(f)
