"""The eight value types: immutable, compared and hashed by value, and
validated on construction."""

from fractions import Fraction

import pytest

from kunz.curves import Branch, BranchCurve
from kunz.errors import ParseError, PreconditionError
from kunz.field import FieldConfig
from kunz.hk import RationalInterval
from kunz.poly import PolyRing
from kunz.series import TruncatedSeries
from kunz.textio import JobSpec, SubvarietySpec

VALUES = {
    "FieldConfig": lambda: FieldConfig(5),
    "PolyRing": lambda: PolyRing(FieldConfig(5), ("x",)),
    "Branch": lambda: Branch((3, 2), (4,)),
    "BranchCurve": lambda: BranchCurve(
        7, [Branch((2, 3), (4,)), Branch((2, 5), (3,))]),
    "RationalInterval": lambda: RationalInterval(Fraction(1, 2), Fraction(1)),
    "SubvarietySpec": lambda: SubvarietySpec(("x", "y"), ((0, 0),), ()),
    "TruncatedSeries": lambda: TruncatedSeries.make(5, {0: 1, 3: 2}, 6),
    "JobSpec": lambda: JobSpec(command="hk", p=5, variables=("x", "y")),
}


@pytest.mark.parametrize("name", list(VALUES))
def test_equal_values_compare_and_hash_equal(name):
    a, b = VALUES[name](), VALUES[name]()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(VALUES))
def test_values_are_immutable(name):
    value = VALUES[name]()
    field = type(value)._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_construction_normalizes_and_fills_defaults():
    branch = Branch((3, 2, 3), [4])
    assert branch == Branch(semigroup_generators=(2, 3),
                            cross_valuations=(4,), conductor=2)
    assert BranchCurve(5, [Branch((2, 3))]).branches == (Branch((2, 3)),)
    job = JobSpec("tame", 7)
    assert (job.seed, job.mu, job.variables, job.e_max) == (0, 1, (), None)
    assert repr(FieldConfig(7)) == "FieldConfig(p=7)"


@pytest.mark.parametrize("build, error, match", [
    (lambda: FieldConfig(4), PreconditionError, "4 is not prime"),
    (lambda: FieldConfig(2**31), PreconditionError, r"\[2, 2\^31\)"),
    (lambda: PolyRing(FieldConfig(5), ("x", "x")), PreconditionError,
     "duplicate variable names"),
    (lambda: PolyRing(FieldConfig(5), ()), PreconditionError,
     "at least one variable"),
    (lambda: Branch((2, 4)), PreconditionError, "gcd > 1"),
    (lambda: Branch((2, 3), conductor=3), PreconditionError,
     "declared conductor 3"),
    (lambda: BranchCurve(5, [Branch((2, 3), (4,))]), PreconditionError,
     "single branch"),
    (lambda: BranchCurve(4, [Branch((2, 3))]), PreconditionError,
     "4 is not prime"),
    (lambda: RationalInterval(Fraction(1), Fraction(0)), PreconditionError,
     "out of order"),
    (lambda: SubvarietySpec(("x",), (), ()), PreconditionError,
     "at least one witness"),
    (lambda: JobSpec(command="bogus", p=5), ParseError,
     "unknown command 'bogus'"),
])
def test_construction_validates(build, error, match):
    with pytest.raises(error, match=match):
        build()
