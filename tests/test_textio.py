from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from kunz.errors import ParseError
from kunz.textio import (COMMANDS, READS, JobSpec, SubvarietySpec,
                         parse_job, parse_statements, render_job)

FULL_SCAN = """
# a family with one declared subvariety
command = scan;
p = 3;
vars = x, y, z;
ideal = x*y;
emax = 2;
sub.1.ideal = x, y;
sub.1.witnesses = (0,0,0) (0,0,1);
sub.1.params = z;
"""


def test_statement_splitting_and_comments():
    statements = parse_statements("a = 1; # trailing\n# whole line\nb = 2;")
    assert statements == [("a", "1"), ("b", "2")]
    with pytest.raises(ParseError):
        parse_statements("a = 1; b")
    with pytest.raises(ParseError) as err:
        parse_statements("= 1;")
    assert err.value.position is not None


@pytest.mark.parametrize("text, position", [
    ("# a comment\np = 5;\nbad;", 19),
    ("p = 5; # note\n  9x = 1;", 16),
    ("a = 1;\n   = 2;", 10),
    ("a = 1; # x = 2; y\nb;", 18),
])
def test_parse_error_positions_point_into_the_text_as_written(text, position):
    with pytest.raises(ParseError) as err:
        parse_statements(text)
    assert err.value.position == position
    assert not text[position].isspace()


def test_minimal_job_parses_with_defaults():
    job = parse_job("command = hk; p = 5; vars = x, y; ideal = x*y;")
    assert job.command == "hk"
    assert job.p == 5
    assert job.variables == ("x", "y")
    assert job.ideal == ("x*y",)
    assert job.e_max is None
    assert job.seed == 0 and job.mu == 1


def test_round_trip_is_the_identity():
    texts = [
        "command = hk; p = 5; vars = x, y, z; ideal = x*y - z^2; emax = 3;",
        "command = fedder; p = 7; vars = x, y, z; "
        "ideal = x^3 + y^3 + z^3; element = x*y*z; ecap = 2;",
        "command = tame; p = 5; branch = 2, 3; seed = 4;",
        "command = tame; p = 5; branch = 1; branch = 1; "
        "cross = 1: 1; cross = 2: 1;",
        FULL_SCAN,
        "command = verify-bounds; p = 5; vars = x, y; ideal = y^2 - x^3; "
        "inner = x, y; socle = 1; m = 2; Delta = 9; emax = 3;",
    ]
    for text in texts:
        job = parse_job(text)
        assert parse_job(render_job(job)) == job


ints = st.integers(-10**12, 10**12)
optional_ints = st.none() | ints
names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
# expression texts: no statement, list, comment or cross separators, and no
# surrounding blanks, which the parser strips
exprs = st.text("xyzw0123456789+-*^() ", min_size=1, max_size=12).map(
    str.strip).filter(bool)


@st.composite
def job_specs(draw):
    """A JobSpec with every field drawn, points sized to the variables,
    then every field its command does not read put back at its default."""
    variables = tuple(draw(st.lists(names, max_size=3)))
    point = st.tuples(*[ints] * len(variables))
    points = st.lists(point, max_size=3).map(tuple)
    branches = tuple(draw(st.lists(
        st.lists(ints, max_size=3).map(tuple), max_size=3)))
    cross = tuple(draw(st.lists(ints, max_size=2).map(tuple))
                  for _ in branches)
    expr_tuples = st.lists(exprs, max_size=3).map(tuple)
    # a subvariety needs at least one witness
    witnesses = st.lists(point, min_size=1, max_size=3).map(tuple)
    subvarieties = tuple(SubvarietySpec(draw(expr_tuples), draw(witnesses),
                                        draw(expr_tuples))
                         for _ in range(draw(st.integers(0, 2))))
    command = draw(st.sampled_from(COMMANDS))
    fields = dict(
        variables=variables,
        ideal=draw(expr_tuples),
        point=draw(st.none() | point),
        points=draw(st.none() | points),
        branches=branches,
        cross=cross,
        subvarieties=subvarieties,
        inner=draw(expr_tuples),
        socle=draw(st.none() | exprs),
        element=draw(st.none() | exprs),
        m_constant=draw(optional_ints),
        delta_constant=draw(optional_ints),
        e_max=draw(optional_ints),
        e_cap=draw(optional_ints),
        seed=draw(ints),
        mu=draw(ints),
        budget_pairs=draw(optional_ints),
    )
    defaults = JobSpec._field_defaults
    return JobSpec(command=command, p=draw(ints), **{
        field: value if field in READS[command] else defaults[field]
        for field, value in fields.items()})


@given(job_specs())
@settings(max_examples=200)
def test_round_trip_covers_every_field(job):
    # content_hash covers render_job's text, so a field it dropped would
    # let two different jobs share a hash
    assert parse_job(render_job(job)) == job


def test_command_mismatch_and_unknown_keys():
    with pytest.raises(ParseError):
        parse_job("command = hk; p = 5; vars = x; ideal = x;", command="tame")
    with pytest.raises(ParseError):
        parse_job("p = 5; vars = x; ideal = x; wibble = 3;", command="hk")
    with pytest.raises(ParseError):
        parse_job("p = 5;")  # no command given anywhere


def test_duplicate_keys_are_rejected():
    with pytest.raises(ParseError):
        parse_job("command = hk; p = 5; p = 7; vars = x; ideal = x;")


def test_points_parsing():
    job = parse_job(
        "command = scan; p = 3; vars = x, y; ideal = x*y; "
        "points = (0,0) (1,0);")
    assert job.points == ((0, 0), (1, 0))
    with pytest.raises(ParseError):
        parse_job("command = scan; p = 3; vars = x, y; ideal = x*y; "
                  "points = (0,0,0);")  # wrong arity


def test_cross_validation():
    with pytest.raises(ParseError):
        parse_job("command = tame; p = 5; branch = 1; cross = 2: 1;")
    with pytest.raises(ParseError):
        parse_job("command = tame; p = 5; branch = 1; branch = 1; "
                  "cross = 1: 1; cross = 1: 2;")
    with pytest.raises(ParseError):
        parse_job("command = tame; p = 5; branch = 1; cross = 0: 1;")
    with pytest.raises(ParseError):
        parse_job("command = tame; p = 5; branch = 1; cross = 1;")


def test_overrides_win_only_when_given():
    text = "command = hk; p = 5; vars = x; ideal = x; emax = 2;"
    assert parse_job(text).e_max == 2
    assert parse_job(text, e_max=3).e_max == 3
    assert parse_job(text, e_max=None).e_max == 2


def test_job_spec_validates_commands():
    with pytest.raises(ParseError):
        JobSpec(command="frobnicate", p=5)


# a value away from its default for every JobSpec field but command and p
AWAY_FROM_DEFAULT = {
    "variables": ("x",), "ideal": ("x",), "point": (0,), "points": ((0,),),
    "branches": ((2, 3),), "cross": ((4,),),
    "subvarieties": (SubvarietySpec(("x",), ((0,),), ()),),
    "inner": ("x",), "socle": "1", "element": "x", "m_constant": 2,
    "delta_constant": 9, "e_max": 2, "e_cap": 2, "seed": 3, "mu": 2,
    "budget_pairs": 5,
}


def test_job_spec_takes_only_the_fields_its_command_reads():
    assert COMMANDS == tuple(READS)
    assert set(AWAY_FROM_DEFAULT) == set(JobSpec._fields) - {"command", "p"}
    # every field is read by some command, so the round trip covers it
    assert set().union(*READS.values()) == set(AWAY_FROM_DEFAULT)
    accepted = set()
    for command in COMMANDS:
        for field, value in AWAY_FROM_DEFAULT.items():
            try:
                JobSpec(command=command, p=5, **{field: value})
            except ParseError:
                continue
            accepted.add((command, field))
    assert accepted == {(command, field)
                        for command, fields in READS.items()
                        for field in fields}
    # (command, field) pairs: 6 * 17 = 102 when every command took all
    assert len(accepted) == 37


@pytest.mark.parametrize("text, key", [
    ("command = hk; p = 5; vars = x; ideal = x; ecap = 2;", "ecap"),
    ("command = tame; p = 5; branch = 2, 3; vars = x;", "vars"),
    ("command = scan; p = 5; vars = x, y; ideal = x*y; point = 0, 0;",
     "point"),
    ("command = hk; p = 5; vars = x; ideal = x; branch = 2, 3;", "branch"),
    ("command = fsig; p = 3; vars = x, y; ideal = x*y; sub.1.ideal = x; "
     "sub.1.witnesses = (0,0);", "sub.N.*"),
    # a statement that restates the default is refused all the same
    ("command = hk; p = 5; vars = x; ideal = x; mu = 1;", "mu"),
    ("command = hk; p = 5; vars = x; ideal = x; seed = 0;", "seed"),
    ("command = tame; p = 5; vars = ; branch = 2, 3;", "vars"),
], ids=["hk_ecap", "tame_vars", "scan_point", "hk_branch", "fsig_sub",
        "hk_default_mu", "hk_default_seed", "tame_empty_vars"])
def test_a_key_the_command_does_not_read_is_refused(text, key):
    with pytest.raises(ParseError) as err:
        parse_job(text)
    command = parse_statements(text)[0][1]
    assert str(err.value) == (
        f"the {command} command reads no `{key}` statement")


def test_job_spec_refuses_a_field_its_command_does_not_read():
    with pytest.raises(ParseError) as err:
        JobSpec(command="hk", p=5, seed=3)
    assert str(err.value) == "the hk command reads no `seed` statement"


def test_subvariety_blocks():
    job = parse_job(FULL_SCAN)
    assert len(job.subvarieties) == 1
    spec = job.subvarieties[0]
    assert spec.ideal == ("x", "y")
    assert spec.witnesses == ((0, 0, 0), (0, 0, 1))
    assert spec.params == ("z",)
    with pytest.raises(ParseError):
        parse_job("command = scan; p = 3; vars = x, y; ideal = x*y; "
                  "sub.1.ideal = x;")  # witnesses missing
