"""Sparse multivariate polynomials over F_p with monomial orders and a parser.

A Polynomial is an immutable sparse map from exponent vectors to nonzero
coefficients in [1, p). Ordered term lists are sorted on request; the
Groebner engine reduces in the packed form of kernel.py, not here.

Monomial orders are realized as key functions mapping an exponent vector to
an integer tuple compared lexicographically. MonomialOrder.key is the only
place these layouts are written; the reduction kernel and ordered_terms
both call it:

* grevlex: (total degree, e_1+...+e_{n-1}, ..., e_1). Comparing these
  tuples reproduces "higher total degree wins, ties broken by the last
  nonzero entry of a-b being negative for a > b".
* lex: the exponent vector itself.
* elimination(k): grevlex key of the first k variables followed by the
  grevlex key of the rest, making every monomial containing one of the
  first k variables larger than every monomial in the others.

Expression grammar (EBNF), also shown in the README:

    expr     = term { ("+" | "-") term } ;
    term     = factor { "*" factor } ;
    factor   = { "-" } power ;
    power    = atom [ "^" integer ] ;
    atom     = integer | variable | "(" expr ")" ;
    integer  = digit { digit } ;
    variable = letter { letter | digit | "_" } ;
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple

from .errors import CapacityError, ParseError, PreconditionError
from .field import FieldConfig

# Monomial exponents (and total degrees) are capped so products can never
# silently wrap; 2^40 leaves ample room above the default degree budget.
MAX_EXPONENT = 2**40

Exps = tuple[int, ...]


def _check_exponent(e: int) -> int:
    if e < 0:
        raise PreconditionError(f"negative exponent {e}")
    if e > MAX_EXPONENT:
        raise CapacityError(f"exponent {e} exceeds the 2^40 capacity")
    return e


GREVLEX = "grevlex"
LEX = "lex"
ELIMINATION = "elimination"


def _grevlex_key(exps: Exps) -> tuple[int, ...]:
    total = 0
    prefix = []
    for e in exps:
        total += e
        prefix.append(total)
    if prefix:
        prefix.pop()
    prefix.reverse()
    return (total, *prefix)


def _elimination_key(block: int) -> Callable[[Exps], tuple[int, ...]]:
    def key(exps: Exps) -> tuple[int, ...]:
        return _grevlex_key(exps[:block]) + _grevlex_key(exps[block:])
    return key


class _MonomialOrder(NamedTuple):
    kind: str
    block: int | None = None


class MonomialOrder(_MonomialOrder):
    """A multiplicative well-order on monomials of a fixed variable count.

    ``key`` is the order's key function: a > b in the order exactly when
    key(a) > key(b) as tuples. Every key is additive, key(a + b) = key(a) +
    key(b) componentwise (grevlex and lex are linear maps, elimination
    concatenates two), and the reduction kernel relies on it to shift keys
    instead of recomputing them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MonomialOrder:
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in (GREVLEX, LEX, ELIMINATION):
            raise PreconditionError(f"unknown monomial order kind {self.kind!r}")
        if self.kind == ELIMINATION:
            if self.block is None or self.block < 1:
                raise PreconditionError("elimination order needs a block size >= 1")
        elif self.block is not None:
            raise PreconditionError(f"{self.kind} takes no block size")
        return self

    @property
    def key(self) -> Callable[[Exps], tuple[int, ...]]:
        if self.kind == GREVLEX:
            return _grevlex_key
        if self.kind == LEX:
            return tuple  # exponent vectors are tuples, so this is the identity
        return _elimination_key(self.block)


class _PolyRing(NamedTuple):
    field: FieldConfig
    variables: tuple[str, ...]


class PolyRing(_PolyRing):
    """The polynomial ring F_p[variables]; the shared context of an ideal."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> PolyRing:
        self = super().__new__(cls, *args, **kwargs)
        if not self.variables:
            raise PreconditionError("a polynomial ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise PreconditionError(f"duplicate variable names in {self.variables}")
        for name in self.variables:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
                raise PreconditionError(f"invalid variable name {name!r}")
        return self

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def p(self) -> int:
        return self.field.p

    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> Polynomial:
        i = self.variables.index(name)
        return self.monomial({i: 1})

    def monomial(self, exps: dict[int, int] | Exps, coeff: int = 1) -> Polynomial:
        if isinstance(exps, dict):
            vec = [0] * self.nvars
            for i, e in exps.items():
                vec[i] = _check_exponent(e)
            exps = tuple(vec)
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(exps): coeff})

    def gens(self) -> list[Polynomial]:
        return [self.monomial({i: 1}) for i in range(self.nvars)]

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)

    def default_order(self) -> MonomialOrder:
        return MonomialOrder(GREVLEX)


class Polynomial:
    """Immutable sparse polynomial. Do not mutate ``terms`` after creation."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exps, int]) -> None:
        self.ring = ring
        clean: dict[Exps, int] = {}
        for exps, c in terms.items():
            if len(exps) != ring.nvars:
                raise PreconditionError(
                    f"exponent vector {exps} does not match {ring.nvars} variables")
            c %= ring.p
            if c:
                clean[exps] = c
        self.terms = clean

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def order_of_vanishing(self) -> int:
        """Smallest total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def ordered_terms(self, order: MonomialOrder) -> list[tuple[Exps, int]]:
        """Terms in descending order."""
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]),
                      reverse=True)

    def coefficient(self, exps: Exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def constant_coefficient(self) -> int:
        return self.terms.get((0,) * self.ring.nvars, 0)

    def __iter__(self) -> Iterator[tuple[Exps, int]]:
        return iter(self.terms.items())

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: Polynomial) -> None:
        if self.ring != other.ring:
            raise PreconditionError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = (out.get(exps, 0) + c) % p
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> Polynomial:
        p = self.ring.p
        return Polynomial(self.ring, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        p = self.ring.p
        out: dict[Exps, int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                s = (out.get(exps, 0) + ca * cb) % p
                if s:
                    out[exps] = s
                else:
                    out.pop(exps, None)
        poly = Polynomial(self.ring, out)
        poly._check_capacity()
        return poly

    def _check_capacity(self) -> None:
        for exps in self.terms:
            total = 0
            for e in exps:
                total += _check_exponent(e)
            if total > MAX_EXPONENT:
                raise CapacityError(
                    f"total degree {total} exceeds the 2^40 capacity")

    def scale(self, c: int) -> Polynomial:
        c %= self.ring.p
        if c == 0:
            return self.ring.zero()
        p = self.ring.p
        return Polynomial(self.ring, {e: k * c % p for e, k in self.terms.items()})

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise PreconditionError("negative polynomial powers are not defined")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def frobenius_power(self, q: int) -> Polynomial:
        """Raise to the q-th power for q a power of the characteristic.

        Frobenius is a ring map, so this just scales every exponent vector
        by q (coefficients are fixed by x -> x^p on F_p).
        """
        out = {tuple(e * q for e in exps): c for exps, c in self.terms.items()}
        poly = Polynomial(self.ring, out)
        poly._check_capacity()
        return poly

    def derivative(self, index: int) -> Polynomial:
        """Formal partial derivative with respect to the index-th variable."""
        p = self.ring.p
        out: dict[Exps, int] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            nc = c * (e % p) % p
            if nc == 0:
                continue
            ne = exps[:index] + (e - 1,) + exps[index + 1:]
            out[ne] = (out.get(ne, 0) + nc) % p
        return Polynomial(self.ring, out)

    def evaluate(self, point: tuple[int, ...]) -> int:
        """Evaluate at a point with coordinates in F_p."""
        p = self.ring.p
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * pow(x % p, e, p) % p
            total = (total + v) % p
        return total

    def substitute_shift(self, point: tuple[int, ...]) -> Polynomial:
        """Substitute x_i -> x_i + a_i, expanding exactly."""
        ring = self.ring
        out = ring.zero()
        shifted_vars = []
        for i, a in enumerate(point):
            v = ring.monomial({i: 1})
            if a % ring.p:
                v = v + ring.constant(a)
            shifted_vars.append(v)
        for exps, c in self.terms.items():
            term = ring.constant(c)
            for i, e in enumerate(exps):
                if e:
                    term = term * shifted_vars[i] ** e
            out = out + term
        return out

    # -- equality / display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{format_polynomial(self)} over F_{self.ring.p}>"


# -- printing ------------------------------------------------------------


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: descending terms, explicit '^', coefficients in [0, p).

    parse(format(f)) == f, which the test suite checks as a fixed point.
    """
    if f.is_zero():
        return "0"
    parts = []
    names = f.ring.variables
    for exps, c in f.ordered_terms(f.ring.default_order()):
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(exps) if e]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


# -- parsing --------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*^()]))")


class _Parser:
    def __init__(self, text: str, ring: PolyRing) -> None:
        self.text = text
        self.ring = ring
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.index = 0

    def _tokenize(self) -> None:
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                stripped = self.text[pos:].lstrip()
                if not stripped:
                    break
                at = len(self.text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            if m.group("int") is not None:
                self.tokens.append(("int", m.group("int"), m.start("int")))
            elif m.group("name") is not None:
                self.tokens.append(("name", m.group("name"), m.start("name")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()

    def _peek(self) -> tuple[str, str, int] | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.index += 1
        return tok

    def _expect_op(self, op: str) -> None:
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def parse(self) -> Polynomial:
        poly = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return poly

    def _expr(self) -> Polynomial:
        poly = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return poly
            self.index += 1
            rhs = self._term()
            poly = poly + rhs if tok[1] == "+" else poly - rhs

    def _term(self) -> Polynomial:
        poly = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return poly
            self.index += 1
            poly = poly * self._factor()

    def _factor(self) -> Polynomial:
        negate = False
        while True:
            tok = self._peek()
            if tok is not None and tok[0] == "op" and tok[1] == "-":
                self.index += 1
                negate = not negate
            else:
                break
        poly = self._power()
        return -poly if negate else poly

    def _power(self) -> Polynomial:
        base = self._atom()
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.index += 1
            etok = self._next()
            if etok[0] != "int":
                raise ParseError("exponent must be an integer literal", etok[2])
            e = int(etok[1])
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} exceeds the 2^40 capacity", etok[2])
            return base**e
        return base

    def _atom(self) -> Polynomial:
        tok = self._next()
        kind, value, at = tok
        if kind == "int":
            return self.ring.constant(int(value))
        if kind == "name":
            if value not in self.ring.variables:
                raise ParseError(f"unknown variable {value!r}", at)
            return self.ring.variable(value)
        if kind == "op" and value == "(":
            poly = self._expr()
            self._expect_op(")")
            return poly
        raise ParseError(f"unexpected token {value!r}", at)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression into a canonical Polynomial. See module grammar."""
    return _Parser(text, ring).parse()
