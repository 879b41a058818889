"""Sparse multivariate polynomials over F_p in grevlex order, and a parser.

A Polynomial is an immutable kernel term list (see kernel.py): its terms as
(packed grevlex key, packed exponents, coefficient) triples, strictly
descending by key, with every coefficient in [1, p). Sums are kernel.merge,
products kernel.multiply, and the Groebner engine reduces the same lists,
so no polynomial is ever converted. Iterating a polynomial yields its terms
unpacked, as (exponent tuple, coefficient) pairs, in descending order.

The one monomial order is grevlex. grevlex_key is the only place its key
layout is written; the Polynomial constructor and the engine's elimination
of one variable call it.

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
from typing import Iterator, NamedTuple

from . import kernel
from .errors import CapacityError, ParseError, PreconditionError
from .field import FieldConfig

Exps = tuple[int, ...]


def grevlex_key(exps: Exps) -> tuple[int, ...]:
    """(total degree, e_1+...+e_{n-1}, ..., e_1): comparing these tuples
    reproduces grevlex, "higher total degree wins, ties broken by the last
    nonzero entry of a-b being negative for a > b". The key is additive,
    grevlex_key(a + b) = grevlex_key(a) + grevlex_key(b) componentwise, and
    the reduction kernel relies on it to shift keys instead of recomputing
    them."""
    total = 0
    prefix = []
    for e in exps:
        total += e
        prefix.append(total)
    if prefix:
        prefix.pop()
    prefix.reverse()
    return (total, *prefix)


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
        return Polynomial.wrap(self, [])

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial.wrap(self, [(0, 0, c)])

    def variable(self, name: str) -> Polynomial:
        i = self.variables.index(name)
        return self.monomial({i: 1})

    def monomial(self, exps: dict[int, int] | Exps, coeff: int = 1) -> Polynomial:
        """coeff * x^exps, exps a vector or {index: exponent}; refuses an
        exponent above kernel.MAX_EXPONENT."""
        if isinstance(exps, dict):
            vec = [0] * self.nvars
            for i, e in exps.items():
                vec[i] = e
            exps = vec
        for e in exps:
            if e > kernel.MAX_EXPONENT:
                raise CapacityError(f"exponent {e} exceeds the 2^40 capacity")
        return Polynomial(self, {tuple(exps): coeff})

    def gens(self) -> list[Polynomial]:
        return [self.monomial({i: 1}) for i in range(self.nvars)]

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)


class Polynomial:
    """Immutable sparse polynomial: ring and its kernel term list, terms.

    terms is strictly descending by packed grevlex key, every coefficient
    is in [1, p), and nothing mutates it after creation."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exps, int]) -> None:
        """The polynomial sum c x^exps over terms. Refuses an exponent
        vector of the wrong length or with a negative entry, and a degree
        above kernel.DEGREE_CAP."""
        n, p = ring.nvars, ring.p
        packed = []
        for exps, c in terms.items():
            if len(exps) != n:
                raise PreconditionError(
                    f"exponent vector {exps} does not match {n} variables")
            if min(exps) < 0:
                raise PreconditionError(f"negative exponent {min(exps)}")
            c %= p
            if c:
                key = grevlex_key(exps)
                if key[0] > kernel.DEGREE_CAP:
                    raise CapacityError(
                        f"degree {key[0]} exceeds the kernel's 2^60 capacity")
                packed.append((kernel.pack(key), kernel.pack(exps), c))
        packed.sort(reverse=True)
        self.ring = ring
        self.terms = packed

    @classmethod
    def wrap(cls, ring: PolyRing, terms: list) -> Polynomial:
        """The polynomial whose term list is terms, which must already be a
        grevlex kernel term list of ring with coefficients in [1, p). The
        list is not copied, so no one may mutate it afterwards."""
        self = object.__new__(cls)
        self.ring = ring
        self.terms = terms
        return self

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial. Grevlex
        compares total degrees first, so it is the first term's."""
        if not self.terms:
            return -1
        return self.terms[0][1] % kernel.DEGREE_MOD

    def order_of_vanishing(self) -> int:
        """Smallest total degree of a term, the last term's; -1 for the
        zero polynomial."""
        if not self.terms:
            return -1
        return self.terms[-1][1] % kernel.DEGREE_MOD

    def constant_coefficient(self) -> int:
        """The coefficient of 1, which grevlex puts last."""
        if self.terms and not self.terms[-1][1]:
            return self.terms[-1][2]
        return 0

    def __iter__(self) -> Iterator[tuple[Exps, int]]:
        """(exponent tuple, coefficient) per term, descending in grevlex."""
        n = self.ring.nvars
        for _, exps, c in self.terms:
            yield kernel.unpack(exps, n), c

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: Polynomial) -> None:
        if self.ring != other.ring:
            raise PreconditionError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        return Polynomial.wrap(self.ring, kernel.merge(self.terms, other.terms,
                                                       self.ring.p))

    def __neg__(self) -> Polynomial:
        p = self.ring.p
        return Polynomial.wrap(self.ring, [(k, e, p - c)
                                           for k, e, c in self.terms])

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        """The product; raises CapacityError past total degree 2^40 (see
        kernel.multiply)."""
        self._check_ring(other)
        return Polynomial.wrap(self.ring, kernel.multiply(
            self.terms, other.terms, self.ring.p))

    def scale(self, c: int) -> Polynomial:
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial.wrap(self.ring, [(k, e, x * c % p)
                                           for k, e, x in self.terms])

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
        by q (coefficients are fixed by x -> x^p on F_p). The packed key is
        linear in the exponents, so scaling it by q keeps the order; a
        result of total degree past 2^40 raises CapacityError, as a product
        does.
        """
        total = self.total_degree() * q
        if total > kernel.MAX_EXPONENT:
            raise CapacityError(
                f"total degree {total} exceeds the 2^40 capacity")
        return Polynomial.wrap(self.ring, [(k * q, e * q, c)
                                           for k, e, c in self.terms])

    def evaluate(self, point: tuple[int, ...]) -> int:
        """Evaluate at a point with coordinates in F_p."""
        p = self.ring.p
        total = 0
        for exps, c in self:
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
        for exps, c in self:
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
        return hash((self.ring, tuple(self.terms)))

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
    for exps, c in f:
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
            if e > kernel.MAX_EXPONENT:
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
