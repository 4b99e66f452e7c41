"""Exact sparse polynomials over the rationals, plus the expression parser.

A polynomial in ``n`` variables is a mapping from exponent tuples to nonzero
``Fraction`` coefficients; a truncated power series is the same kind of
sparse mapping, from exponents below the truncation order.

The accepted expression grammar (whitespace insignificant)::

    poly     :=  ['+'|'-'] monomial (('+'|'-') monomial)*
    monomial :=  rational ('*' factors)?  |  factors
    factors  :=  factor ('*' factor)*
    factor   :=  var ('^' positive-integer)?
    rational :=  integer ('/' positive-integer)?

An explicit '*' is required between a coefficient and a variable and between
variables, which keeps the grammar unambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Exponent = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Poly:
    """Immutable sparse polynomial; zero coefficients are never stored."""

    nvars: int
    terms: Mapping[Exponent, Fraction] = field(default_factory=dict)

    # construction -----------------------------------------------------

    @staticmethod
    def from_terms(nvars: int, terms: Mapping[Exponent, object]) -> "Poly":
        clean: dict[Exponent, Fraction] = {}
        for exp, c in terms.items():
            if len(exp) != nvars or any(e < 0 or not isinstance(e, int) for e in exp):
                raise InputError(f"bad exponent tuple {exp} for {nvars} variables")
            coeff = Fraction(c)
            if coeff != 0:
                clean[exp] = clean.get(exp, Fraction(0)) + coeff
                if clean[exp] == 0:
                    del clean[exp]
        return Poly(nvars, clean)

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    # predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        if self.is_zero:
            return 0
        return max(sum(e) for e in self.terms)

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and dict(self.terms) == dict(other.terms)
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Poly({render_poly(self, names)!r})"

    # arithmetic ---------------------------------------------------------

    def _require_same(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise InputError("polynomials have different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._require_same(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, Fraction(0)) + c
            if s == 0:
                out.pop(exp, None)
            else:
                out[exp] = s
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise InputError(f"syntax error at position {at}: unexpected {stripped[0]!r}")
        if m.group(1) is not None:
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]) -> None:
        if len(set(variables)) != len(variables):
            raise InputError("variable names must be distinct")
        self.text = text
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(variables)}
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> "InputError":
        kind, value, at = self.peek()
        what = "end of input" if kind == "end" else repr(value)
        return InputError(f"syntax error at position {at}: {message}, found {what}")

    def expect_op(self, op: str) -> None:
        kind, value, _ = self.peek()
        if kind != "op" or value != op:
            raise self.fail(f"expected {op!r}")
        self.next()

    # rational := ['-'] integer ('/' positive-integer)?
    def parse_rational(self) -> Fraction:
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.next()
            sign = -1
        kind, value, _ = self.peek()
        if kind != "int":
            raise self.fail("expected an integer")
        self.next()
        num = int(value)
        if self.peek()[:2] == ("op", "/"):
            self.next()
            kind, value, _ = self.peek()
            if kind != "int":
                raise self.fail("expected a denominator")
            self.next()
            den = int(value)
            if den == 0:
                raise self.fail("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # factor := var ('^' positive-integer)?
    def parse_factor(self) -> Exponent:
        kind, value, at = self.peek()
        if kind != "name":
            raise self.fail("expected a variable name")
        if value not in self.index:
            raise InputError(
                f"syntax error at position {at}: unknown variable {value!r}"
                f" (declared: {', '.join(self.variables)})"
            )
        self.next()
        exp = [0] * len(self.variables)
        power = 1
        if self.peek()[:2] == ("op", "^"):
            self.next()
            kind, v, _ = self.peek()
            if kind != "int" or int(v) < 1:
                raise self.fail("expected a positive integer exponent")
            self.next()
            power = int(v)
        exp[self.index[value]] = power
        return tuple(exp)

    # monomial := rational ('*' factors)? | factors
    def parse_monomial(self) -> tuple[Fraction, Exponent]:
        nvars = len(self.variables)
        coeff = Fraction(1)
        exp = (0,) * nvars
        kind = self.peek()[0]
        if kind == "int":
            coeff = self.parse_rational()
            if self.peek()[:2] != ("op", "*"):
                return coeff, exp  # constant monomial
            self.next()
        elif kind != "name":
            raise self.fail("expected a monomial")
        exp = _exp_add(exp, self.parse_factor())
        while self.peek()[:2] == ("op", "*"):
            self.next()
            kind = self.peek()[0]
            if kind == "int":
                coeff *= self.parse_rational()
            else:
                exp = _exp_add(exp, self.parse_factor())
        return coeff, exp

    # poly := ['+'|'-'] monomial (('+'|'-') monomial)*
    def parse_poly(self) -> Poly:
        terms: dict[Exponent, Fraction] = {}
        sign = Fraction(1)
        if self.peek()[:2] == ("op", "+"):
            self.next()
        elif self.peek()[:2] == ("op", "-"):
            self.next()
            sign = Fraction(-1)
        while True:
            coeff, exp = self.parse_monomial()
            c = terms.get(exp, Fraction(0)) + sign * coeff
            if c == 0:
                terms.pop(exp, None)
            else:
                terms[exp] = c
            kind, value, _ = self.peek()
            if (kind, value) == ("op", "+"):
                sign = Fraction(1)
                self.next()
            elif (kind, value) == ("op", "-"):
                sign = Fraction(-1)
                self.next()
            else:
                return Poly(len(self.variables), terms)

    def at_end(self) -> bool:
        return self.peek()[0] == "end"


def _exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def parse_poly(text: str, variables: Sequence[str] = ("x", "y")) -> Poly:
    """Parse a polynomial expression with exact rational coefficients."""
    parser = _Parser(text, variables)
    p = parser.parse_poly()
    if not parser.at_end():
        raise parser.fail("trailing input after polynomial")
    return p


def parse_weighted_terms(
    text: str, variables: Sequence[str] = ("x", "y")
) -> list[tuple[Fraction, Poly]]:
    """Parse ``rational*(poly) + rational*(poly) + ...`` into (coeff, poly)
    pairs, order preserved."""
    parser = _Parser(text, variables)
    out: list[tuple[Fraction, Poly]] = []
    while True:
        coeff = parser.parse_rational()
        parser.expect_op("*")
        parser.expect_op("(")
        p = parser.parse_poly()
        parser.expect_op(")")
        out.append((coeff, p))
        if parser.peek()[:2] == ("op", "+"):
            parser.next()
            continue
        if not parser.at_end():
            raise parser.fail("expected '+' or end of divisor expression")
        return out


# ---------------------------------------------------------------------------
# rendering (canonical, re-parseable)


def render_poly(p: Poly, variables: Sequence[str] = ("x", "y")) -> str:
    if len(variables) != p.nvars:
        raise InputError("wrong number of variable names")
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), tuple(-v for v in e))):
        coeff = p.terms[exp]
        factors = []
        for name, e in zip(variables, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def render_weighted_terms(
    pairs: Iterable[tuple[Fraction, Poly]], variables: Sequence[str] = ("x", "y")
) -> str:
    return " + ".join(f"{c}*({render_poly(p, variables)})" for c, p in pairs)


# ---------------------------------------------------------------------------
# sparse truncated power series (exponent -> nonzero coefficient)


def series_mul(a: dict[int, Fraction], b: dict[int, Fraction], order: int) -> dict[int, Fraction]:
    """Product truncated below ``order``; zero terms are never stored or visited."""
    terms = sorted(b.items())
    out: dict[int, Fraction] = {}
    for i, ca in a.items():
        for j, cb in terms:
            if i + j >= order:
                break
            out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# dense univariate helpers (index = exponent)

Uni = list  # list[Fraction]


def uni_trim(c: Uni) -> Uni:
    while c and c[-1] == 0:
        c.pop()
    return c


def uni_degree(c: Uni) -> int:
    return len(c) - 1  # -1 for the zero polynomial


def uni_derivative(c: Uni) -> Uni:
    return uni_trim([c[i] * i for i in range(1, len(c))])


def _uni_rem(a: Uni, b: Uni) -> Uni:
    """The remainder of a on division by b, which must be trimmed and nonzero."""
    rem = uni_trim(list(a))
    inv = 1 / b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        factor = rem[-1] * inv
        for i, bc in enumerate(b):
            rem[k + i] -= factor * bc
        uni_trim(rem)  # the top coefficient is now exactly 0
    return rem


def uni_gcd(a: Uni, b: Uni) -> Uni:
    x, y = uni_trim(list(a)), uni_trim(list(b))
    while y:
        x, y = y, _uni_rem(x, y)
    if x:
        lead = x[-1]
        x = [c / lead for c in x]
    return x


def uni_is_squarefree(c: Uni) -> bool:
    """gcd with the derivative is constant (degree <= 0)."""
    if not c:
        return False
    return uni_degree(uni_gcd(c, uni_derivative(c))) <= 0


def uni_coprime(a: Uni, b: Uni) -> bool:
    return uni_degree(uni_gcd(a, b)) <= 0
