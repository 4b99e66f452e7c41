"""Exact sparse polynomials over the rationals, plus the expression parser.

A polynomial in x and y is a mapping from exponent pairs (i, j), for
x^i*y^j, to nonzero ``Fraction`` coefficients; a truncated power series is a
sparse mapping from exponents below the truncation order to nonzero
coefficients, which the series code keeps as ``int``.

The parser reads polynomials in x and y.  Its grammar is regular, and
whitespace may stand between any two tokens::

    poly     :=  ['+'|'-'] monomial (('+'|'-') monomial)*
    monomial :=  rational | [rational '*'] factor ('*' (factor | rational))*
    factor   :=  name ['^' integer]           (name x or y; integer >= 1)
    rational :=  integer ['/' integer]        (unsigned; denominator != 0)
    divisor  :=  ['-'] rational '*' '(' poly ')' ('+' ['-'] rational '*' '(' poly ')')*

The tokens are digit runs ``\\d+`` (an integer), names
``[A-Za-z_][A-Za-z_0-9]*`` and any other single non-whitespace character;
the pattern group that matched a token gives its class.  Any name but x or y
is an error.  An explicit '*' joins the items of a monomial, and a rational
leads it only before a factor: ``x*2*y`` parses, ``2*3*x`` does not.  A '*'
binds only when a factor or a rational follows it, and '/' and '^' only when
digits follow; otherwise the monomial ends before that token, and the error
names it (``x**2``, ``x^-1`` and ``1/x`` fail at position 1).  A divisor's
'-' parses so that the divisor can name the non-positive coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InputError

Exponent = tuple[int, int]

@dataclass(frozen=True)
class Poly:
    """Immutable sparse polynomial in x and y.  Construction is the one
    check of its terms, one test each: ``terms`` maps pairs of non-negative
    ``int`` exponents, never ``bool``, to nonzero ``Fraction`` coefficients
    (an ``int`` would divide to a float), else ``InputError``, so zeros are
    never stored.  It keeps a read-only copy, so no later change to the
    mapping passes by, and two are equal when their copies are."""

    terms: Mapping[Exponent, Fraction]

    def __post_init__(self) -> None:
        try:
            for (i, j), coeff in self.terms.items():
                if not (isinstance(coeff, Fraction) and coeff.numerator
                        and type(i) is int and type(j) is int and i >= 0 and j >= 0):
                    raise InputError("Poly terms must be nonzero Fractions at pairs of "
                                     "non-negative integers")
        except (AttributeError, TypeError, ValueError):  # no mapping of pairs to unpack
            raise InputError("Poly terms must map exponent pairs to coefficients") from None
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __hash__(self) -> int:  # dataclass keeps it: a mapping proxy has no hash
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"


# ---------------------------------------------------------------------------
# parsing
#
# One findall is linear: each token pattern fails at once or takes a whole run.

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S)")
_END = ("", "", "")  # after the last token: no class matches it

_Tokens = list[tuple[str, str, str]]


def _tokens(text: str) -> _Tokens:
    """Each token as (digits, name, other), exactly one of them nonempty,
    then _END."""
    tokens = _TOKEN.findall(text)
    tokens.append(_END)
    return tokens


def _start(text: str, k: int) -> int:
    """Where token k starts in the text; past the last token, its length."""
    m = next(islice(_TOKEN.finditer(text), k, None), None)
    return len(text) if m is None else m.start()


def _error(text: str, k: int, expected: str) -> InputError:
    at = _start(text, k)
    found = repr(text[at]) if at < len(text) else "end of input"
    return InputError(f"syntax error at position {at}: expected {expected}, found {found}")


def _integer(text: str, tokens: _Tokens, k: int) -> int:
    try:
        return int(tokens[k][0])
    except ValueError as exc:  # more digits than int() converts from text
        raise InputError(f"number at position {_start(text, k)} is too long: {exc}") from None


def _rational_end(tokens: _Tokens, k: int) -> int:
    """The token after the rational at token k, or k if none starts there:
    its '/' binds only when digits follow."""
    if not tokens[k][0]:
        return k
    return k + 3 if tokens[k + 1][2] == "/" and tokens[k + 2][0] else k + 1


def _rational(text: str, tokens: _Tokens, k: int) -> "tuple[int, int, int]":
    """Numerator, denominator and end of the rational at token k."""
    end = _rational_end(tokens, k)
    if end == k + 1:
        return _integer(text, tokens, k), 1, end
    den = _integer(text, tokens, k + 2)
    if den == 0:
        raise InputError(f"syntax error at position {_start(text, k + 2)}: zero denominator")
    return _integer(text, tokens, k), den, end


def _scan_poly(text: str, tokens: _Tokens, k: int) -> "tuple[Poly, int]":
    """The polynomial from token k and the token it stops at: the end, or
    the first token after a monomial that is not a sign.  Each coefficient
    is summed as an ``int`` numerator and denominator, and one ``Fraction``
    is built per stored term."""
    terms: dict[Exponent, tuple[int, int]] = {}
    first = True
    while True:
        sign = tokens[k][2]
        if sign == "+" or sign == "-":
            k += 1
        elif not first:
            return Poly({e: Fraction(n) if d == 1 else Fraction(n, d)
                         for e, (n, d) in terms.items() if n}), k
        first = False
        num, den, i, j = -1 if sign == "-" else 1, 1, 0, 0
        if tokens[k][0]:  # a leading rational joins only a factor
            n, d, k = _rational(text, tokens, k)
            num, den = num * n, den * d
            joined = tokens[k][2] == "*" and tokens[k + 1][1] != ""  # a factor follows
            k += joined
        elif tokens[k][1]:
            joined = True
        else:
            raise _error(text, k, "a monomial")
        while joined:  # an item, then '*' and the next item if it follows
            digits, name, _ = tokens[k]
            if digits:
                n, d, k = _rational(text, tokens, k)
                num, den = num * n, den * d
            elif name != "x" and name != "y":
                raise InputError(f"syntax error at position {_start(text, k)}: "
                                 f"unknown variable {name!r} (use x and y)")
            else:
                power, k = 1, k + 1
                if tokens[k][2] == "^" and tokens[k + 1][0]:
                    power = _integer(text, tokens, k + 1)
                    if power < 1:
                        raise InputError(f"syntax error at position {_start(text, k + 1)}: "
                                         "exponent must be a positive integer")
                    k += 2
                if name == "x":
                    i += power
                else:
                    j += power
            # a factor or a rational follows the '*'
            joined = tokens[k][2] == "*" and (tokens[k + 1][0] or tokens[k + 1][1]) != ""
            k += joined
        key = i, j
        if key in terms:
            n, d = terms[key]
            num, den = (n + num, d) if d == den else (n * den + num * d, d * den)
        terms[key] = num, den


def parse_poly(text: str) -> Poly:
    """Parse a polynomial in x and y with exact rational coefficients."""
    if not isinstance(text, str):
        raise InputError(f"expected polynomial text, got {type(text).__name__}")
    tokens = _tokens(text)
    p, k = _scan_poly(text, tokens, 0)
    if tokens[k] is not _END:
        raise _error(text, k, "'+', '-' or end of input")
    return p


def parse_weighted_terms(text: str) -> list[tuple[Fraction, Poly]]:
    """Parse ``rational*(poly) + rational*(poly) + ...`` into (coeff, poly)
    pairs, order preserved."""
    if not isinstance(text, str):
        raise InputError(f"expected divisor text, got {type(text).__name__}")
    tokens = _tokens(text)
    out: list[tuple[Fraction, Poly]] = []
    k = 0
    while True:
        negative = tokens[k][2] == "-"
        rational = k + negative
        end = _rational_end(tokens, rational)
        if end == rational or tokens[end][2] != "*" or tokens[end + 1][2] != "(":
            raise _error(text, k, "a coefficient and '*('")
        num, den, _ = _rational(text, tokens, rational)
        num = -num if negative else num
        p, k = _scan_poly(text, tokens, end + 2)
        if tokens[k][2] != ")":
            raise _error(text, k, "')'")
        out.append((Fraction(num) if den == 1 else Fraction(num, den), p))
        if tokens[k + 1][2] != "+":
            if tokens[k + 1] is not _END:
                raise _error(text, k + 1, "'+' or end of input")
            return out
        k += 2


# ---------------------------------------------------------------------------
# rendering (canonical, re-parseable)


def _text(value: "int | Fraction") -> str:
    try:
        return str(value)
    except ValueError as exc:  # more digits than str() converts to text
        raise InputError(f"number is too long to render: {exc}") from None


def render_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), tuple(-v for v in e))):
        coeff = p.terms[exp]
        factors = []
        for name, e in zip("xy", exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{_text(e)}")
        mag = abs(coeff)
        if not factors:
            body = _text(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_text(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def render_weighted_terms(pairs: Iterable[tuple[Fraction, Poly]]) -> str:
    return " + ".join(f"{_text(c)}*({render_poly(p)})" for c, p in pairs)


# ---------------------------------------------------------------------------
# sparse truncated power series (exponent -> nonzero coefficient)


def series_mul(a: dict[int, int], b: dict[int, int], order: int) -> dict[int, int]:
    """Product truncated below ``order``; zero terms are never stored or visited."""
    terms = sorted(b.items())
    out: dict[int, int] = {}
    for i, ca in a.items():
        for j, cb in terms:
            if i + j >= order:
                break
            out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# dense univariate gcd (index = exponent)


def _primitive(f: list[int]) -> list[int]:
    """f over the gcd of its entries; the zero list [] stays []."""
    g = gcd(*f)
    return [c // g for c in f]


def uni_gcd_degree(a: list[int], b: list[int]) -> int:
    """The degree over Q of gcd(a, b), for ``int`` lists whose last entries
    are nonzero, by the primitive remainder sequence (Collins, JACM 1967;
    Brown & Traub, JACM 1971).  Each step replaces (a, b) by (b, r), r the
    primitive part of a pseudo-remainder of a by b: a nonzero constant times
    a's remainder over Q, so the gcd keeps its degree, and dividing out the
    content keeps the entries from growing exponentially along the sequence."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        rem, lead = a, b[-1]
        while len(rem) >= len(b):
            k, g = len(rem) - len(b), gcd(lead, rem[-1])
            m, t = lead // g, rem[-1] // g
            rem = [c * m for c in rem[:k]] + [c * m - t * e for c, e in zip(rem[k:], b)]
            while rem and not rem[-1]:  # the top entry is now 0
                rem.pop()
        a, b = b, _primitive(rem)
    return len(a) - 1 if not b else 0
