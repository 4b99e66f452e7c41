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

A name is ``[A-Za-z_][A-Za-z_0-9]*``, and any name but x or y is an error.
An explicit '*' joins the items of a monomial, and a rational leads it only
before a factor: ``x*2*y`` parses, ``2*3*x`` does not.  A divisor's '-'
parses so that the divisor can name the non-positive coefficient.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import InputError

Exponent = tuple[int, int]

@dataclass(frozen=True)
class Poly:
    """Immutable sparse polynomial in x and y.  Construction is the one
    check of its terms, one test each: ``terms`` maps pairs of non-negative
    ``int`` exponents to nonzero ``Fraction`` coefficients (an ``int`` would
    divide to a float), else ``InputError``, so zeros are never stored.  It
    keeps a read-only copy, so no later change to the mapping passes by, and
    two are equal when their copies are."""

    terms: Mapping[Exponent, Fraction]

    def __post_init__(self) -> None:
        try:
            for (i, j), coeff in self.terms.items():
                if not (isinstance(coeff, Fraction) and coeff.numerator
                        and isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                    raise InputError("Poly terms must be nonzero Fractions at pairs of "
                                     "non-negative integers")
        except (AttributeError, TypeError, ValueError):  # no mapping of pairs to unpack
            raise InputError("Poly terms must map exponent pairs to coefficients") from None
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        if self.is_zero:
            return 0
        return max(sum(e) for e in self.terms)

    def __hash__(self) -> int:  # dataclass keeps it: a mapping proxy has no hash
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)!r})"


# ---------------------------------------------------------------------------
# parsing
#
# _MONOMIAL, _HEAD and _CLOSE are matched at one position each and consume
# their own leading whitespace; _ITEM then reads the values out of a matched
# monomial.  A sign, '/', '^', '*' or '(' stands between any two \s* that
# one match can reach, so no two of them can split one whitespace run: a
# failed match backtracks over each run once, and a parse is linear in the
# length of the text (Python 3.10 has no possessive quantifiers to say so).

_RATIONAL = r"(\d+)(?:\s*/\s*(\d+))?"
_FACTOR = r"([A-Za-z_][A-Za-z_0-9]*)(?:\s*\^\s*(\d+))?"
_ITEM = re.compile(f"{_RATIONAL}|{_FACTOR}")
_MONOMIAL = re.compile(
    rf"\s*(?:(?P<sign>[+-])\s*)?(?P<body>(?:{_RATIONAL}\s*\*\s*)?{_FACTOR}"
    rf"(?:\s*\*\s*(?:{_FACTOR}|{_RATIONAL}))*|{_RATIONAL})?"
)
_HEAD = re.compile(rf"\s*(-\s*)?{_RATIONAL}\s*\*\s*\(")
_CLOSE = re.compile(r"\s*\)\s*(\+)?")


def _error(text: str, pos: int, expected: str) -> InputError:
    at = len(text) - len(text[pos:].lstrip())
    found = repr(text[at]) if at < len(text) else "end of input"
    return InputError(f"syntax error at position {at}: expected {expected}, found {found}")


def _integer(m: re.Match, group: int) -> int:
    try:
        return int(m.group(group))
    except ValueError as exc:  # more digits than int() converts from text
        raise InputError(f"number at position {m.start(group)} is too long: {exc}") from None


def _rational(m: re.Match, group: int) -> "tuple[int, int]":
    """Numerator and denominator of a match of _RATIONAL whose numerator is
    ``group``."""
    den = 1 if m.group(group + 1) is None else _integer(m, group + 1)
    if den == 0:
        raise InputError(f"syntax error at position {m.start(group + 1)}: zero denominator")
    return _integer(m, group), den


def _scan_poly(text: str, pos: int) -> "tuple[Poly, int]":
    """The polynomial at ``pos`` and where it stops: at the end of the text,
    or before the first thing after a monomial that is not a sign.  Each
    coefficient is summed as an ``int`` numerator and denominator, and one
    ``Fraction`` is built per stored term."""
    terms: dict[Exponent, tuple[int, int]] = {}
    first = True
    while True:
        m = _MONOMIAL.match(text, pos)
        if not first and m["sign"] is None:
            return Poly({e: Fraction(*c) for e, c in terms.items() if c[0]}), pos
        if m["body"] is None:
            raise _error(text, m.end(), "a monomial")
        num, den, exp = -1 if m["sign"] == "-" else 1, 1, [0, 0]
        for item in _ITEM.finditer(text, m.start("body"), m.end("body")):
            if item[3] is None:
                n, d = _rational(item, 1)
                num, den = num * n, den * d
            elif item[3] not in ("x", "y"):
                raise InputError(f"syntax error at position {item.start(3)}: "
                                 f"unknown variable {item[3]!r} (use x and y)")
            else:
                power = 1 if item[4] is None else _integer(item, 4)
                if power < 1:
                    raise InputError(f"syntax error at position {item.start(4)}: "
                                     "exponent must be a positive integer")
                exp["xy".index(item[3])] += power
        key = tuple(exp)
        if key in terms:
            n, d = terms[key]
            num, den = (n + num, d) if d == den else (n * den + num * d, d * den)
        terms[key] = num, den
        pos, first = m.end(), False


def parse_poly(text: str) -> Poly:
    """Parse a polynomial in x and y with exact rational coefficients."""
    if not isinstance(text, str):
        raise InputError(f"expected polynomial text, got {type(text).__name__}")
    p, pos = _scan_poly(text, 0)
    if text[pos:].strip():
        raise _error(text, pos, "'+', '-' or end of input")
    return p


def parse_weighted_terms(text: str) -> list[tuple[Fraction, Poly]]:
    """Parse ``rational*(poly) + rational*(poly) + ...`` into (coeff, poly)
    pairs, order preserved."""
    if not isinstance(text, str):
        raise InputError(f"expected divisor text, got {type(text).__name__}")
    out: list[tuple[Fraction, Poly]] = []
    pos = 0
    while True:
        head = _HEAD.match(text, pos)
        if head is None:
            raise _error(text, pos, "a coefficient and '*('")
        num, den = _rational(head, 2)
        coeff = Fraction(-num if head[1] else num, den)
        p, pos = _scan_poly(text, head.end())
        close = _CLOSE.match(text, pos)
        if close is None:
            raise _error(text, pos, "')'")
        out.append((coeff, p))
        pos = close.end()
        if close[1] is None:
            if pos < len(text):
                raise _error(text, pos, "'+' or end of input")
            return out


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
