"""Exact scalars: rational numbers and one symbolic -inf.

All numeric results in this package are ``fractions.Fraction`` values;
no floating point is used anywhere.  The only other value is ``NEG_INF``,
the minimal log discrepancy of a pair that is not log canonical: a
sentinel that orders below every rational and defines no arithmetic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import total_ordering
from typing import Union

from .errors import InputError


@total_ordering
class _NegInf:
    """Symbolic -inf: below every rational, equal only to itself."""

    def __repr__(self) -> str:
        return "-inf"

    def __lt__(self, other: object) -> bool:
        return other is not self


NEG_INF = _NegInf()

#: A rational number or ``NEG_INF``.
Extended = Union[Fraction, _NegInf]


#: A signed integer, ``p/q`` or a plain decimal, in groups.  Exponent notation
#: is left out: ``"1e-1000000"`` is ten characters but a million-digit number.
_RATIONAL_TEXT = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")


def as_fraction(value: object) -> Fraction:
    """Coerce ints / strings like ``"3/4"`` to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        m = _RATIONAL_TEXT.fullmatch(value.strip())
        if m is not None:
            sign, whole, den, decimals = m.groups()
            scale = 10 ** len(decimals or "")
            try:
                p, q = int(whole or 0) * scale + int(decimals or 0), int(den or 1) * scale
            except ValueError as exc:  # more digits than int() converts from text
                raise InputError(f"rational number too long: {exc}") from None
            if q:
                return Fraction(-p if sign == "-" else p, q)
        raise InputError(
            f"not a rational number: {value!r} (use an integer, p/q or a plain decimal)"
        )
    raise InputError(f"cannot interpret {value!r} as a rational number")
