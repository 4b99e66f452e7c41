"""Exact scalars: rational numbers plus two symbolic infinities.

All numeric quantities in this package are ``fractions.Fraction`` values;
no floating point is used anywhere.  The infinities are symbolic sentinels,
not numeric values: they support ordering against rationals but deliberately
define no arithmetic.  The single sanctioned mixed operation is
``extended_inner`` below, which evaluates an inner product under the
convention +inf * 0 = 0 (needed when a weight coordinate is infinite).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import InputError


class _Infinite:
    """Symbolic +inf / -inf.  Compares with rationals, no arithmetic."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int) -> None:
        self._sign = sign

    @property
    def sign(self) -> int:
        return self._sign

    def __repr__(self) -> str:
        return "+inf" if self._sign > 0 else "-inf"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinite) and other._sign == self._sign

    def __hash__(self) -> int:
        return hash(("germ-infinity", self._sign))

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Infinite):
            return self._sign < other._sign
        return self._sign < 0

    def __le__(self, other: object) -> bool:
        return self == other or self < other

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _Infinite):
            return self._sign > other._sign
        return self._sign > 0

    def __ge__(self, other: object) -> bool:
        return self == other or self > other


POS_INF = _Infinite(1)
NEG_INF = _Infinite(-1)

#: A rational number or one of the two symbolic infinities.
Extended = Union[Fraction, _Infinite]


def is_infinite(value: object) -> bool:
    return isinstance(value, _Infinite)


def as_fraction(value: object) -> Fraction:
    """Coerce ints / strings like ``"3/4"`` to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {value!r}") from exc
    raise InputError(f"cannot interpret {value!r} as a rational number")


def extended_inner(w1: Extended, w2: Extended, x: Fraction, y: Fraction) -> Extended:
    """<(w1, w2), (x, y)> under the convention +inf * 0 = 0.

    Exactly one weight coordinate may be infinite; coordinates of the point
    must be finite and non-negative.
    """
    if is_infinite(w1) and is_infinite(w2):
        raise InputError("weight cannot be infinite in both coordinates")
    total = Fraction(0)
    for w, c in ((w1, x), (w2, y)):
        if is_infinite(w):
            if w is not POS_INF:
                raise InputError("only +inf weights are meaningful")
            if c == 0:
                continue
            return POS_INF
        total += w * c
    return total

