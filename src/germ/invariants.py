"""Singularity invariants of divisor germs via their Newton data.

Everything is read off B's valuation table, ``germs.NewtonDiagram``, built
once per analysis with exact ``int`` arithmetic: den, the weighted branch
polygons, the face normals, one discrepancy form per normal-fan cone and
each ray's value.  So the mld scan takes integer dot products, den times
each log discrepancy; the lct, its cap and the checker's hypotheses
compare ``int`` cross-products, and each builds a ``Fraction`` only for a
returned value:

* log discrepancies of monomial valuations (weighted blow-ups), read off
  B's terms by their definition, with no table,
* the minimal log discrepancy over all positive integer weights: -inf at a
  negative ray value of the table, with no sail walk, else the least value
  at the Klein-sail run endpoints of the normal-fan cones, O(log det) each,
* the log canonical threshold of a smooth curve through the origin, as the
  smallest discrepancy/contact ratio over a complete finite candidate set
  of weights, capped by the curve's own coefficient room: the table's rays
  and C's face normal, with C's contacts in closed form
  (``SmoothCurveGerm``); lc-ness is read off the ray values,
* the explicit fibration bound delta(eps) = sup_n (eps - 1/n)/(n - 1), in
  closed form,
* the surface-theorem checker, which builds the table, the mld scan, the
  contact of B with C and B's nondegeneracy once, and passes only exact
  thresholds (hypothesis "B + lct*C newton nondegenerate").  That
  exactness is read off numbers the analysis holds, with no second
  nondegeneracy test: B + lct*C is nondegenerate iff B is and, when lct > 0
  and C has a face normal n, (B' . C), B' the C-free part of B, is <n, B>.

The mld and lct values are upper bounds for the true birational invariants
in general; they are exact on Newton-nondegenerate inputs, which callers
can certify through the ``exact`` flag / nondegeneracy report.

Every numeric result is a ``fractions.Fraction``; no floating point is
used anywhere.  The only other value is ``NEG_INF``, the minimal log
discrepancy of a pair that is not log canonical: a sentinel that orders
below every rational and defines no arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import NamedTuple, Union

from .errors import DomainError, GermError, InputError
from .exactgeom import IntVec, Run, _hilbert_runs, as_pair, make_weight
from .germs import (
    DivisorGerm,
    NewtonDiagram,
    SmoothCurveGerm,
    _contact,
    _nondegeneracy,
    _weights,
    newton_polytope,
)

__all__ = [
    "MldResult",
    "LctResult",
    "BoundResult",
    "SurfaceTheoremReport",
    "toric_log_discrepancy",
    "mld_toric",
    "lct_toric",
    "verify_surface_theorem",
    "delta_bound",
]


# ---------------------------------------------------------------------------
# log discrepancies


def toric_log_discrepancy(b: DivisorGerm, w: "tuple[int, int]") -> Fraction:
    """a(E_w, X, B) = w1 + w2 - sum of coeff_i * min <w, e> over the
    exponents e of branch i, for a primitive positive integer weight w,
    read off B's terms by that definition in ``int`` over den, with no
    polygon or valuation table."""
    weights, den = _weights(b)
    w1, w2 = make_weight(*as_pair(w))
    low = sum(n * min(w1 * i + w2 * j for i, j in p.terms) for n, p in zip(weights, b.branches))
    return Fraction((w1 + w2) * den - low, den)


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


class MldResult(NamedTuple):
    """Infimum of toric log discrepancies over positive integer weights.

    ``witness`` is a primitive positive pair (w1, w2) attaining the value
    when ``attained`` is true.  For value -inf it certifies a negative
    discrepancy: B's first face normal in fan order with one, else a
    negative axis, (1, 0) first, pushed into the quadrant.  ``axis_values``,
    the discrepancies at (1,0) and (0,1), are excluded from the infimum
    (their centers are curves, not the origin) and reported for diagnostics.
    """

    value: Extended
    witness: IntVec
    attained: bool
    axis_values: "tuple[Fraction, Fraction]"


def mld_toric(b: DivisorGerm) -> MldResult:
    """Minimize w1 + w2 - <w, Newton diagram> over positive integer pairs.

    The objective is linear on each normal-fan cone, so it is -inf exactly
    when a ray of the fan is negative, read off B's valuation table with
    no sail walk.  Else its minimum over each cone's Hilbert basis lies at
    an endpoint of a Klein-sail run: the scan minimizes over the positive
    run endpoints (plus (1,1) when the fan is the whole quadrant), O(log
    det) per cone.
    """
    return _mld(newton_polytope(b))


def _mld(p: NewtonDiagram) -> MldResult:
    """-inf at the first negative ray value of B's table ``p`` (see
    ``NewtonDiagram``), face normals first, else the first positive basis
    element, in fan order, of least discrepancy.  A run's positive points
    are all but an axis endpoint, since the axes are the outer rays of the
    fan.  Along a run den times the discrepancy is g0 + j*rate, least at the
    first positive point when rate >= 0 and at the last when rate < 0."""
    den, rays = p.den, p.rays
    axis_values = (Fraction(rays[(1, 0)], den), Fraction(rays[(0, 1)], den))
    if min(rays.values()) < 0:
        ray = next(r for r in p.normals + [(1, 0), (0, 1)] if rays[r] < 0)
        witness = ray if _is_positive(ray) else _positive_negative_witness(p, ray)
        return MldResult(NEG_INF, make_weight(*witness), False, axis_values)
    best = None
    for u, v, a, b in p.cones:
        runs = _hilbert_runs(u, v)
        if len(p.cones) == 1:
            runs.append(Run((1, 1), (0, 0), 0))  # no positive basis element in this fan
        for (s1, s2), (t1, t2), count in runs:
            e1, e2 = s1 + count * t1, s2 + count * t2
            lo = 0 if s1 and s2 else 1  # a run's points lie in the closed quadrant
            hi = count if e1 and e2 else count - 1
            if lo <= hi:
                rate = a * t1 + b * t2  # 0 on a run of count 0, whose step is (0, 0)
                j = lo if rate >= 0 else hi
                value = a * s1 + b * s2 + j * rate
                if best is None or value < best:
                    best, witness = value, (s1 + j * t1, s2 + j * t2)
    # the fan always has a positive candidate: a face normal or (1, 1)
    return MldResult(Fraction(best, den), make_weight(*witness), True, axis_values)


def _is_positive(v: IntVec) -> bool:
    return v[0] >= 1 and v[1] >= 1


def _positive_negative_witness(p: NewtonDiagram, axis: IntVec) -> IntVec:
    """Positive weight with negative discrepancy: the other ray of the cone
    of the negative ``axis``, or (1, 1) in a one-cone fan, pushed along the
    axis.  The cone's form g is linear and g(axis) < 0, so partner + k*axis
    is negative for every k > g(partner) / -g(axis); the push takes the
    least such k >= 1, since g(1, 1) may itself be negative."""
    i = 0 if axis == (1, 0) else -1
    _, _, a, b = p.cones[i]
    partner = p.normals[i] if p.normals else (1, 1)
    steps = max(1, (a * partner[0] + b * partner[1]) // -p.rays[axis] + 1)
    p0 = (partner[0] + steps * axis[0], partner[1] + steps * axis[1])
    d = gcd(*p0)
    w = (p0[0] // d, p0[1] // d)
    if a * w[0] + b * w[1] >= 0 or not _is_positive(w):
        raise GermError(f"weight {w} does not certify a negative discrepancy")
    return w


# ---------------------------------------------------------------------------
# log canonical thresholds


class LctResult(NamedTuple):
    """Threshold of a smooth curve against a divisor germ.

    ``membership_sup`` is the largest t keeping (1,1) inside the Newton
    polytope of B + tC; ``coefficient_cap`` is 1 - mult_C B, the room left
    on the curve's own coefficient; ``value`` is their minimum.  ``exact``
    certifies the value equals the true threshold: B + value*C is Newton
    nondegenerate in these coordinates, i.e. B is and, when value > 0 and C
    has a face normal n, (B' . C) = <n, B>, B' the C-free part of B.
    ``witness_weight`` is the weight realizing the membership bound, or
    "cap" when the cap is strictly smaller.
    """

    membership_sup: Fraction
    coefficient_cap: Fraction
    value: Fraction
    witness_weight: "IntVec | str"
    exact: bool


def lct_toric(b: DivisorGerm, c: SmoothCurveGerm) -> LctResult:
    """The log canonical threshold of the smooth curve C against B.

    B must have every coefficient at most one, else ``DomainError``
    "coefficient above one".  Then (X, B) must be lc at the origin.  No
    negative ray value of B's valuation table is necessary for that, and
    sufficient only when B is Newton-nondegenerate (see ``NewtonDiagram``);
    on a degenerate B that is not lc the value bounds nothing.  A negative
    value, or C itself carrying a coefficient mult_C B above one in B,
    raises ``DomainError`` "pair not lc before adding C", in that order.  The threshold is the least
    discrepancy/contact ratio over the table's rays and C's face normal,
    capped by 1 - mult_C B, the room left on C's own coefficient (see
    ``LctResult``).  C's normal and contacts are ``SmoothCurveGerm.normals``
    and ``contact``; when C is an axis, mult_C B and the contact are read
    off the branches' exponents.
    """
    pb = newton_polytope(b)
    if max(pb.weights) > pb.den:
        raise DomainError("coefficient above one")
    if min(pb.rays.values()) < 0:
        raise DomainError("pair not lc before adding C")
    mult, inter = _contact(b.branches, pb.weights, c)
    if mult > pb.den:  # C has coefficient above one in B
        raise DomainError("pair not lc before adding C")
    return _lct(c, pb, mult, inter, _nondegeneracy(b.branches, pb.polygons).nondegenerate)


def _lct(c: SmoothCurveGerm, pb: NewtonDiagram, mult: int, inter: int,
         nondegenerate: bool) -> LctResult:
    """Threshold of an lc pair with coefficients at most one, given B's
    valuation table ``pb`` (see ``NewtonDiagram``), pb.den times mult_C B
    and (B' . C), and whether B is nondegenerate.  Only a normal of C's
    that is not a ray of B's table needs a discrepancy of its own, read off
    the form of the table's cone that holds it (``lattice_min``).  The
    ratios disc/(pb.den * contact) and the cap are cross-multiplied.
    B + value*C is nondegenerate iff B is and, when value > 0 and C has a
    normal n, den*(B' . C) is den*<n, B> = (n1 + n2)*den - disc(n)."""
    rays = pb.rays
    candidates = {**rays, **{  # keyed in tie-break order, C's normal last
        n: (n[0] + n[1]) * pb.den - pb.lattice_min(n) for n in c.normals if n not in rays}}
    best: "tuple[int, int, IntVec] | None" = None  # the least ratio, first in order
    for w, disc in candidates.items():
        contact = c.contact(w)
        if contact == 0:
            continue
        if best is None or disc * best[1] < best[0] * contact:
            best = (disc, contact, w)
    # never None: C passes through the origin, so an axis weight or the
    # normal of C's compact face has positive contact with C
    disc, contact, best_w = best
    room = pb.den - mult  # pb.den times the cap
    membership, cap = Fraction(disc, pb.den * contact), Fraction(room, pb.den)
    value, witness = (membership, best_w) if disc <= room * contact else (cap, "cap")
    # C is smooth: its polygon has at most one compact face, with normal n,
    # whose form is linear in C's frame x, so along every other normal C's
    # form is one term and B + value*C passes iff B does.  Along n a
    # branch's form shares a factor with C's iff it vanishes at C's one
    # root, psi's leading term, iff the branch meets C in more than
    # <n, branch>: the contact walk decides that group.  On a nondegenerate
    # B a branch on C is C*q, q's form not 0 at the root as the branch's is
    # squarefree, so it adds (q . C) = <n, branch> - <n, C> to inter, and
    # no other form is 0 there.  So inter is below den*<n, B> when a branch
    # lies on C, above it when one meets C past <n, branch>, and equal iff
    # neither, as always when n is not B's.  The coefficients do not enter
    # the test.
    exact = nondegenerate and (value.numerator == 0 or all(
        inter == (n1 + n2) * pb.den - candidates[n1, n2] for n1, n2 in c.normals))
    return LctResult(membership, cap, value, witness, exact)


# ---------------------------------------------------------------------------
# the explicit bound delta(eps)


class BoundResult(NamedTuple):
    epsilon: Fraction
    delta: Fraction
    witness_n: int


#: The characters of an epsilon text that ``Fraction`` reads: it also takes
#: ``_``, inner whitespace, Unicode digits and exponents, whose ``"1e-1000000"``
#: is ten characters but a million-digit number.
_RATIONAL_CHARS = frozenset("0123456789+-/.")


def _epsilon(value: object) -> Fraction:
    """``value`` as a Fraction: an ``int`` (not a ``bool``), a ``Fraction``,
    or text that is an integer, p/q or a plain decimal."""
    if type(value) is int or isinstance(value, Fraction):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(f"cannot interpret {value!r} as a rational number")
    text = value.strip()
    try:
        if _RATIONAL_CHARS.issuperset(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):  # also more digits than int() reads
        pass
    raise InputError(f"not a rational number: {value!r} (use an integer, p/q or a plain decimal)")


def delta_bound(epsilon: object) -> BoundResult:
    """Exact supremum of h(n) = (eps - 1/n)/(n - 1) over integers n >= 2.

    Epsilon is a positive ``int`` (not a ``bool``), ``Fraction``, or text
    that is an integer, p/q or a plain decimal, such as ``"3/4"`` or
    ``"0.75"``; anything else raises ``InputError``.

    On x > 1, h(x) = (eps*x - 1)/(x(x - 1)) has derivative of the sign of
    -eps*x^2 + 2x - 1.  For eps >= 1 that is negative, so n = 2 wins.  For
    eps < 1, h rises up to x* = (1 + sqrt(1 - eps))/eps and falls after it,
    so the maximum over n >= 2 is at n0 = max(2, floor(x*)) or n0 + 1.
    With eps = p/q, x* = (q + sqrt(q(q - p)))/p, and since p is a
    positive integer, floor(x*) = (q + isqrt(q(q - p))) // p exactly.  Ties
    go to the smallest n.
    """
    eps = _epsilon(epsilon)
    p, q = eps.numerator, eps.denominator
    if p <= 0:
        raise InputError("epsilon must be positive")
    n = 2 if p >= q else max(2, (q + math.isqrt(q * (q - p))) // p)
    # h(n) = (p*n - q)/(q*n*(n - 1)), so h(n + 1) > h(n) iff
    # (p*(n + 1) - q)*(n - 1) > (p*n - q)*(n + 1), with q*n*(n - 1)*(n + 1) > 0
    if (p * (n + 1) - q) * (n - 1) > (p * n - q) * (n + 1):
        n += 1
    return BoundResult(eps, Fraction(p * n - q, q * n * (n - 1)), n)


# ---------------------------------------------------------------------------
# the surface theorem checker


class SurfaceTheoremReport(NamedTuple):
    """Hypotheses, intermediates and verdict of the lct lower-bound check.

    The hypotheses: the germ is epsilon-lc, the curve's multiplicity inside
    B is at most 1 - epsilon, the C-free part meets the curve with local
    intersection at most 2, and B and B + lct*C are Newton-nondegenerate,
    which makes the toric lct exact.  Epsilon-lc means a(D, X, B) >= eps
    for every prime divisor D over X, divisors on X included, as in the
    Shokurov-Birkar literature.  Under nondegeneracy the components of B
    through the origin are the axes and the branches, so it means "mld >=
    epsilon", "axis values >= epsilon" and "coefficients <= 1 - epsilon";
    coefficients are positive, so no germ is 1-lc.  When they all hold,
    the threshold must be at least the exact delta(eps) = sup_{n >= 2}
    (eps - 1/n)/(n - 1) of :func:`delta_bound`; a failed hypothesis makes
    the check inapplicable rather than failed, and is named in
    ``failed_hypotheses``.  So the checker passes only exact thresholds;
    an inexact ``lct`` is kept to explain a failed "B + lct*C newton
    nondegenerate".
    """

    epsilon: Fraction
    mld: MldResult
    mult: Fraction
    reduced_intersection: Fraction
    nondegenerate: bool
    failed_hypotheses: "tuple[str, ...]"
    applicable: bool
    bound: Fraction
    bound_witness_n: int
    lct: "LctResult | None"
    passed: "bool | None"


def verify_surface_theorem(
    b: DivisorGerm,
    c: SmoothCurveGerm,
    epsilon: object,
) -> SurfaceTheoremReport:
    """The surface theorem's check on B and C; passes only exact thresholds.
    Epsilon takes the forms that ``delta_bound`` reads: a positive ``int``
    (not a ``bool``), ``Fraction``, or text that is an integer, p/q or a
    plain decimal."""
    bound = delta_bound(epsilon)
    eps = bound.epsilon
    pb = newton_polytope(b)
    mld = _mld(pb)
    branches = b.branches
    mult, inter = _contact(branches, pb.weights, c)  # over pb.den

    failed = []
    if mld.value < eps:
        failed.append("mld >= epsilon")
    if min(pb.rays[(1, 0)], pb.rays[(0, 1)]) * eps.denominator < eps.numerator * pb.den:
        failed.append("axis values >= epsilon")
    if mult * eps.denominator > (eps.denominator - eps.numerator) * pb.den:
        failed.append("mult_C B <= 1 - epsilon")
    if inter > 2 * pb.den:
        failed.append("(B' . C) <= 2")
    if max(pb.weights) * eps.denominator > (eps.denominator - eps.numerator) * pb.den:
        failed.append("coefficients <= 1 - epsilon")
    nondeg = _nondegeneracy(branches, pb.polygons).nondegenerate
    if not nondeg:
        failed.append("newton nondegeneracy")
    lct = _lct(c, pb, mult, inter, nondeg) if not failed else None
    # an inexact value is only an upper bound of the threshold: it checks nothing
    if lct is not None and not lct.exact:
        failed.append("B + lct*C newton nondegenerate")

    passed = lct.value >= bound.delta if not failed else None
    return SurfaceTheoremReport(
        eps,
        mld,
        Fraction(mult, pb.den),
        Fraction(inter, pb.den),
        nondeg,
        tuple(failed),
        not failed,
        bound.delta,
        bound.witness_n,
        lct,
        passed,
    )
