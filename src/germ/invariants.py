"""Singularity invariants of divisor germs via their Newton data.

Everything is computed from the vertex chain of the Newton polytope with
exact arithmetic.  The chain is integer lattice points over one
denominator (see ``exactgeom``), so the mld scan compares and divides
integers, den times each log discrepancy, and the lct compares its few
candidate ratios by ``int`` cross-multiplication; each builds a
``Fraction`` only for a returned value:

* log discrepancies of monomial valuations (weighted blow-ups),
* the minimal log discrepancy over all positive integer weights, found by
  minimizing the discrepancy linear form over the endpoints of the
  Klein-sail runs of the normal-fan cones, O(log det) per cone,
* the log canonical threshold of a smooth curve through the origin, as the
  smallest discrepancy/contact ratio over a complete finite candidate set
  of weights, capped by the curve's own coefficient room,
* the explicit fibration bound delta(eps) = sup_n (eps - 1/n)/(n - 1), in
  closed form,
* the surface-theorem checker, which builds the Newton polytope and its
  face normals, the mld scan, the contact of B with C and B's
  nondegeneracy once, and passes only exact thresholds (hypothesis
  "B + lct*C newton nondegenerate").

The mld and lct values are upper bounds for the true birational invariants
in general; they are exact on Newton-nondegenerate inputs, which callers
can certify through the ``exact`` flag / nondegeneracy report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, GermError, InputError
from .exactgeom import (
    Cone2,
    IntVec,
    NewtonPolytope,
    Run,
    Weight,
    as_pair,
    face_normals,
    hilbert_runs,
    make_weight,
)
from .germs import (
    DivisorGerm,
    SmoothCurveGerm,
    _nondegeneracy,
    contact_along_curve,
    newton_polytope,
    newton_polytope_of_poly,
)
from .polys import Poly
from .scalars import Extended, NEG_INF, as_fraction

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


def _discrepancy(p: NewtonPolytope, v: IntVec) -> int:
    """The log discrepancy v1 + v2 - min over the vertices of <v, vertex>
    of the weight v, times the polytope's denominator: an integer form,
    linear on each normal-fan cone."""
    return (v[0] + v[1]) * p.den - p.lattice_min(v)


def toric_log_discrepancy(b: DivisorGerm, w: "tuple[int, int]") -> Fraction:
    """a(E_w, X, B) = w1 + w2 - <w, Newton diagram of B> for a primitive
    positive integer weight w."""
    p = newton_polytope(b)
    return Fraction(_discrepancy(p, make_weight(*as_pair(w))), p.den)


@dataclass(frozen=True)
class MldResult:
    """Infimum of toric log discrepancies over positive integer weights.

    ``witness`` attains the value when ``attained`` is true; for value
    -inf it is a weight certifying a negative discrepancy.  ``axis_values``
    are the discrepancies of the two axis directions (1,0), (0,1), which
    are excluded from the infimum (their centers are curves, not the
    origin) and reported for diagnostics only.
    """

    value: Extended
    witness: Weight
    attained: bool
    axis_values: "tuple[Fraction, Fraction]"


def _normal_fan_cones(normals: "list[IntVec]") -> "list[Cone2]":
    """Maximal cones of the normal fan inside the first quadrant of a
    polytope whose face normals are ``normals``, left to right; the
    discrepancy form is linear on each."""
    rays: list[IntVec] = [(1, 0)] + normals + [(0, 1)]  # primitive already
    return [Cone2(a, b) for a, b in zip(rays, rays[1:])]


def mld_toric(b: DivisorGerm) -> MldResult:
    """Minimize w1 + w2 - <w, Newton diagram> over positive integer pairs.

    On each normal-fan cone the objective is linear, so its minimum over
    the cone's Hilbert basis lies at an endpoint of a Klein-sail run: the
    scan minimizes over run endpoints, O(log det) per cone.  Axis basis
    vectors are not admissible minimizers themselves; a positive point
    built from one witnesses value -inf when its rate is negative, and the
    remaining positive candidates (plus (1,1) when the fan is the whole
    quadrant) realize the infimum.
    """
    if b.is_empty:
        raise InputError("empty divisor")
    p = newton_polytope(b)
    return _mld(p, face_normals(p))


def _mld(p: NewtonPolytope, normals: "list[IntVec]") -> MldResult:
    """The first basis element, in fan order, with a negative discrepancy,
    else the first positive one attaining the least discrepancy, on the
    polytope ``p`` with face normals ``normals``.

    Along a run the discrepancy is g0 + j*rate.  Its first negative point
    is j = 0 when g0 < 0, else j = g0 // -rate + 1 if that is a point of
    the run; its least positive point is the first one when rate >= 0 and
    the last one when rate < 0.  All of this is den times the discrepancy,
    in integers: the scale changes no sign, floor or comparison.
    """
    def g(v: IntVec) -> int:
        return _discrepancy(p, v)

    den = p.den
    axis_values = (Fraction(g((1, 0)), den), Fraction(g((0, 1)), den))
    best: "tuple[int, IntVec] | None" = None
    for sector in _normal_fan_cones(normals):
        runs = hilbert_runs(sector)
        if sector.g1 == (1, 0) and sector.g2 == (0, 1):
            runs.append(Run((1, 1), (0, 0), 0))  # no positive basis element in this fan
        for run in runs:
            g0 = g(run.start)
            rate = g(run.point(1)) - g0  # 0 on a run of count 0, whose step is (0, 0)
            negative = 0 if g0 < 0 else (g0 // -rate + 1 if rate < 0 else run.count + 1)
            if negative <= run.count:
                h = run.point(negative)
                witness = h if _is_positive(h) else _positive_negative_witness(g, h, runs)
                return MldResult(NEG_INF, make_weight(*witness), False, axis_values)
            js = _positive_points(run)
            if js:
                j = js[0] if rate >= 0 else js[-1]
                if best is None or g0 + j * rate < best[0]:
                    best = (g0 + j * rate, run.point(j))
    # the fan always has a positive candidate: a face normal or (1, 1)
    return MldResult(Fraction(best[0], den), make_weight(*best[1]), True, axis_values)


def _is_positive(v: IntVec) -> bool:
    return v[0] >= 1 and v[1] >= 1


def _positive_points(run: Run) -> range:
    """The j with run.point(j) positive: all but an axis endpoint, since
    the axes are the outer rays of the fan."""
    lo = 0 if _is_positive(run.start) else 1
    hi = run.count if _is_positive(run.point(run.count)) else run.count - 1
    return range(lo, hi + 1)


def _positive_negative_witness(g, axis: IntVec, runs: "list[Run]") -> IntVec:
    """Positive weight with negative discrepancy, built by pushing the
    first positive point of the sector far in the negative axis direction."""
    partner = next(r.point(js[0]) for r in runs if (js := _positive_points(r)))
    p0 = (axis[0] + partner[0], axis[1] + partner[1])
    if g(p0) >= 0:
        rate = g((p0[0] + axis[0], p0[1] + axis[1])) - g(p0)
        if rate >= 0:
            raise GermError(f"axis direction {axis} does not lower the discrepancy")
        steps = g(p0) // -rate + 1
        p0 = (p0[0] + steps * axis[0], p0[1] + steps * axis[1])
    d = gcd(p0[0], p0[1])
    w = (p0[0] // d, p0[1] // d)
    if g(w) >= 0 or not _is_positive(w):
        raise GermError(f"weight {w} does not certify a negative discrepancy")
    return w


# ---------------------------------------------------------------------------
# log canonical thresholds


@dataclass(frozen=True)
class LctResult:
    """Threshold of a smooth curve against a divisor germ.

    ``membership_sup`` is the largest t keeping (1,1) inside the Newton
    polytope of B + tC; ``coefficient_cap`` is 1 - mult_C B, the room left
    on the curve's own coefficient; ``value`` is their minimum.  ``exact``
    certifies the value equals the true threshold (Newton nondegeneracy of
    B + value*C in these coordinates).  ``witness_weight`` is the weight
    realizing the membership bound, or "cap" when the cap is strictly
    smaller.
    """

    membership_sup: Fraction
    coefficient_cap: Fraction
    value: Fraction
    witness_weight: "IntVec | str"
    exact: bool


def lct_toric(b: DivisorGerm, c: SmoothCurveGerm) -> LctResult:
    if b.is_empty:
        raise InputError("empty divisor")
    if b.max_coefficient() > 1:
        raise DomainError("coefficient above one")
    pb = newton_polytope(b)
    normals = face_normals(pb)
    mld = _mld(pb, normals)
    if mld.value < 0:  # NEG_INF orders below every rational
        raise DomainError("pair not lc before adding C")
    mult, _ = contact_along_curve(b, c)
    branches = b.branches
    return _lct(branches, c, pb, normals, mult, _nondegeneracy(branches, normals).nondegenerate)


def _lct(branches: "list[Poly]", c: SmoothCurveGerm, pb: NewtonPolytope,
         normals: "list[IntVec]", mult: Fraction, nondegenerate: bool) -> LctResult:
    """Threshold of an lc pair with coefficients at most one, given B's
    branch polynomials, its Newton polytope ``pb`` and that polytope's face
    ``normals``, mult_C B and whether B is nondegenerate.  The candidate
    ratios disc/(pb.den * contact) are compared by cross-multiplication."""
    pc = newton_polytope_of_poly(c.poly)
    c_normals = face_normals(pc)
    best: "tuple[int, int, IntVec] | None" = None  # the least ratio, first in order
    for w in [(1, 0), (0, 1)] + normals + c_normals:
        contact = pc.lattice_min(w)  # pc.den is 1: C's exponents are integers
        if contact == 0:
            continue
        disc = _discrepancy(pb, w)
        if best is None or disc * best[1] < best[0] * contact:
            best = (disc, contact, w)
    # never None: C passes through the origin, so an axis weight or the
    # normal of C's compact face has positive contact with C
    disc, contact, best_w = best
    membership = Fraction(disc, pb.den * contact)
    cap = 1 - mult
    value = min(membership, cap)
    witness: IntVec | str = best_w if membership <= cap else "cap"
    # C is smooth: its polygon has at most one compact face, whose form is
    # linear, so along every other normal C's form is one term and B + value*C
    # passes iff B does.  Along a normal of C's that is not B's, every form of
    # B is one term, and C's binomial passes.  So B + value*C is nondegenerate
    # iff B is and, when value > 0, it passes along the normals B and C share;
    # its coefficients do not enter the test.
    shared = [n for n in c_normals if n in normals] if value > 0 else []
    exact = nondegenerate and (
        not shared or _nondegeneracy(branches + [c.poly], shared).nondegenerate)
    return LctResult(membership, cap, value, witness, exact)


# ---------------------------------------------------------------------------
# the explicit bound delta(eps)


@dataclass(frozen=True)
class BoundResult:
    epsilon: Fraction
    delta: Fraction
    witness_n: int


def delta_bound(epsilon: object) -> BoundResult:
    """Exact supremum of h(n) = (eps - 1/n)/(n - 1) over integers n >= 2.

    On x > 1, h(x) = (eps*x - 1)/(x(x - 1)) has derivative of the sign of
    -eps*x^2 + 2x - 1.  For eps >= 1 that is negative, so n = 2 wins.  For
    eps < 1, h rises up to x* = (1 + sqrt(1 - eps))/eps and falls after it,
    so the maximum over n >= 2 is at n0 = max(2, floor(x*)) or n0 + 1.
    With eps = p/q, x* = (q + sqrt(q(q - p)))/p, and since p is a
    positive integer, floor(x*) = (q + isqrt(q(q - p))) // p exactly.  Ties
    go to the smallest n.
    """
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    p, q = eps.numerator, eps.denominator
    n = 2 if p >= q else max(2, (q + math.isqrt(q * (q - p))) // p)
    # h(n) = (p*n - q)/(q*n*(n - 1)), so h(n + 1) > h(n) iff
    # (p*(n + 1) - q)*(n - 1) > (p*n - q)*(n + 1), with q*n*(n - 1)*(n + 1) > 0
    if (p * (n + 1) - q) * (n - 1) > (p * n - q) * (n + 1):
        n += 1
    return BoundResult(eps, Fraction(p * n - q, q * n * (n - 1)), n)


# ---------------------------------------------------------------------------
# the surface theorem checker


@dataclass(frozen=True)
class SurfaceTheoremReport:
    """Hypotheses, intermediates and verdict of the lct lower-bound check.

    The hypotheses: the germ is epsilon-lc, the curve's multiplicity inside
    B is at most 1 - epsilon, the C-free part meets the curve with local
    intersection at most 2, every coefficient of B is at most 1, and B and
    B + lct*C are Newton-nondegenerate, which makes the toric lct exact.
    When they all hold, the threshold must be at least the exact
    delta(eps) = sup_{n >= 2} (eps - 1/n)/(n - 1) of :func:`delta_bound`;
    a failed hypothesis makes the check inapplicable rather than failed,
    and is named in ``failed_hypotheses``.  So the checker passes only
    exact thresholds; an inexact ``lct`` is kept to explain a failed
    "B + lct*C newton nondegenerate".
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
    """The surface theorem's check on B and C; passes only exact thresholds."""
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    pb = newton_polytope(b)
    normals = face_normals(pb)
    mld = _mld(pb, normals)
    mult, inter = contact_along_curve(b, c)

    failed = []
    if mld.value < eps:
        failed.append("mld >= epsilon")
    if mult > 1 - eps:
        failed.append("mult_C B <= 1 - epsilon")
    if inter > 2:
        failed.append("(B' . C) <= 2")
    if b.max_coefficient() > 1:
        failed.append("coefficients <= 1")
    branches = b.branches
    nondeg = _nondegeneracy(branches, normals).nondegenerate
    if not nondeg:
        failed.append("newton nondegeneracy")
    lct = _lct(branches, c, pb, normals, mult, nondeg) if not failed else None
    # an inexact value is only an upper bound of the threshold: it checks nothing
    if lct is not None and not lct.exact:
        failed.append("B + lct*C newton nondegenerate")

    bound = delta_bound(eps)
    passed = lct.value >= bound.delta if not failed else None
    return SurfaceTheoremReport(
        eps,
        mld,
        mult,
        inter,
        nondeg,
        tuple(failed),
        not failed,
        bound.delta,
        bound.witness_n,
        lct,
        passed,
    )
