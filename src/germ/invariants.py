"""Singularity invariants of divisor germs via their Newton data.

Everything is computed from the vertex chain of the Newton polytope with
exact rational arithmetic:

* log discrepancies of monomial valuations (weighted blow-ups),
* the minimal log discrepancy over all positive integer weights, found by
  minimizing the discrepancy linear form over the Hilbert bases of the
  normal-fan cones,
* the log canonical threshold of a smooth curve through the origin, as the
  smallest discrepancy/contact ratio over a complete finite candidate set
  of weights, capped by the curve's own coefficient room,
* the explicit fibration bound delta(eps) = sup_n (eps - 1/n)/(n - 1), in
  closed form, and the distance-to-integer approximation step behind it,
* the surface-theorem checker, which builds the Newton polytope, the mld
  scan and the contact of B with C once and hands them to the lct.

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
    Weight,
    cone,
    face_normals,
    hilbert_basis,
    make_weight,
    support_value,
)
from .germs import (
    DivisorGerm,
    SmoothCurveGerm,
    contact_along_curve,
    newton_polytope,
    newton_polytope_of_poly,
    nondegeneracy_check,
)
from .scalars import Extended, NEG_INF, as_fraction, is_infinite

__all__ = [
    "MldResult",
    "LctResult",
    "BoundResult",
    "DirichletTrace",
    "SurfaceTheoremReport",
    "toric_log_discrepancy",
    "mld_toric",
    "lct_toric",
    "verify_surface_theorem",
    "delta_bound",
    "bound_floor_check",
    "dirichlet_k",
    "binomial_lct",
]


# ---------------------------------------------------------------------------
# log discrepancies


def _discrepancy(p: NewtonPolytope, v: IntVec) -> Fraction:
    """v1 + v2 - min over the vertices of <v, vertex>: the log discrepancy
    form of the weight v, linear on each normal-fan cone."""
    return v[0] + v[1] - min(v[0] * q.x + v[1] * q.y for q in p.vertices)


def toric_log_discrepancy(b: DivisorGerm, w: "tuple[int, int]") -> Fraction:
    """a(E_w, X, B) = w1 + w2 - <w, Newton diagram of B> for a primitive
    positive integer weight w."""
    return _discrepancy(newton_polytope(b), make_weight(w[0], w[1]))


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


def _normal_fan_cones(p: NewtonPolytope) -> "list[Cone2]":
    """Maximal cones of the normal fan of the polytope inside the first
    quadrant, left to right; the discrepancy form is linear on each."""
    rays: list[IntVec] = [(1, 0)] + face_normals(p) + [(0, 1)]
    return [cone(a, b) for a, b in zip(rays, rays[1:])]


def mld_toric(b: DivisorGerm) -> MldResult:
    """Minimize w1 + w2 - <w, Newton diagram> over positive integer pairs.

    On each normal-fan cone the objective is linear, so it suffices to
    scan the cone's Hilbert basis.  Axis basis vectors are not admissible
    minimizers themselves; a positive point built from one witnesses value
    -inf when its rate is negative, and the remaining positive candidates
    (plus (1,1) when the fan is the whole quadrant) realize the infimum.
    """
    if b.is_empty:
        raise InputError("empty divisor")
    return _mld(newton_polytope(b))


def _mld(p: NewtonPolytope) -> MldResult:
    def g(v: IntVec) -> Fraction:
        return _discrepancy(p, v)

    axis_values = (g((1, 0)), g((0, 1)))
    best: "tuple[Fraction, IntVec] | None" = None
    for sector in _normal_fan_cones(p):
        basis = hilbert_basis(sector)
        if sector.g1 == (1, 0) and sector.g2 == (0, 1):
            basis = basis + [(1, 1)]  # no positive basis element in this fan
        for h in basis:
            value = g(h)
            positive = h[0] >= 1 and h[1] >= 1
            if value < 0:
                witness = h if positive else _positive_negative_witness(g, h, basis)
                return MldResult(NEG_INF, make_weight(*witness), False, axis_values)
            if positive and (best is None or value < best[0]):
                best = (value, h)
    # the fan always has a positive candidate: a face normal or (1, 1)
    return MldResult(best[0], make_weight(*best[1]), True, axis_values)


def _positive_negative_witness(g, axis: IntVec, basis: "list[IntVec]") -> IntVec:
    """Positive weight with negative discrepancy, built by pushing a
    positive point of the cone far in the negative axis direction."""
    partner = next((h for h in basis if h[0] >= 1 and h[1] >= 1), None)
    p0 = (axis[0] + partner[0], axis[1] + partner[1]) if partner else (1, 1)
    if g(p0) >= 0:
        rate = g((p0[0] + axis[0], p0[1] + axis[1])) - g(p0)
        if rate >= 0:
            raise GermError(f"axis direction {axis} does not lower the discrepancy")
        steps = math.floor(g(p0) / -rate) + 1
        p0 = (p0[0] + steps * axis[0], p0[1] + steps * axis[1])
    d = gcd(p0[0], p0[1])
    w = (p0[0] // d, p0[1] // d)
    if g(w) >= 0 or w[0] < 1 or w[1] < 1:
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
    mld = _mld(pb)
    if is_infinite(mld.value) or mld.value < 0:
        raise DomainError("pair not lc before adding C")
    mult, _ = contact_along_curve(b, c)
    return _lct(b, c, pb, mult)


def _lct(b: DivisorGerm, c: SmoothCurveGerm, pb: NewtonPolytope, mult: Fraction) -> LctResult:
    """Threshold of an lc pair with coefficients at most one, given the
    Newton polytope ``pb`` of B and mult_C B."""
    pc = newton_polytope_of_poly(c.poly)
    candidates: list[IntVec] = [(1, 0), (0, 1)]
    for n in face_normals(pb) + face_normals(pc):
        if n not in candidates:
            candidates.append(n)

    best: "tuple[Fraction, IntVec] | None" = None
    for w in candidates:
        den = support_value(pc, w)
        if den == 0:
            continue
        ratio = _discrepancy(pb, w) / den
        if best is None or ratio < best[0]:
            best = (ratio, w)
    # never None: C passes through the origin, so an axis weight or the
    # normal of C's compact face has positive contact with C
    membership, best_w = best
    cap = 1 - mult
    value = min(membership, cap)
    witness: IntVec | str = best_w if membership <= cap else "cap"
    extended = b + DivisorGerm(((value, c.poly),)) if value > 0 else b
    exact = nondegeneracy_check(extended).nondegenerate
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

    def h(k: int) -> Fraction:
        return (eps - Fraction(1, k)) / (k - 1)

    if h(n + 1) > h(n):
        n += 1
    return BoundResult(eps, h(n), n)


def bound_floor_check(epsilon: object) -> bool:
    """delta(eps) >= min(eps^2/4, 3/2) must hold for every positive eps."""
    eps = as_fraction(epsilon)
    return delta_bound(eps).delta >= min(eps * eps / 4, Fraction(3, 2))


# ---------------------------------------------------------------------------
# distance-to-integer approximation


@dataclass(frozen=True)
class DirichletTrace:
    """Remainder recursion certifying a small multiple of q near an integer.

    r_{-1} = 1, r_0 = q mod 1, r_{i-2} = b_i r_{i-1} + r_i; numerators
    a_{-1} = 0, a_0 = 1, a_i = a_{i-2} + b_i a_{i-1}.  The recursion stops
    at the first m with r_m <= delta, and k = a_m then satisfies
    dist(k q, Z) <= delta with k <= ceil(1/delta) - 1.
    """

    q: Fraction
    delta: Fraction
    remainders: "tuple[Fraction, ...]"   # r_{-1} .. r_m
    partial_quotients: "tuple[int, ...]"  # b_1 .. b_m
    numerators: "tuple[int, ...]"        # a_{-1} .. a_m
    k: int

    def distance(self) -> Fraction:
        """min(frac(k q), 1 - frac(k q))."""
        frac = self.k * self.q - math.floor(self.k * self.q)
        return min(frac, 1 - frac)


def dirichlet_k(q: object, delta: object) -> DirichletTrace:
    qq = as_fraction(q)
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise InputError("delta must lie strictly between 0 and 1")
    r0 = qq - math.floor(qq)
    remainders = [Fraction(1), r0]
    numerators = [0, 1]
    quotients: list[int] = []
    while remainders[-1] > d:
        r_prev, r_last = remainders[-2], remainders[-1]
        step = int(r_prev // r_last)
        quotients.append(step)
        remainders.append(r_prev - step * r_last)
        numerators.append(numerators[-2] + step * numerators[-1])
    return DirichletTrace(
        qq, d, tuple(remainders), tuple(quotients), tuple(numerators), numerators[-1]
    )


# ---------------------------------------------------------------------------
# binomial closed form


def binomial_lct(lam: object, m: int, n: int) -> Fraction:
    """lct of the axis curve (y = 0) against lambda * (x^m + y^n = 0),
    in the regime 0 <= lambda*n - n/m <= 1: equals 1 - lambda*n + n/m."""
    coeff = as_fraction(lam)
    if not 0 < coeff <= 1:
        raise InputError("lambda must lie in (0, 1]")
    if m < 1 or n < 1:
        raise InputError("exponents must be positive integers")
    gap = coeff * n - Fraction(n, m)
    if gap < 0:
        raise DomainError(f"lambda*n - n/m = {gap} violates 0 <= lambda*n - n/m")
    if gap > 1:
        raise DomainError(f"lambda*n - n/m = {gap} violates lambda*n - n/m <= 1")
    return 1 - coeff * n + Fraction(n, m)


# ---------------------------------------------------------------------------
# the surface theorem checker


@dataclass(frozen=True)
class SurfaceTheoremReport:
    """Hypotheses, intermediates and verdict of the lct lower-bound check.

    The hypotheses: the germ is epsilon-lc, the curve's multiplicity inside
    B is at most 1 - epsilon, the C-free part meets the curve with local
    intersection at most 2, every coefficient of B is at most 1, and B is
    Newton-nondegenerate.  When they all hold, the threshold must be at
    least the exact delta(eps) = sup_{n >= 2} (eps - 1/n)/(n - 1) of
    :func:`delta_bound`; a failed hypothesis makes the check inapplicable
    rather than failed, and is named in ``failed_hypotheses``.
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
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise InputError("epsilon must be positive")
    pb = newton_polytope(b)
    mld = _mld(pb)
    mult, inter = contact_along_curve(b, c)

    failed = []
    if is_infinite(mld.value) or mld.value < eps:
        failed.append("mld >= epsilon")
    if mult > 1 - eps:
        failed.append("mult_C B <= 1 - epsilon")
    if inter > 2:
        failed.append("(B' . C) <= 2")
    if b.max_coefficient() > 1:
        failed.append("coefficients <= 1")
    # The lct certifies B + lct*C nondegenerate, and then B is too: the
    # nondegeneracy test passes on every subset of the branches it passes on.
    lct = _lct(b, c, pb, mult) if not failed else None
    nondeg = (lct is not None and lct.exact) or nondegeneracy_check(b).nondegenerate
    if not nondeg:
        failed.append("newton nondegeneracy")
        lct = None

    bound = delta_bound(eps)
    passed = (lct.value >= bound.delta) if lct is not None else None
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
