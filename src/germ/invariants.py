"""Singularity invariants of divisor germs via their Newton data.

Everything is computed from the Newton diagram of B with exact arithmetic.
The diagram is kept as its summands: the integer Newton polygon of each
branch with the integer weight den * coeff, den the lcm of the coefficient
denominators (see ``germs.NewtonDiagram``).  Its support function is the
weighted sum of the branches' and its face normals are the union of
theirs.  On each fan cone the log discrepancy is one linear form, read
off the diagram's one vertex there (Fulton, *Introduction to Toric
Varieties*): the fan's cones and those vertices are built once per
analysis.  So the mld scan takes integer dot products, den times each
log discrepancy; the lct, its cap and the checker's hypotheses compare
``int`` cross-products, and each builds a ``Fraction`` only for a
returned value:

* log discrepancies of monomial valuations (weighted blow-ups),
* the minimal log discrepancy over all positive integer weights, found by
  minimizing each cone's discrepancy form over the endpoints of the
  Klein-sail runs of the normal-fan cones, O(log det) per cone,
* the log canonical threshold of a smooth curve through the origin, as the
  smallest discrepancy/contact ratio over a complete finite candidate set
  of weights, capped by the curve's own coefficient room.  A form linear
  on each cone is >= 0 on the quadrant iff it is at the fan's rays, so
  B is lc exactly when no ray has a negative discrepancy: the lct reads
  lc-ness, and its candidates at B's rays, off the cone forms with no
  sail walk,
* the explicit fibration bound delta(eps) = sup_n (eps - 1/n)/(n - 1), in
  closed form,
* the surface-theorem checker, which builds the Newton diagram, its face
  normals and fan cones, the mld scan, the contact of B with C and B's
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
    IntVec,
    Run,
    _hilbert_runs,
    as_pair,
    face_normals,
    make_weight,
)
from .germs import (
    DivisorGerm,
    NewtonDiagram,
    SmoothCurveGerm,
    _contact,
    _nondegeneracy,
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


def _discrepancy(p: NewtonDiagram, v: IntVec) -> int:
    """The log discrepancy v1 + v2 - min over the diagram of <v, point> of
    the weight v, times the diagram's denominator: an integer form, linear
    on each normal-fan cone."""
    return (v[0] + v[1]) * p.den - p.lattice_min(v)


def toric_log_discrepancy(b: DivisorGerm, w: "tuple[int, int]") -> Fraction:
    """a(E_w, X, B) = w1 + w2 - <w, Newton diagram of B> for a primitive
    positive integer weight w."""
    p = newton_polytope(b)
    return Fraction(_discrepancy(p, make_weight(*as_pair(w))), p.den)


@dataclass(frozen=True)
class MldResult:
    """Infimum of toric log discrepancies over positive integer weights.

    ``witness`` is a primitive positive pair (w1, w2) that attains the value
    when ``attained`` is true and, for value -inf, certifies a negative
    discrepancy.  ``axis_values`` are the discrepancies of the two axis
    directions (1,0), (0,1), which are excluded from the infimum (their
    centers are curves, not the origin) and reported for diagnostics only.
    """

    value: Extended
    witness: IntVec
    attained: bool
    axis_values: "tuple[Fraction, Fraction]"


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
    p = newton_polytope(b)
    return _mld(p.den, _cones(p, face_normals(*p.polygons)))


Cone = tuple[IntVec, IntVec, IntVec]


def _cones(p: NewtonDiagram, normals: "list[IntVec]") -> "list[Cone]":
    """The normal fan of the diagram ``p`` with face normals ``normals``:
    its cones (u, v, V) of consecutive rays u, v from (1, 0) to (0, 1), V
    being the one vertex of least <u + v, .>, times p.den.

    Every w in the cone has least <w, .> = <w, V>, so den times the log
    discrepancy is the one form g(w) = (den - V1)*w1 + (den - V2)*w2 there.
    """
    rays: list[IntVec] = [(1, 0)] + normals + [(0, 1)]
    return [(u, v, p.vertex((u[0] + v[0], u[1] + v[1]))) for u, v in zip(rays, rays[1:])]


def _ray_values(den: int, cones: "list[Cone]") -> "dict[IntVec, int]":
    """den times the log discrepancy at each ray of the fan, read off the
    form of a cone holding it: (1, 0), (0, 1), then the face normals in fan
    order, the order in which ``_lct`` breaks ties.  Each form is linear on
    its cone, so the pair is lc exactly when no value is negative."""
    values = {(1, 0): den - cones[0][2][0], (0, 1): den - cones[-1][2][1]}
    for u, _, (x, y) in cones[1:]:
        values[u] = (den - x) * u[0] + (den - y) * u[1]
    return values


def _mld(den: int, cones: "list[Cone]") -> MldResult:
    """The first basis element, in fan order, with a negative discrepancy,
    else the first positive one attaining the least discrepancy, on the
    normal-fan ``cones`` of a diagram with denominator ``den``.

    On each cone den times the discrepancy is one form g (see ``_cones``);
    the first and last cones give the axis values.  Along a run it is
    g0 + j*rate.  Its first negative point is j = 0 when g0 < 0, else
    j = g0 // -rate + 1 if that is a point of the run; its least positive
    point is the first one when rate >= 0 and the last one when rate < 0.
    All of this is in integers: the scale den changes no sign, floor or
    comparison.
    """
    axis_values = (Fraction(den - cones[0][2][0], den), Fraction(den - cones[-1][2][1], den))
    best: "tuple[int, IntVec] | None" = None
    for u, v, (x, y) in cones:
        a, b = den - x, den - y
        runs = _hilbert_runs(u, v)
        if len(cones) == 1:
            runs.append(Run((1, 1), (0, 0), 0))  # no positive basis element in this fan
        for run in runs:
            (s1, s2), (t1, t2) = run.start, run.step
            g0 = a * s1 + b * s2
            rate = a * t1 + b * t2  # 0 on a run of count 0, whose step is (0, 0)
            negative = 0 if g0 < 0 else (g0 // -rate + 1 if rate < 0 else run.count + 1)
            if negative <= run.count:
                h = run.point(negative)
                witness = h if _is_positive(h) else _positive_negative_witness(
                    lambda w: a * w[0] + b * w[1], h, runs)
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
    first positive point of the sector far in the negative axis direction.
    g is linear on the sector and g(axis) < 0, so partner + k*axis is
    negative for every k > g(partner) / -g(axis); the push takes the least
    such k >= 1."""
    partner = next(r.point(js[0]) for r in runs if (js := _positive_points(r)))
    steps = max(1, g(partner) // -g(axis) + 1)
    p0 = (partner[0] + steps * axis[0], partner[1] + steps * axis[1])
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
    """The log canonical threshold of the smooth curve C against B.

    B must have every coefficient at most one, else ``DomainError``
    "coefficient above one".  Then (X, B) must be lc at the origin: den
    times the log discrepancy is one linear form on each cone of B's
    normal fan, so B is lc exactly when it is >= 0 at every ray of the fan,
    (1, 0), B's face normals and (0, 1).  A negative value, or C itself
    carrying a coefficient mult_C B above one in B, raises ``DomainError``
    "pair not lc before adding C", in that order.  The threshold is the
    least discrepancy/contact ratio over the fan's rays and C's face
    normals, capped by 1 - mult_C B, the room left on C's own coefficient
    (see ``LctResult``).
    """
    pb = newton_polytope(b)
    if max(pb.weights) > pb.den:
        raise DomainError("coefficient above one")
    normals = face_normals(*pb.polygons)
    rays = _ray_values(pb.den, _cones(pb, normals))
    if min(rays.values()) < 0:
        raise DomainError("pair not lc before adding C")
    branches = b.branches
    mult, _ = _contact(branches, pb.weights, c)
    if mult > pb.den:  # C has coefficient above one in B
        raise DomainError("pair not lc before adding C")
    return _lct(branches, c, pb, rays, mult, _nondegeneracy(branches, normals).nondegenerate)


def _lct(branches: "list[Poly]", c: SmoothCurveGerm, pb: NewtonDiagram,
         rays: "dict[IntVec, int]", mult: int, nondegenerate: bool) -> LctResult:
    """Threshold of an lc pair with coefficients at most one, given B's
    branch polynomials, its Newton diagram ``pb``, the map ``rays`` from
    each ray of that diagram's normal fan to pb.den times its discrepancy
    (see ``_ray_values``), pb.den * mult_C B and whether B is
    nondegenerate.  Only C's face normals that are not rays of B's fan
    need a discrepancy of their own.  The ratios disc/(pb.den * contact)
    and the cap are cross-multiplied."""
    pc = newton_polytope_of_poly(c.poly)
    c_normals = face_normals(pc)
    candidates = list(rays.items()) + [
        (n, _discrepancy(pb, n)) for n in c_normals if n not in rays]
    best: "tuple[int, int, IntVec] | None" = None  # the least ratio, first in order
    for w, disc in candidates:
        contact = pc.lattice_min(w)
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
    # C is smooth: its polygon has at most one compact face, whose form is
    # linear, so along every other normal C's form is one term and B + value*C
    # passes iff B does.  Along a normal of C's that is not B's, every form of
    # B is one term, and C's binomial passes.  So B + value*C is nondegenerate
    # iff B is and, when value > 0, it passes along the normals B and C share;
    # its coefficients do not enter the test.
    shared = [n for n in c_normals if n in rays] if value.numerator > 0 else []
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
    bound = delta_bound(epsilon)
    eps = bound.epsilon
    pb = newton_polytope(b)
    normals = face_normals(*pb.polygons)
    cones = _cones(pb, normals)
    mld = _mld(pb.den, cones)
    branches = b.branches
    mult, inter = _contact(branches, pb.weights, c)  # over pb.den

    failed = []
    if mld.value < eps:
        failed.append("mld >= epsilon")
    if mult * eps.denominator > (eps.denominator - eps.numerator) * pb.den:
        failed.append("mult_C B <= 1 - epsilon")
    if inter > 2 * pb.den:
        failed.append("(B' . C) <= 2")
    if max(pb.weights) > pb.den:
        failed.append("coefficients <= 1")
    nondeg = _nondegeneracy(branches, normals).nondegenerate
    if not nondeg:
        failed.append("newton nondegeneracy")
    lct = _lct(branches, c, pb, _ray_values(pb.den, cones), mult, nondeg) if not failed else None
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
