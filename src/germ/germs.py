"""Divisor germs and smooth curve germs on a smooth surface germ.

A divisor germ is a finite positive rational combination of polynomial
branches through the origin; a smooth curve germ is a single polynomial
with nonzero linear part.  This module extracts their Newton data and
computes the purely local quantities the invariant layer builds on:

- the Newton diagram of B, kept as its weighted branch polygons, each
  beside its branch's Newton record (``exactgeom.NewtonRecord``) from the
  hull's one sort, with the valuation table read off one walk of their
  summed recorded edges once per analysis (``NewtonDiagram``);
- the multiplicity of B along a curve C and the local intersection of the
  C-free part of B with C (``contact_along_curve``).  C is smooth, so in
  its oriented frame its Newton polygon is the segment (1, 0)-(0, v) plus
  the quadrant, v the least y-power free of x, found once when the germ is
  built (``SmoothCurveGerm.v``).  When v = 0, C is the axis x = 0 times a
  unit, and both values are read straight off each branch's exponents: its
  least x-exponent k and, among its terms of x-exponent k, the least
  y-exponent.  Else both are read off one walk of x-derivatives along the
  root x = psi(t): psi's leading term -(g_0v/g_10)*t^v is built once, and
  one check decides whether it is all of psi, as on x + y, y - x^k and
  their multiples by units; then every series is substituted there, group
  by group.  Else a series whose lowest group does not cancel at the
  leading term has its order, and past that series are kept as ``int``
  numerators over one denominator, read at the orders 2, 4, 8, ... up to
  2 past the lesser Bezout number of its own branch and C, on P^2 or on
  P^1 x P^1 by bidegrees, on a Newton lift with one exactness rule and no
  evaluation to a degree that exponent values set;
- the Newton-nondegeneracy certificate that marks inputs whose toric
  invariants are exact, read off each branch's initial forms along the
  edges of its own Newton record: the record's normals, and one merge over
  its sorted exponents, which reads each term once, with no valuation
  table.  Along any other normal a branch's form is one term.  Binomial
  forms are decided on their exponents and coefficients; a form of three
  or more terms is cleared to ``int`` and goes through one integer gcd, the
  primitive remainder sequence, up to ``DENSE_FORM_LIMIT`` entries.

Polynomials (not power series) keep every computation exact and decidable.
Only the germ of a curve at the origin matters: a curve polynomial may
carry factors that do not vanish there, such as x + x*y for {x = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import DomainError, InputError
from .exactgeom import (
    IntVec,
    NewtonRecord,
    Polygon,
    as_pair,
    polytope_from_support,
    weighted_edges,
)
from .polys import (
    Poly,
    parse_weighted_terms,
    render_weighted_terms,
    series_mul,
    uni_gcd_degree,
)

__all__ = [
    "DivisorGerm",
    "SmoothCurveGerm",
    "NondegeneracyReport",
    "NewtonDiagram",
    "parse_divisor",
    "newton_polytope",
    "nondegeneracy_check",
    "contact_along_curve",
    "local_intersection",
    "curve_orient",
    "render_divisor",
]


@dataclass(frozen=True)
class DivisorGerm:
    """B = sum of coeff_i * (poly_i = 0) with positive rational coefficients.

    B has at least one component; each coefficient is a positive ``int``
    or ``Fraction``, not a ``bool``, and each branch polynomial is a nonzero
    ``Poly`` that vanishes at the origin; a ``Poly`` checks its own terms.
    """

    components: tuple[tuple[Fraction, Poly], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.components, tuple):
            raise InputError("divisor components must be a tuple of (coefficient, Poly) pairs")
        if not self.components:
            raise InputError("divisor needs at least one component")
        for component in self.components:
            coeff, p = as_pair(component)
            if type(coeff) not in (int, Fraction):
                raise InputError(f"a coefficient of type {type(coeff).__name__} "
                                 "is not an int or Fraction")
            if coeff.numerator <= 0:
                raise InputError(f"non-positive coefficient {coeff}")
            if not isinstance(p, Poly):
                raise InputError(f"component must be a Poly, got {type(p).__name__}")
            if p.is_zero:
                raise InputError("zero polynomial cannot define a component")
            if (0, 0) in p.terms:
                raise InputError("component does not pass through the origin")

    @property
    def branches(self) -> "list[Poly]":
        """The branch polynomials, in order, without their coefficients."""
        return [p for _, p in self.components]


def parse_divisor(text: str) -> DivisorGerm:
    """Parse ``coeff*(poly) + coeff*(poly) + ...``, order preserved."""
    return DivisorGerm(tuple(parse_weighted_terms(text)))


def render_divisor(b: DivisorGerm) -> str:
    """B as canonical text that ``parse_divisor`` reads back to an equal germ:
    ``coeff*(poly) + ...`` in component order.  A number with more digits
    than ``str`` converts raises ``InputError``."""
    if not isinstance(b, DivisorGerm):
        raise InputError(f"expected a DivisorGerm, got {type(b).__name__}")
    return render_weighted_terms(b.components)


@dataclass(frozen=True)
class SmoothCurveGerm:
    """Curve germ smooth at the origin, in its original coordinates.

    Construction checks that ``poly`` is a ``Poly`` (which checks its own
    terms) through the origin with a nonzero linear part, and derives three
    values.  ``swapped``: whether the two coordinates are exchanged, so that
    the frame's x is the variable C is solved for.  That is y when ``poly``
    has no x-linear term, and also when it has the y-linear term, degree 1
    in y and degree above 1 in x.  Such a C is a(x) + y*b(x), b(0) != 0,
    whose root y = -a(x)/b(x) is one division by b, while its root in x can
    carry denominators that grow with the x-degree: 2*x - y + x^N has
    y = 2*x + x^N, but x = y/2 - (y/2)^N/2 + ....  That orientation is the
    parametrization frame: the oriented polynomial is solved for x as a
    power series in y.  ``v``: the least frame-y exponent among the
    frame-x-free terms, 0 when there are none, i.e. when C is the
    frame's axis x = 0 times a unit.  Every other term is a multiple of x or
    of y^v, so in the frame C's Newton polygon is conv{(1, 0), (0, v)} + Q,
    never built: ``normals`` holds the inner normal (v, 1) of its one
    compact face, transposed when ``swapped``, and is empty when v = 0, and
    ``contact(w)`` is <w, C> = min(w_x, v*w_y), or w_x when v = 0, for w
    read in the frame.
    """

    poly: Poly
    swapped: bool = field(init=False)
    v: int = field(init=False)
    normals: "tuple[IntVec, ...]" = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.poly, Poly):
            raise InputError(f"curve must be a Poly, got {type(self.poly).__name__}")
        terms = self.poly.terms
        if not terms or (0, 0) in terms:
            raise InputError("curve does not pass through the origin")
        if (1, 0) not in terms and (0, 1) not in terms:
            raise InputError("curve is singular at the origin (zero linear part)")
        # max(terms)[0] is C's degree in x, and the degree in y is read only past it
        swapped = (1, 0) not in terms or (
            (0, 1) in terms and max(terms)[0] > 1 == max(j for _, j in terms))
        # a term free of the frame's x has its frame-y exponent as i + j
        v = min([i + j for i, j in terms if not (j if swapped else i)] or [0])
        object.__setattr__(self, "swapped", swapped)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "normals", ((1, v) if swapped else (v, 1),) if v else ())

    def contact(self, w: IntVec) -> int:
        """<w, C>, the least <w, .> over C's Newton polygon."""
        wx, wy = (w[1], w[0]) if self.swapped else w
        return min(wx, self.v * wy) if self.v else wx


def curve_orient(g: Poly) -> SmoothCurveGerm:
    """The smooth curve germ {g = 0}, oriented; see ``SmoothCurveGerm``."""
    return SmoothCurveGerm(g)


# ---------------------------------------------------------------------------
# Newton data


class NewtonDiagram(NamedTuple):
    """B's valuation table, built once per analysis by ``newton_polytope``.

    Newt(B) = (1/den) * sum of weights[i] * polygons[i] is kept as its
    summands: ``polygons[i]`` is the vertex chain of branch i's integer
    Newton polygon (an ``exactgeom.Polygon``), ``weights[i]`` = den *
    coeff_i and ``den`` the lcm of the coefficients' denominators.  Beside
    each chain sits the rest of the branch's ``records[i]``
    (``exactgeom.NewtonRecord``), built in the hull's one sort: its sorted
    exponents and each compact edge's primitive normal and vector, which
    the table sums here and ``_nondegeneracy`` reads face forms along.  The
    support function of the sum is the sum of theirs, and its compact-face
    ``normals``, in fan order, are those of ``weighted_edges(weights,
    records)``.  The ``cones`` (u, v, a, b) of consecutive rays u, v from
    (1, 0) to (0, 1) carry one form each: every w in the cone has its least
    <w, .> at the one vertex V of den * Newt(B) between the edges of normals
    u and v, so den times the log discrepancy w1 + w2 - <w, Newt(B)> is
    a*w1 + b*w2 there, (a, b) = (den - V1, den - V2) (Fulton,
    *Introduction to Toric Varieties*).  ``rays`` holds that
    value at each ray, keyed (1, 0), (0, 1), then the normals: the order in
    which the lct breaks ties.  A form linear on each cone is >= 0 on the
    quadrant iff it is at the rays, so the toric discrepancies are all >= 0
    exactly when no ray value is negative.  That is necessary for B to be
    lc, and sufficient when B is Newton-nondegenerate; a degenerate B can
    fail to be lc on a divisor over X that is not toric."""

    weights: "tuple[int, ...]"
    polygons: "tuple[Polygon, ...]"
    den: int
    normals: "list[IntVec]"
    cones: "list[tuple[IntVec, IntVec, int, int]]"
    rays: "dict[IntVec, int]"
    records: "list[NewtonRecord]"

    def lattice_min(self, w: IntVec) -> int:
        """den times the support value of w, a pair of non-negative ``int``s
        (not ``bool``s), read off the form of the first cone whose second
        ray v is not before w: det(v, w) <= 0."""
        w1, w2 = as_pair(w)
        if not (type(w1) is int and type(w2) is int) or w1 < 0 or w2 < 0:
            raise InputError(f"weight {w!r} must be a pair of non-negative integers")
        # the last cone ends at (0, 1), which no such w is before
        a, b = next((a, b) for _, (v1, v2), a, b in self.cones if v1 * w2 <= v2 * w1)
        return (w1 + w2) * self.den - a * w1 - b * w2


def _weights(b: DivisorGerm) -> "tuple[tuple[int, ...], int]":
    """The weights den * coeff_i of B's branches, and den, the lcm of the
    coefficients' denominators; every analysis of B checks its type here."""
    if not isinstance(b, DivisorGerm):
        raise InputError(f"expected a DivisorGerm, got {type(b).__name__}")
    den = lcm(*[coeff.denominator for coeff, _ in b.components])
    return tuple([coeff.numerator * (den // coeff.denominator) for coeff, _ in b.components]), den


def newton_polytope(b: DivisorGerm) -> NewtonDiagram:
    """B's Newton diagram and valuation table; see ``NewtonDiagram``."""
    weights, den = _weights(b)
    return _table(weights, list(map(polytope_from_support, b.branches)), den)


def _table(weights: "tuple[int, ...]", records: "list[NewtonRecord]", den: int) -> NewtonDiagram:
    """The diagram of the weighted branch records over den, in one walk of
    their summed edges, left to right: the first cone's vertex is the
    weighted sum of the chains' first vertices, and crossing a normal adds
    its summed edge.  Each ray's value is read off the cone it starts."""
    edges = weighted_edges(weights, records)
    polygons = next(zip(*records))  # the chains
    x = y = 0
    for n, vs in zip(weights, polygons):
        x, y = x + n * vs[0][0], y + n * vs[0][1]
    cones, rays, u = [], {(1, 0): 0, (0, 1): 0}, (1, 0)  # rays keyed in tie-break order
    for v, (dx, dy) in edges + [((0, 1), (0, 0))]:
        a, b = den - x, den - y
        cones.append((u, v, a, b))
        rays[u] = a * u[0] + b * u[1]
        x, y, u = x + dx, y + dy, v
    rays[u] = b
    return NewtonDiagram(weights, polygons, den, [v for v, _ in edges], cones, rays, records)


class NondegeneracyReport(NamedTuple):
    """Outcome of the Newton-nondegeneracy test.

    The test is sufficient, not necessary: along the normal of each compact
    face of the Newton polygon, every branch's initial form must be squarefree
    off the axes and the forms of different branches coprime.  A ``degenerate``
    verdict carries the offending components and the primitive inner ``normal``.
    """

    nondegenerate: bool
    component_indices: "tuple[int, ...]" = ()
    normal: IntVec | None = None
    reason: str = ""


def nondegeneracy_check(b: DivisorGerm) -> NondegeneracyReport:
    """Whether B is Newton-nondegenerate, which makes its toric mld exact;
    see ``NondegeneracyReport``.  It reads each branch's initial forms
    along the edges of the branch's own ``NewtonRecord``, with no valuation
    table."""
    _weights(b)  # checks b's type before b.branches
    return _nondegeneracy(b.branches, list(map(polytope_from_support, b.branches)))


def _nondegeneracy(branches: "list[Poly]", records: "list[NewtonRecord]") -> NondegeneracyReport:
    """The test on the branch polynomials of a divisor, ``records[i]`` the
    ``NewtonRecord`` of ``branches[i]``.  A branch has a form of two or
    more terms only along its own edges' normals, and along any other
    normal its initial form is one term, which passes; so each branch walks
    its own recorded edges, left to right, which is fan order, and takes no
    normal again.  An edge's terms lie between its two vertices in the
    record's sorted exponents, so one merge reads each branch's terms once,
    with no rescan per edge.  An edge of primitive inner normal n and left
    vertex (ax, ay) gives the form of the terms on it,
    u-exponent i - ax -> coefficient, and ``steps[n]`` is the gcd of every
    such exponent along n, over all branches: a form f(u), f(0) != 0, whose
    exponents are multiples of k is squarefree, or shares a factor with
    g(u), iff f(u^(1/k)) is, or does with g(u^(1/k)), so a form is read at
    every ``steps[n]``-th exponent.  A binomial is squarefree.  A form of
    three or more terms, or a form paired with one, is cleared to a dense
    ``int`` list of at most ``DENSE_FORM_LIMIT`` entries for
    ``uni_gcd_degree``: f is squarefree iff gcd(f, f') is constant, and f
    and g share a factor iff gcd(f, g) is not."""
    forms: "list[dict[IntVec, dict[int, Fraction]]]" = [{} for _ in branches]
    steps: "dict[IntVec, int]" = {}
    for p, (vs, exponents, edges), fi in zip(branches, records, forms):
        at = 0  # exponents[at] is the edge's left vertex, then each term up to its right one
        for (ax, ay), (n, (dx, dy)) in zip(vs, edges):
            fi[n] = f = {0: p.terms[ax, ay]}
            while exponents[at] != (ax + dx, ay + dy):
                at += 1
                i, j = exponents[at]
                if n[0] * (i - ax) == n[1] * (ay - j):  # on the edge
                    f[i - ax] = p.terms[i, j]
            steps[n] = gcd(steps.get(n, 0), *f)
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            if len(f) > 2:
                d = _dense(f, steps[n])
                if uni_gcd_degree(d, [k * c for k, c in enumerate(d)][1:]):  # gcd(f, f')
                    return NondegeneracyReport(False, (i,), n, "face form is not squarefree")
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            for j in range(i + 1, len(forms)):
                g = forms[j].get(n)
                if g is not None and _share_factor(f, g, steps[n]):
                    return NondegeneracyReport(
                        False, (i, j), n, "parallel face forms share a factor"
                    )
    return NondegeneracyReport(True)


#: The longest dense list, in entries, that a face form of three or more
#: terms, or a form paired with one, becomes for ``uni_gcd_degree``.  On
#: dense forms of degree d with one-digit coefficients the integer remainder
#: sequence takes tens of ms at d = 100, about half a second at d = 200, and
#: seconds past d = 400.
DENSE_FORM_LIMIT = 1024


def _dense(f: "dict[int, Fraction]", step: int) -> "list[int]":
    """den * f(u^(1/step)) as a dense ``int`` list, den the lcm of f's
    denominators: f's entries at every step-th exponent, for ``step`` the
    gcd of the exponents along f's normal (see ``_nondegeneracy``)."""
    top = max(f)
    if top // step >= DENSE_FORM_LIMIT:
        raise InputError(f"a face form of u-degree {top // step} would be a dense list past "
                         f"the limit of {DENSE_FORM_LIMIT} entries")
    den = lcm(*(c.denominator for c in f.values()))
    return [f[i].numerator * (den // f[i].denominator) if i in f else 0
            for i in range(0, top + 1, step)]


def _share_factor(f: "dict[int, Fraction]", g: "dict[int, Fraction]", step: int) -> bool:
    """Whether two face forms with nonzero constant terms, their exponents
    multiples of ``step``, share a factor.

    Binomials are decided on their exponents, as gcd(m, k) reduces: with
    e = gcd(m, k), c0 + c1*u^m and d0 + d1*u^k share a root iff their roots
    a = -c0/c1 of u^m and b = -d0/d1 of u^k have a^(k/e) = b^(m/e).  Then
    w = a^s * b^(-t), for s*m - t*k = e, has w^(m/e) = a and w^(k/e) = b,
    and any e-th root of w is a root of both.  A common step divides e and
    cancels from m/e and k/e, so binomials need none.
    """
    if len(f) > 2 or len(g) > 2:
        return uni_gcd_degree(_dense(f, step), _dense(g, step)) > 0
    (m, c1), (k, d1) = max(f.items()), max(g.items())
    e = gcd(m, k)
    return _powers_agree(-f[0] / c1, k // e, -g[0] / d1, m // e)


def _powers_agree(a: Fraction, k: int, b: Fraction, m: int) -> bool:
    """a^k == b^m for nonzero rationals a, b and coprime k, m >= 1, in time
    polynomial in their bit sizes.  |a|^k = |b|^m with k, m coprime forces
    |a| = r^m and |b| = r^k for a rational r > 0; when r != 1 the larger of
    |a|'s numerator and denominator is at least 2^m, which bounds m by its
    bit length, and likewise k by b's."""
    if (a < 0 and k % 2 == 1) != (b < 0 and m % 2 == 1):
        return False
    a, b = abs(a), abs(b)
    if a == 1 or b == 1:
        return a == b
    if m >= max(a.numerator, a.denominator).bit_length():
        return False
    if k >= max(b.numerator, b.denominator).bit_length():
        return False
    return a**k == b**m


# ---------------------------------------------------------------------------
# multiplicities and intersections


# The series are exact rational series kept as ``int`` numerators over one
# ``int`` denominator, in the frame of the oriented curve itself, so sizes
# follow the true coefficients: the root of 3*x + 2*y^k is -2/3*t^k over the
# denominator 3, whatever k.  Polynomials enter with their denominators cleared,
# which scales a branch, its x-derivatives and their values on the curve by a
# constant: zeros and valuations do not change.

IntTerms = dict[tuple[int, int], int]


class Series(NamedTuple):
    """``num`` / ``den``: exponent -> nonzero ``int`` numerator, over one
    nonzero ``int`` denominator."""

    num: "dict[int, int]"
    den: int


def _integer_terms(p: Poly, swapped: bool) -> IntTerms:
    """D * p, D the lcm of p's denominators, with x and y exchanged when
    ``swapped``."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {(j, i) if swapped else (i, j): c.numerator * (den // c.denominator)
            for (i, j), c in p.terms.items()}


def _d_dx(p: IntTerms) -> IntTerms:
    return {(i - 1, j): i * c for (i, j), c in p.items() if i}


def _reduced(num: "dict[int, int]", den: int) -> Series:
    """num / den in lowest terms, with den > 0."""
    common = gcd(den, *num.values()) * (1 if den > 0 else -1)
    return Series({k: v // common for k, v in num.items() if v}, den // common)


def _product(a: Series, b: Series, order: int) -> Series:
    return Series(series_mul(a.num, b.num, order), a.den * b.den)


def _difference(a: Series, b: Series) -> Series:
    num = {k: v * b.den for k, v in a.num.items()}
    for k, v in b.num.items():
        num[k] = num.get(k, 0) - v * a.den
    return _reduced(num, a.den * b.den)


_ONE = Series({0: 1}, 1)


class CurveLift(NamedTuple):
    """The root x = psi(t) of a curve whose cleared terms are ``h``, to be
    read below ``order``.  Either psi is known below ``order``, with
    ``inverse`` = 1/h_x(psi, t) below ``order``, or ``exact``: psi is a
    polynomial with h(psi, t) = 0 (``curve_parametrization``'s rule)."""

    h: IntTerms
    order: int
    psi: Series
    inverse: Series
    exact: bool


def curve_parametrization(lift: CurveLift, order: int) -> CurveLift:
    """The root x = psi(t) of the curve whose cleared terms are ``lift.h``,
    below ``order`` or exact, lifted on from ``lift``.

    ``SmoothCurveGerm`` puts the curve's polynomial g in its frame: through
    the origin, with x-linear coefficient lin != 0.  Newton's iteration
    lifts psi from any lift, the first being psi = 0 below t^1, where
    inverse = 1/lin, doubling the order k each pass (Brent and Kung, JACM
    1978):
        psi <- psi - inverse*g(psi, t),
        inverse <- inverse*(2 - g_x(psi, t)*inverse),
    both truncated at k.  One rule decides exactness: psi is exact once its
    residual g(psi, t) is 0 below k with k > max(i*deg psi + j) over g's
    terms x^i*y^j, as g(psi, t) then has degree below k.  No rule evaluates
    g(psi, t) to its degree, which exponent values set.  The lifting goes on
    from ``lift``, so each lift is made once; an exact ``lift`` only has its
    order raised, with no pass.
    """
    h, known, psi, inverse, exact = lift
    dh = _d_dx(h)
    while not exact and known < order:
        known = min(2 * known, order)
        residual = _on_curve(h, psi, known)
        exact = not residual.num and known > max(i * max(psi.num, default=0) + j for i, j in h)
        if not exact:
            psi = _difference(psi, _product(inverse, residual, known))
            excess = _difference(_product(_on_curve(dh, psi, known), inverse, known), _ONE)
            inverse = _difference(inverse, _product(inverse, excess, known))
    return CurveLift(h, order if exact else known, psi, inverse, exact)


def _substituted_order(p: IntTerms, psi: Series, whole: bool) -> "int | None":
    """The order of p(psi(t), t) for psi = (a/den)*t^e, a != 0, None if it
    is 0; psi is in lowest terms with den > 0, as ``_reduced`` leaves it.
    Unless ``whole``, only p's lowest group at psi is decided: its order if
    it does not cancel, else None.

    The term c*x^i*y^j lands at t^(i*e + j) with the value c*(a/den)^i.  The
    terms are visited in increasing i*e + j, and the walk stops at the first
    group that does not cancel (see ``_vanishes``), so no power of psi past
    the answer's order is built."""
    ((e, a),) = psi.num.items()
    terms = sorted([(i * e + j, i, c) for (i, j), c in p.items()])
    group = []
    for t, (k, i, c) in enumerate(terms, 1):
        group.append((i, c))
        if t == len(terms) or terms[t][0] != k:  # the last term of its group
            if not _vanishes(group, a, psi.den):
                return k
            if not whole:
                return None
            group = []
    return None


def _vanishes(terms: "list[tuple[int, int]]", a: int, den: int) -> bool:
    """Whether the sum of c*r^i over the (i, c), i increasing, is 0 for
    r = a/den in lowest terms, den > 0, with no power past the bit sizes.
    r = +-1 is summed by parity.  Else (reading 1/r at reversed exponents
    when |a| = 1) a prime p divides a and not den.  Cut where a gap in i
    reaches the bit size of g = gcd(N, a^bits(N)), N = (cluster sum) *
    den^(end - i0) / r^i0 for the cluster [i0, end] below it: g holds
    p^v_p(N), so the first cluster with N != 0 has p-adic valuation
    i0*v_p(a) + v_p(N) < (i0 + gap)*v_p(a), below every later term's, and
    the sum is 0 iff every cluster's is."""
    if abs(a) == 1 == den:
        return not sum(c * a ** (i % 2) for i, c in terms)
    if abs(a) == 1:
        terms, a, den = [(terms[-1][0] - i, c) for i, c in reversed(terms)], a * den, 1
    total = 0
    for i, c in terms:
        if not total:
            start = last = i
        elif i - last >= gcd(total, a ** total.bit_length()).bit_length():
            return False
        total = total * den ** (i - last) + c * a ** (i - start)
        last = i
    return not total


def _on_curve(p: IntTerms, psi: Series, order: int) -> Series:
    """p(psi(t), t) below ``order`` by Horner's rule in x; y = t is a shift."""
    out = Series({}, 1)
    top = max((i for i, _ in p), default=0)
    for (i, j), c in sorted(p.items(), reverse=True):
        out = _times_psi(out, psi, order, top - i)
        top = i
        if j < order and (v := out.num.get(j, 0) + c * out.den):
            out.num[j] = v
        else:
            out.num.pop(j, None)
    return _times_psi(out, psi, order, top)


def _times_psi(s: Series, psi: Series, order: int, k: int) -> Series:
    """s * psi^k below ``order``, psi^k by repeated squaring, and 0 at once
    when val(s) + k*val(psi) >= order: psi(0) = 0."""
    if not s.num or not k:
        return s
    if not psi.num or min(s.num) + k * min(psi.num) >= order:
        return Series({}, 1)
    bound = order - min(s.num)  # the powers of psi matter only below this
    while True:
        if k & 1:
            s = _product(s, psi, order)
        k >>= 1
        if not k or not s.num:
            return s
        psi = _product(psi, psi, bound)


def contact_along_curve(b: DivisorGerm, c: SmoothCurveGerm) -> "tuple[Fraction, Fraction]":
    """mult_C B and (B' . C), with B' the C-free part of B, in one walk per branch.

    The curve is x = psi(t), y = t in the frame of g, the curve's polynomial
    transposed when ``c.swapped``.  Each branch p, transposed with it, is
    evaluated on it with its x-derivatives p, dp/dx, d2p/dx2, ... until one
    is not 0 on C.  If that is the k-th, the branch adds coeff*k to mult_C B
    and coeff times the order of that series to (B' . C), both summed as
    ``int`` numerators over the lcm of B's denominators.  This is exact:
    dc/dx is a unit on C (its constant term is the x-linear coefficient), so
    if p = c^k * q near the origin with C not dividing q, then the j-th
    derivative vanishes on C for j < k and the k-th is k! * (dc/dx)^k * q
    there, of order (q . C).  A derivative of p that is not 0 on C meets
    C's one branch through the origin, a factor of g, within both Bezout
    numbers of p and g: deg p * deg g on P^2, and a*d + b*c on P^1 x P^1
    for the bidegrees (a, b) of p and (c, d) of g.  So a series of p that
    is 0 below the branch's own read bound n, 2 past the lesser of them, is
    0 on C.  The walk stops by the (deg_x p)-th derivative, a nonzero
    polynomial in y.

    v is ``c.v``, the least y-power of the x-free part of g, so psi's
    leading term is lead = -(g_0v/g_10)*t^v, or psi = 0 when v = 0.  Then C
    is x = 0 and no series is built: a branch p = x^k * q, q(0, t) != 0,
    adds coeff*k and coeff*ord q(0, t), the least y-exponent among p's
    terms of x-exponent k, read off p's exponents with no derivative and
    no cleared denominator.  Else it is decided once whether g vanishes at
    lead; if it does, psi is lead, as the root through the origin is
    unique, and every series is substituted there with no truncation
    (``_substituted_order``).  Otherwise a series whose lowest group does
    not cancel at lead has that order, found before any lift, and the rest
    are read along the orders 2, 4, 8, ..., their branch's n, from one lift
    shared by every branch and derivative.  The lift is raised in place
    (``curve_parametrization``) only when a read needs a higher order, and
    each read is truncated at its own order; a series stops at the first
    order where it is not 0.  A polynomial psi is found exact once a lift's
    order passes the degree of g(psi, t), then read as sparse as it is.
    """
    weights, den = _weights(b)
    mult, inter = _contact(b.branches, weights, c)
    return Fraction(mult, den), Fraction(inter, den)


def _contact(branches: "list[Poly]", weights: "tuple[int, ...]",
             c: SmoothCurveGerm) -> "tuple[int, int]":
    """den * (mult_C B, (B' . C)), B = sum(weights[i]*(branches[i] = 0))/den;
    every analysis of C checks its type here."""
    if not isinstance(c, SmoothCurveGerm):
        raise InputError(f"expected a SmoothCurveGerm, got {type(c).__name__}")
    v = c.v
    mult = inter = 0
    if not v:  # C is x = 0: p = x^k * q, and q(0, t) has the order of q's least y-power
        for weight, p in zip(weights, branches):
            k, order = min(((j, i) for i, j in p.terms) if c.swapped else p.terms)
            mult += weight * k
            inter += weight * order
        return mult, inter
    h = _integer_terms(c.poly, c.swapped)
    lead = _reduced({v: -h[0, v]}, h[1, 0])
    # psi is lead iff g vanishes there; else one lift from psi = 0 below t^1, raised
    # in place when a read needs a higher order, serves every read, each truncated
    # at its own order
    lift = None if _substituted_order(h, lead, True) is None else CurveLift(
        h, 1, Series({}, 1), Series({0: 1}, h[1, 0]), False)
    for weight, p in zip(weights, branches):
        q = _integer_terms(p, c.swapped)
        n = _bezout(q, h) + 2 if lift else 0
        k = 0
        while True:
            order, read = _substituted_order(q, lead, lift is None), 1
            while order is None and read < n:
                read = min(2 * read, n)
                if lift.order < read:
                    lift = curve_parametrization(lift, read)
                order = min(_on_curve(q, lift.psi, read).num, default=None)
            if order is not None:
                break
            q, k = _d_dx(q), k + 1
        mult += weight * k
        inter += weight * order
    return mult, inter


def _bezout(p: IntTerms, g: IntTerms) -> int:
    """The lesser of two bounds on the local intersection at the origin of
    p and g when they share no component there: deg p * deg g, Bezout's
    number on P^2, and a*d + b*c for the bidegrees (a, b) of p and (c, d) of
    g, Bezout's number on P^1 x P^1 (Shafarevich, *Basic Algebraic Geometry
    1*, ch. IV).  Both hold for any factor of g, and for p's x-derivatives."""
    (a, b, e), (c, d, f) = ((max(i for i, _ in t), max(j for _, j in t),
                             max(i + j for i, j in t)) for t in (p, g))
    return min(e * f, a * d + b * c)


def local_intersection(b: DivisorGerm, c: SmoothCurveGerm) -> Fraction:
    """(B . C) at the origin, for B with no component on C."""
    mult, inter = contact_along_curve(b, c)
    if mult:
        raise DomainError("C is a component of B")
    return inter

