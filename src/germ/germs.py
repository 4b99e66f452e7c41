"""Divisor germs and smooth curve germs on a smooth surface germ.

A divisor germ is a finite positive rational combination of polynomial
branches through the origin; a smooth curve germ is a single polynomial
with nonzero linear part.  This module extracts their Newton data and
computes the purely local quantities the invariant layer builds on:

- the multiplicity of B along a curve C and the local intersection of the
  C-free part of B with C, both read off one walk of x-derivatives along
  the root x = psi(t) of C in its oriented frame.  When psi is exact and
  one term (a/den)*t^e or 0, as on y, x + y and y - x^k, each derivative
  is evaluated by substitution: its terms land at t^(i*e + j), are summed
  group by group in increasing order, and the first nonzero group is the
  answer, so no power of psi past it is built.  Any other psi goes
  through Horner's rule on series kept as ``int`` numerators over one
  denominator, with no ``Fraction`` per coefficient.  That psi is lifted
  by Newton's iteration, doubling its order each pass, and powers of psi
  come by repeated squaring, skipped at once when their valuation passes
  the truncation.  An exact polynomial root is read once at the Bezout
  order; any other psi stops each series at the first doubled order below
  which it is not 0;
- the Newton-nondegeneracy certificate that marks inputs whose toric
  invariants are exact, read off the branches' initial forms along the
  face normals of the divisor's one Newton polygon.  Binomial forms are
  decided on their exponents and coefficients; only forms of three or more
  terms go through a dense gcd, and only up to ``DENSE_FORM_LIMIT``
  entries.

Polynomials (not power series) keep every computation exact and decidable.
Only the germ of a curve at the origin matters: a curve polynomial may
carry factors that do not vanish there, such as x + x*y for {x = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import groupby
from math import gcd, lcm
from typing import NamedTuple

from .errors import DomainError, InputError
from .exactgeom import (
    IntVec,
    NewtonPolytope,
    face_normals,
    minkowski_sum,
    polytope_from_support,
    scale,
)
from .polys import (
    ZERO,
    Poly,
    parse_weighted_terms,
    render_weighted_terms,
    series_mul,
    uni_coprime,
    uni_is_squarefree,
)

__all__ = [
    "DivisorGerm",
    "SmoothCurveGerm",
    "NondegeneracyReport",
    "parse_divisor",
    "divisor",
    "newton_polytope",
    "newton_polytope_of_poly",
    "nondegeneracy_check",
    "contact_along_curve",
    "local_intersection",
    "curve_orient",
    "render_divisor",
]


@dataclass(frozen=True)
class DivisorGerm:
    """B = sum of coeff_i * (poly_i = 0) with positive rational coefficients.

    Every branch polynomial vanishes at the origin.  The empty divisor is
    allowed (it arises when all components of B lie on a curve that gets
    removed); operations that need Newton data reject it.
    """

    components: tuple[tuple[Fraction, Poly], ...]

    def __post_init__(self) -> None:
        for coeff, p in self.components:
            if coeff <= 0:
                raise InputError(f"non-positive coefficient {coeff}")
            if p.nvars != 2:
                raise InputError("divisor components must be bivariate")
            if p.is_zero:
                raise InputError("zero polynomial cannot define a component")
            if p.constant_term() != 0:
                raise InputError("component does not pass through the origin")

    def __add__(self, other: "DivisorGerm") -> "DivisorGerm":
        return DivisorGerm(self.components + other.components)

    @property
    def is_empty(self) -> bool:
        return not self.components

    @property
    def branches(self) -> "list[Poly]":
        """The branch polynomials, in order, without their coefficients."""
        return [p for _, p in self.components]

    def max_coefficient(self) -> Fraction:
        return max((c for c, _ in self.components), default=ZERO)


def divisor(components: "list[tuple[object, Poly]]") -> DivisorGerm:
    return DivisorGerm(tuple((Fraction(c), p) for c, p in components))  # type: ignore[arg-type]


def parse_divisor(text: str) -> DivisorGerm:
    """Parse ``coeff*(poly) + coeff*(poly) + ...``, order preserved."""
    return DivisorGerm(tuple(parse_weighted_terms(text)))


def render_divisor(b: DivisorGerm) -> str:
    return render_weighted_terms(b.components)


@dataclass(frozen=True)
class SmoothCurveGerm:
    """Curve germ smooth at the origin, in its original coordinates.

    ``swapped`` records whether the two coordinates are exchanged to give
    ``oriented_poly()`` a nonzero x-linear term.  That orientation is the
    parametrization frame: ``oriented_poly()`` is solved for x as a power
    series in y.
    """

    poly: Poly
    swapped: bool

    def oriented_poly(self) -> Poly:
        return _transpose(self.poly) if self.swapped else self.poly


def curve_orient(g: Poly) -> SmoothCurveGerm:
    """Validate smoothness and compute the orientation data of a curve."""
    if g.nvars != 2:
        raise InputError("curve polynomial must be bivariate")
    if g.is_zero or g.constant_term() != 0:
        raise InputError("curve does not pass through the origin")
    cx, cy = g.coefficient((1, 0)), g.coefficient((0, 1))
    if cx == 0 and cy == 0:
        raise InputError("curve is singular at the origin (zero linear part)")
    return SmoothCurveGerm(g, cx == 0)


def _transpose(p: Poly) -> Poly:
    return Poly(2, {(j, i): c for (i, j), c in p.terms.items()})


# ---------------------------------------------------------------------------
# Newton data


def newton_polytope_of_poly(p: Poly) -> NewtonPolytope:
    if p.is_zero:
        raise InputError("zero polynomial has no Newton polytope")
    return polytope_from_support(p.terms)


def newton_polytope(b: DivisorGerm) -> NewtonPolytope:
    """Coefficient-weighted Minkowski combination of the branch polytopes."""
    if b.is_empty:
        raise InputError("empty divisor has no Newton polytope")
    parts = [scale(newton_polytope_of_poly(p), coeff) for coeff, p in b.components]
    return reduce(minkowski_sum, parts)


@dataclass(frozen=True)
class NondegeneracyReport:
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
    if b.is_empty:
        raise InputError("empty divisor")
    return _nondegeneracy(b.branches, face_normals(newton_polytope(b)))


def _nondegeneracy(branches: "list[Poly]", normals: "list[IntVec]") -> NondegeneracyReport:
    """The test on the branch polynomials of a divisor along ``normals``,
    which must hold the compact-face normals of its polygon, the union of
    its branches'; along any other normal every initial form is one term,
    which passes.  A face form f(u), f(0) != 0, steps by the gcd k of every
    branch's exponent gaps on the face: f(u^k) is squarefree, or shares a
    factor with g(u^k), iff f is, or does with g.  Forms are sparse,
    u-exponent -> coefficient; a binomial is squarefree, and only forms of
    three or more terms go through the dense ``uni_*``, up to
    ``DENSE_FORM_LIMIT`` entries."""
    forms: "list[dict[IntVec, dict[int, Fraction]]]" = [{} for _ in branches]
    for n1, n2 in normals:
        faces = []  # each branch's terms of least n1*i + n2*j, keyed by i
        for p in branches:
            level = min(n1 * i + n2 * j for i, j in p.terms)
            faces.append({i: c for (i, j), c in p.terms.items() if n1 * i + n2 * j == level})
        step = gcd(*(i - min(f) for f in faces for i in f))
        for fi, f in zip(forms, faces):
            if len(f) > 1:
                low = min(f)
                fi[n1, n2] = {(i - low) // step: c for i, c in f.items()}
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            if len(f) > 2 and not uni_is_squarefree(_dense(f)):
                return NondegeneracyReport(False, (i,), n, "face form is not squarefree")
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            for j in range(i + 1, len(forms)):
                g = forms[j].get(n)
                if g is not None and _share_factor(f, g):
                    return NondegeneracyReport(
                        False, (i, j), n, "parallel face forms share a factor"
                    )
    return NondegeneracyReport(True)


#: The longest dense list, in entries, that a face form of three or more
#: terms, or a form paired with one, becomes for the ``uni_*`` gcd, whose
#: Fraction Euclid is quadratic in the length.
DENSE_FORM_LIMIT = 1024


def _dense(f: "dict[int, Fraction]") -> "list[Fraction]":
    if max(f) >= DENSE_FORM_LIMIT:
        raise InputError(f"a face form of u-degree {max(f)} would be a dense list past "
                         f"the limit of {DENSE_FORM_LIMIT} entries")
    return [f.get(i, ZERO) for i in range(max(f) + 1)]


def _share_factor(f: "dict[int, Fraction]", g: "dict[int, Fraction]") -> bool:
    """Whether two face forms with nonzero constant terms share a factor.

    Binomials are decided on their exponents, as gcd(m, k) reduces: with
    e = gcd(m, k), c0 + c1*u^m and d0 + d1*u^k share a root iff their roots
    a = -c0/c1 of u^m and b = -d0/d1 of u^k have a^(k/e) = b^(m/e).  Then
    w = a^s * b^(-t), for s*m - t*k = e, has w^(m/e) = a and w^(k/e) = b,
    and any e-th root of w is a root of both.
    """
    if len(f) > 2 or len(g) > 2:
        return not uni_coprime(_dense(f), _dense(g))
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


def _integer_terms(p: Poly) -> IntTerms:
    """D * p, D the lcm of p's denominators."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in p.terms.items()}


def _d_dx(p: IntTerms) -> IntTerms:
    return {(i - 1, j): i * c for (i, j), c in p.items() if i}


def _reduced(num: "dict[int, int]", den: int) -> Series:
    common = gcd(den, *num.values())
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
    """The root x = psi(t) of a curve whose cleared terms are ``h``.  Either
    psi is known below ``order``, with ``inverse`` = 1/h_x(psi, t) below
    ``order``, or ``exact``: psi is a polynomial with h(psi, t) = 0."""

    h: IntTerms
    order: int
    psi: Series
    inverse: Series
    exact: bool


def curve_parametrization(g: Poly, order: int, lift: "CurveLift | None" = None) -> CurveLift:
    """The root x = psi(t) of g, known below ``order`` or exact.

    ``g`` is in ``curve_orient``'s frame: through the origin, with x-linear
    coefficient lin != 0.  The first guess is psi = -(the x-free part of g)
    / lin; if g vanishes on it, psi is exact.  Otherwise Newton's iteration
    lifts psi from psi = 0 below t^1, where inverse = 1/lin, doubling the
    order each pass (Brent and Kung, JACM 1978):
        psi <- psi - inverse*g(psi, t),
        inverse <- inverse*(2 - g_x(psi, t)*inverse),
    both truncated at the new order.  A pass whose residual g(psi, t) is 0
    below it tests whether psi is exact.  Given ``lift``, the lifting goes
    on from it, so each lift is made once.
    """
    if lift is None:
        if g.coefficient((1, 0)) == 0 or g.constant_term() != 0:
            raise InputError("curve needs an x-linear term and must pass through the origin")
        h = _integer_terms(g)
        guess = _reduced({j: -c for (i, j), c in h.items() if i == 0}, h[1, 0])
        if _is_root(h, guess):
            return CurveLift(h, order, guess, _ONE, True)
        lift = CurveLift(h, 1, Series({}, 1), Series({0: 1}, h[1, 0]), False)
    h, known, psi, inverse, exact = lift
    dh = _d_dx(h)
    while not exact and known < order:
        known = min(2 * known, order)
        residual = _on_curve(h, psi, known)
        exact = not residual.num and _is_root(h, psi)
        if not exact:
            psi = _difference(psi, _product(inverse, residual, known))
            excess = _difference(_product(_on_curve(dh, psi, known), inverse, known), _ONE)
            inverse = _difference(inverse, _product(inverse, excess, known))
    return CurveLift(h, known, psi, inverse, exact)


def _is_root(h: IntTerms, psi: Series) -> bool:
    """h(psi(t), t) = 0 for a polynomial psi: by substitution when psi is
    one term or 0, else evaluated to its full degree."""
    if len(psi.num) <= 1:
        return _substituted_order(h, psi) is None
    top = max(psi.num)
    return not _on_curve(h, psi, max(i * top + j for i, j in h) + 1).num


def _substituted_order(p: IntTerms, psi: Series) -> "int | None":
    """The order of p(psi(t), t) for psi = (a/den)*t^e or 0, None if it is 0.

    The term c*x^i*y^j lands at t^(i*e + j) with the value c*(a/den)^i.  The
    terms are visited in increasing i*e + j and each group is summed, scaled
    by den^hi / a^lo for its least and largest i, so the walk builds no power
    of psi past the answer's order, and none for a group of one term."""
    if not psi.num:  # only the x-free terms survive
        return min((j for i, j in p if not i), default=None)
    ((e, a),) = psi.num.items()
    den = psi.den
    for k, group in groupby(sorted((i * e + j, i, c) for (i, j), c in p.items()),
                            key=lambda term: term[0]):
        group = list(group)
        lo, hi = group[0][1], group[-1][1]
        if len(group) == 1 or sum(c * a ** (i - lo) * den ** (hi - i) for _, i, c in group):
            return k
    return None


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

    The curve is x = psi(t), y = t in the frame of ``c.oriented_poly()``, and
    each branch p, transposed when ``c.swapped``, is evaluated on it with its
    x-derivatives p, dp/dx, d2p/dx2, ... until one is not 0 on C.  If that is
    the k-th, the branch adds coeff*k to mult_C B and coeff times the order
    of that series to (B' . C).  This is exact: dc/dx is a unit on C (its
    constant term is the x-linear coefficient), so if p = c^k * q near the
    origin with C not dividing q, then the j-th derivative vanishes on C for
    j < k and the k-th is k! * (dc/dx)^k * q there, of order (q . C).  A
    derivative that is not 0 on C meets it in at most the product of the
    degrees, so a series that is 0 below n = max deg B * deg C + 2 is 0 on C.
    The walk stops by the (deg_x p)-th derivative, a nonzero polynomial in y.

    An exact psi of one term or 0 is substituted, lowest order first (see
    ``_substituted_order``), with no truncation: the value is a polynomial
    in t.  Otherwise the series are ``int`` numerators over one denominator
    (see ``curve_parametrization``).  Any other exact psi is read once below
    n.  A psi that is not exact is lifted along the orders 2, 4, 8, ..., n,
    each lift made once and shared by every branch and derivative, and a
    series stops at the first of these orders below which it is not 0: its
    lowest term is then found, and n is reached only by series that are 0
    on C.
    """
    mult = inter = ZERO
    if b.is_empty:
        return mult, inter
    max_deg = max(p.total_degree() for _, p in b.components)
    n = max_deg * c.poly.total_degree() + 2
    g = c.oriented_poly()
    lifts = [curve_parametrization(g, 2)]
    for coeff, p in b.components:
        q = _integer_terms(p)
        if c.swapped:
            q = {(j, i): v for (i, j), v in q.items()}
        k = 0
        while (order := _first_order(q, g, lifts, n)) is None:
            q = _d_dx(q)
            k += 1
        if k:
            mult += coeff * k
        inter += coeff * order
    return mult, inter


def _first_order(p: IntTerms, g: Poly, lifts: "list[CurveLift]", n: int) -> "int | None":
    """The order of p on the curve, None if p is 0 on it.  An exact psi of
    one term or 0 is substituted; any other psi is read below the first
    order of the lifts at which p is not 0, or below n, and ``lifts`` is
    extended in place, one doubling at a time."""
    i = 0
    while not (lifts[i].exact or lifts[i].order >= n):
        if values := _on_curve(p, lifts[i].psi, lifts[i].order).num:
            return min(values)
        i += 1
        if i == len(lifts):
            lifts.append(curve_parametrization(g, min(2 * lifts[-1].order, n), lifts[-1]))
    lift = lifts[i]
    if lift.exact and len(lift.psi.num) <= 1:
        return _substituted_order(p, lift.psi)
    return min(_on_curve(p, lift.psi, n).num, default=None)


def local_intersection(b: DivisorGerm, c: SmoothCurveGerm) -> Fraction:
    """(B . C) at the origin, for B with no component on C."""
    mult, inter = contact_along_curve(b, c)
    if mult:
        raise DomainError("C lies on a branch: its series is 0 below the Bezout truncation")
    return inter

