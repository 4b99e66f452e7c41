"""Divisor germs and smooth curve germs on a smooth surface germ.

A divisor germ is a finite positive rational combination of polynomial
branches through the origin; a smooth curve germ is a single polynomial
with nonzero linear part.  This module extracts their Newton data and
computes the purely local quantities the invariant layer builds on:
the multiplicity of B along a curve C and the local intersection of the
C-free part of B with C, both read off one walk of x-derivatives along a
sparse power-series parametrization of C in its oriented frame, and the
Newton-nondegeneracy certificate that marks inputs whose toric invariants
are exact.

Polynomials (not power series) keep every computation exact and decidable.
Only the germ of a curve at the origin matters: a curve polynomial may
carry factors that do not vanish there, such as x + x*y for {x = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import DomainError, GermError, InputError
from .exactgeom import (
    Face,
    NewtonPolytope,
    compact_faces,
    minkowski_sum,
    point,
    polytope_from_support,
    scale,
    slope,
    support_value,
)
from .polys import (
    Poly,
    parse_poly,
    parse_weighted_terms,
    render_poly,
    render_weighted_terms,
    series_mul,
    uni_coprime,
    uni_is_squarefree,
    uni_trim,
)
from .scalars import Extended, POS_INF, is_infinite

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
    "newton_intersection_bound",
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

    def max_coefficient(self) -> Fraction:
        return max((c for c, _ in self.components), default=Fraction(0))


def divisor(components: "list[tuple[object, Poly]]") -> DivisorGerm:
    return DivisorGerm(tuple((Fraction(c), p) for c, p in components))  # type: ignore[arg-type]


def parse_divisor(text: str, variables: "tuple[str, str]" = ("x", "y")) -> DivisorGerm:
    """Parse ``coeff*(poly) + coeff*(poly) + ...``, order preserved."""
    return DivisorGerm(tuple(parse_weighted_terms(text, variables)))


def render_divisor(b: DivisorGerm, variables: "tuple[str, str]" = ("x", "y")) -> str:
    return render_weighted_terms(b.components, variables)


@dataclass(frozen=True)
class SmoothCurveGerm:
    """Curve germ smooth at the origin, in its original coordinates.

    ``swapped`` records whether exchanging the two coordinates is needed to
    make the pure first-variable monomial appear; after that orientation the
    Newton diagram has vertices (1, 0) and (0, b) with ``b`` the tangency
    invariant (symbolically +inf when no pure power of the second variable
    occurs, i.e. the curve is a coordinate axis up to a unit).

    This orientation is also the parametrization frame: ``oriented_poly()``
    is solved for x as a power series in y.
    """

    poly: Poly
    swapped: bool
    b_invariant: Extended  # positive integer as Fraction, or +inf

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
    swapped = cx == 0
    oriented = _transpose(g) if swapped else g
    diagram = newton_polytope_of_poly(oriented)
    if diagram.x_min == 0:
        b: Extended = diagram.top.y
    else:
        b = POS_INF
    return SmoothCurveGerm(g, swapped, b)


def _transpose(p: Poly) -> Poly:
    return Poly(2, {(j, i): c for (i, j), c in p.terms.items()})


# ---------------------------------------------------------------------------
# Newton data


def newton_polytope_of_poly(p: Poly) -> NewtonPolytope:
    if p.is_zero:
        raise InputError("zero polynomial has no Newton polytope")
    return polytope_from_support([point(i, j) for (i, j) in p.terms])


def newton_polytope(b: DivisorGerm) -> NewtonPolytope:
    """Coefficient-weighted Minkowski combination of the branch polytopes."""
    if b.is_empty:
        raise InputError("empty divisor has no Newton polytope")
    parts = [scale(newton_polytope_of_poly(p), coeff) for coeff, p in b.components]
    return reduce(minkowski_sum, parts)


@dataclass(frozen=True)
class NondegeneracyReport:
    """Outcome of the Newton-nondegeneracy test.

    The test is sufficient, not necessary: every compact face form of every
    branch must be squarefree off the axes, and branches with parallel
    compact faces must have coprime face forms.  A ``degenerate`` verdict
    carries the offending component indices and face.
    """

    nondegenerate: bool
    component_indices: "tuple[int, ...]" = ()
    face: Face | None = None
    reason: str = ""

    @property
    def verdict(self) -> str:
        return "nondegenerate" if self.nondegenerate else "degenerate"


def _face_form(p: Poly, face: Face) -> "list[Fraction]":
    """Dehomogenized restriction of ``p`` to a compact face of its diagram.

    With primitive normal (a, b), lattice points of the face are spaced by
    the direction (b, -a); the coefficient at step k becomes the u^k
    coefficient of a univariate polynomial.
    """
    s = slope(face)
    a, b = s.numerator, s.denominator
    left = face.left
    coeffs: dict[int, Fraction] = {}
    for (i, j), c in p.terms.items():
        if a * i + b * j == a * left.x + b * left.y:  # on the face line
            coeffs[int((i - left.x) / b)] = c  # b divides i - left.x: gcd(a, b) = 1
    out = [Fraction(0)] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return uni_trim(out)


def nondegeneracy_check(b: DivisorGerm) -> NondegeneracyReport:
    if b.is_empty:
        raise InputError("empty divisor")
    per_face: "list[tuple[int, Face, tuple[int, int], list[Fraction]]]" = []
    for idx, (_, p) in enumerate(b.components):
        for face in compact_faces(newton_polytope_of_poly(p)):
            s = slope(face)
            form = _face_form(p, face)
            if not uni_is_squarefree(form):
                return NondegeneracyReport(
                    False, (idx,), face, "face form is not squarefree"
                )
            per_face.append((idx, face, (s.numerator, s.denominator), form))
    for n, (i, face_i, normal_i, form_i) in enumerate(per_face):
        for j, face_j, normal_j, form_j in per_face[n + 1:]:
            if i != j and normal_i == normal_j and not uni_coprime(form_i, form_j):
                return NondegeneracyReport(
                    False, (i, j), face_i, "parallel face forms share a factor"
                )
    return NondegeneracyReport(True)


# ---------------------------------------------------------------------------
# multiplicities and intersections


def curve_parametrization(g: Poly, order: int) -> "dict[int, Fraction]":
    """Sparse series psi, truncated below ``order``, with g(psi(t), t) = 0.

    ``g`` is in ``curve_orient``'s frame: through the origin, with x-linear
    coefficient lin != 0.  Each exact pass psi -> -(g - lin*x)(psi, t) / lin
    gains an order; psi is fixed iff the residual g(psi, t) = lin*(psi - new) is 0.
    """
    lin = g.coefficient((1, 0))
    if lin == 0 or g.constant_term() != 0:
        raise InputError("curve needs an x-linear term and must pass through the origin")
    rest = g - Poly(2, {(1, 0): lin})
    psi: dict[int, Fraction] = {}
    for _ in range(order + 1):
        new = {k: -v / lin for k, v in _on_curve(rest, psi, order).items()}
        if new == psi:
            return psi
        psi = new
    raise GermError("curve parametrization did not converge")


def _on_curve(p: Poly, psi: "dict[int, Fraction]", order: int) -> "dict[int, Fraction]":
    """p(psi(t), t) below ``order`` by Horner's rule in x; y = t is a shift.

    psi(0) = 0, so ``order`` products with psi empty any series.
    """
    out: dict[int, Fraction] = {}
    top = max((i for i, _ in p.terms), default=0)
    for (i, j), c in sorted(p.terms.items(), reverse=True):
        for _ in range(min(top - i, order)):
            out = series_mul(out, psi, order)
        top = i
        out[j] = out.get(j, 0) + c
    for _ in range(min(top, order)):
        out = series_mul(out, psi, order)
    return {k: v for k, v in out.items() if v and k < order}


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
    """
    if b.is_empty:
        return Fraction(0), Fraction(0)
    max_deg = max(p.total_degree() for _, p in b.components)
    n = max_deg * c.poly.total_degree() + 2
    psi = curve_parametrization(c.oriented_poly(), n)
    mult = inter = Fraction(0)
    for coeff, p in b.components:
        p = _transpose(p) if c.swapped else p
        k = 0
        while not (values := _on_curve(p, psi, n)):
            p = Poly(2, {(i - 1, j): i * v for (i, j), v in p.terms.items() if i})
            k += 1
        mult += coeff * k
        inter += coeff * min(values)
    return mult, inter


def local_intersection(b: DivisorGerm, c: SmoothCurveGerm) -> Fraction:
    """(B . C) at the origin, for B with no component on C."""
    mult, inter = contact_along_curve(b, c)
    if mult:
        raise DomainError("C lies on a branch: its series is 0 below the Bezout truncation")
    return inter


def newton_intersection_bound(b: DivisorGerm, c: SmoothCurveGerm) -> Extended:
    """<(b, 1), Newton diagram of B> in the curve's oriented coordinates.

    This is the combinatorial lower bound for (B . C): tangency weight on
    the coordinate the curve is tangent to, with the +inf * 0 = 0 rule when
    the curve is an axis."""
    if b.is_empty:
        return Fraction(0)
    w = (c.b_invariant, Fraction(1))
    if c.swapped:
        w = (w[1], w[0])
    return support_value(newton_polytope(b), w)
