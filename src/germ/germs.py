"""Divisor germs and smooth curve germs on a smooth surface germ.

A divisor germ is a finite positive rational combination of polynomial
branches through the origin; a smooth curve germ is a single polynomial
with nonzero linear part.  This module extracts their Newton data and
computes the purely local quantities the invariant layer builds on:
the multiplicity of B along a curve C and the local intersection of the
C-free part of B with C, both read off one walk of x-derivatives along a
sparse power-series parametrization of C in its oriented frame, and the
Newton-nondegeneracy certificate that marks inputs whose toric invariants
are exact, read off the branches' initial forms along the face normals of
the divisor's one Newton polygon.

Polynomials (not power series) keep every computation exact and decidable.
Only the germ of a curve at the origin matters: a curve polynomial may
carry factors that do not vanish there, such as x + x*y for {x = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import DomainError, GermError, InputError
from .exactgeom import (
    IntVec,
    NewtonPolytope,
    face_normals,
    minkowski_sum,
    polytope_from_support,
    scale,
)
from .polys import (
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

    def max_coefficient(self) -> Fraction:
        return max((c for c, _ in self.components), default=Fraction(0))


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
    return _nondegeneracy(b, face_normals(newton_polytope(b)))


def _nondegeneracy(b: DivisorGerm, normals: "list[IntVec]") -> NondegeneracyReport:
    """The test along ``normals``, which must hold the compact-face normals
    of b's polygon, the union of its branches'; along any other normal every
    initial form is one term, which passes.  A face form f(u), f(0) != 0,
    steps by the gcd k of every branch's exponent gaps on the face: f(u^k)
    is squarefree, or shares a factor with g(u^k), iff f is, or does with g."""
    forms: "list[dict[IntVec, list[Fraction]]]" = [{} for _ in b.components]
    for n1, n2 in normals:
        faces = []  # each branch's terms of least n1*i + n2*j, keyed by i
        for _, p in b.components:
            level = min(n1 * i + n2 * j for i, j in p.terms)
            faces.append({i: c for (i, j), c in p.terms.items() if n1 * i + n2 * j == level})
        step = gcd(*(i - min(f) for f in faces for i in f))
        for fi, f in zip(forms, faces):
            if len(f) > 1:
                fi[n1, n2] = [f.get(i, Fraction(0)) for i in range(min(f), max(f) + 1, step)]
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            if not uni_is_squarefree(f):
                return NondegeneracyReport(False, (i,), n, "face form is not squarefree")
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            for j in range(i + 1, len(forms)):
                g = forms[j].get(n)
                if g is not None and not uni_coprime(f, g):
                    return NondegeneracyReport(
                        False, (i, j), n, "parallel face forms share a factor"
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
    rest = Poly(2, {e: c for e, c in g.terms.items() if e != (1, 0)})
    psi: dict[int, Fraction] = {}
    for _ in range(order + 1):
        new = {k: -v / lin for k, v in _on_curve(rest, psi, order).items()}
        if new == psi:
            return psi
        psi = new
    raise GermError("curve parametrization did not converge")


def _on_curve(p: Poly, psi: "dict[int, Fraction]", order: int) -> "dict[int, Fraction]":
    """p(psi(t), t) below ``order`` by Horner's rule in x; y = t is a shift.

    psi(0) = 0, so ``order`` products with psi empty any series, and the
    products stop once the series is empty (at once when psi = 0).
    """
    out: dict[int, Fraction] = {}
    top = max((i for i, _ in p.terms), default=0)
    for (i, j), c in sorted(p.terms.items(), reverse=True):
        out = _times_psi(out, psi, order, top - i)
        top = i
        out[j] = out.get(j, 0) + c
    out = _times_psi(out, psi, order, top)
    return {k: v for k, v in out.items() if v and k < order}


def _times_psi(
    s: "dict[int, Fraction]", psi: "dict[int, Fraction]", order: int, k: int
) -> "dict[int, Fraction]":
    """s * psi^k below ``order``."""
    for _ in range(min(k, order)):
        if not s:
            break
        s = series_mul(s, psi, order)
    return s


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

