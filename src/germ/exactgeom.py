"""Exact 2-D Newton polytope engine over the rationals, run on integers.

A Newton polytope here is the region ``conv(S) + Q`` where ``S`` is a
finite set of points in the closed first quadrant ``Q``.  It is stored
canonically as the chain of its vertices, ordered with x strictly increasing
and y strictly decreasing; its faces are the compact edges of the chain, and
its weights are finite.  The chain is kept as integer lattice points over
one positive denominator, in lowest terms, so construction, Minkowski sums,
support values and normals run in ``int`` arithmetic; two polytopes are
equal iff their chains are equal.  ``Fraction`` values appear only at the
edges: the ``vertices`` view and support values; faces are integer normals.

The module also walks the Klein sail of a rational cone in the first
quadrant: the bounded boundary of the convex hull of the cone's nonzero
lattice points, whose lattice points are the cone's Hilbert basis.  The
walk jumps one whole sail edge per step with one floor division, so a cone
of determinant d costs O(log d) steps (Oda, *Convex Bodies and Algebraic
Geometry*, 1.6; Fulton, *Introduction to Toric Varieties*, 2.6), with no
search bounds.  :func:`hilbert_runs` is that walk; :func:`hilbert_basis`
only expands its runs into points.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError
from .scalars import as_fraction


class Point2(NamedTuple):
    x: Fraction
    y: Fraction


def point(x: object, y: object) -> Point2:
    """Build a first-quadrant point with exact coordinates."""
    px, py = as_fraction(x), as_fraction(y)
    if px < 0 or py < 0:
        raise InputError(f"point ({px}, {py}) is outside the first quadrant")
    return Point2(px, py)


def as_pair(v: object) -> "tuple[object, object]":
    """The two entries of a tuple or list of length 2."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise InputError(f"expected a pair, got {v!r}")
    return v[0], v[1]


IntVec = tuple[int, int]


@dataclass(frozen=True, init=False)
class NewtonPolytope:
    """Vertex chain of ``conv(points) + first quadrant``, no redundancy.

    The vertices are ``lattice[i] / den``: integer points over one positive
    denominator, with the gcd of ``den`` and every coordinate equal to 1, so
    equal polytopes have equal fields.  The constructor takes and validates
    a chain of rational points; the engine's own results are checked alike.
    """

    lattice: tuple[IntVec, ...]
    den: int

    def __init__(self, vertices: Sequence[Point2]) -> None:
        _set_chain(self, *_clear_denominators(vertices))

    @property
    def vertices(self) -> tuple[Point2, ...]:
        """The chain as exact rational points."""
        d = self.den
        return tuple(Point2(Fraction(x, d), Fraction(y, d)) for x, y in self.lattice)

    def lattice_min(self, w: IntVec) -> int:
        """den times the support value of the integer weight w: the least
        <w, v> over the lattice vertices."""
        w1, w2 = w
        return min(w1 * x + w2 * y for x, y in self.lattice)

    def __repr__(self) -> str:
        pts = ", ".join(f"({v.x}, {v.y})" for v in self.vertices)
        return f"NewtonPolytope[{pts}]"


class Weight(NamedTuple):
    """Primitive positive integer weight of a monomial valuation."""

    w1: int
    w2: int


def make_weight(w1: int, w2: int) -> Weight:
    if not (isinstance(w1, int) and isinstance(w2, int)) or w1 < 1 or w2 < 1:
        raise InputError(f"weight ({w1}, {w2}) must be a pair of positive integers")
    if gcd(w1, w2) != 1:
        raise InputError(f"weight ({w1}, {w2}) is not primitive")
    return Weight(w1, w2)


@dataclass(frozen=True)
class Cone2:
    """Rational cone in the closed first quadrant, spanned by two primitive
    integer vectors (equal generators give a single ray)."""

    g1: IntVec
    g2: IntVec

    def __post_init__(self) -> None:
        for g in (self.g1, self.g2):
            if _primitive(g) != tuple(g):
                raise InputError(f"generator {g} is not primitive")


def cone(g1: Sequence[int], g2: Sequence[int]) -> Cone2:
    """Build a cone from (possibly imprimitive) integer generators."""
    return Cone2(_primitive(g1), _primitive(g2))


# ---------------------------------------------------------------------------
# construction


def _clear_denominators(points: Iterable[Sequence[object]]) -> "tuple[list[IntVec], int]":
    """Integer numerators of the points over their least common denominator."""
    if not isinstance(points, Iterable):
        raise InputError(f"expected a sequence of points, got {points!r}")
    fracs = [(as_fraction(x), as_fraction(y)) for x, y in map(as_pair, points)]
    den = lcm(*(c.denominator for v in fracs for c in v))
    return [(x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
            for x, y in fracs], den


def _check_chain(lattice: Sequence[IntVec], den: int) -> None:
    """Raise unless the points form a valid chain: nonempty, in the first
    quadrant, x increasing and y decreasing, strictly convex."""
    if not lattice:
        raise InputError("polytope needs at least one vertex")
    for x, y in lattice:
        if x < 0 or y < 0:
            raise InputError(f"vertex ({Fraction(x, den)}, {Fraction(y, den)}) "
                             "outside the first quadrant")
    for a, b in zip(lattice, lattice[1:]):
        if not (a[0] < b[0] and a[1] > b[1]):
            raise InputError("vertices must have x increasing, y decreasing")
    for a, b, c in zip(lattice, lattice[1:], lattice[2:]):
        if _cross(a, b, c) <= 0:
            raise InputError("boundary must be strictly convex (no collinear vertex)")


def _set_chain(p: NewtonPolytope, lattice: Sequence[IntVec], den: int) -> NewtonPolytope:
    """Give p the checked chain ``lattice[i] / den``, in lowest terms: the
    one place where a polytope's fields are set."""
    if den != 1:
        g = gcd(den, *(c for v in lattice for c in v))
        if g != 1:
            den //= g
            lattice = [(x // g, y // g) for x, y in lattice]
    _check_chain(lattice, den)
    object.__setattr__(p, "lattice", tuple(lattice))
    object.__setattr__(p, "den", den)
    return p


def _polytope(lattice: Sequence[IntVec], den: int) -> NewtonPolytope:
    """The polytope with vertices ``lattice[i] / den``, without the
    rational round trip of the public constructor."""
    return _set_chain(object.__new__(NewtonPolytope), lattice, den)


def polytope_from_support(support: Iterable[Sequence[object]]) -> NewtonPolytope:
    """Vertex chain of ``conv(union of p + first quadrant)`` over the support.

    The points may be ``Point2`` values or plain pairs, such as the integer
    exponent pairs of a polynomial.  Dominated points (some other point is
    <= componentwise) and collinear points are eliminated, so the result is
    canonical.
    """
    lattice, den = _clear_denominators(support)
    if not lattice:
        raise InputError("empty support")
    pts = sorted(set(lattice))
    for x, y in pts:
        if x < 0 or y < 0:
            raise InputError(f"support point ({Fraction(x, den)}, {Fraction(y, den)}) "
                             "outside the first quadrant")

    # Pareto staircase: among equal x keep min y, then require y to drop.
    frontier: list[IntVec] = []
    for p in pts:
        if frontier and (frontier[-1][0] == p[0] or p[1] >= frontier[-1][1]):
            continue  # same x with larger y, or dominated by an earlier point
        frontier.append(p)

    # Lower convex hull of the staircase (monotone chain).
    chain: list[IntVec] = []
    for p in frontier:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return _polytope(chain, den)


def _cross(a: IntVec, b: IntVec, c: IntVec) -> int:
    """Cross product of (b - a) and (c - b); > 0 keeps the chain convex."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def scale(polytope: NewtonPolytope, c: object) -> NewtonPolytope:
    """Dilate by a positive rational factor (pointwise on vertices)."""
    factor = as_fraction(c)
    if factor <= 0:
        raise InputError(f"scale factor must be positive, got {factor}")
    n = factor.numerator
    return _polytope([(x * n, y * n) for x, y in polytope.lattice],
                     polytope.den * factor.denominator)


def minkowski_sum(p: NewtonPolytope, q: NewtonPolytope) -> NewtonPolytope:
    """Minkowski sum of two Newton polytopes.

    The boundary of the sum is the boundary edges of both summands glued in
    order of decreasing slope, starting from the sum of the two topmost
    vertices; parallel edges merge into a single longer face.  Both chains
    go over the lcm of the two denominators; each summand's edges are
    already in slope order, so one merge by cross-multiplication glues them.
    """
    den = lcm(p.den, q.den)
    kp, kq = den // p.den, den // q.den
    a, b = _edges(p, kp), _edges(q, kq)
    x = kp * p.lattice[0][0] + kq * q.lattice[0][0]
    y = kp * p.lattice[0][1] + kq * q.lattice[0][1]
    chain = [(x, y)]
    i = j = 0
    while i < len(a) or j < len(b):
        # edges (dx, dy) have dx > 0 > dy, and the steeper has the smaller
        # dy/dx: order < 0 takes a[i], order > 0 takes b[j] and order == 0
        # merges the parallel pair
        if j == len(b):
            order = -1
        elif i == len(a):
            order = 1
        else:
            order = a[i][1] * b[j][0] - b[j][1] * a[i][0]
        dx = dy = 0
        if order <= 0:
            dx, dy = a[i]
            i += 1
        if order >= 0:
            dx, dy = dx + b[j][0], dy + b[j][1]
            j += 1
        x, y = x + dx, y + dy
        chain.append((x, y))
    return _polytope(chain, den)


def _edges(p: NewtonPolytope, k: int) -> "list[IntVec]":
    """The boundary edges of the chain, times k, left to right."""
    vs = p.lattice
    return [(k * (b[0] - a[0]), k * (b[1] - a[1])) for a, b in zip(vs, vs[1:])]


# ---------------------------------------------------------------------------
# support values and face normals


def support_value(polytope: NewtonPolytope, w: Sequence[object]) -> Fraction:
    """min over the polytope of <w, .>, i.e. min over its vertices.

    The weight is a pair of rationals in the closed first quadrant, not both
    zero.
    """
    w1, w2 = map(as_fraction, as_pair(w))
    if w1 < 0 or w2 < 0:
        raise InputError(f"weight {w} has a negative coordinate")
    if w1 == 0 and w2 == 0:
        raise InputError("weight must be nonzero")
    # <(n1/d1, n2/d2), v/den> = <(n1*d2, n2*d1), v> / (d1*d2*den)
    n1, d1, n2, d2 = w1.numerator, w1.denominator, w2.numerator, w2.denominator
    return Fraction(polytope.lattice_min((n1 * d2, n2 * d1)), d1 * d2 * polytope.den)


def face_normals(polytope: NewtonPolytope) -> list[IntVec]:
    """Primitive inner normals of the compact faces, left to right."""
    out: list[IntVec] = []
    vs = polytope.lattice
    for a, b in zip(vs, vs[1:]):
        n1, n2 = a[1] - b[1], b[0] - a[0]
        g = gcd(n1, n2)
        out.append((n1 // g, n2 // g))
    return out


# ---------------------------------------------------------------------------
# Hilbert bases


def _primitive(v: Sequence[int]) -> IntVec:
    """Primitive generator of the ray of a nonzero first-quadrant vector."""
    a, b = as_pair(v)
    if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
        raise InputError(f"cone generator {v!r} is not a first-quadrant integer vector")
    g = gcd(a, b)
    if g == 0:
        raise InputError("cone generator cannot be zero")
    return (a // g, b // g)


def _det(u: IntVec, v: IntVec) -> int:
    return u[0] * v[1] - u[1] * v[0]


class Run(NamedTuple):
    """One sail edge: the lattice points start + j*step for 0 <= j <= count."""

    start: IntVec
    step: IntVec
    count: int

    def point(self, j: int) -> IntVec:
        return (self.start[0] + j * self.step[0], self.start[1] + j * self.step[1])


def hilbert_runs(c: Cone2) -> list[Run]:
    """The Klein sail of the cone as runs, from one generator to the other.

    Consecutive runs share an endpoint; a single ray is one run of count 0.
    From ``u`` the sail goes to its neighbour ``w`` toward ``v`` (the
    minimal lattice point with det(u, w) = 1 inside the cone), and with
    step = w - u every u + j*step has neighbour u + (j + 1)*step while that
    point stays in the cone: det(u + j*step, v) = d - j*det(v, step), where
    d = det(u, v) and det(v, step) = d - det(w, v) lies in [1, d].  So the
    run has count d // det(v, step), and det(end, v) = d mod det(v, step)
    is below d/2: at most log2(d) + 1 runs reach det = 0, at v.
    """
    u, v = c.g1, c.g2
    d = _det(u, v)
    if d == 0:
        return [Run(u, (0, 0), 0)]  # single ray (generators equal after primitivization)
    if d < 0:
        u, v = v, u
        d = -d
    runs: list[Run] = []
    while d > 0:
        w = _boundary_neighbour(u, v, d)
        step = (w[0] - u[0], w[1] - u[1])
        run = Run(u, step, d // (d - _det(w, v)))
        runs.append(run)
        u = run.point(run.count)
        d = _det(u, v)
    return runs


def hilbert_basis(c: Cone2) -> list[IntVec]:
    """Minimal generating set of the monoid of lattice points of the cone,
    in order from one generator to the other: the lattice points of the
    runs of :func:`hilbert_runs`, each shared endpoint once.  Consecutive
    sail points span unimodular cones, so these are exactly the
    irreducible elements."""
    runs = hilbert_runs(c)
    return [runs[0].start] + [r.point(j) for r in runs for j in range(1, r.count + 1)]


def _boundary_neighbour(u: IntVec, v: IntVec, d: int) -> IntVec:
    """Lattice point adjacent to ``u`` on the hull boundary toward ``v``.

    Solutions of det(u, z) = 1 form the line z0 + t*u; the neighbour is the
    solution with minimal t lying inside cone(u, v).
    """
    a, b = u
    alpha, beta = _extended_gcd(a, b)  # a*alpha + b*beta == 1
    z0 = (-beta, alpha)
    # need det(z, v) >= 0:  t >= -det(z0, v) / d
    t_min = -(_det(z0, v) // d)
    return (z0[0] + t_min * a, z0[1] + t_min * b)


def _extended_gcd(a: int, b: int) -> IntVec:
    """(x, y) with a*x + b*y = gcd(a, b), for a, b >= 0 coprime here."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_x, x = x, old_x - qq * x
        old_y, y = y, old_y - qq * y
    return (old_x, old_y)

