"""Exact 2-D Newton polytope engine over the rationals.

A Newton polytope here is the unbounded region ``conv(S) + Q`` where ``S``
is a finite set of points in the closed first quadrant ``Q``.  It is stored
canonically as the chain of its vertices, ordered with x strictly increasing
and y strictly decreasing; the two non-compact boundary rays are implicit
and materialized by :func:`faces`.  All coordinates are ``Fraction``; two
polytopes are equal iff their vertex chains are equal.

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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import DomainError, InputError
from .scalars import Extended, POS_INF, as_fraction, extended_inner, is_infinite


class Point2(NamedTuple):
    x: Fraction
    y: Fraction


def point(x: object, y: object) -> Point2:
    """Build a first-quadrant point with exact coordinates."""
    px, py = as_fraction(x), as_fraction(y)
    if px < 0 or py < 0:
        raise InputError(f"point ({px}, {py}) is outside the first quadrant")
    return Point2(px, py)


@dataclass(frozen=True)
class AxisInfinityVertex:
    """Symbolic vertex of a non-compact face: (+inf, 0) or (0, +inf)."""

    axis: str  # "x" -> (+inf, 0), "y" -> (0, +inf)

    def __repr__(self) -> str:
        return "(+inf, 0)" if self.axis == "x" else "(0, +inf)"


X_INFINITY = AxisInfinityVertex("x")
Y_INFINITY = AxisInfinityVertex("y")

ExtendedVertex = Union[Point2, AxisInfinityVertex]


@dataclass(frozen=True)
class NewtonPolytope:
    """Vertex chain of ``conv(points) + first quadrant``, no redundancy."""

    vertices: tuple[Point2, ...]

    def __post_init__(self) -> None:
        vs = self.vertices
        if not vs:
            raise InputError("polytope needs at least one vertex")
        for v in vs:
            if v.x < 0 or v.y < 0:
                raise InputError(f"vertex {v} outside the first quadrant")
        for a, b in zip(vs, vs[1:]):
            if not (a.x < b.x and a.y > b.y):
                raise InputError("vertices must have x increasing, y decreasing")
        slopes = [(a.y - b.y) / (b.x - a.x) for a, b in zip(vs, vs[1:])]
        for s, t in zip(slopes, slopes[1:]):
            if not s > t:
                raise InputError("boundary must be strictly convex (no collinear vertex)")

    @property
    def x_min(self) -> Fraction:
        return self.vertices[0].x

    @property
    def y_min(self) -> Fraction:
        return self.vertices[-1].y

    @property
    def top(self) -> Point2:
        return self.vertices[0]

    @property
    def bottom(self) -> Point2:
        return self.vertices[-1]

    def __repr__(self) -> str:
        pts = ", ".join(f"({v.x}, {v.y})" for v in self.vertices)
        return f"NewtonPolytope[{pts}]"


@dataclass(frozen=True)
class Face:
    """One-dimensional boundary face, compact or a ray.

    A horizontal ray has its finite left vertex and right vertex (+inf, 0);
    a vertical ray has left vertex (0, +inf) and its finite right vertex.
    """

    left: ExtendedVertex
    right: ExtendedVertex

    def __post_init__(self) -> None:
        l, r = self.left, self.right
        if isinstance(l, Point2) and isinstance(r, Point2):
            if not (l.x < r.x and l.y > r.y):
                raise InputError("compact face needs left.x < right.x and left.y > right.y")
        elif isinstance(l, Point2) and r == X_INFINITY:
            pass  # horizontal ray
        elif l == Y_INFINITY and isinstance(r, Point2):
            pass  # vertical ray
        else:
            raise InputError("face must be compact or a single axis-parallel ray")

    @property
    def is_compact(self) -> bool:
        return isinstance(self.left, Point2) and isinstance(self.right, Point2)


class FaceIntercepts(NamedTuple):
    alpha: Fraction  # x-axis intercept of the face's supporting line
    beta: Fraction   # y-axis intercept


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


IntVec = tuple[int, int]


@dataclass(frozen=True)
class Cone2:
    """Rational cone in the closed first quadrant, spanned by two primitive
    integer vectors (equal generators give a single ray)."""

    g1: IntVec
    g2: IntVec

    def __post_init__(self) -> None:
        for g in (self.g1, self.g2):
            if g == (0, 0):
                raise InputError("cone generator cannot be zero")
            if not (isinstance(g[0], int) and isinstance(g[1], int)):
                raise InputError("cone generators must be integer vectors")
            if g[0] < 0 or g[1] < 0:
                raise InputError(f"generator {g} outside the first quadrant")
            if gcd(g[0], g[1]) != 1:
                raise InputError(f"generator {g} is not primitive")


def cone(g1: Sequence[int], g2: Sequence[int]) -> Cone2:
    """Build a cone from (possibly imprimitive) integer generators."""
    return Cone2(_primitive((g1[0], g1[1])), _primitive((g2[0], g2[1])))


# ---------------------------------------------------------------------------
# construction


def polytope_from_support(support: Iterable[Point2]) -> NewtonPolytope:
    """Vertex chain of ``conv(union of p + first quadrant)`` over the support.

    Dominated points (some other point is <= componentwise) and collinear
    points are eliminated, so the result is canonical.
    """
    pts = sorted(set(Point2(as_fraction(p[0]), as_fraction(p[1])) for p in support))
    if not pts:
        raise InputError("empty support")
    for p in pts:
        if p.x < 0 or p.y < 0:
            raise InputError(f"support point {p} outside the first quadrant")

    # Pareto staircase: among equal x keep min y, then require y to drop.
    frontier: list[Point2] = []
    for p in pts:
        if frontier and frontier[-1].x == p.x:
            continue  # same x, larger y
        if frontier and p.y >= frontier[-1].y:
            continue  # dominated by an earlier point
        frontier.append(p)

    # Lower convex hull of the staircase (monotone chain).
    chain: list[Point2] = []
    for p in frontier:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return NewtonPolytope(tuple(chain))


def _cross(a: Point2, b: Point2, c: Point2) -> Fraction:
    """Cross product of (b - a) and (c - b); > 0 keeps the chain convex."""
    return (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)


def scale(polytope: NewtonPolytope, c: object) -> NewtonPolytope:
    """Dilate by a positive rational factor (pointwise on vertices)."""
    factor = as_fraction(c)
    if factor <= 0:
        raise InputError(f"scale factor must be positive, got {factor}")
    return NewtonPolytope(tuple(Point2(v.x * factor, v.y * factor) for v in polytope.vertices))


def minkowski_sum(p: NewtonPolytope, q: NewtonPolytope) -> NewtonPolytope:
    """Minkowski sum of two Newton polytopes.

    The boundary of the sum is the boundary edges of both summands glued in
    order of decreasing slope, starting from the sum of the two topmost
    vertices; parallel edges merge into a single longer face.
    """
    edges = _boundary_edges(p) + _boundary_edges(q)
    # (dx, dy) with dx > 0 > dy; sort by slope -dy/dx, steepest first.
    edges.sort(key=lambda e: e[1] / e[0])  # dy/dx increasing == slope decreasing
    current = Point2(p.top.x + q.top.x, p.top.y + q.top.y)
    chain = [current]
    i = 0
    while i < len(edges):
        dx, dy = edges[i]
        while i + 1 < len(edges) and edges[i + 1][1] * dx == dy * edges[i + 1][0]:
            dx += edges[i + 1][0]
            dy += edges[i + 1][1]
            i += 1
        current = Point2(current.x + dx, current.y + dy)
        chain.append(current)
        i += 1
    return NewtonPolytope(tuple(chain))


def _boundary_edges(p: NewtonPolytope) -> list[tuple[Fraction, Fraction]]:
    return [(b.x - a.x, b.y - a.y) for a, b in zip(p.vertices, p.vertices[1:])]


# ---------------------------------------------------------------------------
# support, membership, faces


def support_value(polytope: NewtonPolytope, w: Sequence[Extended]) -> Extended:
    """min over the polytope of <w, .>, i.e. min over its vertices.

    The weight must lie in the closed first quadrant and be nonzero.  One
    coordinate may be the symbolic +inf, evaluated under +inf * 0 = 0; the
    result is then +inf exactly when every vertex misses the relevant axis.
    """
    w1, w2 = w[0], w[1]
    w1 = w1 if is_infinite(w1) else as_fraction(w1)
    w2 = w2 if is_infinite(w2) else as_fraction(w2)
    for c in (w1, w2):
        if not is_infinite(c) and c < 0:
            raise InputError(f"weight {w} has a negative coordinate")
    if w1 == 0 and w2 == 0:
        raise InputError("weight must be nonzero")
    best: Extended | None = None
    for v in polytope.vertices:
        val = extended_inner(w1, w2, v.x, v.y)
        if best is None or val < best:
            best = val
    return best


def contains(polytope: NewtonPolytope, p: Point2) -> bool:
    """Membership of a point in the region ``conv(vertices) + quadrant``.

    Equivalent to <w, p> >= support_value for every compact-face normal and
    both axis directions.
    """
    if p.x < 0 or p.y < 0:
        return False
    if p.x < polytope.x_min or p.y < polytope.y_min:
        return False
    for n1, n2 in face_normals(polytope):
        if n1 * p.x + n2 * p.y < support_value(polytope, (Fraction(n1), Fraction(n2))):
            return False
    return True


def faces(polytope: NewtonPolytope) -> list[Face]:
    """All 1-dimensional faces, left to right: the vertical ray, the compact
    faces, the horizontal ray.  A single-vertex polytope has just the rays."""
    vs = polytope.vertices
    out: list[Face] = [Face(Y_INFINITY, vs[0])]
    out.extend(Face(a, b) for a, b in zip(vs, vs[1:]))
    out.append(Face(vs[-1], X_INFINITY))
    return out


def compact_faces(polytope: NewtonPolytope) -> list[Face]:
    vs = polytope.vertices
    return [Face(a, b) for a, b in zip(vs, vs[1:])]


def slope(face: Face) -> Extended:
    """(q1 - q2)/(p2 - p1); 0 for the horizontal ray, +inf for the vertical."""
    if face.right == X_INFINITY:
        return Fraction(0)
    if face.left == Y_INFINITY:
        return POS_INF
    left, right = face.left, face.right
    return (left.y - right.y) / (right.x - left.x)


def face_intercepts(face: Face) -> FaceIntercepts:
    """Axis intercepts (alpha, 0), (0, beta) of a compact face's line."""
    if not face.is_compact:
        raise DomainError("intercepts are defined only for compact faces")
    left, right = face.left, face.right
    d = left.x * right.y - right.x * left.y
    alpha = d / (right.y - left.y)
    beta = d / (left.x - right.x)
    if alpha <= 0 or beta <= 0:
        raise DomainError("face line does not cross both positive axes")
    return FaceIntercepts(alpha, beta)


def face_normals(polytope: NewtonPolytope) -> list[IntVec]:
    """Primitive inner normals of the compact faces, left to right."""
    out: list[IntVec] = []
    for f in compact_faces(polytope):
        s = slope(f)
        out.append((s.numerator, s.denominator))
    return out


# ---------------------------------------------------------------------------
# Hilbert bases


def _primitive(v: IntVec) -> IntVec:
    g = gcd(abs(v[0]), abs(v[1]))
    if g == 0:
        raise InputError("zero vector has no primitive form")
    return (v[0] // g, v[1] // g)


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

