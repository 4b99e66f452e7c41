"""Exact 2-D Newton polytope engine on integer lattice points.

A Newton polytope here is the region ``conv(S) + Q`` where ``S`` is a
finite set of points in the closed first quadrant ``Q``.  It is built from
a polynomial's exponents, pairs of non-negative integers; rational polytopes
arise only as dilates (:func:`scale`) and Minkowski sums of those.  It is
stored canonically as the chain of its vertices, ordered with x strictly
increasing and y strictly decreasing: integer lattice points over one
positive denominator, in lowest terms, so two polytopes are equal iff their
fields are.  Construction, Minkowski sums, the support function
:meth:`NewtonPolytope.lattice_min` and the face normals run in ``int``
arithmetic, and no ``Fraction`` is built.

The module also walks the Klein sail of a cone of the normal fan: the
bounded boundary of the convex hull of the cone's nonzero lattice points,
whose lattice points are the cone's Hilbert basis.  The walk jumps one
whole sail edge per step with one floor division, so a cone of determinant
d costs O(log d) steps (Oda, *Convex Bodies and Algebraic Geometry*, 1.6;
Fulton, *Introduction to Toric Varieties*, 2.6), with no search bounds.
:func:`_hilbert_runs` is that walk.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError
from .scalars import as_fraction


def as_pair(v: object) -> "tuple[object, object]":
    """The two entries of a tuple or list of length 2."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise InputError(f"expected a pair, got {v!r}")
    return v[0], v[1]


IntVec = tuple[int, int]


def _lattice_point(v: object) -> IntVec:
    """The pair v of non-negative integers, such as an exponent pair."""
    x, y = as_pair(v)
    if not (isinstance(x, int) and isinstance(y, int)) or x < 0 or y < 0:
        raise InputError(f"{v!r} is not a pair of non-negative integers")
    return (x, y)


@dataclass(frozen=True)
class NewtonPolytope:
    """Vertex chain of ``conv(points) + first quadrant``, no redundancy.

    The vertices are ``lattice[i] / den``: non-negative integer points over
    one positive integer denominator.  Construction checks that they form a
    chain, x increasing and y decreasing and strictly convex, and reduces
    it to lowest terms (the gcd of ``den`` and every coordinate is 1), so
    equal polytopes have equal fields.
    """

    lattice: tuple[IntVec, ...]
    den: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.lattice, Iterable):
            raise InputError(f"expected a sequence of vertices, got {self.lattice!r}")
        lattice, den = tuple(map(_lattice_point, self.lattice)), self.den
        if not isinstance(den, int) or den < 1:
            raise InputError(f"denominator {den!r} is not a positive integer")
        if den != 1:
            g = gcd(den, *(c for v in lattice for c in v))
            if g != 1:
                den //= g
                lattice = tuple((x // g, y // g) for x, y in lattice)
        _check_chain(lattice)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "den", den)

    def lattice_min(self, w: IntVec) -> int:
        """den times the support value of the integer weight w: the least
        <w, v> over the lattice vertices."""
        w1, w2 = w
        return min(w1 * x + w2 * y for x, y in self.lattice)


def make_weight(w1: int, w2: int) -> IntVec:
    """The primitive positive integer weight (w1, w2) of a monomial valuation."""
    if not (isinstance(w1, int) and isinstance(w2, int)) or w1 < 1 or w2 < 1:
        raise InputError(f"weight ({w1}, {w2}) must be a pair of positive integers")
    if gcd(w1, w2) != 1:
        raise InputError(f"weight ({w1}, {w2}) is not primitive")
    return (w1, w2)


# ---------------------------------------------------------------------------
# construction


def _check_chain(lattice: Sequence[IntVec]) -> None:
    """Raise unless the points form a valid chain: nonempty, x increasing
    and y decreasing, strictly convex."""
    if not lattice:
        raise InputError("polytope needs at least one vertex")
    for a, b in zip(lattice, lattice[1:]):
        if not (a[0] < b[0] and a[1] > b[1]):
            raise InputError("vertices must have x increasing, y decreasing")
    for a, b, c in zip(lattice, lattice[1:], lattice[2:]):
        if _cross(a, b, c) <= 0:
            raise InputError("boundary must be strictly convex (no collinear vertex)")


def polytope_from_support(support: Iterable[Sequence[int]]) -> NewtonPolytope:
    """Vertex chain of ``conv(union of p + first quadrant)`` over the support.

    The support is pairs of non-negative integers, such as the exponents of
    a polynomial.  Dominated points (some other point is <= componentwise)
    and collinear points are eliminated, so the result is canonical.
    """
    if not isinstance(support, Iterable):
        raise InputError(f"expected a sequence of points, got {support!r}")
    pts = sorted(set(map(_lattice_point, support)))
    if not pts:
        raise InputError("empty support")

    # Lower convex hull (monotone chain) of the Pareto staircase.  The last
    # chain vertex is the last point so far that no other dominates, so a
    # point whose y does not drop below it (same x, or dominated) is skipped.
    chain: list[IntVec] = []
    for p in pts:
        if chain and p[1] >= chain[-1][1]:
            continue
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return NewtonPolytope(tuple(chain))


def _cross(a: IntVec, b: IntVec, c: IntVec) -> int:
    """Cross product of (b - a) and (c - b); > 0 keeps the chain convex."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def scale(polytope: NewtonPolytope, c: object) -> NewtonPolytope:
    """Dilate by a positive rational factor (pointwise on vertices)."""
    factor = as_fraction(c)
    if factor <= 0:
        raise InputError(f"scale factor must be positive, got {factor}")
    n = factor.numerator
    return NewtonPolytope(tuple((x * n, y * n) for x, y in polytope.lattice),
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
    return NewtonPolytope(tuple(chain), den)


def _edges(p: NewtonPolytope, k: int) -> "list[IntVec]":
    """The boundary edges of the chain, times k, left to right."""
    vs = p.lattice
    return [(k * (b[0] - a[0]), k * (b[1] - a[1])) for a, b in zip(vs, vs[1:])]


# ---------------------------------------------------------------------------
# face normals


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


def _det(u: IntVec, v: IntVec) -> int:
    return u[0] * v[1] - u[1] * v[0]


class Run(NamedTuple):
    """One sail edge: the lattice points start + j*step for 0 <= j <= count."""

    start: IntVec
    step: IntVec
    count: int

    def point(self, j: int) -> IntVec:
        return (self.start[0] + j * self.step[0], self.start[1] + j * self.step[1])


def _hilbert_runs(u: IntVec, v: IntVec) -> list[Run]:
    """The Klein sail of the cone spanned by u and v as runs, from u to v.

    u and v must be primitive first-quadrant vectors with det(u, v) > 0, as
    consecutive rays of a normal fan are.  Consecutive runs share an
    endpoint.  From ``u`` the sail goes to its neighbour ``w`` toward ``v``
    (the minimal lattice point with det(u, w) = 1 inside the cone), and with
    step = w - u every u + j*step has neighbour u + (j + 1)*step while that
    point stays in the cone: det(u + j*step, v) = d - j*det(v, step), where
    d = det(u, v) and det(v, step) = d - det(w, v) lies in [1, d].  So the
    run has count d // det(v, step), and det(end, v) = d mod det(v, step)
    is below d/2: at most log2(d) + 1 runs reach det = 0, at v.
    """
    d = _det(u, v)
    runs: list[Run] = []
    while d > 0:
        w = _boundary_neighbour(u, v, d)
        step = (w[0] - u[0], w[1] - u[1])
        run = Run(u, step, d // (d - _det(w, v)))
        runs.append(run)
        u = run.point(run.count)
        d = _det(u, v)
    return runs


def _boundary_neighbour(u: IntVec, v: IntVec, d: int) -> IntVec:
    """Lattice point adjacent to ``u`` on the hull boundary toward ``v``.

    Solutions of det(u, z) = 1 form the line z0 + t*u; the neighbour is the
    solution with minimal t lying inside cone(u, v).  With u = (a, b)
    primitive, z0 = ((a*y - 1) / b, y) for y the inverse of a mod b, and
    z0 = (0, 1) for u = (1, 0).
    """
    a, b = u
    if b == 0:
        z0 = (0, 1)
    else:
        y = pow(a, -1, b)
        z0 = ((a * y - 1) // b, y)
    # need det(z, v) >= 0:  t >= -det(z0, v) / d
    t_min = -(_det(z0, v) // d)
    return (z0[0] + t_min * a, z0[1] + t_min * b)

