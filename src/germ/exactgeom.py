"""Exact 2-D Newton polytope engine on integer lattice points.

A Newton polygon here is the region ``conv(S) + Q`` where ``S`` is the
support of one nonzero ``Poly``, a finite set of points in the closed first
quadrant ``Q``.  It is kept as a ``Polygon``: the plain tuple of its
vertices, ordered with x strictly increasing and y strictly decreasing, so
two polygons are equal iff their tuples are.  There are no rational
polygons, dilates or sums here: a weighted sum of polygons is kept as its
summands, whose support functions add and whose compact edges are the
summands' edges, scaled and summed by normal (Ziegler, *Lectures on
Polytopes*, ch. 7), so :func:`weighted_edges` reads the sum's edges off
any number of weighted polygons in one pass.  The hull and the edges run in
``int`` arithmetic, and no ``Fraction`` is built.  A polygon is built only
by :func:`polytope_from_support`, from a ``Poly``, whose exponents were
checked once, when the ``Poly`` was built: the hull checks no point again.

The module also walks the Klein sail of a cone of the normal fan: the
bounded boundary of the convex hull of the cone's nonzero lattice points,
whose lattice points are the cone's Hilbert basis.  :func:`_hilbert_runs`
jumps one whole sail edge, a ``Run``, per step: one modular inverse gives
its first lattice step and one division its length, so a cone of
determinant d costs O(log d) steps (Oda, *Convex Bodies and Algebraic
Geometry*, 1.6; Fulton, *Introduction to Toric Varieties*, 2.6), with no
search bounds.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd
from typing import NamedTuple

from .errors import InputError
from .polys import Poly


def as_pair(v: object) -> "tuple[object, object]":
    """The two entries of a tuple or list of length 2."""
    if not isinstance(v, (tuple, list)) or len(v) != 2:
        raise InputError(f"expected a pair, got {v!r}")
    return v[0], v[1]


IntVec = tuple[int, int]

#: The vertex chain of a Newton polygon: non-negative integer points, x
#: strictly increasing, y strictly decreasing and strictly convex.
Polygon = tuple[IntVec, ...]


def make_weight(w1: int, w2: int) -> IntVec:
    """The primitive positive integer weight (w1, w2) of a monomial valuation;
    a ``bool`` is not an integer here."""
    if not (type(w1) is int and type(w2) is int) or w1 < 1 or w2 < 1:
        raise InputError(f"weight ({w1}, {w2}) must be a pair of positive integers")
    if gcd(w1, w2) != 1:
        raise InputError(f"weight ({w1}, {w2}) is not primitive")
    return (w1, w2)


# ---------------------------------------------------------------------------
# construction


def polytope_from_support(p: Poly) -> Polygon:
    """Vertex chain of ``conv(union of e + first quadrant)`` over the
    exponents e of the nonzero polynomial p.  Dominated points (some other
    point is <= componentwise) and collinear points are eliminated, so the
    result is canonical."""
    if not isinstance(p, Poly):
        raise InputError(f"expected a Poly, got {type(p).__name__}")
    if p.is_zero:
        raise InputError("empty support")

    # Lower convex hull (monotone chain) of the Pareto staircase.  The last
    # chain vertex is the last point so far that no other dominates, so a
    # point whose y does not drop below it (same x, or dominated) is skipped.
    chain: list[IntVec] = []
    for e in sorted(p.terms):
        if chain and e[1] >= chain[-1][1]:
            continue
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], e) <= 0:
            chain.pop()
        chain.append(e)
    return tuple(chain)


def _cross(a: IntVec, b: IntVec, c: IntVec) -> int:
    """Cross product of (b - a) and (c - b); > 0 keeps the chain convex."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


# ---------------------------------------------------------------------------
# edges of a weighted sum


#: Sort key of (normal, edge) pairs in fan order: u comes before v iff
#: det(u, v) > 0.
_FAN_ORDER = cmp_to_key(lambda e, f: _det(f[0], e[0]))


def weighted_edges(weights: "tuple[int, ...]",
                   polygons: "tuple[Polygon, ...]") -> "list[tuple[IntVec, IntVec]]":
    """The compact edges of sum weights[i] * polygons[i], left to right, as
    (primitive inner normal, edge) pairs: each polygon's edges, times its
    weight, summed by normal, from the steepest to the flattest, so
    consecutive normals u, v have det(u, v) > 0.  An edge goes from its left
    vertex to its right one."""
    edges: "dict[IntVec, IntVec]" = {}
    for n, vs in zip(weights, polygons):
        for (ax, ay), (bx, by) in zip(vs, vs[1:]):
            dx, dy = bx - ax, by - ay
            g = gcd(dx, dy)
            ex, ey = edges.get(normal := (-dy // g, dx // g), (0, 0))
            edges[normal] = (ex + n * dx, ey + n * dy)
    return sorted(edges.items(), key=_FAN_ORDER)


# ---------------------------------------------------------------------------
# Hilbert bases


def _det(u: IntVec, v: IntVec) -> int:
    return u[0] * v[1] - u[1] * v[0]


class Run(NamedTuple):
    """One sail edge: the lattice points start + j*step for 0 <= j <= count."""

    start: IntVec
    step: IntVec
    count: int


def _hilbert_runs(u: IntVec, v: IntVec) -> list[Run]:
    """The Klein sail of the cone spanned by u and v as runs, from u to v.

    u and v must be primitive first-quadrant vectors with det(u, v) > 0, as
    consecutive rays of a normal fan are.  Consecutive runs share an
    endpoint.  From u = (a, b) the sail goes to its neighbour w toward v.
    The solutions of det(u, z) = 1 form the line z0 + t*u, with z0 =
    ((a*y - 1)/b, y) for y = a^-1 mod b, or z0 = (0, 1) when u = (1, 0),
    and w is the one of least t in the cone: t = -(det(z0, v) // d), for
    d = det(u, v).  With step = w - u every u + j*step has neighbour
    u + (j + 1)*step while that point stays in the cone: det(u + j*step, v)
    = d - j*det(v, step), and det(v, step) = d - det(w, v) lies in [1, d].
    So the run has count d // det(v, step), and det(end, v) = d mod
    det(v, step) is below d/2: at most log2(d) + 1 runs reach det = 0, at v.
    """
    (a, b), (v1, v2) = u, v
    d = a * v2 - b * v1
    runs: list[Run] = []
    while d > 0:
        y = pow(a, -1, b) if b else 1
        x = (a * y - 1) // b if b else 0
        t = -((x * v2 - y * v1) // d)
        s1, s2 = x + t * a - a, y + t * b - b
        count, d = divmod(d, v1 * s2 - v2 * s1)
        runs.append(Run((a, b), (s1, s2), count))
        a, b = a + count * s1, b + count * s2
    return runs
