"""Unit and property tests for the exact Newton-polytope engine."""

import random
from collections import Counter
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germ.errors import InputError
from germ.exactgeom import _hilbert_runs, polytope_from_support, weighted_edges
from germ.polys import Poly


def poly(*pts):
    """The polygon of integer points: the Newton polygon of the sum of
    their monomials."""
    return polytope_from_support(Poly({pt: F(1) for pt in pts}))


def lattice_min(p, w):
    """Oracle: the support value of the integer weight w on the polygon p,
    the least <w, v> over a scan of its vertices."""
    return min(w[0] * x + w[1] * y for x, y in p)


def support(p, w):
    """The least <w, v> over p for a rational weight w: the support function
    is positively homogeneous, so it is lattice_min at the integer weight
    d*w over d, d the weight's common denominator."""
    w1, w2 = F(w[0]), F(w[1])
    d = lcm(w1.denominator, w2.denominator)
    return F(lattice_min(p, (int(w1 * d), int(w2 * d))), d)


def face_normals(*polygons):
    """The compact-face normals of the sum of the polygons, in fan order, as
    ``weighted_edges`` reads them at unit weights."""
    return [n for n, _ in weighted_edges((1,) * len(polygons), polygons)]


def vertices(p):
    """The chain as exact rational points (x, y)."""
    return [(F(x), F(y)) for x, y in p]


def minkowski_hull(parts):
    """Oracle: the polygon of sum n_i * P_i over (n_i, P_i) in ``parts``, n_i
    positive integers, as the hull of every sum of n_i-scaled vertices, one
    from each summand, taken one summand at a time."""
    sums = poly((0, 0))
    for n, p in parts:
        sums = poly(*((x + n * a, y + n * b) for x, y in sums for a, b in p))
    return sums


# ---------------------------------------------------------------------------
# construction


def test_from_support_three_term_cusp():
    assert vertices(poly((4, 0), (1, 1), (0, 3))) == [(0, 3), (1, 1), (4, 0)]


def test_from_support_drops_collinear():
    assert vertices(poly((2, 0), (1, 1), (0, 2))) == [(0, 2), (2, 0)]


def test_from_support_two_point_hull():
    for m, n in [(1, 1), (3, 5), (7, 2)]:
        assert vertices(poly((m, 0), (0, n))) == [(0, n), (m, 0)]


def test_from_support_drops_dominated():
    assert vertices(poly((0, 1), (1, 2), (2, 2), (1, 1))) == [(0, 1)]


def test_from_support_empty_errors():
    with pytest.raises(InputError):
        polytope_from_support(Poly({}))


# ---------------------------------------------------------------------------
# Minkowski sums, kept as their summands


def test_minkowski_figure_example():
    p = poly((0, 3), (1, 1), (4, 0))
    q = poly((0, 2), (2, 0))
    total = minkowski_hull([(1, p), (1, q)])
    assert vertices(total) == [(0, 5), (1, 3), (3, 1), (6, 0)]
    assert face_normals(p, q) == face_normals(total) == [(2, 1), (1, 1), (1, 3)]


def test_minkowski_identity_element():
    p = poly((0, 3), (1, 1), (4, 0))
    origin = poly((0, 0))
    assert minkowski_hull([(1, p), (1, origin)]) == p
    assert face_normals(p, origin) == face_normals(p)


def test_minkowski_doubling():
    p = poly((0, 5), (3, 0))
    assert vertices(minkowski_hull([(2, p)])) == [(0, 10), (6, 0)]
    assert face_normals(p, p) == face_normals(p) == [(5, 3)]


# ---------------------------------------------------------------------------
# support values and membership


def test_support_value_direct_min():
    p = poly((0, 3), (1, 1), (4, 0))
    assert lattice_min(p, (1, 1)) == 2


def test_support_value_two_vertex():
    for m, n in [(2, 3), (5, 1)]:
        p = poly((m, 0), (0, n))
        assert lattice_min(p, (1, 1)) == min(m, n)


def test_support_value_axis_weight():
    p = poly((0, 3), (2, 0))
    assert lattice_min(p, (0, 1)) == 0


def contains(polytope, point):
    """Oracle: membership of a point in ``conv(vertices) + quadrant``, as
    <w, p> >= the support value for every compact-face normal and both axis
    directions."""
    vs, (px, py) = vertices(polytope), point
    if px < vs[0][0] or py < vs[-1][1]:
        return False
    for n1, n2 in face_normals(polytope):
        if n1 * px + n2 * py < lattice_min(polytope, (n1, n2)):
            return False
    return True


def test_contains_scaled_square_example():
    # (3/4) * conv{(2, 0), (1, 1), (0, 2)} holds (1, 1) iff 3 times it holds (4, 4)
    p = minkowski_hull([(3, poly((2, 0), (1, 1), (0, 2)))])
    assert vertices(p) == [(0, 6), (6, 0)]
    assert contains(p, (F(4), F(4)))


def test_contains_origin_false():
    assert not contains(poly((0, 3), (2, 0)), (F(0), F(0)))


def test_contains_vertex_itself():
    assert contains(poly((1, 1)), (F(1), F(1)))


# ---------------------------------------------------------------------------
# Hilbert bases


def cone_lattice_points(c, bound):
    """Oracle: all nonzero lattice points of the cone with both coordinates
    <= bound, by brute enumeration."""
    u, v = c
    out = []
    for x in range(bound + 1):
        for y in range(bound + 1):
            if x == 0 and y == 0:
                continue
            p = (x, y)
            if _det(u, p) >= 0 and _det(p, v) >= 0:
                out.append(p)
    return out


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def brute_irreducibles(c, bound):
    """Oracle: cone lattice points in the box that are not a sum of two
    nonzero cone lattice points (sums stay in the box componentwise)."""
    pts = set(cone_lattice_points(c, bound))
    out = []
    for v in sorted(pts):
        reducible = False
        for a in pts:
            if a[0] <= v[0] and a[1] <= v[1] and a != v:
                if (v[0] - a[0], v[1] - a[1]) in pts:
                    reducible = True
                    break
        if not reducible:
            out.append(v)
    return set(out)


def cone(g1, g2):
    """The cone of two non-parallel nonzero first-quadrant integer vectors:
    its primitive generators (u, v), ordered so that det(u, v) > 0."""
    u, v = ((a // gcd(a, b), b // gcd(a, b)) for a, b in (g1, g2))
    return (u, v) if _det(u, v) > 0 else (v, u)


def point(run, j):
    """The j-th lattice point start + j*step of a sail run."""
    (s1, s2), (t1, t2), _ = run
    return (s1 + j * t1, s2 + j * t2)


def hilbert_basis(c):
    """The Hilbert basis of the cone (u, v) in order from u to v: the
    lattice points of its runs, each shared endpoint once."""
    runs = _hilbert_runs(*c)
    return [runs[0].start] + [point(r, j) for r in runs for j in range(1, r.count + 1)]


def test_hilbert_smooth_cone():
    assert set(hilbert_basis(cone((1, 0), (0, 1)))) == {(1, 0), (0, 1)}


def test_hilbert_symmetric_cone():
    c = cone((2, 1), (1, 2))
    expected = brute_irreducibles(c, 3)
    assert expected == {(2, 1), (1, 1), (1, 2)}
    assert set(hilbert_basis(c)) == expected


def test_hilbert_sliver_cone():
    c = cone((1, 0), (1, 5))
    expected = brute_irreducibles(c, 6)
    assert expected == {(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)}
    assert set(hilbert_basis(c)) == expected


def test_hilbert_generators_normalized():
    assert set(hilbert_basis(cone((4, 2), (2, 4)))) == {(2, 1), (1, 1), (1, 2)}


def boundary_neighbour(u, v, d):
    """Oracle: the lattice point next to u on the sail toward v.  The
    extended Euclid algorithm gives a*alpha + b*beta = 1 for u = (a, b), so
    z0 = (-beta, alpha) has det(u, z0) = 1; the neighbour is the first
    z0 + t*u with det(z, v) >= 0."""
    a, b = u
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    z0 = (-old_y, old_x)
    t = -(_det(z0, v) // d)
    return (z0[0] + t * a, z0[1] + t * b)


def stepwise_basis(c):
    """Oracle: the sail walk one lattice point at a time, each the boundary
    neighbour of the last, with no jump along an edge."""
    u, v = c
    d = _det(u, v)
    out = [u]
    while d > 1:
        u = boundary_neighbour(u, v, d)
        out.append(u)
        d = _det(u, v)
    return out + [v]


def _unimodular_pair(rng):
    """Generators of det 1: a random descent in the Stern-Brocot tree."""
    u, v = (1, 0), (0, 1)
    for _ in range(rng.randint(0, 12)):
        mediant = (u[0] + v[0], u[1] + v[1])
        u, v = (mediant, v) if rng.random() < 0.5 else (u, mediant)
    return u, v


def _random_generators(rng):
    """Two non-parallel generators, given imprimitive at times and in either
    order, or a det-1 pair."""
    if rng.random() < 0.15:
        return _unimodular_pair(rng)
    top = rng.choice([6, 40, 300])

    def gen():
        while (g := (rng.randint(0, top), rng.randint(0, top))) == (0, 0):
            pass
        return g

    while _det(g1 := gen(), g2 := gen()) == 0:
        pass
    return g1, g2


def test_hilbert_runs_expand_to_stepwise_walk():
    """On random cones, det 1 among them, the runs expand in order to the
    one-point-at-a-time walk, each run is one maximal edge of unimodular
    steps, and there are at most log2(d) + 1."""
    rng = random.Random(61)
    seen = set()
    for _ in range(3000):
        c = cone(*_random_generators(rng))
        runs = _hilbert_runs(*c)
        basis = hilbert_basis(c)
        assert basis == stepwise_basis(c)
        d = _det(*c)
        seen.add(min(d, 2))
        assert (basis[0], basis[-1]) == c
        assert len(runs) <= d.bit_length()
        for r, nxt in zip(runs, runs[1:]):
            assert nxt.start == point(r, r.count) and nxt.step != r.step
        for r in runs:
            assert r.count >= 1 and _det(r.start, r.step) == 1
    assert seen == {1, 2}


def test_hilbert_runs_deep_cone():
    # determinant 10^9, one edge; and a Fibonacci cone, whose sail turns often
    assert _hilbert_runs((1, 0), (1, 10**9)) == [((1, 0), (0, 1), 10**9)]
    a, b = 1, 1
    while b < 10**12:
        a, b = b, a + b
    runs = _hilbert_runs((1, 0), (a, b))
    assert len(runs) <= b.bit_length()
    assert point(runs[-1], runs[-1].count) == (a, b)


# ---------------------------------------------------------------------------
# properties

frac = st.fractions(min_value=0, max_value=12, max_denominator=6)
coord = st.integers(min_value=0, max_value=72)
support_sets = st.lists(st.tuples(coord, coord), min_size=1, max_size=7)
weights = st.tuples(
    st.fractions(min_value=0, max_value=9, max_denominator=5),
    st.fractions(min_value=0, max_value=9, max_denominator=5),
).filter(lambda w: w != (0, 0))


@settings(max_examples=200, derandomize=True)
@given(support_sets, support_sets, weights)
def test_minkowski_support_additivity(s1, s2, w):
    p, q = poly(*s1), poly(*s2)
    assert support(minkowski_hull([(1, p), (1, q)]), w) == support(p, w) + support(q, w)


@settings(max_examples=200, derandomize=True)
@given(support_sets, support_sets)
def test_minkowski_matches_pairwise_hull(s1, s2):
    # the compact-face normals of a sum are the union of the summands'
    p, q = poly(*s1), poly(*s2)
    assert face_normals(p, q) == face_normals(minkowski_hull([(1, p), (1, q)]))


@settings(max_examples=200, derandomize=True)
@given(support_sets)
def test_construction_idempotent(s):
    p = poly(*s)
    assert poly(*p) == p


@settings(max_examples=200, derandomize=True)
@given(support_sets)
def test_slopes_strictly_decrease(s):
    p = poly(*s)
    slopes = [F(n1, n2) for n1, n2 in face_normals(p)]
    assert all(v > 0 for v in slopes)
    for a, b in zip(slopes, slopes[1:]):
        assert a > b


@settings(max_examples=100, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 5), support_sets), min_size=1, max_size=4))
def test_weighted_edges_are_the_edges_of_the_sum(parts):
    """The (normal, edge) pairs of a weighted sum are those of the one hull
    of every sum of scaled vertices: each summand's edges, scaled and summed
    by normal, and each edge runs from its left vertex to its right one."""
    weights, polygons = zip(*[(n, poly(*s)) for n, s in parts])
    total = minkowski_hull(zip(weights, polygons))
    edges = weighted_edges(weights, polygons)
    assert edges == weighted_edges((1,), (total,))
    assert [(b[0] - a[0], b[1] - a[1]) for a, b in zip(total, total[1:])] == [e for _, e in edges]


@settings(max_examples=100, derandomize=True)
@given(st.lists(support_sets, min_size=1, max_size=4))
def test_face_normals_of_several_polygons_form_a_fan(supports):
    """The normals of several polygons are the union of each one's, primitive
    and ordered so that consecutive ones u, v have det(u, v) > 0."""
    polygons = [poly(*s) for s in supports]
    normals = face_normals(*polygons)
    assert set(normals) == {n for p in polygons for n in face_normals(p)}
    assert all(min(n) >= 1 and gcd(*n) == 1 for n in normals)
    assert all(_det(u, v) > 0 for u, v in zip(normals, normals[1:]))


def boundary_height(p, x):
    """Oracle for membership: least y with (x, y) in the polytope, None if
    x lies left of the first vertex.  Piecewise-linear interpolation along
    the compact faces."""
    vs = vertices(p)
    if x < vs[0][0]:
        return None
    for (lx, ly), (rx, ry) in zip(vs, vs[1:]):
        if lx <= x <= rx:
            return ly + (x - lx) / (rx - lx) * (ry - ly)
    return vs[-1][1]


@settings(max_examples=200, derandomize=True)
@given(support_sets, frac, frac)
def test_contains_matches_boundary_oracle(s, px, py):
    p = poly(*s)
    height = boundary_height(p, px)
    expected = height is not None and height <= py
    assert contains(p, (px, py)) == expected


@settings(max_examples=200, derandomize=True)
@given(support_sets, frac, frac)
def test_contains_support_duality(s, px, py):
    p = poly(*s)
    normals = face_normals(p) + [(1, 0), (0, 1)]
    dual = all(w[0] * px + w[1] * py >= lattice_min(p, w) for w in normals)
    assert contains(p, (px, py)) == dual


@settings(max_examples=100, derandomize=True)
@given(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda g: g != (0, 0)),
    st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(lambda g: g != (0, 0)),
)
def test_hilbert_matches_brute_force(g1, g2):
    assume(_det(g1, g2) != 0)
    c = cone(g1, g2)
    assert set(hilbert_basis(c)) == brute_irreducibles(c, 18)


# ---------------------------------------------------------------------------
# the lattice engine against a plain-Fraction reference


def reference_chain(points):
    """Oracle: the staircase and monotone chain on ``Fraction`` points, with
    no denominator cleared."""
    frontier = []
    for p in sorted(set((F(x), F(y)) for x, y in points)):
        if frontier and (frontier[-1][0] == p[0] or p[1] >= frontier[-1][1]):
            continue
        frontier.append(p)
    chain = []
    for p in frontier:
        while len(chain) >= 2:
            (ax, ay), (bx, by) = chain[-2], chain[-1]
            if (bx - ax) * (p[1] - by) - (by - ay) * (p[0] - bx) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def reference_support(chain, w):
    """Oracle: the least <w, v> over the vertices, in ``Fraction``."""
    return min(F(w[0]) * x + F(w[1]) * y for x, y in chain)


def reference_normals(chain):
    """Oracle: the primitive inner normals of a ``Fraction`` chain's faces,
    left to right."""
    out = []
    for (ax, ay), (bx, by) in zip(chain, chain[1:]):
        slope = (ay - by) / (bx - ax)
        out.append((slope.numerator, slope.denominator))
    return out


def _random_support(rng):
    """Up to six integer points with coordinates up to 10^12, or small ones
    so that domination and collinearity occur."""
    top = rng.choice([6, 60, 10**12])
    return [(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(1, 6))]


def test_lattice_engine_matches_fraction_reference():
    """polytope_from_support, face_normals of two polygons and the weighted
    sum of their lattice_min, against the reference on the ``Fraction``
    points (n1*v1 + n2*v2)/d of seeded random supports."""
    rng = random.Random(71)
    seen = Counter()
    for _ in range(1500):
        s1, s2 = _random_support(rng), _random_support(rng)
        if rng.random() < 0.3:  # a dilate of s1: every edge has a parallel partner
            k = rng.randint(1, 9)
            s2 = [(x * k, y * k) for x, y in s1]
        p, q = poly(*s1), poly(*s2)
        c1, c2 = reference_chain(s1), reference_chain(s2)
        assert vertices(p) == c1 and vertices(q) == c2
        n1, n2, d = rng.randint(1, 10**6), rng.randint(1, 12), rng.randint(1, 12)
        total = reference_chain([((n1 * ax + n2 * bx) / d, (n1 * ay + n2 * by) / d)
                                 for ax, ay in c1 for bx, by in c2])
        assert face_normals(p, q) == reference_normals(total)
        for _ in range(3):
            w = (F(rng.randint(0, 40), rng.randint(1, 6)), F(rng.randint(1, 40), rng.randint(1, 6)))
            w = w if rng.random() < 0.5 else w[::-1]
            assert support(p, w) == reference_support(c1, w)
            assert (n1 * support(p, w) + n2 * support(q, w)) / d == reference_support(total, w)
        seen["one vertex"] += len(c1) == 1
        seen["several faces"] += len(total) > 3
        seen["parallel edges"] += len(total) < len(c1) + len(c2) - 1
    assert min(seen.values()) >= 50, seen


def test_lattice_form_is_canonical():
    """Equal chains are equal and hash alike however they were built: from
    the vertices alone, or with dominated and collinear points added."""
    rng = random.Random(73)
    for _ in range(400):
        p = poly(*_random_support(rng))
        padded = poly(*p, *((x + 1, y) for x, y in p),
                      *(((a[0] + b[0]) // 2, (a[1] + b[1]) // 2)
                        for a, b in zip(p, p[1:])
                        if (a[0] + b[0]) % 2 == 0 and (a[1] + b[1]) % 2 == 0))
        assert padded == p and hash(padded) == hash(p)
    assert poly((2, 0), (1, 1), (0, 2)) == ((0, 2), (2, 0))
