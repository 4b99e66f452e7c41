"""Tests for discrepancies, mld/lct and the delta bound, with brute-force
oracles for every derived value."""

import random
import re
from collections import Counter
from fractions import Fraction as F
from math import ceil, gcd, lcm

import pytest

from germ.errors import DomainError, InputError
from germ.exactgeom import make_weight, polytope_from_support
from germ.germs import (
    DivisorGerm,
    NewtonDiagram,
    _nondegeneracy,
    _table,
    contact_along_curve,
    curve_orient,
    local_intersection,
    newton_polytope,
    parse_divisor,
)
from germ.invariants import (
    NEG_INF,
    MldResult,
    _mld,
    delta_bound,
    lct_toric,
    mld_toric,
    toric_log_discrepancy,
    verify_surface_theorem,
)
from germ.polys import Poly, parse_poly
from test_exactgeom import _det, face_normals, hilbert_basis, lattice_min, poly, vertices
from test_germs import _mul, _small_branch, _transpose, from_terms, within


def binom(lam, m, n):
    return DivisorGerm(((F(lam), from_terms({(m, 0): 1, (0, n): 1})),))


def brute_binomial_mld(lam, m, n, bound=100):
    """Oracle: direct minimum of p1 + p2 - min(lam*m*p1, lam*n*p2)."""
    best = None
    for p1 in range(1, bound + 1):
        for p2 in range(1, bound + 1):
            v = p1 + p2 - min(lam * m * p1, lam * n * p2)
            if best is None or v < best:
                best = v
    return best


def brute_mld(b, bound=50):
    """Oracle: direct minimum of the discrepancy over a weight box."""
    best = None
    for w1 in range(1, bound + 1):
        for w2 in range(1, bound + 1):
            if gcd(w1, w2) != 1:
                continue
            v = toric_log_discrepancy(b, (w1, w2))
            if best is None or v < best:
                best = v
    return best


# ---------------------------------------------------------------------------
# toric log discrepancy


def test_discrepancy_binomial_general_weight():
    for lam, m, n in [(F(1, 2), 2, 3), (F(2, 3), 4, 6), (F(1, 4), 3, 3)]:
        g = gcd(m, n)
        np, mp = n // g, m // g
        expected = np + mp - lam * m * np
        assert toric_log_discrepancy(binom(lam, m, n), (np, mp)) == expected


def test_discrepancy_cusp_weight():
    assert toric_log_discrepancy(parse_divisor("5/9*(x^3+y^4)"), (4, 3)) == F(1, 3)


def test_discrepancy_reduced_line():
    assert toric_log_discrepancy(parse_divisor("1/2*(x+y)"), (1, 1)) == F(3, 2)


def test_discrepancy_requires_primitive_weight():
    with pytest.raises(InputError):
        toric_log_discrepancy(parse_divisor("1*(x+y)"), (2, 2))
    with pytest.raises(InputError):
        toric_log_discrepancy(parse_divisor("1*(x+y)"), (0, 1))


def test_discrepancy_homogeneity_before_normalization():
    b = parse_divisor("3/4*(x^2+y^3)")
    for w1, w2 in [(3, 2), (1, 1), (5, 2)]:
        base = toric_log_discrepancy(b, (w1, w2))
        for k in (2, 3, 7):
            # scaled weight evaluated through the raw formula
            p = newton_polytope(b)
            scaled = k * w1 + k * w2 - F(p.lattice_min((k * w1, k * w2)), p.den)
            assert scaled == k * base


def test_discrepancy_reads_the_terms_with_no_table(monkeypatch):
    """toric_log_discrepancy reads B's terms by the definition and builds no
    polygon, so as an oracle it shares no code with the valuation table;
    at every face normal n of seeded diagrams it equals pb.rays[n] / pb.den."""
    import germ.germs

    built = []
    hull = germ.germs.polytope_from_support
    monkeypatch.setattr(germ.germs, "polytope_from_support", lambda p: built.append(p) or hull(p))
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        b = _random_divisor(rng)
        pb = newton_polytope(b)
        built.clear()
        for n in pb.normals:
            assert toric_log_discrepancy(b, n) == F(pb.rays[n], pb.den)
            checked += 1
        assert built == []
    assert checked >= 100, checked


# ---------------------------------------------------------------------------
# mld


def test_mld_cusp_family_small():
    r = mld_toric(parse_divisor("3/4*(x^2+y^3)"))
    assert r.value == F(1, 2) and r.witness == (3, 2) and r.attained


def test_mld_smooth_reduced_branch():
    r = mld_toric(parse_divisor("1*(x)"))
    assert r.value == 1 and r.attained
    assert r.axis_values == (0, 1)  # axis direction is diagnostic only


def test_mld_double_line():
    r = mld_toric(parse_divisor("2*(x+y)"))
    assert r.value == 0 and r.witness == (1, 1)
    assert r.value == brute_mld(parse_divisor("2*(x+y)"))


def test_mld_not_lc_certificate():
    r = mld_toric(parse_divisor("2*(x)"))
    assert r.value is NEG_INF and not r.attained
    assert toric_log_discrepancy(parse_divisor("2*(x)"), tuple(r.witness)) < 0
    # the sentinel orders below every rational, equals only itself and
    # prints as -inf
    assert NEG_INF < F(-10**9) and F(0) > NEG_INF
    assert NEG_INF <= NEG_INF and not NEG_INF < NEG_INF
    assert repr(NEG_INF) == "-inf"


def test_mld_witness_attains_value():
    rng = random.Random(3)
    for _ in range(80):
        b = _random_divisor(rng)
        r = mld_toric(b)
        if r.value is NEG_INF:
            assert toric_log_discrepancy(b, tuple(r.witness)) < 0
        else:
            assert toric_log_discrepancy(b, tuple(r.witness)) == r.value
            assert r.value <= brute_mld(b, bound=24)


def test_mld_brute_force_agreement():
    rng = random.Random(17)
    checked = 0
    for _ in range(90):
        b = _random_divisor(rng)
        r = mld_toric(b)
        if r.value is NEG_INF:
            continue
        assert r.value == brute_mld(b, bound=40)
        checked += 1
    assert checked >= 20


def full_scan_mld(parts, den):
    """Oracle: the mld on the diagram (1/den) * the sum of n * polygon over
    ``parts``, pairs (n, polygon), with the class of its answer.  -inf at
    the first face normal in fan order with a negative discrepancy
    ("normal"), else at a negative axis, (1, 0) first, pushed from the
    other ray of its cone, or from (1, 1) when the fan is one cone
    ("axis").  Else the scan of every Hilbert-basis element of every
    normal-fan cone that the run walk replaced ("attained"), where no
    element may be negative.  Each discrepancy sums every polygon's
    weighted least value there, with no vertex of the sum."""

    def g(v):
        low = sum(n * min(v[0] * x + v[1] * y for x, y in vertices(p)) for n, p in parts)
        return v[0] + v[1] - F(low, den)

    axis_values = (g((1, 0)), g((0, 1)))
    rays = [(1, 0)] + face_normals(*(p for _, p in parts)) + [(0, 1)]
    # the walk's precondition: primitive rays, each pair in order with det >= 1
    assert all(min(r) >= 0 and gcd(*r) == 1 for r in rays)
    for n in rays[1:-1]:
        if g(n) < 0:
            return MldResult(NEG_INF, make_weight(*n), False, axis_values), "normal"
    for axis, partner in [((1, 0), rays[1]), ((0, 1), rays[-2])]:
        if g(axis) < 0:
            w = _push_along_axis(g, axis, partner if len(rays) > 2 else (1, 1))
            return MldResult(NEG_INF, make_weight(*w), False, axis_values), "axis"
    best = None
    for u, v in zip(rays, rays[1:]):
        assert _det(u, v) >= 1
        basis = hilbert_basis((u, v))
        if (u, v) == ((1, 0), (0, 1)):
            basis = basis + [(1, 1)]
        for h in basis:
            value = g(h)
            assert value >= 0, (h, value)  # lc, as no ray is negative
            if h[0] >= 1 and h[1] >= 1 and (best is None or value < best[0]):
                best = (value, h)
    return MldResult(best[0], make_weight(*best[1]), True, axis_values), "attained"


def _push_along_axis(g, axis, partner):
    p0 = (axis[0] + partner[0], axis[1] + partner[1])
    if g(p0) >= 0:
        rate = g((p0[0] + axis[0], p0[1] + axis[1])) - g(p0)
        steps = g(p0) // -rate + 1
        p0 = (p0[0] + steps * axis[0], p0[1] + steps * axis[1])
    d = gcd(*p0)
    return (p0[0] // d, p0[1] // d)


def test_mld_run_walk_matches_full_scan():
    """Field for field, witness included, on diagrams of one to three
    random integer polygons with random weights over a random
    denominator: the table's rays and the walk's one vertex per cone
    against every polygon's weighted least value at every ray and basis
    element."""
    rng = random.Random(67)
    classes = {"attained": 0, "normal": 0, "axis": 0}
    sizes = Counter()
    for _ in range(2400):
        parts = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            top = rng.choice([2, 4, 12])
            pts = [(rng.randint(0, top * 6), rng.randint(0, top * 6))
                   for _ in range(rng.randint(1, 5))]
            parts.append((rng.randint(1, 3), poly(*pts)))
        den = rng.randint(1, 6) * sum(n for n, _ in parts)
        expected, kind = full_scan_mld(parts, den)
        weights, polygons = zip(*parts)
        assert _mld(_table(weights, polygons, den)) == expected
        classes[kind] += 1
        sizes[len(parts)] += 1
    assert min(classes.values()) >= 100, classes
    assert min(sizes.values()) >= 400, sizes


def test_lc_is_read_off_the_fan_rays():
    """On diagrams of one to three random integer polygons with random
    weights over a random denominator, each ray value read off the cone
    forms is the discrepancy at that ray, in the order (1, 0), (0, 1),
    then the face normals, and the mld scan finds a negative discrepancy
    exactly when some ray value is negative: each form is linear on its
    cone, whose rays span it."""
    rng = random.Random(83)
    kinds = Counter()
    for _ in range(1500):
        parts = []
        for _ in range(rng.randint(1, 3)):
            top = rng.choice([2, 3, 6, 40])
            pts = [(rng.randint(0, top), rng.randint(0, top)) for _ in range(rng.randint(1, 4))]
            parts.append((rng.randint(1, 3), poly(*([q for q in pts if q != (0, 0)] or [(1, 0)]))))
        weights, polygons = zip(*parts)
        den = rng.randint(1, 3) * sum(weights)
        diagram = _table(weights, polygons, den)
        normals = face_normals(*polygons)
        values = diagram.rays
        assert list(values) == [(1, 0), (0, 1)] + normals
        assert all(value == (w1 + w2) * den - diagram.lattice_min((w1, w2))
                   for (w1, w2), value in values.items())
        least = min(values.values())
        assert (_mld(diagram).value is NEG_INF) == (least < 0)
        kinds["not lc" if least < 0 else "lc"] += 1
        kinds["least 0"] += least == 0
    assert kinds["lc"] >= 300 and kinds["not lc"] >= 300 and kinds["least 0"] >= 50, kinds


def _random_divisor(rng):
    comps = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exp = (rng.randint(0, 4), rng.randint(0, 4))
            if exp == (0, 0):
                continue
            terms[exp] = F(rng.randint(1, 5), rng.randint(1, 5))
        p = from_terms(terms)
        if p.is_zero:
            continue
        comps.append((F(rng.randint(1, 10), 10), p))
    if not comps:
        comps = [(F(1, 2), parse_poly("x + y"))]
    return DivisorGerm(tuple(comps))


def test_mld_deep_cone_attained():
    with within(1, "1/2*(x^1000000000 + y)"):
        r = mld_toric(parse_divisor("1/2*(x^1000000000 + y)"))
    assert (r.value, r.witness, r.attained) == (F(3, 2), (1, 1), True)


def test_mld_deep_cone_not_lc():
    b = parse_divisor("2*(x^1000000000 + y)")
    with within(1, b):
        r = mld_toric(b)
    assert r.value is NEG_INF and not r.attained
    assert toric_log_discrepancy(b, tuple(r.witness)) < 0


# ---------------------------------------------------------------------------
# lct


def test_lct_binomial_formula_instance():
    # lambda=3/4, m=2, n=3: 1 - lambda*n + n/m
    res = lct_toric(parse_divisor("3/4*(x^2+y^3)"), curve_orient(parse_poly("y")))
    assert res.value == 1 - F(3, 4) * 3 + F(3, 2) == F(1, 4)
    assert res.exact


def test_lct_smooth_branch_against_transverse_axis():
    res = lct_toric(parse_divisor("1/2*(x)"), curve_orient(parse_poly("y")))
    assert res.membership_sup == 1
    assert res.coefficient_cap == 1
    assert res.value == 1


def test_lct_coefficient_cap_engages():
    res = lct_toric(parse_divisor("1/2*(y)"), curve_orient(parse_poly("y")))
    assert res.coefficient_cap == F(1, 2)
    assert res.value == F(1, 2)
    # at value 0 no C is added: B alone, nondegenerate, makes the value exact
    res = lct_toric(parse_divisor("1*(y - x^2)"), curve_orient(parse_poly("y - x^2")))
    assert (res.value, res.witness_weight, res.exact) == (0, "cap", True)


def test_lct_precondition_errors():
    with pytest.raises(DomainError, match="coefficient above one"):
        lct_toric(parse_divisor("2*(x)"), curve_orient(parse_poly("y")))
    with pytest.raises(DomainError, match="not lc"):
        lct_toric(parse_divisor("1*(x^2*y^2)"), curve_orient(parse_poly("y")))
    # B is degenerate with toric mld 0, but mult_C B = 3/2: C has
    # coefficient above one in B
    b = parse_divisor("3/4*(y - x^2) + 3/4*(y - x^2)")
    assert mld_toric(b).value == 0
    with pytest.raises(DomainError, match="not lc before adding C"):
        lct_toric(b, curve_orient(parse_poly("y - x^2")))
    # not lc at one ray only: the normal (3, 2), then the axis (0, 1) with
    # exactly 0 at the normal (1, 1)
    for text, values in [("1*(x^2 + y^3)", {(1, 0): 1, (0, 1): 1, (3, 2): -1}),
                         ("2/3*(y) + 2/3*(x*y + y^2)", {(1, 0): 3, (0, 1): -1, (1, 1): 0})]:
        pb = newton_polytope(parse_divisor(text))
        assert pb.rays == values
        with pytest.raises(DomainError, match="not lc before adding C"):
            lct_toric(parse_divisor(text), curve_orient(parse_poly("x")))
    # lc with a least ray value of exactly 0, on the axis (0, 1)
    assert lct_toric(parse_divisor("1/3*(y) + 2/3*(x*y + y^2)"),
                     curve_orient(parse_poly("x"))).value >= 0


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception, reason=(
    "ROADMAP known defect 4: on a degenerate B, having no negative ray value "
    "is only necessary for lc, and lct_toric answers value 0 with exact=False"))
def test_lct_refuses_a_degenerate_pair_that_is_not_lc():
    """Both branches are tangent to y = x.  Blowing up the origin gives
    a(E1) = 0; blowing up the shared tangent point on E1 gives
    a = 2 - 2/3 - 2/3 - 1 = -1/3, so (X, B) is not lc, though no ray value
    of B's table is negative."""
    b = parse_divisor("2/3*(y - x) + 2/3*(y^2 - x^2 + x^3)")
    assert min(newton_polytope(b).rays.values()) >= 0
    with pytest.raises(DomainError, match="pair not lc before adding C"):
        lct_toric(b, curve_orient(parse_poly("x")))


def test_lct_deep_cone_closed_form():
    m = 10**9
    for k in range(1, 5):
        b = parse_divisor(f"{F(1, 2 * k)}*(x^{m} + y^{k})")
        with within(1, b):
            res = lct_toric(b, curve_orient(parse_poly("y")))
        assert res.value == F(1, 2) + F(k, m)


def test_axis_curve_does_not_walk_the_exponent():
    # psi = 0 on the curve x = 0, so Horner's products stop at the first
    b = parse_divisor("1/4*(x^1000000000 + y^2)")
    c = curve_orient(parse_poly("x"))
    with within(1, b):
        res = lct_toric(b, c)
        inter = local_intersection(b, c)
        rep = verify_surface_theorem(b, c, "1/2")
    assert (res.membership_sup, res.coefficient_cap, res.value, res.witness_weight, res.exact) == (
        1, 1, 1, (1, 0), True)
    assert inter == F(1, 2)
    assert rep.applicable and rep.passed and rep.lct == res


def test_one_polytope_per_branch_per_analysis(monkeypatch):
    """lct_toric and verify build one polygon per branch of B and none of
    C, whose normal and contacts are read off its v, and read the summed
    edges of B's weighted polygons once.  Against the axis y, contact
    clears no denominator: it reads each branch's exponents.  Against
    y - x^5 it clears the denominators of each branch and of C once, and so
    it does against 3/2*x + y^2 + x*y, whose root is lifted from that one
    clear."""
    import germ.germs
    import germ.invariants

    cases = [
        (lct_toric, parse_divisor("1/4*(x^3000 + y^2)"), parse_poly("y"), (), 0),
        (verify_surface_theorem,
         parse_divisor("1/3*(x^2 + y^3) + 1/4*(y - x^2) + 1/5*(x^3 - y^2)"),
         parse_poly("y - x^5"), ("1/5",), 4),
    ]
    built, edges, cleared = [], [], []

    def counting(record, f):
        def wrapped(*args):
            record.append(args)
            return f(*args)
        return wrapped

    monkeypatch.setattr(germ.germs, "polytope_from_support",
                        counting(built, germ.germs.polytope_from_support))
    monkeypatch.setattr(germ.germs, "weighted_edges",
                        counting(edges, germ.germs.weighted_edges))
    monkeypatch.setattr(germ.germs, "_integer_terms", counting(cleared, germ.germs._integer_terms))
    for run, b, c, extra, clears in cases:
        pb = newton_polytope(b)
        for record in (built, edges, cleared):
            record.clear()
        run(b, curve_orient(c), *extra)
        assert len(built) == len(b.components)
        assert edges == [(pb.weights, pb.polygons)]
        assert len(cleared) == clears
    cleared.clear()
    contact_along_curve(parse_divisor("1*(3/2*x + y^2)"),
                        curve_orient(parse_poly("3/2*x + y^2 + x*y")))
    assert len(cleared) == 2  # the branch and C


def test_one_table_per_analysis(monkeypatch):
    """mld_toric, lct_toric and verify each build B's valuation table once."""
    import germ.invariants

    built = []
    table = germ.invariants.newton_polytope
    monkeypatch.setattr(germ.invariants, "newton_polytope", lambda b: built.append(b) or table(b))
    b = parse_divisor("1/3*(x^2 + y^3) + 1/4*(y - x^2) + 1/5*(x^3 - y^2)")
    c = curve_orient(parse_poly("y - x^5"))
    for run, extra in [(mld_toric, ()), (lct_toric, (c,)), (verify_surface_theorem, (c, "1/5"))]:
        built.clear()
        result = run(b, *extra)
        assert getattr(result, "lct", result) is not None
        assert built == [b]


def test_analysis_checks_no_term(monkeypatch):
    """Each Poly checks its terms once, when it is built: parsing builds one
    Poly per polynomial, and mld_toric, lct_toric and verify check no term
    again."""
    checks = []
    post_init = Poly.__post_init__

    def counting(self):
        checks.append(self)
        return post_init(self)

    monkeypatch.setattr(Poly, "__post_init__", counting)
    b = parse_divisor("1/3*(x^2 + y^3) + 1/4*(y - x^2) + 1/5*(x^3 - y^2)")
    c = curve_orient(parse_poly("3/2*x + y^2 + x*y"))
    assert checks == list(b.branches) + [c.poly]
    checks.clear()
    mld_toric(b)
    lct_toric(b, c)
    verify_surface_theorem(b, c, "1/5")
    assert checks == []


def test_lct_reads_lc_off_the_fan_rays(monkeypatch):
    """lct_toric walks no Klein sail, and it and verify read a support
    value of B off its table (``lattice_min``) once per face normal of C
    that B does not have: every other discrepancy is a ray value of the
    cone forms."""
    import germ.invariants

    cases = [
        (lct_toric, "1/4*(x^3000 + y^2)", "y", ()),
        (lct_toric, "1/3*(x^2 + y^3) + 1/4*(x*y - y^2)", "3/2*x + y^2 + x*y", ()),
        (verify_surface_theorem, "1/3*(x^2 + y^3) + 1/4*(y - x^2) + 1/5*(x^3 - y^2)",
         "y - x^5", ("1/5",)),
        (verify_surface_theorem, "1/3*(x^2 + y^3) + 1/4*(x - y^2)", "y^2 - 2*x", ("1/5",)),
    ]
    walks, reads = [], []

    def counting(record, f):
        def wrapped(*args):
            record.append(args)
            return f(*args)
        return wrapped

    monkeypatch.setattr(germ.invariants, "_hilbert_runs",
                        counting(walks, germ.invariants._hilbert_runs))
    monkeypatch.setattr(NewtonDiagram, "lattice_min", counting(reads, NewtonDiagram.lattice_min))
    c_only = Counter()
    for run, b, c, extra in cases:
        b, c = parse_divisor(b), curve_orient(parse_poly(c))
        normals = face_normals(*newton_polytope(b).polygons)
        own = len([n for n in face_normals(polytope_from_support(c.poly)) if n not in normals])
        walks.clear()
        reads.clear()
        result = run(b, c, *extra)
        assert (run is verify_surface_theorem) == bool(walks)
        assert getattr(result, "lct", result) is not None
        assert len(reads) == own
        c_only[own] += 1
    assert c_only[0] >= 2 and c_only[1] >= 2, c_only


def test_non_lc_germ_walks_no_sail(monkeypatch):
    """mld_toric and verify read -inf off the fan's rays: on a germ that is
    not lc, at a face normal or at an axis, they walk no Klein sail."""
    import germ.invariants

    walks = []
    hilbert_runs = germ.invariants._hilbert_runs

    def counting(*args):
        walks.append(args)
        return hilbert_runs(*args)

    monkeypatch.setattr(germ.invariants, "_hilbert_runs", counting)
    for text in ["2*(x^1000000000 + y)", "1*(x^2 + y^3)"]:
        b = parse_divisor(text)
        assert mld_toric(b).value is NEG_INF
        rep = verify_surface_theorem(b, curve_orient(parse_poly("x")), "1/2")
        assert rep.mld.value is NEG_INF and not rep.applicable
    assert walks == []


def membership_bisection(b, c, steps=64):
    """Oracle: bisect t -> (1,1) in Newton polytope of B + tC.  With D the
    lcm of the denominators of t and of B's coefficients, (1, 1) lies in it
    iff (D, D) lies in the hull of the sums of D*coeff-scaled vertices."""
    from test_exactgeom import contains, minkowski_hull

    parts = [(coeff, polytope_from_support(p)) for coeff, p in b.components]

    def member(t):
        scaled = parts + ([(t, polytope_from_support(c.poly))] if t else [])
        d = lcm(*(k.denominator for k, _ in scaled))
        region = minkowski_hull([(int(k * d), q) for k, q in scaled])
        return contains(region, (F(d), F(d)))

    if not member(0):
        return F(0), F(0)
    lo, hi = F(0), F(1)
    while member(hi):
        hi *= 2
        if hi > 64:
            return lo, None  # no upper bound found
    for _ in range(steps):
        mid = (lo + hi) / 2
        if member(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_lct_membership_matches_bisection():
    rng = random.Random(29)
    checked = 0
    for _ in range(40):
        b = _random_divisor(rng)
        if max(coeff for coeff, _ in b.components) > 1:
            continue
        r = mld_toric(b)
        if r.value is NEG_INF or r.value < 0:
            continue
        c = curve_orient(parse_poly(rng.choice(["y", "x", "y - x^2", "x + y^3"])))
        res = lct_toric(b, c)
        lo, hi = membership_bisection(b, c)
        assert lo <= res.membership_sup
        if hi is not None:
            assert res.membership_sup <= hi
        checked += 1
    assert checked >= 15


#: Axes in both frames: x = 0 and y = 0, each alone and times a unit.
AXES = ["x", "y", "x + x*y", "y + x^2*y"]


def _frame_curve(rng, v):
    """A smooth curve lin*x + c*y^v (no y-power when v = 0) in its frame,
    plus seeded terms that are multiples of x, or of y^(v + 1) when v > 0,
    so that v is its least y-power free of x."""
    terms = {(1, 0): F(rng.choice([1, -2, 3]), rng.choice([1, 2]))}
    if v:
        terms[0, v] = F(rng.choice([-3, 1, 5]), rng.choice([1, 4]))
    for _ in range(rng.randint(0, 4)):
        i = rng.randint(0 if v else 1, 4)
        exp = (i, rng.randint(v + 1 if i == 0 else 0, 7))
        if exp != (1, 0):
            terms[exp] = F(rng.choice([-2, -1, 1, 7]), rng.choice([1, 3]))
    return from_terms(terms)


def test_curve_normal_and_contact_match_its_hull():
    """C's normal list and its closed-form contact, read off v, equal the
    face normals of the hull of C's support and its least <w, .> over the
    hull's vertices, at B's fan rays and at random primitive weights: on
    the named axes, on seeded axes times units, on curves with both linear
    terms (v = 1) and on curves with v >= 2, as given and transposed."""
    rng = random.Random(97)
    seen = Counter()
    for _ in range(120):
        v = rng.choice([0, 1, rng.randint(2, 6)])
        g = parse_poly(rng.choice(AXES)) if not v and rng.random() < 0.3 else _frame_curve(rng, v)
        for poly_c in (g, _transpose(g)):
            c = curve_orient(poly_c)
            assert c.v == v
            hull = polytope_from_support(c.poly)
            assert list(c.normals) == face_normals(hull)
            b = _random_divisor(rng)
            weights = [(1, 0)] + face_normals(*newton_polytope(b).polygons) + [(0, 1)]
            while len(weights) < 12:
                w = (rng.randint(1, 60), rng.randint(1, 60))
                if gcd(*w) == 1:
                    weights.append(w)
            for w in weights:
                assert c.contact(w) == lattice_min(hull, w), (c, w)
            kind = "axis" if not v else "both linear" if v == 1 else "v >= 2"
            seen[kind, c.swapped] += 1
    assert set(seen) == {("axis", False), ("axis", True), ("both linear", False),
                         ("v >= 2", False), ("v >= 2", True)}, seen
    assert min(seen.values()) >= 30 and seen["both linear", False] >= 60, seen


def reference_exact(b, c, value):
    """Oracle, the rule the contact walk replaced: B + value*C is
    nondegenerate iff B is and, when value > 0, B's branches with C's
    polynomial pass the test.  Only a normal B and C share can fail there:
    along a normal only C has, C's form is a binomial on its own, and along
    one only B has, C's form is one term.  Also says whether B and C share
    a normal."""
    pb = newton_polytope(b)
    shared = [n for n in c.normals if n in pb.rays] if value > 0 else []
    exact = _nondegeneracy(b.branches, pb.polygons).nondegenerate and (
        value <= 0 or _nondegeneracy(b.branches + [c.poly], pb.polygons + (
            polytope_from_support(c.poly),)).nondegenerate)
    return exact, bool(shared)


#: Axes, as given and times a unit, and curves with v = 1, 2 and 3, some of
#: them swapped into their frame.
EXACTNESS_CURVES = ["y", "x", "x + x*y", "x - 2*y", "y - x^2", "x + y^3",
                    "3/2*x + y^2 + x*y", "y^2 - 2*x", "y - x - x^2", "x + y^2 + y^3"]


def _face_branch(rng, c):
    """A branch with a form along C's normal (v, 1), in C's frame: the sum
    of a_k*x^k*y^(v*(d - k)) times a monomial, made to vanish at C's root
    x = r*y^v about half the time, plus terms off that face."""
    g = _transpose(c.poly) if c.swapped else c.poly
    r = -g.terms[0, c.v] / g.terms[1, 0]
    d = rng.randint(1, 3)
    coeffs = [F(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(d + 1)]
    if rng.random() < 0.5:
        coeffs[0] -= sum(a * r**k for k, a in enumerate(coeffs))
    i0, j0 = rng.choice([(0, 0), (0, 0), (1, 0), (0, 1)])
    terms = {(i0 + k, j0 + c.v * (d - k)): a for k, a in enumerate(coeffs)}
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, d + 1)
        j = c.v * (d - i) + j0 + rng.randint(1, 3) if i <= d else rng.randint(0, 3)
        terms.setdefault((i0 + i, j), F(rng.choice([-1, 1, 2])))
    p = from_terms(terms)
    return _transpose(p) if c.swapped else p


def _exactness_case(rng):
    """One to three branches against a seeded curve: small random branches,
    branches with a form along C's normal, and C times a unit."""
    c = curve_orient(parse_poly(rng.choice(EXACTNESS_CURVES)))
    branches = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.35 or not c.v:
            p = _small_branch(rng, 4)
        elif kind < 0.85:
            p = _face_branch(rng, c)
        else:
            p = _mul(c.poly, _small_branch(rng, 1, constant=rng.choice([1, -2])))
        if not p.is_zero and (0, 0) not in p.terms:
            branches.append(p)
    return DivisorGerm(tuple((F(rng.randint(1, 4), 12), p) for p in branches or [c.poly])), c


def test_lct_exactness_matches_the_shared_normal_reference():
    """lct_toric's ``exact`` and verify's failed "B + lct*C newton
    nondegenerate" read exactness off the contact walk; on seeded germs they
    agree with the test of B's branches and C along their shared normals.
    Many germs are decided on a shared normal with value > 0, both ways."""
    rng = random.Random(101)
    last = "B + lct*C newton nondegenerate"
    checked, shared = 0, Counter()
    for _ in range(2400):
        b, c = _exactness_case(rng)
        rep = verify_surface_theorem(b, c, "1/12")
        expected = [h for h in rep.failed_hypotheses if h != last]
        if rep.lct is not None and not reference_exact(b, c, rep.lct.value)[0]:
            expected.append(last)
        assert rep.failed_hypotheses == tuple(expected), (b, c)
        try:
            res = lct_toric(b, c)
        except DomainError:  # not lc before adding C
            continue
        exact, decided = reference_exact(b, c, res.value)
        assert res.exact == exact and rep.lct in (None, res), (b, c)
        checked += 1
        shared[exact] += decided
    assert checked >= 2000 and shared[True] >= 100 and shared[False] >= 100, (checked, shared)
    assert shared[True] + shared[False] >= 300, shared


@pytest.mark.parametrize("e", [4000, 10**9])
def test_lct_exactness_on_a_stepped_face_shared_with_c(e):
    """B's one face along (2, 1), C's normal, steps by e/2 in x: its form is
    X^2 + X*Y +- 2*Y^2 in X = x^(e/2), Y = y^e.  With + it does not vanish
    at C's root x = -y^2, so B + 1*C is nondegenerate; with - it does, as C
    divides the branch, and the cap 1 - 1/(4e) is not exact.  Exactness is
    read off the contact walk, with no face form of C's step 1 in x."""
    c = curve_orient(parse_poly("x + y^2"))
    for sign, value, exact in [("+", 1, True), ("-", 1 - F(1, 4 * e), False)]:
        b = parse_divisor(f"{F(1, 4 * e)}*(x^{e} + x^{e // 2}*y^{e} {sign} 2*y^{2 * e})")
        with within(1, b):
            res = lct_toric(b, c)
        assert (res.value, res.exact) == (value, exact)


# ---------------------------------------------------------------------------
# delta bound


def test_delta_bound_examples():
    assert (delta_bound(1).delta, delta_bound(1).witness_n) == (F(1, 2), 2)
    # n = 4 ties with n = 3; the smaller witness wins
    assert (delta_bound(F(1, 2)).delta, delta_bound(F(1, 2)).witness_n) == (F(1, 12), 3)
    assert (delta_bound(4).delta, delta_bound(4).witness_n) == (F(7, 2), 2)


def test_delta_bound_matches_exhaustive():
    rng = random.Random(41)
    for _ in range(60):
        eps = F(rng.randint(1, 36), rng.randint(6, 24))
        expected = max((eps - F(1, n)) / (n - 1) for n in range(2, 400))
        assert delta_bound(eps).delta == expected


def test_delta_bound_closed_form_matches_scan():
    """The closed form against the maximum over 2 <= n <= ceil(1 + 4/eps),
    witness included (ties go to the smallest n)."""
    rng = random.Random(43)
    for _ in range(60):
        eps = F(rng.randint(1, 40), rng.randint(1, 2000))
        values = [(eps - F(1, n)) / (n - 1) for n in range(2, ceil(1 + 4 / eps) + 1)]
        best = max(values)
        result = delta_bound(eps)
        assert (result.delta, result.witness_n) == (best, values.index(best) + 2)


def test_delta_bound_monotone_on_grid():
    values = [delta_bound(F(j, 16)).delta for j in range(1, 64)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_delta_bound_rejects_nonpositive():
    with pytest.raises(InputError):
        delta_bound(0)
    b, c = parse_divisor("1/2*(x^2+y^2)"), curve_orient(parse_poly("y"))
    for eps in ["0", "-1/3"]:
        with pytest.raises(InputError, match="epsilon must be positive"):
            verify_surface_theorem(b, c, eps)


def test_exponent_notation_is_rejected_at_once():
    # ten characters that would make a million-digit number
    b, c = parse_divisor("1/2*(x^2+y^2)"), curve_orient(parse_poly("y"))
    with within(1, "epsilon 1e-1000000"):
        with pytest.raises(InputError, match="p/q"):
            delta_bound("1e-1000000")
        with pytest.raises(InputError, match="p/q"):
            verify_surface_theorem(b, c, "1e-1000000")
    assert delta_bound("0.25") == delta_bound(F(1, 4)) == delta_bound(" 1/4 ")


def bound_floor_check(epsilon):
    """delta(eps) >= min(eps^2/4, 3/2) must hold for every positive eps."""
    eps, delta, _ = delta_bound(epsilon)
    return delta >= min(eps * eps / 4, F(3, 2))


#: A signed integer, ``p/q`` or a plain decimal, in groups.
_RATIONAL_TEXT = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")


def reference_rational(value):
    """The regex reader that ``delta_bound`` used before it read text with
    ``Fraction``: ints (``bool`` among them), Fractions, and stripped text
    matching ``_RATIONAL_TEXT``, summed by digit arithmetic."""
    if isinstance(value, F):
        return value
    if isinstance(value, int):
        return F(value)
    if isinstance(value, str):
        m = _RATIONAL_TEXT.fullmatch(value.strip())
        if m is not None:
            sign, whole, den, decimals = m.groups()
            scale = 10 ** len(decimals or "")
            try:
                p, q = int(whole or 0) * scale + int(decimals or 0), int(den or 1) * scale
            except ValueError as exc:  # more digits than int() converts from text
                raise InputError(f"rational number too long: {exc}") from None
            if q:
                return F(-p if sign == "-" else p, q)
        raise InputError(f"not a rational number: {value!r}")
    raise InputError(f"cannot interpret {value!r} as a rational number")


def _read(reader, value):
    """The rational ``reader`` reads, or None when it raises ``InputError``."""
    try:
        return reader(value)
    except InputError:
        return None


#: Characters of the drawn epsilon texts, each drawn with its weight: what
#: both readers take, whitespace that only ``strip`` removes, and what
#: ``Fraction`` alone would read (``e``, ``_`` and the Arabic-Indic digit 3).
EPSILON_ALPHABET = [("0123456789", 1), ("+-/.", 1), (" \t\n\u00a0\u2003\u3000", 1),
                    ("e_\u0663", 1)]


def test_epsilon_reader_matches_the_regex_reader():
    """``delta_bound`` reads epsilon text with ``Fraction`` after a filter
    to ASCII digits, signs, '/' and '.'; the regex reader it replaced is the
    reference.  On 100,000 seeded strings the two accept the same texts with
    the same values, also past the digits ``int`` converts; only a ``bool``,
    which the old reader took as an int, is refused now."""
    rng = random.Random(101)
    chars = [c for group, weight in EPSILON_ALPHABET for c in group for _ in range(weight)]
    seen = Counter()
    texts = ["1/" + "7" * 5000, "0." + "1" * 5000, "9" * 5000, " 1/7 ", "1.", ".5", "+.5",
             "-0", ".", "+", "1/0", "0/0", "0.0", "1/-2", "--1", "1e-1000000", "1_000"]
    for _ in range(100_000):
        size = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        texts.append("".join(rng.choices(chars, k=size)))
    for text in texts:
        old = _read(reference_rational, text)
        if old is not None and old.numerator <= 0:
            with pytest.raises(InputError, match="epsilon must be positive"):
                delta_bound(text)
            seen["not positive"] += 1
            continue
        new = _read(lambda t: delta_bound(t).epsilon, text)
        assert new == old and type(new) is type(old), text
        seen["rejected" if old is None else "read"] += 1
    assert seen["read"] > 15_000 and seen["rejected"] > 50_000, seen
    assert seen["not positive"] > 1_000, seen
    for flag in (True, False):
        assert reference_rational(flag) == int(flag)
        with pytest.raises(InputError, match="cannot interpret"):
            delta_bound(flag)


def test_bound_floor_examples():
    assert delta_bound(1).delta >= F(1, 4)
    assert bound_floor_check(1)
    assert bound_floor_check(F(1, 7))
    assert delta_bound(3).delta >= F(3, 2)
    assert bound_floor_check(3)


# ---------------------------------------------------------------------------
# binomial specializations


def test_binomial_mld_cusp_family():
    for m in [1, 2, 5]:
        lam = F(2 * m - 1, m * m)
        assert mld_toric(binom(lam, m, m + 1)).value == F(1, m)


def test_binomial_mld_trivial():
    assert mld_toric(binom(1, 1, 1)).value == 1


def test_binomial_mld_brute_cross_check():
    assert brute_binomial_mld(F(1, 2), 2, 3) == 1
    assert mld_toric(binom(F(1, 2), 2, 3)).value == 1


def test_binomial_mld_not_lc_reports_neg_inf():
    assert mld_toric(binom(F(1), 3, 3)).value is NEG_INF


def binomial_lct(lam, m, n):
    """Oracle: lct of the axis curve (y = 0) against lambda * (x^m + y^n = 0),
    in the regime 0 <= lambda*n - n/m <= 1: equals 1 - lambda*n + n/m."""
    return 1 - lam * n + F(n, m)


def test_binomial_lct_values():
    assert binomial_lct(F(1, 2), 2, 2) == 1
    assert binomial_lct(F(3, 4), 2, 3) == F(1, 4)
    for n in [1, 2, 5]:
        assert binomial_lct(F(1, n), n, n) == 1


def test_binomial_lct_matches_lct_toric():
    for lam, m, n in [(F(1, 2), 2, 2), (F(3, 4), 2, 3), (F(5, 8), 4, 4), (F(1, 3), 3, 2)]:
        gap = lam * n - F(n, m)
        if not 0 <= gap <= 1:
            continue
        expected = binomial_lct(lam, m, n)
        got = lct_toric(binom(lam, m, n), curve_orient(parse_poly("y")))
        assert got.value == expected


# ---------------------------------------------------------------------------
# surface theorem checker


def test_surface_theorem_cusp_family_m3():
    b = parse_divisor("5/9*(x^3+y^4)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y")), F(1, 3))
    assert rep.applicable
    assert rep.bound == F(1, 30) and rep.bound_witness_n == 5
    assert rep.lct is not None and rep.lct.value == F(1, 9)
    assert rep.passed


def test_surface_theorem_transverse_conic():
    b = parse_divisor("1/2*(x^2+y^2)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y")), F(1, 2))
    assert rep.applicable
    assert rep.mult == 0 and rep.reduced_intersection == 1
    assert rep.mld.value == 1
    assert rep.passed


def test_surface_theorem_hypothesis_filter():
    b = parse_divisor("1*(y)")  # mult_C B = 1 > 1 - eps
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y")), F(1, 2))
    assert not rep.applicable
    assert "mult_C B <= 1 - epsilon" in rep.failed_hypotheses
    assert rep.passed is None
    # epsilon-lc bounds B's own components too: none of these pairs is
    # epsilon-lc, though each has mld >= epsilon
    for text, eps, failed in [
            ("1*(y - x^2)", "1", ("coefficients <= 1 - epsilon",)),
            ("9/10*(x)", "1/2", ("axis values >= epsilon", "coefficients <= 1 - epsilon")),
            ("1*(x)", "1", ("axis values >= epsilon", "coefficients <= 1 - epsilon"))]:
        rep = verify_surface_theorem(parse_divisor(text), curve_orient(parse_poly("y")), eps)
        assert rep.mld.value >= rep.epsilon and rep.failed_hypotheses == failed
        assert not rep.applicable and rep.lct is None and rep.passed is None


def test_surface_theorem_hypotheses_hold_at_their_bounds():
    """mult_C B = 1 - eps, (B' . C) = 2, the axis value 1 - 2/3 = eps and
    the coefficients 2/3 = 1 - eps pass, over B's denominator 3; a larger
    epsilon or intersection fails, and so does the coefficient 3/4."""
    c = curve_orient(parse_poly("y"))
    rep = verify_surface_theorem(parse_divisor("2/3*(y) + 2/3*(y - x^3)"), c, "1/3")
    assert (rep.mult, rep.reduced_intersection) == (F(2, 3), 2)
    assert rep.mld.axis_values == (1, F(1, 3))
    assert rep.failed_hypotheses == ("mld >= epsilon",)
    rep = verify_surface_theorem(parse_divisor("2/3*(y) + 2/3*(y - x^3)"), c, "1/2")
    assert rep.failed_hypotheses == ("mld >= epsilon", "axis values >= epsilon",
                                     "mult_C B <= 1 - epsilon", "coefficients <= 1 - epsilon")
    rep = verify_surface_theorem(parse_divisor("2/3*(y) + 3/4*(y - x^3)"), c, "1/3")
    assert rep.failed_hypotheses == ("mld >= epsilon", "(B' . C) <= 2",
                                     "coefficients <= 1 - epsilon")


def test_surface_theorem_family_at_twice_the_bound():
    """B_m = (1 - 1/m)*(y) + (1/m)*(y^2 - x^(2m-1)) against y at eps = 1/m
    is applicable, and its exact lct eps^2/(2 - eps) is twice delta(eps),
    whose witness is n = 2m - 1.  The exponent 2m - 1 is not walked: each
    check, m = 10^9 included, keeps a 1 s budget."""
    c = curve_orient(parse_poly("y"))
    for m in [2, 3, 12, 10**6, 10**9]:
        eps = F(1, m)
        b = parse_divisor(f"{1 - eps}*(y) + {eps}*(y^2 - x^{2 * m - 1})")
        with within(1, f"m = {m}"):
            rep = verify_surface_theorem(b, c, eps)
        assert rep.applicable and rep.passed and rep.lct.exact
        assert rep.lct.value == eps**2 / (2 - eps) == 2 * rep.bound
        assert rep.bound_witness_n == 2 * m - 1


def test_surface_theorem_checks_exact_bound_for_small_epsilon():
    b = parse_divisor("1/2*(x^2+y^2)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y")), F(1, 200))
    assert rep.bound == delta_bound(F(1, 200)).delta > 0
    assert rep.bound_witness_n == delta_bound(F(1, 200)).witness_n


def test_surface_theorem_names_coefficient_above_one():
    rep = verify_surface_theorem(parse_divisor("3/2*(x + y)"), curve_orient(parse_poly("y")), F(1, 4))
    assert rep.failed_hypotheses == ("coefficients <= 1 - epsilon",)
    assert not rep.applicable and rep.lct is None and rep.passed is None


def test_surface_theorem_curve_with_unit_factor():
    # x + x*y = x*(1 + y) has the germ {x = 0}, which is a component of B
    b = parse_divisor("1/2*(x) + 1/3*(y - x^2)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("x + x*y")), "1/4")
    assert rep.mult == F(1, 2) and rep.reduced_intersection == F(1, 3)


def test_surface_theorem_passes_only_exact_thresholds():
    """1/6*(x^4 + (y - x)^4) + 1/4*(y - x) against y - x - x^2 is the germ
    1/6*(x^4 + y^4) + 1/4*y against y - x^2 sheared by y -> y - x.  B stays
    nondegenerate, but B + lct*C does not, so the toric lct 1 is only an
    upper bound of the true 11/12: the check is inapplicable, not passed."""
    b = parse_divisor("1/6*(2*x^4 - 4*x^3*y + 6*x^2*y^2 - 4*x*y^3 + y^4) + 1/4*(y - x)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y - x - x^2")), "1/2")
    assert rep.nondegenerate and rep.failed_hypotheses == ("B + lct*C newton nondegenerate",)
    assert not rep.applicable and rep.passed is None
    assert rep.lct.value == 1 and not rep.lct.exact
    unsheared = verify_surface_theorem(parse_divisor("1/6*(x^4 + y^4) + 1/4*(y)"),
                                       curve_orient(parse_poly("y - x^2")), "1/2")
    assert unsheared.applicable and unsheared.passed
    assert unsheared.lct.value == F(11, 12) and unsheared.lct.exact
