"""Tests for discrepancies, mld/lct, the delta bound and the approximation
step, with brute-force oracles for every derived value."""

import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from math import ceil, floor, gcd

import pytest

from germ.errors import DomainError, InputError
from germ.exactgeom import face_normals, make_weight
from germ.germs import curve_orient, divisor, local_intersection, parse_divisor
from germ.invariants import (
    MldResult,
    _mld,
    _normal_fan_cones,
    delta_bound,
    lct_toric,
    mld_toric,
    toric_log_discrepancy,
    verify_surface_theorem,
)
from germ.polys import parse_poly
from germ.scalars import NEG_INF, as_fraction
from test_exactgeom import hilbert_basis, poly
from test_germs import from_terms


def binom(lam, m, n):
    return divisor([(lam, from_terms({(m, 0): 1, (0, n): 1}))])


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
            from germ.germs import newton_polytope

            p = newton_polytope(b)
            scaled = k * w1 + k * w2 - F(p.lattice_min((k * w1, k * w2)), p.den)
            assert scaled == k * base


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


def full_scan_mld(p):
    """Oracle: the scan of every Hilbert-basis element of every normal-fan
    cone that the run walk replaced, with the class of its answer:
    "attained", "positive" (-inf at a positive element) or "axis" (-inf at
    an axis element, certified from the sector's first positive element)."""

    def g(v):
        return v[0] + v[1] - min(v[0] * q.x + v[1] * q.y for q in p.vertices)

    axis_values = (g((1, 0)), g((0, 1)))
    best = None
    for sector in _normal_fan_cones(face_normals(p)):
        basis = hilbert_basis(sector)
        if sector.g1 == (1, 0) and sector.g2 == (0, 1):
            basis = basis + [(1, 1)]
        for h in basis:
            value = g(h)
            positive = h[0] >= 1 and h[1] >= 1
            if value < 0 and positive:
                return MldResult(NEG_INF, make_weight(*h), False, axis_values), "positive"
            if value < 0:
                partner = next(e for e in basis if e[0] >= 1 and e[1] >= 1)
                w = _push_along_axis(g, h, partner)
                return MldResult(NEG_INF, make_weight(*w), False, axis_values), "axis"
            if positive and (best is None or value < best[0]):
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
    """Field for field, witness included, on random rational polytopes."""
    rng = random.Random(67)
    classes = {"attained": 0, "positive": 0, "axis": 0}
    for _ in range(2400):
        top = rng.choice([2, 4, 12])
        pts = [(F(rng.randint(0, top * 6), rng.randint(1, 6)),
                F(rng.randint(0, top * 6), rng.randint(1, 6)))
               for _ in range(rng.randint(1, 5))]
        p = poly(*pts)
        expected, kind = full_scan_mld(p)
        assert _mld(p, face_normals(p)) == expected
        classes[kind] += 1
    assert min(classes.values()) >= 100, classes


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
    return divisor(comps)


def test_mld_deep_cone_attained():
    start = time.perf_counter()
    r = mld_toric(parse_divisor("1/2*(x^1000000000 + y)"))
    assert time.perf_counter() - start < 1
    assert (r.value, r.witness, r.attained) == (F(3, 2), (1, 1), True)


def test_mld_deep_cone_not_lc():
    b = parse_divisor("2*(x^1000000000 + y)")
    start = time.perf_counter()
    r = mld_toric(b)
    assert time.perf_counter() - start < 1
    assert r.value is NEG_INF and not r.attained
    assert toric_log_discrepancy(b, tuple(r.witness)) < 0


# ---------------------------------------------------------------------------
# lct


def test_lct_binomial_formula_instance():
    # lambda=3/4, m=2, n=3: 1 - lambda*n + n/m
    res = lct_toric(parse_divisor("3/4*(x^2+y^3)"), curve_orient(parse_poly("y")))
    assert res.value == 1 - F(3, 4) * 3 + F(3, 2) == F(1, 4)
    assert res.exact


def test_lct_cusp_family_m2():
    res = lct_toric(parse_divisor("3/4*(x^2+y^3)"), curve_orient(parse_poly("y")))
    assert res.value == F(1, 4)


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


def test_lct_deep_cone_closed_form():
    m = 10**9
    for k in range(1, 5):
        start = time.perf_counter()
        res = lct_toric(parse_divisor(f"{F(1, 2 * k)}*(x^{m} + y^{k})"), curve_orient(parse_poly("y")))
        assert time.perf_counter() - start < 1
        assert res.value == F(1, 2) + F(k, m)


def test_axis_curve_does_not_walk_the_exponent():
    # psi = 0 on the curve x = 0, so Horner's products stop at the first
    b = parse_divisor("1/4*(x^1000000000 + y^2)")
    c = curve_orient(parse_poly("x"))
    start = time.perf_counter()
    res = lct_toric(b, c)
    inter = local_intersection(b, c)
    rep = verify_surface_theorem(b, c, "1/2")
    assert time.perf_counter() - start < 1
    assert (res.membership_sup, res.coefficient_cap, res.value, res.witness_weight, res.exact) == (
        1, 1, 1, (1, 0), True)
    assert inter == F(1, 2)
    assert rep.applicable and rep.passed and rep.lct == res


def test_one_polytope_per_branch_per_analysis(monkeypatch):
    """lct_toric builds B's and C's polygons once each, and verify one per
    branch of B and one of C: the nondegeneracy test reads those.  Each
    takes the face normals of B's polygon and of C's once, and clears the
    denominators of each branch and of C once."""
    import germ.germs
    import germ.invariants
    from germ.germs import newton_polytope, newton_polytope_of_poly

    cases = [
        (lct_toric, parse_divisor("1/4*(x^3000 + y^2)"), parse_poly("y"), ()),
        (verify_surface_theorem,
         parse_divisor("1/3*(x^2 + y^3) + 1/4*(y - x^2) + 1/5*(x^3 - y^2)"),
         parse_poly("y - x^5"), ("1/5",)),
    ]
    polygons = [(newton_polytope(b), newton_polytope_of_poly(c)) for _, b, c, _ in cases]
    built, normals, cleared = [], [], []

    def counting(record, f):
        def wrapped(arg):
            record.append(arg)
            return f(arg)
        return wrapped

    monkeypatch.setattr(germ.germs, "polytope_from_support",
                        counting(built, germ.germs.polytope_from_support))
    monkeypatch.setattr(germ.invariants, "face_normals",
                        counting(normals, germ.invariants.face_normals))
    monkeypatch.setattr(germ.germs, "_integer_terms", counting(cleared, germ.germs._integer_terms))
    for (run, b, c, extra), (pb, pc) in zip(cases, polygons):
        for record in (built, normals, cleared):
            record.clear()
        run(b, curve_orient(c), *extra)
        assert len(built) == len(b.components) + 1
        assert Counter(normals) == Counter([pb, pc])
        assert len(cleared) == len(b.components) + 1


def membership_bisection(b, c, steps=64):
    """Oracle: bisect t -> (1,1) in Newton polytope of B + tC."""
    from germ.exactgeom import Point2, minkowski_sum, scale
    from germ.germs import newton_polytope, newton_polytope_of_poly
    from test_exactgeom import contains

    pb = newton_polytope(b)
    pc = newton_polytope_of_poly(c.poly)
    one = Point2(F(1), F(1))

    def member(t):
        region = pb if t == 0 else minkowski_sum(pb, scale(pc, t))
        return contains(region, one)

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
        if b.max_coefficient() > 1:
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


def test_exponent_notation_is_rejected_at_once():
    # ten characters that would make a million-digit number
    b, c = parse_divisor("1/2*(x^2+y^2)"), curve_orient(parse_poly("y"))
    start = time.perf_counter()
    with pytest.raises(InputError, match="p/q"):
        delta_bound("1e-1000000")
    with pytest.raises(InputError, match="p/q"):
        verify_surface_theorem(b, c, "1e-1000000")
    assert time.perf_counter() - start < 1
    assert delta_bound("0.25") == delta_bound(F(1, 4)) == delta_bound(" 1/4 ")


def bound_floor_check(epsilon):
    """delta(eps) >= min(eps^2/4, 3/2) must hold for every positive eps."""
    eps = as_fraction(epsilon)
    return delta_bound(eps).delta >= min(eps * eps / 4, F(3, 2))


def test_bound_floor_examples():
    assert delta_bound(1).delta >= F(1, 4)
    assert bound_floor_check(1)
    assert bound_floor_check(F(1, 7))
    assert delta_bound(3).delta >= F(3, 2)
    assert bound_floor_check(3)


def test_surface_bound_small_range():
    assert (delta_bound(F(1, 3)).delta, delta_bound(F(1, 3)).witness_n) == (F(1, 30), 5)


# ---------------------------------------------------------------------------
# dirichlet step


@dataclass(frozen=True)
class DirichletTrace:
    """Remainder recursion certifying a small multiple of q near an integer.

    r_{-1} = 1, r_0 = q mod 1, r_{i-2} = b_i r_{i-1} + r_i; numerators
    a_{-1} = 0, a_0 = 1, a_i = a_{i-2} + b_i a_{i-1}.  The recursion stops
    at the first m with r_m <= delta, and k = a_m then satisfies
    dist(k q, Z) <= delta with k <= ceil(1/delta) - 1.
    """

    q: F
    delta: F
    remainders: "tuple[F, ...]"          # r_{-1} .. r_m
    partial_quotients: "tuple[int, ...]"  # b_1 .. b_m
    numerators: "tuple[int, ...]"        # a_{-1} .. a_m
    k: int

    def distance(self) -> F:
        """min(frac(k q), 1 - frac(k q))."""
        frac = self.k * self.q - floor(self.k * self.q)
        return min(frac, 1 - frac)


def dirichlet_k(q, delta):
    """The approximation step of the proof of the bound: the recursion of
    :class:`DirichletTrace` for q and delta."""
    qq = as_fraction(q)
    d = as_fraction(delta)
    if not 0 < d < 1:
        raise InputError("delta must lie strictly between 0 and 1")
    r0 = qq - floor(qq)
    remainders = [F(1), r0]
    numerators = [0, 1]
    quotients = []
    while remainders[-1] > d:
        r_prev, r_last = remainders[-2], remainders[-1]
        step = int(r_prev // r_last)
        quotients.append(step)
        remainders.append(r_prev - step * r_last)
        numerators.append(numerators[-2] + step * numerators[-1])
    return DirichletTrace(
        qq, d, tuple(remainders), tuple(quotients), tuple(numerators), numerators[-1]
    )


def check_trace(trace):
    rs, bs, as_ = trace.remainders, trace.partial_quotients, trace.numerators
    assert rs[0] == 1 and as_[0] == 0 and as_[1] == 1
    for i in range(1, len(bs) + 1):
        assert rs[i - 1] == bs[i - 1] * rs[i] + rs[i + 1]
        assert 0 <= rs[i + 1] < rs[i]
        assert as_[i + 1] == as_[i - 1] + bs[i - 1] * as_[i]
    assert rs[-1] <= trace.delta
    if len(rs) >= 3 or rs[1] > trace.delta:
        assert rs[-2] > trace.delta
    assert trace.k == as_[-1]
    assert trace.k <= ceil(1 / trace.delta) - 1
    assert trace.distance() <= trace.delta


def test_dirichlet_examples():
    t = dirichlet_k(F(3, 7), F(1, 3))
    assert t.k == 2 and t.partial_quotients == (2,) and t.remainders[-1] == F(1, 7)
    assert t.distance() == F(1, 7)
    check_trace(t)

    t = dirichlet_k(5, F(1, 2))
    assert t.k == 1
    check_trace(t)

    t = dirichlet_k(F(1, 2), F(2, 5))
    assert t.k == 2 and t.distance() == 0
    check_trace(t)


def test_dirichlet_exhaustive_small():
    for q_den in range(1, 25):
        for q_num in range(0, q_den + 1):
            for d_den in range(2, 8):
                t = dirichlet_k(F(q_num, q_den), F(1, d_den))
                check_trace(t)


def test_dirichlet_rejects_bad_delta():
    with pytest.raises(InputError):
        dirichlet_k(F(1, 2), 1)
    with pytest.raises(InputError):
        dirichlet_k(F(1, 2), 0)


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
    coeff = as_fraction(lam)
    if not 0 < coeff <= 1:
        raise InputError("lambda must lie in (0, 1]")
    if m < 1 or n < 1:
        raise InputError("exponents must be positive integers")
    gap = coeff * n - F(n, m)
    if gap < 0:
        raise DomainError(f"lambda*n - n/m = {gap} violates 0 <= lambda*n - n/m")
    if gap > 1:
        raise DomainError(f"lambda*n - n/m = {gap} violates lambda*n - n/m <= 1")
    return 1 - coeff * n + F(n, m)


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


def test_binomial_lct_precondition_error_names_inequality():
    with pytest.raises(DomainError, match="lambda"):
        binomial_lct(F(1, 8), 2, 2)  # lambda*n - n/m < 0


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


def test_surface_theorem_checks_exact_bound_for_small_epsilon():
    b = parse_divisor("1/2*(x^2+y^2)")
    rep = verify_surface_theorem(b, curve_orient(parse_poly("y")), F(1, 200))
    assert rep.bound == delta_bound(F(1, 200)).delta > 0
    assert rep.bound_witness_n == delta_bound(F(1, 200)).witness_n


def test_surface_theorem_names_coefficient_above_one():
    rep = verify_surface_theorem(parse_divisor("3/2*(x + y)"), curve_orient(parse_poly("y")), F(1, 4))
    assert rep.failed_hypotheses == ("coefficients <= 1",)
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
