"""Tests for parsing, germ data, multiplicities and local intersections."""

import random
from fractions import Fraction as F
from functools import reduce

import pytest

from germ.errors import DomainError, InputError
from germ.exactgeom import minkowski_sum
from germ.germs import (
    DivisorGerm,
    contact_along_curve,
    curve_orient,
    curve_parametrization,
    divisor,
    local_intersection,
    newton_intersection_bound,
    newton_polytope,
    newton_polytope_of_poly,
    nondegeneracy_check,
    parse_divisor,
    render_divisor,
)
from germ.polys import Poly, parse_poly, render_poly
from germ.scalars import POS_INF


def pp(text, variables=("x", "y")):
    return parse_poly(text, variables)


# ---------------------------------------------------------------------------
# parsing


def test_parse_poly_plain():
    assert dict(pp("x^2 + 2*x*y + y^2").terms) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_poly_cancellation():
    assert dict(pp("x^3 + y^4 - y^4").terms) == {(3, 0): 1}


def test_parse_poly_renamed_variables():
    assert dict(pp("x^2 + t^3", variables=("t", "x")).terms) == {(0, 2): 1, (3, 0): 1}


def test_parse_poly_rational_coefficients():
    assert dict(pp("1/2*x - 3/4*y").terms) == {(1, 0): F(1, 2), (0, 1): F(-3, 4)}


def test_parse_poly_errors_carry_position():
    with pytest.raises(InputError, match="position"):
        pp("x + ")
    with pytest.raises(InputError, match="unknown variable"):
        pp("x + z^2")
    with pytest.raises(InputError, match="position"):
        pp("x y")  # missing explicit '*'


def test_parse_divisor_single():
    b = parse_divisor("3/4*(x^2 + y^3)")
    assert len(b.components) == 1
    assert b.components[0][0] == F(3, 4)
    assert dict(b.components[0][1].terms) == {(2, 0): 1, (0, 3): 1}


def test_parse_divisor_two_components_order():
    b = parse_divisor("1/2*(x^2+y^2) + 1/3*(y)")
    assert [c for c, _ in b.components] == [F(1, 2), F(1, 3)]
    assert render_divisor(b) == "1/2*(x^2 + y^2) + 1/3*(y)"


def test_parse_divisor_rejects_constant_term():
    with pytest.raises(InputError, match="origin"):
        parse_divisor("1*(x + 1)")


def test_parse_divisor_rejects_nonpositive_coefficient():
    with pytest.raises(InputError, match="coefficient"):
        parse_divisor("-1*(x)")
    with pytest.raises(InputError, match="coefficient"):
        parse_divisor("0*(x)")


def test_parse_render_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exp = (rng.randint(0, 5), rng.randint(0, 5))
            if exp == (0, 0):
                continue
            terms[exp] = F(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly.from_terms(2, terms)
        if p.is_zero:
            continue
        assert parse_poly(render_poly(p)) == p


# ---------------------------------------------------------------------------
# Newton data


def test_newton_polytope_scaled_binomial():
    b = parse_divisor("3/4*(x^2 + y^3)")
    assert [(v.x, v.y) for v in newton_polytope(b).vertices] == [(0, F(9, 4)), (F(3, 2), 0)]


def test_newton_polytope_cusp_figure():
    b = parse_divisor("1*(x^4 + x*y + y^3)")
    assert [(v.x, v.y) for v in newton_polytope(b).vertices] == [(0, 3), (1, 1), (4, 0)]


def test_newton_polytope_sum_figure():
    b = parse_divisor("1*(x^4 + x*y + y^3) + 1*(x^2 + y^2)")
    assert [(v.x, v.y) for v in newton_polytope(b).vertices] == [
        (0, 5),
        (1, 3),
        (3, 1),
        (6, 0),
    ]


def test_newton_polytope_concat_additivity():
    rng = random.Random(11)
    for _ in range(60):
        b1 = _random_divisor(rng)
        b2 = _random_divisor(rng)
        assert newton_polytope(b1 + b2) == minkowski_sum(newton_polytope(b1), newton_polytope(b2))


def test_newton_polytope_unit_invariance():
    rng = random.Random(13)
    for _ in range(60):
        b = _random_divisor(rng)
        unit = _random_unit(rng)
        scaled = DivisorGerm(tuple((c, p * unit) for c, p in b.components))
        assert newton_polytope(scaled) == newton_polytope(b)


def _random_divisor(rng):
    comps = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = (rng.randint(0, 5), rng.randint(0, 5))
            if exp == (0, 0):
                continue
            terms[exp] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        p = Poly.from_terms(2, terms)
        if p.is_zero or p.constant_term() != 0:
            continue
        comps.append((F(rng.randint(1, 8), 8), p))
    if not comps:
        comps = [(F(1, 2), parse_poly("x + y"))]
    return DivisorGerm(tuple(comps))


def _random_unit(rng):
    terms = {(0, 0): F(rng.choice([1, 2, 3]))}
    for _ in range(rng.randint(0, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = F(rng.randint(-3, 3))
    u = Poly.from_terms(2, terms)
    if u.constant_term() == 0:
        u = u + Poly.constant(2, 1)
    return u


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegenerate_square_face_form():
    report = nondegeneracy_check(parse_divisor("3/4*(x^2 + 2*x*y + y^2)"))
    assert not report.nondegenerate
    assert report.component_indices == (0,)
    assert "squarefree" in report.reason


def test_nondegenerate_binomials():
    for expr in ["1*(x^3 + y^5)", "1/2*(x + y^2)", "2/3*(x^7 + y^2)"]:
        assert nondegeneracy_check(parse_divisor(expr)).nondegenerate


def test_nondegenerate_coprime_parallel_pair():
    report = nondegeneracy_check(parse_divisor("1/2*(x^2+y^2) + 1/2*(x^2-y^2)"))
    assert report.nondegenerate


def test_degenerate_shared_parallel_factor():
    report = nondegeneracy_check(parse_divisor("1/2*(x^2-y^2) + 1/2*(x-y)"))
    # both have the face direction of slope 1 and share the root u = 1
    assert not report.nondegenerate
    assert report.component_indices == (0, 1)


# ---------------------------------------------------------------------------
# curve orientation


def test_curve_orient_axis():
    c = curve_orient(pp("y"))
    assert c.swapped and c.b_invariant == POS_INF


def test_curve_orient_tangent_cubic():
    c = curve_orient(pp("x + y^3"))
    assert not c.swapped and c.b_invariant == 3


def test_curve_orient_transverse_line():
    assert curve_orient(pp("x + y")).b_invariant == 1


def test_curve_orient_rejects_singular():
    with pytest.raises(InputError, match="singular"):
        curve_orient(pp("x^2 + y^2"))
    with pytest.raises(InputError, match="origin"):
        curve_orient(pp("x + 1"))


# ---------------------------------------------------------------------------
# multiplicities and intersections


def test_mult_no_common_factor():
    assert contact_along_curve(parse_divisor("3/4*(x^2 + y^3)"), curve_orient(pp("y")))[0] == 0


def test_mult_single_factor():
    b = parse_divisor("1/2*(x*y + y^2)")  # y * (x + y)
    assert contact_along_curve(b, curve_orient(pp("y")))[0] == F(1, 2)


def test_mult_square_factor():
    assert contact_along_curve(parse_divisor("1/3*(y^2*x)"), curve_orient(pp("y")))[0] == F(2, 3)


def test_remove_curve_component():
    # the C-free parts x + y and x each meet y = 0 once
    c = curve_orient(pp("y"))
    assert contact_along_curve(parse_divisor("1/2*(x*y + y^2)"), c) == (F(1, 2), F(1, 2))
    assert contact_along_curve(parse_divisor("1/3*(y^2*x)"), c) == (F(2, 3), F(1, 3))


def test_remove_identity_when_no_factor():
    b = parse_divisor("3/4*(x^2 + y^3)")
    c = curve_orient(pp("y"))
    assert contact_along_curve(b, c) == (0, local_intersection(b, c)) == (0, F(3, 2))


def test_remove_then_mult_zero():
    # a factor c on every branch and c itself as a component raise mult_C B
    # by their coefficients and leave the C-free part alone
    rng = random.Random(5)
    for _ in range(40):
        b = _random_divisor(rng)
        c = curve_orient(pp(rng.choice(["y", "x", "y - x^2", "x + y^3", "x - 2*y"])))
        mult, inter = contact_along_curve(b, c)
        more = DivisorGerm(tuple((coeff, p * c.poly) for coeff, p in b.components))
        more = more + divisor([(F(1, 3), c.poly)])
        total = sum(coeff for coeff, _ in b.components)
        assert contact_along_curve(more, c) == (mult + total + F(1, 3), inter)


def test_local_intersection_monomial_family():
    for m in range(1, 6):
        b = divisor([(1, pp(f"x^{m} + y^{m + 1}"))])
        assert local_intersection(b, curve_orient(pp("y"))) == m


def test_local_intersection_tangent_parabola():
    b = parse_divisor("1*(x^2 + y^3)")
    assert local_intersection(b, curve_orient(pp("y - x^2"))) == 2


def test_local_intersection_bound_instance():
    b = parse_divisor("1/2*(x^2 + y^3)")
    c = curve_orient(pp("y"))
    assert local_intersection(b, c) == 1
    assert newton_intersection_bound(b, c) == 1


def test_local_intersection_high_exponent():
    for b, c in [("1/2*(x^2000 + y)", "y - x^2"), ("1/160*(x^160 + y^159)", "y - x^160")]:
        assert local_intersection(parse_divisor(b), curve_orient(pp(c))) == 1


def test_local_intersection_rejects_contained_component():
    with pytest.raises(DomainError, match="truncation"):
        local_intersection(parse_divisor("1*(y)"), curve_orient(pp("y")))


def test_intersection_bound_property():
    rng = random.Random(23)
    checked = 0
    for _ in range(200):
        b = _random_divisor(rng)
        c = curve_orient(pp(rng.choice(["y", "x", "y - x^2", "x + y^3", "x - 2*y", "y + x^4"])))
        mult, value = contact_along_curve(b, c)
        if mult:  # B' is not B; the graph-oracle test covers contained components
            continue
        bound = newton_intersection_bound(b, c)
        assert value >= bound
        checked += 1
    assert checked > 100


def test_curve_parametrization_needs_x_linear_term_at_origin():
    for text in ["y + x^2", "y", "x^2 + y^2", "1 + x"]:
        with pytest.raises(InputError):
            curve_parametrization(pp(text), 6)


def _transpose(p):
    return Poly(2, {(j, i): c for (i, j), c in p.terms.items()})


def _power(p, k):
    return reduce(lambda q, _: q * p, range(k), Poly.constant(2, 1))


def _graph_oracle(components, u, a):
    """(B . C) for C = u(x)*y - a(x) with u(0) != 0 and a(0) = 0, no series.

    On C, y = a/u with u a unit, so a branch sum c_ij x^i y^j of y-degree D
    meets C in ord_x of sum c_ij x^i a^j u^(D - j); None when that is 0.
    """
    total = F(0)
    for coeff, p in components:
        d = max(j for _, j in p.terms)
        q = Poly.zero(2)
        for (i, j), c in p.terms.items():
            q = q + Poly(2, {(i, 0): c}) * _power(a, j) * _power(u, d - j)
        if q.is_zero:
            return None
        total += coeff * min(i for i, _ in q.terms)
    return total


def _random_x_poly(rng, degree, constant):
    terms = {(i, 0): F(rng.randint(-2, 2), rng.choice([1, 1, 2])) for i in range(1, degree + 1)}
    terms[(0, 0)] = F(constant)
    return Poly.from_terms(2, terms)


def _random_branch(rng, constant, degree):
    terms = {(0, 0): F(constant)}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        terms[(i, rng.randint(int(i == 0), degree - i))] = F(rng.choice([-2, -1, 1, 3]))
    return Poly.from_terms(2, terms)


def test_local_intersection_matches_graph_oracle():
    """Branches c^k * q, with k = 0 or a contained component with k = 1, 2
    and q sometimes a unit, against mult_C B = sum coeff*k and the graph
    oracle of the q's, as given and transposed."""
    rng = random.Random(31)
    seen = set()
    checked = 0
    for _ in range(250):
        u = _random_x_poly(rng, rng.randint(0, 2), rng.choice([-1, 1, 2]))
        a = _random_x_poly(rng, rng.randint(1, 3), 0)
        if rng.random() < 0.5:  # tangent to the x-axis: swapped as given
            a = a - Poly(2, {(1, 0): a.coefficient((1, 0))})
        g = u * pp("y") - a
        parts = [(F(rng.randint(1, 6), 6), _random_branch(rng, 0, 6), 0)
                 for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            q = _random_branch(rng, rng.choice([0, 0, 1, -2]), 3)
            parts.append((F(rng.randint(1, 6), 6), q, rng.choice([1, 2])))
        expected = _graph_oracle([(coeff, q) for coeff, q, _ in parts], u, a)
        if expected is None:  # a random q contains C: its k is unknown
            continue
        mult = sum(coeff * k for coeff, _, k in parts)
        b = DivisorGerm(tuple((coeff, _power(g, k) * q) for coeff, q, k in parts))
        b_t = DivisorGerm(tuple((coeff, _transpose(p)) for coeff, p in b.components))
        for divisor_germ, curve in [(b, curve_orient(g)), (b_t, curve_orient(_transpose(g)))]:
            seen.update((curve.swapped, k) for _, _, k in parts)
            assert contact_along_curve(divisor_germ, curve) == (mult, expected)
            if mult:
                with pytest.raises(DomainError, match="truncation"):
                    local_intersection(divisor_germ, curve)
            else:
                assert local_intersection(divisor_germ, curve) == expected
        checked += 1
    assert seen == {(swapped, k) for swapped in (False, True) for k in (0, 1, 2)}
    assert checked > 200
