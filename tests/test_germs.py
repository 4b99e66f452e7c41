"""Tests for parsing, germ data, multiplicities and local intersections."""

import random
import time
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest

from germ.errors import DomainError, InputError
from germ.exactgeom import face_normals, minkowski_sum
from germ.germs import (
    DENSE_FORM_LIMIT,
    DivisorGerm,
    contact_along_curve,
    curve_orient,
    curve_parametrization,
    divisor,
    local_intersection,
    newton_polytope,
    newton_polytope_of_poly,
    nondegeneracy_check,
    parse_divisor,
    render_divisor,
)
from germ.invariants import lct_toric, verify_surface_theorem
from germ.polys import (
    Poly,
    parse_poly,
    parse_weighted_terms,
    render_poly,
    uni_coprime,
    uni_is_squarefree,
)


def pp(text):
    return parse_poly(text)


def from_terms(terms):
    """The bivariate polynomial of an exponent -> coefficient mapping,
    zero coefficients dropped."""
    return Poly(2, {exp: F(c) for exp, c in terms.items() if c != 0})


ZERO = Poly(2, {})
ONE = Poly(2, {(0, 0): F(1)})


def _add(p, q, k=1):
    """p + k*q for bivariate polynomials."""
    out = dict(p.terms)
    for exp, c in q.terms.items():
        out[exp] = out.get(exp, 0) + k * c
    return from_terms(out)


def _mul(p, q):
    """Product of two bivariate polynomials; the library itself never adds
    or multiplies polynomials, only the oracles and generators here do."""
    out = ZERO
    for (i1, j1), c1 in p.terms.items():
        out = _add(out, Poly(2, {(i1 + i2, j1 + j2): c1 * c2 for (i2, j2), c2 in q.terms.items()}))
    return out


# ---------------------------------------------------------------------------
# parsing


def test_parse_poly_plain():
    assert dict(pp("x^2 + 2*x*y + y^2").terms) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_poly_cancellation():
    assert dict(pp("x^3 + y^4 - y^4").terms) == {(3, 0): 1}


def test_parse_poly_rational_coefficients():
    assert dict(pp("1/2*x - 3/4*y").terms) == {(1, 0): F(1, 2), (0, 1): F(-3, 4)}
    # repeated monomials sum over equal and unequal denominators, as products
    assert dict(pp("1/2*x + 1/3*x + y*1/6 - 2/3*y*1/4").terms) == {(1, 0): F(5, 6)}


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
        p = from_terms(terms)
        if p.is_zero:
            continue
        assert parse_poly(render_poly(p)) == p


def test_render_rejects_numbers_past_the_str_limit():
    """A product of two 3000-digit factors has 6000 digits, past Python's
    str(int) limit: rendering raises InputError and names the limit."""
    text = "9" * 3000 + "*x*" + "9" * 3000
    with pytest.raises(InputError, match="limit"):
        repr(parse_poly(text))
    with pytest.raises(InputError, match="limit"):
        render_divisor(parse_divisor(f"1*({text})"))


def _ws(rng):
    return rng.choice(["", "", "", " ", "  ", "\t"])


def _rational_text(rng, r):
    """A positive rational as text: p, or p/q with spacing (p/1 sometimes)."""
    if r.denominator == 1 and rng.random() < 0.7:
        return str(r.numerator)
    return f"{r.numerator}{_ws(rng)}/{_ws(rng)}{r.denominator}"


def _monomial_text(rng, exp, mag):
    """mag * x^i * y^j in a random surface form: each power split into
    repeated factors in shuffled order, ^1 written or not, and the
    coefficient left out when 1 or split into two rationals, with at most
    one leading and the others after a factor."""
    factors = []
    for name, e in zip("xy", exp):
        while e:
            k = rng.randint(1, e)
            written = name if k == 1 and rng.random() < 0.5 else f"{name}{_ws(rng)}^{_ws(rng)}{k}"
            factors.append(written)
            e -= k
    if not factors:  # a constant is one rational
        return _rational_text(rng, mag)
    rng.shuffle(factors)
    rationals = [] if mag == 1 and rng.random() < 0.7 else [mag]
    if rationals and rng.random() < 0.5:
        part = F(rng.randint(1, 6), rng.randint(1, 6))
        rationals = [mag / part, part]
    texts = [_rational_text(rng, r) for r in rationals]
    lead = texts.pop(0) if texts and rng.random() < 0.5 else None
    for t in texts:
        factors.insert(rng.randint(1, len(factors)), t)
    return f"{_ws(rng)}*{_ws(rng)}".join(([lead] if lead else []) + factors)


def _poly_text(rng, terms):
    text = ""
    for k, (exp, c) in enumerate(terms.items()):
        sign = "-" if c < 0 else ("+" if k else rng.choice(["", "+"]))
        text += f"{_ws(rng)}{sign}{_ws(rng)}{_monomial_text(rng, exp, abs(c))}"
    return text + _ws(rng)


def test_parse_reads_back_varied_surface_forms():
    """Oracle for the scanner: random term lists, each written in a random
    surface form, parse back to their terms, alone and inside a divisor."""
    rng = random.Random(53)
    for _ in range(1000):
        polys, texts = [], []
        for _ in range(2):
            terms = {(rng.randint(0, 4), rng.randint(0, 4)):
                     F(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 5))}
            texts.append(_poly_text(rng, terms))
            polys.append(Poly(2, terms))
            assert parse_poly(texts[-1]) == polys[-1], texts[-1]
        coeffs = [F(rng.randint(1, 9), rng.randint(1, 9)), F(-rng.randint(0, 9), rng.randint(1, 9))]
        heads = [_rational_text(rng, coeffs[0]), f"-{_ws(rng)}{_rational_text(rng, -coeffs[1])}"]
        text = f"{_ws(rng)}+{_ws(rng)}".join(
            f"{_ws(rng)}{h}{_ws(rng)}*{_ws(rng)}({t}){_ws(rng)}" for h, t in zip(heads, texts))
        assert parse_weighted_terms(text) == list(zip(coeffs, polys)), text


def test_parse_rejects_malformed_text_with_a_position():
    for text in ["2*3*x", "x^0", "1/0*x", "x y", "x + ", "z", "x^-1", "*x", "", "x*", "2x"]:
        with pytest.raises(InputError, match="position"):
            parse_poly(text)
    for text in ["1*(x) +", "1*(x) - 1*(y)", "1*x", "1*(x", "+1*(x)", "1*(x) 1*(y)"]:
        with pytest.raises(InputError, match="position"):
            parse_weighted_terms(text)


def test_parse_time_is_linear_in_whitespace_runs():
    """Whitespace runs of 64,000 characters between tokens, in texts that
    parse and in texts that fail, each take well under a second."""
    s = " " * 64000
    cases = [
        (parse_poly, "x" + s + "#"),
        (parse_poly, s.join(["", "-", "1", "/", "2", "*", "x", "^", "3", ""])),
        (parse_poly, "x" + s + "*" + s + "#"),
        (parse_poly, "1" + s + "/" + s + "#"),
        (parse_poly, "x" + s + "+" + s),
        (parse_weighted_terms, s + "-" + s + "1" + s + "*" + s + "(" + s + "y" + s + ")" + s),
        (parse_weighted_terms, "1*(x)" + s + "+" + s + "2" + s + "#"),
    ]
    for parse, text in cases:
        start = time.perf_counter()
        try:
            parse(text)
        except InputError:
            pass
        assert time.perf_counter() - start < 1


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
        scaled = DivisorGerm(tuple((c, _mul(p, unit)) for c, p in b.components))
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
        p = from_terms(terms)
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
    u = from_terms(terms)
    if u.constant_term() == 0:
        u = _add(u, ONE)
    return u


# ---------------------------------------------------------------------------
# nondegeneracy


def test_nondegenerate_square_face_form():
    report = nondegeneracy_check(parse_divisor("3/4*(x^2 + 2*x*y + y^2)"))
    assert not report.nondegenerate
    assert report.component_indices == (0,)
    assert report.normal == (1, 1)
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
    assert report.normal == (1, 1)


def test_nondegeneracy_cost_follows_terms_not_exponents():
    """A binomial face of exponent 10^9 is one gap: its form is u - c, with
    no entry per lattice step."""
    b = parse_divisor("1/2*(x^1000000000 + y^1000000000)")
    y = curve_orient(pp("y"))
    for run in (lambda: nondegeneracy_check(b), lambda: verify_surface_theorem(b, y, "1/2")):
        start = time.perf_counter()
        run()
        assert time.perf_counter() - start < 1
    assert nondegeneracy_check(b).nondegenerate
    assert verify_surface_theorem(b, y, "1/2").nondegenerate


def test_dense_face_forms_stop_at_the_limit():
    """A face form of three or more terms whose dense list would pass
    DENSE_FORM_LIMIT entries raises an InputError naming the limit at
    once, in the test and in the theorem check; one just inside is decided."""
    b = parse_divisor("1/2*(x^1000000000 + x^999999999*y + y^1000000000)")
    y = curve_orient(pp("y"))
    for run in (lambda: nondegeneracy_check(b), lambda: verify_surface_theorem(b, y, "1/2")):
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"limit of {DENSE_FORM_LIMIT} entries"):
            run()
        assert time.perf_counter() - start < 1
    m = DENSE_FORM_LIMIT - 1
    assert nondegeneracy_check(parse_divisor(f"1/2*(x^{m} + x^{m - 1}*y + y^{m})")).nondegenerate


def reference_face_forms(p):
    """Oracle: the face forms of one branch read off its own polygon, keyed
    by the rational slope of each compact face, left to right.  With slope
    a/b in lowest terms the lattice points of a face lie b apart in x, and
    the term at x-exponent i is the u^((i - left.x)/b) coefficient."""
    vs = newton_polytope_of_poly(p).vertices
    forms = {}
    for left, right in zip(vs, vs[1:]):
        s = (left.y - right.y) / (right.x - left.x)
        a, b = s.numerator, s.denominator
        coeffs = {int((i - left.x) / b): c for (i, j), c in p.terms.items()
                  if a * i + b * j == a * left.x + b * left.y}
        form = [F(0)] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            form[k] = c
        forms[s] = form
    return forms


def reference_nondegeneracy(b):
    """Oracle: the per-branch test, as (verdict, component indices).  Every
    face form of every branch must be squarefree, then the forms of
    parallel faces of different branches must be coprime."""
    per_face = []
    for idx, (_, p) in enumerate(b.components):
        for s, form in reference_face_forms(p).items():
            if not uni_is_squarefree(form):
                return False, (idx,)
            per_face.append((idx, s, form))
    for n, (i, s_i, f_i) in enumerate(per_face):
        for j, s_j, f_j in per_face[n + 1:]:
            if i != j and s_i == s_j and not uni_coprime(f_i, f_j):
                return False, (i, j)
    return True, ()


def _names_failing_face(b, report):
    """Whether the report's normal and components name a face that fails in
    the oracle: one form that is not squarefree, or two that share a factor."""
    n1, n2 = report.normal
    forms = [reference_face_forms(b.components[i][1]).get(F(n1, n2))
             for i in report.component_indices]
    if any(f is None for f in forms):
        return False
    if len(forms) == 1:
        return not uni_is_squarefree(forms[0])
    return not uni_coprime(*forms)


def _small_branch(rng, degree, constant=0):
    """A polynomial of total degree <= degree with the given constant term;
    coefficients +-1, +-2, so forms fail squarefreeness by accident too."""
    terms = {(0, 0): F(constant)}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        terms[(i, rng.randint(int(i == 0), degree - i))] = F(rng.choice([-2, -1, 1, 2]))
    return from_terms(terms)


def _nondegeneracy_case(rng):
    """1-3 branches of degree <= 5.  About a quarter are built degenerate:
    a branch q^2 * unit, or two branches q * r1 and q * r2 sharing q."""
    branches = [_small_branch(rng, 5) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.25:
        # two incomparable terms with coefficient 3 survive the sum: q has an edge
        q = _add(pp(rng.choice(["3*x + 3*y", "3*x - 3*y^2", "3*x^2 + 3*y"])), _small_branch(rng, 2))
        if rng.random() < 0.5:
            unit = _small_branch(rng, 1, constant=rng.choice([1, -2]))
            branches[0] = _mul(_mul(q, q), unit)
        else:
            r1, r2 = (_small_branch(rng, 3, constant=rng.choice([0, 1])) for _ in range(2))
            branches[:2] = [_mul(q, r1), _mul(q, r2)]
        rng.shuffle(branches)
    return DivisorGerm(tuple((F(rng.randint(1, 6), 12), p) for p in branches))


def test_nondegeneracy_matches_per_branch_reference():
    """The test along the normals of the one Newton polygon agrees with the
    per-branch reference on verdict and components and names a failing
    face; lct_toric's ``exact`` and verify_surface_theorem's
    ``nondegenerate`` agree with the reference on B + lct*C and on B."""
    rng = random.Random(37)
    curves = [curve_orient(pp(t)) for t in ["y", "x", "y - x^2", "x + y^3", "x - 2*y"]]
    degenerate = exact_checked = 0
    for _ in range(2000):
        b = _nondegeneracy_case(rng)
        report = nondegeneracy_check(b)
        verdict, indices = reference_nondegeneracy(b)
        assert (report.nondegenerate, report.component_indices) == (verdict, indices)
        if not verdict:
            degenerate += 1
            assert _names_failing_face(b, report)
        c = rng.choice(curves)
        rep = verify_surface_theorem(b, c, "1/3")
        assert rep.nondegenerate == verdict
        assert rep.passed is None or rep.lct.exact
        try:
            res = lct_toric(b, c)
        except DomainError:  # not lc before adding C
            continue
        extended = b + DivisorGerm(((res.value, c.poly),)) if res.value > 0 else b
        assert res.exact == reference_nondegeneracy(extended)[0]
        exact_checked += 1
    assert degenerate > 400 and exact_checked > 900


def dense_nondegeneracy(b):
    """Oracle: the test along the one polygon's normals with every face form
    dense, stepped by the gcd of the face's exponent gaps, through the
    ``uni_*`` helpers: (verdict, component indices, normal)."""
    normals = face_normals(newton_polytope(b))
    forms = [{} for _ in b.components]
    for n1, n2 in normals:
        faces = []
        for _, p in b.components:
            level = min(n1 * i + n2 * j for i, j in p.terms)
            faces.append({i: c for (i, j), c in p.terms.items() if n1 * i + n2 * j == level})
        step = gcd(*(i - min(f) for f in faces for i in f))
        for fi, f in zip(forms, faces):
            if len(f) > 1:
                fi[n1, n2] = [f.get(i, F(0)) for i in range(min(f), max(f) + 1, step)]
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            if not uni_is_squarefree(f):
                return False, (i,), n
    for i, fi in enumerate(forms):
        for n, f in fi.items():
            for j in range(i + 1, len(forms)):
                g = forms[j].get(n)
                if g is not None and not uni_coprime(f, g):
                    return False, (i, j), n
    return True, (), None


def _binomial(rng, normal, steps, root):
    """A branch x^i0*y^j0 * (x^(n2*steps) - root*y^(n1*steps)), times a unit
    constant: one compact face, along ``normal``, whose form is
    const*(u^steps - root) in u = x^n2/y^n1."""
    n1, n2 = normal
    i0, j0 = rng.choice([(0, 0), (0, 0), (1, 0), (0, 2), (3, 1)])
    unit = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return Poly(2, {(i0 + n2 * steps, j0): unit, (i0, j0 + n1 * steps): -unit * root})


def test_sparse_binomial_forms_match_dense_oracle():
    """On pairs of binomial branches along one normal, with u-degrees up to
    10^3, the sparse verdict equals the dense one.  About half the pairs are
    built to share a root: u^(d*m) - w^m and u^(d*k) - w^k share the d-th
    roots of w."""
    rng = random.Random(61)
    seen = Counter()
    for _ in range(150):
        normal = rng.choice([(1, 1), (1, 2), (2, 1), (2, 3), (3, 5)])
        d = rng.choice([1, 1, 2, 3, 6])
        m, k = (rng.randint(1, 1000 // (d * max(normal))) for _ in range(2))
        w = F(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 5]))
        a, b = w ** m, w ** k
        if rng.random() < 0.5:
            b *= rng.choice([-1, 2, F(1, 3)])
        pair = [_binomial(rng, normal, d * m, a), _binomial(rng, normal, d * k, b)]
        if rng.random() < 0.3:
            pair.append(_small_branch(rng, 3))
        germ = DivisorGerm(tuple((F(1, 4), q) for q in pair))
        report = nondegeneracy_check(germ)
        expected = dense_nondegeneracy(germ)
        assert (report.nondegenerate, report.component_indices, report.normal) == expected
        seen["nondegenerate" if expected[0] else "shared factor"] += 1
    assert min(seen.values()) >= 40, seen


def _uni_product(unit, factors):
    """unit * prod f^e over the (f, e) in ``factors``, as a dense list in u."""
    out = [unit]
    for f, e in factors:
        for _ in range(e):
            out = [sum(out[i - k] * c for k, c in enumerate(f) if 0 <= i - k < len(out))
                   for i in range(len(out) + len(f) - 1)]
    return out


def test_uni_squarefree_and_coprime_match_factorizations():
    """Oracle for the univariate helpers the nondegeneracy test rests on:
    on a unit times distinct irreducible factors u - r (r a nonzero
    rational) and u^2 + k (k > 0), each to a power e, the product is
    squarefree iff every e is 1, and two products are coprime iff they
    share no factor."""
    rng = random.Random(47)
    roots = {F(n, d) for n in (-3, -2, -1, 1, 2, 5) for d in (1, 2, 3)}
    irreducible = sorted([(-r, F(1)) for r in roots]
                         + [(k, F(0), F(1)) for k in (F(1), F(2), F(1, 3), F(5))])
    seen = Counter()
    for _ in range(3000):
        pool = rng.sample(irreducible, rng.randint(1, 6))
        parts = []
        for _ in range(2):
            chosen = rng.sample(pool, rng.randint(0, min(3, len(pool))))
            parts.append({f: rng.choice([1, 1, 1, 2, 3]) for f in chosen})
        fa, fb = parts
        a, b = (_uni_product(F(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)), fs.items())
                for fs in parts)
        squarefree = all(e == 1 for e in fa.values())
        coprime = not fa.keys() & fb.keys()
        assert uni_is_squarefree(a) == squarefree
        assert uni_is_squarefree(b) == all(e == 1 for e in fb.values())
        assert uni_coprime(a, b) == coprime == uni_coprime(b, a)
        seen["squarefree" if squarefree else "not squarefree"] += 1
        seen["coprime" if coprime else "shared factor"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 500, seen


# ---------------------------------------------------------------------------
# curve orientation


def test_curve_orient_axis():
    c = curve_orient(pp("y"))
    assert c.swapped and c.oriented_poly() == pp("x")


def test_curve_orient_tangent_cubic():
    c = curve_orient(pp("x + y^3"))
    assert not c.swapped and c.oriented_poly() == pp("x + y^3")


def test_curve_orient_transverse_line():
    c = curve_orient(pp("x + y"))
    assert not c.swapped and c.oriented_poly() == pp("x + y")


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
        more = DivisorGerm(tuple((coeff, _mul(p, c.poly)) for coeff, p in b.components))
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


def newton_intersection_bound(b, c):
    """Oracle: the combinatorial lower bound for (B . C), the support value
    of B's Newton diagram at the weight (t, 1) in the curve's oriented
    frame, with t the tangency order: the least pure y-power of
    ``c.oriented_poly()``.  An axis curve x = 0 has no pure y-power, and
    meets B in the height of the diagram's vertex on the y-axis."""
    oriented = DivisorGerm(tuple((coeff, _transpose(p) if c.swapped else p)
                                 for coeff, p in b.components))
    diagram = newton_polytope(oriented)
    powers = [j for i, j in c.oriented_poly().terms if i == 0]
    if powers:
        return F(diagram.lattice_min((min(powers), 1)), diagram.den)
    x, y = diagram.vertices[0]
    return y if x == 0 else None  # None: C lies on B


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


def _series_product(a, b, order):
    out = {}
    for i, ca in a.items():
        for j, cb in b.items():
            if i + j < order:
                out[i + j] = out.get(i + j, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _horner_on_curve(p, psi, order):
    """p(psi(t), t) below ``order`` in Fractions, by Horner's rule in x with
    one product per power of x."""
    out = {}
    top = max((i for i, _ in p.terms), default=0)
    for (i, j), c in sorted(p.terms.items(), reverse=True):
        for _ in range(top - i):
            out = _series_product(out, psi, order)
        top = i
        out[j] = out.get(j, 0) + c
    for _ in range(top):
        out = _series_product(out, psi, order)
    return {k: v for k, v in out.items() if v and k < order}


def reference_contact(b, c):
    """Oracle: (mult_C B, (B' . C), psi) from the fixed-point parametrization
    psi -> -(g - lin*x)(psi, t)/lin, one order per pass, and the walk of
    x-derivatives in Fractions at the Bezout order max deg B * deg C + 2."""
    n = max(p.total_degree() for _, p in b.components) * c.poly.total_degree() + 2
    g = c.oriented_poly()
    lin = g.coefficient((1, 0))
    rest = Poly(2, {e: v for e, v in g.terms.items() if e != (1, 0)})
    psi = {}
    for _ in range(n + 1):
        new = {k: -v / lin for k, v in _horner_on_curve(rest, psi, n).items()}
        if new == psi:
            break
        psi = new
    else:
        raise AssertionError("fixed-point parametrization did not converge")
    mult = inter = F(0)
    for coeff, p in b.components:
        p = _transpose(p) if c.swapped else p
        k = 0
        while not (values := _horner_on_curve(p, psi, n)):
            p = Poly(2, {(i - 1, j): i * v for (i, j), v in p.terms.items() if i})
            k += 1
        mult += coeff * k
        inter += coeff * min(values)
    return mult, inter, psi


def _rational_curve(rng):
    """A smooth curve lin*x + (terms of degree 1 or 2 in x, y) with rational
    coefficients and lin in a set whose cleared value is rarely +-1; the x^2
    and x*y terms make its root a dense series."""
    lin = rng.choice([F(3, 2), F(-5, 3), F(4, 7), F(6), F(-2, 9)])
    terms = {(1, 0): lin}
    for exp in [(0, 1), (0, 2), (2, 0), (1, 1), (0, 3), (2, 1)]:
        if rng.random() < 0.6:
            terms[exp] = F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4]))
    return from_terms(terms)


def test_contact_matches_fixed_point_oracle():
    """The Newton-lifted walk on int numerators, with its early stop, equals
    the fixed-point, Fraction evaluator on rational curves whose cleared
    x-linear coefficient L is not +-1 and whose roots are dense, as given and
    transposed, with contained components; and the lifted root is the
    oracle's psi below the order it is known to, over a reduced denominator."""
    rng = random.Random(67)
    seen = Counter()
    for _ in range(60):
        g = _rational_curve(rng)
        parts = [(F(rng.randint(1, 6), 6), _random_branch(rng, 0, 4), 0)
                 for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.4:
            parts.append((F(1, 3), _random_branch(rng, rng.choice([0, 1]), 2), rng.choice([1, 2])))
        b = DivisorGerm(tuple((coeff, _mul(_power(g, k), q)) for coeff, q, k in parts))
        for germ, curve in [(b, curve_orient(g)), (DivisorGerm(tuple(
                (coeff, _transpose(p)) for coeff, p in b.components)), curve_orient(_transpose(g)))]:
            mult, inter, psi = reference_contact(germ, curve)
            assert contact_along_curve(germ, curve) == (mult, inter)
            n = max(p.total_degree() for _, p in germ.components) * curve.poly.total_degree() + 2
            lift = curve_parametrization(curve.oriented_poly(), n)
            known = n if lift.exact else lift.order
            assert {k: F(v, lift.psi.den) for k, v in lift.psi.num.items() if k < known} \
                == {k: v for k, v in psi.items() if k < known}
            # reduced: psi's coefficients below t^k have denominators dividing L^(2k - 1)
            assert lift.h[1, 0] ** (2 * known) % lift.psi.den == 0
            seen["L != +-1" if abs(lift.h[1, 0]) != 1 else "L +-1"] += 1
            seen["exact" if lift.exact else "lifted"] += 1
            seen["contained" if mult else "free"] += 1
    assert seen["L != +-1"] > 90 and seen["lifted"] > 75 and seen["contained"] > 30, seen


def test_series_cost_follows_bit_size():
    """The cases that hung the per-order evaluator: a power 10^6 of an exact
    root (each square is one term) and the mirror pair, whose root is a dense
    series that the early stop lifts only to order 4; and huge powers of y
    against curves with x-linear coefficient 3/2, whose coefficients stay
    small because the series keep one denominator in the curve's own frame;
    and a huge power of x on a one-term root, where substitution stops at
    the y term and never raises -3 to that power."""
    cases = [
        ("1/2*(y^1000000 + x)", "y - x^2", (0, F(1, 2))),
        ("1/2*(y^1000000 + x)", "y - 2*x^2", (0, F(1, 2))),
        ("1/2*(y^60 + x^3)", "x + y + x^2", (0, F(3, 2))),
        ("1/2*(x^60 + y^3)", "y + x + y^2", (0, F(3, 2))),
        ("1/2*(y^1000000000 + x)", "3/2*x + y", (0, F(1, 2))),
        ("1/2*(x + y^2)", "3/2*x + y^1000000000", (0, F(1))),
        ("1/2*(3/2*x + y^1000000000)", "3/2*x + y^1000000000", (F(1, 2), 0)),
        ("1/2*(x^1000000000 + y)", "x + 3*y", (0, F(1, 2))),
    ]
    for b, c, expected in cases:
        start = time.perf_counter()
        assert contact_along_curve(parse_divisor(b), curve_orient(pp(c))) == expected
        assert time.perf_counter() - start < 0.5


def _monomial_root_curve(rng):
    """a*x + b*y^k with a, b not +-1, whose root -(b/a)*t^k is one term over
    a denominator, or an axis, whose root is 0."""
    if rng.random() < 0.25:
        return pp(rng.choice(["x", "y"]))
    a = rng.choice([F(3, 2), F(-2), F(5, 3), F(-4, 7), F(6)])
    b = rng.choice([F(-3), F(2, 5), F(7, 2), F(-5, 4), F(9)])
    return from_terms({(1, 0): a, (0, rng.randint(1, 4)): b})


def test_substitution_matches_fixed_point_oracle():
    """Curves whose root is one exact term or 0 are read by substitution.
    Seeded branches, contained components, and branches lam*g + (terms
    above the curve's order), whose lowest group cancels on the curve as
    y - x^3 + x^m does on y - x^3, give the fixed-point Fraction oracle's
    answer, as given and transposed."""
    rng = random.Random(71)
    seen = Counter()
    for _ in range(150):
        g = _monomial_root_curve(rng)
        k = max(j for _, j in g.terms)  # the root's order: x = psi(t) ~ t^k
        parts = [(F(rng.randint(1, 6), 6), _random_branch(rng, 0, 4), 0)
                 for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            lam = F(rng.choice([-3, 2, 5]), rng.choice([1, 2]))
            above = {(0, rng.randint(k + 1, k + 8)): F(rng.choice([-2, 3])),
                     (rng.randint(2, 4), rng.randint(0, 2)): F(rng.choice([-1, 5, 7]))}
            parts.append((F(1, 4), _add(from_terms(above), g, lam), 0))
            seen["cancelling"] += 1
        if rng.random() < 0.4:
            parts.append((F(1, 3), _random_branch(rng, rng.choice([0, 1]), 2), rng.choice([1, 2])))
        b = DivisorGerm(tuple((coeff, _mul(_power(g, j), q)) for coeff, q, j in parts))
        b_t = DivisorGerm(tuple((coeff, _transpose(p)) for coeff, p in b.components))
        for germ, curve in [(b, curve_orient(g)), (b_t, curve_orient(_transpose(g)))]:
            lift = curve_parametrization(curve.oriented_poly(), 2)
            assert lift.exact and len(lift.psi.num) <= 1
            mult, inter, _ = reference_contact(germ, curve)
            assert contact_along_curve(germ, curve) == (mult, inter)
            seen["swapped" if curve.swapped else "as given"] += 1
            seen["contained" if mult else "free"] += 1
            seen["axis" if not lift.psi.num else "one term"] += 1
    assert min(seen.values()) > 40, seen


def _transpose(p):
    return Poly(2, {(j, i): c for (i, j), c in p.terms.items()})


def _power(p, k):
    return reduce(lambda q, _: _mul(q, p), range(k), ONE)


def _graph_oracle(components, u, a):
    """(B . C) for C = u(x)*y - a(x) with u(0) != 0 and a(0) = 0, no series.

    On C, y = a/u with u a unit, so a branch sum c_ij x^i y^j of y-degree D
    meets C in ord_x of sum c_ij x^i a^j u^(D - j); None when that is 0.
    """
    total = F(0)
    for coeff, p in components:
        d = max(j for _, j in p.terms)
        q = ZERO
        for (i, j), c in p.terms.items():
            q = _add(q, _mul(_mul(Poly(2, {(i, 0): c}), _power(a, j)), _power(u, d - j)))
        if q.is_zero:
            return None
        total += coeff * min(i for i, _ in q.terms)
    return total


def _random_x_poly(rng, degree, constant):
    terms = {(i, 0): F(rng.randint(-2, 2), rng.choice([1, 1, 2])) for i in range(1, degree + 1)}
    terms[(0, 0)] = F(constant)
    return from_terms(terms)


def _random_branch(rng, constant, degree):
    terms = {(0, 0): F(constant)}
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, degree)
        terms[(i, rng.randint(int(i == 0), degree - i))] = F(rng.choice([-2, -1, 1, 3]))
    return from_terms(terms)


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
            a = _add(a, Poly(2, {(1, 0): a.coefficient((1, 0))}), -1)
        g = _add(_mul(u, pp("y")), a, -1)
        parts = [(F(rng.randint(1, 6), 6), _random_branch(rng, 0, 6), 0)
                 for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            q = _random_branch(rng, rng.choice([0, 0, 1, -2]), 3)
            parts.append((F(rng.randint(1, 6), 6), q, rng.choice([1, 2])))
        expected = _graph_oracle([(coeff, q) for coeff, q, _ in parts], u, a)
        if expected is None:  # a random q contains C: its k is unknown
            continue
        mult = sum(coeff * k for coeff, _, k in parts)
        b = DivisorGerm(tuple((coeff, _mul(_power(g, k), q)) for coeff, q, k in parts))
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
