"""Every public entry point returns an answer or raises a ``GermError``,
and every rational field of a result is a ``Fraction``.

Seeded random divisor, curve and epsilon text, some of it mangled, goes
through the parser into each entry point; any other exception fails.
"""

import random
from fractions import Fraction

import pytest

from germ.errors import GermError, InputError
from germ.exactgeom import polytope_from_support
from germ.germs import (
    DivisorGerm,
    contact_along_curve,
    curve_orient,
    local_intersection,
    newton_polytope,
    nondegeneracy_check,
    parse_divisor,
    render_divisor,
)
from germ.invariants import (
    NEG_INF,
    delta_bound,
    lct_toric,
    mld_toric,
    toric_log_discrepancy,
    verify_surface_theorem,
)
from germ.polys import Poly, parse_poly

SANE_EPS = ["1/2", "1/3", "2/7", "1", "3/2", " 1/7 ", "1/1000", "5"]
INVALID_EPS = ["0", "-1/3", "1/0", "abc", "", "x", "nan", "inf", "1/-2", "--1", "1e-1000000"]
NOISE = "()+-*/^xyz0123 "


def _poly_text(rng, lead="", constant_ok=False):
    """``lead`` followed by up to four signed monomials of degree <= 5."""
    text = lead
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, 5)
        j = rng.randint(0, 5 - i)
        if i == j == 0 and not constant_ok:
            continue
        c = rng.choice([-2, -1, 1, 3])
        factors = [f"{abs(c)}/{rng.randint(1, 3)}"]
        factors += [f"{v}^{e}" for v, e in (("x", i), ("y", j)) if e]
        text += (" - " if c < 0 else " + ") + "*".join(factors)
    return text.removeprefix(" + ") or "x"


def _mangled(rng, text):
    if rng.random() < 0.8 or not text:
        return text
    k = rng.randrange(len(text))
    return text[:k] + rng.choice(["", rng.choice(NOISE)]) + text[k + 1:]


def _run(f, *args):
    try:
        return f(*args)
    except GermError:
        return None


def test_public_entry_points_raise_only_germ_errors():
    rng = random.Random(43)
    for _ in range(150):
        eps = rng.choice(SANE_EPS if rng.random() < 0.7 else INVALID_EPS)
        divisor_text = " + ".join(
            f"{rng.randint(1, 4)}/{rng.randint(1, 4)}*({_poly_text(rng, '', rng.random() < 0.1)})"
            for _ in range(rng.randint(1, 3))
        )
        b = _run(parse_divisor, _mangled(rng, divisor_text))
        lead = rng.choice(["", "x", "y", "x - y"])
        g = _run(parse_poly, _mangled(rng, _poly_text(rng, lead, rng.random() < 0.1)))
        c = _run(curve_orient, g) if g is not None else None
        _run(delta_bound, eps)
        if b is None:
            continue
        _run(mld_toric, b)
        _run(nondegeneracy_check, b)
        if c is not None:
            _run(lct_toric, b, c)
            _run(local_intersection, b, c)
            _run(verify_surface_theorem, b, c, eps)


def test_malformed_weights_points_and_generators_raise_input_error():
    """A ``bool`` is no integer here: the weight (True, 1) and the epsilon
    True, which were read as (1, 1) and 1, are refused, as is False.  The
    table's support value takes only weights in the closed quadrant: at
    (-1, 1) a vertex minimum is not the support value, which is -inf."""
    b = parse_divisor("1*(x)")
    table = newton_polytope(parse_divisor("1/2*(x^2 + y^3) + 1/3*(x - y^2)"))
    cases = [
        lambda: toric_log_discrepancy(b, (1,)),
        lambda: toric_log_discrepancy(b, None),
        lambda: toric_log_discrepancy(b, (1, 2, 3)),
        lambda: toric_log_discrepancy(b, (True, 1)),
        lambda: toric_log_discrepancy(parse_divisor("1/2*(x^2 + y^3)"), (True, True)),
        lambda: table.lattice_min((-1, 1)),
        lambda: table.lattice_min((1, -1)),
        lambda: table.lattice_min((True, 1)),
        lambda: table.lattice_min((0, False)),
        lambda: table.lattice_min((1.0, 1)),
        lambda: table.lattice_min((1,)),
        lambda: table.lattice_min(None),
        lambda: delta_bound(True),
        lambda: delta_bound(False),
        lambda: verify_surface_theorem(b, curve_orient(parse_poly("y")), True),
        lambda: polytope_from_support([(Fraction(1, 2), 0)]),
        lambda: polytope_from_support([(1.0, 0)]),
        lambda: polytope_from_support([(1,)]),
        # more digits than int() converts from text
        lambda: parse_poly("1" * 5000 + "*x"),
        lambda: parse_poly("x^" + "1" * 5000),
        lambda: parse_divisor("1/" + "3" * 5000 + "*(x)"),
        lambda: delta_bound("1/" + "7" * 5000),
    ]
    for case in cases:
        with pytest.raises(InputError):
            case()


def test_malformed_germs_raise_input_error():
    """Each input is checked where it enters: a ``Poly`` checks its terms
    and keeps a read-only copy of them, refusing a stored zero or
    non-``Fraction`` coefficient, an exponent that is not a pair of
    non-negative integers and terms that are not a mapping;
    a germ checks that a component or curve is a ``Poly`` and that a
    coefficient of B is an ``int`` or ``Fraction`` and not a ``bool``, which
    would render as ``True*(x)``; every analysis checks
    that B and C are germs, and each parser that its text is a ``str``.
    Unchecked, the first two cases answered a negative intersection (0, -2)
    and (0, 1/2), and the germ and text cases raised ``AttributeError`` or
    ``TypeError``.  An exponent ``True`` rendered as ``x``."""
    b = parse_divisor("1/2*(x^2 + y^3)")
    x, y, parabola = parse_poly("x"), parse_poly("y"), curve_orient(parse_poly("y - x^2"))
    one = Fraction(1)
    for terms in [{(1, 0): 1}, {(1, 0): 0.5}, {(1, 0): Fraction(0)}, {(0, -2): one},
                  {(1.0, 1): one}, {(1, 1, 1): one}, {(True, 0): one}, {(0, False): one},
                  [(1, 0)], None]:
        with pytest.raises(InputError):
            Poly(terms)
    terms = {(1, 0): one}
    p = Poly(terms)
    terms[0, -2] = one  # the Poly keeps its checked copy
    assert dict(p.terms) == {(1, 0): one}
    with pytest.raises(TypeError):
        p.terms[0, -2] = one
    cases = [
        lambda: contact_along_curve(b, curve_orient(Poly({(1, 0): one, (0, -2): one}))),
        lambda: contact_along_curve(
            DivisorGerm(((Fraction(1, 2), Poly({(1, 0): one, (-1, 3): one})),)), parabola),
        lambda: mld_toric(DivisorGerm(((0.5, x),))),
        lambda: curve_orient({(1, 0): Fraction(1)}),
        lambda: curve_orient(Poly({(0, 1): Fraction(1), (1, 0): Fraction(0)})),
        lambda: DivisorGerm(((Fraction(1, 2), {(1, 0): Fraction(1)}),)),
        lambda: DivisorGerm(((Fraction(1, 2), Poly([(1, 0)])),)),
        lambda: DivisorGerm((("1/2", x),)),
        lambda: DivisorGerm(((True, x),)),
        lambda: DivisorGerm(((Fraction(-1, 2), x),)),
        lambda: DivisorGerm(((Fraction(1, 2), x, x),)),
        lambda: DivisorGerm([(Fraction(1, 2), x)]),
        lambda: DivisorGerm(((Fraction(1, 2), Poly({(1, 0): 1})),)),
        lambda: DivisorGerm(((Fraction(1, 2), Poly({(1, 0): 0.5})),)),
        lambda: curve_orient(Poly({(1, 0): Fraction(1), (1.0, 1): Fraction(1)})),
        lambda: curve_orient(Poly({(1, 0): Fraction(1), (1, 1, 1): Fraction(1)})),
        lambda: mld_toric(x),
        lambda: toric_log_discrepancy(x, (1, 1)),
        lambda: nondegeneracy_check(None),
        lambda: newton_polytope(None),
        lambda: render_divisor(None),
        lambda: lct_toric(b, y),
        lambda: verify_surface_theorem(b, y, "1/2"),
        lambda: contact_along_curve(b, y),
        lambda: local_intersection(b, None),
        lambda: parse_poly(None),
        lambda: parse_divisor(None),
        lambda: parse_poly(b"x"),
    ]
    for case in cases:
        with pytest.raises(InputError):
            case()
    assert mld_toric(DivisorGerm(((1, x),))).value == mld_toric(parse_divisor("1*(x)")).value


def _all_fractions(*values):
    return all(isinstance(v, Fraction) for v in values)


def test_rational_result_fields_are_fractions():
    """The cases below have integer values (mld 1, mult 0, intersection 1,
    lct 1, membership 1, axis discrepancies), which an int would equal: only the
    type tells a leaked int apart, and readers of a report test
    ``isinstance(mld, Fraction)`` to tell a number from -inf."""
    y = curve_orient(parse_poly("y"))
    attained = mld_toric(parse_divisor("1/2*(x^2+y^2)"))
    not_lc = mld_toric(parse_divisor("2*(x)"))
    assert attained.attained and attained.value == 1 and _all_fractions(attained.value)
    assert not_lc.value is NEG_INF
    for r in (attained, not_lc):
        assert len(r.axis_values) == 2 and _all_fractions(*r.axis_values)

    parabola = curve_orient(parse_poly("y - x^2"))
    capped = lct_toric(parse_divisor("1/2*(y - x^2)"), parabola)
    by_weight = lct_toric(parse_divisor("1/2*(x)"), y)
    assert capped.witness_weight == "cap" and capped.membership_sup == 1
    assert by_weight.witness_weight == (0, 1) and by_weight.value == 1
    for r in (capped, by_weight):
        assert _all_fractions(r.membership_sup, r.coefficient_cap, r.value)

    report = verify_surface_theorem(parse_divisor("1/2*(x^2+y^2)"), y, "1/2")
    assert report.applicable and report.passed
    assert (report.mult, report.reduced_intersection) == (0, 1)
    assert _all_fractions(report.epsilon, report.mult, report.reduced_intersection,
                          report.bound, report.mld.value, report.lct.value)
    assert _all_fractions(delta_bound(1).delta)
