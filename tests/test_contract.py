"""Every public entry point returns an answer or raises a ``GermError``.

Seeded random divisor, curve and epsilon text, some of it mangled, goes
through the parser into each entry point; any other exception fails.
"""

import random

from germ.errors import GermError
from germ.germs import curve_orient, local_intersection, nondegeneracy_check, parse_divisor
from germ.invariants import (
    delta_bound,
    dirichlet_k,
    lct_toric,
    mld_toric,
    verify_surface_theorem,
)
from germ.polys import parse_poly

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
        _run(dirichlet_k, rng.choice(SANE_EPS + INVALID_EPS), eps)
        if b is None:
            continue
        _run(mld_toric, b)
        _run(nondegeneracy_check, b)
        if c is not None:
            _run(lct_toric, b, c)
            _run(local_intersection, b, c)
            _run(verify_surface_theorem, b, c, eps)
