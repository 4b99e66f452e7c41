"""The public analyses give, field for field, the answers recorded in
``data/parity.json``: the ``repr`` of each result, or the class and message
of the ``GermError`` it raised, on about 200 seeded germs of 1-4 branches,
degenerate and not, against axes, lines and curves of higher order.  So a
rewrite of the kernel keeps witnesses and tie-breaks, not only values.
The generator keeps every exponent below 10 in a germ with a component on
C.  That was needed at ``91860be``, where the data was recorded: the
contact walk read every branch to one Bezout order, which a large exponent
in another branch set.  Each branch is now read to its own order, and the
generator and the data stay as recorded.

    PYTHONPATH=src python tests/test_parity.py --record

rewrites the file from the library as it stands, so run it only on a
commit whose answers are to be kept; with no argument it prints that usage.
"""

import json
import random
import sys
from pathlib import Path

from germ.errors import GermError
from germ.germs import contact_along_curve, curve_orient, nondegeneracy_check, parse_divisor
from germ.invariants import lct_toric, mld_toric, verify_surface_theorem
from germ.polys import parse_poly

DATA = Path(__file__).resolve().parent / "data" / "parity.json"

CALLS = {
    "mld_toric": lambda b, c, eps: mld_toric(b),
    "lct_toric": lambda b, c, eps: lct_toric(b, c),
    "verify_surface_theorem": verify_surface_theorem,
    "nondegeneracy_check": lambda b, c, eps: nondegeneracy_check(b),
    "contact_along_curve": lambda b, c, eps: contact_along_curve(b, c),
}

COEFFICIENTS = ["1/11", "1/9", "1/7", "1/5", "1/4", "1/3", "2/5", "1/2", "2/3", "3/4", "1", "3/2"]
CURVES = ["x", "y", "x + y", "y - 2*x", "3*x + 2*y", "y - x^2", "x - 2*y^2", "x + y + x^2",
          "3/2*x + y^2 + x*y", "y - x^3 + x*y", "x + y^2 + y^3", "x + x*y", "y + x^2*y",
          "2*y - x^5 + x^2*y^3"]
EPSILONS = ["1/2", "1/3", "1/5", "1/10", "1/100", "2/3", "1"]


def answers(b_text, c_text, eps):
    """Each analysis of B and C at epsilon, as its repr or its error."""
    b, c = parse_divisor(b_text), curve_orient(parse_poly(c_text))
    out = {}
    for name, call in CALLS.items():
        try:
            out[name] = repr(call(b, c, eps))
        except GermError as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
    return out


def _branch(rng, curve, big):
    """One branch: a binomial, a line, a cusp, a tangent pair, a trinomial,
    a degenerate form, or C itself unless exponents may be ``big``."""
    e = lambda: rng.randrange(10, 4000) if big and rng.random() < 0.2 else rng.choice(range(1, 10))
    c = lambda: rng.choice(["+ ", "+ 2*", "+ 3*", "+ 1/2*", "- ", "- 3/2*"])
    kind = rng.randrange(8)
    if kind == 0:
        return f"x^{e()} {c()}y^{e()}"
    if kind == 1:
        return rng.choice([f"y {c()}x", f"x {c()}y", "x", "y", f"y {c()}x^{e()}"])
    if kind == 2:
        return rng.choice(["y^2 - x^3", "x^2 - y^3", "y^2 - x^5 + x^3*y", "x^2*y + y^5"])
    if kind == 3:
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        return f"y^2 - {a + b}*x*y + {a * b}*x^2" if rng.random() < 0.5 else f"y^2 - {a * a}*x^2"
    if kind == 4:
        i, j = rng.randrange(1, 4), rng.randrange(1, 4)
        return f"x^{i + e()} {c()}x^{i}*y^{j} + y^{j + e()}"
    if kind == 5:
        return rng.choice(["y^2 - 2*x*y + x^2", "x^3 - x^2*y - x*y^2 + y^3",
                           "x^4 - 4*y^2", "x^6 - 8*y^3", "x^2 - 3*x*y + 2*y^2"])
    if kind == 6 and not big:
        return curve
    return f"x^{e()}*y^{e()} {c()}x^{e()} + y^{e()}"


def draw(rng):
    """One case: B of 1-4 branches, C and epsilon; the more branches, the
    smaller their coefficients, so that a fair share of B is lc."""
    curve, big, k = rng.choice(CURVES), rng.random() < 0.5, rng.choice([1, 1, 2, 2, 3, 4])
    b = " + ".join(f"{rng.choice(COEFFICIENTS[:12 // k])}*({_branch(rng, curve, big)})"
                   for _ in range(k))
    return b, curve, rng.choice(EPSILONS)


def test_answers_match_the_recorded_ones():
    for case in json.loads(DATA.read_text()):
        assert answers(case["b"], case["c"], case["epsilon"]) == case["answers"], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: python {sys.argv[0]} --record  (rewrites {DATA.name})")
    rng = random.Random(0)
    cases = [draw(rng) for _ in range(200)]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps([{"b": b, "c": c, "epsilon": eps, "answers": answers(b, c, eps)}
                                for b, c, eps in cases], indent=1) + "\n")
