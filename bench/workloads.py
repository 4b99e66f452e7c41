"""Seeded query streams for the benchmark's two workloads, and the checks
that decide whether an answer is correct.

A query is one call the ``germ`` command line would make (``mld``, ``lct``,
``verify`` or ``delta``), given as the text it would receive.  Streams are
cut into blocks with a fixed mix of query families, so every whole block has
the same proportions.  Size parameters are log-uniform, drawn through one
low-discrepancy sequence per family instead of independent draws: any
prefix of the stream then covers the size range evenly, and the seed moves
each sequence only slightly, so every seed gives other inputs with the same
spread of sizes and run-to-run spread stays small.

Expected answers come from closed forms where a family has one, from the
recorded answers of the default seed (``answers.json``) where it does not,
and from cheap independent checks on every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("deep-cone", "series-contact")

#: Seed whose answers are recorded in answers.json.
DEFAULT_SEED = 0
#: Seed of the warm-up queries, answered untimed before measuring.
WARMUP_SEED = 999_983

_GOLDEN = (math.sqrt(5) - 1) / 2
_SILVER = math.sqrt(2) - 1


@dataclass(frozen=True)
class Query:
    """One command-line call, as text, plus what the benchmark knows of it.

    ``expect`` maps result fields to exact values known in closed form.
    ``sizes`` maps a traced function to the input size driving its cost on
    this query, for the log-log scaling fits.
    """

    kind: str  # "mld", "lct", "verify" or "delta"
    divisor: str = ""
    curve: str = ""
    eps: str = ""
    expect: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


class _Draws:
    """Seeded draws in [0, 1), one low-discrepancy sequence per key.

    Each key walks a golden-ratio sequence.  The starting points are spread
    over the keys by a fixed rule and the seed turns each by less than
    1/1024: every seed gives other sizes, and all seeds cover each size
    range alike, so runs differ little in their mix, and a size threshold
    (such as the seed's recursion limit) cuts off the same number of draws.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._state: dict[str, list] = {}

    def __call__(self, key: str) -> float:
        if key not in self._state:
            spread = len(self._state) * _SILVER % 1.0
            self._state[key] = [spread + self._rng.random() / 1024, 0]
        state = self._state[key]
        state[1] += 1
        return (state[0] + state[1] * _GOLDEN) % 1.0

    def log_int(self, key: str, lo: int, hi: int) -> int:
        return min(hi, max(lo, round(lo * (hi / lo) ** self(key))))


def stream(workload: str, seed: int):
    """Endless iterator over the workload's blocks of queries."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    draws = _Draws(rng)
    block = {"deep-cone": _deep_cone, "series-contact": _series_contact}[workload]
    while True:
        queries = block(rng, draws)
        rng.shuffle(queries)
        yield queries


def first_queries(workload: str, seed: int, count: int) -> "list[Query]":
    blocks = stream(workload, seed)
    out: list[Query] = []
    while len(out) < count:
        out.extend(next(blocks))
    return out[:count]


# ---------------------------------------------------------------------------
# deep-cone: the two linear scans of the lattice code.  mld / lct of
# (1/2k)(x^m + y^k) against the curve y: the normal fan has a cone of
# determinant about m/k, so the Hilbert-basis scan is O(m).  delta(eps):
# delta_bound scans about 4/eps candidates.


def _eps_text(u: float, lo: float, hi: float) -> str:
    """Exact epsilon near lo*(hi/lo)^u, with denominator 10^6."""
    return str(Fraction(max(1, round(1e6 * lo * (hi / lo) ** u)), 10**6))


def _deep_cone(rng: random.Random, draws: _Draws) -> "list[Query]":
    out = []
    for k in (1, 2, 3, 4):
        for kind in ("mld", "lct"):
            m = draws.log_int(f"{kind}{k}", 100, 10_000)
            text = f"{Fraction(1, 2 * k)}*(x^{m} + y^{k})"
            # mld is attained at (1, 1) for every such pair; lct is the
            # binomial closed form 1 - lambda*k + k/m with lambda*k = 1/2.
            value = Fraction(3, 2) if kind == "mld" else Fraction(1, 2) + Fraction(k, m)
            out.append(Query(kind, divisor=text, curve="y" if kind == "lct" else "",
                             expect={"value": value}, sizes={"invariants.mld_toric": m}))
    eps = _eps_text(draws("delta-eps"), 1e-4, 0.5)
    out.append(Query("delta", eps=eps, sizes={"invariants.delta_bound": 1 / Fraction(eps)}))
    return out


# ---------------------------------------------------------------------------
# series-contact: verify with small cones and large series truncation orders.


def _series_contact(rng: random.Random, draws: _Draws) -> "list[Query]":
    out = []
    # Four tangent queries: lambda(x^d + y^(d-1)) against y - x^d meets
    # with order d, so the answer is lambda*d; cost grows as d^3.
    for _ in range(4):
        d = draws.log_int("tangent", 5, 40)
        lam = Fraction(rng.randint(1, 4), 2 * d)
        out.append(_verify(f"{lam}*(x^{d} + y^{d - 1})", f"y - x^{d}", draws,
                           lam * d, d * d))
    # One high-degree query with answer 1/2.  Above m of about 1000 the
    # seed's recursive power cache raises RecursionError; one query in
    # eight keeps that share below a tenth, so p90 still reads a latency.
    m = draws.log_int("high-degree", 200, 4000)
    out.append(_verify(f"1/2*(x + y + x^{m}*y)", "y - x^2", draws,
                       Fraction(1, 2), 2 * (m + 1)))
    # Three large-answer queries: order m contact, answer m/2.
    for _ in range(3):
        m = draws.log_int("large-answer", 10, 200)
        out.append(_verify(f"1/2*(y - x^3 + x^{m})", "y - x^3", draws,
                           Fraction(m, 2), 3 * m))
    return out


def _verify(divisor: str, curve: str, draws: _Draws, intersection: Fraction,
            deg_product: int) -> Query:
    return Query("verify", divisor=divisor, curve=curve,
                 eps=_eps_text(draws("eps"), 1e-2, 0.5),
                 expect={"mult": Fraction(0), "reduced_intersection": intersection},
                 sizes={"germs.local_intersection": deg_product})


# ---------------------------------------------------------------------------
# checks


def delta_exact(eps: Fraction) -> Fraction:
    """sup over n >= 2 of (eps - 1/n)/(n - 1), from the real maximizer.

    On x > 1 the function (eps*x - 1)/(x(x - 1)) has its only critical
    point at x* = (1 + sqrt(1 - eps))/eps (for eps < 1), so the integer
    maximum lies next to x*."""
    x = (1 + math.sqrt(max(0.0, 1 - float(eps)))) / float(eps)
    lo = max(2, math.floor(x) - 1)
    return max(_h(eps, n) for n in {2, *range(lo, lo + 4)})


def _h(eps: Fraction, n: int) -> Fraction:
    return (eps - Fraction(1, n)) / (n - 1)


def canonical(kind: str, r) -> str:
    """The exact part of a result that recorded answers compare, leaving out
    witnesses (ties may break differently) and the verify bound (which may
    legitimately grow towards delta(eps))."""
    if kind in ("mld", "lct"):
        return f"{kind} {r.value}"
    if kind == "delta":
        return f"delta {r.delta}"
    lct = r.lct.value if r.lct is not None else None
    return (f"verify mld={r.mld.value} mult={r.mult} inter={r.reduced_intersection} "
            f"nondeg={r.nondegenerate} failed={sorted(r.failed_hypotheses)} "
            f"applicable={r.applicable} passed={r.passed} lct={lct}")


def check(q: Query, r, germ, recorded: "str | None") -> "str | None":
    """Return why the result ``r`` of query ``q`` is wrong, or None."""
    for name, want in q.expect.items():
        got = getattr(r, name)
        if got != want:
            return f"{name} = {got}, expected {want}"
    if recorded is not None and canonical(q.kind, r) != recorded:
        return f"{canonical(q.kind, r)!r} differs from recorded {recorded!r}"
    if q.kind == "mld":
        return _check_mld(r, q.divisor, germ)
    if q.kind == "delta":
        eps = Fraction(q.eps)
        n = r.witness_n
        if r.delta != _h(eps, n) or r.delta != delta_exact(eps):
            return f"delta {r.delta} at n={n} is not delta({eps})"
        if _h(eps, n + 1) > r.delta or (n > 2 and _h(eps, n - 1) > r.delta):
            return f"witness n={n} is not a local maximum"
    if q.kind == "verify":
        return _check_verify(q, r, germ)
    return None


def _check_mld(r, divisor: str, germ) -> "str | None":
    if not r.attained:
        return None
    b = germ.germs.parse_divisor(divisor)
    found = germ.invariants.toric_log_discrepancy(b, tuple(r.witness))
    if found != r.value:
        return f"mld witness {tuple(r.witness)} gives {found}, not {r.value}"
    return None


def _check_verify(q: Query, r, germ) -> "str | None":
    eps = Fraction(q.eps)
    problem = _check_mld(r.mld, q.divisor, germ)
    if problem:
        return problem
    mld = r.mld.value
    failed = set()
    if not isinstance(mld, Fraction) or mld < eps:
        failed.add("mld >= epsilon")
    if r.mult > 1 - eps:
        failed.add("mult_C B <= 1 - epsilon")
    if r.reduced_intersection > 2:
        failed.add("(B' . C) <= 2")
    if not r.nondegenerate:
        failed.add("newton nondegeneracy")
    if set(r.failed_hypotheses) != failed:
        return f"failed hypotheses {r.failed_hypotheses}, expected {sorted(failed)}"
    if r.applicable != (not failed):
        return f"applicable = {r.applicable} with failed hypotheses {sorted(failed)}"
    if r.bound > delta_exact(eps):
        return f"bound {r.bound} exceeds delta({eps})"
    if not r.applicable:
        return None if r.passed is None else f"passed = {r.passed} while inapplicable"
    if r.passed is not True:
        return "the theorem's bound fails on an applicable germ"
    if not 0 < r.lct.value <= 1 - r.mult:
        return f"lct {r.lct.value} outside (0, 1 - mult]"
    return None
