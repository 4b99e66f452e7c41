"""Outside-in tracing of the library's public functions.

The tracer wraps each function in ``TRACED`` and rebinds every module-level
name bound to it inside the package: ``germs`` and ``invariants`` import
functions by name (``from .x import f``), so patching the defining module
alone would miss their calls.  Each call records a span (function, parent
span, query, start, end, whether it returned, and one size counter) in
flat arrays; self time, counts and scaling fits are computed from the spans
after the run, and the spans are written out then.
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

#: Public functions traced, as ``<module>.<function>`` inside ``germ``.
TRACED = (
    "polys.parse_weighted_terms",
    "polys.divide_exact",
    "polys.uni_gcd",
    "polys.series_mul",
    "exactgeom.polytope_from_support",
    "exactgeom.minkowski_sum",
    "exactgeom.support_value",
    "exactgeom.hilbert_basis",
    "germs.newton_polytope",
    "germs.nondegeneracy_check",
    "germs.mult_along_curve",
    "germs.remove_curve_component",
    "germs.curve_parametrization",
    "germs.local_intersection",
    "invariants.mld_toric",
    "invariants.lct_toric",
    "invariants.delta_bound",
    "invariants.surface_bound",
    "invariants.verify_surface_theorem",
)


def _order_arg(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs.get("order", 0)


def _candidates(args, kwargs, result):
    eps = Fraction(str(args[0] if args else kwargs["epsilon"]))
    return math.ceil(1 + 4 / eps) - 1


#: Size counter recorded per call: (metric suffix, per "query" or per
#: "call", extractor).  The extractors run after the span has closed.
COUNTERS = {
    "exactgeom.hilbert_basis": ("elements", "query", lambda a, k, r: len(r)),
    "germs.curve_parametrization": ("order", "call", _order_arg),
    "invariants.delta_bound": ("candidates", "call", _candidates),
}


class Tracer:
    """Records spans of the traced functions while ``query`` is set."""

    def __init__(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.amount = array("d")
        self._stack: list[int] = []
        self._current = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function that exists and rebind its names."""
        wrappers = {}
        for i, name in enumerate(TRACED):
            module_name, attr = name.split(".")
            fn = getattr(sys.modules.get(f"germ.{module_name}"), attr, None)
            if callable(fn):
                counter = COUNTERS.get(name)
                wrappers[id(fn)] = (fn, self._wrap(i, fn, counter and counter[2]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "germ" and not mod_name.startswith("germ."):
                continue
            for attr, value in list(vars(module).items()):
                found = wrappers.get(id(value))
                if found and found[0] is value:
                    setattr(module, attr, found[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, fn_id: int, fn, counter):
        stack, fns, parents, queries = self._stack, self.fn, self.parent, self.query
        starts, ends, oks, amounts = self.start, self.end, self.ok, self.amount

        def traced(*args, **kwargs):
            if self._current < 0:
                return fn(*args, **kwargs)
            idx = len(fns)
            starts.append(perf_counter())
            ends.append(0.0)
            fns.append(fn_id)
            parents.append(stack[-1] if stack else -1)
            queries.append(self._current)
            oks.append(0)
            amounts.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            oks[idx] = 1
            if counter is not None:
                amounts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # -- per query ----------------------------------------------------------

    def begin(self, query_index: int) -> None:
        self._current = query_index

    def finish(self) -> None:
        """Stop recording; close spans a failure left open (an exception
        raised at the recursion limit can skip a wrapper's bookkeeping)."""
        self._current = -1
        now = perf_counter()
        for idx in self._stack:
            if self.end[idx] == 0.0:
                self.end[idx] = now
        self._stack.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> "list[float]":
        child = [0.0] * len(self.fn)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.fn))]

    def metrics(self, queries: list) -> "dict[str, tuple[float, str]]":
        """Per-query calls and self time of every traced function, the size
        counters and the log-log size exponents of the scaling fits."""
        n = len(queries)
        selfs = self.self_times()
        calls = [0] * len(TRACED)
        self_s = [0.0] * len(TRACED)
        amount = [0.0] * len(TRACED)
        points: dict[int, list[tuple[float, float]]] = {}
        for i, f in enumerate(self.fn):
            calls[f] += 1
            self_s[f] += selfs[i]
            amount[f] += self.amount[i]
            size = queries[self.query[i]].sizes.get(TRACED[f])
            if size and self.ok[i]:
                points.setdefault(f, []).append((size, self.end[i] - self.start[i]))
        out: dict[str, tuple[float, str]] = {}
        for f, name in enumerate(TRACED):
            out[f"{name}.calls"] = (calls[f] / n, "1/query")
            out[f"{name}.self_ms"] = (1e3 * self_s[f] / n, "ms/query")
            if name in COUNTERS:
                suffix, per, _ = COUNTERS[name]
                base = n if per == "query" else max(calls[f], 1)
                out[f"{name}.{suffix}"] = (amount[f] / base, "count")
        for name in ("invariants.mld_toric", "germs.local_intersection",
                     "invariants.delta_bound"):
            f = TRACED.index(name)
            out[f"{name}.size_exponent"] = (log_log_slope(points.get(f, [])), "slope")
        return out

    def shares(self) -> "list[tuple[str, float]]":
        """Each traced function's share of all traced self time, largest first."""
        totals = [0.0] * len(TRACED)
        for f, s in zip(self.fn, self.self_times()):
            totals[f] += s
        whole = sum(totals) or 1.0
        return sorted(((TRACED[f], t / whole) for f, t in enumerate(totals)),
                      key=lambda item: -item[1])

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span\tquery\tfunction\tparent\tstart_us\tend_us\treturned\tamount\n")
            t0 = self.start[0] if self.start else 0.0
            for i, f in enumerate(self.fn):
                out.write(f"{i}\t{self.query[i]}\t{TRACED[f]}\t{self.parent[i]}\t"
                          f"{1e6 * (self.start[i] - t0):.1f}\t{1e6 * (self.end[i] - t0):.1f}\t"
                          f"{self.ok[i]}\t{self.amount[i]:g}\n")


def log_log_slope(points: "list[tuple[float, float]]") -> float:
    """Least-squares slope of log(time) against log(size); 0 with fewer than
    three distinct sizes."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
