"""Closed-loop query benchmark for germ: one client, one thread, one process.

Usage, from the repository root:

    python3 bench/run.py --workload deep-cone --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all      # every workload, one after another

Each query is one call the command line would make (``mld``, ``lct``,
``verify`` or ``delta``), made in-process through the library's public
functions on generated text.  ``--trace 0`` answers the run's fixed set of
RUN_QUERIES[workload] queries pass after pass for ``--seconds`` and reports
the end-to-end metrics over each query's fastest time; ``--trace 1`` answers
the same queries once untraced and once traced and reports per-layer
metrics.  The last line of standard output is one JSON
object; a human summary goes to standard error.

A query fails when it raises, returns a wrong exact answer or runs past
CAP_S seconds; every timing metric charges a failed query CAP_S, so
failures rank above every success.  ``--record`` rewrites answers.json from
the current library at the default seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import workloads as wl
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).resolve().parent / "answers.json"

CAP_S = 5.0  # per-query cap: several times the slowest seed query (about 0.8 s)
# Queries in one run: whole blocks, at least 100 so that at least ten lie
# beyond p90, and few enough that a run answers each many times.
RUN_QUERIES = {"deep-cone": 108, "series-contact": 104}
SETUP_RUNS = 5
RECORD_QUERIES = 200
DEADLINE_S = 150.0  # stop measuring this long after start, whatever the count


class QueryTimeout(BaseException):
    """Raised by the alarm in the query that ran past the cap.  It derives
    from BaseException so that no ``except Exception`` in the library
    swallows it."""


@dataclass(frozen=True)
class Outcome:
    seconds: float  # measured time, or the cap for a failed query
    failure: "str | None" = None  # None, "wrong answer", "timeout" or an exception type
    detail: str = ""  # the answer's canonical form, or why the query failed


def load_germ():
    """Import germ from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "germ" / "invariants.py").is_file():
        raise SystemExit(f"germ sources not found under {src}")
    sys.path.insert(0, str(src))
    import germ.exactgeom
    import germ.germs
    import germ.invariants
    import germ.polys

    if not Path(germ.invariants.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported germ from {germ.invariants.__file__}, not {src}")
    return germ


def answer(germ, q: wl.Query):
    """One query through the public functions, looked up at call time so
    that traced wrappers apply."""
    if q.kind == "delta":
        return germ.invariants.delta_bound(q.eps)
    b = germ.germs.parse_divisor(q.divisor)
    if q.kind == "mld":
        return germ.invariants.mld_toric(b)
    c = germ.germs.curve_orient(germ.polys.parse_poly(q.curve))
    if q.kind == "lct":
        return germ.invariants.lct_toric(b, c)
    return germ.invariants.verify_surface_theorem(b, c, q.eps)


class Runner:
    """Answers and checks queries one at a time under the per-query cap."""

    def __init__(self, germ, cap: float = CAP_S, recorded=()) -> None:
        self.germ = germ
        self.cap = cap
        self.recorded = list(recorded)
        self.tracer: "Tracer | None" = None
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed:
            self._armed = False
            raise QueryTimeout

    def run(self, q: wl.Query, index: int = -1, ask=answer) -> Outcome:
        if self.tracer is not None:
            self.tracer.begin(index)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.cap)
        t0 = time.perf_counter()
        try:
            result = ask(self.germ, q)
            elapsed = time.perf_counter() - t0
        except QueryTimeout:
            return Outcome(self.cap, "timeout")
        except Exception as exc:  # a failing query is recorded, the run goes on
            return Outcome(self.cap, type(exc).__name__, str(exc)[:200])
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.finish()
        recorded = self.recorded[index] if 0 <= index < len(self.recorded) else None
        try:
            problem = wl.check(q, result, self.germ, recorded)
        except Exception as exc:  # a result the checks cannot read is wrong
            problem = f"unreadable result: {type(exc).__name__}: {exc}"
        if problem:
            return Outcome(self.cap, "wrong answer", problem)
        return Outcome(elapsed, None, wl.canonical(q.kind, result))


# ---------------------------------------------------------------------------
# measurement


def measure(runner: Runner, queries: "list[wl.Query]", seconds: float,
            deadline: float) -> "list[Outcome]":
    """Closed loop over the queries, pass after pass, until ``seconds`` have
    passed (always one whole pass, unless the deadline comes first).

    Every answer is checked.  A query that fails once is not asked again and
    is charged the cap.  Each other query's time is the fastest of its
    passes, as with ``timeit``: its work is the same on every pass, and a
    busy host only adds time, so over ten or more passes spread across the
    run the fastest one is the steadiest estimate of that work."""
    start = time.perf_counter()
    outcomes = run_all(runner, queries, deadline)
    times = {i: [o.seconds] for i, o in enumerate(outcomes) if o.failure is None}
    end = min(start + seconds, deadline)
    while times and time.perf_counter() < end:
        for i in list(times):
            outcome = runner.run(queries[i], i)
            if outcome.failure is None:
                times[i].append(outcome.seconds)
            else:
                outcomes[i] = outcome
                del times[i]
            if time.perf_counter() >= end:
                break
    if times:
        passes = sorted(len(t) for t in times.values())
        print(f"passes per query: {passes[0]} to {passes[-1]}", file=sys.stderr)
    return [replace(o, seconds=min(times[i])) if i in times else o
            for i, o in enumerate(outcomes)]


def end_to_end(outcomes: "list[Outcome]") -> "dict[str, tuple[float, str]]":
    charged = [o.seconds for o in outcomes]
    answered = sum(o.failure is None for o in outcomes)
    deciles = statistics.quantiles(charged, n=10, method="inclusive")
    return {
        "queries_per_s": (answered / sum(charged), "1/s"),
        "p50_ms": (1e3 * statistics.median(charged), "ms"),
        "p90_ms": (1e3 * deciles[8], "ms"),
        "correct_frac": (answered / len(outcomes), "ratio"),
    }


def failure_counts(outcomes: "list[Outcome]") -> Counter:
    return Counter(o.failure for o in outcomes if o.failure)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def warm_up(runner: Runner, workload: str) -> None:
    for q in next(wl.stream(workload, wl.WARMUP_SEED)):
        runner.run(q)


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of importing germ and answering the
    workload's warm-up queries."""
    times = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--setup-child"],
            cwd=ROOT, capture_output=True, text=True, timeout=20, check=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def setup_child(workload: str) -> None:
    t0 = time.perf_counter()
    warm_up(Runner(load_germ()), workload)
    print(time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# runs


def untraced_run(germ, workload: str, seed: int, seconds: float, started: float) -> dict:
    setup_s = setup_seconds(workload)
    runner = Runner(germ, recorded=_recorded(workload, seed))
    warm_up(runner, workload)
    queries = wl.first_queries(workload, seed, RUN_QUERIES[workload])
    outcomes = measure(runner, queries, seconds, started + DEADLINE_S)
    metrics = end_to_end(outcomes)
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return _result(workload, outcomes, metrics)


def traced_run(germ, workload: str, seed: int, started: float) -> dict:
    """The run's queries, once untraced and once traced, so that counts
    repeat exactly for a seed."""
    runner = Runner(germ, recorded=_recorded(workload, seed))
    warm_up(runner, workload)
    queries = wl.first_queries(workload, seed, RUN_QUERIES[workload])
    deadline = started + DEADLINE_S
    plain = run_all(runner, queries, deadline)
    runner.tracer = tracer = Tracer()
    tracer.install()
    try:
        traced = run_all(runner, queries[:len(plain)], deadline)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(queries[:len(traced)])
    both = [(p.seconds, t.seconds) for p, t in zip(plain, traced)
            if p.failure is None and t.failure is None]
    untraced_s = sum(p for p, _ in both)
    metrics["trace.queries_per_s_untraced"] = end_to_end(plain)["queries_per_s"]
    metrics["trace.queries_per_s_traced"] = end_to_end(traced)["queries_per_s"]
    metrics["trace.overhead_frac"] = (
        sum(t for _, t in both) / untraced_s - 1 if untraced_s else 0.0, "ratio")
    failures = failure_counts(traced)
    named = {"RecursionError": "failed.RecursionError", "timeout": "failed.timeout",
             "wrong answer": "failed.wrong_answer"}
    metrics["failed_frac"] = (sum(failures.values()) / len(traced), "ratio")
    for kind, name in named.items():
        metrics[name] = (failures[kind], "count")
    metrics["failed.other"] = (
        sum(n for kind, n in failures.items() if kind not in named), "count")
    tracer.write(Path(__file__).resolve().parent / "out" / f"spans-{workload}-{seed}.tsv")
    for name, share in tracer.shares()[:8]:
        print(f"  self-time share {share:6.1%}  {name}", file=sys.stderr)
    return _result(workload, traced, metrics)


def run_all(runner: Runner, queries: "list[wl.Query]", deadline: float) -> "list[Outcome]":
    outcomes: list[Outcome] = []
    for i, q in enumerate(queries):
        if time.perf_counter() >= deadline:
            break
        outcomes.append(runner.run(q, i))
    return outcomes


def _recorded(workload: str, seed: int) -> list:
    """Recorded answers in stream order; none for seeds other than the default."""
    if seed != wl.DEFAULT_SEED:
        return []
    return json.loads(ANSWERS.read_text())[workload]


def _result(workload: str, outcomes: "list[Outcome]", metrics: dict) -> dict:
    failures = failure_counts(outcomes)
    print(f"{workload}: {len(outcomes)} queries, failures by type: "
          f"{dict(failures) or 'none'}", file=sys.stderr)
    for o in outcomes:
        if o.failure == "wrong answer":
            print(f"  wrong answer: {o.detail}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": not failures["wrong answer"],
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def record() -> None:
    """Rewrite answers.json: canonical answers of the first RECORD_QUERIES
    queries of each workload at the default seed (None where one fails)."""
    runner = Runner(load_germ())
    answers: dict = {"seed": wl.DEFAULT_SEED}
    for workload in wl.WORKLOADS:
        queries = wl.first_queries(workload, wl.DEFAULT_SEED, RECORD_QUERIES)
        outcomes = [runner.run(q) for q in queries]
        answers[workload] = [None if o.failure else o.detail for o in outcomes]
    ANSWERS.write_text(json.dumps(answers, indent=0) + "\n")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",),
                        help="one workload, or all of them, each in a fresh process")
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite answers.json from the current library")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload)
        return 0
    if args.workload == "all":
        for workload in wl.WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            print(workload, child.stdout.strip().splitlines()[-1])
        return 0
    germ = load_germ()  # fails before any work when the sources are missing
    if args.trace:
        result = traced_run(germ, args.workload, args.seed, started)
    else:
        result = untraced_run(germ, args.workload, args.seed, args.seconds, started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
