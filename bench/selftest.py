"""Smoke test of the benchmark itself, in about half a minute:

    python3 bench/selftest.py

It checks that a short run prints every metric BENCHMARK.json declares,
with its name and unit, in both trace modes; that a planted wrong answer
counts as failed; and that a planted query running past the cap is stopped
and charged the cap.  Its file name keeps pytest from collecting it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from fractions import Fraction

import run
import workloads as wl


def fail(message: str) -> None:
    raise SystemExit(f"selftest failed: {message}")


def check_metrics_print() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        out = subprocess.run(
            [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", "deep-cone",
             "--seed", "3", "--seconds", "1", "--trace", trace],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        if not result["correct"] or result["attempted"] < 100:
            fail(f"trace {trace}: correct={result['correct']}, attempted={result['attempted']}")
        printed = result["metrics"]
        if set(printed) != {m["name"] for m in declared}:
            fail(f"trace {trace}: printed {sorted(printed)}")
        for m in declared:
            if printed[m["name"]]["unit"] != m["unit"]:
                fail(f"{m['name']} has unit {printed[m['name']]['unit']}, declared {m['unit']}")


def check_planted_failures() -> None:
    runner = run.Runner(run.load_germ(), cap=0.2)
    good = wl.Query("mld", divisor="1/4*(x^30 + y^2)", expect={"value": Fraction(3, 2)})
    wrong = wl.Query("mld", divisor="1/4*(x^30 + y^2)", expect={"value": Fraction(7, 5)})
    outcome = runner.run(good)
    if outcome.failure or not 0 < outcome.seconds < runner.cap:
        fail(f"a correct query gave {outcome}")
    outcome = runner.run(wrong)
    if outcome.failure != "wrong answer" or outcome.seconds != runner.cap:
        fail(f"a planted wrong answer gave {outcome}")

    def too_slow(germ, q):
        time.sleep(5)

    start = time.perf_counter()
    outcome = runner.run(good, ask=too_slow)
    if outcome.failure != "timeout" or outcome.seconds != runner.cap:
        fail(f"a planted over-cap query gave {outcome}")
    if time.perf_counter() - start > 1:
        fail("the cap did not stop the over-cap query")
    metrics = run.end_to_end([outcome] * 5 + [runner.run(good) for _ in range(15)])
    if metrics["p90_ms"][0] != 1e3 * runner.cap:
        fail(f"p90 {metrics['p90_ms'][0]} ms does not charge the cap")


if __name__ == "__main__":
    check_planted_failures()
    check_metrics_print()
    print("selftest passed")
