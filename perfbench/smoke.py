"""Smoke test of the benchmark harness at tiny sizes.

Usage (from the root of a source checkout): python3 perfbench/smoke.py

Runs every workload with --tiny, once untraced and once traced, and
checks that:
  * each run is correct and emits every metric BENCHMARK.json names,
    with its unit and a finite value;
  * the traced self times sum to the traced in-process wall time, within
    the tracer's own overhead (the traced minus the untraced wall time).
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def check_metrics(workload: str, trace: int, result: dict, declared: list[dict]) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: run not correct: {result}")
    emitted = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(emitted) != sorted(names):
        raise AssertionError(f"{workload} trace={trace}: metrics {sorted(emitted)} != {names}")
    for m in declared:
        got = emitted[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise AssertionError(f"{workload} trace={trace}: bad metric {m['name']}: {got}")


def check_self_times(workload: str, result: dict, lines: list[str]) -> None:
    check = next(line for line in lines if line.startswith("trace-check "))
    fields = dict(word.split("=", 1) for word in check.split()[1:])
    child_wall = float(fields["child_wall_s"])
    self_sum = float(fields["self_sum_s"])
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    tolerance = max(overhead, 0.02 * child_wall)
    if not 0.0 <= child_wall - self_sum <= tolerance:
        raise AssertionError(
            f"{workload}: self times sum to {self_sum}, traced wall is {child_wall}, "
            f"tolerance {tolerance}"
        )
    print(f"  {workload}: self-time sum {self_sum:.4f} s of {child_wall:.4f} s traced wall")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run(workload, trace)
            check_metrics(workload, trace, result, declared[section])
            if trace:
                check_self_times(workload, result, lines)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
