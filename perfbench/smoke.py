#!/usr/bin/env python3
"""Smoke check of the benchmark: one sweep of each workload, untraced and traced.

    python3 perfbench/smoke.py        (or: python -m pytest perfbench/smoke.py)

Run from the root of a checkout.  Every run must exit 0 with failed_ratio 0,
and its last line must carry every metric BENCHMARK.json names for that mode
(end_to_end untraced, per_layer traced), each a finite number.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check_run(workload: str, trace: int, expected_metrics) -> None:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise AssertionError(f"{where}: exit code {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or summary["failed_ratio"] != 0:
        raise AssertionError(f"{where}: {result['failed']} of {result['attempted']} reports failed")
    for name in expected_metrics:
        metric = result["metrics"].get(name)
        if metric is None or not math.isfinite(metric["value"]):
            raise AssertionError(f"{where}: metric {name} missing or not finite: {metric}")


def test_smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        check_run(workload, 0, [m["name"] for m in bench["end_to_end"]])
        check_run(workload, 1, [m["name"] for m in bench["per_layer"]])


if __name__ == "__main__":
    test_smoke()
    print("benchmark smoke check passed")
