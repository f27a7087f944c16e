#!/usr/bin/env python3
"""Benchmark of the gradedlie prolongation pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One operation is one report, produced in
process exactly as a user produces it: ``gradedlie.cli.main(["prolong",
<spec file>])`` with stdout captured, so parsing, g0 construction, both
constraint routes with the Spencer cross-check, the bracket table, the
validity and transitivity checks, normalization, diagnostics and
serialization are all timed.  The load is a closed loop with one client in
one process and one thread.  A run is a sequence of whole sweeps, each sweep
running every instance of the workload once in an order shuffled by the
seed, until --seconds have passed.  Every report is checked: exit code 0,
the sha256 of the report text against perfbench/golden.json, and for the
generated instances the graded dimensions and total dimension against their
closed forms.

Times are reference seconds (speed.py): wall times corrected for the
machine's drifting speed.  reports_per_s is the throughput at the
workload's fixed instance mix, instances per sweep over the sum of the
per-instance median report times; report_gmean_s is the geometric mean of
those medians, so every instance weighs the same; setup_s is the median
over fresh interpreter start-ups of the time until gradedlie.cli is
imported and the workload's spec files are parsed.

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
each report runs once untraced and once under the span recorder of
tracer.py, and the last line holds the per-layer metrics.  Spans and
per-matrix records are written to .bench_build/perfbench/.  The exit code
is 0 only when every report passed its checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import Recorder

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

# Fresh start-ups per run for setup_s; one start-up varies by more than a tenth.
SETUP_RUNS = 15

CORPUS_FILES = ("abelian-gl-1", "cartan-25", "contact-n1", "ode2-point",
                "riemannian-n2", "riemannian-n3", "riemannian-n4", "riemannian-n5")

# Closed forms of the generated instances: graded dimensions by degree, and
# the total dimension (None for a truncated run).
EXPECTED = {
    # B3 = so(3,4) on the free 3-generator step-2 symbol.
    "free-3-2": ({-2: 3, -1: 3, 0: 9, 1: 3, 2: 3}, 21),
    # Free symbols of step >= 3 (r = 3) and >= 4 (r = 2): m + gl(r), no positive part.
    "free-3-3": ({-3: 8, -2: 3, -1: 3, 0: 9}, 23),
    "free-2-5": ({-5: 6, -4: 3, -3: 2, -2: 1, -1: 2, 0: 4}, 18),
    # Euclidean algebra e(7) = R^7 + so(7).
    "euclid-7": ({-1: 7, 0: 21}, 28),
    # Contact vector fields on R^5, truncated at degree 1.
    "contact-n2": ({-2: 1, -1: 4, 0: 11, 1: 24}, None),
    # Vector fields on R^3: dim of degree k is 3 * C(k + 3, 2), truncated at degree 2.
    "vector-fields-3": ({-1: 3, 0: 9, 1: 18, 2: 30}, None),
}

# Why each workload: corpus is what users run (small inputs, per-call
# overhead); finite-type terminates and exercises every layer, with
# elimination dominant; infinite-type is truncated and dominated by the
# non-negative bracket table.
WORKLOADS = {
    "corpus": [("corpus", name) for name in CORPUS_FILES],
    "finite-type": [("specs", name) for name in ("free-3-2", "free-3-3", "free-2-5", "euclid-7")],
    "infinite-type": [("specs", name) for name in ("contact-n2", "vector-fields-3")],
}

SETUP_CHILD = """
import sys, time
import gradedlie.cli
from gradedlie import specfile
for path in sys.argv[1:]:
    with open(path) as handle:
        specfile.parse_spec(specfile.load_document(handle.read()))
print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
"""


def instance_path(where: str, name: str) -> Path:
    base = ROOT / "corpus" if where == "corpus" else HERE / "specs"
    return base / f"{name}.json"


def measure_setup(speed: SpeedProbe, paths) -> float:
    """Median reference time from a fresh interpreter to gradedlie.cli imported
    and the spec files parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", SETUP_CHILD, *map(str, paths)]

    def start_up():
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        return (int(done.stdout.strip()) - start) / 1e9

    times = []
    for _ in range(SETUP_RUNS):
        seconds, _, factor = speed.around(start_up, sample_inside=False)
        times.append(seconds * factor)
    return statistics.median(times)


def run_report(cli, path: Path):
    """One report through the CLI: (exit code, or None on an exception; report text)."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["prolong", str(path)])
    except Exception:
        traceback.print_exc()
        code = None
    return code, buffer.getvalue()


def check_report(name: str, code, text: str, golden: dict) -> str | None:
    """The reason a report is wrong, or None when it passes."""
    if code != 0:
        return f"exit code {code}"
    if hashlib.sha256(text.encode()).hexdigest() != golden.get(name):
        return "report digest differs from the golden digest"
    if name in EXPECTED:
        dims, total = EXPECTED[name]
        doc = json.loads(text)
        got = dict(zip(doc["degrees"], doc["dimensions"]))
        if got != dims or doc["total_dimension"] != total:
            return f"graded dimensions {got}, total {doc['total_dimension']}; expected {dims}, {total}"
    return None


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def src_lines() -> dict:
    return {p.stem: len(p.read_text().splitlines()) for p in sorted((SRC / "gradedlie").glob("*.py"))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    instances = [(name, instance_path(where, name)) for where, name in WORKLOADS[args.workload]]
    missing = [str(p) for _, p in instances if not p.is_file()]
    if not (SRC / "gradedlie" / "cli.py").is_file() or missing:
        print(f"gradedlie sources or spec files missing under {ROOT}: {missing}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    sys.path.insert(0, str(SRC))
    from gradedlie import cli

    speed = SpeedProbe()
    setup_s = None if args.trace else measure_setup(speed, [p for _, p in instances])

    rng = random.Random(args.seed)
    recorder = Recorder(excluded=lambda: speed.spent)
    samples = {name: [] for name, _ in instances}
    walls = {name: [] for name, _ in instances}
    traced = {name: [] for name, _ in instances}
    attempted = failed = sweeps = 0
    deadline = time.perf_counter() + args.seconds
    while sweeps == 0 or time.perf_counter() < deadline:
        order = list(instances)
        rng.shuffle(order)
        for name, path in order:
            for under_trace in ([False, True] if args.trace else [False]):
                gc.collect()
                if under_trace:
                    recorder.report = attempted
                    with recorder.installed():
                        (code, text), wall, factor = speed.around(lambda: run_report(cli, path))
                    recorder.factors[attempted] = factor
                    traced[name].append(wall * factor)
                else:
                    (code, text), wall, factor = speed.around(lambda: run_report(cli, path))
                    samples[name].append(wall * factor)
                    walls[name].append(wall)
                attempted += 1
                reason = check_report(name, code, text, golden)
                if reason:
                    failed += 1
                    print(f"FAILED {name}: {reason}", file=sys.stderr)
        sweeps += 1

    for name, times in samples.items():
        row = {"instance": name, "median_s": statistics.median(times),
               "wall_median_s": statistics.median(walls[name]), "samples": len(times)}
        tail = tail_percentile(times)
        if tail:
            row[f"p{tail[0]}_s"] = tail[1]
        print(json.dumps(row))
    print(json.dumps({"src_lines": src_lines(), "sweeps": sweeps,
                      "failed_ratio": failed / attempted}))

    untraced_rate = len(instances) / sum(statistics.median(t) for t in samples.values())
    if args.trace:
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = recorder.metrics(sweeps)
        traced_rate = len(instances) / sum(statistics.median(t) for t in traced.values())
        metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    else:
        medians = [statistics.median(t) for t in samples.values()]
        metrics = {
            "reports_per_s": (untraced_rate, "1/s"),
            "report_gmean_s": (statistics.geometric_mean(medians), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (setup_s, "s"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
