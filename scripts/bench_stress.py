#!/usr/bin/env python3
"""Stress benchmark: whole prolongations larger than the perfbench workloads.

    python3 scripts/bench_stress.py --out BENCH.json [--root CHECKOUT]

Each stress instance, the contact symbol heisenberg:n with full g0 to a
cutoff, runs through ``gradedlie prolong`` in its own child process, one at
a time, with a 900 s timeout.  For each instance the JSON records the wall
seconds, the seconds spent assembling the bracket table
(``prolongation._assemble``), the child's own peak RSS, the sha256 of the
report and its graded dimensions; it also records the line count of
src/gradedlie/*.py.  --root measures the src/ of another checkout, so two
versions can be compared on the same machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = (("heisenberg:2", 3), ("heisenberg:3", 2), ("heisenberg:3", 3),
             ("heisenberg:3", 4), ("heisenberg:4", 4))
TIMEOUT_S = 900

# Runs the CLI with prolongation._assemble timed and prints, as the last
# stderr line, its seconds and the process's own peak RSS (KiB).
CHILD = """
import resource, sys, time
from gradedlie import prolongation
from gradedlie.cli import main
assemble, spent = prolongation._assemble, 0.0
def timed(*args):
    global spent
    start = time.perf_counter()
    try:
        return assemble(*args)
    finally:
        spent += time.perf_counter() - start
prolongation._assemble = timed
code = main(sys.argv[1:])
sys.stdout.flush()
print(spent, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def run_instance(src: Path, workdir: Path, algebra: str, max_degree: int) -> dict:
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "schema_version": 1, "name": algebra.replace(":", "-"), "algebra": {"preset": algebra},
        "g0": {"mode": "full"}, "options": {"max_degree": max_degree},
    }))
    env = dict(os.environ, PYTHONPATH=str(src))
    record = {"algebra": algebra, "g0": "full", "max_degree": max_degree}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-c", CHILD, "prolong", str(spec)], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record.update(exit_code=None, timed_out=True, wall_s=TIMEOUT_S)
        return record
    record.update(exit_code=done.returncode, timed_out=False,
                  wall_s=round(time.perf_counter() - start, 3))
    err = done.stderr.splitlines()
    last = err[-1].split() if err else []
    measured = len(last) == 2 and last[1].isdigit()
    record["assemble_s"] = round(float(last[0]), 3) if measured else None
    record["peak_rss_mb"] = round(int(last[1]) / 1024, 1) if measured else None
    if done.returncode != 0:
        record["error"] = "\n".join(err[:-1])
        return record
    report = json.loads(done.stdout)
    record["sha256"] = hashlib.sha256(done.stdout.encode()).hexdigest()
    record["dimensions"] = dict(zip(map(str, report["degrees"]), report["dimensions"]))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--root", default=str(ROOT), help="checkout whose src/ is measured")
    args = parser.parse_args()
    src = Path(args.root).resolve() / "src"
    files = sorted((src / "gradedlie").glob("*.py"))
    document = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "timeout_s": TIMEOUT_S,
        "instances": [],
    }
    with tempfile.TemporaryDirectory() as workdir:
        for algebra, max_degree in INSTANCES:
            record = run_instance(src, Path(workdir), algebra, max_degree)
            print(json.dumps(record), flush=True)
            document["instances"].append(record)
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    ok = all(r["exit_code"] == 0 for r in document["instances"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
