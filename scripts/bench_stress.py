#!/usr/bin/env python3
"""Stress benchmark: whole prolongations larger than the perfbench workloads.

    python3 scripts/bench_stress.py --out BENCH.json [--root CHECKOUT]

Each stress instance, the contact symbol heisenberg:n with full g0 to a
cutoff, runs through ``gradedlie prolong`` in its own child process, one at
a time, with a 900 s timeout.  For each instance the JSON records the wall
seconds, the seconds spent building and checking g0 (``specfile.build_g0``),
building the Leibniz constraint systems (``prolongation.leibniz_system``),
eliminating (``linalg.rref``, every call), assembling the bracket table
(``prolongation._assemble``) and writing the report
(``specfile.dump_document``), the child's own peak RSS, the byte length and
sha256 of the report and its graded dimensions.  The Leibniz and rref
seconds include the calls made while building g0.  Beside the wall seconds
it records the median time of the fixed reference elimination ``probe()``
of perfbench/speed.py, taken just before and just after the child, and the
wall seconds scaled to a machine on which that probe takes its nominal time
(reference seconds), so that two runs made while the machine ran at
different speeds can be compared.  The scale comes from inside the child:
it runs the command under speed.py's ``SpeedProbe``, which also probes every
0.1 s during the run, and ``wall_ref_s`` is the wall seconds less the
child's probing, times that in-child factor; ``probe_child_s`` is the mean
probe time it implies.  The per-phase seconds include the probes that fell
inside them, about 2% of a phase.  It also records
the line count of src/gradedlie/*.py and the median wall seconds of 15
fresh interpreters that only import gradedlie.cli, the start-up every
command pays.  The report goes to a file and is hashed in chunks, so this
script never holds it in memory.  --root measures the src/
of another checkout, so two versions can be compared on the same machine;
the probe is always this checkout's.

heisenberg:n with full g0 prolongs to the contact algebra in 2n + 1
variables (Tanaka 1970), whose degree-k part has the dimension of the
weight-(k + 2) polynomials in 2n variables of weight 1 and one of weight 2,

    dim g^k = sum over j >= 0 of C(2n + k + 1 - 2j, 2n - 1).

An instance whose graded dimensions differ from that closed form fails, as
does one that exits nonzero or times out; the exit code is then 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from speed import PROBE_NOMINAL_S, probe  # noqa: E402
INSTANCES = (("heisenberg:2", 3), ("heisenberg:3", 2), ("heisenberg:3", 3),
             ("heisenberg:3", 4), ("heisenberg:4", 4), ("heisenberg:5", 3),
             ("heisenberg:5", 4))
TIMEOUT_S = 900
STARTS = 15
PROBES = 25  # probe() runs before and after each child

# Runs the CLI under a SpeedProbe with specfile.build_g0,
# prolongation.leibniz_system, linalg.rref, prolongation._assemble and
# specfile.dump_document timed and prints, as the last stderr line, a JSON
# object with their seconds, the seconds the probes took, the in-child factor
# to reference seconds, the process's own peak RSS (KiB) and the graded
# dimensions of the result.
CHILD = """
import json, resource, sys, time
from gradedlie import linalg, prolongation, specfile
from gradedlie.cli import main
from speed import SpeedProbe
spent, dims = {"g0_s": 0.0, "leibniz_s": 0.0, "rref_s": 0.0, "assemble_s": 0.0, "dump_s": 0.0}, {}
def timed(key, function):
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return function(*args)
        finally:
            spent[key] += time.perf_counter() - start
    return wrapper
prolong = prolongation.universal_prolongation
def recorded(*args, **kwargs):
    result = prolong(*args, **kwargs)
    dims.update((str(d), result.dims[d]) for d in sorted(result.dims))
    return result
specfile.build_g0 = timed("g0_s", specfile.build_g0)
prolongation.leibniz_system = timed("leibniz_s", prolongation.leibniz_system)
linalg.rref = timed("rref_s", linalg.rref)
prolongation._assemble = timed("assemble_s", prolongation._assemble)
specfile.dump_document = timed("dump_s", specfile.dump_document)
prolongation.universal_prolongation = recorded
probe = SpeedProbe()
start = time.perf_counter()
code, net, factor = probe.around(lambda: main(sys.argv[1:]))
probes = time.perf_counter() - start - net
sys.stdout.flush()
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({**spent, "probes_s": probes, "factor": factor, "peak_kib": peak, "dimensions": dims}),
      file=sys.stderr)
sys.exit(code)
"""


def contact_dimensions(n: int, max_degree: int) -> dict[str, int]:
    """The closed-form graded dimensions of the contact algebra, degrees -2
    to max_degree, keyed as the report's dimensions are."""
    return {str(k): sum(math.comb(2 * n + k + 1 - 2 * j, 2 * n - 1) for j in range((k + 2) // 2 + 1))
            for k in range(-2, max_degree + 1)}


def startup_seconds(src: Path) -> float:
    """Median wall seconds from a fresh interpreter to gradedlie.cli imported."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(STARTS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gradedlie.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def probe_seconds() -> float:
    """Median seconds of PROBES runs of the reference elimination."""
    return statistics.median(probe() for _ in range(PROBES))


def run_instance(src: Path, workdir: Path, algebra: str, max_degree: int) -> dict:
    spec = workdir / "spec.json"
    spec.write_text(json.dumps({
        "schema_version": 1, "name": algebra.replace(":", "-"), "algebra": {"preset": algebra},
        "g0": {"mode": "full"}, "options": {"max_degree": max_degree},
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(ROOT / "perfbench"))))
    record = {"algebra": algebra, "g0": "full", "max_degree": max_degree}
    report = workdir / "report.json"
    before = probe_seconds()
    start = time.perf_counter()
    try:
        with report.open("wb") as out:
            done = subprocess.run([sys.executable, "-c", CHILD, "prolong", str(spec)], env=env,
                                  stdout=out, stderr=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record.update(exit_code=None, timed_out=True, wall_s=TIMEOUT_S)
        return record
    wall = time.perf_counter() - start
    after = probe_seconds()
    record.update(exit_code=done.returncode, timed_out=False, wall_s=round(wall, 3),
                  probe_before_s=round(before, 6), probe_after_s=round(after, 6))
    err = done.stderr.splitlines()
    try:
        measured = json.loads(err[-1])
    except (IndexError, ValueError):
        measured = {}
    if measured:
        record.update(probe_child_s=round(PROBE_NOMINAL_S / measured["factor"], 6),
                      wall_ref_s=round((wall - measured["probes_s"]) * measured["factor"], 3))
    else:
        record.update(probe_child_s=None, wall_ref_s=None)
    for key in ("g0_s", "leibniz_s", "rref_s", "assemble_s", "dump_s"):
        record[key] = round(measured[key], 4) if measured else None
    record["peak_rss_mb"] = round(measured["peak_kib"] / 1024, 1) if measured else None
    if done.returncode != 0:
        record["error"] = "\n".join(err[:-1] if measured else err)
        return record
    digest = hashlib.sha256()
    with report.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    record["report_bytes"] = report.stat().st_size
    record["sha256"] = digest.hexdigest()
    record["dimensions"] = measured["dimensions"]
    expected = contact_dimensions(int(algebra.split(":")[1]), max_degree)
    if record["dimensions"] != expected:
        record["error"] = f"graded dimensions differ from the contact algebra's {expected}"
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
        "startup_s": startup_seconds(src),
        "probe_nominal_s": PROBE_NOMINAL_S,
        "timeout_s": TIMEOUT_S,
        "instances": [],
    }
    with tempfile.TemporaryDirectory() as workdir:
        for algebra, max_degree in INSTANCES:
            record = run_instance(src, Path(workdir), algebra, max_degree)
            print(json.dumps(record), flush=True)
            document["instances"].append(record)
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    ok = all(r["exit_code"] == 0 and "error" not in r for r in document["instances"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
