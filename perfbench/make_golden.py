#!/usr/bin/env python3
"""Write perfbench/golden.json: the sha256 of every benchmark instance's report.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose reports are trusted; the benchmark
counts every report whose digest differs from this file as failed.
"""

import hashlib
import json
import sys

from run import SRC, HERE, WORKLOADS, check_report, instance_path, run_report


def main() -> int:
    sys.path.insert(0, str(SRC))
    from gradedlie import cli

    golden = {}
    for instances in WORKLOADS.values():
        for where, name in instances:
            code, text, _ = run_report(cli, instance_path(where, name))
            if code != 0:
                print(f"{name}: exit code {code}", file=sys.stderr)
                return 1
            golden[name] = hashlib.sha256(text.encode()).hexdigest()
            reason = check_report(name, code, text, golden)
            if reason:
                print(f"{name}: {reason}", file=sys.stderr)
                return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
