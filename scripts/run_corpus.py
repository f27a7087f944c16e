#!/usr/bin/env python3
"""Run the full pipeline over every corpus file and print one summary row each."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gradedlie import diagnostics, prolongation, specfile  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--corpus", default=None, help="corpus directory")
    args = parser.parse_args()
    corpus = Path(args.corpus) if args.corpus else Path(__file__).resolve().parents[1] / "corpus"
    files = sorted(corpus.glob("*.json"))
    if not files:
        print(f"no corpus files under {corpus}", file=sys.stderr)
        return 1
    header = f"{'name':<16} {'dims':<32} {'term':<5} {'total':<6} {'ss':<6} {'N_k':<12}"
    print(header)
    print("-" * len(header))
    for path in files:
        spec = specfile.parse_spec(specfile.load_document(path.read_text()))
        symbol = specfile.build_symbol(spec)
        g0 = specfile.build_g0(spec, symbol)
        result = prolongation.universal_prolongation(symbol, g0, max_degree=spec.max_degree)
        dims = ",".join(str(d) for _, d in result.graded_dimensions())
        complements = ",".join(str(report.dim_complement) for report in result.normalization)
        semisimple = "-"
        total = "-"
        if result.terminated:
            total = str(result.total_dimension)
            semisimple = str(diagnostics.is_semisimple(result.algebra))
        print(
            f"{spec.name:<16} {dims:<32} {str(result.terminated):<5} {total:<6} "
            f"{semisimple:<6} {complements:<12}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
