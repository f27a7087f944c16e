"""Command line front end: check, prolong and free subcommands.

Exit codes: 0 success, 1 validation failure, 2 parse, usage or file error
(unreadable or undecodable input, unwritable output), 3 internal
consistency failure.

A structured report (and a `free` document) is the exact bytes of
``json.dumps(doc, indent=2)`` plus a newline, streamed by
``specfile.dump_document``, which writes the algebra in the document as its
bracket entries; an --out file is opened only once the engine is done.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from . import diagnostics, prolongation, specfile
from .specfile import SpecError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on a process's first `main` call and reused; it
    holds no state between calls and names no command function."""
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="Exact universal prolongation of fundamental graded nilpotent Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a specification file")
    check.add_argument("file", help="specification document (JSON)")

    prolong = sub.add_parser("prolong", help="compute the universal prolongation")
    prolong.add_argument("file", help="specification document (JSON)")
    prolong.add_argument("--max-degree", type=_positive_int, default=None,
                         help=f"cutoff degree (default: the file's option, else {prolongation.DEFAULT_MAX_DEGREE})")
    prolong.add_argument("--out", default=None, help="write the report to this path")
    prolong.add_argument("--format", choices=("structured", "table"), default="structured")

    free = sub.add_parser("free", help="emit a free nilpotent symbol specification")
    free.add_argument("r", type=_positive_int, help="number of generators")
    free.add_argument("mu", type=_positive_int, help="nilpotency step")
    free.add_argument("--out", default=None, help="write the document to this path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* takes effect
    command = {"check": cmd_check, "prolong": cmd_prolong, "free": cmd_free}[args.command]
    try:
        return command(args)
    except SpecError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except prolongation.InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _load_validated(path: str):
    """Parse and build (symbol, g0); ValueError on math failures.  The
    symbol is validated by the g0 builder that build_g0 reaches in every
    mode (algebra.require_valid_symbol), after build_g0's own payload
    checks."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", path) from None
    spec = specfile.parse_spec(specfile.load_document(text))
    symbol = specfile.build_symbol(spec)
    g0 = specfile.build_g0(spec, symbol)
    return spec, symbol, g0


def cmd_check(args) -> int:
    spec, symbol, g0 = _load_validated(args.file)
    dims = symbol.dims_by_degree()
    dim_text = ", ".join(f"dim g^{d} = {dims[d]}" for d in sorted(dims))
    print(f"{spec.name}: ok ({dim_text}; dim g0 = {g0.dim})")
    return EXIT_OK


def cmd_prolong(args) -> int:
    if args.out and not Path(args.out).parent.is_dir():
        raise FileNotFoundError(f"{args.out}: output directory does not exist")
    if args.out and Path(args.out).is_dir():
        raise IsADirectoryError(f"{args.out}: output path is a directory")
    spec, symbol, g0 = _load_validated(args.file)
    max_degree = args.max_degree if args.max_degree is not None else spec.max_degree
    result = prolongation.universal_prolongation(symbol, g0, max_degree=max_degree)
    diag = diagnostics.fingerprint(result.algebra) if result.terminated else None
    document = _report_document(spec.name, g0, result, diag)
    with _output(args.out) as stream:
        if args.format == "structured":
            specfile.dump_document(document, stream)
        else:
            stream.write(_report_table(document))
    return EXIT_OK


def cmd_free(args) -> int:
    document = specfile.free_spec_document(args.r, args.mu)
    with _output(args.out) as stream:
        specfile.dump_document(document, stream)
    return EXIT_OK


def _output(out):
    """stdout, or the file `out`."""
    return open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout)


def _report_document(name, g0, result, diag) -> dict:
    algebra = result.algebra
    degrees = sorted(result.dims)
    return {
        "schema_version": specfile.SCHEMA_VERSION,
        "name": name,
        "validity": {
            "grading_ok": True,
            "jacobi_ok": True,
            "nilpotent_negative_ok": True,
            "fundamental": True,
            "g0_dimension": g0.dim,
        },
        "degrees": degrees,
        "dimensions": [result.dims[d] for d in degrees],
        "terminated": result.terminated,
        "vanishing_degree": result.vanishing_degree,
        "max_degree": result.max_degree,
        "total_dimension": result.total_dimension,
        "basis": [{"name": e.name, "degree": e.degree} for e in algebra.basis],
        "structure_constants": algebra,  # written as its bracket entries
        "normalization": [rep._asdict() for rep in result.normalization],  # fields in order
        "diagnostics": diag,
    }


def _report_table(doc: dict) -> str:
    lines = [f"name: {doc['name']}"]
    dims = "  ".join(f"{d}:{v}" for d, v in zip(doc["degrees"], doc["dimensions"]))
    lines.append(f"graded dimensions: {dims}")
    if doc["terminated"]:
        lines.append(f"terminated: yes (degree {doc['vanishing_degree']} vanishes)")
        lines.append(f"total dimension: {doc['total_dimension']}")
    else:
        lines.append(f"terminated: no (truncated at max degree {doc['max_degree']})")
    lines.append("normalization (k, dim target, dim image, dim kernel, dim complement):")
    for rep in doc["normalization"]:
        lines.append(
            f"  {rep['k']}  {rep['dim_target']}  {rep['dim_image']}"
            f"  {rep['dim_kernel']}  {rep['dim_complement']}"
        )
    diag = doc["diagnostics"]
    if diag is not None:
        sig = tuple(diag["killing_signature"])
        lines.append(
            f"diagnostics: killing rank {diag['killing_rank']}, signature {sig}, "
            f"semisimple {diag['semisimple']}, center dim {diag['center_dimension']}, "
            f"graded pairing {diag['graded_pairing_ok']}"
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
