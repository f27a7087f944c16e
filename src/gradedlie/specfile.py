"""Algebra specification documents (schema_version 1).

A specification is a JSON document:

    {
      "schema_version": 1,
      "name": "ode2-point",
      "algebra": {
        "basis": [{"name": "X1", "degree": -1}, ...],
        "brackets": [{"left": "X1", "right": "X2", "terms": [["X3", 1]]}]
      },
      "g0": {"mode": "lines", "lines": [[1, 0], [0, 1]]},
      "options": {"max_degree": 10}
    }

"algebra" may instead be {"preset": "heisenberg:1"}; presets are
heisenberg:n, free:r:mu and abelian:n.  g0 modes and payloads:

    full        no payload; all grading-preserving derivations
    orthogonal  "q": symmetric positive-definite matrix on the degree -1 basis
    lines       "lines": two independent degree -1 vectors
    span        "maps": square matrices, either over the full basis in input
                order (block-diagonal in the grading) or over the degree -1
                basis alone, in which case the action is extended through
                the relations; entry [r][c] is the coefficient of basis
                element r in the image of basis element c

Every rational is an integer or a "p/q" string; floats are rejected, so a
document round-trips with no precision loss.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import symbols
from .algebra import BasisElement, DegreeZeroAlgebra, GradedLieAlgebra
from .freenil import free_nilpotent
from .linalg import Rational, _frac
from .prolongation import DEFAULT_MAX_DEGREE

SCHEMA_VERSION = 1

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?", re.ASCII)
_SHORT = 10**600  # under the lowest digit limit Python can be set to (640)


class SpecError(ValueError):
    """A located problem with a specification document."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _too_long() -> str:
    """Built when raised, so it names the digit limit in force then."""
    return f"a number has more than {sys.get_int_max_str_digits()} digits"


def parse_rational(value, where: str) -> Rational:
    if type(value) is int:
        return value
    if isinstance(value, str):
        if not _RATIONAL_RE.fullmatch(value):
            raise SpecError(f"not a rational (use integers or 'p/q' strings): {value!r}", where)
        try:
            return _frac(Fraction(value))
        except ValueError:  # Python's limit on the digits of an int string
            raise SpecError(_too_long(), where) from None
    if isinstance(value, float):
        raise SpecError("floats are not allowed; use integers or 'p/q' strings", where)
    raise SpecError(f"not a rational: {value!r}", where)


def format_rational(value: Rational) -> str:
    """str(value), "p" or "p/q", exact for any number of digits."""
    try:
        return str(value)
    except ValueError:  # over Python's limit on the digits of an int string
        text = _digits(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_digits(value.denominator)}"


def _digits(n: int) -> str:
    """str(n) for an int of any length: split at a power of ten, about half
    its digits, until each part is short enough for Python's limit."""
    if -_SHORT < n < _SHORT:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    half = n.bit_length() * 3 // 20  # log10(2) is about 3/10
    high, low = divmod(n, 10**half)
    return _digits(high) + _digits(low).zfill(half)


def _expect(doc, key, kind, where, optional=False, default=None):
    if key not in doc:
        if optional:
            return default
        raise SpecError(f"missing required field {key!r}", where)
    value = doc[key]
    # JSON true/false arrive as bool, which Python counts as an int
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SpecError(f"field {key!r} has the wrong type", where)
    return value


class AlgebraSpec(NamedTuple):
    name: str
    preset: str | None
    basis: list[tuple[str, int]] | None
    brackets: list[tuple[str, str, list[tuple[str, Rational]]]] | None
    g0_mode: str
    g0_payload: dict
    max_degree: int = DEFAULT_MAX_DEGREE


def load_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}") from exc
    except ValueError:  # an integer beyond Python's limit on the digits of an int string
        raise SpecError(f"invalid JSON: {_too_long()}") from None
    except RecursionError:
        raise SpecError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise SpecError("the document must be a JSON object")
    return doc


def parse_spec(doc: dict) -> AlgebraSpec:
    version = _expect(doc, "schema_version", int, "document")
    if version != SCHEMA_VERSION:
        raise SpecError(f"unsupported schema_version {version}", "document")
    name = _expect(doc, "name", str, "document")
    algebra = _expect(doc, "algebra", dict, "document")

    preset = None
    basis = None
    brackets = None
    if "preset" in algebra:
        preset = _expect(algebra, "preset", str, "algebra")
    else:
        raw_basis = _expect(algebra, "basis", list, "algebra")
        if not raw_basis:
            raise SpecError("the basis must not be empty", "algebra.basis")
        basis = []
        for i, entry in enumerate(raw_basis):
            where = f"algebra.basis[{i}]"
            if not isinstance(entry, dict):
                raise SpecError("basis entries must be objects", where)
            bname = _expect(entry, "name", str, where)
            degree = _expect(entry, "degree", int, where)
            if degree >= 0:
                raise SpecError("symbol degrees must be negative", where)
            basis.append((bname, degree))
        raw_brackets = _expect(algebra, "brackets", list, "algebra", optional=True, default=[])
        brackets = []
        for i, entry in enumerate(raw_brackets):
            where = f"algebra.brackets[{i}]"
            if not isinstance(entry, dict):
                raise SpecError("bracket entries must be objects", where)
            left = _expect(entry, "left", str, where)
            right = _expect(entry, "right", str, where)
            raw_terms = _expect(entry, "terms", list, where)
            terms = []
            for j, term in enumerate(raw_terms):
                term_where = f"{where}.terms[{j}]"
                if not isinstance(term, list) or len(term) != 2 or not isinstance(term[0], str):
                    raise SpecError("terms must be [basis-name, rational] pairs", term_where)
                terms.append((term[0], parse_rational(term[1], term_where)))
            brackets.append((left, right, terms))

    g0 = _expect(doc, "g0", dict, "document")
    mode = _expect(g0, "mode", str, "g0")
    if mode not in ("full", "orthogonal", "lines", "span"):
        raise SpecError(f"unknown g0 mode {mode!r}", "g0")
    payload: dict = {}
    if mode == "orthogonal":
        raw = _expect(g0, "q", list, "g0")
        payload["q"] = _parse_matrix(raw, "g0.q")
    elif mode == "lines":
        raw = _expect(g0, "lines", list, "g0")
        if len(raw) != 2:
            raise SpecError("exactly two line vectors required", "g0.lines")
        payload["lines"] = _parse_matrix(raw, "g0.lines")
    elif mode == "span":
        raw = _expect(g0, "maps", list, "g0")
        payload["maps"] = [_parse_matrix(mat, f"g0.maps[{i}]") for i, mat in enumerate(raw)]

    options = _expect(doc, "options", dict, "document", optional=True, default={})
    max_degree = _expect(options, "max_degree", int, "options", optional=True, default=DEFAULT_MAX_DEGREE)
    if max_degree < 1:
        raise SpecError("max_degree must be at least 1", "options")
    return AlgebraSpec(name, preset, basis, brackets, mode, payload, max_degree)


def _parse_matrix(raw, where):
    if not isinstance(raw, list) or not raw:
        raise SpecError("expected a non-empty matrix (list of rows)", where)
    out = []
    for r, row in enumerate(raw):
        if not isinstance(row, list):
            raise SpecError("matrix rows must be lists", f"{where}[{r}]")
        out.append([parse_rational(v, f"{where}[{r}][{c}]") for c, v in enumerate(row)])
    return out


_PRESET_RE = re.compile(r"(heisenberg|abelian|free):(\d+)(?::(\d+))?", re.ASCII)


def build_symbol(spec: AlgebraSpec) -> GradedLieAlgebra:
    if spec.preset is not None:
        match = _PRESET_RE.fullmatch(spec.preset)
        if not match:
            raise SpecError(f"unknown preset {spec.preset!r}", "algebra.preset")
        kind, first, second = match.group(1), int(match.group(2)), match.group(3)
        if kind == "free":
            if second is None:
                raise SpecError("free preset needs two parameters, free:r:mu", "algebra.preset")
            if first < 1 or int(second) < 1:
                raise SpecError("free preset needs r >= 1 and mu >= 1", "algebra.preset")
            return free_nilpotent(first, int(second))
        if second is not None:
            raise SpecError(f"{kind} preset takes a single parameter", "algebra.preset")
        if first < 1:
            raise SpecError(f"{kind} preset needs n >= 1", "algebra.preset")
        return symbols.heisenberg(first) if kind == "heisenberg" else symbols.abelian(first)

    elements = [BasisElement(name, degree) for name, degree in spec.basis]
    index = {}
    for i, (name, _) in enumerate(spec.basis):
        if name in index:
            raise SpecError(f"duplicate basis name {name!r}", "algebra.basis")
        index[name] = i
    table: dict[tuple[int, int], dict[int, Rational]] = {}
    for entry_no, (left, right, terms) in enumerate(spec.brackets):
        where = f"algebra.brackets[{entry_no}]"
        for name in (left, right):
            if name not in index:
                raise SpecError(f"unknown basis name {name!r}", where)
        a, b = index[left], index[right]
        if a == b:
            raise SpecError("left and right must differ", where)
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        if (a, b) in table:
            raise SpecError(f"bracket for pair ({left}, {right}) given twice", where)
        resolved: dict[int, Rational] = {}
        for name, coeff in terms:
            if name not in index:
                raise SpecError(f"unknown basis name {name!r}", where)
            resolved[index[name]] = resolved.get(index[name], 0) + sign * coeff
        table[(a, b)] = resolved
    return GradedLieAlgebra(elements, table)


def build_g0(spec: AlgebraSpec, symbol: GradedLieAlgebra) -> DegreeZeroAlgebra:
    """Construct the degree-zero subalgebra; mathematical failures (non
    positive-definite form, dependent lines, non-derivations, non-closure)
    raise plain ValueError and count as validation errors."""
    mode = spec.g0_mode
    if mode == "full":
        return symbols.degree_zero_derivations(symbol)
    if mode == "orthogonal":
        q = spec.g0_payload["q"]
        if len(q) != symbol.dim_of_degree(-1) or any(len(row) != len(q) for row in q):
            raise SpecError("q must be square of the degree -1 dimension", "g0.q")
        return symbols.orthogonal_derivations(symbol, symbols.EuclideanForm(q))
    if mode == "lines":
        lines = spec.g0_payload["lines"]
        if any(len(line) != symbol.dim_of_degree(-1) for line in lines):
            raise SpecError("line vectors must match the degree -1 dimension", "g0.lines")
        return symbols.line_preserving_derivations(symbol, symbols.LinePair(*lines))
    return symbols.custom_g0(symbol, spec.g0_payload["maps"])


def free_spec_document(r: int, mu: int) -> dict:
    """The specification document of the free nilpotent symbol, with full g0."""
    symbol = free_nilpotent(r, mu)
    return {
        "schema_version": SCHEMA_VERSION,
        "name": f"free-{r}-{mu}",
        "algebra": {
            "basis": [{"name": e.name, "degree": e.degree} for e in symbol.basis],
            "brackets": symbol,  # written as its bracket entries
        },
        "g0": {"mode": "full"},
        "options": {"max_degree": DEFAULT_MAX_DEGREE},
    }


_encode = json.encoder.encode_basestring_ascii


class _Quoted(dict):
    """value -> the JSON string of format_rational(value), each made once."""

    def __missing__(self, value):
        text = self[value] = _encode(format_rational(value))
        return text


def dump_document(doc, stream) -> None:
    """Write exactly ``json.dumps(doc', indent=2) + "\\n"`` to the text stream,
    where doc' is doc with each GradedLieAlgebra replaced by its bracket
    entries, {"left": name, "right": name, "terms": [[name, "p/q"], ...]} for
    each table pair a < b in order, terms by basis index.

    The text is streamed: fragments are joined and written in batches at
    list-item boundaries, so a report is never held whole in memory.  The
    bracket entries are written by walking the algebra's rows in order, each
    row's keys sorted; an entry is one join of a prefix made once per row
    (its left name), a prefix made once per basis element (its right name)
    and the terms, sorted unless there is only one, each name encoded and
    each distinct coefficient formatted once.  A list or tuple of plain ints
    is joined a slice at a time.  Other values are str, int, bool, None,
    dicts with str keys, lists and tuples; any other iterable, a generator
    say, is written as the list of its items.  Anything else, a float
    included, raises TypeError rather than giving other bytes than
    ``json.dumps``.
    """
    parts: list[str] = []
    append = parts.append

    def flush() -> None:
        stream.write("".join(parts))
        parts.clear()

    def write_rows(algebra: GradedLieAlgebra, indent: str) -> None:
        # the indents of an entry, of its fields, of its terms and of their items
        at, field, term, item = indent + "  ", indent + "    ", indent + "      ", indent + "        "
        names = [_encode(e.name) for e in algebra.basis]
        # an entry is sep + left + rights[b] + its terms + tail
        rights = [f'{name},{field}"terms": [{term}[{item}' for name in names]
        tail = f"{term}]{field}]{at}}}"
        between = f"{term}],{term}[{item}"
        named = [name + "," + item for name in names]
        quoted = _Quoted()
        sep, comma = "[" + at, "," + at
        for a, row in enumerate(algebra.rows):
            if not row:
                continue
            left = f'{{{field}"left": {names[a]},{field}"right": '
            for b in sorted(row):
                if len(parts) > 1024:  # entries held before a write, 100-200 bytes each
                    flush()
                terms = row[b]
                if len(terms) == 1:
                    (c, v), = terms.items()
                    text = named[c] + quoted[v]
                else:
                    text = between.join([named[c] + quoted[v] for c, v in sorted(terms.items())])
                append(f"{sep}{left}{rights[b]}{text}{tail}")
                sep = comma
        append("[]" if sep is not comma else indent + "]")

    def write(o, indent: str) -> None:
        if isinstance(o, str):
            append(_encode(o))
        elif o is None or o is True or o is False:
            append("null" if o is None else "true" if o else "false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, dict):
            inner = indent + "  "
            sep, comma = "{" + inner, "," + inner
            for key, value in o.items():
                append(sep)
                append(_encode(key))  # TypeError unless key is a str
                append(": ")
                write(value, inner)
                sep = comma
            append("{}" if sep is not comma else indent + "}")
        elif isinstance(o, GradedLieAlgebra):
            write_rows(o, indent)
        elif type(o) in (list, tuple) and o and all(type(i) is int for i in o):
            inner = indent + "  "
            joint = "," + inner
            append("[" + inner)
            for start in range(0, len(o), 4096):  # a write per slice past the first
                if start:
                    append(joint)
                    flush()
                append(joint.join(map(int.__repr__, o[start:start + 4096])))
            append(indent + "]")
        else:  # a value that is not iterable raises TypeError here
            inner = indent + "  "
            sep, comma = "[" + inner, "," + inner
            for item in o:
                if len(parts) > 8192:  # fragments held before a write
                    flush()
                append(sep)
                write(item, inner)
                sep = comma
            append("[]" if sep is not comma else indent + "]")

    write(doc, "\n")
    stream.write("".join(parts) + "\n")
