"""Span recorder for the traced benchmark run.

The recorder wraps the public functions listed in TRACED by rebinding module
attributes of the loaded ``gradedlie`` package, including every name another
module imported with ``from ... import``, so nothing in the package changes
and the wrappers are removed again when the context exits.

Each call becomes a span (name, start, end, parent span, report id).  The
time the recorder spends on its own bookkeeping (matrix digests, coefficient
sizes, echelon checks), and any time the caller reports as excluded, is kept
off the span clock, so parents are not charged for it.  Self time is a
span's duration minus the durations of its children; calls are sequential,
so children never overlap.  The metrics scale each report's spans by that
report's factor to reference seconds (see speed.py); the spans written out
keep wall-clock times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

TRACED = {
    "specfile": ("parse_spec", "build_symbol", "build_g0", "dump_document"),
    "freenil": ("free_nilpotent",),
    "symbols": ("degree_zero_derivations", "orthogonal_derivations",
                "line_preserving_derivations"),
    "algebra": ("check_validity", "check_fundamental"),
    "prolongation": ("universal_prolongation", "prolong_step",
                     "spencer_kernel_from_system", "check_transitivity"),
    "normalization": ("build_spencer", "normalization_report"),
    "linalg": ("rref", "nullspace", "rank", "solve", "express_in_basis",
               "column_complement", "vectors_rank"),
    "diagnostics": ("fingerprint", "killing_form", "center"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


class Span:
    __slots__ = ("id", "name", "parent", "report", "start", "end")

    def __init__(self, span_id, name, parent, report):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.report = report
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _coeff_bits(rows) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in rows for x in row if x),
        default=0,
    )


def _is_rref(vectors) -> bool:
    """True when the nonempty basis is already in reduced row echelon form."""
    pivots = []
    for vector in vectors:
        lead = next((c for c, x in enumerate(vector) if x), None)
        if lead is None or vector[lead] != 1 or (pivots and lead <= pivots[-1]):
            return False
        pivots.append(lead)
    if not pivots:
        return False
    return not any(
        vector[c] for r, vector in enumerate(vectors) for j, c in enumerate(pivots) if j != r
    )


class Recorder:
    """Spans and per-matrix records of one traced run, kept in memory."""

    def __init__(self, excluded=lambda: 0.0):
        """excluded() returns the cumulative seconds to keep off the span clock."""
        self.spans: list[Span] = []
        self.matrices: list[dict] = []      # one record per linalg.rref call
        self.express_rref: list[bool] = []  # per express_in_basis call: basis already in RREF
        self.spencer: list[tuple[int, int, int]] = []  # (rows, cols, nnz) per build_spencer
        self.report = None
        self.factors: dict[int, float] = {}  # report id -> factor to reference seconds
        self._excluded = excluded
        self._stack: list[Span] = []
        self._bookkeeping = 0.0
        self._before = {"linalg.express_in_basis": self._note_express}
        self._after = {"linalg.rref": self._note_rref, "normalization.build_spencer": self._note_spencer}

    def clock(self) -> float:
        return time.perf_counter() - self._bookkeeping - self._excluded()

    def _bookkeep(self, hook, span, args, result) -> None:
        start = time.perf_counter()
        hook(span, args, result)
        self._bookkeeping += time.perf_counter() - start

    def _note_rref(self, span, args, result) -> None:
        matrix = args[0]
        pivots, rows = result
        self.matrices.append({
            "report": self.report,
            "layer": span.parent.name if span.parent else None,
            "rows": matrix.rows,
            "cols": matrix.cols,
            "nnz": matrix.nnz,
            "rank": len(pivots),
            "seconds": span.seconds,
            "max_coeff_bits": _coeff_bits(rows),
            "key": hash((matrix.rows, matrix.cols, tuple(matrix.items()))),
        })

    def _note_express(self, span, args, result) -> None:
        self.express_rref.append(_is_rref(args[0]))

    def _note_spencer(self, span, args, result) -> None:
        matrix = result.matrix
        self.spencer.append((matrix.rows, matrix.cols, matrix.nnz))

    def _wrap(self, name, fn):
        before = self._before.get(name)
        after = self._after.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(self.spans), name, stack[-1] if stack else None, self.report)
            if before:
                self._bookkeep(before, span, args, None)
            self.spans.append(span)
            stack.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
            if after:
                self._bookkeep(after, span, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in the loaded gradedlie modules."""
        modules = [m for n, m in sys.modules.items() if n == "gradedlie" or n.startswith("gradedlie.")]
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules[f"gradedlie.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        """Write spans and matrix records as JSON lines."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "span": span.id, "name": span.name,
                    "parent": span.parent.id if span.parent else None,
                    "report": span.report, "start": span.start, "end": span.end,
                }) + "\n")
            for record in self.matrices:
                handle.write(json.dumps({"matrix": "linalg.rref", **record}) + "\n")

    def metrics(self, sweeps: int) -> dict:
        """Per-layer metrics; counts and times are per sweep of the workload."""
        seconds = {span.id: span.seconds * self.factors.get(span.report, 1.0) for span in self.spans}
        child_seconds = {}
        for span in self.spans:
            if span.parent is not None:
                child_seconds[span.parent.id] = child_seconds.get(span.parent.id, 0.0) + seconds[span.id]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        table_express = g0_express = 0.0
        for span in self.spans:
            name = span.name
            calls[name] += 1
            self_s[name] += seconds[span.id] - child_seconds.get(span.id, 0.0)
            ancestors = []
            parent = span.parent
            while parent is not None:
                ancestors.append(parent.name)
                parent = parent.parent
            if name not in ancestors:  # inclusive time counts the outermost call only
                total_s[name] += seconds[span.id]
            if name == "linalg.express_in_basis":
                if ancestors and ancestors[0] == "prolongation.universal_prolongation":
                    table_express += seconds[span.id]
                if any(a.startswith("symbols.") for a in ancestors):
                    g0_express += seconds[span.id]

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name] / sweeps, "count")
            out[f"{name}.self_s"] = (self_s[name] / sweeps, "s")
            out[f"{name}.total_s"] = (total_s[name] / sweeps, "s")

        mats = self.matrices
        for field in ("rows", "cols", "nnz", "rank"):
            out[f"linalg.rref.{field}"] = (sum(m[field] for m in mats) / sweeps, "count")
        out["linalg.rref.max_cols"] = (max((m["cols"] for m in mats), default=0), "count")
        area = sum(m["rows"] * m["cols"] for m in mats)
        out["linalg.rref.fill"] = (sum(m["nnz"] for m in mats) / area if area else 0.0, "ratio")
        out["linalg.rref.max_coeff_bits"] = (max((m["max_coeff_bits"] for m in mats), default=0), "bits")
        distinct = len({(m["report"], m["key"]) for m in mats})
        out["linalg.rref.repeat_ratio"] = (len(mats) / distinct if distinct else 0.0, "ratio")
        express = self.express_rref
        out["linalg.express_in_basis.rref_input_ratio"] = (
            sum(express) / len(express) if express else 0.0, "ratio")
        out["prolongation.table.express_s"] = (table_express / sweeps, "s")
        out["symbols.g0.express_s"] = (g0_express / sweeps, "s")
        for i, field in enumerate(("rows", "cols", "nnz")):
            out[f"normalization.spencer.{field}"] = (sum(s[i] for s in self.spencer) / sweeps, "count")
        fingerprints = calls["diagnostics.fingerprint"]
        out["diagnostics.killing_form.per_fingerprint"] = (
            calls["diagnostics.killing_form"] / fingerprints if fingerprints else 0.0, "ratio")
        return out
