"""Standard symbols and the four ways of building a degree-zero subalgebra:
all grading-preserving derivations, derivations skew-adjoint for a Euclidean
form, derivations preserving a pair of transversal lines, and explicit spans.
Each builder first requires a valid, fundamental symbol
(algebra.require_valid_symbol, which remembers a symbol it passed, so the
prolongation of that same symbol does not run the checks again).  Every
builder eliminates the degree-0 Leibniz system once, through one helper:
the full, skew-adjoint and line modes take its kernel, the last two with
rows on the degree -1 block appended, and span mode, where a degree-zero
derivation is fixed by its degree -1 block, reads each given block's
extension off that kernel.
"""

from __future__ import annotations

from collections import defaultdict

from . import diagnostics, linalg, prolongation
from .algebra import (
    BasisElement,
    DegreeZeroAlgebra,
    GradedLieAlgebra,
    GradedLinearMap,
    layout_offsets,
    map_layout,
    maps_from_rows,
    require_valid_symbol,
)
from .linalg import RatMatrix, Rational, _frac


def abelian(n: int) -> GradedLieAlgebra:
    """The abelian symbol: g^-1 of dimension n, no brackets."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return GradedLieAlgebra([BasisElement(f"X{i + 1}", -1) for i in range(n)], {})


def heisenberg(n: int) -> GradedLieAlgebra:
    """Heisenberg symbol of dimension 2n + 1: [p_i, q_i] = Z, grading (2n, 1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    basis = (
        [BasisElement(f"p{i + 1}", -1) for i in range(n)]
        + [BasisElement(f"q{i + 1}", -1) for i in range(n)]
        + [BasisElement("Z", -2)]
    )
    brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
    return GradedLieAlgebra(basis, brackets)


class EuclideanForm:
    """Symmetric positive-definite form on the degree -1 component."""

    entries: tuple[tuple[Rational, ...], ...]

    def __init__(self, rows):
        entries = tuple(tuple(map(_frac, row)) for row in rows)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("the form must be a square matrix")
        for p in range(n):
            for q in range(p + 1, n):
                if entries[p][q] != entries[q][p]:
                    raise ValueError("the form must be symmetric")
        if diagnostics.symmetric_signature(entries) != (n, 0):
            raise ValueError("the form must be positive definite")
        self.entries = entries

    @property
    def dim(self) -> int:
        return len(self.entries)


class LinePair:
    """Two transversal lines in the degree -1 component, given by spanning vectors."""

    first: tuple[Rational, ...]
    second: tuple[Rational, ...]

    def __init__(self, first, second):
        first, second = tuple(map(_frac, first)), tuple(map(_frac, second))
        if len(first) != len(second):
            raise ValueError("line vectors must have equal length")
        if linalg.vectors_rank([list(first), list(second)]) != 2:
            raise ValueError("line vectors must be linearly independent")
        self.first, self.second = first, second


_KERNEL = "degree-0 derivations kernel at degree 0"


def _degree_zero_system(symbol: GradedLieAlgebra, top_rows=()):
    """The degree-0 Leibniz system with `top_rows`, sparse rows of nonzero
    canonical entries over the entries of the degree -1 block A (column
    a * n1 + s holds A[s][a]), appended at that block's offset, eliminated
    once: (layout, the offset, the Echelon)."""
    layout, matrix = prolongation.leibniz_system(symbol, [], 0)
    off = layout_offsets(layout)[0].get(-1, 0)
    rows = dict(matrix._rows)
    rows.update((matrix.rows + k, {off + c: x for c, x in row.items()}) for k, row in enumerate(top_rows))
    full = RatMatrix._of_rows(matrix.rows + len(top_rows), matrix.cols, rows)
    return layout, off, linalg.rref(full)


def _derivations_with_rows(symbol: GradedLieAlgebra, top_rows) -> DegreeZeroAlgebra:
    """The derivations whose degree -1 block also satisfies `top_rows`."""
    layout, _, echelon = _degree_zero_system(symbol, top_rows)
    return DegreeZeroAlgebra(symbol, prolongation._normalize_map_basis(echelon.kernel(_KERNEL), 0, layout))


def degree_zero_derivations(symbol: GradedLieAlgebra) -> DegreeZeroAlgebra:
    """All grading-preserving derivations of the symbol."""
    require_valid_symbol(symbol)
    return _derivations_with_rows(symbol, [])


def orthogonal_derivations(symbol: GradedLieAlgebra, form: EuclideanForm) -> DegreeZeroAlgebra:
    """Derivations whose degree -1 block is skew-adjoint for the given form.

    The Leibniz constraint matrix is extended by the rows of
    Q A + A^T Q = 0 on the degree -1 block (upper triangle suffices since
    the expression is symmetric).
    """
    require_valid_symbol(symbol)
    n1 = symbol.dim_of_degree(-1)
    if form.dim != n1:
        raise ValueError("the form does not match the degree -1 dimension")
    q = form.entries
    rows = []
    for p in range(n1):
        for r in range(p, n1):
            row = defaultdict(int)
            for s in range(n1):
                row[r * n1 + s] += q[p][s]
                row[p * n1 + s] += q[s][r]
            rows.append({c: _frac(x) for c, x in row.items() if x})
    return _derivations_with_rows(symbol, rows)


def line_preserving_derivations(symbol: GradedLieAlgebra, lines: LinePair) -> DegreeZeroAlgebra:
    """Derivations preserving each of two transversal lines in g^-1.

    Only symbols with graded dimensions (2, 1) are accepted; a line
    span{v} is preserved exactly when (D v) wedge v = 0, one linear
    condition per line in this dimension.
    """
    require_valid_symbol(symbol)
    dims = symbol.dims_by_degree()
    if dims != {-1: 2, -2: 1}:
        raise ValueError("line-preserving mode needs a symbol with graded dimensions (2, 1)")
    if len(lines.first) != 2:
        raise ValueError("line vectors must live in the 2-dimensional degree -1 component")
    rows = []
    for v in (lines.first, lines.second):
        row = defaultdict(int)
        for a in range(2):
            # (D v)_0 v_1 - (D v)_1 v_0 = 0
            row[a * 2] += v[a] * v[1]
            row[a * 2 + 1] -= v[a] * v[0]
        rows.append({c: _frac(x) for c, x in row.items() if x})
    return _derivations_with_rows(symbol, rows)


def custom_g0(symbol: GradedLieAlgebra, maps) -> DegreeZeroAlgebra:
    """A user-given span of degree-zero derivations.

    Accepts GradedLinearMap instances, full square matrices over the whole
    symbol basis (must be block-diagonal in the grading), or square degree -1
    blocks, each extended to the derivation it fixes.  The symbol must be
    valid and fundamental, so a derivation that vanishes on degree -1
    vanishes: the free column of each kernel vector of the degree-0 Leibniz
    system, its largest column, lies in the degree -1 block and holds a 1
    there.  A block A extends to the sum of A[f] times the kernel vector of
    free column f, and does exactly when that sum's degree -1 block is A.
    The maps are read once, in order, each block extended where it is read
    off the one elimination the first block makes, so a ValueError names
    the first map that is malformed or does not extend.  Then dependent
    entries are dropped (first independent subset wins), so the basis stays
    in the user's coordinates, and the commutator table is built; derivation
    and closure failures raise ValueError naming the witness.
    """
    require_valid_symbol(symbol)
    n = symbol.dim
    n1 = symbol.dim_of_degree(-1)
    shapes = {d: (symbol.dim_of_degree(d),) * 2 for d in symbol.degrees}
    layout = map_layout(symbol.dims_by_degree(), 0)
    converted, kernel = [], None
    for idx, item in enumerate(maps):
        if isinstance(item, GradedLinearMap):
            if item.degree != 0:
                raise ValueError(f"map {idx + 1} does not have degree 0")
            if item.shapes != shapes:
                raise ValueError(f"map {idx + 1} does not match the graded dimensions of the symbol")
            converted.append(item)
            continue
        rows = [list(map(_frac, row)) for row in item]
        if len(rows) == n and all(len(row) == n for row in rows):
            for c in range(n):
                for b in range(n):
                    if rows[c][b] and symbol.degree_of(c) != symbol.degree_of(b):
                        raise ValueError(
                            f"map {idx + 1} is not grading-preserving: entry ({c}, {b}) "
                            "links different degrees"
                        )
            # column b of a block: the entries rows[c][b] of its degree
            members = {d: symbol.indices_of_degree(d) for d in symbol.degrees}
            converted.append(GradedLinearMap(0, {d: [[rows[c][b] for c in ids] for b in ids]
                                                 for d, ids in members.items()}))
        elif len(rows) == n1 and all(len(row) == n1 for row in rows):
            if kernel is None:
                _, off, echelon = _degree_zero_system(symbol)  # column off + a * n1 + s holds A[s][a]
                kernel = {max(v): v for v in echelon.nullspace(_KERNEL)}
            top = {off + a * n1 + s: x for s, row in enumerate(rows) for a, x in enumerate(row) if x}
            flat = {}
            for f, x in top.items():
                if f in kernel:
                    linalg.axpy(flat, x, kernel[f])
            flat = {c: _frac(flat[c]) for c in sorted(flat)}  # each column's entries in target order
            if {c: x for c, x in flat.items() if c >= off} != top:
                raise ValueError(f"map {idx + 1}: the degree -1 block does not extend to a derivation")
            converted.append(maps_from_rows(0, layout, [flat])[0])
        else:
            raise ValueError(
                f"map {idx + 1} must be square over the full basis or over the degree -1 basis"
            )
    matrix = RatMatrix._of_rows(len(converted), layout_offsets(layout)[1],
                                [f.flat_entries(layout) for f in converted])
    # rows are reduced in order, so the kept rows are the first independent
    # subset; errors name each kept map by its place in `maps`
    kept = linalg.rref(matrix).kept
    return DegreeZeroAlgebra(symbol, [converted[i] for i in kept], [f"map {i + 1}" for i in kept])
