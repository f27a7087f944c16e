"""Standard symbols and the four ways of building a degree-zero subalgebra:
all grading-preserving derivations, derivations skew-adjoint for a Euclidean
form, derivations preserving a pair of transversal lines, and explicit spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import diagnostics, linalg, prolongation
from .algebra import (
    BasisElement,
    DegreeZeroAlgebra,
    GradedLieAlgebra,
    GradedLinearMap,
    check_fundamental,
    layout_offsets,
    map_layout,
)
from .linalg import RatMatrix


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
    brackets = {(i, n + i): {2 * n: Fraction(1)} for i in range(n)}
    return GradedLieAlgebra(basis, brackets)


@dataclass(frozen=True)
class EuclideanForm:
    """Symmetric positive-definite form on the degree -1 component."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows):
        entries = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("the form must be a square matrix")
        for p in range(n):
            for q in range(p + 1, n):
                if entries[p][q] != entries[q][p]:
                    raise ValueError("the form must be symmetric")
        if diagnostics.symmetric_signature(entries) != (n, 0):
            raise ValueError("the form must be positive definite")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LinePair:
    """Two transversal lines in the degree -1 component, given by spanning vectors."""

    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]

    def __init__(self, first, second):
        first = tuple(Fraction(v) for v in first)
        second = tuple(Fraction(v) for v in second)
        if len(first) != len(second):
            raise ValueError("line vectors must have equal length")
        if linalg.vectors_rank([list(first), list(second)]) != 2:
            raise ValueError("line vectors must be linearly independent")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


def _require_fundamental_symbol(symbol: GradedLieAlgebra) -> None:
    if not check_fundamental(symbol):
        raise ValueError("the symbol must be fundamental")


def _with_extra_rows(matrix: RatMatrix, extra_rows) -> RatMatrix:
    extra_rows = [list(row) for row in extra_rows]
    out = RatMatrix(matrix.rows + len(extra_rows), matrix.cols)
    for key, value in matrix.items():
        out.set(*key, value)
    for k, row in enumerate(extra_rows):
        for c, value in enumerate(row):
            out.set(matrix.rows + k, c, value)
    return out


def degree_zero_derivations(symbol: GradedLieAlgebra) -> DegreeZeroAlgebra:
    """All grading-preserving derivations of the symbol."""
    _require_fundamental_symbol(symbol)
    maps = prolongation.leibniz_maps(symbol, [], 0)
    return DegreeZeroAlgebra(symbol, maps)


def orthogonal_derivations(symbol: GradedLieAlgebra, form: EuclideanForm) -> DegreeZeroAlgebra:
    """Derivations whose degree -1 block is skew-adjoint for the given form.

    The Leibniz constraint matrix is extended by the rows of
    Q A + A^T Q = 0 on the degree -1 block (upper triangle suffices since
    the expression is symmetric).
    """
    _require_fundamental_symbol(symbol)
    n1 = symbol.dim_of_degree(-1)
    if form.dim != n1:
        raise ValueError("the form does not match the degree -1 dimension")
    layout, matrix = prolongation.leibniz_system(symbol, [], 0)
    offsets, ncols = layout_offsets(layout)
    off = offsets[-1]
    q = form.entries
    extra = []
    for p in range(n1):
        for r in range(p, n1):
            row = [Fraction(0)] * ncols
            # unknown column a, target coordinate s encodes A[s][a]
            for s in range(n1):
                row[off + r * n1 + s] += q[p][s]
                row[off + p * n1 + s] += q[s][r]
            extra.append(row)
    full = _with_extra_rows(matrix, extra)
    maps = prolongation._normalize_map_basis(linalg.nullspace(full), 0, layout)
    return DegreeZeroAlgebra(symbol, maps)


def line_preserving_derivations(symbol: GradedLieAlgebra, lines: LinePair) -> DegreeZeroAlgebra:
    """Derivations preserving each of two transversal lines in g^-1.

    Only symbols with graded dimensions (2, 1) are accepted; a line
    span{v} is preserved exactly when (D v) wedge v = 0, one linear
    condition per line in this dimension.
    """
    _require_fundamental_symbol(symbol)
    dims = symbol.dims_by_degree()
    if dims != {-1: 2, -2: 1}:
        raise ValueError("line-preserving mode needs a symbol with graded dimensions (2, 1)")
    if len(lines.first) != 2:
        raise ValueError("line vectors must live in the 2-dimensional degree -1 component")
    layout, matrix = prolongation.leibniz_system(symbol, [], 0)
    offsets, ncols = layout_offsets(layout)
    off = offsets[-1]
    extra = []
    for v in (lines.first, lines.second):
        row = [Fraction(0)] * ncols
        for a in range(2):
            if v[a]:
                # (D v)_0 v_1 - (D v)_1 v_0 = 0
                row[off + a * 2 + 0] += v[a] * v[1]
                row[off + a * 2 + 1] -= v[a] * v[0]
        extra.append(row)
    full = _with_extra_rows(matrix, extra)
    maps = prolongation._normalize_map_basis(linalg.nullspace(full), 0, layout)
    return DegreeZeroAlgebra(symbol, maps)


def extend_top_block(symbol: GradedLieAlgebra, block_rows) -> GradedLinearMap:
    """Extend a degree -1 block to a grading-preserving derivation.

    The deeper blocks are forced degree by degree through the Leibniz rule
    applied to brackets with the degree -1 part; a fundamental symbol admits
    at most one extension, and none at all when the block is incompatible
    with the relations, which raises ValueError.
    """
    n1 = symbol.dim_of_degree(-1)
    rows = [list(map(Fraction, row)) for row in block_rows]
    if len(rows) != n1 or any(len(row) != n1 for row in rows):
        raise ValueError("the block must be square of the degree -1 dimension")
    blocks = {-1: [[rows[s][a] for s in range(n1)] for a in range(n1)]}
    top = symbol.indices_of_degree(-1)
    for degree in range(-2, -symbol.depth - 1, -1):
        dim = symbol.dim_of_degree(degree)
        if dim == 0:
            blocks[degree] = []
            continue
        partial = GradedLinearMap(0, blocks)
        equations = []
        rhs = []
        for a in top:
            ea = symbol.unit_vector(a)
            fa = symbol.scatter(-1, partial.image_of_basis(-1, symbol.position_in_degree(a)))
            for b in symbol.indices_of_degree(degree + 1):
                w = symbol.bracket(ea, symbol.unit_vector(b))
                if not any(w):
                    continue
                fb = symbol.scatter(
                    degree + 1,
                    partial.image_of_basis(degree + 1, symbol.position_in_degree(b)),
                )
                value = [
                    x + y
                    for x, y in zip(symbol.bracket(fa, symbol.unit_vector(b)), symbol.bracket(ea, fb))
                ]
                w_coords = symbol.component(w, degree)
                value_coords = symbol.component(value, degree)
                # rows of B . w = value over the unknown entries B[t][s]
                for t in range(dim):
                    row = [Fraction(0)] * (dim * dim)
                    for s in range(dim):
                        row[t * dim + s] = w_coords[s]
                    equations.append(row)
                    rhs.append(value_coords[t])
        solution = linalg.solve(RatMatrix.from_rows(equations, dim * dim), rhs)
        if solution is None:
            raise ValueError(
                f"the degree -1 block does not extend to a derivation at degree {degree}"
            )
        blocks[degree] = [
            [solution[t * dim + s] for t in range(dim)] for s in range(dim)
        ]
    return GradedLinearMap(0, blocks)


def custom_g0(symbol: GradedLieAlgebra, maps) -> DegreeZeroAlgebra:
    """A user-given span of degree-zero derivations.

    Accepts GradedLinearMap instances, full square matrices over the whole
    symbol basis (must be block-diagonal in the grading), or square degree -1
    blocks which are extended through the relations.  Dependent entries are
    dropped (first independent subset wins) so the returned basis stays in
    the user's coordinates; derivation and closure failures raise ValueError
    naming the witness.
    """
    n = symbol.dim
    n1 = symbol.dim_of_degree(-1)
    converted = []
    for idx, item in enumerate(maps):
        if isinstance(item, GradedLinearMap):
            converted.append(item)
            continue
        rows = [list(map(Fraction, row)) for row in item]
        if len(rows) == n and all(len(row) == n for row in rows):
            blocks = {}
            for degree in symbol.degrees:
                members = symbol.indices_of_degree(degree)
                cols = []
                for b in members:
                    cols.append([rows[c][b] for c in members])
                blocks[degree] = cols
            for c in range(n):
                for b in range(n):
                    if rows[c][b] and symbol.degree_of(c) != symbol.degree_of(b):
                        raise ValueError(
                            f"map {idx + 1} is not grading-preserving: entry ({c}, {b}) "
                            "links different degrees"
                        )
            converted.append(GradedLinearMap(0, blocks))
        elif len(rows) == n1 and all(len(row) == n1 for row in rows):
            converted.append(extend_top_block(symbol, rows))
        else:
            raise ValueError(
                f"map {idx + 1} must be square over the full basis or over the degree -1 basis"
            )
    layout = map_layout(symbol.dims_by_degree(), 0)
    matrix = RatMatrix.from_rows([f.flatten(layout) for f in converted], layout_offsets(layout)[1])
    # rows are reduced in order, so the kept rows are the first independent subset
    return DegreeZeroAlgebra(symbol, [converted[i] for i in linalg.rref(matrix).kept])
