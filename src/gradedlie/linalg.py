"""Exact linear algebra over the rationals.

Every matrix here carries ``fractions.Fraction`` entries and every result is
exact; there is no tolerance anywhere in this module.  Elimination is one
sparse Gauss-Jordan reduction, ``rref``, that works on the nonzero entries
only.  Pivots are always the first nonzero entry in column order; the
reduced row echelon form is unique, which makes every returned basis
deterministic (bit-exact across runs).

``rref`` returns an ``Echelon``, the pair ``(pivots, rows)`` that also
records ``kept``: rows are reduced in input order, so a row is kept exactly
when it is not in the span of the rows before it.  The rank, the kernel and
a coordinate complement of the column space (the rows not kept) all come
from one ``Echelon``, so a matrix that needs all three is eliminated once.

``express_in_basis`` is the one way to take coordinates over a basis: it
eliminates the basis once and then expresses any number of targets, each
checked by exact reconstruction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vector = list[Fraction]


def _frac(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact matrices")
    return value if isinstance(value, Fraction) else Fraction(value)


class RatMatrix:
    """A rows x cols matrix of rationals with sparse storage."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        self._entries: dict[tuple[int, int], Fraction] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), value in items:
                self.set(r, c, value)

    @classmethod
    def from_rows(cls, data: Iterable[Sequence], cols: int | None = None) -> "RatMatrix":
        data = [list(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        mat = cls(len(data), cols)
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("rows of unequal length")
            for c, value in enumerate(row):
                mat.set(r, c, value)
        return mat

    def _check(self, r: int, c: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols} matrix")

    def set(self, r: int, c: int, value) -> None:
        self._check(r, c)
        value = _frac(value)
        if value:
            self._entries[(r, c)] = value
        else:
            self._entries.pop((r, c), None)

    def add_to(self, r: int, c: int, value) -> None:
        self.set(r, c, self.get(r, c) + _frac(value))

    def get(self, r: int, c: int) -> Fraction:
        self._check(r, c)
        return self._entries.get((r, c), Fraction(0))

    def items(self):
        return sorted(self._entries.items())

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def dense_rows(self) -> list[Vector]:
        rows = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), value in self._entries.items():
            rows[r][c] = value
        return rows

    def transpose(self) -> "RatMatrix":
        out = RatMatrix(self.cols, self.rows)
        for (r, c), value in self._entries.items():
            out._entries[(c, r)] = value
        return out

    def matvec(self, vector: Sequence) -> Vector:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [Fraction(0)] * self.rows
        for (r, c), value in self._entries.items():
            if vector[c]:
                out[r] += value * vector[c]
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class InternalConsistencyError(RuntimeError):
    """An engine self-check failed; results cannot be trusted."""


class Echelon(tuple):
    """Reduced row echelon form ``(pivots, rows)`` of ``matrix``, with ``kept``,
    the input rows (ascending) that produced a pivot."""

    def __new__(cls, pivots, rows, kept, matrix):
        echelon = super().__new__(cls, (pivots, rows))
        echelon.kept, echelon.matrix = kept, matrix
        return echelon

    @property
    def rank(self) -> int:
        return len(self[0])

    def nullspace(self) -> list[Vector]:
        """Basis of ker A, echelon-normalized and ordered by free column.

        Each basis vector carries a 1 at its free coordinate and zeros at the
        free coordinates of the other vectors.
        """
        matrix = self.matrix
        pivots, rows = self
        pivot_set = set(pivots)
        free = [c for c in range(matrix.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * matrix.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rows[r][fc]
            basis.append(v)
        # rank-nullity and exactness, checked on every call.
        if len(basis) != matrix.cols - len(pivots):
            raise InternalConsistencyError("nullspace: basis size breaks rank-nullity")
        for v in basis:
            if any(matrix.matvec(v)):
                raise InternalConsistencyError("nullspace: basis vector is not in the kernel")
        return basis

    def complement(self) -> list[int]:
        """Coordinates whose standard basis vectors complete the column space.

        The kept rows span the row space, so the rows not kept index a
        complement of the column space: exactly rows - rank coordinates.
        """
        kept = set(self.kept)
        return [i for i in range(self.matrix.rows) if i not in kept]


def rref(matrix: RatMatrix) -> Echelon:
    """Reduced row echelon form of `matrix`, with the rows that were kept.

    Sparse Gauss-Jordan on column -> value dictionaries.  Rows are taken in
    order and reduced against the pivot rows found so far; a row that keeps
    an entry becomes a pivot row at its leading column and is eliminated
    from the earlier pivot rows, so every pivot row stays fully reduced.
    """
    pending: dict[int, dict[int, Fraction]] = {}
    for (r, c), value in matrix._entries.items():
        pending.setdefault(r, {})[c] = value
    reduced: dict[int, dict[int, Fraction]] = {}
    kept = []
    for r in sorted(pending):
        row = pending[r]
        # pivot rows vanish at each other's pivots, so one pass suffices
        for c in [c for c in row if c in reduced]:
            _axpy(row, -row[c], reduced[c])
        if not row:
            continue
        kept.append(r)
        p = min(row)
        inverse = 1 / row[p]
        row = {c: value * inverse for c, value in row.items()}
        for other in reduced.values():
            f = other.get(p)
            if f:
                _axpy(other, -f, row)
        reduced[p] = row
    pivots = tuple(sorted(reduced))
    rows = []
    for p in pivots:
        dense = [Fraction(0)] * matrix.cols
        for c, value in reduced[p].items():
            dense[c] = value
        rows.append(dense)
    return Echelon(pivots, rows, tuple(kept), matrix)


def _axpy(row: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> None:
    """row += factor * other, dropping the entries that cancel."""
    for c, value in other.items():
        x = row.get(c, 0) + factor * value
        if x:
            row[c] = x
        else:
            del row[c]


def rank(matrix: RatMatrix) -> int:
    return rref(matrix).rank


def nullspace(matrix: RatMatrix) -> list[Vector]:
    return rref(matrix).nullspace()


def solve(matrix: RatMatrix, rhs: Sequence) -> Vector | None:
    """Solve A x = b exactly; None when inconsistent.

    With free variables the solution with zero free coordinates is returned,
    so the result is deterministic.
    """
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = RatMatrix(matrix.rows, matrix.cols + 1)
    for (r, c), value in matrix._entries.items():
        aug._entries[(r, c)] = value
    for r, value in enumerate(rhs):
        value = _frac(value)
        if value:
            aug._entries[(r, matrix.cols)] = value
    pivots, rows = rref(aug)
    if pivots and pivots[-1] == matrix.cols:
        return None
    x = [Fraction(0)] * matrix.cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][matrix.cols]
    if matrix.matvec(x) != [_frac(v) for v in rhs]:
        raise InternalConsistencyError("solve: solution does not satisfy the system")
    return x


def column_complement(matrix: RatMatrix) -> list[int]:
    return rref(matrix).complement()


def vectors_rank(vectors: Sequence[Sequence], length: int | None = None) -> int:
    """Rank of a list of coordinate vectors."""
    vectors = list(vectors)
    if not vectors:
        return 0
    if length is None:
        length = len(vectors[0])
    return rank(RatMatrix.from_rows(vectors, length))


def express_in_basis(vectors: Sequence[Sequence],
                     targets: Iterable[Sequence]) -> list[Vector | None]:
    """Coordinates of each target over the independent `vectors`, or None
    for a target outside their span.

    The vectors are eliminated once beside a unit matrix (rref of [B | I]),
    so each echelon row also records which combination of the vectors it
    is.  A target's coordinates are its entries at the pivots pushed through
    those combinations; an exact reconstruction from the vectors decides
    whether the target lies in the span at all.  Dependent vectors raise
    ValueError.
    """
    if not vectors:
        return [None if any(_frac(x) for x in target) else [] for target in targets]
    m, n = len(vectors), len(vectors[0])
    if any(len(vec) != n for vec in vectors):
        raise ValueError("basis vectors of unequal length")
    sparse = [[(c, _frac(x)) for c, x in enumerate(vec) if x] for vec in vectors]
    entries = [((i, c), x) for i, vec in enumerate(sparse) for c, x in vec]
    pivots, rows = rref(RatMatrix(m, n + m, entries + [((i, n + i), 1) for i in range(m)]))
    if pivots[-1] >= n:
        raise ValueError("basis vectors are linearly dependent")
    combos = [[(i, x) for i, x in enumerate(row[n:]) if x] for row in rows]
    out = []
    for target in targets:
        if len(target) != n:
            raise ValueError("target length does not match basis vectors")
        target = [_frac(x) for x in target]
        coords = [Fraction(0)] * m
        for p, combo in zip(pivots, combos):
            if target[p]:
                for i, y in combo:
                    coords[i] += target[p] * y
        rebuilt = [Fraction(0)] * n
        for x, vec in zip(coords, sparse):
            if x:
                for c, y in vec:
                    rebuilt[c] += x * y
        out.append(coords if rebuilt == target else None)
    return out
