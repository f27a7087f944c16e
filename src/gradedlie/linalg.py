"""Exact linear algebra over the rationals.

Every value is exact, with no tolerance anywhere: an integral rational is
a plain ``int``, and a ``fractions.Fraction`` always has a denominator above
1 (``_frac`` brings public input into that form), so integral data runs on
C ints throughout.  Elimination is one sparse reduction, ``rref``, that
works on the nonzero entries only, fraction-free: each row is scaled to
integers as it is taken and reduced forward at its leading column only,
into primitive integer rows; back substitution runs only when a kernel
exists (some column holds no pivot), and rows are divided by their pivot
entries (``_ratio``) only when ``pivot_rows`` is read.  The Jacobi check,
the Leibniz check and the Killing form run on tables scaled by
``_integral``.  Pivots are always the first nonzero entry in column order;
the reduced row echelon form is unique, which makes every returned basis
deterministic (bit-exact across runs).  The certificates (``_certify``)
multiply out A x on the rows of A itself, independent of that kernel.

A ``RatMatrix`` stores the sparse rows that ``rref`` and ``_certify`` read.
Only the public edge checks entries: engine code hands the rows it built to
``RatMatrix._of_rows``, which adopts them uncopied, so each builder keeps
its entries nonzero and canonical.  ``_integral`` hands back a table of
ints as it is, its own dicts, so its callers only read what it returns;
``rref`` copies each row as it takes it.  Vectors are sparse
``{index: rational}`` dicts of their nonzero entries throughout; dense
lists appear only at the public edge (``nullspace``, ``solve``,
``Echelon.rows`` and the basis vectors ``express_in_basis`` takes).
``rref`` returns an ``Echelon``: the pivots, the reduced pivot rows and
``kept``: rows are reduced in input order, so a row is kept exactly when
it is not in the span of the rows before it.  The rank, the kernel and a
coordinate complement of the column space (the rows not kept) all come
from one ``Echelon``, so a matrix that needs all three is eliminated once.
Kernel vectors come as integers (``Echelon.kernel``), which the
prolongation hands on to its next elimination as they are, or scaled to a
1 at their free coordinates (``nullspace``); they and solutions are
certified exactly.

``solve`` eliminates a matrix beside its one right-hand side.
``express_in_basis``, coordinates over a basis, eliminates [B | I] once,
independent of its targets, and reads each target's coordinates at B's
pivots through the recorded combinations; a target's coordinates x are
returned only when x B == t exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

Rational = int | Fraction
Vector = list[Rational]


def _frac(value) -> Rational:
    """`value` as an exact rational: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact matrices")
    value = value if isinstance(value, Fraction) else Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _ratio(n: int, d: int) -> Rational:
    """The exact quotient n / d of ints, d > 0: an int when d divides n."""
    return Fraction(n, d) if n % d else n // d


class RatMatrix:
    """A rows x cols matrix of rationals, ``_rows`` = {row: {column: value}}
    of its nonzero entries, ints or Fractions with a denominator above 1,
    with no empty row: the public constructors check every entry (a float
    raises TypeError, an index outside the shape IndexError), _of_rows none."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows, self.cols = rows, cols
        table: dict[int, dict[int, Rational]] = {}
        for (r, c), value in entries.items() if isinstance(entries, dict) else entries or ():
            self._check(r, c)
            table.setdefault(r, {})[c] = _frac(value)  # a later entry wins, a zero too
        self._rows = {r: kept for r, row in table.items() if (kept := {c: v for c, v in row.items() if v})}

    @classmethod
    def from_rows(cls, data: Iterable[Sequence], cols: int | None = None) -> "RatMatrix":
        data = [list(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("rows of unequal length")
        return cls(len(data), cols, [((r, c), value) for r, row in enumerate(data)
                                     for c, value in enumerate(row)])

    @classmethod
    def _of_rows(cls, rows: int, cols: int, data) -> "RatMatrix":
        """Engine-built rows in range, nonzero and canonical, a {row: {column:
        value}} dict or a list of rows, adopted uncopied into a plain dict;
        empty rows are dropped."""
        mat = cls(rows, cols)
        if isinstance(data, dict) and all(data.values()):
            mat._rows = dict(data)
        else:
            pairs = data.items() if isinstance(data, dict) else enumerate(data)
            mat._rows = {r: row for r, row in pairs if row}
        return mat

    def _check(self, r: int, c: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) outside {self.rows}x{self.cols} matrix")

    def get(self, r: int, c: int) -> Rational:
        self._check(r, c)
        return self._rows.get(r, {}).get(c, 0)

    def items(self):
        return sorted(((r, c), value) for r, row in self._rows.items() for c, value in row.items())

    @property
    def nnz(self) -> int:
        return sum(map(len, self._rows.values()))

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and (
            (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


class InternalConsistencyError(RuntimeError):
    """An engine self-check failed; results cannot be trusted."""


class Echelon:
    """Reduced row echelon form of ``matrix``.

    ``pivots`` ascend; ``kept`` are the input rows (ascending) that produced
    a pivot; ``reduced`` holds, in pivot order, the pivot rows as primitive
    integer rows with a positive pivot entry, each a multiple of its reduced
    row.  ``pivot_rows``, those rows divided by their pivot entries as
    sparse ``{column: value}`` dicts, are divided out when first read;
    dense ``rows`` are built only on demand, for ``pivots, rows = rref(m)``.
    ``kernel()`` gives certified integer kernel vectors and ``nullspace()``
    the same vectors scaled to a 1 at their free coordinates.
    """

    def __init__(self, pivots, reduced, kept, matrix):
        self.pivots, self.reduced, self.kept, self.matrix = pivots, reduced, kept, matrix

    def __iter__(self):
        return iter((self.pivots, self.rows))

    @cached_property
    def pivot_rows(self) -> tuple[dict[int, Rational], ...]:
        return tuple(row if (d := row[p]) == 1 else {c: _ratio(v, d) for c, v in row.items()}
                     for p, row in zip(self.pivots, self.reduced))

    @property
    def rows(self) -> list[Vector]:
        return [dense(row, self.matrix.cols) for row in self.pivot_rows]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _free(self) -> list[int]:
        pivot_set = set(self.pivots)
        return [c for c in range(self.matrix.cols) if c not in pivot_set]

    def kernel(self, where: str = "nullspace") -> list[dict[int, Rational]]:
        """Basis of ker A as sparse vectors, one per free column f, ascending:
        D e_f - sum of (D / d_p) R_p[f] e_p over the pivot rows R_p with an
        entry at f, d_p the pivot entry of R_p and D the lcm of those d_p,
        so integer vectors from integer rows.

        Each vector is certified against the rows of A itself, not against
        the rows that elimination scaled; a failure names `where` and the
        free column of the vector that is not in the kernel.
        """
        by_column: dict[int, list[tuple[int, Rational, Rational]]] = {}
        for p, row in zip(self.pivots, self.reduced):
            d = row[p]
            for c, value in row.items():
                if c != p:
                    by_column.setdefault(c, []).append((p, value, d))
        free = self._free()
        basis = []
        for f in free:
            entries = by_column.get(f, ())
            scale = math.lcm(*[d for _, _, d in entries])
            basis.append({**{p: -(scale // d) * value for p, value, d in entries}, f: scale})
        if len(basis) != self.matrix.cols - len(self.pivots):
            raise InternalConsistencyError(f"{where}: kernel basis size breaks rank-nullity")
        failed = _certify(self.matrix, [(v, {}) for v in basis])
        if failed is not None:
            raise InternalConsistencyError(
                f"{where}: the kernel vector of free column {free[failed]} is not in the kernel")
        return basis

    def nullspace(self, where: str = "nullspace") -> list[dict[int, Rational]]:
        """Basis of ker A as sparse vectors, echelon-normalized and ordered by
        free column: the ``kernel(where)`` vectors divided by their entries
        at their free coordinates, so each carries a 1 there and zeros at
        the free coordinates of the others."""
        return [v if (d := v[f]) == 1 else {c: _ratio(x, d) for c, x in v.items()}
                for f, v in zip(self._free(), self.kernel(where))]

    def complement(self) -> list[int]:
        """Coordinates whose standard basis vectors complete the column space.

        The kept rows span the row space, so the rows not kept index a
        complement of the column space: exactly rows - rank coordinates.
        """
        kept = set(self.kept)
        return [i for i in range(self.matrix.rows) if i not in kept]


def _certify(matrix: RatMatrix, pairs) -> int | None:
    """The index of a sparse pair (x, b) with A x != b, the least among those
    failing at the first row of A where any fails, or None when A x == b
    exactly for every pair; one pass over the rows of A, where an entry
    costs the number of x nonzero at its column, forms row r of every
    image.  Without pairs there is nothing to check, and it returns at once."""
    if not pairs:
        return None
    by_coordinate, expected = {}, {}  # c -> [(pair j, x_j[c])], r -> {pair j: b_j[r]}
    for j, (x, b) in enumerate(pairs):
        for c, value in x.items():
            by_coordinate.setdefault(c, []).append((j, value))
        for r, value in b.items():
            expected.setdefault(r, {})[j] = value
    for r, row in matrix._rows.items():
        image: dict[int, Rational] = {}  # pair -> (A x)[r]
        for c, value in row.items():
            for j, x_c in by_coordinate.get(c, ()):
                image[j] = image.get(j, 0) + value * x_c
        if image or r in expected:
            want = expected.pop(r, {})
            if (got := {j: v for j, v in image.items() if v}) != want:
                return min(j for j in got.keys() | want.keys() if got.get(j) != want.get(j))
    if expected:  # b is nonzero in a row where A is zero
        return min(min(want) for want in expected.values())
    return None


def dense(row: dict[int, Rational], length: int) -> Vector:
    """The sparse {column: value} row as a list of `length` rationals."""
    out = [0] * length
    for c, value in row.items():
        out[c] = value
    return out


def rref(matrix: RatMatrix) -> Echelon:
    """Reduced row echelon form of `matrix`, with the rows that were kept.

    Sparse fraction-free forward elimination on column -> int dictionaries.
    Rows are taken in order, each scaled to integers as it is taken (an
    all-int row is copied as it is, any other multiplied by the lcm of its
    own denominators), and reduced at its leading column only, r := d r -
    a P for the pivot row P with pivot entry d > 0 there and r's entry a,
    a and d first divided by their gcd, until its leading column holds no
    pivot; a row that keeps an entry becomes the pivot row of its leading
    column, divided by its content with a positive pivot entry (a row of
    one entry becomes {p: 1} without a gcd).  Pivot rows are never
    eliminated from each other on the way, so no column index is kept.
    Once every column holds a pivot the remaining rows are not read: each
    would reduce to nothing, so the pivots and ``kept`` are final, and the
    reduced rows are {p: 1}.  Otherwise back substitution runs from the
    largest pivot down, each row reduced at its other pivot columns against
    the rows above it, which already are fully reduced, and divided by its
    content again.  Rows are divided by their pivot entries only when
    ``pivot_rows`` is read.  Eliminations and content divisions are written
    inline, not called as helpers.
    """
    gcd, lcm = math.gcd, math.lcm
    reduced: dict[int, dict[int, int]] = {}
    kept = []
    cols = matrix.cols
    table = matrix._rows
    for r in sorted(table):
        if len(reduced) == cols:
            break
        row = table[r]
        if set(map(type, row.values())) <= {int}:
            row = row.copy()
        else:
            scale = lcm(*[v.denominator for v in row.values() if type(v) is not int])
            row = {c: v * scale if type(v) is int else v.numerator * (scale // v.denominator)
                   for c, v in row.items()}
        p = min(row)
        while p in reduced:
            pivot_row = reduced[p]
            a, d = row[p], pivot_row[p]
            if d != 1:
                g = gcd(a, d)
                a, d = a // g, d // g
                if d != 1:
                    for k in row:
                        row[k] *= d
            for k, v in pivot_row.items():
                x = row.get(k, 0) - a * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            if not row:
                break
            p = min(row)
        if not row:
            continue
        kept.append(r)
        if len(row) == 1:
            reduced[p] = {p: 1}
            continue
        g = gcd(*row.values())
        if row[p] < 0:
            g = -g
        if g != 1:
            for k in row:
                row[k] //= g
        reduced[p] = row
    pivots = tuple(sorted(reduced))
    if len(pivots) == cols:
        return Echelon(pivots, tuple({p: 1} for p in pivots), tuple(kept), matrix)
    for p in reversed(pivots):
        row = reduced[p]
        # the rows above vanish at each other's pivots, so one pass suffices
        above = [c for c in row if c in reduced and c != p]
        if not above:
            continue
        for c in above:
            pivot_row = reduced[c]
            a, d = row[c], pivot_row[c]
            if d != 1:
                g = gcd(a, d)
                a, d = a // g, d // g
                if d != 1:
                    for k in row:
                        row[k] *= d
            for k, v in pivot_row.items():
                x = row.get(k, 0) - a * v
                if x:
                    row[k] = x
                else:
                    del row[k]
        # row[p] stays positive, as the rows above vanish at p
        g = gcd(*row.values())
        if g != 1:
            for k in row:
                row[k] //= g
    return Echelon(pivots, tuple(reduced[p] for p in pivots), tuple(kept), matrix)


def _integral(rows: dict) -> tuple[dict, int]:
    """(L * rows, L) for a {key: {index: rational}} table of sparse rows, L
    the lcm of its denominators: the ints of express_in_basis, the Leibniz
    check and the signature of a form.  A table whose values are all ints
    is returned as it is, its own dicts, so no caller may change the rows it
    gets; any other table is copied."""
    if set(map(type, chain.from_iterable(map(dict.values, rows.values())))) <= {int}:
        return rows, 1
    scale = math.lcm(*{v.denominator for row in rows.values() for v in row.values()})
    return {k: {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
            for k, row in rows.items()}, scale


def axpy(row: dict, factor, other: dict) -> None:
    """row += factor * other, dropping the entries that cancel; the entries
    are exact rationals, or ints in the integer kernels."""
    for c, value in other.items():
        x = row.get(c, 0) + factor * value
        if x:
            row[c] = x
        else:
            del row[c]


def rank(matrix: RatMatrix) -> int:
    return rref(matrix).rank


def nullspace(matrix: RatMatrix) -> list[Vector]:
    """Basis of ker A as dense vectors (see Echelon.nullspace)."""
    return [dense(v, matrix.cols) for v in rref(matrix).nullspace()]


def solve(matrix: RatMatrix, rhs: Sequence) -> Vector | None:
    """Solve A x = b exactly, dense, eliminating [A | b] once; None when
    inconsistent, that is, when a reduced row has its pivot in b's column.
    With free variables the solution with zero free coordinates is returned,
    so the result is deterministic."""
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    n = matrix.cols
    b = {r: x for r, value in enumerate(rhs) if (x := _frac(value))}
    rows = {r: dict(row) for r, row in matrix._rows.items()}  # copies of A's rows, to hold b
    for r, value in b.items():
        rows.setdefault(r, {})[n] = value
    echelon = rref(RatMatrix._of_rows(matrix.rows, n + 1, rows))
    x = {p: row[n] for p, row in zip(echelon.pivots, echelon.pivot_rows) if n in row}
    if n in x:
        return None
    if _certify(matrix, [(x, b)]) is not None:
        raise InternalConsistencyError("solve: solution does not satisfy the system")
    return dense(x, n)


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


def express_in_basis(vectors: Sequence[Sequence], targets: Iterable[dict]) -> list:
    """Sparse coordinates of each sparse ``{column: value}`` target over the
    independent dense `vectors`, as a ``{vector index: value}`` dict of the
    nonzero ones, or None for a target outside their span.

    [B | I] is eliminated once, B the vectors as rows: each reduced row is
    R_k | C_k with R_k = C_k B, so the rows R_k are the reduced echelon
    basis of the span and the rows C_k record how each is combined from the
    vectors (for a basis already in reduced echelon form, C = I).  A target
    t in the span is the sum of t[p_k] R_k over B's pivots p_k, so its
    coordinates are x = sum of t[p_k] C_k.  They are returned only when
    x B == t exactly; when the reduced rows span t and x B still differs,
    the elimination is at fault and InternalConsistencyError is raised;
    otherwise t lies outside the span.  A pivot in I means a combination of
    the vectors vanishes: dependent vectors raise ValueError.
    """
    targets = list(targets)
    m = len(vectors)
    n = len(vectors[0]) if vectors else 0
    if any(len(vec) != n for vec in vectors):
        raise ValueError("basis vectors of unequal length")
    # an int zero is skipped unconverted; any other entry is checked by _frac
    basis = [{c: y for c, x in enumerate(vec) if (x or type(x) is not int) and (y := _frac(x))}
             for vec in vectors]
    echelon = rref(RatMatrix._of_rows(m, n + m, [{**row, n + i: 1} for i, row in enumerate(basis)]))
    if echelon.pivots and echelon.pivots[-1] >= n:
        raise ValueError("basis vectors are linearly dependent")
    combos, spans = {}, {}  # pivot p_k -> C_k, R_k, without zeros even from a faulty elimination
    for p, row in zip(echelon.pivots, echelon.pivot_rows):
        combos[p] = {c - n: v for c, v in row.items() if c >= n and v}
        spans[p] = {c: v for c, v in row.items() if c < n and v}
    # x B == t is checked as x (L B) == L t, on ints wherever x is integral
    integral, scale = _integral(dict(enumerate(basis)))
    out = []
    for t in targets:
        t = {c: x for c, value in t.items() if (x := _frac(value))}
        if t and min(t) < 0:
            raise IndexError(f"target entry {min(t)} outside the basis length {n}")
        coords: dict[int, Rational] = {}
        for c, value in t.items():
            if c in combos:
                axpy(coords, value, combos[c])
        image: dict[int, Rational] = {}
        for i, value in coords.items():
            axpy(image, value, integral[i])
        if image == {c: scale * value for c, value in t.items()}:
            out.append({i: v if type(v) is int or v.denominator != 1 else v.numerator for i, v in coords.items()})
            continue
        spanned: dict[int, Rational] = {}
        for c, value in t.items():
            if c in spans:
                axpy(spanned, value, spans[c])
        if spanned == t:
            raise InternalConsistencyError("express_in_basis: coordinates do not reproduce the target")
        out.append(None)
    return out
