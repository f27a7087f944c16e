"""Graded Lie algebras over Q given by a basis and structure constants.

The same type houses the nilpotent symbol (negative degrees only), the
algebra m + g0 that prolongation.adjoin_g0 assembles, and the fully
assembled prolongation with positive degrees.  Brackets are
stored once per index pair a < b, as rows: rows[a] = {b: terms}, terms the
sparse coordinate dict of [e_a, e_b], so every consumer walks a row or
reads one bracket with rows[a].get(b) and builds no key per lookup;
bracket_basis reads either orientation, applying antisymmetry as a sign.
The grading and Jacobi checks read one integer copy of the rows, scaled by
the lcm of their denominators, indexed by pair in both orientations and by
the basis elements each bracket contains, so the Jacobi sums are taken over
the nonzero products of the table instead of over every basis triple.

Every structure constant and map entry is an exact rational in the form of
``linalg``: an int when integral, a Fraction only with a denominator above 1.
Degree-homogeneous linear maps (GradedLinearMap) store every block as sparse
columns, {target position: rational} dicts, beside the block shapes; dense
columns are built only on demand.  A degree-zero algebra writes the
commutators of its generators straight into flat coordinates, composing
only the nonzero entries of their columns, checks the Leibniz rule over
the nonzero brackets of the symbol only, and keeps its commutator table
in sparse generator coordinates.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple

from . import linalg
from .linalg import RatMatrix, Rational


class BasisElement(NamedTuple):
    name: str
    degree: int


class GradedLieAlgebra:
    """Finite-dimensional graded Lie algebra with exact structure constants.

    Structure constants are stored once per index pair a < b, in rows:
    rows[a] is the dict {b: terms} of the nonzero brackets [e_a, e_b] with
    b > a, terms a dict of nonzero exact rationals; the opposite orientation
    is recovered by antisymmetry.  The constructor takes a {(a, b): terms}
    dict, checks shapes, ranges and name uniqueness and cleans the values;
    _of_rows adopts rows the engine built as they are.  Mathematical
    soundness (grading compatibility, the Jacobi identity, nilpotency of
    the negative part) is the job of check_validity, which reports
    witnesses instead of raising, so invalid tables can be represented and
    diagnosed.
    """

    def __init__(self, basis, brackets):
        basis = tuple(basis)
        names = [e.name for e in basis]
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        self.basis = basis
        n = len(basis)
        rows: list[dict[int, dict[int, Rational]]] = [{} for _ in range(n)]
        for (a, b), terms in brackets.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bracket pair ({a}, {b}) out of range")
            if a >= b:
                raise ValueError("bracket keys must satisfy a < b")
            clean = {}
            for c, value in terms.items():
                if not 0 <= c < n:
                    raise ValueError(f"bracket target {c} out of range")
                value = linalg._frac(value)
                if value:
                    clean[c] = value
            if clean:
                rows[a][b] = clean
        self.rows = rows
        by_degree: dict[int, list[int]] = {}
        for i, e in enumerate(basis):
            by_degree.setdefault(e.degree, []).append(i)
        self._by_degree = {d: tuple(idx) for d, idx in by_degree.items()}
        self._positions = {i: pos for idx in by_degree.values() for pos, i in enumerate(idx)}

    @classmethod
    def _of_rows(cls, basis, rows) -> "GradedLieAlgebra":
        """Engine-built brackets, one row per basis element, rows[a] keyed by
        b in range with b > a and holding nonempty dicts of nonzero exact
        rationals, adopted without a check or a copy."""
        algebra = cls(basis, {})
        algebra.rows = rows
        return algebra

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._by_degree))

    def dims_by_degree(self) -> dict[int, int]:
        return {d: len(idx) for d, idx in self._by_degree.items()}

    def indices_of_degree(self, degree: int) -> tuple[int, ...]:
        return self._by_degree.get(degree, ())

    def dim_of_degree(self, degree: int) -> int:
        return len(self._by_degree.get(degree, ()))

    def degree_of(self, index: int) -> int:
        return self.basis[index].degree

    def position_in_degree(self, index: int) -> int:
        return self._positions[index]

    def has_only_negative_degrees(self) -> bool:
        return all(d < 0 for d in self._by_degree)

    def bracket_basis(self, a: int, b: int) -> dict[int, Rational]:
        """[e_a, e_b] as a sparse coordinate dictionary, a copy."""
        if a < b:
            return dict(self.rows[a].get(b, ()))
        if a > b:
            return {c: -v for c, v in self.rows[b].get(a, {}).items()}
        return {}


def _integral_rows(rows) -> tuple[list, int]:
    """(L * rows, L) for a bracket table held as rows, L the lcm of its
    denominators, as linalg._integral scales a table of sparse rows: an
    all-int table is returned as it is, its own dicts, so no caller may
    change what it gets; any other table is copied."""
    values = [terms.values() for row in rows for terms in row.values()]
    if set(map(type, chain.from_iterable(values))) <= {int}:
        return rows, 1
    scale = math.lcm(*{v.denominator for terms in values for v in terms})
    return [{b: {c: v.numerator * (scale // v.denominator) for c, v in terms.items()}
             for b, terms in row.items()} for row in rows], scale


class ValidityReport(NamedTuple):
    grading_ok: bool
    grading_witness: tuple[str, str] | None
    jacobi_ok: bool
    jacobi_witness: tuple[str, str, str] | None
    nilpotent_ok: bool

    @property
    def ok(self) -> bool:
        return self.grading_ok and self.jacobi_ok and self.nilpotent_ok

    def describe(self) -> str:
        parts = []
        if not self.grading_ok:
            parts.append(f"grading violated at pair {self.grading_witness}")
        if not self.jacobi_ok:
            parts.append(f"Jacobi violated at triple {self.jacobi_witness}")
        if not self.nilpotent_ok:
            parts.append("negative part is not nilpotent")
        return "; ".join(parts) if parts else "valid"


def check_validity(algebra: GradedLieAlgebra) -> ValidityReport:
    """Grading compatibility, Jacobi over all basis triples, nilpotency.

    The first violating pair or triple is reported by basis names.  One
    descending pass over the pairs indexes the table for the Jacobi sums
    and checks each bracket's degrees; the last ungraded pair it meets is
    the least.  The Jacobi sums run over the table scaled to integers by L;
    each sum is bilinear in the structure constants, so it is L^2 times its
    rational value and vanishes exactly when that value does.  They are
    accumulated from the nonzero products only: for each p in turn, every
    double bracket [[p, x], y] and [[q, r], p] with p < x, y and p < q < r
    adds into the sum of its triple, and the first triple a < b < c with a
    nonzero sum is the least (q, r) left nonzero at the first such p.
    """
    n = algebra.dim
    degree = [e.degree for e in algebra.basis]
    grading_witness = jacobi_witness = None
    rows, _ = _integral_rows(algebra.rows)
    signed: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]  # signed[x][y] = [e_x, e_y]
    containing: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (q, r, v): v e_t in [e_q, e_r]
    for q in range(n - 1, -1, -1):
        row = rows[q]
        for r in sorted(row, reverse=True):
            terms = row[r]
            signed[q][r] = terms
            signed[r][q] = {t: -v for t, v in terms.items()}
            for t, v in terms.items():
                containing[t].append((q, r, v))
                if degree[t] != degree[q] + degree[r]:
                    grading_witness = (algebra.basis[q].name, algebra.basis[r].name)
    for p in range(n):
        # J(p, q, r) = [[p, q], r] - [[p, r], q] + [[q, r], p] for p < q < r,
        # coordinate e of it at key (q * n + r) * n + e; [[p, x], y] is the
        # first term of (p, x, y) when x < y, else the second of (p, y, x)
        acc: dict[int, int] = {}
        for x, px in signed[p].items():
            if x < p:
                continue
            for t, v in px.items():
                for y, ty in signed[t].items():
                    if y <= p or y == x:
                        continue
                    key, w = ((x * n + y) * n, v) if y > x else ((y * n + x) * n, -v)
                    for e, u in ty.items():
                        acc[key + e] = acc.get(key + e, 0) + w * u
        for t, pt in signed[p].items():
            for q, r, v in containing[t]:  # q descending
                if q <= p:
                    break
                key = (q * n + r) * n
                for e, u in pt.items():
                    acc[key + e] = acc.get(key + e, 0) - v * u
        failing = [key for key, value in acc.items() if value]
        if failing:
            q, r = divmod(min(failing) // n, n)
            jacobi_witness = (algebra.basis[p].name, algebra.basis[q].name, algebra.basis[r].name)
            break

    grading_ok = grading_witness is None
    # with every bracket graded, C^k(m) lies in degrees <= -k, so the negative
    # part is nilpotent; the lower central series only decides the rest
    nilpotent_ok = grading_ok or _negative_part_nilpotent(algebra)
    return ValidityReport(grading_ok, grading_witness, jacobi_witness is None, jacobi_witness, nilpotent_ok)


def _negative_part_nilpotent(algebra: GradedLieAlgebra) -> bool:
    """Whether C^1 = m, C^(k+1) = [m, C^k] reaches 0, m the negative part.
    The series of an ungraded table need not descend, but its tails C^k +
    C^(k+1) + ... do, each the image of the one before: it reaches 0 within
    dim passes or never, and never once a pass repeats its span."""
    negative = [i for i in range(algebra.dim) if algebra.degree_of(i) < 0]
    current = [{i: 1} for i in negative]
    for _ in range(algebra.dim):
        produced = []
        for a in negative:
            for v in current:
                w: dict[int, Rational] = {}
                for c, x in v.items():
                    linalg.axpy(w, x, algebra.bracket_basis(a, c))
                if w:  # a sum of products of Fractions may be integral
                    produced.append({c: linalg._frac(x) for c, x in w.items()})
        if not produced:
            return True
        spanned = linalg.rref(RatMatrix._of_rows(len(produced), algebra.dim, produced)).pivot_rows
        if spanned == current:  # reduced echelon rows, equal exactly when the spans are
            return False
        current = spanned
    return not current  # empty only for a table without negative elements


def check_fundamental(symbol: GradedLieAlgebra) -> bool:
    """True iff the degree -1 component generates the whole algebra.

    Spanning is checked degree by degree downward: brackets of the degree -1
    basis with the previously generated component must fill each deeper one.
    """
    if not symbol.has_only_negative_degrees():
        raise ValueError("fundamentality is defined for symbols with negative degrees only")
    if not symbol.degrees:
        return True
    dims = symbol.dims_by_degree()
    if -1 not in dims:
        return False
    top = symbol.indices_of_degree(-1)
    for degree in range(-2, min(symbol.degrees) - 1, -1):
        want = dims.get(degree, 0)
        if want == 0:
            continue
        spanning = [w for a in top for b in symbol.indices_of_degree(degree + 1)
                    if (w := symbol.bracket_basis(a, b))]
        if not spanning or linalg.rank(RatMatrix._of_rows(len(spanning), symbol.dim, spanning)) < want:
            return False
    return True


def require_valid_symbol(symbol: GradedLieAlgebra) -> None:
    """Raise ValueError unless the symbol is valid (check_validity) and
    fundamental (check_fundamental), the domain of the prolongation and of
    every g0 builder; the one place the engine decides this."""
    report = check_validity(symbol)
    if not report.ok:
        raise ValueError(f"symbol is not a valid graded Lie algebra: {report.describe()}")
    if not check_fundamental(symbol):
        raise ValueError("symbol is not fundamental: degree -1 does not generate it")


# ---------------------------------------------------------------------------
# Degree-homogeneous linear maps.


class GradedLinearMap:
    """A degree-k map, one block per graded component of the domain.

    Blocks are stored sparsely: columns[i][a] is the image of the a-th basis
    vector of degree i, a {position in degree i+k: rational} dict of its
    nonzero coordinates (ints, and Fractions with a denominator above 1),
    and shapes[i] is the block's (dim domain, dim target).  The constructor
    takes dense blocks (blocks[i][a] a coordinate vector over the degree i+k
    basis) and brings every entry into that form once; engine code
    builds maps from sparse columns with from_columns, which converts
    nothing.  image_of_basis gives one dense column on demand.  For elements
    of the prolongation only negative domain degrees occur; Spencer-operator
    domain elements may also carry blocks on non-negative degrees.
    """

    __slots__ = ("degree", "columns", "shapes")

    def __init__(self, degree: int, blocks):
        columns, shapes = {}, {}
        for i, cols in blocks.items():
            cols = [list(col) for col in cols]
            width = len(cols[0]) if cols else 0
            if any(len(col) != width for col in cols):
                raise ValueError(f"columns of the block on degree {i} differ in length")
            columns[i] = tuple({t: x for t, v in enumerate(col) if (x := linalg._frac(v))} for col in cols)
            shapes[i] = (len(cols), width)
        self.degree, self.columns, self.shapes = degree, columns, shapes

    @classmethod
    def from_columns(cls, degree: int, columns, shapes) -> "GradedLinearMap":
        """A map from sparse columns holding nonzero rationals only, taken as they are."""
        f = cls.__new__(cls)
        f.degree, f.columns, f.shapes = degree, columns, shapes
        return f

    def image_of_basis(self, i: int, a: int) -> tuple[Rational, ...]:
        """The dense image of the a-th basis vector of degree i."""
        if i not in self.columns:
            raise KeyError(f"map has no block on degree {i}")
        col = self.columns[i][a]
        return tuple(col.get(t, 0) for t in range(self.shapes[i][1]))

    def flat_entries(self, layout) -> dict[int, Rational]:
        """Nonzero coordinates of the map flattened over `layout` (blocks in
        layout order, domain index outer, target coordinate inner)."""
        flat, pos = {}, 0
        for i, dom, tgt in layout:
            for a, col in enumerate(self.columns.get(i, ())):
                base = pos + a * tgt
                for t, value in col.items():
                    flat[base + t] = value
            pos += dom * tgt
        return flat

    def flatten(self, layout) -> list[Rational]:
        return linalg.dense(self.flat_entries(layout), sum(dom * tgt for _, dom, tgt in layout))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.degree == other.degree
            and self.shapes == other.shapes
            and self.columns == other.columns
        )

    def __repr__(self) -> str:
        return f"GradedLinearMap(degree={self.degree}, blocks={dict(sorted(self.shapes.items()))})"


def maps_from_rows(degree: int, layout, rows) -> list[GradedLinearMap]:
    """One degree-`degree` map per sparse {column: value} row flattened over
    `layout`, the inverse of GradedLinearMap.flat_entries."""
    where = [(i, a, t) for i, dom, tgt in layout for a in range(dom) for t in range(tgt)]
    shapes = {i: (dom, tgt) for i, dom, tgt in layout}
    maps = []
    for row in rows:
        columns = {i: tuple({} for _ in range(dom)) for i, dom, _ in layout}
        for c, value in row.items():
            i, a, t = where[c]
            columns[i][a][t] = value
        maps.append(GradedLinearMap.from_columns(degree, columns, shapes))
    return maps


def map_layout(dims: dict[int, int], degree: int) -> list[tuple[int, int, int]]:
    """Block layout (i, dim domain, dim target) of a degree-`degree` map
    on the negative part, ascending in i; zero-dimensional blocks dropped."""
    out = []
    for i in sorted(d for d in dims if d < 0):
        dom = dims[i]
        tgt = dims.get(i + degree, 0)
        if dom and tgt:
            out.append((i, dom, tgt))
    return out


def layout_offsets(layout) -> tuple[dict[int, int], int]:
    offsets = {}
    pos = 0
    for i, dom, tgt in layout:
        offsets[i] = pos
        pos += dom * tgt
    return offsets, pos


def tower_dims(symbol: GradedLieAlgebra, g_bases) -> dict[int, int]:
    """Graded dimensions of the symbol plus the computed non-negative parts."""
    dims = symbol.dims_by_degree()
    for level, base in enumerate(g_bases):
        dims[level] = len(base)
    return dims


def _flat_commutators(maps, layout, pairs) -> list[dict[int, Rational]]:
    """f g - g f for each pair (s, t) of degree-0 `maps`, f = maps[s] and
    g = maps[t], each with a block on every degree of `layout`, flattened
    over it as GradedLinearMap.flat_entries flattens a map.

    Columns are numbered across the blocks; a map is its columns and the
    list of its nonzero entries (flat position of column a, column u, x),
    x its coordinate u of column a.  Column a of f g is the sum of x f(u)
    over the entries of g, so each pair costs its nonzero products only.
    The commutator is bilinear: the products run on the maps scaled to
    integers by the lcm L of all their denominators, and each sum is
    divided by L^2 at the end; entries are ints, or Fractions with a
    denominator above 1.
    """
    scale = math.lcm(*{v.denominator for f in maps for i, _, _ in layout
                       for col in f.columns[i] for v in col.values()})
    columns, entries = [], []
    for f in maps:
        cols, ents, pos = [], [], 0
        for i, dom, tgt in layout:
            for a, col in enumerate(f.columns[i]):
                col = {u: v.numerator * (scale // v.denominator) for u, v in col.items()}
                ents.extend((pos + a * tgt, len(cols) - a + u, x) for u, x in col.items())
                cols.append(col)
            pos += dom * tgt
        columns.append(cols)
        entries.append(ents)
    square = scale * scale
    out = []
    for s, t in pairs:
        flat: dict[int, int] = {}
        for base, u, x in entries[t]:  # + f g
            for e, y in columns[s][u].items():
                flat[base + e] = flat.get(base + e, 0) + x * y
        for base, u, x in entries[s]:  # - g f
            for e, y in columns[t][u].items():
                flat[base + e] = flat.get(base + e, 0) - x * y
        out.append({c: linalg._ratio(v, square) for c, v in flat.items() if v})
    return out


def derivation_violations(symbol: GradedLieAlgebra, maps):
    """For each map f of `maps` in turn, the first basis pair (a, b), a < b,
    where the Leibniz rule fails, or None; a generator, so a caller that
    stops at the first failing map checks no further.

    L(a, b) = f([e_a, e_b]) - [f(e_a), e_b] - [e_a, f(e_b)] is summed over
    the nonzero brackets only: partners[c] lists (b, sign, terms) with
    [e_c, e_b] = sign * terms for every nonzero bracket of e_c, in both
    orientations, built once for all the maps.  A term [f(e_s), e_o] of the
    ordered pair (s, o) goes into L(s, o) when s < o and, with its sign
    changed, into L(o, s) = -L(s, o) otherwise; at s == o the two terms
    cancel.  The sums run on integer copies, the table scaled by the lcm of
    its denominators once and the images of each f by the lcm of theirs:
    every term is one structure constant times one entry of f, so L(a, b)
    is scaled by one factor and vanishes exactly when it does.  The witness
    is the least pair left nonzero, the pair the lexicographic loop over
    all pairs reports.
    """
    n = symbol.dim
    rows = _integral_rows(symbol.rows)[0]
    partners: list[list[tuple[int, int, dict[int, int]]]] = [[] for _ in range(n)]
    for a, row in enumerate(rows):
        for b, terms in row.items():
            partners[a].append((b, 1, terms))
            partners[b].append((a, -1, terms))
    # (degree, position in it, basis indices of that degree) of each e_a
    slots = [(i, symbol.position_in_degree(a), symbol.indices_of_degree(i))
             for a, i in enumerate(e.degree for e in symbol.basis)]
    for f in maps:
        images = []  # f(e_a) as a sparse coordinate dictionary
        for i, position, targets in slots:
            if i not in f.columns:
                raise KeyError(f"map has no block on degree {i}")
            if f.shapes[i][1] != len(targets):
                raise ValueError("coordinate count does not match degree dimension")
            images.append({targets[t]: value for t, value in f.columns[i][position].items()})
        images = linalg._integral(dict(enumerate(images)))[0]
        acc: dict[int, int] = {}  # L(a, b) at coordinate e under key (a * n + b) * n + e
        for a, row in enumerate(rows):
            for b, terms in row.items():
                key = (a * n + b) * n
                for c, v in terms.items():  # f([e_a, e_b])
                    for e, w in images[c].items():
                        acc[key + e] = acc.get(key + e, 0) + v * w
        for s in range(n):
            for c, x in images[s].items():
                for o, sign, terms in partners[c]:
                    if o == s:
                        continue
                    key, factor = ((s * n + o) * n, -sign * x) if s < o else ((o * n + s) * n, sign * x)
                    for e, v in terms.items():
                        acc[key + e] = acc.get(key + e, 0) + factor * v
        failing = [key for key, value in acc.items() if value]
        if not failing:
            yield None
            continue
        a, b = divmod(min(failing) // n, n)
        yield (symbol.basis[a].name, symbol.basis[b].name)


class DegreeZeroAlgebra:
    """A Lie algebra of grading-preserving derivations of a fixed symbol.

    Generators are independent degree-0 maps carrying the action on all of
    the symbol.  Construction verifies that every generator has one square
    block per degree of the symbol, the Leibniz rule on every basis pair,
    linear independence, and closure of the span under commutators; the
    commutator table is recorded as structure_constants[(s, t)], the sparse
    {generator index: value} coordinates of [generator s, generator t].
    Errors name generator s as labels[s], by default "generator {s + 1}".
    The g0 builders of symbols.py set ``_symbol_guarded`` on the algebra
    they return, whose symbol passed require_valid_symbol, so the
    prolongation of that symbol need not ask again.
    """

    _symbol_guarded = False

    def __init__(self, symbol: GradedLieAlgebra, generators, labels=None):
        if not symbol.has_only_negative_degrees():
            raise ValueError("the symbol must carry negative degrees only")
        self.symbol = symbol
        self.generators = tuple(generators)
        labels = labels or [f"generator {s + 1}" for s in range(len(self.generators))]
        dims = symbol.dims_by_degree()
        self._layout = map_layout(dims, 0)
        shapes = {d: (n, n) for d, n in dims.items()}
        for idx, gen in enumerate(self.generators):
            if gen.degree != 0:
                raise ValueError(f"{labels[idx]} does not have degree 0")
            if gen.shapes != shapes:
                raise ValueError(f"{labels[idx]} does not match the graded dimensions of the symbol")
        flats = [g.flatten(self._layout) for g in self.generators]
        pairs = [(s, t) for s in range(len(flats)) for t in range(s + 1, len(flats))]
        comms = _flat_commutators(self.generators, self._layout, pairs)
        try:
            coordinates = linalg.express_in_basis(flats, comms)
        except ValueError:
            raise ValueError("degree-zero generators are linearly dependent") from None
        for label, witness in zip(labels, derivation_violations(symbol, self.generators)):
            if witness is not None:
                raise ValueError(f"{label} is not a derivation: Leibniz fails on pair {witness}")
        for (s, t), coords in zip(pairs, coordinates):
            if coords is None:
                raise ValueError(f"span not closed under commutator: [{labels[s]}, {labels[t]}] "
                                 "lies outside the span")
        self.structure_constants = dict(zip(pairs, coordinates))

    @property
    def dim(self) -> int:
        return len(self.generators)


def require_same_symbol(symbol: GradedLieAlgebra, g0: DegreeZeroAlgebra) -> None:
    """Raise ValueError unless g0 acts on this symbol: the same object, or
    one with the same basis and brackets."""
    if g0.symbol is not symbol and (g0.symbol.basis, g0.symbol.rows) != (symbol.basis, symbol.rows):
        raise ValueError("g0 was built for a different symbol")

