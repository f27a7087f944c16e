"""Graded Lie algebras over Q given by a basis and structure constants.

The same type houses the nilpotent symbol (negative degrees only), the
extended algebra obtained by adjoining a degree-zero derivation subalgebra,
and the fully assembled prolongation with positive degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import RatMatrix


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int


class GradedLieAlgebra:
    """Finite-dimensional graded Lie algebra with exact structure constants.

    Structure constants are stored only for index pairs (a, b) with a < b;
    the opposite orientation is recovered by antisymmetry.  Construction
    checks shapes and name uniqueness.  Mathematical soundness (grading
    compatibility, the Jacobi identity, nilpotency of the negative part) is
    the job of check_validity, which reports witnesses instead of raising,
    so invalid tables can be represented and diagnosed.
    """

    def __init__(self, basis, brackets):
        basis = tuple(basis)
        names = [e.name for e in basis]
        if len(set(names)) != len(names):
            raise ValueError("basis names must be unique")
        self.basis = basis
        n = len(basis)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (a, b), terms in brackets.items():
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"bracket pair ({a}, {b}) out of range")
            if a >= b:
                raise ValueError("bracket keys must satisfy a < b")
            clean = {}
            for c, value in terms.items():
                if not 0 <= c < n:
                    raise ValueError(f"bracket target {c} out of range")
                value = Fraction(value)
                if value:
                    clean[c] = value
            if clean:
                table[(a, b)] = clean
        self._table = table
        by_degree: dict[int, list[int]] = {}
        for i, e in enumerate(basis):
            by_degree.setdefault(e.degree, []).append(i)
        self._by_degree = {d: tuple(idx) for d, idx in by_degree.items()}
        self._positions = {}
        for d, idx in self._by_degree.items():
            for pos, i in enumerate(idx):
                self._positions[i] = pos

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

    @property
    def depth(self) -> int:
        negative = [d for d in self._by_degree if d < 0]
        return -min(negative) if negative else 0

    def has_only_negative_degrees(self) -> bool:
        return all(d < 0 for d in self._by_degree)

    def bracket_pairs(self):
        return sorted(self._table)

    def bracket_basis(self, a: int, b: int) -> dict[int, Fraction]:
        """[e_a, e_b] as a sparse coordinate dictionary."""
        if a == b:
            return {}
        if a < b:
            return dict(self._table.get((a, b), {}))
        flipped = self._table.get((b, a), {})
        return {c: -v for c, v in flipped.items()}

    def bracket(self, x, y) -> list[Fraction]:
        """Bracket of two coordinate vectors over the full basis."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise ValueError("coordinate vectors must match the basis dimension")
        out = [Fraction(0)] * n
        for (a, b), terms in self._table.items():
            coeff = x[a] * y[b] - x[b] * y[a]
            if coeff:
                for c, value in terms.items():
                    out[c] += coeff * value
        return out

    def unit_vector(self, index: int) -> list[Fraction]:
        v = [Fraction(0)] * self.dim
        v[index] = Fraction(1)
        return v

    def scatter(self, degree: int, coords) -> list[Fraction]:
        """Place coordinates over the degree component into a full vector."""
        idx = self._by_degree.get(degree, ())
        if len(coords) != len(idx):
            raise ValueError("coordinate count does not match degree dimension")
        v = [Fraction(0)] * self.dim
        for pos, value in zip(idx, coords):
            v[pos] = Fraction(value)
        return v

    def component(self, vector, degree: int) -> list[Fraction]:
        return [vector[i] for i in self._by_degree.get(degree, ())]


@dataclass
class ValidityReport:
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

    The first violating pair or triple is reported by basis names.
    """
    grading_ok, grading_witness = True, None
    for (a, b) in algebra.bracket_pairs():
        expected = algebra.degree_of(a) + algebra.degree_of(b)
        for c in algebra.bracket_basis(a, b):
            if algebra.degree_of(c) != expected:
                grading_ok = False
                grading_witness = (algebra.basis[a].name, algebra.basis[b].name)
                break
        if not grading_ok:
            break

    jacobi_ok, jacobi_witness = True, None
    n = algebra.dim
    for a in range(n):
        for b in range(a + 1, n):
            ab = algebra.bracket_basis(a, b)
            for c in range(b + 1, n):
                acc: dict[int, Fraction] = {}
                for t, v in ab.items():
                    for u, w in algebra.bracket_basis(t, c).items():
                        acc[u] = acc.get(u, Fraction(0)) + v * w
                for t, v in algebra.bracket_basis(b, c).items():
                    for u, w in algebra.bracket_basis(t, a).items():
                        acc[u] = acc.get(u, Fraction(0)) + v * w
                for t, v in algebra.bracket_basis(c, a).items():
                    for u, w in algebra.bracket_basis(t, b).items():
                        acc[u] = acc.get(u, Fraction(0)) + v * w
                if any(acc.values()):
                    jacobi_ok = False
                    jacobi_witness = (
                        algebra.basis[a].name,
                        algebra.basis[b].name,
                        algebra.basis[c].name,
                    )
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break

    # with every bracket graded, C^k(m) lies in degrees <= -k, so the negative
    # part is nilpotent; the lower central series only decides the rest
    nilpotent_ok = grading_ok or _negative_part_nilpotent(algebra)
    return ValidityReport(grading_ok, grading_witness, jacobi_ok, jacobi_witness, nilpotent_ok)


def _negative_part_nilpotent(algebra: GradedLieAlgebra) -> bool:
    negative = [i for i in range(algebra.dim) if algebra.degree_of(i) < 0]
    if not negative:
        return True
    current = [algebra.unit_vector(i) for i in negative]
    previous_rank = len(current)
    for _ in range(algebra.dim + 1):
        produced = []
        for a in negative:
            ea = algebra.unit_vector(a)
            for v in current:
                w = algebra.bracket(ea, v)
                if any(w):
                    produced.append(w)
        if not produced:
            return True
        _, rows = linalg.rref(RatMatrix.from_rows(produced, algebra.dim))
        current = rows
        if len(current) >= previous_rank:
            return False
        previous_rank = len(current)
    return False


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
        spanning = []
        for a in top:
            ea = symbol.unit_vector(a)
            for b in symbol.indices_of_degree(degree + 1):
                w = symbol.bracket(ea, symbol.unit_vector(b))
                if any(w):
                    spanning.append(w)
        if linalg.vectors_rank(spanning, symbol.dim) < want:
            return False
    return True


# ---------------------------------------------------------------------------
# Degree-homogeneous linear maps.


class GradedLinearMap:
    """A degree-k map, one block per graded component of the domain.

    blocks[i][a] is the image, as a coordinate vector over the degree i+k
    basis, of the a-th basis vector of degree i.  For elements of the
    prolongation only negative domain degrees occur; Spencer-operator domain
    elements may also carry blocks on non-negative degrees.
    """

    __slots__ = ("degree", "blocks")

    def __init__(self, degree: int, blocks):
        self.degree = degree
        self.blocks = {
            i: tuple(tuple(Fraction(v) for v in col) for col in cols)
            for i, cols in blocks.items()
        }

    def image_of_basis(self, i: int, a: int) -> tuple[Fraction, ...]:
        block = self.blocks.get(i)
        if block is None:
            raise KeyError(f"map has no block on degree {i}")
        return block[a]

    def apply(self, i: int, coords) -> list[Fraction]:
        """Image of a degree-i coordinate vector, as degree i+k coordinates."""
        block = self.blocks.get(i)
        if block is None or not block:
            return []
        out = [Fraction(0)] * len(block[0])
        for a, value in enumerate(coords):
            if value:
                col = block[a]
                for t, entry in enumerate(col):
                    out[t] += value * entry
        return out

    def flatten(self, layout) -> list[Fraction]:
        flat = []
        for i, dom, tgt in layout:
            block = self.blocks.get(i)
            for a in range(dom):
                if block is None:
                    flat.extend([Fraction(0)] * tgt)
                else:
                    flat.extend(block[a])
        return flat

    @classmethod
    def from_flat(cls, degree: int, layout, flat) -> "GradedLinearMap":
        blocks = {}
        pos = 0
        for i, dom, tgt in layout:
            cols = []
            for _ in range(dom):
                cols.append(tuple(flat[pos:pos + tgt]))
                pos += tgt
            blocks[i] = tuple(cols)
        if pos != len(flat):
            raise ValueError("flattened vector does not match layout")
        return cls(degree, blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedLinearMap)
            and self.degree == other.degree
            and self.blocks == other.blocks
        )

    def __repr__(self) -> str:
        shape = {i: (len(cols), len(cols[0]) if cols else 0) for i, cols in sorted(self.blocks.items())}
        return f"GradedLinearMap(degree={self.degree}, blocks={shape})"


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


def commutator_deg0(f: GradedLinearMap, g: GradedLinearMap) -> GradedLinearMap:
    """Commutator of two degree-0 maps, blockwise f g - g f."""
    if f.degree != 0 or g.degree != 0:
        raise ValueError("commutator_deg0 expects degree-0 maps")
    blocks = {}
    for i in f.blocks:
        cols = []
        for a in range(len(f.blocks[i])):
            fg = f.apply(i, g.image_of_basis(i, a))
            gf = g.apply(i, f.image_of_basis(i, a))
            cols.append([x - y for x, y in zip(fg, gf)])
        blocks[i] = cols
    return GradedLinearMap(0, blocks)


def derivation_violation(symbol: GradedLieAlgebra, f: GradedLinearMap):
    """First basis pair where the Leibniz rule fails, or None."""
    n = symbol.dim
    images = []  # f(e_a) as a sparse coordinate dictionary
    for a in range(n):
        i = symbol.degree_of(a)
        image = f.image_of_basis(i, symbol.position_in_degree(a))
        targets = symbol.indices_of_degree(i)
        if len(image) != len(targets):
            raise ValueError("coordinate count does not match degree dimension")
        images.append({c: value for c, value in zip(targets, image) if value})
    for a in range(n):
        for b in range(a + 1, n):
            # f([e_a, e_b]) - [f(e_a), e_b] - [e_a, f(e_b)]
            acc: dict[int, Fraction] = {}
            for c, v in symbol.bracket_basis(a, b).items():
                for u, w in images[c].items():
                    acc[u] = acc.get(u, Fraction(0)) + v * w
            for c, v in images[a].items():
                for u, w in symbol.bracket_basis(c, b).items():
                    acc[u] = acc.get(u, Fraction(0)) - v * w
            for c, v in images[b].items():
                for u, w in symbol.bracket_basis(a, c).items():
                    acc[u] = acc.get(u, Fraction(0)) - v * w
            if any(acc.values()):
                return (symbol.basis[a].name, symbol.basis[b].name)
    return None


class DegreeZeroAlgebra:
    """A Lie algebra of grading-preserving derivations of a fixed symbol.

    Generators are independent degree-0 maps carrying the action on all of
    the symbol.  Construction verifies the Leibniz rule on every basis pair,
    linear independence, and closure of the span under commutators; the
    commutator table in generator coordinates is recorded for later use.
    """

    def __init__(self, symbol: GradedLieAlgebra, generators):
        if not symbol.has_only_negative_degrees():
            raise ValueError("the symbol must carry negative degrees only")
        self.symbol = symbol
        self.generators = tuple(generators)
        dims = symbol.dims_by_degree()
        self._layout = map_layout(dims, 0)
        for idx, gen in enumerate(self.generators):
            if gen.degree != 0:
                raise ValueError(f"generator {idx + 1} does not have degree 0")
        flats = [g.flatten(self._layout) for g in self.generators]
        pairs = [(s, t) for s in range(len(flats)) for t in range(s + 1, len(flats))]
        comms = [
            commutator_deg0(self.generators[s], self.generators[t]).flatten(self._layout)
            for s, t in pairs
        ]
        try:
            coordinates = linalg.express_in_basis(flats, comms)
        except ValueError:
            raise ValueError("degree-zero generators are linearly dependent") from None
        for idx, gen in enumerate(self.generators):
            witness = derivation_violation(symbol, gen)
            if witness is not None:
                raise ValueError(
                    f"generator {idx + 1} is not a derivation: Leibniz fails on pair {witness}"
                )
        structure = {}
        for (s, t), coords in zip(pairs, coordinates):
            if coords is None:
                raise ValueError(
                    f"span not closed under commutator: [generator {s + 1}, generator {t + 1}] "
                    "lies outside the span"
                )
            structure[(s, t)] = tuple(coords)
        self.structure_constants = structure

    @property
    def dim(self) -> int:
        return len(self.generators)


def adjoin_g0(symbol: GradedLieAlgebra, g0: DegreeZeroAlgebra, names=None) -> GradedLieAlgebra:
    """The graded algebra on symbol + g0 with [f, v] = f(v) for f in g0."""
    if g0.symbol is not symbol and g0.symbol.basis != symbol.basis:
        raise ValueError("g0 was built for a different symbol")
    n = symbol.dim
    if names is None:
        names = [f"g0_{j + 1}" for j in range(g0.dim)]
    if len(names) != g0.dim:
        raise ValueError("one name per generator required")
    used = {e.name for e in symbol.basis}
    for name in names:
        if name in used:
            raise ValueError(f"name {name!r} collides with a symbol basis name")
        used.add(name)
    basis = list(symbol.basis) + [BasisElement(name, 0) for name in names]
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for pair in symbol.bracket_pairs():
        brackets[pair] = symbol.bracket_basis(*pair)
    for a in range(n):
        i = symbol.degree_of(a)
        pos = symbol.position_in_degree(a)
        for j, gen in enumerate(g0.generators):
            image = gen.image_of_basis(i, pos)
            terms = {}
            for t, value in zip(symbol.indices_of_degree(i), image):
                if value:
                    terms[t] = -value  # stored orientation [v, f] = -f(v)
            if terms:
                brackets[(a, n + j)] = terms
    for (s, t), coords in g0.structure_constants.items():
        terms = {n + u: value for u, value in enumerate(coords) if value}
        if terms:
            brackets[(n + s, n + t)] = terms
    return GradedLieAlgebra(basis, brackets)
