r"""Spencer operator matrices and normalization-condition data.

For each degree k the operator maps

    (sum over i<0 of Hom(g^i, g^{i+k+1})) + (sum over 0<=i<k of Hom(g^i, g^k))

into the structure-function target space

    (sum over i=-mu..-2 of Hom(g^-1 (x) g^i, g^{i+k}))
    + Hom(g^-1 /\ g^-1, g^{k-1})
    + (sum over 0<=i<k of Hom(g^-1 (x) g^i, g^{k-1})).

Its kernel is the next prolongation space; the image inside the target space
determines the normalization complement.  Both come from one elimination of
the matrix, ``SpencerSystem.echelon``.  Row and column orderings are fixed
(blocks ascending, domain index outer, target coordinate inner) so that the
matrix, and everything derived from it, is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebra import GradedLieAlgebra, tower_dims
from .linalg import RatMatrix


@dataclass(frozen=True)
class DomainBlock:
    kind: str       # "neg" or "pos"
    degree: int     # domain degree i
    dim_domain: int
    dim_target: int

    @property
    def size(self) -> int:
        return self.dim_domain * self.dim_target


@dataclass(frozen=True)
class TargetBlock:
    kind: str       # "tensor", "wedge" or "pos"
    degree: int     # second-argument degree i (wedge uses -1)
    pairs: int      # number of (v1, v2) argument pairs
    dim_value: int  # dimension of the value space

    @property
    def size(self) -> int:
        return self.pairs * self.dim_value


@dataclass(frozen=True)
class SpencerSystem:
    k: int
    domain_layout: tuple[DomainBlock, ...]
    target_layout: tuple[TargetBlock, ...]
    matrix: RatMatrix

    @cached_property
    def echelon(self) -> linalg.Echelon:
        """The one elimination of the matrix: its kernel, rank and complement."""
        return linalg.rref(self.matrix)

    @property
    def domain_dim(self) -> int:
        return sum(b.size for b in self.domain_layout)

    @property
    def target_dim(self) -> int:
        return sum(b.size for b in self.target_layout)

    def negative_map_layout(self) -> list[tuple[int, int, int]]:
        return [
            (b.degree, b.dim_domain, b.dim_target)
            for b in self.domain_layout
            if b.kind == "neg"
        ]

    def split_domain_vector(self, vector):
        """(negative-block part, positive-block part) of a domain vector."""
        negative, positive = [], []
        pos = 0
        for block in self.domain_layout:
            chunk = vector[pos:pos + block.size]
            pos += block.size
            (negative if block.kind == "neg" else positive).extend(chunk)
        return negative, positive


def _column_offsets(layout):
    offsets = {}
    pos = 0
    for block in layout:
        offsets[(block.kind, block.degree)] = pos
        pos += block.size
    return offsets, pos


def build_spencer(symbol: GradedLieAlgebra, g_bases, k: int) -> SpencerSystem:
    """Assemble the degree-k Spencer matrix over the computed tower.

    g_bases[l] is the computed basis of the degree-l part (g_bases[0] the
    degree-zero generators); levels up to k must be present.
    """
    if k < 0 or k >= len(g_bases):
        raise ValueError("Spencer degree outside the computed range")
    dims = tower_dims(symbol, g_bases)
    n1 = dims.get(-1, 0)
    neg_degrees = sorted(d for d in dims if d < 0)

    domain: list[DomainBlock] = []
    for i in neg_degrees:
        tgt = dims.get(i + k + 1, 0)
        if dims[i] and tgt:
            domain.append(DomainBlock("neg", i, dims[i], tgt))
    for i in range(0, k):
        if dims.get(i, 0) and dims.get(k, 0):
            domain.append(DomainBlock("pos", i, dims[i], dims[k]))
    domain_tuple = tuple(domain)
    col_offsets, ncols = _column_offsets(domain_tuple)

    target: list[TargetBlock] = []
    for i in neg_degrees:
        if i == -1:
            continue
        value_dim = dims.get(i + k, 0)
        if dims[i] and n1 and value_dim:
            target.append(TargetBlock("tensor", i, n1 * dims[i], value_dim))
    wedge_pairs = n1 * (n1 - 1) // 2
    wedge_value = dims.get(k - 1, 0)
    if wedge_pairs and wedge_value:
        target.append(TargetBlock("wedge", -1, wedge_pairs, wedge_value))
    for i in range(0, k):
        value_dim = dims.get(k - 1, 0)
        if n1 and dims.get(i, 0) and value_dim:
            target.append(TargetBlock("pos", i, n1 * dims[i], value_dim))
    target_tuple = tuple(target)
    nrows = sum(b.size for b in target_tuple)

    matrix = RatMatrix(nrows, ncols)

    def col_neg(i, a, t, tgt_dim):
        return col_offsets[("neg", i)] + a * tgt_dim + t

    def col_pos(i, a, t):
        return col_offsets[("pos", i)] + a * dims[k] + t

    row_base = 0
    top = symbol.indices_of_degree(-1)
    for block in target_tuple:
        if block.kind == "tensor":
            i = block.degree
            tgt_deg = i + k
            for a1 in top:
                for a2 in symbol.indices_of_degree(i):
                    _emit_negative_pair_rows(
                        symbol, g_bases, dims, matrix, row_base,
                        a1, a2, k, col_offsets, col_neg, tgt_deg,
                    )
                    row_base += block.dim_value
        elif block.kind == "wedge":
            for p in range(n1):
                for q in range(p + 1, n1):
                    _emit_negative_pair_rows(
                        symbol, g_bases, dims, matrix, row_base,
                        top[p], top[q], k, col_offsets, col_neg, k - 1,
                    )
                    row_base += block.dim_value
        else:  # pos: value is [v1, f(v2)] = -f(v2)(v1) for v2 in the level-i basis
            i = block.degree
            for a1 in top:
                v1_pos = symbol.position_in_degree(a1)
                for t2 in range(dims[i]):
                    for t in range(dims[k]):
                        action = g_bases[k][t].image_of_basis(-1, v1_pos)
                        col = col_pos(i, t2, t)
                        for u, value in enumerate(action):
                            if value:
                                matrix.add_to(row_base + u, col, -value)
                    row_base += block.dim_value
    return SpencerSystem(k, domain_tuple, target_tuple, matrix)


def _emit_negative_pair_rows(symbol, g_bases, dims, matrix, row_base,
                             a1, a2, k, col_offsets, col_neg, tgt_deg):
    """Rows of [f(v1), v2] + [v1, f(v2)] - f([v1, v2]) for v1 = e_a1, v2 = e_a2.

    v1 has degree -1; the value lives in the degree tgt_deg component and
    every term is linear in the unknown blocks of f.
    """
    i2 = symbol.degree_of(a2)
    a1_pos = symbol.position_in_degree(a1)
    a2_pos = symbol.position_in_degree(a2)
    value_dim = dims.get(tgt_deg, 0)
    if not value_dim:
        return

    # [f(v1), v2]: f(v1) has degree k, expand over the degree-k basis.
    tgt1 = dims.get(k, 0)
    if tgt1 and ("neg", -1) in col_offsets:
        for t in range(tgt1):
            col = col_neg(-1, a1_pos, t, tgt1)
            action = g_bases[k][t].apply(i2, _unit(dims[i2], a2_pos))
            for u, value in enumerate(action):
                if value:
                    matrix.add_to(row_base + u, col, value)

    # [v1, f(v2)] = -[f(v2), v1]: f(v2) has degree i2 + k + 1.
    mid = i2 + k + 1
    tgt2 = dims.get(mid, 0)
    if tgt2 and ("neg", i2) in col_offsets:
        if mid < 0:
            for t, g in enumerate(symbol.indices_of_degree(mid)):
                col = col_neg(i2, a2_pos, t, tgt2)
                for c, value in symbol.bracket_basis(g, a1).items():
                    u = symbol.position_in_degree(c)
                    matrix.add_to(row_base + u, col, -value)
        else:
            for t in range(tgt2):
                col = col_neg(i2, a2_pos, t, tgt2)
                action = g_bases[mid][t].apply(-1, _unit(dims[-1], a1_pos))
                for u, value in enumerate(action):
                    if value:
                        matrix.add_to(row_base + u, col, -value)

    # -f([v1, v2]): the bracket has degree i2 - 1.
    low = i2 - 1
    tgt3 = dims.get(low + k + 1, 0)
    if tgt3 and ("neg", low) in col_offsets:
        for c, value in symbol.bracket_basis(a1, a2).items():
            c_pos = symbol.position_in_degree(c)
            for t in range(tgt3):
                col = col_neg(low, c_pos, t, tgt3)
                matrix.add_to(row_base + t, col, -value)


def _unit(size, position):
    v = [Fraction(0)] * size
    v[position] = Fraction(1)
    return v


@dataclass(frozen=True)
class NormalizationReport:
    k: int
    dim_target: int
    dim_image: int
    dim_kernel: int
    dim_complement: int
    complement_indices: tuple[int, ...]


def normalization_report(system: SpencerSystem) -> NormalizationReport:
    """Rank data of the Spencer matrix plus a canonical complement.

    The complement is the target coordinates of the rows that elimination
    did not keep (Echelon.complement); the kept rows span the row space, so
    the splitting dim target = dim image + dim complement is exact.
    """
    echelon = system.echelon
    complement = tuple(echelon.complement())
    report = NormalizationReport(
        k=system.k,
        dim_target=system.target_dim,
        dim_image=echelon.rank,
        dim_kernel=system.domain_dim - echelon.rank,
        dim_complement=len(complement),
        complement_indices=complement,
    )
    if report.dim_target != report.dim_image + report.dim_complement:
        raise linalg.InternalConsistencyError(
            f"normalization at k={system.k}: dim target != dim image + dim complement"
        )
    return report
