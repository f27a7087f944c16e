r"""Spencer operator matrices and normalization-condition data.

For each degree k the operator maps

    (sum over i<0 of Hom(g^i, g^{i+k+1})) + (sum over 0<=i<k of Hom(g^i, g^k))

into the structure-function target space

    (sum over i=-mu..-2 of Hom(g^-1 (x) g^i, g^{i+k}))
    + Hom(g^-1 /\ g^-1, g^{k-1})
    + (sum over 0<=i<k of Hom(g^-1 (x) g^i, g^{k-1})).

Its kernel is the next prolongation space; the image inside the target space
determines the normalization complement.  Row and column orderings are fixed
(blocks ascending, domain index outer, target coordinate inner), and in them
the matrix is block diagonal; it is never built or eliminated whole.  The
negative block N holds the tensor and wedge rows against the i < 0 columns.
The rest, Hom(g^-1 (x) g^i, g^{k-1}) against Hom(g^i, g^k), has the single
term [v1, f(v2)] = -f(v2)(v1): it is I (x) R up to a row interleaving (Van
Loan, "The ubiquitous Kronecker product", 2000), one copy of the restriction
matrix R (rows (v1, u), columns t, entries -g_k[t](v1)[u]) per basis element
v2 of degrees 0..k-1, row (v1, v2, u) being row (v1, u) of copy v2.  A
system is therefore N with its column layout, R and the copy counts
d_0, ..., d_{k-1} (d_i = dim g^i), and with c = d_0 + ... + d_{k-1} the
domain has dimension cols N + c cols R and the target rows N + c rows R.
Each block is eliminated once: the kernel is ker N exactly when R has full
column rank, the image has dimension rank N + c rank R, and the complement
is the rows of N and, in every copy, of R that elimination did not keep.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import NamedTuple

from . import linalg
from .algebra import GradedLieAlgebra, tower_dims
from .linalg import RatMatrix


class SpencerSystem:
    k: int
    layout: tuple[tuple[int, int, int], ...]  # N's column blocks (i, dim g^i, dim g^(i+k+1))
    copies: tuple[int, ...]  # copies of R on each degree i = 0..k-1 (dim g^i); () when R has no rows
    value_dim: int           # dim g^(k-1): row (v1, u) of R is row v1 * value_dim + u
    negative: RatMatrix      # N: the tensor and wedge rows against the i < 0 columns
    restriction: RatMatrix   # R: rows (v1, u), columns t, entries -g_k[t](v1)[u]

    def __init__(self, k, layout, copies, value_dim, negative, restriction):
        self.k, self.layout, self.copies, self.value_dim = k, layout, copies, value_dim
        self.negative, self.restriction = negative, restriction

    @cached_property
    def negative_echelon(self) -> linalg.Echelon:
        """The one elimination of N: the kernel, its rank and complement."""
        return linalg.rref(self.negative)

    @cached_property
    def restriction_echelon(self) -> linalg.Echelon:
        """The one elimination of R, shared by all of its copies."""
        return linalg.rref(self.restriction)

    @property
    def domain_dim(self) -> int:
        return self.negative.cols + sum(self.copies) * self.restriction.cols

    @property
    def target_dim(self) -> int:
        return self.negative.rows + sum(self.copies) * self.restriction.rows

    def restriction_rows(self):
        """(target row, copy, row of R) for every non-negative target row,
        ascending: row (v1, v2, u) of each degree's block, v1 outer."""
        row, first, dv = self.negative.rows, 0, self.value_dim
        for count in self.copies:
            for v1 in range(self.restriction.rows // dv):
                for copy in range(first, first + count):
                    for u in range(dv):
                        yield row, copy, v1 * dv + u
                        row += 1
            first += count

    @property
    def matrix(self) -> RatMatrix:
        """The whole operator, N beside the copies of R, assembled on demand for inspection."""
        rows = dict(self.negative._rows)
        for row, copy, r in self.restriction_rows():
            offset = self.negative.cols + copy * self.restriction.cols
            rows[row] = {offset + t: value for t, value in self.restriction._rows.get(r, {}).items()}
        return RatMatrix._of_rows(self.target_dim, self.domain_dim, rows)


def build_spencer(symbol: GradedLieAlgebra, g_bases, k: int) -> SpencerSystem:
    """The degree-k Spencer operator over the computed tower, as N and R.

    g_bases[l] is the computed basis of the degree-l part (g_bases[0] the
    degree-zero generators); levels up to k must be present.
    """
    if k < 0 or k >= len(g_bases):
        raise ValueError("Spencer degree outside the computed range")
    dims = tower_dims(symbol, g_bases)
    n1, dv, dk = dims.get(-1, 0), dims.get(k - 1, 0), dims.get(k, 0)
    neg_degrees = sorted(d for d in dims if d < 0)

    layout, offsets, ncols = [], {}, 0  # offsets[i]: first column of the block on g^i
    for i in neg_degrees:
        if dims[i] and dims.get(i + k + 1, 0):
            layout.append((i, dims[i], dims[i + k + 1]))
            offsets[i], ncols = ncols, ncols + dims[i] * dims[i + k + 1]

    top = symbol.indices_of_degree(-1)
    pairs = [(a1, a2) for i in neg_degrees if i != -1 and dims.get(i + k, 0)
             for a1 in top for a2 in symbol.indices_of_degree(i)]
    if dv:
        pairs += [(top[p], top[q]) for p in range(n1) for q in range(p + 1, n1)]

    def col(i, a, t):  # entry t of f(e) for e the a-th basis element of g^i
        return offsets[i] + a * dims[i + k + 1] + t

    rows = []  # of N, pair by pair
    for a1, a2 in pairs:
        # the rows of [f(v1), v2] + [v1, f(v2)] - f([v1, v2]) for v1 = e_a1 of
        # degree -1 and v2 = e_a2 of degree i2, one per coordinate of the value
        # in degree i2 + k; every term is linear in the unknown blocks of f
        i2 = symbol.degree_of(a2)
        pair_rows = [defaultdict(int) for _ in range(dims[i2 + k])]
        rows += pair_rows
        a1_pos, a2_pos = symbol.position_in_degree(a1), symbol.position_in_degree(a2)
        # [f(v1), v2]: f(v1) has degree k, expand over the degree-k basis.
        if -1 in offsets:
            for t, f in enumerate(g_bases[k]):
                for u, value in f.columns[i2][a2_pos].items():
                    pair_rows[u][col(-1, a1_pos, t)] += value
        # [v1, f(v2)] = -[f(v2), v1]: f(v2) has degree i2 + k + 1.
        mid = i2 + k + 1
        if i2 in offsets and mid < 0:
            for t, g in enumerate(symbol.indices_of_degree(mid)):
                for c, value in symbol.bracket_basis(g, a1).items():
                    pair_rows[symbol.position_in_degree(c)][col(i2, a2_pos, t)] -= value
        elif i2 in offsets:
            for t, f in enumerate(g_bases[mid]):
                for u, value in f.columns[-1][a1_pos].items():
                    pair_rows[u][col(i2, a2_pos, t)] -= value
        # -f([v1, v2]): the bracket has degree i2 - 1.
        if i2 - 1 in offsets:
            for c, value in symbol.bracket_basis(a1, a2).items():
                for t in range(dims[i2 + k]):
                    pair_rows[t][col(i2 - 1, symbol.position_in_degree(c), t)] -= value
    negative = RatMatrix._of_rows(len(rows), ncols, rows)

    # R: the value [v1, f(v2)] = -f(v2)(v1) of the non-negative rows
    restricted = defaultdict(dict)
    for t, f in enumerate(g_bases[k] if k and dv else ()):
        for a1, column in enumerate(f.columns[-1]):
            for u, value in column.items():
                restricted[a1 * dv + u][t] = -value
    restriction = RatMatrix._of_rows(n1 * dv, dk, restricted) if k else RatMatrix(0, 0)
    copies = tuple(dims[i] for i in range(k)) if n1 and dv else ()
    return SpencerSystem(k, tuple(layout), copies, dv, negative, restriction)


class NormalizationReport(NamedTuple):
    k: int
    dim_target: int
    dim_image: int
    dim_kernel: int
    dim_complement: int
    complement_indices: tuple[int, ...]


def normalization_report(system: SpencerSystem) -> NormalizationReport:
    """Rank data of the Spencer operator plus a canonical complement.

    The complement is the target coordinates of the rows that elimination
    did not keep: N's (Echelon.complement) and, in every copy, R's.  The
    kept rows span the row space, so the splitting dim target = dim image
    + dim complement is exact.
    """
    negative, restriction = system.negative_echelon, system.restriction_echelon
    kept = set(restriction.kept)
    complement = tuple(negative.complement()) + tuple(
        row for row, _, r in system.restriction_rows() if r not in kept
    )
    image = negative.rank + sum(system.copies) * restriction.rank
    report = NormalizationReport(
        k=system.k,
        dim_target=system.target_dim,
        dim_image=image,
        dim_kernel=system.domain_dim - image,
        dim_complement=len(complement),
        complement_indices=complement,
    )
    if report.dim_target != report.dim_image + report.dim_complement:
        raise linalg.InternalConsistencyError(
            f"normalization at k={system.k}: dim target != dim image + dim complement"
        )
    return report
