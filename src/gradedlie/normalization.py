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
is the rows of N and, in every copy, of R that elimination did not keep,
written by offset.  N is built over the Spencer side's own action lists,
which share nothing with the Leibniz build, so the two routes stay
independent.
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
        ascending: row (v1, v2, u) of each degree's block, v1 outer.  In the
        package only matrix reads it; normalization_report writes the
        complement by offset instead of walking every row."""
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
    degree-zero generators); levels up to k must be present.  The rows of N
    are emitted pair by pair, each entry written once, and a row is made on
    its first entry.  Each term of a pair's rows depends on less than the
    pair, so its nonzero action is listed once, on first use, as (u, t,
    value) triples: [f(v1), v2] once per v2, read off the degree-k basis
    maps x_t as [x_t, v2] = sum of value y_u; [v1, f(v2)] = -[f(v2), v1]
    once per (mid, v1), mid the degree of f(v2), read straight from the
    symbol's table (mid < 0) or the tower's degree -1 columns.
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

    brackets, positions = symbol.rows, symbol._positions
    degrees = [e.degree for e in symbol.basis]
    left: dict[int, list] = {}                # v2 -> the triples of [x_t, v2], x_t of degree k
    right: dict[tuple[int, int], list] = {}   # (mid, v1) -> the triples of [x_t, v1], x_t of degree mid

    def right_action(mid, a1):
        if mid >= 0:
            pos = positions[a1]
            return [(u, t, value) for t, f in enumerate(g_bases[mid])
                    for u, value in f.columns[-1][pos].items()]
        acts = []
        for t, g in enumerate(symbol.indices_of_degree(mid)):
            sign, low, high = (1, g, a1) if g < a1 else (-1, a1, g)
            acts += [(positions[c], t, sign * value) for c, value in brackets[low].get(high, {}).items()]
        return acts

    rows = defaultdict(dict)  # row -> {column: value}
    nrows = 0
    for a1, a2 in pairs:
        # the rows of [f(v1), v2] + [v1, f(v2)] - f([v1, v2]) for v1 = e_a1 of
        # degree -1 and v2 = e_a2 of degree i2, one per coordinate of the value
        # in degree i2 + k; every term is linear in the unknown blocks of f
        i2 = degrees[a2]
        size = dims[i2 + k]
        base, nrows = nrows, nrows + size
        # [f(v1), v2]: f(v1) has degree k, expanded over the degree-k basis.
        if -1 in offsets:
            acts = left.get(a2)
            if acts is None:
                pos = positions[a2]
                acts = left[a2] = [(u, t, value) for t, f in enumerate(g_bases[k])
                                   for u, value in f.columns[i2][pos].items()]
            first = offsets[-1] + positions[a1] * dk
            for u, t, value in acts:
                rows[base + u][first + t] = value
        # [v1, f(v2)] = -[f(v2), v1]: f(v2) has degree mid = i2 + k + 1.
        if i2 in offsets:
            mid = i2 + k + 1
            acts = right.get((mid, a1))
            if acts is None:
                acts = right[(mid, a1)] = right_action(mid, a1)
            first = offsets[i2] + positions[a2] * dims[mid]
            for u, t, value in acts:
                rows[base + u][first + t] = -value
        # -f([v1, v2]): the bracket has degree i2 - 1; row base + u meets
        # entry u of f(e_c), column offsets[i2 - 1] + positions[c] * size + u.
        if i2 - 1 in offsets:
            sign, low, high = (-1, a1, a2) if a1 < a2 else (1, a2, a1)
            for c, value in brackets[low].get(high, {}).items():
                first = offsets[i2 - 1] + positions[c] * size - base
                for r in range(base, nrows):
                    rows[r][first + r] = sign * value
    negative = RatMatrix._of_rows(nrows, ncols, rows)

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
    positions u whose row v1 * dv + u of R was not kept are listed once per
    v1; copy j of the block of `count` copies that starts at target row
    `start` then holds them at start + (v1 * count + j) * dv + u, in the
    order of restriction_rows (v1 outer, copy, then u).  The kept rows span
    the row space, so the splitting dim target = dim image + dim complement
    is exact.
    """
    negative, restriction = system.negative_echelon, system.restriction_echelon
    complement, start, dv = negative.complement(), system.negative.rows, system.value_dim
    if system.copies:
        kept = set(restriction.kept)
        dropped = [[u for u in range(dv) if v1 * dv + u not in kept]  # per v1, the u not kept
                   for v1 in range(system.restriction.rows // dv)]
        for count in system.copies:
            for v1, us in enumerate(dropped):
                for copy in range(count):
                    first = start + (v1 * count + copy) * dv
                    complement += [first + u for u in us]
            start += count * system.restriction.rows
    complement = tuple(complement)
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
