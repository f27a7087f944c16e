"""Structural diagnostics of an assembled algebra: Killing form, signature,
semisimplicity, center, and the graded pairing check.  Signatures come from
exact fraction-free symmetric congruence on integer matrices (the Killing
traces of the bracket table scaled to integers, or a rational matrix with
its denominators cleared), never from numerical eigenvalues.  Both follow
the nonzero structure: each trace pairs the ad entries at a position
(x, y) with those at (y, x), and the congruence runs on each connected
block of the matrix's nonzero pattern separately.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

from . import linalg
from .algebra import GradedLieAlgebra, _integral_rows
from .linalg import RatMatrix


class KillingData(NamedTuple):
    matrix: RatMatrix
    rank: int
    signature: tuple[int, int]
    nondegenerate: bool


def killing_form(algebra: GradedLieAlgebra) -> KillingData:
    """Exact trace form k(a, b) = tr(ad a . ad b) with rank and signature.

    The traces are taken over the ad matrices of the bracket table scaled to
    integers by L; a trace is bilinear in the table, so it is L^2 k(a, b),
    and the signature is read off that integer matrix.
    """
    n = algebra.dim
    rows, scale = _integral_rows(algebra.rows)
    # groups[(x, y)]: the (a, v) with v = ad(e_a)[x][y] nonzero
    groups: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for a, row in enumerate(rows):
        for b, terms in row.items():
            for c, value in terms.items():
                groups[(c, b)].append((a, value))
                groups[(c, a)].append((b, -value))
    traces: list[dict[int, int]] = [{} for _ in range(n)]
    for (x, y), group in groups.items():
        partner = groups.get((y, x))
        if partner:
            for a, value in group:
                row = traces[a]
                for b, other in partner:
                    row[b] = row.get(b, 0) + value * other
    traces = [{b: t for b, t in row.items() if t} for row in traces]
    matrix = RatMatrix._of_rows(n, n, [{b: linalg._ratio(t, scale * scale) for b, t in row.items()}
                                       for row in traces])
    pos, neg = _signature(traces)
    rank = pos + neg
    return KillingData(matrix, rank, (pos, neg), rank == n)


def symmetric_signature(rows) -> tuple[int, int]:
    """Sylvester signature of a symmetric rational matrix, read off the
    integer matrix that clears its denominators, a positive multiple."""
    m = [[linalg._frac(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("signature needs a square matrix")
    for p in range(n):
        for q in range(p + 1, n):
            if m[p][q] != m[q][p]:
                raise ValueError("signature needs a symmetric matrix")
    table, _ = linalg._integral({r: dict(enumerate(row)) for r, row in enumerate(m)})
    return _signature([{c: v for c, v in table[r].items() if v} for r in range(n)])


def _signature(rows: list[dict[int, int]]) -> tuple[int, int]:
    """Signature of the symmetric integer matrix with sparse rows `rows`.

    A symmetric permutation is a congruence, so by Sylvester's law the
    signature adds up over the connected blocks of the nonzero pattern.
    Each block m is reduced by fraction-free congruence: a nonzero diagonal
    entry d splits off, and the trailing block B with off-diagonal column f
    becomes |d| times its Schur complement, |d| B - sign(d) f f^T, divided
    by its positive content; a zero diagonal with a nonzero off-diagonal
    entry is first repaired by adding the partner row and column.
    """
    pos = neg = 0
    seen = [False] * len(rows)
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j in rows[i]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        m = [[rows[i].get(j, 0) for j in block] for i in block]
        while m:
            n = len(m)
            i = next((j for j in range(n) if m[j][j]), None)
            if i is None:
                pair = next(((p, q) for p in range(n) for q in range(p + 1, n) if m[p][q]), None)
                if pair is None:
                    break
                i, q = pair
                m[i] = [x + y for x, y in zip(m[i], m[q])]
                for row in m:
                    row[i] += row[q]
            d = m[i][i]
            pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
            f = m.pop(i)
            for row in (f, *m):
                del row[i]
            signed = f if d > 0 else [-x for x in f]
            m = [[abs(d) * x - fr * fc for x, fc in zip(row, signed)] for row, fr in zip(m, f)]
            g = math.gcd(*(x for row in m for x in row))
            if g > 1:
                m = [[x // g for x in row] for row in m]
    return pos, neg


def is_semisimple(algebra: GradedLieAlgebra) -> bool:
    """Cartan's criterion: nondegenerate Killing form."""
    return killing_form(algebra).nondegenerate


def center(algebra: GradedLieAlgebra):
    """Basis of the center, from the stacked adjoint conditions: the
    condition (b, c) on z = sum z_a e_a is that [z, e_b] has no e_c
    coordinate.  Each distinct condition, keyed by its sorted items, is
    stacked once, since a repeated row adds nothing to the kernel.  The
    pairs are read in ascending order, rows in turn and each row's keys
    sorted, so every row gets its columns in ascending order (those below b
    from pairs (a, b), then those above b from pairs (b, a)) and its items
    are already sorted."""
    n = algebra.dim
    rows: dict[int, dict[int, linalg.Rational]] = defaultdict(dict)  # row (b, c), column a: [e_a, e_b]_c
    for a, row in enumerate(algebra.rows):
        for b in sorted(row):
            for c, value in row[b].items():
                rows[b * n + c][a], rows[a * n + c][b] = value, -value
    distinct = {tuple(row.items()): row for row in rows.values()}
    return linalg.nullspace(RatMatrix._of_rows(len(distinct), n, list(distinct.values())))


def fingerprint(algebra: GradedLieAlgebra) -> dict:
    """Identification data: dimensions, Killing rank and signature,
    semisimplicity, center dimension, graded pairing."""
    data = killing_form(algebra)
    dims = algebra.dims_by_degree()
    return {
        "dimension": algebra.dim,
        "graded_dimensions": [[d, dims[d]] for d in sorted(dims)],
        "killing_rank": data.rank,
        "killing_signature": list(data.signature),
        "killing_nondegenerate": data.nondegenerate,
        "semisimple": data.nondegenerate,
        "center_dimension": len(center(algebra)),
        # k(g^i, g^j) = 0 whenever i + j != 0: a structure-constant self-test
        "graded_pairing_ok": not any(value and algebra.degree_of(a) + algebra.degree_of(b)
                                     for (a, b), value in data.matrix.items()),
    }
