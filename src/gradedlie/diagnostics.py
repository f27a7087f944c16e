"""Structural diagnostics of an assembled algebra: Killing form, signature,
semisimplicity, center, and the graded pairing check.  Signatures come from
exact symmetric congruence, never from numerical eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import GradedLieAlgebra
from .linalg import RatMatrix


@dataclass(frozen=True)
class KillingData:
    matrix: RatMatrix
    rank: int
    signature: tuple[int, int]
    nondegenerate: bool


def killing_form(algebra: GradedLieAlgebra) -> KillingData:
    """Exact trace form k(a, b) = tr(ad a . ad b) with rank and signature."""
    n = algebra.dim
    ads = []
    for a in range(n):
        entries = {}
        for b in range(n):
            for c, value in algebra.bracket_basis(a, b).items():
                entries[(c, b)] = value
        ads.append(entries)
    matrix = RatMatrix(n, n)
    for a in range(n):
        for b in range(a, n):
            trace = Fraction(0)
            for (x, y), value in ads[a].items():
                other = ads[b].get((y, x))
                if other:
                    trace += value * other
            if trace:
                matrix.set(a, b, trace)
                matrix.set(b, a, trace)
    pos, neg = symmetric_signature(matrix.dense_rows())
    rank = pos + neg
    return KillingData(matrix, rank, (pos, neg), rank == n)


def symmetric_signature(rows) -> tuple[int, int]:
    """Sylvester signature of a symmetric rational matrix.

    Simultaneous row and column elimination keeps the matrix congruent to
    the input; a zero diagonal with a nonzero off-diagonal entry is repaired
    by adding the partner row and column, which works over Q.
    """
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    for p in range(n):
        if len(m[p]) != n:
            raise ValueError("signature needs a square matrix")
        for q in range(p + 1, n):
            if m[p][q] != m[q][p]:
                raise ValueError("signature needs a symmetric matrix")
    pos = neg = 0
    i = 0
    while i < n:
        pivot = None
        for j in range(i, n):
            if m[j][j]:
                pivot = j
                break
        if pivot is None:
            found = None
            for p in range(i, n):
                for q in range(p + 1, n):
                    if m[p][q]:
                        found = (p, q)
                        break
                if found:
                    break
            if found is None:
                break
            p, q = found
            for c in range(n):
                m[p][c] += m[q][c]
            for r in range(n):
                m[r][p] += m[r][q]
            pivot = p
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            for r in range(n):
                m[r][i], m[r][pivot] = m[r][pivot], m[r][i]
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            f = m[r][i] / d
            if f:
                for c in range(n):
                    m[r][c] -= f * m[i][c]
                for c in range(n):
                    m[c][r] -= f * m[c][i]
        i += 1
    return pos, neg


def is_semisimple(algebra: GradedLieAlgebra) -> bool:
    """Cartan's criterion: nondegenerate Killing form."""
    return killing_form(algebra).nondegenerate


def graded_pairing_check(algebra: GradedLieAlgebra) -> bool:
    """k(g^i, g^j) = 0 whenever i + j != 0; a structure-constant self-test."""
    return _graded_pairing_ok(algebra, killing_form(algebra))


def _graded_pairing_ok(algebra: GradedLieAlgebra, data: KillingData) -> bool:
    return not any(
        value and algebra.degree_of(a) + algebra.degree_of(b) != 0
        for (a, b), value in data.matrix.items()
    )


def center(algebra: GradedLieAlgebra):
    """Basis of the center, from the stacked adjoint conditions."""
    n = algebra.dim
    entries = [((b * n + c, a), value) for a in range(n) for b in range(n)
               for c, value in algebra.bracket_basis(a, b).items()]
    return linalg.nullspace(RatMatrix(n * n, n, entries))


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
        "graded_pairing_ok": _graded_pairing_ok(algebra, data),
    }
