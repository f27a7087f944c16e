"""A closed-form oracle for the whole pipeline: simple graded Lie algebras.

The negative part of sl(n), graded by a nonempty set S of marked simple
roots alpha_1, ..., alpha_(n-1), is built from the matrix units E_ij with
i > j: E_ij has degree minus the number of marked roots among
alpha_(j+1), ..., alpha_i, and [E_ij, E_kl] = d_jk E_il - d_li E_kj.  With
its full degree-zero derivations it prolongs back to sl(n) itself, except
for the gradings Yamaguchi lists for A_l (K. Yamaguchi, "Differential
systems associated with simple graded Lie algebras", Adv. Stud. Pure Math.
22 (1993), 413-494, section 5): |S| = 1, S = {1, i} and S = {i, n - 1},
whose prolongation is larger.  So every other grading terminates at degree
|S| + 1 with the root counts as its graded dimensions, a valid bracket table
and the Killing signature of split sl(n, R).  The free 2-step nilpotent
algebra on n generators prolongs to so(n, n + 1) in the same way; n = 3 is
Bryant's (3, 6) case.  None of this theory shares code with the engine.
"""

import functools
from collections import Counter
from itertools import combinations

import pytest

from gradedlie import (
    BasisElement,
    GradedLieAlgebra,
    check_validity,
    degree_zero_derivations,
    free_nilpotent,
    killing_form,
    universal_prolongation,
)

GRADINGS = [(n, marked) for n in range(3, 7) for size in range(1, n)
            for marked in combinations(range(1, n), size)]


def yamaguchi_exception(n, marked):
    """The A_(n-1) gradings whose negative part prolongs beyond sl(n)."""
    return len(marked) == 1 or (len(marked) == 2 and (1 in marked or n - 1 in marked))


def gradings(exceptional):
    return [pytest.param(n, marked, id=f"sl{n}-" + "".join(map(str, marked)))
            for n, marked in GRADINGS if yamaguchi_exception(n, marked) == exceptional]


def marked_between(marked, i, j):
    """How many marked roots alpha_(j+1), ..., alpha_i the root of E_ij holds (matrix indices from 0)."""
    return sum(j < k <= i for k in marked)


def sl_negative_part(n, marked):
    units = sorted(((i, j) for i in range(n) for j in range(i) if marked_between(marked, i, j)),
                   key=lambda u: (marked_between(marked, *u), u))
    index = {u: a for a, u in enumerate(units)}
    brackets = {}
    for a, (i, j) in enumerate(units):
        for b in range(a + 1, len(units)):
            k, l = units[b]
            if j == k:
                brackets[(a, b)] = {index[(i, l)]: 1}
            elif l == i:
                brackets[(a, b)] = {index[(k, j)]: -1}
    basis = [BasisElement(f"E{i + 1}{j + 1}", -marked_between(marked, i, j)) for i, j in units]
    return GradedLieAlgebra(basis, brackets)


def sl_dimensions(n, marked):
    """Graded dimensions of sl(n): one root vector per root and its negative, n - 1 in degree 0."""
    dims = Counter({0: n - 1})
    for i in range(n):
        for j in range(i):
            depth = marked_between(marked, i, j)
            dims[-depth] += 1
            dims[depth] += 1
    return dict(dims)


def prolong(symbol, cutoff):
    return universal_prolongation(symbol, degree_zero_derivations(symbol), cutoff)


@functools.cache
def prolonged_grading(n, marked):
    """The grading's negative part prolonged to cutoff |S| + 1, once per test session."""
    return prolong(sl_negative_part(n, marked), len(marked) + 1)


@functools.cache
def prolonged_free(n):
    """free:n:2 prolonged to cutoff 3, once per test session."""
    return prolong(free_nilpotent(n, 2), 3)


def test_gradings_are_every_nonempty_set_of_marked_roots():
    assert len(GRADINGS) == 2 ** 2 + 2 ** 3 + 2 ** 4 + 2 ** 5 - 4
    assert sum(yamaguchi_exception(*case) for case in GRADINGS) == 3 + 6 + 9 + 12


@pytest.mark.parametrize("n, marked", gradings(False))
def test_parabolic_grading_prolongs_to_sl_n(n, marked):
    result = prolonged_grading(n, marked)
    assert result.terminated and result.vanishing_degree == len(marked) + 1
    assert result.dims == sl_dimensions(n, marked) and result.total_dimension == n * n - 1
    assert check_validity(result.algebra).ok
    killing = killing_form(result.algebra)
    assert killing.nondegenerate and killing.signature == (n * (n + 1) // 2 - 1, n * (n - 1) // 2)


@pytest.mark.parametrize("n, marked", gradings(True))
def test_yamaguchi_exception_prolongs_beyond_sl_n(n, marked):
    result = prolonged_grading(n, marked)
    assert not result.terminated or result.dims != sl_dimensions(n, marked)


@pytest.mark.parametrize("n", range(3, 7))
def test_free_two_step_algebra_prolongs_to_split_so(n):
    result = prolonged_free(n)
    pairs = n * (n - 1) // 2
    assert result.terminated and result.vanishing_degree == 3
    assert result.dims == {-2: pairs, -1: n, 0: n * n, 1: n, 2: pairs}
    assert result.total_dimension == n * (2 * n + 1)
    assert check_validity(result.algebra).ok
    killing = killing_form(result.algebra)
    assert killing.nondegenerate and killing.signature == (n * (n + 1), n * n)
