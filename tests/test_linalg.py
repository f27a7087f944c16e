import contextlib
import io
import math
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradedlie
from gradedlie import cli, linalg, prolongation
from gradedlie.algebra import check_validity
from gradedlie.diagnostics import killing_form, symmetric_signature
from gradedlie.linalg import (
    Echelon,
    InternalConsistencyError,
    RatMatrix,
    column_complement,
    express_in_basis,
    nullspace,
    rank,
    rref,
    solve,
    solve_many,
    vectors_rank,
)

from conftest import canonical

F = Fraction

ROOT = Path(__file__).resolve().parents[1]


def matvec(mat, vector):
    """A v as a dense vector, the reference for the exact checks."""
    out = [F(0)] * mat.rows
    for (r, c), value in mat.items():
        out[r] += value * vector[c]
    return out


def dense_rows(mat):
    """The rows of `mat` as dense lists of Fractions."""
    rows = [[F(0)] * mat.cols for _ in range(mat.rows)]
    for (r, c), value in mat.items():
        rows[r][c] = value
    return rows


def naive_reduce(rows):
    """Independent dense Gauss-Jordan over Fractions, for cross-checks."""
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return [], []
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def matrices(draw, max_dim=5):
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(fractions_st, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return RatMatrix.from_rows(rows, ncols)


def test_nullspace_of_zero_map():
    assert nullspace(RatMatrix(1, 1)) == [[F(1)]]


def test_nullspace_of_identity_is_trivial():
    eye = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert nullspace(eye) == []


def test_nullspace_rank_deficient():
    mat = RatMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(mat)
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    for v in basis:
        assert matvec(mat, v) == [F(0), F(0)]
    pivots, _ = naive_reduce([[1, 2, 3], [2, 4, 6]])
    assert len(pivots) == 1  # rank by the independent reducer


def test_rank_examples():
    assert rank(RatMatrix(2, 5)) == 0
    assert rank(RatMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1


def test_solve_identity():
    eye = RatMatrix.from_rows([[1, 0], [0, 1]])
    assert solve(eye, [F(3), F(-7, 2)]) == [F(3), F(-7, 2)]


def test_solve_zeroes_free_variables():
    assert solve(RatMatrix.from_rows([[1, 1]]), [2]) == [F(2), F(0)]


def test_solve_inconsistent_returns_none():
    assert solve(RatMatrix.from_rows([[1], [2]]), [1, 1]) is None


def test_solve_many_returns_sparse_solutions():
    mat = RatMatrix.from_rows([[1, 1, 0], [0, 0, 2]])
    # zero free coordinates, zero right-hand side entries ignored, None when inconsistent
    assert solve_many(mat, [{0: F(2), 1: F(4)}, {}, {1: F(0)}]) == [{0: F(2), 2: F(2)}, {}, {}]
    assert solve_many(RatMatrix.from_rows([[1], [2]]), [{0: 1, 1: 2}, {0: 1, 1: 1}]) == [{0: F(1)}, None]


def test_column_complement_identity():
    eye = RatMatrix.from_rows([[1, 0], [0, 1]])
    assert column_complement(eye) == []


def test_column_complement_zero_matrix():
    assert column_complement(RatMatrix(3, 2)) == [0, 1, 2]


def test_column_complement_reads_nonpivot_coordinates():
    mat = RatMatrix.from_rows([[1], [1], [0]])
    assert column_complement(mat) == [1, 2]


def test_invertibility_and_signature_of_small_forms():
    assert rank(RatMatrix.from_rows([[2, 1], [1, 2]])) == 2
    assert symmetric_signature([[2, 1], [1, 2]]) == (2, 0)
    assert rank(RatMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert symmetric_signature([[1, 2], [2, 4]]) == (1, 0)
    assert rank(RatMatrix.from_rows([[0, 1], [1, 0]])) == 2
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)


def test_express_in_basis():
    basis = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    assert express_in_basis(basis, []) == []
    # zero entries are ignored, coordinates come back sparse
    assert express_in_basis(basis, [{0: F(1), 1: F(3), 2: F(2)}, {2: F(1)}, {}, {1: F(0)}]) == [
        {0: F(1), 1: F(2)}, None, {}, {}]
    assert express_in_basis([], [{}, {0: F(1)}]) == [{}, None]


def test_echelon_coordinates():
    # a basis already in reduced echelon form: coordinates are the pivot entries
    basis = [[F(1), F(0), F(2), F(0)], [F(0), F(0), F(0), F(1)]]
    pivots, _ = rref(RatMatrix.from_rows(basis))
    assert pivots == (0, 3)
    assert express_in_basis(basis, [
        {0: F(3), 2: F(6), 3: F(-1)},
        {1: F(1)},
        {0: F(1)},
    ]) == [{0: F(3), 1: F(-1)}, None, None]
    assert express_in_basis([], [{}]) == [{}]


def test_express_in_basis_rejects_dependent_vectors_and_bad_shapes():
    # the basis is checked even when there is nothing to express
    with pytest.raises(ValueError, match="dependent"):
        express_in_basis([[F(0), F(0)]], [])
    with pytest.raises(ValueError, match="unequal"):
        express_in_basis([[F(1), F(0)], [F(1)]], [])


def test_express_in_basis_rejects_a_float_zero_in_the_basis():
    # a zero entry is dropped from the sparse matrix, but it is checked first
    with pytest.raises(TypeError, match="floats"):
        express_in_basis([[0.0, 1]], [{1: 1}])


def test_public_constructors_keep_their_checks():
    # a later entry overrides an earlier one, and a zero removes it
    mat = RatMatrix(2, 3, [((1, 2), 5), ((0, 1), F(1, 2)), ((1, 2), 0), ((1, 0), 3)])
    assert mat.items() == [((0, 1), F(1, 2)), ((1, 0), F(3))]
    assert (mat.nnz, mat.get(1, 2), mat.get(0, 1)) == (2, F(0), F(1, 2))
    assert mat == RatMatrix.from_rows([[0, F(1, 2), 0], [3, 0, 0]])
    assert RatMatrix(2, 2, {(0, 0): 0}) == RatMatrix(2, 2) != RatMatrix(2, 3)
    with pytest.raises(IndexError):
        mat.get(2, 0)
    with pytest.raises(ValueError, match="non-negative"):
        RatMatrix.from_rows([], -1)
    with pytest.raises(ValueError, match="unequal length"):
        RatMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError, match="does not match row count"):
        solve(RatMatrix.from_rows([[1, 0], [0, 1]]), [1])


@pytest.mark.parametrize("build", [
    lambda: RatMatrix(1, 1, {(0, 1): 1}),
    lambda: RatMatrix(1, 1, {(-1, 0): 1}),
    lambda: solve_many(RatMatrix(1, 1), [{1: 1}]),
    lambda: solve_many(RatMatrix(1, 1), [{-1: 1}]),
    lambda: express_in_basis([[F(1)]], [{-1: 1}]),
], ids=["matrix-column", "matrix-row", "rhs-beyond", "rhs-negative", "target-negative"])
def test_public_indices_outside_the_shape_raise_index_error(build):
    with pytest.raises(IndexError):
        build()


def test_engine_built_matrices_hold_nonzero_exact_rationals_in_range(monkeypatch):
    # every matrix the engine builds from its own rows, the assembled bracket
    # table and the columns of every tower map, over the corpus and the
    # benchmark specs, and the rows of the builders whose sums and products
    # of Fractions come out integral (two g0 builders, the lower central
    # series of an ungraded table, degree -1 blocks extended in one solve):
    # no empty row, no zero, no value out of canonical form, no index outside
    # the shape; `_of_rows` adopts the rows unchecked, as the algebra adopts
    # the assembled table, so the table's keys must also be ordered pairs in
    # range, its dicts nonempty and its degree index the one the public
    # constructor builds
    of_rows = RatMatrix._of_rows.__func__
    prolong = prolongation.universal_prolongation
    built, results, faults = [], [], []

    def checked(cls, rows, cols, data):
        mat = of_rows(cls, rows, cols, data)
        built.append((mat.rows, mat.cols))
        for r, row in mat._rows.items():
            if not row or not 0 <= r < mat.rows:
                faults.append((mat, r))
            faults.extend((mat, r, c, value) for c, value in row.items()
                          if not canonical(value) or not value or not 0 <= c < mat.cols)
        return mat

    def recorded(*args, **kwargs):
        results.append(prolong(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(RatMatrix, "_of_rows", classmethod(checked))
    monkeypatch.setattr(prolongation, "universal_prolongation", recorded)
    paths = sorted((ROOT / "corpus").glob("*.json")) + sorted((ROOT / "perfbench" / "specs").glob("*.json"))
    assert len(paths) == 14
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["prolong", str(path)]) == 0, path.name
    m = gradedlie.heisenberg(1)
    gradedlie.orthogonal_derivations(m, gradedlie.EuclideanForm([[F(1, 2), 0], [0, F(1, 2)]]))
    gradedlie.line_preserving_derivations(m, gradedlie.LinePair([F(1, 2), F(1, 3)], [F(2, 3), F(3, 2)]))
    # all of degree -1, so ungraded; the series meets [e0, e1 + e3] = (1/2 + 1/2) e4
    ungraded = gradedlie.GradedLieAlgebra([gradedlie.BasisElement(f"e{i}", -1) for i in range(5)],
                                          {(0, 1): {4: F(1, 2)}, (0, 2): {1: 1, 3: 1}, (0, 3): {4: F(1, 2)}})
    report = gradedlie.check_validity(ungraded)
    assert not report.grading_ok and report.nilpotent_ok
    g0 = gradedlie.custom_g0(m, [[[F(1, 2), 0], [0, F(3, 2)]], [[F(1, 3), 0], [0, F(2, 3)]]])
    assert len(g0.generators) == 2
    assert len(built) > 100 and len(results) == 14
    for result in results:
        algebra, n = result.algebra, result.algebra.dim
        faults.extend((result.symbol, pair, c, value) for pair, terms in algebra._table.items()
                      for c, value in terms.items() if not canonical(value) or not value or not 0 <= c < n)
        faults.extend((result.symbol, (a, b), terms) for (a, b), terms in algebra._table.items()
                      if not terms or not 0 <= a < b < n)
        checked_copy = gradedlie.GradedLieAlgebra(algebra.basis, {})
        if (algebra._by_degree, algebra._positions) != (checked_copy._by_degree, checked_copy._positions):
            faults.append((result.symbol, "degree index"))
        faults.extend((f, i, t, value) for base in result.bases for f in base
                      for i, cols in f.columns.items() for col in cols for t, value in col.items()
                      if not canonical(value) or not value or not 0 <= t < f.shapes[i][1])
    assert faults == []


def test_of_rows_adopts_rows_into_a_plain_dict():
    # a defaultdict handed over whole, every row nonempty, must not keep
    # its factory: a read of a missing row would then insert an empty one
    rows = defaultdict(dict)
    rows[0][1] = 2
    rows[2][0] = F(1, 2)
    for data in (rows, {0: {1: 2}, 1: {}, 2: {0: F(1, 2)}}):
        matrix = RatMatrix._of_rows(3, 2, data)
        assert type(matrix._rows) is dict
        assert matrix._rows == {0: {1: 2}, 2: {0: F(1, 2)}}
        assert matrix.get(1, 0) == 0 and 1 not in matrix._rows
    assert RatMatrix._of_rows(3, 2, [{1: 2}, {}, {0: 3}])._rows == {0: {1: 2}, 2: {0: 3}}
    symbol = gradedlie.heisenberg(1)
    _, leibniz = prolongation.leibniz_system(symbol, [list(gradedlie.degree_zero_derivations(symbol).generators)], 1)
    assert type(leibniz._rows) is dict and leibniz.nnz


def test_frac_keeps_integral_rationals_as_ints():
    for value in (3, F(4, 2), True):
        assert type(linalg._frac(value)) is int
    assert linalg._frac(F(4, 2)) == 2 and linalg._frac(True) == 1
    assert linalg._frac(F(1, 2)) == F(1, 2) and type(linalg._frac(F(1, 2))) is Fraction
    assert linalg._frac("-6/4") == F(-3, 2)
    with pytest.raises(TypeError):
        linalg._frac(0.5)


def test_rref_keeps_integral_entries_as_ints():
    echelon = rref(RatMatrix.from_rows([[2, 4, 6, 0], [1, 1, 0, 5], [3, 5, 6, 5]]))
    assert echelon.pivot_rows == ({0: 1, 2: -3, 3: 10}, {1: 1, 2: 3, 3: -5})
    values = [v for row in echelon.pivot_rows for v in row.values()]
    values += [v for vector in echelon.nullspace() for v in vector.values()]
    assert all(type(v) is int for v in values)
    echelon = rref(RatMatrix.from_rows([[2, 1, F(1, 3)], [0, 3, 2]]))
    assert echelon.pivot_rows == ({0: 1, 2: F(-1, 6)}, {1: 1, 2: F(2, 3)})
    assert all(canonical(v) for row in echelon.pivot_rows for v in row.values())
    matrix = RatMatrix.from_rows([[F(6, 3), 0]])
    assert type(matrix.get(0, 0)) is int and type(matrix.get(0, 1)) is int


def test_vectors_rank():
    assert vectors_rank([]) == 0
    assert vectors_rank([[F(1), F(2)], [F(2), F(4)]]) == 1


def test_degenerate_shapes():
    assert nullspace(RatMatrix(0, 3)) == [
        [F(1), F(0), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(0), F(1)],
    ]
    assert rank(RatMatrix(0, 0)) == 0
    assert nullspace(RatMatrix(2, 0)) == []
    assert column_complement(RatMatrix(0, 0)) == []
    assert solve(RatMatrix(0, 2), []) == [F(0), F(0)]


def test_hilbert_matrix_exactness():
    # dense ill-conditioned input stresses exact elimination
    n = 7
    hilbert = RatMatrix.from_rows(
        [[F(1, i + j + 1) for j in range(n)] for i in range(n)], n
    )
    assert rank(hilbert) == n
    assert nullspace(hilbert) == []
    ones = [F(1)] * n
    b = matvec(hilbert, ones)
    assert solve(hilbert, b) == ones
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    echelon = rref(hilbert)
    assert (echelon.pivots, echelon.rows) == (tuple(range(n)), identity)
    assert symmetric_signature(dense_rows(hilbert)) == (n, 0)


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity_and_exact_kernel(mat):
    basis = nullspace(mat)
    assert rank(mat) + len(basis) == mat.cols
    for v in basis:
        assert not any(matvec(mat, v))


@settings(max_examples=40)
@given(matrices())
def test_results_are_deterministic(mat):
    again = RatMatrix.from_rows(dense_rows(mat), mat.cols)
    assert nullspace(mat) == nullspace(again)
    ours, theirs = rref(mat), rref(again)
    assert (ours.pivots, ours.rows) == (theirs.pivots, theirs.rows)


@settings(max_examples=40)
@given(matrices(), st.lists(fractions_st, min_size=1, max_size=5))
def test_solve_round_trips_consistent_systems(mat, coeffs):
    x = (coeffs * mat.cols)[: mat.cols]
    b = matvec(mat, x)
    found = solve(mat, b)
    assert found is not None
    assert matvec(mat, found) == b


@settings(max_examples=40)
@given(matrices())
def test_column_complement_completes_the_target(mat):
    complement = column_complement(mat)
    vectors = [[mat.get(r, c) for r in range(mat.rows)] for c in range(mat.cols)]
    for i in complement:
        unit = [F(0)] * mat.rows
        unit[i] = F(1)
        vectors.append(unit)
    assert len(complement) == mat.rows - rank(mat)
    assert vectors_rank(vectors, mat.rows) == mat.rows


@settings(max_examples=30, deadline=None)
@given(matrices(max_dim=4))
def test_against_sympy(mat):
    sympy = pytest.importorskip("sympy")
    sm = sympy.Matrix(mat.rows, mat.cols, lambda r, c: sympy.Rational(mat.get(r, c)))
    assert sm.rank() == rank(mat)
    ours = nullspace(mat)
    theirs = sm.nullspace()
    assert len(theirs) == len(ours)
    assert all(canonical(x) for v in ours for x in v if x)
    for v in ours:
        assert sm * sympy.Matrix(v) == sympy.zeros(mat.rows, 1)


@st.composite
def sparse_matrices(draw, max_dim=8):
    """Mostly-zero matrices with zero columns, zero rows and repeated rows."""
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    zero = st.just(F(0))
    entry = st.one_of(zero, zero, zero, fractions_st)  # at least three quarters zero
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=max(ncols - 1, 0))))
    for r in range(nrows):
        if draw(st.booleans()) and r:
            # a scaled copy of an earlier row keeps the rank below the row count
            scale = draw(fractions_st)
            src = draw(st.integers(min_value=0, max_value=r - 1))
            rows[r] = [scale * x for x in rows[src]]
        for c in zero_cols:
            if c < ncols:
                rows[r][c] = F(0)
    return RatMatrix.from_rows(rows, ncols)


def _dense_dict(row):
    return {c: x for c, x in enumerate(row) if x}


def sympy_rref(mat):
    sympy = pytest.importorskip("sympy")
    reduced, pivots = sympy.Matrix(
        mat.rows, mat.cols, lambda r, c: sympy.Rational(mat.get(r, c))
    ).rref()
    rows = [
        [F(int(reduced[r, c].p), int(reduced[r, c].q)) for c in range(mat.cols)]
        for r in range(len(pivots))
    ]
    return tuple(pivots), rows


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
# negative leading entries, mixed denominators, rows sharing large factors
@example(RatMatrix.from_rows([[-2, 4, -6], [3, -1, 0], [-1, 0, 5]]))
@example(RatMatrix.from_rows([[0, -F(1, 3), 1, 0], [-5, 0, F(5, 2), -10], [-1, -1, 0, 0]]))
@example(RatMatrix.from_rows([[6 * 10**18, 10 * 10**18, 14 * 10**18], [-(3**41), 0, 3**42],
                              [2**70 * 3, 2**70 * 5, 2**70 * 7]]))
@example(RatMatrix.from_rows([[-(2**90), 2**91, 0], [F(-(7**30), 11), F(2 * 7**30, 11), F(7**31, 11)],
                              [0, 0, -(13**25)]]))
def test_rref_matches_dense_and_sympy_oracles(mat):
    echelon = rref(mat)
    ours = (echelon.pivots, echelon.rows)
    pivots, rows = naive_reduce(dense_rows(mat))
    assert ours == (tuple(pivots), rows)
    assert tuple(echelon) == ours  # pivots, rows = rref(m) unpacks to dense rows
    assert [_dense_dict(row) for row in rows] == list(echelon.pivot_rows)
    assert all(canonical(x) for row in echelon.pivot_rows for x in row.values())
    assert all(canonical(x) for v in echelon.nullspace() for x in v.values())
    if mat.rows and mat.cols:
        assert ours == sympy_rref(mat)


row_scales = st.sampled_from([F(-1), F(-7, 3), F(2**64 + 13), F(-(3**45)), F(10**20, 7)])


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(), st.data())
def test_rref_is_unchanged_by_row_scaling(mat, data):
    # a row's content and sign never reach the reduced rows
    scales = [data.draw(row_scales) for _ in range(mat.rows)]
    scaled = RatMatrix(mat.rows, mat.cols, [((r, c), scales[r] * x) for (r, c), x in mat.items()])
    ours, plain = rref(scaled), rref(mat)
    assert (ours.pivots, ours.pivot_rows, ours.kept) == (plain.pivots, plain.pivot_rows, plain.kept)
    if mat.rows and mat.cols:
        assert (ours.pivots, ours.rows) == sympy_rref(scaled)


def integral_copy(rows):
    """(L * rows, L) as linalg._integral computed it before it returned an
    all-int table as it is: every row copied, whatever its entries."""
    scale = math.lcm(*{v.denominator for row in rows.values() for v in row.values()})
    return {k: {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
            for k, row in rows.items()}, scale


def eliminate(row, c, pivot_row):
    """row := d * row - a * pivot_row in place, a/d = row[c]/pivot_row[c] in
    lowest terms with d > 0, which clears column c."""
    a, d = row[c], pivot_row[c]
    g = math.gcd(a, d)
    a, d = a // g, d // g
    if d != 1:
        for k in row:
            row[k] *= d
    linalg.axpy(row, -a, pivot_row)


def make_primitive(row, lead):
    """Divide the int row in place by its content, signed like `lead`."""
    g = math.gcd(*row.values())
    if lead < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def rref_with_helper_calls(matrix):
    """linalg.rref as it was before its elimination and content division
    were written inline: every row copied to integers up front, one
    function call per elimination and per division, a row of one entry
    divided by its gcd like any other; the reference for that rewrite."""
    reduced, holders, kept = {}, defaultdict(set), []
    for r, row in sorted(integral_copy(matrix._rows)[0].items()):
        if len(reduced) == matrix.cols:
            break
        for c in [c for c in row if c in reduced]:
            eliminate(row, c, reduced[c])
        if not row:
            continue
        kept.append(r)
        p = min(row)
        make_primitive(row, row[p])
        for q in holders.pop(p, ()):
            other = reduced[q]
            gained = [c for c in row if c not in other]
            eliminate(other, p, row)
            make_primitive(other, other[q])
            for c in gained:
                holders[c].add(q)
            for c in row:
                if c not in other and c != p:
                    holders[c].remove(q)
        for c in row:
            if c != p:
                holders[c].add(p)
        reduced[p] = row
    rows = tuple(row if (d := row[p]) == 1 else {c: linalg._ratio(v, d) for c, v in row.items()}
                 for p, row in sorted(reduced.items()))
    return Echelon(tuple(sorted(reduced)), rows, tuple(kept), matrix)


def rref_testing_every_reduced_row(matrix, stop_at_full_rank=True):
    """linalg.rref as it was before its column index of the pivot rows: a
    new pivot is eliminated from every reduced row that holds it, found by
    testing each one, the reference for that index.  With stop_at_full_rank
    False it also reduces every row, as rref did before it stopped once
    every column held a pivot, the reference for that stop."""
    reduced, kept = {}, []
    for r, row in sorted(integral_copy(matrix._rows)[0].items()):
        if stop_at_full_rank and len(reduced) == matrix.cols:
            break
        for c in [c for c in row if c in reduced]:
            eliminate(row, c, reduced[c])
        if not row:
            continue
        kept.append(r)
        p = min(row)
        make_primitive(row, row[p])
        for q, other in reduced.items():
            if p in other:
                eliminate(other, p, row)
                make_primitive(other, other[q])
        reduced[p] = row
    rows = tuple(row if (d := row[p]) == 1 else {c: linalg._ratio(v, d) for c, v in row.items()}
                 for p, row in sorted(reduced.items()))
    return Echelon(tuple(sorted(reduced)), rows, tuple(kept), matrix)


@st.composite
def tall_matrices(draw):
    """(kind, matrix) with more rows than columns: 'random' entries, 'full'
    column rank reached somewhere in the rows, or 'last' row completing a
    rank that the rows before it leave one short."""
    kind = draw(st.sampled_from(["random", "full", "last"]))
    ncols = draw(st.integers(min_value=1, max_value=5))
    nrows = draw(st.integers(min_value=ncols + 1, max_value=ncols + 6))
    entry = st.one_of(st.just(F(0)), fractions_st)
    if kind == "random":
        rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
        return kind, RatMatrix.from_rows(rows, ncols)
    # the rows of an invertible U P, U unitriangular and P a permutation
    order = draw(st.permutations(range(ncols)))
    basis = []
    for i in range(ncols):
        row = [F(0)] * ncols
        row[order[i]] = draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
        for j in range(i + 1, ncols):
            row[order[j]] = draw(entry)
        basis.append(row)

    def combination(vectors):
        coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        return [sum((a * v[c] for a, v in zip(coeffs, vectors)), F(0)) for c in range(ncols)]

    if kind == "full":
        rows = [combination(basis) for _ in range(nrows - ncols)] + basis
        rows = draw(st.permutations(rows))
    else:
        head = basis[:-1] + [combination(basis[:-1]) for _ in range(nrows - ncols)]
        rows = [*draw(st.permutations(head)), basis[-1]]
    return kind, RatMatrix.from_rows(rows, ncols)


@settings(max_examples=100, deadline=None)
@given(tall_matrices())
def test_rref_stop_at_full_column_rank_changes_nothing(case):
    kind, mat = case
    ours, reference = rref(mat), rref_testing_every_reduced_row(mat, stop_at_full_rank=False)
    assert (ours.pivots, ours.pivot_rows, ours.kept) == (reference.pivots, reference.pivot_rows, reference.kept)
    if kind != "random":
        assert ours.rank == mat.cols
    if kind == "last":
        assert ours.kept[-1] == mat.rows - 1


@st.composite
def indexed_elimination_cases(draw):
    """(shape, matrix), mostly zero with Fraction entries: 'tall' and 'wide'
    ones combine their rows from at most min(rows, cols) sparse vectors, so
    most are rank-deficient; 'full' ones are tall and of full column rank, so
    the elimination stops at the row that completes it, often before the
    last.  Some rows repeat an earlier row exactly."""
    shape = draw(st.sampled_from(["tall", "wide", "full"]))
    ncols = draw(st.integers(min_value=1 if shape != "wide" else 2, max_value=10))
    if shape == "wide":
        nrows = draw(st.integers(min_value=1, max_value=ncols - 1))
    else:
        nrows = draw(st.integers(min_value=ncols + 1, max_value=ncols + 8))
    zero = st.just(F(0))
    entry = st.one_of(zero, zero, zero, fractions_st)
    if shape == "full":
        # the rows of a sparse U P, U unitriangular up to its diagonal and P a permutation
        order = draw(st.permutations(range(ncols)))
        vectors = []
        for i in range(ncols):
            row = [F(0)] * ncols
            row[order[i]] = draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
            for j in range(i + 1, ncols):
                row[order[j]] = draw(entry)
            vectors.append(row)
    else:
        vectors = [draw(st.lists(entry, min_size=ncols, max_size=ncols))
                   for _ in range(draw(st.integers(min_value=0, max_value=min(nrows, ncols))))]
    rows = list(vectors) if shape == "full" else []
    while len(rows) < nrows:
        if rows and draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
            rows.append([sum((a * v[c] for a, v in zip(coeffs, vectors)), F(0)) for c in range(ncols)])
    return shape, RatMatrix.from_rows(draw(st.permutations(rows)), ncols)


@settings(max_examples=200, deadline=None)
@given(indexed_elimination_cases())
# the first row gains the third pivot's column when the second pivot is
# eliminated from it; then a first row that loses that column instead
@example(("full", RatMatrix.from_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])))
@example(("full", RatMatrix.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 1]])))
def test_rref_column_index_matches_testing_every_reduced_row(case):
    shape, mat = case
    ours, reference = rref(mat), rref_testing_every_reduced_row(mat)
    assert (ours.pivots, ours.pivot_rows, ours.kept) == (reference.pivots, reference.pivot_rows, reference.kept)
    if shape == "full":
        assert ours.rank == mat.cols


@st.composite
def inline_elimination_cases(draw):
    """(kind, full, matrix): sparse rows whose entries are all 'int', all
    'fraction' (denominators above 1) or 'mixed', some rows of one entry
    and some repeating an earlier row; with full, the rows of a scaled
    permutation matrix are inserted among them, so the elimination reaches
    full column rank and stops there, often before the last row."""
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    full = draw(st.booleans())
    ncols = draw(st.integers(min_value=1, max_value=8))
    ints = st.integers(min_value=-6, max_value=6).filter(bool)
    fractions = st.builds(F, st.integers(min_value=-20, max_value=20), st.sampled_from([2, 3, 4, 9]))
    fractions = fractions.filter(lambda x: x.denominator > 1)
    value = {"int": ints, "fraction": fractions, "mixed": st.one_of(ints, fractions)}[kind]
    column = st.integers(min_value=0, max_value=ncols - 1)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        shape = draw(st.sampled_from(["sparse", "single", "repeat"]))
        if shape == "repeat" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif shape == "single":
            rows.append({draw(column): draw(value)})
        else:
            rows.append({c: draw(value) for c in draw(st.sets(column))})
    if full:
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows[at:at] = [{c: draw(value)} for c in draw(st.permutations(range(ncols)))]
    entries = [((r, c), x) for r, row in enumerate(rows) for c, x in row.items()]
    return kind, full, RatMatrix(len(rows), ncols, entries)


@settings(max_examples=200, deadline=None)
@given(inline_elimination_cases())
# a singleton row eliminated from a row holding its pivot; a full column
# rank reached before the last row
@example(("int", False, RatMatrix.from_rows([[2, 4, 6], [0, 3, 0], [5, 0, 1]])))
@example(("int", True, RatMatrix.from_rows([[0, -3], [7, 0], [1, 1]])))
def test_rref_matches_the_rref_with_helper_calls(case):
    kind, full, mat = case
    before = {r: dict(row) for r, row in mat._rows.items()}
    if kind == "int":  # an all-int matrix hands rref its own rows
        assert linalg._integral(mat._rows)[0] is mat._rows
    ours, reference = rref(mat), rref_with_helper_calls(mat)
    assert (ours.pivots, ours.pivot_rows, ours.kept) == (reference.pivots, reference.pivot_rows, reference.kept)
    assert mat._rows == before
    assert all(canonical(x) for row in ours.pivot_rows for x in row.values())
    if full:
        assert ours.rank == mat.cols


def test_integral_callers_leave_an_all_int_table_unchanged():
    symbol = gradedlie.heisenberg(1)
    symbol_table = {pair: dict(terms) for pair, terms in symbol._table.items()}
    g0 = gradedlie.degree_zero_derivations(symbol)  # the Leibniz check reads the symbol's table
    assert symbol._table == symbol_table
    algebra = prolongation.universal_prolongation(symbol, g0, max_degree=2).algebra
    before = {pair: dict(terms) for pair, terms in algebra._table.items()}
    assert all(type(v) is int for terms in before.values() for v in terms.values())
    assert linalg._integral(algebra._table)[0] is algebra._table
    check_validity(algebra)
    killing_form(algebra)
    assert algebra._table == before
    symmetric = [[2, 1, 0], [1, 0, 3], [0, 3, -1]]
    symmetric_signature(symmetric)
    assert symmetric == [[2, 1, 0], [1, 0, 3], [0, 3, -1]]
    vectors, targets = [[1, 2, 0], [0, 1, 3]], [{0: 1, 1: 3, 2: 3}, {2: 1}]
    assert express_in_basis(vectors, targets) == [{0: 1, 1: 1}, None]
    assert (vectors, targets) == ([[1, 2, 0], [0, 1, 3]], [{0: 1, 1: 3, 2: 3}, {2: 1}])
    matrix = RatMatrix.from_rows([[2, 4, 6], [1, 0, 5]])
    rows = {r: dict(row) for r, row in matrix._rows.items()}
    rref(matrix)
    solve_many(matrix, [{0: 1}])
    assert matrix._rows == rows


def test_integral_scales_a_table_by_the_lcm_of_its_denominators():
    assert linalg._integral({}) == ({}, 1)
    assert linalg._integral({"a": {}}) == ({"a": {}}, 1)
    ints, scale = linalg._integral({"a": {0: F(-1, 2), 3: F(2, 3)}, "b": {1: F(-5), 2: F(3, 4)}})
    assert scale == 12
    assert ints == {"a": {0: -6, 3: 8}, "b": {1: -60, 2: 9}}
    assert all(type(v) is int for row in ints.values() for v in row.values())
    ints, scale = linalg._integral({"a": {0: F(-7), 1: F(3)}, "b": {2: F(1)}})
    assert scale == 1
    assert ints == {"a": {0: -7, 1: 3}, "b": {2: 1}}
    assert all(type(v) is int for row in ints.values() for v in row.values())


def transpose(mat):
    return RatMatrix(mat.cols, mat.rows, [((c, r), x) for (r, c), x in mat.items()])


def complement_by_transpose(mat):
    """Reference complement: the coordinates that are not pivots of rref(A^T)."""
    pivots, _ = rref(transpose(mat))
    return [i for i in range(mat.rows) if i not in set(pivots)]


@settings(max_examples=100, deadline=None)
@given(sparse_matrices())
def test_column_complement_is_the_rows_elimination_did_not_keep(mat):
    echelon = rref(mat)
    assert column_complement(mat) == complement_by_transpose(mat)
    kept = [[mat.get(r, c) for c in range(mat.cols)] for r in echelon.kept]
    assert len(kept) == echelon.rank == vectors_rank(kept, mat.cols)


@st.composite
def bases_with_targets(draw):
    """Rows of a sparse matrix as the basis (often dependent), with targets
    inside their span and random targets that are mostly outside it."""
    mat = draw(sparse_matrices())
    vectors = dense_rows(mat)
    combos = draw(st.lists(st.lists(fractions_st, min_size=mat.rows, max_size=mat.rows), max_size=3))
    inside = [
        [sum((x * vec[c] for x, vec in zip(combo, vectors)), F(0)) for c in range(mat.cols)]
        for combo in combos
    ]
    entry = st.one_of(st.just(F(0)), fractions_st)
    outside = draw(st.lists(st.lists(entry, min_size=mat.cols, max_size=mat.cols), max_size=3))
    return mat, inside + outside


def sympy_coordinates(basis, target):
    """Coordinates of target over the independent basis by sympy's exact solve."""
    sympy = pytest.importorskip("sympy")
    if not basis:
        return None if any(target) else []
    columns = sympy.Matrix(len(target), len(basis), lambda r, c: sympy.Rational(basis[c][r]))
    try:
        solution, params = columns.gauss_jordan_solve(sympy.Matrix([sympy.Rational(x) for x in target]))
    except ValueError:  # the system has no solution
        return None
    assert params.shape[0] == 0
    return [F(int(x.p), int(x.q)) for x in solution]


@settings(max_examples=100, deadline=None)
@given(bases_with_targets())
@example((RatMatrix(0, 0), [[], []]))
@example((RatMatrix(0, 2), [[F(0), F(0)], [F(1), F(0)]]))
@example((RatMatrix.from_rows([[1, 2], [2, 4]]), [[F(1), F(2)]]))
def test_express_in_basis_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    mat, targets = case
    vectors = dense_rows(mat)
    independent = []
    if mat.rows and mat.cols:
        rows = sympy.Matrix(mat.rows, mat.cols, lambda r, c: sympy.Rational(mat.get(r, c)))
        independent = list(rows.T.rref()[1])
    sparse_targets = [_dense_dict(target) for target in targets]
    if len(independent) < mat.rows:
        with pytest.raises(ValueError, match="dependent"):
            express_in_basis(vectors, sparse_targets)
    basis = [vectors[i] for i in independent]
    theirs = [sympy_coordinates(basis, target) for target in targets]
    ours = express_in_basis(basis, sparse_targets)
    assert ours == [None if coords is None else _dense_dict(coords) for coords in theirs]
    assert all(canonical(x) for coords in ours if coords for x in coords.values())


def corrupted_rref(matrix):
    """The true echelon form with one entry of its sparse pivot rows changed:
    a kernel-level fault."""
    echelon = rref(matrix)
    rows = [dict(row) for row in echelon.pivot_rows]
    last = matrix.cols - 1
    rows[0][last] = rows[0].get(last, 0) + 1
    return Echelon(echelon.pivots, tuple(rows), echelon.kept, matrix)


def test_self_checks_raise_on_corrupted_elimination(monkeypatch):
    monkeypatch.setattr(linalg, "rref", corrupted_rref)
    with pytest.raises(InternalConsistencyError, match="nullspace"):
        nullspace(RatMatrix.from_rows([[1, 2]]))
    with pytest.raises(InternalConsistencyError, match="solve"):
        solve(RatMatrix.from_rows([[1, 0], [0, 1]]), [F(1), F(1)])
    # a wrong coordinate is caught, not reported as a target outside the span,
    # over the identity and over a basis whose combinations C are not the identity
    with pytest.raises(InternalConsistencyError, match="express_in_basis"):
        express_in_basis([[F(1), F(0)], [F(0), F(1)]], [{0: F(1), 1: F(1)}])
    with pytest.raises(InternalConsistencyError, match="express_in_basis"):
        express_in_basis([[1, 1, 0], [0, 1, 2]], [{0: 1, 1: 2, 2: 2}])


def test_certificate_sees_a_right_hand_side_in_a_zero_row(monkeypatch):
    # an elimination that loses its last pivot row reports the inconsistent
    # system A x = (0, 1), A = [[1, 0], [0, 0]], as solved by x = 0
    def truncated_rref(matrix):
        echelon = rref(matrix)
        return Echelon(echelon.pivots[:-1], echelon.pivot_rows[:-1], echelon.kept[:-1], matrix)

    monkeypatch.setattr(linalg, "rref", truncated_rref)
    with pytest.raises(InternalConsistencyError, match="solve"):
        solve(RatMatrix.from_rows([[1, 0], [0, 0]]), [F(0), F(1)])


def test_self_checks_survive_optimized_mode():
    script = """
from gradedlie import linalg
from gradedlie.linalg import InternalConsistencyError, RatMatrix
from test_linalg import corrupted_rref

linalg.rref = corrupted_rref
for call in (lambda: linalg.nullspace(RatMatrix.from_rows([[1, 2]])),
             lambda: linalg.solve(RatMatrix.from_rows([[1, 0], [0, 1]]), [1, 1]),
             lambda: linalg.express_in_basis([[1, 0], [0, 1]], [{0: 1, 1: 1}])):
    try:
        call()
    except InternalConsistencyError as exc:
        print("raised:", exc)
"""
    paths = [Path(gradedlie.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("raised:") == 3, done.stdout
