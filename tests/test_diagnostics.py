from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedlie import (
    BasisElement,
    GradedLieAlgebra,
    abelian,
    adjoin_g0,
    center,
    degree_zero_derivations,
    fingerprint,
    free_nilpotent,
    is_semisimple,
    killing_form,
    universal_prolongation,
)
from gradedlie import diagnostics, linalg
from gradedlie.diagnostics import symmetric_signature
from gradedlie.linalg import RatMatrix

from conftest import bracket
from test_algebra import antisymmetric_tables
from test_linalg import dense_rows

F = Fraction

coeffs_st = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def test_signature_unit_cases():
    assert symmetric_signature([[2]]) == (1, 0)
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
    assert symmetric_signature([[0, 1, 0], [1, 0, 0], [0, 0, -5]]) == (1, 2)
    assert symmetric_signature([[1, 2], [2, 1]]) == (1, 1)


def test_nilpotent_killing_form_vanishes(eta3):
    data = killing_form(eta3)
    assert data.matrix == RatMatrix(3, 3)
    assert data.rank == 0
    assert not data.nondegenerate
    assert not is_semisimple(eta3)
    assert fingerprint(eta3)["graded_pairing_ok"]


def test_center_of_eta3(eta3):
    basis = center(eta3)
    assert basis == [[F(0), F(0), F(1)]]


def test_center_of_abelian():
    assert len(center(abelian(3))) == 3
    assert not is_semisimple(abelian(3))


def full_stack_rows(algebra):
    """The nonempty rows of all n^2 adjoint conditions, row (b, c) holding
    [e_a, e_b]_c in column a, repeated rows and all."""
    n = algebra.dim
    rows = {}
    for a, row in enumerate(algebra.rows):
        for b, terms in row.items():
            for c, value in terms.items():
                rows.setdefault(b * n + c, {})[a] = value
                rows.setdefault(a * n + c, {})[b] = -value
    return rows


def center_of_the_full_stack(algebra):
    """Reference: the kernel of the full n^2 x n stack."""
    n = algebra.dim
    return linalg.nullspace(RatMatrix._of_rows(n * n, n, full_stack_rows(algebra)))


@st.composite
def graded_tables(draw):
    """Algebras over a random sparse graded antisymmetric table, Lie or not:
    every bracket lands in the degree of its pair, often repeating the
    coefficient pattern of another bracket; the pairs are stored in a
    shuffled order."""
    n = draw(st.integers(min_value=1, max_value=7))
    degrees = [draw(st.integers(min_value=-3, max_value=1)) for _ in range(n)]
    basis = [BasisElement(f"e{i}", d) for i, d in enumerate(degrees)]
    brackets = {}
    for a, b in draw(st.permutations([(a, b) for a in range(n) for b in range(a + 1, n)])):
        targets = [c for c in range(n) if degrees[c] == degrees[a] + degrees[b]]
        if targets and draw(st.integers(min_value=0, max_value=2)):
            brackets[(a, b)] = draw(st.dictionaries(st.sampled_from(targets), st.sampled_from([-1, 1, 2, F(1, 2)]),
                                                    min_size=1, max_size=2))
    return GradedLieAlgebra(basis, brackets)


def distinct_conditions(algebra):
    """The number of distinct rows of the full stack, compared by their sorted items."""
    return len({tuple(sorted(row.items())) for row in full_stack_rows(algebra).values()})


def test_center_matches_the_full_stack_on_corpus_and_perfbench(corpus_results, perfbench_results, monkeypatch):
    runs = {**corpus_results, **perfbench_results}
    assert len(runs) == 14
    stacked = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace", lambda matrix: stacked.append(matrix) or nullspace(matrix))
    for name, (*_, result) in runs.items():
        assert center(result.algebra) == center_of_the_full_stack(result.algebra), name
        # each distinct condition once: the first stack is center's, the second the reference's
        ours = stacked[-2]
        assert ours.rows == len(ours._rows) == distinct_conditions(result.algebra), name


@settings(max_examples=200, deadline=None)
@given(st.one_of(graded_tables(), antisymmetric_tables(coefficients=coeffs_st)))
# the adjoint rows (e0, e4) and (e1, e4) both hold -1 in columns e2 and e3,
# inserted in opposite orders when each row of the table is read as stored
@example(GradedLieAlgebra([BasisElement(f"e{i}", -1) for i in range(4)] + [BasisElement("e4", -2)],
                          {(0, 3): {4: 1}, (0, 2): {4: 1}, (1, 2): {4: 1}, (1, 3): {4: 1}}))
def test_center_matches_the_full_stack_on_random_tables(algebra):
    stacked = []
    nullspace = linalg.nullspace
    try:
        linalg.nullspace = lambda matrix: stacked.append(matrix) or nullspace(matrix)
        assert center(algebra) == center_of_the_full_stack(algebra)
    finally:
        linalg.nullspace = nullspace
    assert stacked[0].rows == len(stacked[0]._rows) == distinct_conditions(algebra)


def test_adjoined_algebra_is_not_semisimple(eta3, lambda_g0):
    assert not is_semisimple(adjoin_g0(eta3, lambda_g0))


def make_sl3():
    """sl(3, Q) from explicit matrices, graded by column minus row."""
    entries = [
        ("E31", (2, 0), -2),
        ("E21", (1, 0), -1),
        ("E32", (2, 1), -1),
        ("H1", None, 0),
        ("H2", None, 0),
        ("E12", (0, 1), 1),
        ("E23", (1, 2), 1),
        ("E13", (0, 2), 2),
    ]

    def matrix_of(name, pos):
        m = [[F(0)] * 3 for _ in range(3)]
        if pos is not None:
            m[pos[0]][pos[1]] = F(1)
        elif name == "H1":
            m[0][0], m[1][1] = F(1), F(-1)
        else:
            m[1][1], m[2][2] = F(1), F(-1)
        return m

    mats = [matrix_of(name, pos) for name, pos, _ in entries]

    def comm(a, b):
        out = [[F(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                out[i][j] = sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
        return out

    flat = [[m[i][j] for i in range(3) for j in range(3)] for m in mats]
    basis = [BasisElement(name, deg) for name, _, deg in entries]
    pairs = [(a, b) for a in range(8) for b in range(a + 1, 8)]
    comms = [comm(mats[a], mats[b]) for a, b in pairs]
    table = {}
    for pair, coords in zip(pairs, linalg.express_in_basis(
            flat, [{3 * i + j: c[i][j] for i in range(3) for j in range(3)} for c in comms])):
        assert coords is not None
        if coords:
            table[pair] = coords
    return GradedLieAlgebra(basis, table)


def test_example5_prolongation_matches_sl3(example5_result):
    computed = fingerprint(example5_result.algebra)
    reference = fingerprint(make_sl3())
    for key in ("dimension", "graded_dimensions", "killing_rank",
                "killing_signature", "semisimple", "center_dimension"):
        assert computed[key] == reference[key]
    assert computed["killing_signature"] == [5, 3]
    assert computed["graded_pairing_ok"]


def zorn_mult(x, y):
    """Split octonions as vector matrices (a, v; w, b) with v, w in Q^3."""

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    a, v, w, b = x[0], x[1:4], x[4:7], x[7]
    c, p, q, d = y[0], y[1:4], y[4:7], y[7]
    scal1 = a * c + dot(v, q)
    vec1 = tuple(a * p[i] + d * v[i] - cross(w, q)[i] for i in range(3))
    vec2 = tuple(c * w[i] + b * q[i] + cross(v, p)[i] for i in range(3))
    scal2 = b * d + dot(w, p)
    return (scal1,) + vec1 + vec2 + (scal2,)


def split_octonion_derivations():
    """Exact basis of the derivation algebra of the split octonions."""
    units = []
    for i in range(8):
        u = [F(0)] * 8
        u[i] = F(1)
        units.append(tuple(u))
    mult_table = [[zorn_mult(units[i], units[j]) for j in range(8)] for i in range(8)]
    # unknown D[c][b]: 64 entries; D(xy) = D(x) y + x D(y) on all basis pairs
    rows = []
    for i in range(8):
        for j in range(8):
            prod = mult_table[i][j]
            for c in range(8):
                row = [F(0)] * 64
                for t in range(8):
                    if prod[t]:
                        row[c * 8 + t] += prod[t]
                for s in range(8):
                    # D(e_i) = sum_s D[s][i] e_s acts through (e_s e_j), (e_i e_s)
                    row[s * 8 + i] -= mult_table[s][j][c]
                    row[s * 8 + j] -= mult_table[i][s][c]
                rows.append(row)
    return linalg.nullspace(RatMatrix.from_rows(rows, 64))


def test_m25_prolongation_matches_split_octonion_derivations(m25):
    g0 = degree_zero_derivations(m25)
    result = universal_prolongation(m25, g0)
    computed = fingerprint(result.algebra)
    assert computed["dimension"] == 14
    assert computed["killing_nondegenerate"]
    assert computed["graded_pairing_ok"]

    derivations = split_octonion_derivations()
    assert len(derivations) == 14
    # structure constants of the derivation algebra via matrix commutators
    basis = [BasisElement(f"D{i + 1}", 0) for i in range(14)]
    mats = [[[d[c * 8 + b] for b in range(8)] for c in range(8)] for d in derivations]

    def comm_flat(a, b):
        out = []
        for c in range(8):
            for t in range(8):
                out.append(
                    sum(a[c][k] * b[k][t] - b[c][k] * a[k][t] for k in range(8))
                )
        return out

    pairs = [(a, b) for a in range(14) for b in range(a + 1, 14)]
    table = {}
    for pair, coords in zip(pairs, linalg.express_in_basis(
            derivations, [dict(enumerate(comm_flat(mats[a], mats[b]))) for a, b in pairs])):
        assert coords is not None
        if coords:
            table[pair] = coords
    reference = GradedLieAlgebra(basis, table)
    ref_data = killing_form(reference)
    assert ref_data.nondegenerate
    assert ref_data.signature == killing_form(result.algebra).signature == (8, 6)


def test_graded_pairing_on_terminated_runs(example5_result):
    assert fingerprint(example5_result.algebra)["graded_pairing_ok"]


def test_graded_pairing_across_corpus(corpus_results):
    checked = []
    for name, (_, _, _, result) in sorted(corpus_results.items()):
        if result.terminated:
            assert fingerprint(result.algebra)["graded_pairing_ok"], name
            checked.append(name)
    assert checked


def test_fingerprint_computes_one_killing_form(example5_result, monkeypatch):
    calls = []
    real_killing_form = diagnostics.killing_form

    def counting_killing_form(algebra):
        calls.append(algebra)
        return real_killing_form(algebra)

    monkeypatch.setattr(diagnostics, "killing_form", counting_killing_form)
    algebra = example5_result.algebra
    data = fingerprint(algebra)
    assert len(calls) == 1
    assert data["graded_pairing_ok"] is True
    assert data["killing_signature"] == [5, 3]


@settings(max_examples=20)
@given(
    st.lists(coeffs_st, min_size=8, max_size=8),
    st.lists(coeffs_st, min_size=8, max_size=8),
    st.lists(coeffs_st, min_size=8, max_size=8),
)
def test_killing_form_invariance(xs, ys, zs):
    algebra = make_sl3()
    data = killing_form(algebra)
    rows = dense_rows(data.matrix)

    def kappa(u, v):
        return sum(rows[i][j] * u[i] * v[j] for i in range(8) for j in range(8))

    assert kappa(bracket(algebra, xs, ys), zs) == kappa(xs, bracket(algebra, ys, zs))


def test_free_nilpotent_killing_is_zero():
    data = killing_form(free_nilpotent(2, 3))
    assert data.rank == 0


def reference_signature(rows):
    """Reference: Sylvester signature by congruence over Fractions."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    pos = neg = 0
    for i in range(n):
        pivot = next((j for j in range(i, n) if m[j][j]), None)
        if pivot is None:
            found = next(((p, q) for p in range(i, n) for q in range(p + 1, n) if m[p][q]), None)
            if found is None:
                break
            p, q = found
            for c in range(n):
                m[p][c] += m[q][c]
            for r in range(n):
                m[r][p] += m[r][q]
            pivot = p
        m[i], m[pivot] = m[pivot], m[i]
        for r in range(n):
            m[r][i], m[r][pivot] = m[r][pivot], m[r][i]
        d = m[i][i]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        for r in range(i + 1, n):
            f = m[r][i] / d
            if f:
                for c in range(n):
                    m[r][c] -= f * m[i][c]
                for c in range(n):
                    m[c][r] -= f * m[c][i]
    return pos, neg


@st.composite
def symmetric_matrices(draw, max_dim=6):
    """Symmetric rational matrices: plain, with a zero diagonal (the repair
    branch), or a rank-deficient sum of signed squares B^T D B."""
    n = draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.one_of(st.just(F(0)), coeffs_st)
    kind = draw(st.sampled_from(["plain", "zero-diagonal", "low-rank"]))
    if kind == "low-rank":
        k = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        b = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
        d = draw(st.lists(coeffs_st, min_size=k, max_size=k))
        return [[sum(b[t][r] * d[t] * b[t][c] for t in range(k)) for c in range(n)] for r in range(n)]
    m = [[F(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(r if kind == "plain" else r + 1, n):
            m[r][c] = m[c][r] = draw(entry)
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example([[F(0), F(1, 2), F(0)], [F(1, 2), F(0), F(-2, 3)], [F(0), F(-2, 3), F(0)]])
@example([[F(-3, 4), F(3, 2)], [F(3, 2), F(-3)]])
def test_signature_matches_fraction_reference(rows):
    assert symmetric_signature(rows) == reference_signature(rows)
    scaled = [[F(-7, 5) * x for x in row] for row in rows]
    assert symmetric_signature(scaled) == reference_signature(rows)[::-1]


@st.composite
def permuted_direct_sums(draw):
    """(matrix, blocks): a direct sum of 2-4 symmetric blocks and some zero
    rows, under a random symmetric permutation of rows and columns."""
    blocks = draw(st.lists(symmetric_matrices(max_dim=4), min_size=2, max_size=4))
    blocks += [[[F(0)]]] * draw(st.integers(min_value=0, max_value=2))
    n = sum(len(block) for block in blocks)
    m = [[F(0)] * n for _ in range(n)]
    offset = 0
    for block in blocks:
        for r, row in enumerate(block):
            m[offset + r][offset:offset + len(block)] = row
        offset += len(block)
    perm = draw(st.permutations(range(n)))
    return [[m[perm[r]][perm[c]] for c in range(n)] for r in range(n)], blocks


@settings(max_examples=150, deadline=None)
@given(permuted_direct_sums())
def test_signature_of_permuted_direct_sums(case):
    rows, blocks = case
    signature = symmetric_signature(rows)
    assert signature == reference_signature(rows)
    assert signature == tuple(map(sum, zip(*(reference_signature(block) for block in blocks))))


def test_signature_validates_its_input():
    with pytest.raises(ValueError, match="square"):
        symmetric_signature([[1, 2]])
    with pytest.raises(ValueError, match="square"):  # a short row after the first
        symmetric_signature([[1, 2, 3], [2, 1, 0], [3]])
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_signature([[1, 2], [3, 1]])


def reference_killing_matrix(algebra):
    """Reference: tr(ad a . ad b) from Fraction ad matrices of copied brackets."""
    n = algebra.dim
    # ads[a][(c, b)] is the e_c coordinate of [e_a, e_b]
    ads = [{(c, b): v for b in range(n) for c, v in algebra.bracket_basis(a, b).items()} for a in range(n)]
    traces = {}
    for a in range(n):
        for b in range(n):
            trace = sum((v * ads[b].get((y, x), F(0)) for (x, y), v in ads[a].items()), F(0))
            if trace:
                traces[(a, b)] = trace
    return RatMatrix(n, n, traces)


def test_killing_form_matches_fraction_traces_on_terminated_runs(terminated_algebras):
    assert len(terminated_algebras) == 10
    for algebra in terminated_algebras.values():
        data = killing_form(algebra)
        assert data.matrix == reference_killing_matrix(algebra)
        assert data.signature == reference_signature(dense_rows(data.matrix))


@settings(max_examples=150, deadline=None)
@given(antisymmetric_tables(coefficients=coeffs_st))
def test_killing_form_matches_fraction_traces_on_random_tables(algebra):
    data = killing_form(algebra)
    assert data.matrix == reference_killing_matrix(algebra)
    assert data.signature == reference_signature(dense_rows(data.matrix))
    assert data.nondegenerate == (data.rank == algebra.dim)
