import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import (
    BasisElement,
    DegreeZeroAlgebra,
    GradedLieAlgebra,
    GradedLinearMap,
    adjoin_g0,
    check_fundamental,
    check_validity,
    custom_g0,
    degree_zero_derivations,
    free_nilpotent,
)
from gradedlie import algebra as algebra_module
from gradedlie.algebra import derivation_violation

from conftest import make_eta3

F = Fraction

coeffs_st = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def make_m25_like():
    return GradedLieAlgebra(
        [
            BasisElement("X1", -1),
            BasisElement("X2", -1),
            BasisElement("X3", -2),
            BasisElement("X4", -3),
            BasisElement("X5", -3),
        ],
        {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}, (1, 2): {4: F(1)}},
    )


def test_bracket_eta3(eta3):
    x1 = eta3.unit_vector(0)
    x2 = eta3.unit_vector(1)
    assert eta3.bracket(x1, x2) == eta3.unit_vector(2)
    assert eta3.bracket(x2, x1) == [F(0), F(0), F(-1)]


def test_bracket_m25():
    m = make_m25_like()
    assert m.bracket(m.unit_vector(1), m.unit_vector(2)) == m.unit_vector(4)


def test_validity_eta3(eta3):
    report = check_validity(eta3)
    assert report.ok
    assert report.describe() == "valid"


def test_grading_violation_reported():
    bad = GradedLieAlgebra(
        [BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("X3", -1)],
        {(0, 1): {0: F(1)}},
    )
    report = check_validity(bad)
    assert not report.grading_ok
    assert report.grading_witness == ("X1", "X2")
    # [X1, X2] = X1 also makes the lower central series stabilize
    assert not report.nilpotent_ok


def test_graded_algebra_skips_the_lower_central_series(example5_result, monkeypatch):
    # a graded bracket already makes the negative part nilpotent
    def boom(algebra):
        raise AssertionError("lower central series computed for a graded algebra")

    monkeypatch.setattr(algebra_module, "_negative_part_nilpotent", boom)
    report = check_validity(example5_result.algebra)
    assert report.ok and report.nilpotent_ok


def test_jacobi_violation_reported():
    # [A,B] = P, [C,P] = Q: the (A,B,C) Jacobi sum is [P,C] = -Q, nonzero
    bad = GradedLieAlgebra(
        [
            BasisElement("A", -1),
            BasisElement("B", -1),
            BasisElement("C", -1),
            BasisElement("P", -2),
            BasisElement("Q", -3),
        ],
        {(0, 1): {3: F(1)}, (2, 3): {4: F(1)}},
    )
    report = check_validity(bad)
    assert report.grading_ok
    assert not report.jacobi_ok
    assert report.jacobi_witness == ("A", "B", "C")


def test_fundamental(eta3, m25):
    assert check_fundamental(eta3)
    assert check_fundamental(m25)
    split = GradedLieAlgebra(
        [BasisElement("X1", -1), BasisElement("X2", -2)], {}
    )
    assert not check_fundamental(split)


def test_fundamental_rejects_nonnegative_degrees(eta3, lambda_g0):
    extended = adjoin_g0(eta3, lambda_g0)
    with pytest.raises(ValueError):
        check_fundamental(extended)


def test_adjoin_g0_example5(eta3, lambda_g0):
    extended = adjoin_g0(eta3, lambda_g0)
    assert extended.dim == 5
    assert extended.dims_by_degree() == {-2: 1, -1: 2, 0: 2}
    # [Lambda_1, X3] = Lambda_1(X3) = 2 X3 under [f, v] = f(v)
    lam1 = extended.unit_vector(3)
    x3 = extended.unit_vector(2)
    assert extended.bracket(lam1, x3) == [F(0), F(0), F(2), F(0), F(0)]
    # the restriction to the symbol is unchanged
    for a, b in eta3.bracket_pairs():
        assert extended.bracket_basis(a, b) == eta3.bracket_basis(a, b)
    assert check_validity(extended).ok


def test_adjoin_trivial_g0(eta3):
    extended = adjoin_g0(eta3, DegreeZeroAlgebra(eta3, []))
    assert extended.dim == eta3.dim
    for a, b in eta3.bracket_pairs():
        assert extended.bracket_basis(a, b) == eta3.bracket_basis(a, b)


def test_adjoin_gl2_commutator():
    from gradedlie import abelian

    plane = abelian(2)
    gl2 = degree_zero_derivations(plane)
    assert gl2.dim == 4
    extended = adjoin_g0(plane, gl2)
    assert extended.dim == 6
    # generator order from the kernel flattening: E11, E21, E12, E22
    e21 = extended.unit_vector(2 + 1)
    e12 = extended.unit_vector(2 + 2)
    expected = [F(0)] * 6
    expected[2 + 0] = F(-1)  # -E11
    expected[2 + 3] = F(1)   # +E22
    assert extended.bracket(e21, e12) == expected


def test_derivation_violation_witness(eta3):
    bad = GradedLinearMap(0, {-1: [[F(1), F(0)], [F(0), F(0)]], -2: [[F(0)]]})
    assert derivation_violation(eta3, bad) == ("X1", "X2")
    good = GradedLinearMap(0, {-1: [[F(1), F(0)], [F(0), F(1)]], -2: [[F(2)]]})
    assert derivation_violation(eta3, good) is None


def dense_derivation_violation(symbol, f):
    """Reference: the Leibniz rule checked with dense brackets of full vectors."""
    n = symbol.dim

    def image(a):
        i = symbol.degree_of(a)
        return symbol.scatter(i, f.image_of_basis(i, symbol.position_in_degree(a)))

    for a in range(n):
        for b in range(a + 1, n):
            lhs = [F(0)] * n
            for c, value in symbol.bracket_basis(a, b).items():
                lhs = [x + value * y for x, y in zip(lhs, image(c))]
            rhs1 = symbol.bracket(image(a), symbol.unit_vector(b))
            rhs2 = symbol.bracket(symbol.unit_vector(a), image(b))
            if any(l - r1 - r2 for l, r1, r2 in zip(lhs, rhs1, rhs2)):
                return (symbol.basis[a].name, symbol.basis[b].name)
    return None


def test_derivation_violation_matches_dense_reference():
    symbol = free_nilpotent(3, 3)
    rng = random.Random(0)
    maps = list(degree_zero_derivations(symbol).generators)
    count = len(maps)
    for gen in maps[:count]:
        for _ in range(4):
            blocks = {i: [list(col) for col in cols] for i, cols in gen.blocks.items()}
            for _ in range(rng.randint(1, 2)):
                cols = blocks[rng.choice(sorted(blocks))]
                col = cols[rng.randrange(len(cols))]
                col[rng.randrange(len(col))] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            maps.append(GradedLinearMap(0, blocks))
    witnesses = [derivation_violation(symbol, f) for f in maps]
    assert witnesses == [dense_derivation_violation(symbol, f) for f in maps]
    assert witnesses[:count] == [None] * count
    assert None not in witnesses[count:] and len(set(witnesses[count:])) > 5


def test_custom_g0_keeps_given_generators(eta3, lambda_g0):
    flat = [
        [entry for col in gen.blocks[-1] for entry in col] + list(gen.blocks[-2][0])
        for gen in lambda_g0.generators
    ]
    assert flat[0] == [F(1), F(0), F(0), F(1), F(2)]
    assert flat[1] == [F(1), F(0), F(0), F(-1), F(0)]


def test_custom_g0_rejects_unclosed_span(eta3):
    # [E12, E21] = E11 - E22 lies outside span{E12, E21}
    e12 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    e21 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match="not closed"):
        custom_g0(eta3, [e12, e21])


@settings(max_examples=30)
@given(
    st.lists(coeffs_st, min_size=3, max_size=3),
    st.lists(coeffs_st, min_size=3, max_size=3),
    st.lists(coeffs_st, min_size=3, max_size=3),
    coeffs_st,
    coeffs_st,
)
def test_bracket_bilinear_antisymmetric(xs, ys, zs, a, b):
    m = make_eta3()
    left = m.bracket([a * x + b * y for x, y in zip(xs, ys)], zs)
    right = [a * u + b * v for u, v in zip(m.bracket(xs, zs), m.bracket(ys, zs))]
    assert left == right
    assert m.bracket(xs, xs) == [F(0)] * 3
    assert m.bracket(xs, ys) == [-t for t in m.bracket(ys, xs)]


def test_degree_additivity(m25):
    for a in range(m25.dim):
        for b in range(a + 1, m25.dim):
            target = m25.degree_of(a) + m25.degree_of(b)
            w = m25.bracket(m25.unit_vector(a), m25.unit_vector(b))
            for c, value in enumerate(w):
                if value:
                    assert m25.degree_of(c) == target
