import random
from fractions import Fraction
from pathlib import Path

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
from gradedlie import linalg, specfile
from gradedlie.algebra import (
    _flat_commutators,
    derivation_violation,
    derivation_violations,
    map_layout,
    maps_from_rows,
)

from conftest import bracket, canonical, make_eta3, unit_vector

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
    x1 = unit_vector(eta3, 0)
    x2 = unit_vector(eta3, 1)
    assert bracket(eta3, x1, x2) == unit_vector(eta3, 2)
    assert bracket(eta3, x2, x1) == [F(0), F(0), F(-1)]


def test_bracket_m25():
    m = make_m25_like()
    assert bracket(m, unit_vector(m, 1), unit_vector(m, 2)) == unit_vector(m, 4)
    # basis elements are immutable values, equal and hashed by name and degree
    assert m.basis[0] == BasisElement("X1", -1) != BasisElement("X1", -2)
    assert len({*m.basis, BasisElement("X1", -1)}) == 5
    with pytest.raises(AttributeError):
        m.basis[0].degree = 0


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
    assert report.describe() == "grading violated at pair ('X1', 'X2'); negative part is not nilpotent"


def test_ungraded_series_reaches_zero_after_its_rank_stalls():
    # [e0, e1] = e2 of degree 1 and [e0, e2] = e3: the series of the negative
    # part has ranks 3, 1, 1, 0, its spans <e2> and <e3> differ
    table = GradedLieAlgebra([BasisElement("e0", -1), BasisElement("e1", -1), BasisElement("e2", 1),
                              BasisElement("e3", -1)], {(0, 1): {2: 1}, (0, 2): {3: 1}})
    report = check_validity(table)
    assert report.nilpotent_ok and reference_nilpotent(table)
    assert report.describe() == "grading violated at pair ('e0', 'e1')"


def test_graded_algebra_skips_the_lower_central_series(example5_result, monkeypatch):
    # a graded bracket already makes the negative part nilpotent
    def boom(algebra):
        raise AssertionError("lower central series computed for a graded algebra")

    monkeypatch.setattr(algebra_module, "_negative_part_nilpotent", boom)
    report = check_validity(example5_result.algebra)
    assert report.ok and report.nilpotent_ok


def test_jacobi_witness_in_an_empty_degree_is_found_when_grading_fails():
    # [X, Y] = Z breaks the grading (Z has degree -1, not -2), and with
    # [X, Z] = X the (X, Y, Z) Jacobi sum is -[X, Y] = -Z.  The triple's
    # degrees sum to -3, where there is no basis element: only a graded
    # table may skip such triples
    bad = GradedLieAlgebra(
        [BasisElement("X", -1), BasisElement("Y", -1), BasisElement("Z", -1)],
        {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}},
    )
    report = check_validity(bad)
    assert not report.grading_ok and report.grading_witness == ("X", "Y")
    assert not report.jacobi_ok and report.jacobi_witness == ("X", "Y", "Z")


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
    assert report.describe() == "Jacobi violated at triple ('A', 'B', 'C')"


def test_fundamental(eta3, m25):
    assert check_fundamental(eta3)
    assert check_fundamental(m25)
    split = GradedLieAlgebra(
        [BasisElement("X1", -1), BasisElement("X2", -2)], {}
    )
    assert not check_fundamental(split)
    # no degree -1 part; a degree gap that brackets of g^-1 cannot cross
    assert not check_fundamental(GradedLieAlgebra([BasisElement("Y", -2)], {}))
    assert not check_fundamental(GradedLieAlgebra([BasisElement("X", -1), BasisElement("W", -3)], {}))
    assert check_fundamental(GradedLieAlgebra([], {}))


def test_public_constructor_checks_every_bracket():
    # only the engine's own tables skip these checks (GradedLieAlgebra._of_table)
    basis = [BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("Y", -2)]
    for brackets, error, message in (({(0, 3): {2: 1}}, ValueError, r"pair \(0, 3\) out of range"),
                                     ({(-1, 1): {2: 1}}, ValueError, "out of range"),
                                     ({(0, 1): {3: 1}}, ValueError, "target 3 out of range"),
                                     ({(1, 0): {2: 1}}, ValueError, "a < b"),
                                     ({(1, 1): {2: 1}}, ValueError, "a < b"),
                                     ({(0, 1): {2: 0.5}}, TypeError, "floats")):
        with pytest.raises(error, match=message):
            GradedLieAlgebra(basis, brackets)
    algebra = GradedLieAlgebra(basis, {(0, 1): {2: Fraction(4, 2)}, (0, 2): {2: 0}})
    assert algebra._table == {(0, 1): {2: 2}} and type(algebra._table[(0, 1)][2]) is int


@pytest.mark.parametrize("build, message", [
    (lambda m, g: GradedLieAlgebra([BasisElement("X", -1), BasisElement("X", -2)], {}), "names must be unique"),
    (lambda m, g: derivation_violation(m, GradedLinearMap(0, {-1: [[1, 0], [0, 1]]})), "no block on degree -2"),
    (lambda m, g: derivation_violation(m, GradedLinearMap(0, {-1: [[1, 0], [0, 1]], -2: [[1, 0]]})),
     "coordinate count"),
    (lambda m, g: DegreeZeroAlgebra(adjoin_g0(m, DegreeZeroAlgebra(m, [g])), []), "negative degrees only"),
    (lambda m, g: DegreeZeroAlgebra(m, [GradedLinearMap(1, {})]), "generator 1 does not have degree 0"),
    (lambda m, g: DegreeZeroAlgebra(m, [g, g]), "linearly dependent"),
], ids=["duplicate-names", "missing-block", "block-height", "g0-of-graded",
        "generator-degree", "dependent-generators"])
def test_constructors_reject_invalid_arguments(eta3, build, message):
    grading = GradedLinearMap(0, {-1: [[1, 0], [0, 1]], -2: [[2]]})
    with pytest.raises((ValueError, KeyError), match=message):
        build(eta3, grading)


def test_fundamental_rejects_nonnegative_degrees(eta3, lambda_g0):
    extended = adjoin_g0(eta3, lambda_g0)
    with pytest.raises(ValueError):
        check_fundamental(extended)


def test_adjoin_g0_example5(eta3, lambda_g0):
    extended = adjoin_g0(eta3, lambda_g0)
    assert extended.dim == 5
    assert extended.dims_by_degree() == {-2: 1, -1: 2, 0: 2}
    # [Lambda_1, X3] = Lambda_1(X3) = 2 X3 under [f, v] = f(v)
    lam1 = unit_vector(extended, 3)
    x3 = unit_vector(extended, 2)
    assert bracket(extended, lam1, x3) == [F(0), F(0), F(2), F(0), F(0)]
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
    e21 = unit_vector(extended, 2 + 1)
    e12 = unit_vector(extended, 2 + 2)
    expected = [F(0)] * 6
    expected[2 + 0] = F(-1)  # -E11
    expected[2 + 3] = F(1)   # +E22
    assert bracket(extended, e21, e12) == expected


def test_derivation_violation_witness(eta3):
    bad = GradedLinearMap(0, {-1: [[F(1), F(0)], [F(0), F(0)]], -2: [[F(0)]]})
    assert derivation_violation(eta3, bad) == ("X1", "X2")
    good = GradedLinearMap(0, {-1: [[F(1), F(0)], [F(0), F(1)]], -2: [[F(2)]]})
    assert derivation_violation(eta3, good) is None


def test_degree_zero_algebra_names_the_first_failing_generator(eta3):
    grading = GradedLinearMap(0, {-1: [[1, 0], [0, 1]], -2: [[2]]})
    first = GradedLinearMap(0, {-1: [[1, 0], [0, 0]], -2: [[0]]})  # fails on (X1, X2)
    second = GradedLinearMap(0, {-1: [[0, 0], [0, 0]], -2: [[1]]})  # fails on (X1, X2) as well
    assert derivation_violation(eta3, first) == derivation_violation(eta3, second) == ("X1", "X2")
    for maps, label in (([grading, first, second], "generator 2"), ([second, grading, first], "generator 1"),
                        ([grading, second, first], "generator 2")):
        with pytest.raises(ValueError, match=f"^{label} is not a derivation: Leibniz fails on pair "
                                             r"\('X1', 'X2'\)$"):
            DegreeZeroAlgebra(eta3, maps)
    with pytest.raises(ValueError, match="^map 3 is not a derivation"):
        DegreeZeroAlgebra(eta3, [grading, second, first], ["map 1", "map 3", "map 4"])
    assert list(derivation_violations(eta3, [grading, first, grading, second])) == [
        None, ("X1", "X2"), None, ("X1", "X2")]


def dense_derivation_violation(symbol, f):
    """Reference: the Leibniz rule checked with dense brackets of full vectors."""
    n = symbol.dim

    def image(a):
        i = symbol.degree_of(a)
        v = [F(0)] * n
        for c, value in zip(symbol.indices_of_degree(i), f.image_of_basis(i, symbol.position_in_degree(a))):
            v[c] = value
        return v

    for a in range(n):
        for b in range(a + 1, n):
            lhs = [F(0)] * n
            for c, value in symbol.bracket_basis(a, b).items():
                lhs = [x + value * y for x, y in zip(lhs, image(c))]
            rhs1 = bracket(symbol, image(a), unit_vector(symbol, b))
            rhs2 = bracket(symbol, unit_vector(symbol, a), image(b))
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
            blocks = {i: [list(gen.image_of_basis(i, a)) for a in range(dom)]
                      for i, (dom, _) in gen.shapes.items()}
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
        [entry for a in range(2) for entry in gen.image_of_basis(-1, a)] + list(gen.image_of_basis(-2, 0))
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
    left = bracket(m, [a * x + b * y for x, y in zip(xs, ys)], zs)
    right = [a * u + b * v for u, v in zip(bracket(m, xs, zs), bracket(m, ys, zs))]
    assert left == right
    assert bracket(m, xs, xs) == [F(0)] * 3
    assert bracket(m, xs, ys) == [-t for t in bracket(m, ys, xs)]


def test_degree_additivity(m25):
    for a in range(m25.dim):
        for b in range(a + 1, m25.dim):
            target = m25.degree_of(a) + m25.degree_of(b)
            w = bracket(m25, unit_vector(m25, a), unit_vector(m25, b))
            for c, value in enumerate(w):
                if value:
                    assert m25.degree_of(c) == target


def dense_commutator_deg0(f, g):
    """Reference: the dense commutator, each block applied column by column."""

    def apply(block, coords, length):
        out = [F(0)] * length
        for a, value in enumerate(coords):
            if value:
                for t, entry in enumerate(block[a]):
                    out[t] += value * entry
        return out

    blocks = {}
    for i, (dom, tgt) in f.shapes.items():
        f_block = [f.image_of_basis(i, a) for a in range(dom)]
        g_block = [g.image_of_basis(i, a) for a in range(dom)]
        blocks[i] = [
            [x - y for x, y in zip(apply(f_block, g_block[a], tgt), apply(g_block, f_block[a], tgt))]
            for a in range(dom)
        ]
    return GradedLinearMap(0, blocks)


def spec_g0(path):
    spec = specfile.parse_spec(specfile.load_document(path.read_text()))
    return specfile.build_g0(spec, specfile.build_symbol(spec))


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("make_symbol", [
    lambda: free_nilpotent(2, 5),
    lambda: free_nilpotent(3, 3),
    lambda: spec_g0(ROOT / "perfbench" / "specs" / "euclid-7.json").symbol,
], ids=["free-2-5", "free-3-3", "euclid-7"])
def test_sparse_leibniz_witness_matches_dense_reference_on_perturbed_maps(make_symbol):
    symbol = make_symbol()
    rng = random.Random(20)
    generators = list(degree_zero_derivations(symbol).generators)
    maps = []
    for gen in rng.sample(generators, min(6, len(generators))):
        blocks = {i: [list(gen.image_of_basis(i, a)) for a in range(dom)] for i, (dom, _) in gen.shapes.items()}
        # a scaled derivation stays one, denominators and all
        maps.append(GradedLinearMap(0, {i: [[x * F(2, 3) for x in col] for col in cols]
                                        for i, cols in blocks.items()}))
        for _ in range(4):
            perturbed = {i: [list(col) for col in cols] for i, cols in blocks.items()}
            for _ in range(rng.randint(1, 2)):
                cols = perturbed[rng.choice(sorted(perturbed))]
                col = cols[rng.randrange(len(cols))]
                col[rng.randrange(len(col))] += F(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
            maps.append(GradedLinearMap(0, perturbed))
    witnesses = [derivation_violation(symbol, f) for f in maps]
    assert witnesses == [dense_derivation_violation(symbol, f) for f in maps]
    assert witnesses[::5] == [None] * len(witnesses[::5])
    # batches of maps in a shuffled order share one index of the table
    # and carry nothing from one map to the next
    order = list(range(len(maps)))
    rng.shuffle(order)
    while order:
        size = rng.randint(1, 7)
        batch, order = order[:size], order[size:]
        assert list(derivation_violations(symbol, [maps[k] for k in batch])) == [witnesses[k] for k in batch]
    if symbol.bracket_pairs():
        assert len(set(witnesses) - {None}) > 3
    else:  # on an abelian symbol every grading-preserving map is a derivation
        assert set(witnesses) == {None}


@pytest.mark.parametrize("make_g0", [
    lambda: degree_zero_derivations(free_nilpotent(3, 3)),
    lambda: spec_g0(ROOT / "perfbench" / "specs" / "euclid-7.json"),
    lambda: spec_g0(ROOT / "corpus" / "riemannian-n5.json"),
], ids=["free-3-3", "euclid-7", "riemannian-n5"])
def test_sparse_commutator_matches_dense_reference(make_g0):
    g0 = make_g0()
    gens = g0.generators
    flats = [g.flatten(g0._layout) for g in gens]
    pairs = sorted(g0.structure_constants)
    assert len(pairs) == g0.dim * (g0.dim - 1) // 2
    dense = [dense_commutator_deg0(gens[s], gens[t]).flat_entries(g0._layout) for s, t in pairs]
    flat = _flat_commutators(gens, g0._layout, pairs)
    assert flat == dense
    assert all(canonical(x) for comm in flat for x in comm.values())
    # structure constants in generator coordinates, from the dense commutators
    reference = linalg.express_in_basis(flats, dense)
    assert [g0.structure_constants[pair] for pair in pairs] == reference
    assert any(g0.structure_constants.values())


def test_sparse_commutator_of_perturbed_maps_matches_dense_reference():
    # the full g0's derivations, perturbed, seeded, are no longer
    # derivations and their commutators leave the span
    symbol = free_nilpotent(3, 3)
    derivations = degree_zero_derivations(symbol).generators
    rng = random.Random(7)
    perturbed = []
    for g in derivations[:6]:
        blocks = {i: [list(g.image_of_basis(i, a)) for a in range(dom)] for i, (dom, _) in g.shapes.items()}
        for _ in range(3):
            col = rng.choice(blocks[rng.choice(sorted(blocks))])
            col[rng.randrange(len(col))] += F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4))
        perturbed.append(GradedLinearMap(0, blocks))
    maps = perturbed + list(derivations[:3])
    layout = map_layout(symbol.dims_by_degree(), 0)
    pairs = [(s, t) for s in range(len(maps)) for t in range(len(maps))]
    flat = _flat_commutators(maps, layout, pairs)
    assert flat == [dense_commutator_deg0(maps[s], maps[t]).flat_entries(layout) for s, t in pairs]
    assert all(canonical(x) for comm in flat for x in comm.values())
    assert any(type(x) is F for comm in flat for x in comm.values())


def test_dense_and_sparse_maps_are_one_representation():
    g0 = degree_zero_derivations(free_nilpotent(2, 3))
    layout = map_layout(g0.symbol.dims_by_degree(), 0)
    for f in g0.generators:
        # the engine builds maps from sparse rows; dense blocks carry explicit zeros
        dense = {i: [list(f.image_of_basis(i, a)) for a in range(dom)] for i, (dom, _) in f.shapes.items()}
        assert any(x == 0 for cols in dense.values() for col in cols for x in col)
        assert GradedLinearMap(0, dense) == f
        assert maps_from_rows(0, layout, [f.flat_entries(layout)]) == [f]
        assert f.flatten(layout) == [f.flat_entries(layout).get(c, F(0)) for c in range(len(f.flatten(layout)))]
    comm = maps_from_rows(0, layout, _flat_commutators(g0.generators, layout, [(0, 1)]))[0]
    dense = {i: [list(comm.image_of_basis(i, a)) for a in range(dom)] for i, (dom, _) in comm.shapes.items()}
    assert GradedLinearMap(0, dense) == comm
    assert all(x for cols in comm.columns.values() for col in cols for x in col.values())
    with pytest.raises(ValueError, match="differ in length"):
        GradedLinearMap(0, {-1: [[F(1), F(0)], [F(1)]]})
    with pytest.raises(KeyError, match="no block on degree -4"):
        g0.generators[0].image_of_basis(-4, 0)
    assert repr(g0.generators[0]) == "GradedLinearMap(degree=0, blocks={-3: (2, 2), -2: (1, 1), -1: (2, 2)})"


def reference_jacobi_witness(algebra):
    """Reference: the first basis triple a < b < c breaking Jacobi, from copied brackets."""
    n = algebra.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                acc = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for t, v in algebra.bracket_basis(x, y).items():
                        for u, w in algebra.bracket_basis(t, z).items():
                            acc[u] = acc.get(u, F(0)) + v * w
                if any(acc.values()):
                    return tuple(algebra.basis[i].name for i in (a, b, c))
    return None


def reference_grading_witness(algebra):
    """Reference: the first pair a < b, in lexicographic order, whose
    bracket has a term off the degree deg a + deg b."""
    n = algebra.dim
    for a in range(n):
        for b in range(a + 1, n):
            expected = algebra.degree_of(a) + algebra.degree_of(b)
            if any(algebra.degree_of(c) != expected for c in algebra.bracket_basis(a, b)):
                return (algebra.basis[a].name, algebra.basis[b].name)
    return None


def dense_row_basis(rows):
    """Independent rows spanning `rows`, by plain Fraction elimination."""
    basis = []  # (pivot, row with a 1 at the pivot and 0 at every earlier pivot)
    for row in rows:
        for p, b in basis:
            if row[p]:
                row = [x - row[p] * y for x, y in zip(row, b)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None:
            basis.append((lead, [x / row[lead] for x in row]))
    return [b for _, b in basis]


def reference_nilpotent(algebra):
    """Reference: the series C^1 = span of the negative basis, C^(k+1) =
    span of [e_a, C^k] over the negative e_a, from dense copied brackets,
    reaches 0 within dim steps and before a step repeats its span (the
    series is constant from there on)."""
    n = algebra.dim
    negative = [a for a in range(n) if algebra.degree_of(a) < 0]
    current = [unit_vector(algebra, a) for a in negative]
    for _ in range(n):
        if not current:
            return True
        image = []
        for a in negative:
            for v in current:
                w = [F(0)] * n
                for c, x in enumerate(v):
                    if x:
                        for t, y in algebra.bracket_basis(a, c).items():
                            w[t] += x * y
                image.append(w)
        spanned = dense_row_basis(image)
        if len(spanned) == len(current) == len(dense_row_basis(current + spanned)):
            return False
        current = spanned
    return not current


@st.composite
def antisymmetric_tables(draw, coefficients=st.sampled_from([-2, -1, 1, F(1, 2)])):
    """Algebras over a random sparse antisymmetric bracket table, Lie or not,
    graded or not."""
    n = draw(st.integers(min_value=1, max_value=7))
    basis = [BasisElement(f"e{i}", draw(st.integers(min_value=-2, max_value=1))) for i in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.integers(min_value=0, max_value=2)) == 0:
                brackets[(a, b)] = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                                        coefficients, min_size=1, max_size=2))
    return GradedLieAlgebra(basis, brackets)


@settings(max_examples=300, deadline=None)
@given(antisymmetric_tables())
def test_jacobi_witness_matches_copying_reference_on_random_tables(algebra):
    report = check_validity(algebra)
    assert report.jacobi_witness == reference_jacobi_witness(algebra)
    assert report.jacobi_ok == (report.jacobi_witness is None)
    assert report.grading_witness == reference_grading_witness(algebra)
    assert report.grading_ok == (report.grading_witness is None)
    assert report.nilpotent_ok == reference_nilpotent(algebra)


def test_jacobi_check_matches_copying_reference(example5_result, terminated_algebras):
    rng = random.Random(3)
    base = example5_result.algebra
    base_scale = linalg._integral(base._table)[1]
    # integer corruptions, then fractional ones, which give the check a
    # table scaled to integers by a larger lcm of denominators
    for shifts, grows in (([-2, -1, 1, 3], False), ([F(1, 2), F(-2, 3), F(5, 6)], True)):
        seen, scales = set(), set()
        for _ in range(12):
            brackets = {pair: base.bracket_basis(*pair) for pair in base.bracket_pairs()}
            for _ in range(rng.randint(1, 2)):
                terms = brackets[rng.choice(sorted(brackets))]
                terms[rng.choice(sorted(terms))] += F(rng.choice(shifts))
            corrupted = GradedLieAlgebra(base.basis, brackets)
            scales.add(linalg._integral(corrupted._table)[1])
            witness = check_validity(corrupted).jacobi_witness
            assert witness == reference_jacobi_witness(corrupted)
            seen.add(witness)
        assert len(seen - {None}) > 5
        assert (max(scales) > base_scale) == grows
    assert check_validity(base).jacobi_witness is None
    # three kinds of corruption of every terminated corpus and perfbench
    # table: an entry shifted, a pair added (some with a target of the wrong
    # degree, so the check also runs with the grading broken) and a pair
    # deleted
    witnessed, ungraded = 0, 0
    for base in terminated_algebras.values():
        assert check_validity(base).jacobi_witness is None
        n = base.dim
        for kind in ("shift", "add", "delete") * 8:
            brackets = {pair: base.bracket_basis(*pair) for pair in base.bracket_pairs()}
            pair = rng.choice(sorted(brackets))
            if kind == "shift":
                terms = brackets[pair]
                terms[rng.choice(sorted(terms))] += rng.choice([-2, -1, 1, F(1, 2)])
            elif kind == "delete":
                del brackets[pair]
            else:
                a, b = rng.choice([(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in brackets])
                graded = [c for c in range(n) if base.degree_of(c) == base.degree_of(a) + base.degree_of(b)]
                c = rng.choice(graded) if graded and rng.random() < 0.5 else rng.randrange(n)
                brackets[(a, b)] = {c: rng.choice([-1, 1, 3])}
            corrupted = GradedLieAlgebra(base.basis, brackets)
            report = check_validity(corrupted)
            assert report.jacobi_witness == reference_jacobi_witness(corrupted)
            assert report.jacobi_ok == (report.jacobi_witness is None)
            assert report.grading_witness == reference_grading_witness(corrupted)
            assert report.nilpotent_ok == reference_nilpotent(corrupted)
            witnessed += report.jacobi_witness is not None
            ungraded += not report.grading_ok
    assert witnessed > 150 and ungraded > 30
