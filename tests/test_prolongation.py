import functools
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gradedlie import (
    BasisElement,
    GradedLieAlgebra,
    GradedLinearMap,
    abelian,
    adjoin_g0,
    build_spencer,
    check_transitivity,
    check_fundamental,
    check_validity,
    custom_g0,
    degree_zero_derivations,
    free_nilpotent,
    heisenberg,
    orthogonal_derivations,
    prolong_step,
    universal_prolongation,
)
from gradedlie import cli, linalg, prolongation
from gradedlie.algebra import DegreeZeroAlgebra, layout_offsets, map_layout, maps_from_rows, tower_dims
from gradedlie.prolongation import (
    InternalConsistencyError,
    _assemble,
    leibniz_system,
    spencer_kernel_from_system,
)
from gradedlie.symbols import EuclideanForm

from conftest import CORPUS, LAMBDA_1, LAMBDA_2, bracket, pairs, table_of, unit_vector
from test_linalg import corrupted_rref
from test_parabolic import prolonged_grading

F = Fraction


def reference_g1_maps():
    # X1 -> L1 + 3 L2, X3 -> -2 X2   and   X2 -> L1 - 3 L2, X3 -> 2 X1
    lam11 = GradedLinearMap(1, {-1: [[F(1), F(3)], [F(0), F(0)]], -2: [[F(0), F(-2)]]})
    lam21 = GradedLinearMap(1, {-1: [[F(0), F(0)], [F(1), F(-3)]], -2: [[F(2), F(0)]]})
    return lam11, lam21


def flatten_all(maps, layout):
    return [m.flatten(layout) for m in maps]


def coordinates(basis_flat, maps, layout):
    """Dense coordinates of each map over the flattened basis, or None
    outside its span."""
    return [None if c is None else linalg.dense(c, len(basis_flat))
            for c in linalg.express_in_basis(basis_flat, [f.flat_entries(layout) for f in maps])]


def spans_match(a_flat, b_flat):
    if len(a_flat) != len(b_flat):
        return False
    r = linalg.vectors_rank(a_flat) if a_flat else 0
    return r == len(a_flat) and linalg.vectors_rank(a_flat + b_flat) == r


def test_example5_first_prolongation(eta3, lambda_g0):
    basis1 = prolong_step(eta3, [list(lambda_g0.generators)])
    assert len(basis1) == 2
    dims = tower_dims(eta3, [lambda_g0.generators])
    layout = map_layout(dims, 1)
    lam11, lam21 = reference_g1_maps()
    assert spans_match(flatten_all(basis1, layout), flatten_all([lam11, lam21], layout))


def test_example5_second_and_third_prolongation(eta3, lambda_g0, example5_result):
    bases = example5_result.bases
    assert [len(b) for b in bases] == [2, 2, 1]
    assert example5_result.terminated
    assert example5_result.vanishing_degree == 3

    # express the stated degree-2 generator over the computed degree-1 basis
    dims = tower_dims(eta3, bases)
    layout1 = map_layout(dims, 1)
    computed1 = flatten_all(list(bases[1]), layout1)
    lam11, lam21 = reference_g1_maps()
    c11, c21 = coordinates(computed1, [lam11, lam21], layout1)
    assert c11 is not None and c21 is not None
    reference_g2 = GradedLinearMap(
        2, {-1: [c21, [-x for x in c11]], -2: [[F(2), F(0)]]}
    )
    layout2 = map_layout(dims, 2)
    assert spans_match(flatten_all(list(bases[2]), layout2), [reference_g2.flatten(layout2)])


def test_route_equivalence_example5(eta3, lambda_g0, example5_result):
    g_bases = [list(b) for b in example5_result.bases]
    for k in range(len(g_bases)):
        direct = prolong_step(eta3, g_bases[: k + 1])
        kernel = spencer_kernel_from_system(build_spencer(eta3, g_bases[: k + 1], k))
        assert direct == kernel


def test_spencer_kernel_nonnegative_blocks_vanish_raw():
    # full contact symbol: infinite type with nontrivial non-negative blocks
    from gradedlie import heisenberg

    m = heisenberg(1)
    g0 = degree_zero_derivations(m)
    result = universal_prolongation(m, g0, max_degree=3)
    g_bases = [list(b) for b in result.bases]
    for k in (1, 2):
        system = build_spencer(m, g_bases[: k + 1], k)
        assert system.copies and system.restriction.cols  # the domain has non-negative blocks
        for vector in linalg.nullspace(system.matrix):
            positive = vector[system.negative.cols:]  # the non-negative blocks come last
            assert not any(positive)


def test_riemannian_first_prolongation_vanishes():
    for n in (2, 3, 4, 5):
        m = abelian(n)
        q = EuclideanForm([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        g0 = orthogonal_derivations(m, q)
        assert prolong_step(m, [list(g0.generators)]) == []


def test_gl_n_first_kernel_is_symmetric_tensors():
    for n in (2, 3):
        m = abelian(n)
        g0 = degree_zero_derivations(m)
        kernel = spencer_kernel_from_system(build_spencer(m, [list(g0.generators)], 0))
        assert len(kernel) == n * n * (n + 1) // 2


def test_zero_g0_prolongation_is_trivial(eta3):
    from gradedlie import custom_g0

    result = universal_prolongation(eta3, custom_g0(eta3, []))
    assert result.terminated
    assert result.vanishing_degree == 1
    assert result.total_dimension == 3


def test_infinite_type_line(eta3):
    m = abelian(1)
    g0 = degree_zero_derivations(m)
    result = universal_prolongation(m, g0, max_degree=10)
    assert not result.terminated
    assert result.total_dimension is None
    assert all(result.dims[k] == 1 for k in range(0, 11))
    # brute-force oracle: one basis element means no pairs, so the
    # constraint system is empty and the whole domain survives
    for k in range(1, 11):
        _, matrix = leibniz_system(m, [list(b) for b in result.bases[:k]], k)
        assert matrix.rows == 0
        assert matrix.cols == 1


def test_example5_assembled_table(eta3, lambda_g0, example5_result):
    result = example5_result
    algebra = result.algebra
    assert check_validity(algebra).ok

    dims = tower_dims(eta3, result.bases)
    layout1 = map_layout(dims, 1)
    computed1 = flatten_all(list(result.bases[1]), layout1)
    lam11, lam21 = reference_g1_maps()
    c11, c21 = coordinates(computed1, [lam11, lam21], layout1)

    def global_vec(degree, coords):
        vec = [F(0)] * algebra.dim
        offset = {0: 3, 1: 5, 2: 7}[degree]
        for t, value in enumerate(coords):
            vec[offset + t] = value
        return vec

    v11 = global_vec(1, c11)
    v21 = global_vec(1, c21)
    lam10 = global_vec(0, [F(1), F(0)])
    lam20 = global_vec(0, [F(0), F(1)])

    # [L1^1, L2^1] = 2 Lambda with Lambda(X3) = 2 L1^0: recover Lambda's
    # global vector from the computed degree-2 basis
    dims2 = map_layout(dims, 2)
    computed2 = flatten_all(list(result.bases[2]), dims2)
    reference_g2 = GradedLinearMap(2, {-1: [c21, [-x for x in c11]], -2: [[F(2), F(0)]]})
    c_lam = coordinates(computed2, [reference_g2], dims2)[0]
    v_lam = global_vec(2, c_lam)

    assert bracket(algebra, v11, v21) == [2 * x for x in v_lam]
    # weight relations under the degree-zero part
    assert bracket(algebra, v11, lam10) == v11
    assert bracket(algebra, v11, lam20) == v11
    assert bracket(algebra, v21, lam10) == v21
    assert bracket(algebra, v21, lam20) == [-x for x in v21]
    # [f, f] = 0
    assert bracket(algebra, v11, v11) == [F(0)] * algebra.dim

    # the table entries of the pairs (g0_1, g0_2) and (g1_1, g1_2), read
    # through the assembled algebra
    names = [e.name for e in algebra.basis]
    g0_1, g0_2, g1_1, g1_2, g2_1 = (
        names.index(n) for n in ("g0_1", "g0_2", "g1_1", "g1_2", "g2_1")
    )
    assert algebra.bracket_basis(g0_1, g0_2) == {}
    assert set(algebra.bracket_basis(g1_1, g1_2)) == {g2_1}


def test_transitivity_holds_and_detects_corruption(example5_result):
    report = check_transitivity(example5_result)
    assert report.ok

    bad_map = GradedLinearMap(
        1, {-1: [[F(0), F(0)], [F(0), F(0)]], -2: [[F(1), F(0)]]}
    )
    bases = list(example5_result.bases)
    bases[1] = tuple(list(bases[1]) + [bad_map])
    corrupted = example5_result._replace(bases=tuple(bases))
    report = check_transitivity(corrupted)
    assert not report.ok
    assert report.degree == 1
    assert report.witness is not None
    assert any(report.witness)


def test_truncated_run_reports_as_such(eta3, lambda_g0):
    result = universal_prolongation(eta3, lambda_g0, max_degree=1)
    assert not result.terminated
    assert result.vanishing_degree is None
    assert result.total_dimension is None
    assert result.dims[1] == 2
    assert 2 not in result.dims


def test_g0_given_as_a_list_of_maps(eta3, lambda_g0, example5_result):
    result = universal_prolongation(eta3, list(lambda_g0.generators))
    assert result.g0.generators == lambda_g0.generators
    assert result.graded_dimensions() == example5_result.graded_dimensions()
    assert result.algebra.rows == example5_result.algebra.rows


def test_assembled_names_step_around_symbol_names():
    m = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("g0_1", -2)],
                         {(0, 1): {2: 1}})
    g0 = custom_g0(m, [LAMBDA_1, LAMBDA_2])
    result = universal_prolongation(m, g0)
    assert [e.name for e in result.algebra.basis] == ["X1", "X2", "g0_1", "g0_1_", "g0_2", "g1_1", "g1_2", "g2_1"]
    assert [e.name for e in adjoin_g0(m, g0).basis] == ["X1", "X2", "g0_1", "g0_1_", "g0_2"]


def test_adjoin_g0_is_the_degree_zero_part_of_the_prolongation(corpus_results, perfbench_results):
    # the same names, degrees and brackets as the assembled algebra below
    # the first element of degree 1
    for name, (_, symbol, g0, result) in {**corpus_results, **perfbench_results}.items():
        extended, n = adjoin_g0(symbol, g0), symbol.dim + g0.dim
        assert extended.basis == result.algebra.basis[:n], name
        assert extended.rows == [{b: terms for b, terms in row.items() if b < n}
                                 for row in result.algebra.rows[:n]], name


def test_determinism(eta3, lambda_g0):
    a = universal_prolongation(eta3, lambda_g0)
    b = universal_prolongation(eta3, lambda_g0)
    assert a.bases == b.bases
    assert a.dims == b.dims
    assert all(
        a.algebra.bracket_basis(*p) == b.algebra.bracket_basis(*p)
        for p in pairs(a.algebra)
    )


def test_full_contact_symbol_matches_weighted_monomial_count():
    # the full symmetry algebra of the contact plane field is the contact
    # vector fields; its degree-k piece is spanned by generating functions of
    # weighted degree k + 2 in two weight-1 and one weight-2 variables
    from gradedlie import heisenberg

    m = heisenberg(1)
    result = universal_prolongation(m, degree_zero_derivations(m), max_degree=4)
    assert not result.terminated
    for k in range(-2, 5):
        expected = sum((k + 2 - 2 * c) + 1 for c in range((k + 2) // 2 + 1))
        assert result.dims[k] == expected


def test_higher_step_free_symbols_stop_at_degree_one():
    # regression pins: only step 3 on two generators prolongs past g^0
    from gradedlie import free_nilpotent

    for mu, total in ((4, 12), (5, 18)):
        m = free_nilpotent(2, mu)
        result = universal_prolongation(m, degree_zero_derivations(m))
        assert result.terminated
        assert result.vanishing_degree == 1
        assert result.total_dimension == total


def test_generic_subriemannian_contact_case():
    # regression pin: a generic metric on the 5-dimensional contact symbol
    from gradedlie import heisenberg

    m = heisenberg(2)
    q = EuclideanForm([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    result = universal_prolongation(m, orthogonal_derivations(m, q), max_degree=5)
    assert result.terminated
    assert result.vanishing_degree == 1
    assert result.total_dimension == 7


def test_parallel_runs_are_independent():
    import concurrent.futures

    from gradedlie import custom_g0
    from conftest import LAMBDA_1, LAMBDA_2, make_eta3

    def run(_):
        m = make_eta3()
        g0 = custom_g0(m, [LAMBDA_1, LAMBDA_2])
        result = universal_prolongation(m, g0)
        return result.graded_dimensions(), result.total_dimension

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(run, range(4)))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    assert outcomes[0][1] == 8


def test_rejects_invalid_inputs(eta3):
    with pytest.raises(ValueError, match="max_degree"):
        universal_prolongation(eta3, custom_g0(eta3, []), max_degree=0)
    # g0 built directly, so that the guards of universal_prolongation itself answer
    split = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -2)], {})
    with pytest.raises(ValueError, match="symbol is not fundamental"):
        universal_prolongation(split, DegreeZeroAlgebra(split, []))
    ungraded = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -1)], {(0, 1): {0: 1}})
    with pytest.raises(ValueError, match=r"not a valid graded Lie algebra: grading violated at pair \('X1', 'X2'\)"):
        universal_prolongation(ungraded, DegreeZeroAlgebra(ungraded, []))
    with pytest.raises(ValueError, match="at least the degree-zero level"):
        prolong_step(eta3, [])
    # a g0 of heisenberg(2) is no g0 of the symbol on the same basis with
    # [p1, q2] = [p2, q1] = Z
    m = heisenberg(2)
    other = GradedLieAlgebra(m.basis, {(0, 3): {4: 1}, (1, 2): {4: 1}})
    g0 = degree_zero_derivations(m)
    with pytest.raises(ValueError, match="g0 was built for a different symbol"):
        universal_prolongation(other, g0, max_degree=2)
    with pytest.raises(ValueError, match="g0 was built for a different symbol"):
        adjoin_g0(other, g0)


def test_assemble_rejects_brackets_beyond_the_vanishing_degree(corpus_results):
    # contact-n1 is of infinite type: its truncated tower taken as terminated
    # has brackets that do not vanish above the top computed degree, and so
    # has its rescaled twin, whose brackets have denominators
    for result in (corpus_results["contact-n1"][-1], contact_rescaled()):
        assert not result.terminated
        algebra = result.algebra
        names = [e.name for e in algebra.basis]
        with pytest.raises(InternalConsistencyError, match=r"\(1, 3\) is nonzero beyond the vanishing degree") as info:
            _assemble(result.symbol, [list(b) for b in result.bases], result.g0, True)
        # the witness: column 0 of the degree-4 layout is the coordinate on
        # the first degree-2 element of [[x, y], v], v the degree -2 element,
        # composed here as [x, [y, v]] - [y, [x, v]] over the truncated table
        x, y = unit_vector(algebra, names.index("g1_1")), unit_vector(algebra, names.index("g3_2"))
        v = unit_vector(algebra, algebra.indices_of_degree(-2)[0])
        image = [p - q for p, q in zip(bracket(algebra, x, bracket(algebra, y, v)),
                                       bracket(algebra, y, bracket(algebra, x, v)))]
        value = image[algebra.indices_of_degree(2)[0]]
        assert value
        assert str(info.value) == ("bracket [g1_1, g3_2] of degrees (1, 3) is nonzero beyond the vanishing degree: "
                                   f"column 0 of its map is {value} after reconstruction")


def test_assemble_rejects_brackets_that_escape_the_basis(corpus_results):
    # with one degree-1 map of cartan-25 kept, g0 does not preserve its span
    _, symbol, g0, result = corpus_results["cartan-25"]
    cut = [list(result.bases[0]), list(result.bases[1][:1])]
    with pytest.raises(InternalConsistencyError, match="escaped the degree-1 basis") as info:
        _assemble(symbol, cut, g0, False)
    # the witness: [g0_3, g1_1] of the whole run, a combination of the
    # degree-1 maps, less its coordinate at the kept map's pivot times that map
    names = [e.name for e in result.algebra.basis]
    layout = map_layout(result.dims, 1)
    flats = [f.flat_entries(layout) for f in result.bases[1]]
    first = names.index("g1_1")
    image = {}
    for g, c in result.algebra.bracket_basis(names.index("g0_3"), first).items():
        linalg.axpy(image, c, flats[g - first])
    if image.get(min(flats[0])):
        linalg.axpy(image, -image[min(flats[0])], flats[0])
    column = min(image)
    assert str(info.value) == ("bracket [g0_3, g1_1] of degrees (0, 1) escaped the degree-1 basis: "
                               f"column {column} of its map is {image[column]} after reconstruction")


def with_a_foreign_column(bases, dims):
    """The tower with its first degree-1 map given the entry 1 at column 2 of
    the flattened layout, a column that map lacks and no map has as pivot.
    On contact-n1 a bracket of g0 with an unchanged degree-1 map then has a
    coordinate on that map, whose row holds a column the bracket lacks."""
    layout = map_layout(dims, 1)
    rows = [f.flat_entries(layout) for f in bases[1]]
    assert 2 not in rows[0] and 2 not in {min(row) for row in rows}
    rows[0][2] = 1
    return [bases[0], maps_from_rows(1, layout, rows), *bases[2:]]


def test_assemble_reads_a_column_the_bracket_lacks_as_zero(corpus_results, monkeypatch, capsys):
    _, symbol, g0, result = corpus_results["contact-n1"]
    bases = with_a_foreign_column([list(b) for b in result.bases], result.dims)
    # the foreign column is the witness
    message = ("bracket [g0_1, g1_1] of degrees (0, 1) escaped the degree-1 basis: "
               "column 2 of its map is 1 after reconstruction")
    with pytest.raises(InternalConsistencyError, match=f"^{re.escape(message)}$"):
        _assemble(symbol, bases, g0, False)
    # the same tower handed to the assembly of a whole run ends as exit 3, one line
    real = prolongation._assemble
    monkeypatch.setattr(prolongation, "_assemble",
                        lambda symbol, g_bases, g0, terminated:
                        real(symbol, with_a_foreign_column(g_bases, tower_dims(symbol, g_bases)), g0, terminated))
    assert cli.main(["prolong", str(CORPUS / "contact-n1.json")]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal consistency failure: {message}\n"


def test_assemble_reads_echelon_bases_without_eliminating(corpus_results, monkeypatch):
    # every tower basis above degree 0 is its own reduced echelon form, so
    # the bracket table reads coordinates at the pivots and eliminates nothing
    for *_, result in corpus_results.values():
        for k, base in enumerate(result.bases[1:], 1):
            layout = map_layout(result.dims, k)
            rows = tuple(f.flat_entries(layout) for f in base)
            entries = [((r, c), x) for r, row in enumerate(rows) for c, x in row.items()]
            width = sum(dom * tgt for _, dom, tgt in layout)
            assert linalg.rref(linalg.RatMatrix(len(rows), width, entries)).pivot_rows == rows
    calls, rref = [], linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda matrix: calls.append(matrix) or rref(matrix))
    for _, symbol, g0, result in corpus_results.values():
        algebra = _assemble(symbol, [list(b) for b in result.bases], g0, result.terminated)
        assert algebra.rows == result.algebra.rows
    assert calls == []


def reference_table(symbol, g_bases, g0, terminated):
    """Reference: the bracket table of the assembled algebra composed over
    Fractions, each bracket's coordinates confirmed by rebuilding all of it
    from the basis rows."""
    dims = tower_dims(symbol, g_bases)
    kmax = len(g_bases) - 1
    indices = {d: symbol.indices_of_degree(d) for d in dims if d < 0}
    start = symbol.dim
    for k, base in enumerate(g_bases):
        indices[k] = range(start, start + len(base))
        start += len(base)
    position = {g: pos for idx in indices.values() for pos, g in enumerate(idx)}
    brackets = {pair: symbol.bracket_basis(*pair) for pair in pairs(symbol)}
    for k, base in enumerate(g_bases):
        for f, x in zip(base, indices[k]):
            for v in range(symbol.dim):
                i = symbol.degree_of(v)
                if i in f.columns:  # [v, f] = -f(v), from the dense image
                    image = f.image_of_basis(i, symbol.position_in_degree(v))
                    brackets[(v, x)] = {indices[i + k][t]: -value for t, value in enumerate(image) if value}
    for (s, t), coords in g0.structure_constants.items():
        brackets[(indices[0][s], indices[0][t])] = {indices[0][u]: value for u, value in coords.items()}

    def bracket(a, b):
        if a < b:
            return brackets.get((a, b), {})
        return {c: -x for c, x in brackets.get((b, a), {}).items()}

    for D in range(1, (2 * kmax if terminated else kmax) + 1):
        layout = map_layout(dims, D)
        offsets, _ = layout_offsets(layout)
        rows = [f.flat_entries(layout) for f in g_bases[D]] if D <= kmax else []
        pivots = {min(row): u for u, row in enumerate(rows)}
        for k in range(max(0, D - kmax), D // 2 + 1):
            for x in indices[k]:
                for y in indices[D - k]:
                    if x >= y:
                        continue
                    flat = {}
                    for i, _, tgt in layout:
                        for pos, v in enumerate(indices[i]):
                            # [[x, y], v] = [x, [y, v]] - [y, [x, v]]
                            for left, right, sign in ((x, y, 1), (y, x, -1)):
                                for c, p in bracket(right, v).items():
                                    for e, q in bracket(left, c).items():
                                        col = offsets[i] + pos * tgt + position[e]
                                        flat[col] = flat.get(col, 0) + sign * p * q
                    flat = {col: value for col, value in flat.items() if value}
                    coords = {pivots[c]: value for c, value in flat.items() if c in pivots}
                    rebuilt = {}
                    for u, value in coords.items():
                        linalg.axpy(rebuilt, value, rows[u])
                    assert rebuilt == flat, f"bracket ({x}, {y}) outside the degree-{D} basis"
                    brackets[(x, y)] = {indices[D][u]: value for u, value in coords.items()}
    return {pair: terms for pair, terms in brackets.items() if terms}


def scaled_g0(g0, factors):
    """g0 on the generators g0.generators[j] * factors[j]."""
    gens = [GradedLinearMap.from_columns(f.degree, {i: tuple({t: a * x for t, x in col.items()} for col in cols)
                                                    for i, cols in f.columns.items()}, f.shapes)
            for f, a in zip(g0.generators, factors)]
    return DegreeZeroAlgebra(g0.symbol, gens)


def gl2(a, b, c, d):
    """The derivation of heisenberg(1) acting as [[a, b], [c, d]] on degree -1."""
    return [[a, b, 0], [c, d, 0], [0, 0, a + d]]


def contact_rescaled():
    """The contact algebra of R^3 to degree 3 on a g0 basis whose degree-one
    brackets have denominators that the seeded table lacks."""
    m = heisenberg(1)
    g0 = custom_g0(m, [gl2(2, 0, 0, 0), gl2(0, 2, 0, 0), gl2(0, 0, F(1, 2), 0), gl2(0, 0, 0, 1)])
    return universal_prolongation(m, g0, max_degree=3)


def seed_scale(algebra):
    """The lcm of the denominators of the brackets _assemble is seeded with:
    those with a negative argument and those of g0."""
    deg = [e.degree for e in algebra.basis]
    seeded = {(a, b): terms for (a, b), terms in table_of(algebra).items() if min(deg[a], deg[b]) < 0 or deg[b] == 0}
    return linalg._integral(seeded)[1]


def test_assemble_matches_the_fraction_reference(corpus_results, perfbench_results):
    results = {name: result for name, (*_, result) in {**corpus_results, **perfbench_results}.items()}
    results["contact-n1-rescaled"] = contact_rescaled()
    for n, max_degree in ((2, 3), (3, 2)):
        m = heisenberg(n)
        results[f"heisenberg-{n}"] = universal_prolongation(m, degree_zero_derivations(m), max_degree)
    # terminated runs, so the pairs above the top degree must vanish
    for n in (4, 5):
        results[f"sl{n}-all-roots"] = prolonged_grading(n, tuple(range(1, n)))
        assert results[f"sl{n}-all-roots"].terminated
    scales = {}
    for name, result in results.items():
        bases = [list(b) for b in result.bases]
        assert table_of(result.algebra) == reference_table(result.symbol, bases, result.g0, result.terminated), name
        scales[name] = (seed_scale(result.algebra), linalg._integral(table_of(result.algebra))[1])
    assert len(scales) == 19
    # the inputs cover a seeded denominator (cartan-25, 6) and a degree that
    # brings a new one (the rescaled contact algebra, from 2 to 4)
    assert scales["cartan-25"] == (6, 6)
    assert scales["contact-n1-rescaled"] == (2, 4)


def contact_dimension(n, k):
    """Monomials of weight k + 2 in 2n variables of weight 1 and one of weight 2."""
    w = k + 2
    return sum(comb(2 * n - 1 + w - 2 * j, w - 2 * j) for j in range(w // 2 + 1))


@pytest.mark.parametrize("n, max_degree", [(1, 4), (2, 2), (3, 1)])
def test_contact_algebra_matches_its_closed_form(n, max_degree):
    # contact vector fields in 2n + 1 variables (Tanaka 1970), independent of both routes
    m = heisenberg(n)
    result = universal_prolongation(m, degree_zero_derivations(m), max_degree=max_degree)
    assert not result.terminated
    degrees = range(-2, max_degree + 1)
    assert [result.dims[k] for k in degrees] == [contact_dimension(n, k) for k in degrees]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_fields_match_their_closed_form(n):
    # all vector fields on R^n: abelian(n) with gl(n), dim g^k = n C(n + k, k + 1)
    m = abelian(n)
    result = universal_prolongation(m, degree_zero_derivations(m), max_degree=3)
    assert not result.terminated
    assert [result.dims[k] for k in range(-1, 4)] == [n * comb(n + k, k + 1) for k in range(-1, 4)]


def test_route_disagreement_names_the_witness(eta3, lambda_g0, monkeypatch):
    real = prolongation.spencer_kernel_from_system
    monkeypatch.setattr(prolongation, "spencer_kernel_from_system", lambda system: real(system)[1:])
    with pytest.raises(InternalConsistencyError) as failure:
        universal_prolongation(eta3, lambda_g0)
    missing = prolong_step(eta3, [list(lambda_g0.generators)])[0]
    coordinates = missing.flatten(map_layout(tower_dims(eta3, [lambda_g0.generators]), 1))
    message = str(failure.value)
    assert "at degree 1" in message
    assert "the pairwise constraint map" in message
    assert "[" + ", ".join(map(str, coordinates)) + "]" in message


def test_transitivity_failure_names_the_witness(eta3, lambda_g0, monkeypatch):
    # a degree-1 map equal to half the first one: -1/2 f_1 + f_new vanishes on g^-1
    real = prolongation.check_transitivity

    def corrupted(result):
        first = result.bases[1][0]
        half = GradedLinearMap(1, {i: [[F(x) / 2 for x in first.image_of_basis(i, a)] for a in range(dom)]
                                   for i, (dom, _) in first.shapes.items()})
        bases = (*result.bases[:1], (*result.bases[1], half), *result.bases[2:])
        return real(result._replace(bases=bases))

    monkeypatch.setattr(prolongation, "check_transitivity", corrupted)
    with pytest.raises(InternalConsistencyError) as failure:
        universal_prolongation(eta3, lambda_g0)
    witness = [0] * len(prolong_step(eta3, [list(lambda_g0.generators)]))
    witness[0] = "-1/2"
    assert str(failure.value) == (
        f"transitivity fails at degree 1: witness [{', '.join(map(str, witness))}, 1]")


def test_spencer_kernel_rejects_a_restriction_without_full_column_rank():
    m = heisenberg(1)
    result = universal_prolongation(m, degree_zero_derivations(m), max_degree=2)
    bases = [list(b) for b in result.bases[:2]]
    bases[1].append(bases[1][0])  # a repeated degree-1 map: two equal columns of R
    system = build_spencer(m, bases, 1)
    # the whole operator then has a kernel element with a nonzero non-negative block
    assert any(any(v[system.negative.cols:]) for v in linalg.nullspace(system.matrix))
    with pytest.raises(InternalConsistencyError) as failure:
        spencer_kernel_from_system(system)
    # the witness: the repeated map minus the first one vanishes on g^-1
    witness = ["-1"] + ["0"] * (len(bases[1]) - 2) + ["1"]
    assert str(failure.value) == (
        f"Spencer kernel element at k=1 has a nonzero non-negative block: witness [{', '.join(witness)}]")


def test_kernel_certificate_failure_names_its_route_degree_and_free_column(eta3, lambda_g0, monkeypatch, capsys):
    # one entry of the first pivot row changed: the kernel vector of the
    # last column, a free one, leaves the kernel of the route's own matrix
    tower = [list(lambda_g0.generators)]
    system = build_spencer(eta3, tower, 0)
    routes = [
        ("Leibniz kernel at degree 1", leibniz_system(eta3, tower, 1)[1], lambda: prolong_step(eta3, tower)),
        ("Spencer kernel at degree 1", system.negative, lambda: spencer_kernel_from_system(system)),
        ("degree-0 derivations kernel at degree 0", leibniz_system(eta3, [], 0)[1],
         lambda: degree_zero_derivations(eta3)),
        ("degree-0 derivations kernel at degree 0", leibniz_system(eta3, [], 0)[1],
         lambda: custom_g0(eta3, [[[1, 0], [0, 1]]])),
    ]
    for where, matrix, run in routes:
        last = matrix.cols - 1
        assert last not in linalg.rref(matrix).pivots
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", corrupted_rref)
            with pytest.raises(InternalConsistencyError) as failure:
                run()
        assert str(failure.value) == f"{where}: the kernel vector of free column {last} is not in the kernel"
    # the CLI names the first route a report reaches, on one line, with exit 3
    monkeypatch.setattr(linalg, "rref", corrupted_rref)
    assert cli.main(["prolong", str(CORPUS / "contact-n1.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal consistency failure: degree-0 derivations kernel at degree 0: the kernel vector of free column")
    assert len(captured.err.splitlines()) == 1


def quotient_by_top(symbol, rows):
    """The symbol modulo the span of `rows`, vectors over its top-degree
    basis.  The top degree is central, so this is again a graded nilpotent
    Lie algebra; the basis keeps the top elements that are not pivots of
    the reduced rows, and a pivot element e_p becomes -sum_j w_p[j] e_j."""
    top = symbol.indices_of_degree(min(symbol.degrees))
    entries = [((r, c), x) for r, row in enumerate(rows) for c, x in enumerate(row)]
    echelon = linalg.rref(linalg.RatMatrix(len(rows), len(top), entries))
    gone = {top[p]: {top[c]: -x for c, x in row.items() if c != p}
            for p, row in zip(echelon.pivots, echelon.pivot_rows)}
    keep = [i for i in range(symbol.dim) if i not in gone]
    new = {i: k for k, i in enumerate(keep)}
    brackets = {}
    for a, b in pairs(symbol):
        image = {}
        for c, x in symbol.bracket_basis(a, b).items():
            linalg.axpy(image, x, gone.get(c, {c: F(1)}))
        if image:
            brackets[(new[a], new[b])] = {new[c]: x for c, x in image.items()}
    return GradedLieAlgebra([symbol.basis[i] for i in keep], brackets)


free_symbol = functools.lru_cache(free_nilpotent)


@st.composite
def fundamental_symbols(draw):
    """free_nilpotent(r, mu) modulo a drawn subspace of its top degree.
    Depth 2 is drawn rarely: there the Leibniz route and the negative
    Spencer block enumerate the same basis pairs."""
    r, mu = draw(st.sampled_from([(2, 3), (2, 4), (3, 3), (2, 5), (2, 3), (3, 3), (2, 4), (3, 2)]))
    symbol = free_symbol(r, mu)
    width = symbol.dim_of_degree(-mu)
    entry = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2)])
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=width))
    return quotient_by_top(symbol, rows)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fundamental_symbols())
def test_random_fundamental_symbols_agree_on_both_routes(symbol):
    assert check_validity(symbol).ok and check_fundamental(symbol)
    result = universal_prolongation(symbol, degree_zero_derivations(symbol), max_degree=2)
    bases = [list(base) for base in result.bases]
    for d in range(1, len(bases) + result.terminated):
        system = build_spencer(symbol, bases[:d], d - 1)
        assert spencer_kernel_from_system(system) == prolong_step(symbol, bases[:d]), f"degree {d}"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fundamental_symbols(), st.data())
def test_random_fundamental_symbols_assemble_like_the_fraction_reference(symbol, data):
    g0 = degree_zero_derivations(symbol)
    if data.draw(st.booleans(), label="rescale g0"):
        factor = st.sampled_from([F(1), F(2), F(-1), F(1, 2), F(2, 3), F(-3)])
        g0 = scaled_g0(g0, data.draw(st.lists(factor, min_size=g0.dim, max_size=g0.dim), label="factors"))
    result = universal_prolongation(symbol, g0, max_degree=2)
    bases = [list(base) for base in result.bases]
    assert table_of(result.algebra) == reference_table(symbol, bases, result.g0, result.terminated)
