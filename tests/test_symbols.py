from fractions import Fraction

import pytest

from gradedlie import (
    BasisElement,
    DegreeZeroAlgebra,
    EuclideanForm,
    GradedLieAlgebra,
    GradedLinearMap,
    LinePair,
    abelian,
    check_fundamental,
    check_validity,
    custom_g0,
    degree_zero_derivations,
    free_nilpotent,
    heisenberg,
    line_preserving_derivations,
    orthogonal_derivations,
    universal_prolongation,
)
from gradedlie import algebra, diagnostics, linalg, prolongation, specfile
from gradedlie.algebra import layout_offsets, map_layout, require_valid_symbol

from conftest import LAMBDA_1, LAMBDA_2, bracket, canonical, make_eta3, unit_vector
from test_parabolic import GRADINGS, sl_negative_part

F = Fraction


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def identity_form(n):
    return EuclideanForm(identity_rows(n))


def flats(g0):
    layout = map_layout(g0.symbol.dims_by_degree(), 0)
    return [g.flatten(layout) for g in g0.generators]


def spans_equal(g0, maps):
    layout = map_layout(g0.symbol.dims_by_degree(), 0)
    ours = flats(g0)
    theirs = [m.flatten(layout) for m in maps]
    if len(ours) != len(theirs):
        return False
    r = linalg.vectors_rank(ours)
    return r == len(ours) and linalg.vectors_rank(ours + theirs) == r


def test_heisenberg_presets():
    for n in (1, 2, 3):
        m = heisenberg(n)
        assert m.dims_by_degree() == {-1: 2 * n, -2: 1}
        assert check_validity(m).ok
        assert check_fundamental(m)
        z = unit_vector(m, 2 * n)
        for i in range(n):
            assert bracket(m, unit_vector(m, i), unit_vector(m, n + i)) == z


def test_abelian_preset():
    m = abelian(3)
    assert m.dims_by_degree() == {-1: 3}
    assert check_fundamental(m)


def test_full_derivations_dimensions():
    assert degree_zero_derivations(free_nilpotent(2, 3)).dim == 4
    assert degree_zero_derivations(abelian(2)).dim == 4
    assert degree_zero_derivations(abelian(3)).dim == 9
    # conformal symplectic algebra of the plane
    assert degree_zero_derivations(heisenberg(1)).dim == 4


@pytest.mark.parametrize("r,mu", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_free_symbols_have_gl_r_derivations(r, mu):
    assert degree_zero_derivations(free_nilpotent(r, mu)).dim == r * r


def test_orthogonal_derivations_abelian():
    for n in (2, 3, 4):
        g0 = orthogonal_derivations(abelian(n), identity_form(n))
        assert g0.dim == n * (n - 1) // 2


def test_orthogonal_derivations_eta3():
    g0 = orthogonal_derivations(heisenberg(1), identity_form(2))
    assert g0.dim == 1


def test_orthogonal_contained_in_full():
    m = heisenberg(1)
    full = degree_zero_derivations(m)
    orth = orthogonal_derivations(m, identity_form(2))
    ours = flats(full)
    assert linalg.vectors_rank(ours + flats(orth)) == full.dim


def test_orthogonal_eta5_generic_form_is_smaller():
    # basis order is p1, p2, q1, q2: scaling the (p2, q2) plane separates
    # the two eigenvalue pairs, the identity keeps them equal
    m = heisenberg(2)
    isotropic = orthogonal_derivations(m, identity_form(4))
    generic = orthogonal_derivations(
        m, EuclideanForm([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    )
    assert generic.dim < isotropic.dim


def test_euclidean_form_validation():
    with pytest.raises(ValueError, match="symmetric"):
        EuclideanForm([[1, 2], [0, 1]])
    with pytest.raises(ValueError, match="positive definite"):
        EuclideanForm([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="positive definite"):
        EuclideanForm([[1, 0], [0, 0]])  # semidefinite
    with pytest.raises(ValueError, match="positive definite"):
        EuclideanForm([[1, 2], [2, 1]])  # indefinite, positive first minor
    with pytest.raises(ValueError, match="square"):
        EuclideanForm([[1, 0]])


def test_line_pair_validation():
    with pytest.raises(ValueError, match="independent"):
        LinePair([1, 2], [2, 4])
    with pytest.raises(ValueError, match="equal length"):
        LinePair([1, 0], [0, 1, 0])


@pytest.mark.parametrize("build, message", [
    (lambda: heisenberg(0), "at least 1"),
    (lambda: abelian(0), "at least 1"),
    (lambda: orthogonal_derivations(heisenberg(1), identity_form(3)), "does not match the degree -1 dimension"),
    (lambda: line_preserving_derivations(heisenberg(1), LinePair([1, 0, 0], [0, 1, 0])), "2-dimensional"),
], ids=["heisenberg-0", "abelian-0", "form-size", "line-length"])
def test_builders_reject_invalid_arguments(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_standard_lines_match_lambda_generators(eta3, lambda_g0):
    g0 = line_preserving_derivations(eta3, LinePair([1, 0], [0, 1]))
    assert g0.dim == 2
    assert spans_equal(g0, list(lambda_g0.generators))


def test_standard_lines_induced_degree_minus_two_action(eta3):
    g0 = line_preserving_derivations(eta3, LinePair([1, 0], [0, 1]))
    # the member acting as the identity on degree -1 must scale X3 by 2
    rows = [
        [*g.image_of_basis(-1, 0), *g.image_of_basis(-1, 1)]
        for g in g0.generators
    ]
    coords = linalg.express_in_basis(rows, [{0: F(1), 3: F(1)}])[0]
    assert coords is not None
    x3_action = sum(
        (c * g0.generators[i].image_of_basis(-2, 0)[0] for i, c in coords.items()), F(0)
    )
    assert x3_action == F(2)


def test_rotated_lines_are_conjugate(eta3):
    v1, v2 = [F(1), F(1)], [F(1), F(-2)]
    g0 = line_preserving_derivations(eta3, LinePair(v1, v2))
    assert g0.dim == 2
    # conjugation oracle: T sends X1, X2 to the line vectors and scales X3 by det
    det = v1[0] * v2[1] - v1[1] * v2[0]
    t = [[v1[0], v2[0], F(0)], [v1[1], v2[1], F(0)], [F(0), F(0), det]]
    t_inv = [
        [v2[1] / det, -v2[0] / det, F(0)],
        [-v1[1] / det, v1[0] / det, F(0)],
        [F(0), F(0), 1 / det],
    ]

    def mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)
        ]

    conjugated = []
    for base in (LAMBDA_1, LAMBDA_2):
        rows = mul(mul(t, [[F(x) for x in row] for row in base]), t_inv)
        conjugated.append(
            GradedLinearMap(
                0,
                {
                    -1: [[rows[0][0], rows[1][0]], [rows[0][1], rows[1][1]]],
                    -2: [[rows[2][2]]],
                },
            )
        )
    assert spans_equal(g0, conjugated)


def test_line_mode_rejects_wrong_symbol(m25):
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        line_preserving_derivations(m25, LinePair([1, 0], [0, 1]))


def test_custom_g0_empty(eta3):
    assert custom_g0(eta3, []).dim == 0


def test_custom_g0_grading_element_from_top_block(eta3):
    g0 = custom_g0(eta3, [[[1, 0], [0, 1]]])
    assert g0.dim == 1
    assert g0.generators[0].image_of_basis(-2, 0)[0] == F(2)


def test_custom_g0_drops_dependent_maps(eta3):
    doubled = [[2, 0, 0], [0, 2, 0], [0, 0, 4]]
    g0 = custom_g0(eta3, [LAMBDA_1, doubled, LAMBDA_2])
    assert g0.dim == 2


def test_custom_g0_keeps_the_first_independent_maps_in_order(eta3):
    zero = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(LAMBDA_1, LAMBDA_2)]
    g0 = custom_g0(eta3, [LAMBDA_2, zero, LAMBDA_2, [[1, 0], [0, 1]], total, LAMBDA_1])
    expected = [custom_g0(eta3, [m]).generators[0] for m in (LAMBDA_2, LAMBDA_1)]
    assert list(g0.generators) == expected


def test_structure_constants_take_one_elimination_per_basis(monkeypatch):
    eliminated = []
    real_rref = linalg.rref

    def recording_rref(matrix):
        eliminated.append(matrix)
        return real_rref(matrix)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    symbol = free_nilpotent(3, 2)
    # degree 2 only: 3 Hall brackets, one batch
    assert len(eliminated) == 1
    eliminated.clear()
    g0 = degree_zero_derivations(symbol)
    # fundamentality (one deeper degree), the Leibniz kernel, its echelon
    # basis, and one batch for all 36 commutators of gl(3)
    assert g0.dim == 9 and len(g0.structure_constants) == 36
    assert len(eliminated) == 4
    eliminated.clear()
    # degrees 2 and 3: one batch each
    assert free_nilpotent(3, 3).dim == 14
    assert len(eliminated) == 2


def test_custom_g0_rejects_non_derivation(eta3):
    with pytest.raises(ValueError, match=r"\('X1', 'X2'\)"):
        custom_g0(eta3, [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]])


def test_custom_g0_errors_number_the_maps_as_given(eta3):
    # the second map repeats the first and is dropped; the errors still
    # name the third map by its place in the list, not in the kept subset
    not_derivation = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError, match=r"^map 3 is not a derivation: Leibniz fails on pair \('X1', 'X2'\)$"):
        custom_g0(eta3, [LAMBDA_1, LAMBDA_1, not_derivation])
    degree_one = GradedLinearMap(1, {-1: [[1, 0], [0, -1]], -2: [[0]]})
    with pytest.raises(ValueError, match="^map 3 does not have degree 0$"):
        custom_g0(eta3, [LAMBDA_1, LAMBDA_1, degree_one])
    raising, lowering = [[0, 1], [0, 0]], [[0, 0], [1, 0]]
    with pytest.raises(ValueError, match=r"\[map 1, map 3\] lies outside the span"):
        custom_g0(eta3, [raising, raising, lowering])


def test_custom_g0_rejects_a_map_of_nonzero_degree_that_repeats_an_earlier_map():
    # the degree-1 map has the block shapes of a degree-0 map on heisenberg(1)
    # and flattens to the entries of the first map, so it would be dropped as
    # dependent before DegreeZeroAlgebra saw its degree
    grading = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    degree_one = GradedLinearMap(1, {-1: [[1, 0], [0, 0]], -2: [[1]]})
    with pytest.raises(ValueError, match="^map 2 does not have degree 0$"):
        custom_g0(heisenberg(1), [grading, degree_one])


def test_custom_g0_rejects_non_grading_preserving(eta3):
    skew = [[0, 0, 0], [0, 0, 0], [1, 0, 0]]  # sends X1 into degree -2
    with pytest.raises(ValueError, match="grading"):
        custom_g0(eta3, [skew])


def test_top_block_without_extension(eta3):
    bad = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="extend"):
        custom_g0(heisenberg(2), [bad])
    # [p1, p2] = 0, yet p1 -> q2 gives [q2, p2] + [p1, 0] = -Z, so no deeper
    # block makes it a derivation; only the full degree-0 system sees this pair
    identity = [[1 if s == a else 0 for a in range(4)] for s in range(4)]
    p1_to_q2 = [[1 if (s, a) == (3, 0) else 0 for a in range(4)] for s in range(4)]
    with pytest.raises(ValueError, match="map 2: the degree -1 block does not extend"):
        custom_g0(heisenberg(2), [identity, p1_to_q2])


# every g0 builder, called on a symbol whose degree -1 component has dimension n1
BUILDER_FORMS = [
    pytest.param(lambda m, n1: degree_zero_derivations(m), id="full"),
    pytest.param(lambda m, n1: orthogonal_derivations(m, identity_form(n1)), id="orthogonal"),
    pytest.param(lambda m, n1: line_preserving_derivations(m, LinePair([1, 0], [0, 1])), id="lines"),
    pytest.param(lambda m, n1: custom_g0(m, [identity_rows(n1)]), id="span-of-top-blocks"),
    pytest.param(lambda m, n1: custom_g0(m, [identity_rows(m.dim)]), id="span-of-full-matrices"),
]


@pytest.mark.parametrize("build", BUILDER_FORMS)
def test_every_builder_rejects_an_ungraded_symbol(build):
    # fundamental, but [X1, X2] = 2 X2 lands in degree -1: without the
    # validity check, lines mode returns a g0, span mode indexes past a
    # block and the other modes blame their own generators
    ungraded = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("Z", -2)],
                                {(0, 1): {1: 2}})
    assert check_fundamental(ungraded)
    with pytest.raises(ValueError, match=r"^symbol is not a valid graded Lie algebra: grading violated at pair "
                                         r"\('X1', 'X2'\); negative part is not nilpotent$"):
        build(ungraded, 2)


@pytest.mark.parametrize("build", BUILDER_FORMS)
def test_every_builder_rejects_a_symbol_that_is_not_fundamental(build):
    # X2 is not generated by X1: the derivations extending a degree -1
    # block form a whole line, so no span-mode extension is the one
    split = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -2)], {})
    assert check_validity(split).ok
    with pytest.raises(ValueError, match="^symbol is not fundamental: degree -1 does not generate it$"):
        build(split, 1)


def test_custom_g0_eliminates_each_degree_once(monkeypatch):
    tops = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    one_by_one = [custom_g0(free_nilpotent(2, 4), [top]).generators[0] for top in tops]
    eliminated = []
    real_rref = linalg.rref

    def recording_rref(matrix):
        eliminated.append(matrix)
        return real_rref(matrix)

    monkeypatch.setattr(linalg, "rref", recording_rref)
    require_valid_symbol(free_nilpotent(2, 4))
    guard = list(eliminated)
    eliminated.clear()
    symbol = free_nilpotent(2, 4)  # not yet guarded, so custom_g0 runs the guard
    g0 = custom_g0(symbol, tops)
    # the symbol guard, then the degree-0 Leibniz system once for all four
    # blocks, the independent subset and the commutator table; block by
    # block took 12 after the check
    assert guard and eliminated[:len(guard)] == guard
    leibniz, subset = eliminated[len(guard):len(guard) + 2]
    assert leibniz == prolongation.leibniz_system(symbol, [], 0)[1]
    layout = map_layout(symbol.dims_by_degree(), 0)
    assert subset == linalg.RatMatrix._of_rows(4, leibniz.cols, [f.flat_entries(layout) for f in one_by_one])
    assert len(eliminated) == len(guard) + 3
    assert list(g0.generators) == one_by_one
    for top, f in zip(tops, g0.generators):
        assert [list(f.image_of_basis(-1, a)) for a in range(2)] == [[top[s][a] for s in range(2)] for a in range(2)]


GUARDED_SPECS = [
    pytest.param({"preset": "free:2:3"}, {"mode": "full"}, id="full"),
    pytest.param({"preset": "heisenberg:2"}, {"mode": "orthogonal", "q": identity_rows(4)}, id="orthogonal"),
    pytest.param({"preset": "heisenberg:1"}, {"mode": "lines", "lines": [[1, 0], [0, 1]]}, id="lines"),
    pytest.param({"preset": "free:2:3"}, {"mode": "span", "maps": [identity_rows(2), [[1, 0], [0, 0]]]},
                 id="span"),
]


@pytest.mark.parametrize("algebra_doc, g0_doc", GUARDED_SPECS)
def test_a_report_guards_its_symbol_once(algebra_doc, g0_doc, monkeypatch):
    checked = []
    real_check = algebra.check_fundamental

    def recording_check(symbol):
        checked.append(symbol)
        return real_check(symbol)

    monkeypatch.setattr(algebra, "check_fundamental", recording_check)
    spec = specfile.parse_spec({"schema_version": 1, "name": "guarded", "algebra": algebra_doc,
                                "g0": g0_doc, "options": {"max_degree": 3}})
    symbol = specfile.build_symbol(spec)
    universal_prolongation(symbol, specfile.build_g0(spec, symbol), max_degree=spec.max_degree)
    assert checked == [symbol]


def test_a_symbol_that_fails_the_guard_fails_it_again():
    ungraded = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("Z", -2)],
                                {(0, 1): {1: 2}})
    split = GradedLieAlgebra([BasisElement("X1", -1), BasisElement("X2", -2)], {})
    for symbol, message in [(ungraded, "^symbol is not a valid graded Lie algebra"),
                            (split, "^symbol is not fundamental")]:
        with pytest.raises(ValueError, match=message):
            degree_zero_derivations(symbol)
        with pytest.raises(ValueError, match=message):
            require_valid_symbol(symbol)
        with pytest.raises(ValueError, match=message):
            universal_prolongation(symbol, DegreeZeroAlgebra(symbol, []))


# the preset symbols the suite builds a full g0 for
PRESETS = [
    *(pytest.param(lambda n=n: heisenberg(n), id=f"heisenberg-{n}") for n in (1, 2, 3)),
    *(pytest.param(lambda r=r, mu=mu: free_nilpotent(r, mu), id=f"free-{r}-{mu}")
      for r, mu in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2)]),
    *(pytest.param(lambda n=n: abelian(n), id=f"abelian-{n}") for n in (2, 3)),
]


def assert_free_columns_in_the_top_block(symbol, name=""):
    # span mode reads each block's extension at these columns
    layout, matrix = prolongation.leibniz_system(symbol, [], 0)
    off = layout_offsets(layout)[0][-1]
    kernel = linalg.rref(matrix).nullspace()
    assert kernel, name
    for v in kernel:
        assert max(v) >= off and v[max(v)] == 1, name


@pytest.mark.parametrize("build", PRESETS)
def test_derivation_kernel_is_free_only_on_the_top_block_of_presets(build):
    assert_free_columns_in_the_top_block(build())


def test_derivation_kernel_is_free_only_on_the_top_block_of_specs_and_gradings(corpus_results, perfbench_results):
    for name, (_, symbol, *_) in {**corpus_results, **perfbench_results}.items():
        assert_free_columns_in_the_top_block(symbol, name)
    for n, marked in GRADINGS:
        assert_free_columns_in_the_top_block(sl_negative_part(n, marked), (n, marked))


def top_block(f):
    """f's degree -1 block as rows: entry [s][a] is coordinate s of the image of basis vector a."""
    n1 = f.shapes[-1][0]
    return [[f.image_of_basis(-1, a)[s] for a in range(n1)] for s in range(n1)]


@pytest.mark.parametrize("build", PRESETS)
def test_custom_g0_round_trips_the_top_blocks_of_every_derivation(build):
    symbol = build()
    for g in degree_zero_derivations(symbol).generators:
        # 3/2 g has Fraction entries, and ints where an entry of g is even
        half = GradedLinearMap(0, {i: [[F(3, 2) * x for x in g.image_of_basis(i, a)] for a in range(dom)]
                                   for i, (dom, _) in g.shapes.items()})
        for f in (g, half):
            extended = custom_g0(symbol, [top_block(f)]).generators[0]
            assert extended == f
            assert all(canonical(x) for cols in extended.columns.values() for col in cols for x in col.values())


def test_custom_g0_rejects_maps_of_the_wrong_shape(eta3):
    # a 3x3 block on the 2-dimensional degree -1 part
    wide = GradedLinearMap(0, {-1: [[1, 0, 0], [0, 1, 0], [0, 0, 1]], -2: [[2]]})
    with pytest.raises(ValueError, match="map 2 does not match the graded dimensions"):
        custom_g0(eta3, [LAMBDA_1, wide])
    # a block missing, and a block on a degree the symbol does not have
    m = heisenberg(1)
    grading = GradedLinearMap(0, {-1: [[1, 0], [0, 1]], -2: [[2]]})
    short = GradedLinearMap(0, {-1: [[1, 0], [0, 1]]})
    extra = GradedLinearMap(0, {-1: [[1, 0], [0, -1]], -2: [[0]], -5: [[1]]})
    for maps, bad in (([short], 1), ([grading, extra], 2), ([extra, grading], 1)):
        with pytest.raises(ValueError, match=f"map {bad} does not match the graded dimensions"):
            custom_g0(m, maps)
    # the generators are checked before they are flattened, also when given directly
    for build in (DegreeZeroAlgebra, universal_prolongation):
        for symbol, maps in ((eta3, [wide]), (m, [grading, short]), (m, [extra])):
            with pytest.raises(ValueError, match=f"generator {len(maps)} does not match the graded dimensions"):
                build(symbol, maps)


def test_first_block_that_does_not_extend_is_reported_first():
    m = heisenberg(2)
    good = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    bad = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ValueError, match="map 2: the degree -1 block does not extend to a derivation"):
        custom_g0(m, [good, bad, good])
    # the block comes before a malformed entry, so its failure is reported
    with pytest.raises(ValueError, match="extend"):
        custom_g0(m, [bad, [[1]]])
    with pytest.raises(ValueError, match="extend"):
        custom_g0(m, [bad, [[0.5]]])  # a float raises TypeError, but only once it is read
    with pytest.raises(ValueError, match="map 2 must be square"):
        custom_g0(m, [good, [[1]]])


@pytest.mark.parametrize("build", [
    lambda: GradedLieAlgebra([BasisElement("X", -1), BasisElement("Y", -1), BasisElement("Z", -2)],
                             {(0, 1): {2: 0.1}}),
    lambda: GradedLinearMap(0, {-1: [[0.5]]}),
    lambda: EuclideanForm([[1.0, 0], [0, 1]]),
    lambda: LinePair([1.0, 0], [0, 1]),
    lambda: custom_g0(make_eta3(), [[[0.5, 0], [0, 1]]]),
    lambda: diagnostics.symmetric_signature([[0.1, 0.0], [0.0, -2.5]]),
    lambda: linalg.RatMatrix(1, 1, {(0, 0): 0.5}),
    lambda: linalg.RatMatrix.from_rows([[0.5]]),
    lambda: linalg.solve(linalg.RatMatrix.from_rows([[1]]), [0.5]),
    lambda: linalg.express_in_basis([[0.5, 1]], [{0: 1}]),
    lambda: linalg.express_in_basis([[1, 0]], [{0: 0.5}]),
], ids=["bracket-value", "graded-map", "euclidean-form", "line-pair", "custom-g0", "signature",
        "matrix-entries", "matrix-rows", "solve-rhs", "basis-vectors", "basis-targets"])
def test_floats_are_rejected_at_every_entry_point(build):
    # 0.1 would otherwise become 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="floats"):
        build()
