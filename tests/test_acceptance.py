"""Acceptance suite: one test per criterion, every assertion exact.

Each test prints a single PASS line on success; a pytest failure is the FAIL
line.  Runtime bounds are wall-clock on the already imported library.
"""

import time
from fractions import Fraction

from gradedlie import (
    GradedLinearMap,
    LinePair,
    abelian,
    build_spencer,
    check_transitivity,
    check_validity,
    degree_zero_derivations,
    free_nilpotent,
    killing_form,
    line_preserving_derivations,
    orthogonal_derivations,
    prolong_step,
    universal_prolongation,
)
from gradedlie import linalg
from gradedlie.algebra import map_layout, tower_dims
from gradedlie.prolongation import spencer_kernel_from_system
from gradedlie.symbols import EuclideanForm

from conftest import make_eta3
from test_freenil import witt
from test_prolongation import coordinates, flatten_all, reference_g1_maps, spans_match

F = Fraction


def _ok(n, text):
    print(f"criterion {n} PASS: {text}")


def test_criterion_1_example5_dimensions(lambda_g0):
    eta3 = make_eta3()
    g0 = line_preserving_derivations(eta3, LinePair([1, 0], [0, 1]))
    assert g0.dim == 2
    # the line-preserving algebra spans the stated generators
    layout = map_layout(eta3.dims_by_degree(), 0)
    ours = [g.flatten(layout) for g in g0.generators]
    stated = [g.flatten(layout) for g in lambda_g0.generators]
    assert spans_match(ours, stated)

    start = time.perf_counter()
    result = universal_prolongation(eta3, g0)
    elapsed = time.perf_counter() - start
    assert result.graded_dimensions() == [(-2, 1), (-1, 2), (0, 2), (1, 2), (2, 1)]
    assert result.terminated and result.vanishing_degree == 3
    assert result.total_dimension == 8
    assert elapsed < 1.0
    _ok(1, f"dims (1,2,2,2,1), total 8, vanishing degree 3, {elapsed:.3f}s")


def test_criterion_2_example5_generators(eta3, lambda_g0, example5_result):
    result = example5_result
    dims = tower_dims(eta3, result.bases)
    layout1 = map_layout(dims, 1)
    computed1 = flatten_all(list(result.bases[1]), layout1)
    lam11, lam21 = reference_g1_maps()
    stated1 = flatten_all([lam11, lam21], layout1)
    assert spans_match(computed1, stated1)

    c11, c21 = coordinates(computed1, [lam11, lam21], layout1)
    stated2 = GradedLinearMap(2, {-1: [c21, [-x for x in c11]], -2: [[F(2), F(0)]]})
    layout2 = map_layout(dims, 2)
    computed2 = flatten_all(list(result.bases[2]), layout2)
    assert spans_match(computed2, [stated2.flatten(layout2)])
    _ok(2, "degree 1 and 2 bases span the stated generators (exact rank tests)")


def test_criterion_3_g2_dimension():
    start = time.perf_counter()
    m = free_nilpotent(2, 3)
    g0 = degree_zero_derivations(m)
    assert g0.dim == 4
    result = universal_prolongation(m, g0)
    elapsed = time.perf_counter() - start
    assert result.terminated
    assert result.total_dimension == 14
    assert result.graded_dimensions() == [
        (-3, 2), (-2, 1), (-1, 2), (0, 4), (1, 2), (2, 1), (3, 2)
    ]
    data = killing_form(result.algebra)
    assert data.nondegenerate
    for degree, dim in result.graded_dimensions():
        assert result.dims.get(-degree, 0) == dim
    assert elapsed < 5.0
    _ok(3, f"total 14, Killing nondegenerate, symmetric dims, {elapsed:.3f}s")


def test_criterion_4_riemannian():
    for n in (2, 3, 4, 5):
        m = abelian(n)
        q = EuclideanForm([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        g0 = orthogonal_derivations(m, q)
        result = universal_prolongation(m, g0, max_degree=3)
        assert result.terminated and result.vanishing_degree == 1
        report = result.normalization[0]
        expected = n * n * (n - 1) // 2
        assert report.dim_target == expected
        assert report.dim_image == expected
        assert report.dim_complement == 0
    _ok(4, "g^1 = 0 and dim A_0 = dim im = n^2(n-1)/2 with zero complement, n = 2..5")


def test_criterion_5_route_equivalence(corpus_results):
    checked = 0
    for name, (_, symbol, _, result) in sorted(corpus_results.items()):
        g_bases = [list(b) for b in result.bases]
        dims = tower_dims(symbol, g_bases)
        for k in range(len(g_bases)):
            direct = prolong_step(symbol, g_bases[: k + 1])
            kernel = spencer_kernel_from_system(build_spencer(symbol, g_bases[: k + 1], k))
            assert direct == kernel, f"{name} at degree {k + 1}"
            # the stated form: span equality by ranks of stacked matrices
            layout = map_layout(dims, k + 1)
            assert spans_match(
                flatten_all(direct, layout), flatten_all(kernel, layout)
            ), f"{name} spans at degree {k + 1}"
            system = build_spencer(symbol, g_bases[: k + 1], k)
            for vector in linalg.nullspace(system.matrix):
                positive = vector[system.negative.cols:]  # the non-negative blocks come last
                assert not any(positive), f"{name} kernel at k={k}"
            checked += 1
    assert checked > 0
    _ok(5, f"Spencer kernels match the pairwise route on {checked} corpus degrees")


def test_criterion_6_global_jacobi(corpus_results):
    names = []
    for name, (_, _, _, result) in sorted(corpus_results.items()):
        if not result.terminated:
            continue
        report = check_validity(result.algebra)
        assert report.ok, f"{name}: {report.describe()}"
        names.append(name)
    assert names
    _ok(6, f"assembled structure constants satisfy Jacobi on {', '.join(names)}")


def test_criterion_7_transitivity(corpus_results):
    for name, (_, _, _, result) in sorted(corpus_results.items()):
        report = check_transitivity(result)
        assert report.ok, f"{name} fails at degree {report.degree}"
    _ok(7, "no nonzero positive-degree element annihilates g^-1 on any corpus instance")


def test_criterion_8_infinite_type_line():
    from gradedlie.prolongation import leibniz_system

    start = time.perf_counter()
    m = abelian(1)
    g0 = degree_zero_derivations(m)
    result = universal_prolongation(m, g0, max_degree=10)
    elapsed = time.perf_counter() - start
    assert not result.terminated
    for k in range(0, 11):
        assert result.dims[k] == 1
    # brute-force oracle: one generator admits no constraint pairs at all
    for k in range(1, 11):
        _, matrix = leibniz_system(m, [list(b) for b in result.bases[:k]], k)
        assert (matrix.rows, matrix.cols) == (0, 1)
    assert elapsed < 1.0
    _ok(8, f"dim g^k = 1 for k <= 10 and terminated = false, {elapsed:.3f}s")


def test_criterion_9_free_nilpotent_dimensions():
    for mu in range(1, 6):
        dims = free_nilpotent(2, mu).dims_by_degree()
        for d in range(1, mu + 1):
            assert dims.get(-d, 0) == witt(2, d)
    _ok(9, "free nilpotent graded dimensions match the Moebius-sum count for mu <= 5")
