import functools
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import (
    abelian,
    build_spencer,
    degree_zero_derivations,
    heisenberg,
    linalg,
    normalization_report,
    orthogonal_derivations,
    specfile,
    universal_prolongation,
)
from gradedlie.algebra import tower_dims
from gradedlie.linalg import RatMatrix
from gradedlie.normalization import SpencerSystem
from gradedlie.prolongation import _normalize_map_basis, spencer_kernel_from_system
from gradedlie.symbols import EuclideanForm
from test_linalg import transpose
from test_parabolic import GRADINGS, prolonged_free, prolonged_grading

F = Fraction

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = sorted((ROOT / "corpus").glob("*.json")) + sorted((ROOT / "perfbench" / "specs").glob("*.json"))


def identity_form(n):
    return EuclideanForm([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def test_example5_degree_zero_system(eta3, lambda_g0):
    system = build_spencer(eta3, [list(lambda_g0.generators)], 0)
    assert system.domain_dim == 6   # Hom(g^-1, g^0) + Hom(g^-2, g^-1)
    assert system.target_dim == 4   # Hom(g^-1 (x) g^-2, g^-2) + Hom(/\^2 g^-1, g^-1)
    # N's columns on g^-2 and g^-1; no copies of R at k = 0
    assert system.layout == ((-2, 1, 2), (-1, 2, 2))
    assert system.copies == ()
    report = normalization_report(system)
    assert (report.dim_image, report.dim_kernel, report.dim_complement) == (4, 2, 0)
    assert report.complement_indices == ()


def test_riemannian_normalization_dimensions():
    for n in (2, 3, 4, 5):
        m = abelian(n)
        g0 = orthogonal_derivations(m, identity_form(n))
        system = build_spencer(m, [list(g0.generators)], 0)
        expected = n * n * (n - 1) // 2
        assert system.domain_dim == expected
        assert system.target_dim == expected
        report = normalization_report(system)
        assert report.dim_image == expected
        assert report.dim_kernel == 0
        assert report.dim_complement == 0


def test_trivial_g0_leaves_only_lower_blocks(eta3):
    for k in (-1, 1):
        with pytest.raises(ValueError, match="outside the computed range"):
            build_spencer(eta3, [[]], k)
    system = build_spencer(eta3, [[]], 0)
    assert [i for i, _, _ in system.layout] == [-2]
    assert system.domain_dim == 2
    assert system.target_dim == 4
    report = normalization_report(system)
    assert report.dim_kernel == 0


def test_zero_matrix_system_complement_is_everything():
    system = SpencerSystem(
        k=0,
        layout=((-1, 1, 2),),
        copies=(),
        value_dim=3,
        negative=RatMatrix(3, 2),
        restriction=RatMatrix(0, 0),
    )
    report = normalization_report(system)
    assert report.dim_complement == report.dim_target == 3
    assert report.complement_indices == (0, 1, 2)
    assert report.dim_kernel == 2
    # the report writes these keys in this order
    assert list(report._asdict()) == [
        "k", "dim_target", "dim_image", "dim_kernel", "dim_complement", "complement_indices"]


@pytest.mark.parametrize("path", INSTANCES, ids=lambda path: path.stem)
def test_spencer_dimensions_match_the_closed_forms(path):
    # the sums of the module docstring, d_i = dim g^i, n1 = d_-1
    spec = specfile.parse_spec(specfile.load_document(path.read_text()))
    symbol = specfile.build_symbol(spec)
    result = universal_prolongation(symbol, specfile.build_g0(spec, symbol), max_degree=spec.max_degree)
    bases = [list(b) for b in result.bases]
    d = result.dims.get
    n1, negative = d(-1, 0), [i for i in result.dims if i < 0]
    for report in result.normalization:
        k = report.k
        domain = sum(d(i) * d(i + k + 1, 0) for i in negative) + sum(d(i) * d(k) for i in range(k))
        target = (sum(n1 * d(i) * d(i + k, 0) for i in negative if i <= -2)
                  + n1 * (n1 - 1) // 2 * d(k - 1, 0) + sum(n1 * d(i) * d(k - 1) for i in range(k)))
        system = build_spencer(symbol, bases[: k + 1], k)
        assert (system.domain_dim, system.target_dim) == (domain, target), f"k={k}"
        assert (report.dim_image + report.dim_kernel, report.dim_target) == (domain, target), f"k={k}"


def test_degree_zero_operator_matches_classical_spencer():
    # on an abelian symbol the wedge rows must be f(v1)v2 - f(v2)v1
    n = 3
    m = abelian(n)
    g0 = orthogonal_derivations(m, identity_form(n))
    system = build_spencer(m, [list(g0.generators)], 0)

    gens = list(g0.generators)
    ncols = n * len(gens)
    rows = []
    for p in range(n):
        for q in range(p + 1, n):
            for c in range(n):
                row = [F(0)] * ncols
                for t, gen in enumerate(gens):
                    row[p * len(gens) + t] += gen.image_of_basis(-1, q)[c]
                    row[q * len(gens) + t] -= gen.image_of_basis(-1, p)[c]
                rows.append(row)
    assert system.matrix == RatMatrix.from_rows(rows, ncols)


def test_splitting_is_exact_on_every_example5_degree(example5_result):
    for report in example5_result.normalization:
        assert report.dim_target == report.dim_image + report.dim_complement
        assert report.dim_kernel == example5_result.dims.get(report.k + 1, 0)


@pytest.mark.parametrize("name", ["cartan-25", "contact-n1"])
def test_each_spencer_matrix_is_eliminated_once(corpus_dir, monkeypatch, name):
    spec = specfile.parse_spec(specfile.load_document((corpus_dir / f"{name}.json").read_text()))
    symbol = specfile.build_symbol(spec)
    g0 = specfile.build_g0(spec, symbol)
    eliminated = []
    real_rref = linalg.rref

    def recording_rref(matrix):
        eliminated.append(matrix)
        return real_rref(matrix)

    def no_full_matrix(system):
        raise AssertionError("the whole Spencer matrix was assembled")

    monkeypatch.setattr(linalg, "rref", recording_rref)
    monkeypatch.setattr(SpencerSystem, "matrix", property(no_full_matrix))
    result = universal_prolongation(symbol, g0, max_degree=spec.max_degree)
    monkeypatch.undo()

    bases = [list(b) for b in result.bases]
    assert [report.k for report in result.normalization] == list(range(len(result.normalization)))
    split = 0
    for k in range(len(result.normalization)):
        system = build_spencer(symbol, bases[: k + 1], k)
        # each block once: N for the kernel, R (with all its copies) for the check
        for block in (system.negative, system.restriction):
            assert sum(m == block for m in eliminated) == 1, f"{name} at k={k}"
        matrix = system.matrix
        assert not any(m == transpose(matrix) for m in eliminated), f"{name} at k={k}"
        if matrix != system.negative:  # the operator has a non-negative part
            assert not any(m == matrix for m in eliminated), f"{name} at k={k}"
            split += 1
    assert split


def whole_operator(symbol, bases, system):
    """Reference assembly of the whole operator: N, then the non-negative rows
    [v1, f(v2)] = -f(v2)(v1) written block by block, pair by pair."""
    k, n1 = system.k, symbol.dim_of_degree(-1)
    entries = dict(system.negative.items())
    row, col = system.negative.rows, system.negative.cols
    for i in range(k):
        for a1 in range(n1):
            for t2 in range(len(bases[i])):
                for t, f in enumerate(bases[k]):
                    for u, value in enumerate(f.image_of_basis(-1, a1)):
                        if value:
                            entries[(row + u, col + t2 * len(bases[k]) + t)] = -value
                row += len(bases[k - 1])
        col += len(bases[i]) * len(bases[k])
    return RatMatrix(row, col, entries)


@pytest.mark.parametrize("path", INSTANCES, ids=lambda path: path.stem)
def test_split_elimination_matches_the_whole_matrix(path):
    # oracle for the block elimination: rref of the whole operator
    spec = specfile.parse_spec(specfile.load_document(path.read_text()))
    symbol = specfile.build_symbol(spec)
    result = universal_prolongation(symbol, specfile.build_g0(spec, symbol), max_degree=spec.max_degree)
    bases = [list(b) for b in result.bases]
    for report in result.normalization:
        k = report.k
        system = build_spencer(symbol, bases[: k + 1], k)
        matrix = whole_operator(symbol, bases, system)
        assert system.matrix == matrix, f"k={k}"
        whole = linalg.rref(matrix)
        assert whole.rank == report.dim_image, f"k={k}"
        assert tuple(whole.complement()) == report.complement_indices, f"k={k}"
        kernel = whole.nullspace()
        width = system.negative.cols
        assert not any(c >= width for v in kernel for c in v), f"k={k}"
        maps = _normalize_map_basis(kernel, k + 1, system.layout)
        assert maps == spencer_kernel_from_system(system), f"k={k}"


def build_spencer_copying_brackets(symbol, g_bases, k):
    """build_spencer as it was before it listed each action once: for every
    (v1, v2) pair it walks every degree-k basis map, copies each bracket with
    bracket_basis and adds the terms into defaultdict rows."""
    dims = tower_dims(symbol, g_bases)
    n1, dv, dk = dims.get(-1, 0), dims.get(k - 1, 0), dims.get(k, 0)
    neg_degrees = sorted(d for d in dims if d < 0)

    layout, offsets, ncols = [], {}, 0
    for i in neg_degrees:
        if dims[i] and dims.get(i + k + 1, 0):
            layout.append((i, dims[i], dims[i + k + 1]))
            offsets[i], ncols = ncols, ncols + dims[i] * dims[i + k + 1]

    top = symbol.indices_of_degree(-1)
    pairs = [(a1, a2) for i in neg_degrees if i != -1 and dims.get(i + k, 0)
             for a1 in top for a2 in symbol.indices_of_degree(i)]
    if dv:
        pairs += [(top[p], top[q]) for p in range(n1) for q in range(p + 1, n1)]

    def col(i, a, t):
        return offsets[i] + a * dims[i + k + 1] + t

    rows = []
    for a1, a2 in pairs:
        i2 = symbol.degree_of(a2)
        pair_rows = [defaultdict(int) for _ in range(dims[i2 + k])]
        rows += pair_rows
        a1_pos, a2_pos = symbol.position_in_degree(a1), symbol.position_in_degree(a2)
        if -1 in offsets:
            for t, f in enumerate(g_bases[k]):
                for u, value in f.columns[i2][a2_pos].items():
                    pair_rows[u][col(-1, a1_pos, t)] += value
        mid = i2 + k + 1
        if i2 in offsets and mid < 0:
            for t, g in enumerate(symbol.indices_of_degree(mid)):
                for c, value in symbol.bracket_basis(g, a1).items():
                    pair_rows[symbol.position_in_degree(c)][col(i2, a2_pos, t)] -= value
        elif i2 in offsets:
            for t, f in enumerate(g_bases[mid]):
                for u, value in f.columns[-1][a1_pos].items():
                    pair_rows[u][col(i2, a2_pos, t)] -= value
        if i2 - 1 in offsets:
            for c, value in symbol.bracket_basis(a1, a2).items():
                for t in range(dims[i2 + k]):
                    pair_rows[t][col(i2 - 1, symbol.position_in_degree(c), t)] -= value
    negative = RatMatrix._of_rows(len(rows), ncols, rows)

    restricted = defaultdict(dict)
    for t, f in enumerate(g_bases[k] if k and dv else ()):
        for a1, column in enumerate(f.columns[-1]):
            for u, value in column.items():
                restricted[a1 * dv + u][t] = -value
    restriction = RatMatrix._of_rows(n1 * dv, dk, restricted) if k else RatMatrix(0, 0)
    copies = tuple(dims[i] for i in range(k)) if n1 and dv else ()
    return SpencerSystem(k, tuple(layout), copies, dv, negative, restriction)


def walked_complement(system):
    """The complement as the rows of N, then of every copy of R, that
    elimination did not keep, read off the restriction_rows walk."""
    kept = set(system.restriction_echelon.kept)
    return tuple(system.negative_echelon.complement()) + tuple(
        row for row, _, r in system.restriction_rows() if r not in kept)


@functools.cache
def prolonged_heisenberg(n):
    """heisenberg(n) with full g0 prolonged to cutoff 3, once per test session."""
    m = heisenberg(n)
    return universal_prolongation(m, degree_zero_derivations(m), 3)


def assert_every_spencer_degree_matches(result, name=""):
    """At each Spencer degree of the run, build_spencer and the copying
    builder give the same system, and the report's complement is the walk's.
    Returns how many of these systems (k >= 2, so R has copies on several
    degrees) drop a row of R whose value space has dimension above 1, the
    case the complement's offsets must get right."""
    bases = [list(b) for b in result.bases]
    several = 0
    for report in result.normalization:
        k = report.k
        system = build_spencer(result.symbol, bases[: k + 1], k)
        reference = build_spencer_copying_brackets(result.symbol, bases[: k + 1], k)
        assert system.negative == reference.negative, (name, k)
        assert system.restriction == reference.restriction, (name, k)
        assert (system.layout, system.copies, system.value_dim) == (
            reference.layout, reference.copies, reference.value_dim), (name, k)
        assert normalization_report(system).complement_indices == walked_complement(system), (name, k)
        several += (len(system.copies) > 1 and system.value_dim > 1
                    and system.restriction_echelon.rank < system.restriction.rows)
    return several


def test_build_spencer_matches_the_copying_builder_on_corpus_and_perfbench(corpus_results, perfbench_results):
    several = sum(assert_every_spencer_degree_matches(result, name)
                  for name, (*_, result) in {**corpus_results, **perfbench_results}.items())
    assert several  # cartan-25, contact-n1, ode2-point and free-3-2 at k = 2


@pytest.mark.parametrize("n, marked", [pytest.param(n, marked, id=f"sl{n}-" + "".join(map(str, marked)))
                                       for n, marked in GRADINGS])
def test_build_spencer_matches_the_copying_builder_on_parabolic_gradings(n, marked):
    assert_every_spencer_degree_matches(prolonged_grading(n, marked))


@pytest.mark.parametrize("n", range(3, 7))
def test_build_spencer_matches_the_copying_builder_on_free_two_step(n):
    assert assert_every_spencer_degree_matches(prolonged_free(n))


@pytest.mark.parametrize("n", range(1, 4))
def test_build_spencer_matches_the_copying_builder_on_heisenberg(n):
    assert assert_every_spencer_degree_matches(prolonged_heisenberg(n))
