from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import (
    abelian,
    build_spencer,
    linalg,
    normalization_report,
    orthogonal_derivations,
    specfile,
    universal_prolongation,
)
from gradedlie.linalg import RatMatrix
from gradedlie.normalization import SpencerSystem
from gradedlie.prolongation import _normalize_map_basis, spencer_kernel_from_system
from gradedlie.symbols import EuclideanForm
from test_linalg import transpose

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
