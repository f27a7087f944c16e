from fractions import Fraction

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
from gradedlie.normalization import DomainBlock, SpencerSystem, TargetBlock
from gradedlie.symbols import EuclideanForm

F = Fraction


def identity_form(n):
    return EuclideanForm([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def test_example5_degree_zero_system(eta3, lambda_g0):
    system = build_spencer(eta3, [list(lambda_g0.generators)], 0)
    assert system.domain_dim == 6   # Hom(g^-1, g^0) + Hom(g^-2, g^-1)
    assert system.target_dim == 4   # Hom(g^-1 (x) g^-2, g^-2) + Hom(/\^2 g^-1, g^-1)
    kinds = [(b.kind, b.degree) for b in system.target_layout]
    assert kinds == [("tensor", -2), ("wedge", -1)]
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
    system = build_spencer(eta3, [[]], 0)
    assert [b.degree for b in system.domain_layout] == [-2]
    assert system.domain_dim == 2
    assert system.target_dim == 4
    report = normalization_report(system)
    assert report.dim_kernel == 0


def test_zero_matrix_system_complement_is_everything():
    system = SpencerSystem(
        k=0,
        domain_layout=(DomainBlock("neg", -1, 1, 2),),
        target_layout=(TargetBlock("wedge", -1, 1, 3),),
        matrix=RatMatrix(3, 2),
    )
    report = normalization_report(system)
    assert report.dim_complement == report.dim_target == 3
    assert report.complement_indices == (0, 1, 2)
    assert report.dim_kernel == 2


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
                    row[p * len(gens) + t] += gen.blocks[-1][q][c]
                    row[q * len(gens) + t] -= gen.blocks[-1][p][c]
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

    monkeypatch.setattr(linalg, "rref", recording_rref)
    result = universal_prolongation(symbol, g0, max_degree=spec.max_degree)
    monkeypatch.undo()

    bases = [list(b) for b in result.bases]
    assert [report.k for report in result.normalization] == list(range(len(result.normalization)))
    for k in range(len(result.normalization)):
        matrix = build_spencer(symbol, bases[: k + 1], k).matrix
        transpose = matrix.transpose()
        assert sum(m == matrix for m in eliminated) == 1, f"{name} at k={k}"
        assert not any(m == transpose for m in eliminated), f"{name} at k={k}"
