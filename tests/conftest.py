from fractions import Fraction
from pathlib import Path

import pytest

from gradedlie import (
    BasisElement,
    GradedLieAlgebra,
    custom_g0,
    free_nilpotent,
    universal_prolongation,
)
from gradedlie import specfile

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"

# action of the standard line-preserving generators on the X1, X2, X3 basis
LAMBDA_1 = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
LAMBDA_2 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]


def bracket(algebra, x, y):
    """Bracket of two coordinate vectors over the full basis of `algebra`."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise ValueError("coordinate vectors must match the basis dimension")
    out = [Fraction(0)] * n
    for a, b in pairs(algebra):
        coeff = x[a] * y[b] - x[b] * y[a]
        if coeff:
            for c, value in algebra.bracket_basis(a, b).items():
                out[c] += coeff * value
    return out


def pairs(algebra):
    """The index pairs (a, b), a < b, of the nonzero brackets, ascending."""
    return [(a, b) for a, row in enumerate(algebra.rows) for b in sorted(row)]


def table_of(algebra):
    """The brackets of `algebra` as a {(a, b): terms} dict, the form of the
    public constructor's input; the terms are the algebra's own dicts."""
    return {(a, b): terms for a, row in enumerate(algebra.rows) for b, terms in row.items()}


def unit_vector(algebra, index):
    v = [Fraction(0)] * algebra.dim
    v[index] = Fraction(1)
    return v


def canonical(value):
    """An exact rational in the engine's form: an int, or a Fraction whose
    denominator is greater than 1."""
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def make_eta3() -> GradedLieAlgebra:
    return GradedLieAlgebra(
        [BasisElement("X1", -1), BasisElement("X2", -1), BasisElement("X3", -2)],
        {(0, 1): {2: Fraction(1)}},
    )


@pytest.fixture(scope="session")
def eta3():
    return make_eta3()


@pytest.fixture(scope="session")
def lambda_g0(eta3):
    return custom_g0(eta3, [LAMBDA_1, LAMBDA_2])


@pytest.fixture(scope="session")
def example5_result(eta3, lambda_g0):
    return universal_prolongation(eta3, lambda_g0)


@pytest.fixture(scope="session")
def m25():
    return free_nilpotent(2, 3)


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


def spec_results(directory):
    """name -> (spec, symbol, g0, prolongation result) for every spec file in `directory`."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        spec = specfile.parse_spec(specfile.load_document(path.read_text()))
        symbol = specfile.build_symbol(spec)
        g0 = specfile.build_g0(spec, symbol)
        result = universal_prolongation(symbol, g0, max_degree=spec.max_degree)
        out[spec.name] = (spec, symbol, g0, result)
    return out


@pytest.fixture(scope="session")
def corpus_results(corpus_dir):
    """name -> (spec, symbol, g0, prolongation result) for every corpus file."""
    return spec_results(corpus_dir)


@pytest.fixture(scope="session")
def perfbench_results():
    """name -> (spec, symbol, g0, prolongation result) for every perfbench spec."""
    return spec_results(SPECS)


@pytest.fixture(scope="session")
def terminated_algebras(corpus_results, perfbench_results):
    """name -> assembled algebra of every corpus file and perfbench spec
    whose prolongation terminates."""
    runs = {**corpus_results, **perfbench_results}
    return {name: result.algebra for name, (*_, result) in runs.items() if result.terminated}
