import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedlie import check_fundamental, check_validity, free_nilpotent

from conftest import pairs


def mobius(n):
    # independent of the library: trial division
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def witt(r, d):
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * r ** (d // e)
    assert total % d == 0
    return total // d


def test_witt_oracle_known_values():
    assert [witt(2, d) for d in range(1, 6)] == [2, 1, 2, 3, 6]
    assert [witt(3, d) for d in range(1, 4)] == [3, 3, 8]


@pytest.mark.parametrize("r,mu", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
def test_dimensions_match_witt(r, mu):
    algebra = free_nilpotent(r, mu)
    dims = algebra.dims_by_degree()
    for d in range(1, mu + 1):
        assert dims.get(-d, 0) == witt(r, d)


def test_two_generator_step_three_relations():
    m = free_nilpotent(2, 3)
    names = [(e.name, e.degree) for e in m.basis]
    assert names == [("X1", -1), ("X2", -1), ("X3", -2), ("X4", -3), ("X5", -3)]
    table = {
        (m.basis[a].name, m.basis[b].name): {
            m.basis[c].name: v for c, v in m.bracket_basis(a, b).items()
        }
        for a, b in pairs(m)
    }
    assert table == {
        ("X1", "X2"): {"X3": 1},
        ("X1", "X3"): {"X4": 1},
        ("X2", "X3"): {"X5": 1},
    }


def test_step_two_is_heisenberg_shape():
    m = free_nilpotent(2, 2)
    assert m.dims_by_degree() == {-1: 2, -2: 1}


def test_single_generator_is_abelian_line():
    m = free_nilpotent(1, 5)
    assert m.dims_by_degree() == {-1: 1}
    assert check_fundamental(m)


def test_generated_algebras_are_valid_and_fundamental():
    for r, mu in [(2, 4), (2, 5), (3, 3)]:
        m = free_nilpotent(r, mu)
        assert check_validity(m).ok
        assert check_fundamental(m)


def test_determinism():
    a = free_nilpotent(2, 4)
    b = free_nilpotent(2, 4)
    assert [e.name for e in a.basis] == [e.name for e in b.basis]
    assert all(a.bracket_basis(*p) == b.bracket_basis(*p) for p in pairs(a))
    assert a.rows == b.rows


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        free_nilpotent(0, 3)
    with pytest.raises(ValueError):
        free_nilpotent(2, 0)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4))
def test_random_small_parameters(r, mu):
    m = free_nilpotent(r, mu)
    assert check_validity(m).ok
    assert check_fundamental(m)
    dims = m.dims_by_degree()
    for d in range(1, mu + 1):
        assert dims.get(-d, 0) == witt(r, d)
