"""leibniz_system against the emitter it replaced, at every computed degree.

The reference below is prolongation.leibniz_system as it was before it
listed the symbol's nonzero action once per (domain degree, partner): for
every basis pair it copies each bracket with bracket_basis and adds the
terms into defaultdict rows.  Both must build the same RatMatrix, shape,
row indices and entries included, on every corpus and perfbench instance,
on the sl(n) gradings of test_parabolic.py and on free:n:2 for n = 3 to 6.
"""

from collections import defaultdict

import pytest

from gradedlie.algebra import layout_offsets, map_layout, tower_dims
from gradedlie.linalg import RatMatrix
from gradedlie.prolongation import leibniz_system

from test_parabolic import GRADINGS, prolonged_free, prolonged_grading


def leibniz_system_copying_brackets(symbol, g_bases, degree):
    dims = tower_dims(symbol, g_bases)
    layout = map_layout(dims, degree)
    offsets, ncols = layout_offsets(layout)
    block_target = {i: tgt for i, _, tgt in layout}

    def col(i, pos, t):
        return offsets[i] + pos * block_target[i] + t

    def emit_side(block, dom, other, sign):
        dom_deg = symbol.degree_of(dom)
        if dom_deg not in block_target:
            return
        mid, first = dom_deg + degree, col(dom_deg, symbol.position_in_degree(dom), 0)
        if mid < 0:
            for t, g in enumerate(symbol.indices_of_degree(mid)):
                for c, value in symbol.bracket_basis(g, other).items():
                    block[symbol.position_in_degree(c)][first + t] += sign * value
        else:
            other_deg, other_pos = symbol.degree_of(other), symbol.position_in_degree(other)
            for t, f in enumerate(g_bases[mid]):
                for u, value in f.columns[other_deg][other_pos].items():
                    block[u][first + t] += sign * value

    rows = []
    for a in range(symbol.dim):
        for b in range(a + 1, symbol.dim):
            i, j = symbol.degree_of(a), symbol.degree_of(b)
            block = [defaultdict(int) for _ in range(dims.get(i + j + degree, 0))]
            if not block:
                continue
            rows += block
            if i + j in block_target:
                for c, value in symbol.bracket_basis(a, b).items():
                    pos_c = symbol.position_in_degree(c)
                    for t in range(block_target[i + j]):
                        block[t][col(i + j, pos_c, t)] += value
            emit_side(block, a, b, -1)
            emit_side(block, b, a, 1)
    return layout, RatMatrix._of_rows(len(rows), ncols, rows)


def assert_every_degree_matches(result, name=""):
    """Both builders agree at each degree the run built a Leibniz system for:
    0 (the derivations of full g0) to the cutoff, or to the vanishing degree
    of a terminated run."""
    last = result.vanishing_degree if result.terminated else result.max_degree
    for degree in range(last + 1):
        bases = result.bases[:degree]
        layout, matrix = leibniz_system(result.symbol, bases, degree)
        ref_layout, reference = leibniz_system_copying_brackets(result.symbol, bases, degree)
        assert layout == ref_layout, (name, degree)
        assert (matrix.rows, matrix.cols) == (reference.rows, reference.cols), (name, degree)
        assert matrix == reference, (name, degree)


def test_leibniz_system_matches_the_copying_emitter_on_corpus_and_perfbench(corpus_results, perfbench_results):
    for name, (*_, result) in {**corpus_results, **perfbench_results}.items():
        assert_every_degree_matches(result, name)


@pytest.mark.parametrize("n, marked", [pytest.param(n, marked, id=f"sl{n}-" + "".join(map(str, marked)))
                                       for n, marked in GRADINGS])
def test_leibniz_system_matches_the_copying_emitter_on_parabolic_gradings(n, marked):
    assert_every_degree_matches(prolonged_grading(n, marked))


@pytest.mark.parametrize("n", range(3, 7))
def test_leibniz_system_matches_the_copying_emitter_on_free_two_step(n):
    assert_every_degree_matches(prolonged_free(n))
