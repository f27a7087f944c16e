"""Free nilpotent Lie algebras on r generators truncated at a given step.

The basis is a classical Hall set: trees ordered by degree, then by their
leaf word, with (u, v) admissible when u < v and v is a letter or v = (v1, v2)
with v1 <= u.  Structure constants are obtained by expanding bracketed trees
inside the truncated free associative algebra and solving exactly against the
expansions of the Hall elements of the matching degree, so every constant is
certified rather than rewritten.
"""

from __future__ import annotations

from . import linalg
from .algebra import BasisElement, GradedLieAlgebra
from .linalg import InternalConsistencyError

# A Hall tree is an int (generator index) or a pair (left, right).


def _foliage(tree) -> tuple[int, ...]:
    if isinstance(tree, int):
        return (tree,)
    return _foliage(tree[0]) + _foliage(tree[1])


def _shape(tree):
    if isinstance(tree, int):
        return (0, tree)
    return (1, _shape(tree[0]), _shape(tree[1]))


def _tree_key(tree):
    leaves = _foliage(tree)
    return (len(leaves), leaves, _shape(tree))


def hall_trees(r: int, mu: int) -> dict[int, list]:
    """Hall trees of each degree 1..mu on r generators, in basis order."""
    if r < 1 or mu < 1:
        raise ValueError("need r >= 1 and mu >= 1")
    by_degree: dict[int, list] = {1: list(range(r))}
    for d in range(2, mu + 1):
        found = []
        for dl in range(1, d):
            for u in by_degree[dl]:
                for v in by_degree[d - dl]:
                    if _tree_key(u) >= _tree_key(v):
                        continue
                    if isinstance(v, tuple) and _tree_key(v[0]) > _tree_key(u):
                        continue
                    found.append((u, v))
        by_degree[d] = sorted(found, key=_tree_key)
    return by_degree


def _expand(tree, cache) -> dict[tuple[int, ...], int]:
    """Expansion of a Hall tree in the free associative algebra (word -> coeff),
    cached by the tree itself."""
    if tree not in cache:
        cache[tree] = ({(tree,): 1} if isinstance(tree, int)
                       else _poly_commutator(_expand(tree[0], cache), _expand(tree[1], cache)))
    return cache[tree]


def _poly_commutator(p, q) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for wl, cl in p.items():
        for wr, cr in q.items():
            word = wl + wr
            out[word] = out.get(word, 0) + cl * cr
            word = wr + wl
            out[word] = out.get(word, 0) - cl * cr
    return {w: c for w, c in out.items() if c}


_ESCAPED = "bracket of Hall elements escaped the Hall span"


def _word_coordinates(poly, words) -> dict[int, int]:
    """Sparse coefficients of `poly` over the indexed words.

    A word outside the index appears in no Hall expansion of this degree, so
    the polynomial is outside their span.
    """
    if any(word not in words for word in poly):
        raise InternalConsistencyError(_ESCAPED)
    return {words[word]: coeff for word, coeff in poly.items()}


def free_nilpotent(r: int, mu: int) -> GradedLieAlgebra:
    """Free nilpotent graded Lie algebra on r generators of step mu.

    The degree -d component is spanned by the Hall trees with d leaves;
    basis names are X1, X2, ... in degree-ascending order.
    """
    trees = hall_trees(r, mu)
    ordered = []
    for d in range(1, mu + 1):
        for tree in trees[d]:
            ordered.append((d, tree))
    basis = [BasisElement(f"X{i + 1}", -d) for i, (d, _) in enumerate(ordered)]

    cache: dict = {}
    expansions = [_expand(tree, cache) for _, tree in ordered]
    members: dict[int, list[int]] = {}
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, (da, _) in enumerate(ordered):
        members.setdefault(da, []).append(a)
        for b in range(a + 1, len(ordered)):
            d = da + ordered[b][0]
            if d <= mu:
                pairs.setdefault(d, []).append((a, b))

    # one exact solve per degree: every commutator landing in degree d is
    # expressed over the Hall expansions of degree d in a single batch
    brackets: dict[tuple[int, int], dict[int, linalg.Rational]] = {}
    for d, degree_pairs in sorted(pairs.items()):
        words: dict[tuple[int, ...], int] = {}
        for idx in members[d]:
            for word in expansions[idx]:
                words.setdefault(word, len(words))
        hall = [linalg.dense(_word_coordinates(expansions[idx], words), len(words)) for idx in members[d]]
        targets = [_word_coordinates(_poly_commutator(expansions[a], expansions[b]), words)
                   for a, b in degree_pairs]
        for (a, b), coords in zip(degree_pairs, linalg.express_in_basis(hall, targets)):
            if coords is None:
                raise InternalConsistencyError(_ESCAPED)
            if coords:
                brackets[(a, b)] = {members[d][t]: value for t, value in coords.items()}
    return GradedLieAlgebra(basis, brackets)
