"""The universal prolongation of a fundamental graded nilpotent Lie algebra.

Each new degree is the space of maps f in the direct sum of Hom(g^i, g^{i+d})
over i < 0 satisfying the Leibniz identity

    f([v1, v2]) = [f(v1), v2] + [v1, f(v2)]   for all v1, v2 in the symbol,

computed as an exact nullspace over every negative basis pair.  The kernel of
the degree-(d-1) Spencer operator is the same space by a different route
(constraints for v1 of degree -1 only, over a domain with extra non-negative
blocks); the engine computes both and insists they agree, which makes every
run a self-test of the whole constraint assembly.

The assembled algebra starts from the symbol's brackets, [f, v] = f(v)
for every computed map f and the degree-zero commutator table (for g0
alone, the algebra m + g0 of adjoin_g0).  A bracket [x, y] of two
non-negative elements of total degree D is the map

    v -> [[x, y], v] = [x, [y, v]] - [y, [x, v]]

on the symbol (the Jacobi identity), whose right side only meets brackets of
total degree below D, so it is composed exactly over the rows of the one
bracket table as they grow: each element's action v -> [w, v] on the symbol is
listed once per degree D, and a pair walks the two lists of its elements.
The degree-D basis is in reduced echelon form, so a bracket's coordinates
are its entries at the basis pivots, certified exactly on every entry: the
map minus its expansion over the basis rows vanishes.  The rows are
adopted, without a copy, as a single graded Lie algebra,
checked for the Jacobi identity whenever the prolongation terminates.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from . import linalg
from .algebra import (
    BasisElement,
    DegreeZeroAlgebra,
    GradedLieAlgebra,
    GradedLinearMap,
    check_validity,
    layout_offsets,
    map_layout,
    maps_from_rows,
    require_same_symbol,
    require_valid_symbol,
    tower_dims,
)
from .linalg import InternalConsistencyError, RatMatrix
from .normalization import (
    NormalizationReport,
    SpencerSystem,
    build_spencer,
    normalization_report,
)

DEFAULT_MAX_DEGREE = 10  # the cutoff of a run, spec or document that names none


def leibniz_system(symbol: GradedLieAlgebra, g_bases, degree: int):
    """Constraint matrix for degree-`degree` maps on the negative part.

    Columns follow map_layout (blocks ascending in i, domain index outer,
    target coordinate inner); rows are emitted pair by pair over all basis
    pairs (a, b) with a < b of the symbol whose target degree is not empty,
    each entry written once, and a row is made on its first entry.  The
    side terms [f(e), e'] walk the nonzero action on e' of the degree
    mid = i + degree basis x_t, listed once per (mid, e') on first use as
    (t, u, value) triples, [x_t, e'] = sum of value y_u, read straight from
    the symbol's table (mid < 0) or the tower's columns.  Returns (layout,
    matrix).
    """
    dims = tower_dims(symbol, g_bases)
    layout = map_layout(dims, degree)
    offsets, ncols = layout_offsets(layout)
    block_target = {i: tgt for i, _, tgt in layout}
    brackets, positions = symbol.rows, symbol._positions
    degrees = [e.degree for e in symbol.basis]
    actions: dict[tuple[int, int], list] = {}  # (mid, e') -> its (t, u, value) triples

    def action(mid, other):
        acts = []
        if mid < 0:
            for t, g in enumerate(symbol.indices_of_degree(mid)):
                if g < other:
                    acts += [(t, positions[c], value) for c, value in brackets[g].get(other, {}).items()]
                elif g > other:
                    acts += [(t, positions[c], -value) for c, value in brackets[other].get(g, {}).items()]
        else:
            column = positions[other]
            for t, f in enumerate(g_bases[mid]):
                acts += [(t, u, value) for u, value in f.columns[degrees[other]][column].items()]
        actions[(mid, other)] = acts
        return acts

    rows = defaultdict(dict)  # row -> {column: value}
    nrows = 0
    for a in range(symbol.dim):
        i, row = degrees[a], brackets[a]
        for b in range(a + 1, symbol.dim):
            j = degrees[b]
            size = dims.get(i + j + degree, 0)
            if not size:
                continue
            base, nrows = nrows, nrows + size
            # + f([e_a, e_b])
            if i + j in block_target:
                for c, value in row.get(b, {}).items():
                    first = offsets[i + j] + positions[c] * size - base
                    for r in range(base, nrows):
                        rows[r][first + r] = value
            # - [f(e_a), e_b], with f(e_a) expanded over the degree i+degree basis,
            # then - [e_a, f(e_b)] = + [f(e_b), e_a]
            for dom, dom_deg, other, sign in ((a, i, b, -1), (b, j, a, 1)):
                if dom_deg in block_target:
                    first, mid = offsets[dom_deg] + positions[dom] * block_target[dom_deg], dom_deg + degree
                    acts = actions.get((mid, other))
                    if acts is None:
                        acts = action(mid, other)
                    for t, u, value in acts:
                        rows[base + u][first + t] = sign * value
    return layout, RatMatrix._of_rows(nrows, ncols, rows)


def _normalize_map_basis(vectors, degree, layout):
    """Echelon basis of the span of sparse flattened maps, one map per reduced row."""
    if not vectors:
        return []
    echelon = linalg.rref(RatMatrix._of_rows(len(vectors), layout_offsets(layout)[1], vectors))
    return maps_from_rows(degree, layout, echelon.pivot_rows)


def prolong_step(symbol: GradedLieAlgebra, g_bases):
    """Basis of the next prolongation degree from the computed tower.

    g_bases holds the bases of degrees 0..k; the result is the degree k+1
    basis, echelon-normalized, empty exactly when the prolongation stops.
    """
    if not g_bases:
        raise ValueError("g_bases must contain at least the degree-zero level")
    degree = len(g_bases)
    layout, matrix = leibniz_system(symbol, g_bases, degree)
    kernel = linalg.rref(matrix).kernel(f"Leibniz kernel at degree {degree}")
    return _normalize_map_basis(kernel, degree, layout)


def spencer_kernel_from_system(system: SpencerSystem):
    """Kernel of the degree-k Spencer operator, as degree-(k+1) maps.

    Kernel elements provably vanish on the non-negative domain blocks, that
    is, R has full column rank; this is checked rather than assumed.  The
    kernel is then the kernel of the negative block N.  A failure names a
    combination of the degree-k basis that vanishes on g^-1, R's first
    kernel vector.
    """
    if system.copies and system.restriction_echelon.rank < system.restriction.cols:
        witness = linalg.dense(system.restriction_echelon.nullspace()[0], system.restriction.cols)
        raise InternalConsistencyError(
            f"Spencer kernel element at k={system.k} has a nonzero non-negative block: "
            f"witness [{', '.join(map(str, witness))}]"
        )
    kernel = system.negative_echelon.kernel(f"Spencer kernel at degree {system.k + 1}")
    return _normalize_map_basis(kernel, system.k + 1, system.layout)


def _disagreement(degree, leibniz, spencer, layout) -> str:
    """The cross-check failure, naming a basis map of one route that is not
    in the span of the other route's basis, with its flattened coordinates."""
    message = f"Spencer kernel disagrees with the pairwise constraint route at degree {degree}"
    for route, maps, other in (("pairwise constraint", leibniz, spencer),
                               ("Spencer kernel", spencer, leibniz)):
        flats = [f.flat_entries(layout) for f in maps]
        for f, coords in zip(maps, linalg.express_in_basis([g.flatten(layout) for g in other], flats)):
            if coords is None:
                witness = ", ".join(map(str, f.flatten(layout)))
                return f"{message}: the {route} map [{witness}] is not in the span of the other route"
    return message


class TransitivityReport(NamedTuple):
    ok: bool
    degree: int | None
    witness: tuple[linalg.Rational, ...] | None


class ProlongationResult(NamedTuple):
    symbol: GradedLieAlgebra
    g0: DegreeZeroAlgebra
    bases: tuple[tuple[GradedLinearMap, ...], ...]
    dims: dict[int, int]
    terminated: bool
    vanishing_degree: int | None
    max_degree: int
    algebra: GradedLieAlgebra
    normalization: tuple[NormalizationReport, ...]
    total_dimension: int | None

    def graded_dimensions(self):
        return [(d, self.dims[d]) for d in sorted(self.dims)]


def universal_prolongation(symbol: GradedLieAlgebra, g0, max_degree: int = DEFAULT_MAX_DEGREE) -> ProlongationResult:
    """Compute the full prolongation of (symbol, g0) up to max_degree.

    Stops at the first empty degree (terminated, with the vanishing degree
    recorded) or at max_degree (truncated).  Each degree's Spencer matrix is
    eliminated once and gives that degree's normalization report.  Every
    degree is recomputed through the Spencer kernel and compared, kernel
    elements are checked to vanish on non-negative blocks, the assembled
    algebra of a terminated run must pass check_validity, and transitivity
    must hold; failures raise InternalConsistencyError.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    if not (isinstance(g0, DegreeZeroAlgebra) and g0.symbol is symbol and g0._symbol_guarded):
        require_valid_symbol(symbol)  # else the g0 builder guarded this very symbol
    if not isinstance(g0, DegreeZeroAlgebra):
        g0 = DegreeZeroAlgebra(symbol, g0)
    require_same_symbol(symbol, g0)

    g_bases: list[list[GradedLinearMap]] = [list(g0.generators)]
    reports: list[NormalizationReport] = []
    terminated = False
    vanishing = None
    for d in range(1, max_degree + 1):
        new_basis = prolong_step(symbol, g_bases)
        system = build_spencer(symbol, g_bases, d - 1)
        kernel = spencer_kernel_from_system(system)
        if kernel != new_basis:
            raise InternalConsistencyError(_disagreement(d, new_basis, kernel, system.layout))
        reports.append(normalization_report(system))
        if not new_basis:
            terminated = True
            vanishing = d
            break
        g_bases.append(new_basis)

    algebra = _assemble(symbol, g_bases, g0, terminated)
    dims = tower_dims(symbol, g_bases)
    total = algebra.dim if terminated else None

    result = ProlongationResult(
        symbol=symbol,
        g0=g0,
        bases=tuple(tuple(base) for base in g_bases),
        dims=dims,
        terminated=terminated,
        vanishing_degree=vanishing,
        max_degree=max_degree,
        algebra=algebra,
        normalization=tuple(reports),
        total_dimension=total,
    )
    if terminated:
        final = check_validity(algebra)
        if not final.ok:
            raise InternalConsistencyError(
                f"assembled prolongation fails validity: {final.describe()}"
            )
    trans = check_transitivity(result)
    if not trans.ok:
        raise InternalConsistencyError(
            f"transitivity fails at degree {trans.degree}: "
            f"witness [{', '.join(map(str, trans.witness))}]")
    return result


def check_transitivity(result: ProlongationResult) -> TransitivityReport:
    """No nonzero positive-degree element may vanish on the degree -1 part.

    For each computed degree k >= 1 the restriction-to-degree -1 map on the
    basis span must have full rank; a failing degree comes with the
    coefficients of a nonzero combination vanishing on g^-1.  The stacked
    degree -1 blocks are -R of the degree-k Spencer operator, so this is the
    question its full-column-rank check asks; it is asked again of the
    result itself, including the top degree, which no Spencer system covers.
    """
    dims = result.dims
    for k, base in enumerate(result.bases[1:], start=1):
        n1, below = dims.get(-1, 0), dims.get(k - 1, 0)
        # one column per map, its degree -1 block; the kernel holds the
        # combinations that vanish on g^-1
        rows = defaultdict(dict)
        for t, f in enumerate(base):
            for c, x in f.flat_entries([(-1, n1, below)]).items():
                rows[c][t] = x
        kernel = linalg.nullspace(RatMatrix._of_rows(n1 * below, len(base), rows))
        if kernel:
            return TransitivityReport(False, k, tuple(kernel[0]))
    return TransitivityReport(True, None, None)


def adjoin_g0(symbol: GradedLieAlgebra, g0: DegreeZeroAlgebra) -> GradedLieAlgebra:
    """The graded algebra m + g0 with [f, v] = f(v) for f in g0: the
    assembly of the tower g0 alone, its basis named as in a report."""
    require_same_symbol(symbol, g0)
    return _assemble(symbol, [list(g0.generators)], g0, False)


def _assemble(symbol, g_bases, g0, terminated) -> GradedLieAlgebra:
    """The symbol plus the computed tower as one graded Lie algebra.

    Tower element j + 1 of degree k is named g{k}_{j + 1}, with "_"
    appended while the name is taken.  The brackets go straight into the
    rows of the result, rows[a] = {b: terms} for a < b, seeded and then
    filled degree by degree as the module docstring describes: actions[w]
    lists [w, v] = -[v, w] for the symbol elements v as (column base of v,
    c, coefficient) triples, and [a, c] is read as rows[a].get(c) when a is
    below c, else as -rows[c].get(a).  A pair's coordinates are the entries
    of its composed map at the pivots, and the certificate is that the map
    minus its expansion over the basis rows vanishes, a column the map lacks
    read as 0; otherwise InternalConsistencyError, naming the pair, its
    degrees and the least column left nonzero.  When the prolongation
    terminated, pairs whose total degree exceeds the top computed degree (no
    basis) must vanish.
    """
    dims = tower_dims(symbol, g_bases)
    kmax = len(g_bases) - 1
    used = {e.name for e in symbol.basis}
    elements = list(symbol.basis)
    indices = {d: symbol.indices_of_degree(d) for d in dims if d < 0}
    for k, base in enumerate(g_bases):
        indices[k] = range(len(elements), len(elements) + len(base))
        for j in range(len(base)):
            name = f"g{k}_{j + 1}"
            while name in used:
                name += "_"
            used.add(name)
            elements.append(BasisElement(name, k))
    # position[g]: the place of e_g in its degree
    position = [symbol.position_in_degree(g) for g in range(symbol.dim)]
    position += [j for base in g_bases for j in range(len(base))]
    rows = [{b: dict(terms) for b, terms in row.items()} for row in symbol.rows]
    rows += [{} for _ in range(len(elements) - symbol.dim)]
    for k, base in enumerate(g_bases):
        for f, x in zip(base, indices[k]):
            for i in symbol.degrees:
                for v, col in zip(indices[i], f.columns.get(i, ())):
                    if col:  # [v, f] = -f(v)
                        rows[v][x] = {indices[i + k][t]: -value for t, value in col.items()}
    zero = indices[0]
    for (s, t), coords in g0.structure_constants.items():
        if coords:
            rows[zero[s]][zero[t]] = {zero[u]: x for u, x in coords.items()}
    empty: dict[int, linalg.Rational] = {}
    frac = linalg._frac

    for D in range(1, (2 * kmax if terminated else kmax) + 1):
        layout = map_layout(dims, D)
        offsets, _ = layout_offsets(layout)
        # the degree-D basis maps are reduced echelon rows (_normalize_map_basis),
        # so a bracket's coordinates are its entries at their unit pivots:
        # pivot column -> (index of the basis element, items of its row)
        pivots = ({min(row): (g, tuple(row.items())) for g, row in
                   zip(indices[D], (f.flat_entries(layout) for f in g_bases[D]))} if D <= kmax else {})
        low = max(0, D - kmax)
        actions = {w: [(offsets[i] + pos * tgt, c, -p) for i, _, tgt in layout
                       for pos, v in enumerate(indices[i])
                       for c, p in rows[v].get(w, empty).items()]
                   for m in range(low, D - low + 1) for w in indices[m]}
        for k in range(low, D // 2 + 1):
            for x in indices[k]:
                acts_x, row_x = actions[x], rows[x]
                for y in indices[D - k]:
                    if x >= y:
                        continue
                    # [[x, y], v] = [x, [y, v]] - [y, [x, v]], with [a, c] = rows[a][c]
                    # for a below c, else -rows[c][a]; the sign rides on q
                    flat = {}
                    for base, c, q in actions[y]:
                        if c < x:
                            terms, q = rows[c].get(x), -q
                        else:
                            terms = row_x.get(c)
                        if terms:
                            for e, value in terms.items():
                                col = base + position[e]
                                flat[col] = flat.get(col, 0) + q * value
                    # deg c < deg x <= deg y, so c is below y and -[y, c] = rows[c][y]
                    for base, c, q in acts_x:
                        terms = rows[c].get(y)
                        if terms:
                            for e, value in terms.items():
                                col = base + position[e]
                                flat[col] = flat.get(col, 0) + q * value
                    if not flat:
                        continue
                    coords = [(hit, value) for col, value in flat.items() if value and (hit := pivots.get(col))]
                    # the certificate: the map minus its expansion over the basis rows vanishes
                    for (_, items), value in coords:
                        for col, r in items:
                            flat[col] = flat.get(col, 0) - value * r
                    if any(flat.values()):
                        fault = ("is nonzero beyond the vanishing degree" if D > kmax
                                 else f"escaped the degree-{D} basis")
                        col = min(col for col, value in flat.items() if value)
                        raise InternalConsistencyError(
                            f"bracket [{elements[x].name}, {elements[y].name}] of degrees ({k}, {D - k}) "
                            f"{fault}: column {col} of its map is {flat[col]} after reconstruction")
                    # pairs of degree D read only brackets below D
                    if coords:
                        row_x[y] = {g: value if type(value) is int else frac(value)
                                    for (g, _), value in coords}
    return GradedLieAlgebra._of_rows(elements, rows)
