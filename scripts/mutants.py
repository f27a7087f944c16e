#!/usr/bin/env python3
"""Mutation check: every listed mutant of src/ must be caught by its tests.

    python3 scripts/mutants.py [NAME ...]

A mutant is a textual change to one file of src/gradedlie.  For each one
(or for each NAME given), the script copies src/ to a temporary directory,
applies the change to the copy and runs the mutant's tests from this
checkout against it (pytest with PYTHONPATH set to the copy).  A mutant is
caught when a test fails and survives when they all pass.  The exit code is
1 if any mutant survives, if pytest cannot run its tests, or if its old
text does not occur exactly once in its file (the list has gone stale),
else 0.  A test error counts as caught: the engine's own self-checks raise
InternalConsistencyError, often inside a shared fixture.  Standard library
and pytest only; running the mutants is not part of the tier-1 tests, but
tests/test_mutants.py checks there that no entry has gone stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/gradedlie, old text, new text, test ids)
MUTANTS = (
    ("ratio-always-floors", "linalg.py",
     "return Fraction(n, d) if n % d else n // d", "return n // d",
     ["tests/test_linalg.py::test_rref_keeps_integral_entries_as_ints",
      "tests/test_linalg.py::test_rref_matches_dense_and_sympy_oracles"]),
    ("frac-lets-floats-through", "linalg.py",
     "    if isinstance(value, float):\n        raise TypeError",
     "    if isinstance(value, complex):\n        raise TypeError",
     ["tests/test_linalg.py::test_frac_keeps_integral_rationals_as_ints",
      "tests/test_symbols.py::test_floats_are_rejected_at_every_entry_point"]),
    ("assemble-without-reconstruction", "prolongation.py",
     "if any(flat.values()):", "if False:",
     ["tests/test_prolongation.py::test_assemble_rejects_brackets_beyond_the_vanishing_degree",
      "tests/test_prolongation.py::test_assemble_rejects_brackets_that_escape_the_basis"]),
    ("assemble-action-sign", "prolongation.py",
     "c, -p) for i, _, tgt in layout", "c, p) for i, _, tgt in layout",
     ["tests/test_prolongation.py::test_assemble_matches_the_fraction_reference"]),
    ("seed-map-action-sign", "prolongation.py",
     "rows[v][x] = {indices[i + k][t]: -value for t, value in col.items()}",
     "rows[v][x] = {indices[i + k][t]: value for t, value in col.items()}",
     ["tests/test_algebra.py::test_adjoin_g0_example5",
      "tests/test_cli.py::test_reports_match_benchmark_golden_digests"]),
    ("assemble-lookup-sign-swapped", "prolongation.py",
     "terms, q = rows[c].get(x), -q\n                        else:\n"
     "                            terms = row_x.get(c)\n",
     "terms = rows[c].get(x)\n                        else:\n"
     "                            terms, q = row_x.get(c), -q\n",
     ["tests/test_prolongation.py::test_assemble_matches_the_fraction_reference"]),
    ("assemble-left-fold-dropped", "prolongation.py",
     "terms, q = rows[c].get(x), -q", "terms = rows[c].get(x)",
     ["tests/test_prolongation.py::test_assemble_matches_the_fraction_reference"]),
    ("assemble-right-fold-negated", "prolongation.py",
     "terms = rows[c].get(y)", "terms, q = rows[c].get(y), -q",
     ["tests/test_prolongation.py::test_assemble_matches_the_fraction_reference"]),
    ("assemble-reads-c-x-from-the-row-of-x", "prolongation.py",
     "terms, q = rows[c].get(x), -q", "terms, q = rows[x].get(c), -q",
     ["tests/test_prolongation.py::test_assemble_matches_the_fraction_reference"]),
    ("assemble-missing-column-read-by-key", "prolongation.py",
     "flat[col] = flat.get(col, 0) - value * r", "flat[col] -= value * r",
     ["tests/test_prolongation.py::test_assemble_reads_a_column_the_bracket_lacks_as_zero"]),
    ("assemble-keeps-empty-brackets", "prolongation.py",
     "                    if coords:\n", "                    if True:\n",
     ["tests/test_linalg.py::test_engine_built_matrices_hold_nonzero_exact_rationals_in_range"]),
    ("transitivity-witness-as-repr", "prolongation.py",
     "', '.join(map(str, trans.witness))", "', '.join(map(repr, trans.witness))",
     ["tests/test_prolongation.py::test_transitivity_failure_names_the_witness"]),
    ("leibniz-emitter-sign", "prolongation.py",
     "for dom, dom_deg, other, sign in ((a, i, b, -1), (b, j, a, 1)):",
     "for dom, dom_deg, other, sign in ((a, i, b, 1), (b, j, a, 1)):",
     ["tests/test_prolongation.py::test_example5_first_prolongation"]),
    ("leibniz-image-sign", "prolongation.py",
     "rows[r][first + r] = value", "rows[r][first + r] = -value",
     ["tests/test_prolongation.py::test_example5_first_prolongation"]),
    ("leibniz-symbol-side-sign", "prolongation.py",
     "acts += [(t, positions[c], -value) for c, value in brackets[other].get(g, {}).items()]",
     "acts += [(t, positions[c], value) for c, value in brackets[other].get(g, {}).items()]",
     ["tests/test_prolongation.py::test_example5_first_prolongation"]),
    ("leibniz-tower-side-sign", "prolongation.py",
     "acts += [(t, u, value) for u, value", "acts += [(t, u, -value) for u, value",
     ["tests/test_prolongation.py::test_example5_first_prolongation"]),
    ("leibniz-action-stored-a-degree-down", "prolongation.py",
     "actions[(mid, other)] = acts", "actions[(mid - 1, other)] = acts",
     ["tests/test_leibniz.py::test_leibniz_system_matches_the_copying_emitter_on_corpus_and_perfbench",
      "tests/test_prolongation.py::test_example5_first_prolongation"]),
    ("spencer-emitter-sign", "normalization.py",
     "rows[base + u][first + t] = value", "rows[base + u][first + t] = -value",
     ["tests/test_prolongation.py::test_route_equivalence_example5",
      "tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-symbol-side-sign", "normalization.py",
     "sign, low, high = (1, g, a1) if g < a1 else (-1, a1, g)",
     "sign, low, high = (-1, g, a1) if g < a1 else (1, a1, g)",
     ["tests/test_prolongation.py::test_route_equivalence_example5",
      "tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-tower-side-sign", "normalization.py",
     "return [(u, t, value) for t, f in enumerate(g_bases[mid])",
     "return [(u, t, -value) for t, f in enumerate(g_bases[mid])",
     ["tests/test_prolongation.py::test_route_equivalence_example5",
      "tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-image-sign", "normalization.py",
     "sign, low, high = (-1, a1, a2) if a1 < a2 else (1, a2, a1)",
     "sign, low, high = (1, a1, a2) if a1 < a2 else (-1, a2, a1)",
     ["tests/test_prolongation.py::test_route_equivalence_example5",
      "tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-right-list-keyed-by-v2", "normalization.py",
     "acts = right.get((mid, a1))\n"
     "            if acts is None:\n"
     "                acts = right[(mid, a1)] = right_action(mid, a1)\n",
     "acts = right.get((mid, a2))\n"
     "            if acts is None:\n"
     "                acts = right[(mid, a2)] = right_action(mid, a1)\n",
     ["tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-restriction-sign", "normalization.py",
     "restricted[a1 * dv + u][t] = -value", "restricted[a1 * dv + u][t] = value",
     ["tests/test_normalization.py::test_split_elimination_matches_the_whole_matrix[abelian-gl-1]"]),
    ("spencer-restriction-rows-copy-major", "normalization.py",
     "            for v1 in range(self.restriction.rows // dv):\n"
     "                for copy in range(first, first + count):\n",
     "            for copy in range(first, first + count):\n"
     "                for v1 in range(self.restriction.rows // dv):\n",
     ["tests/test_normalization.py::test_split_elimination_matches_the_whole_matrix",
      "tests/test_cli.py::test_reports_match_benchmark_golden_digests"]),
    ("complement-copy-major", "normalization.py",
     "            for v1, us in enumerate(dropped):\n"
     "                for copy in range(count):\n",
     "            for copy in range(count):\n"
     "                for v1, us in enumerate(dropped):\n",
     ["tests/test_normalization.py::test_build_spencer_matches_the_copying_builder_on_heisenberg"]),
    ("spencer-kernel-without-check", "prolongation.py",
     "if system.copies and system.restriction_echelon.rank < system.restriction.cols:", "if False:",
     ["tests/test_prolongation.py::test_spencer_kernel_rejects_a_restriction_without_full_column_rank"]),
    ("orthogonal-rows-unfiltered", "symbols.py",
     "row[p * n1 + s] += q[s][r]\n            rows.append({c: _frac(x) for c, x in row.items() if x})",
     "row[p * n1 + s] += q[s][r]\n            rows.append(row)",
     ["tests/test_linalg.py::test_engine_built_matrices_hold_nonzero_exact_rationals_in_range"]),
    ("line-rows-unfiltered", "symbols.py",
     "row[a * 2 + 1] -= v[a] * v[0]\n        rows.append({c: _frac(x) for c, x in row.items() if x})",
     "row[a * 2 + 1] -= v[a] * v[0]\n        rows.append(row)",
     ["tests/test_linalg.py::test_engine_built_matrices_hold_nonzero_exact_rationals_in_range"]),
    ("nilpotent-series-uncast", "algebra.py",
     "produced.append({c: linalg._frac(x) for c, x in w.items()})", "produced.append(w)",
     ["tests/test_linalg.py::test_engine_built_matrices_hold_nonzero_exact_rationals_in_range"]),
    ("symbol-guard-skips-validity", "algebra.py",
     "    if not report.ok:\n", "    if False:\n",
     ["tests/test_symbols.py::test_every_builder_rejects_an_ungraded_symbol",
      "tests/test_cli.py::test_check_rejects_an_ungraded_symbol_on_one_line",
      "tests/test_prolongation.py::test_rejects_invalid_inputs"]),
    ("guard-marks-before-checking", "algebra.py",
     "    if symbol._guarded:\n        return\n",
     "    if symbol._guarded:\n        return\n    symbol._guarded = True\n",
     ["tests/test_symbols.py::test_a_symbol_that_fails_the_guard_fails_it_again"]),
    ("solve-shares-the-rows-of-a", "linalg.py",
     "rows = {r: dict(row) for r, row in matrix._rows.items()}", "rows = dict(matrix._rows)",
     ["tests/test_linalg.py::test_solve_round_trips_consistent_systems",
      "tests/test_linalg.py::test_hilbert_matrix_exactness"]),
    ("extension-rhs-sign", "symbols.py",
     "linalg.axpy(flat, x, kernel[f])", "linalg.axpy(flat, -x, kernel[f])",
     ["tests/test_symbols.py::test_custom_g0_grading_element_from_top_block",
      "tests/test_symbols.py::test_custom_g0_round_trips_the_top_blocks_of_every_derivation"]),
    ("extension-reads-the-least-column", "symbols.py",
     "max(v)", "min(v)",
     ["tests/test_symbols.py::test_custom_g0_grading_element_from_top_block",
      "tests/test_symbols.py::test_custom_g0_round_trips_the_top_blocks_of_every_derivation"]),
    ("extension-without-reconstruction", "symbols.py",
     "if {c: x for c, x in flat.items() if c >= off} != top:", "if False:",
     ["tests/test_symbols.py::test_top_block_without_extension",
      "tests/test_symbols.py::test_first_block_that_does_not_extend_is_reported_first"]),
    ("extension-eliminates-per-block", "symbols.py",
     "            if kernel is None:\n", "            if True:\n",
     ["tests/test_symbols.py::test_custom_g0_eliminates_each_degree_once"]),
    ("solve-without-certificate", "linalg.py",
     "if _certify(matrix, [(x, b)]) is not None:", "if False:",
     ["tests/test_linalg.py::test_self_checks_raise_on_corrupted_elimination",
      "tests/test_linalg.py::test_certificate_sees_a_right_hand_side_in_a_zero_row"]),
    ("rref-stops-one-pivot-early", "linalg.py",
     "if len(reduced) == cols:", "if len(reduced) == cols - 1:",
     ["tests/test_linalg.py::test_rref_stop_at_full_column_rank_changes_nothing",
      "tests/test_linalg.py::test_rref_matches_dense_and_sympy_oracles"]),
    ("rref-back-substitution-skipped", "linalg.py",
     "    for p in reversed(pivots):\n", "    for p in ():\n",
     ["tests/test_linalg.py::test_rref_matches_the_gauss_jordan_oracle",
      "tests/test_linalg.py::test_rref_matches_the_gauss_jordan_oracle_on_corpus_and_perfbench"]),
    ("rref-back-substitution-ascending", "linalg.py",
     "    for p in reversed(pivots):\n", "    for p in pivots:\n",
     ["tests/test_linalg.py::test_rref_matches_the_gauss_jordan_oracle"]),
    ("kernel-wrong-scale", "linalg.py",
     "scale = math.lcm(*[d for _, _, d in entries])", "scale = math.gcd(*[d for _, _, d in entries])",
     ["tests/test_linalg.py::test_kernel_vectors_are_positive_multiples_of_the_nullspace"]),
    ("kernel-certificate-skipped", "linalg.py",
     "        if failed is not None:\n", "        if False:\n",
     ["tests/test_linalg.py::test_self_checks_raise_on_corrupted_elimination",
      "tests/test_prolongation.py::test_kernel_certificate_failure_names_its_route_degree_and_free_column"]),
    ("rref-int-rows-shared", "linalg.py",
     "            row = row.copy()\n", "            pass\n",
     ["tests/test_linalg.py::test_rref_matches_the_rref_with_helper_calls",
      "tests/test_linalg.py::test_integral_callers_leave_an_all_int_table_unchanged"]),
    ("certify-skips-a-single-pair", "linalg.py",
     "if not pairs:", "if len(pairs) < 2:",
     ["tests/test_linalg.py::test_self_checks_raise_on_corrupted_elimination",
      "tests/test_linalg.py::test_certificate_sees_a_right_hand_side_in_a_zero_row"]),
    ("express-without-certificate", "linalg.py",
     "if image == {c: scale * value for c, value in t.items()}:", "if True:",
     ["tests/test_linalg.py::test_self_checks_raise_on_corrupted_elimination"]),
    ("leibniz-check-partner-orientation", "algebra.py",
     "partners[b].append((a, -1, terms))", "partners[b].append((a, 1, terms))",
     ["tests/test_algebra.py::test_derivation_violation_matches_dense_reference",
      "tests/test_algebra.py::test_sparse_leibniz_witness_matches_dense_reference_on_perturbed_maps"]),
    ("commutator-second-term-sign", "algebra.py",
     "flat[base + e] = flat.get(base + e, 0) - x * y", "flat[base + e] = flat.get(base + e, 0) + x * y",
     ["tests/test_algebra.py::test_sparse_commutator_matches_dense_reference",
      "tests/test_algebra.py::test_sparse_commutator_of_perturbed_maps_matches_dense_reference"]),
    ("killing-wrong-scale", "diagnostics.py",
     "linalg._ratio(t, scale * scale)", "linalg._ratio(t, scale)",
     ["tests/test_diagnostics.py::test_killing_form_matches_fraction_traces_on_terminated_runs"]),
    ("jacobi-cyclic-term-sign", "algebra.py",
     "acc.get(key + e, 0) - v * u", "acc.get(key + e, 0) + v * u",
     ["tests/test_algebra.py::test_jacobi_witness_matches_copying_reference_on_random_tables"]),
    ("jacobi-keeps-y-equal-x", "algebra.py",
     "if y <= p or y == x:", "if y <= p:",
     ["tests/test_algebra.py::test_jacobi_witness_matches_copying_reference_on_random_tables"]),
    ("grading-witness-keeps-the-largest-pair", "algebra.py",
     "grading_witness = (algebra.basis[q]", "grading_witness = grading_witness or (algebra.basis[q]",
     ["tests/test_algebra.py::test_jacobi_witness_matches_copying_reference_on_random_tables"]),
    ("killing-partner-orientation", "diagnostics.py",
     "partner = groups.get((y, x))", "partner = groups.get((x, y))",
     ["tests/test_diagnostics.py::test_killing_form_matches_fraction_traces_on_terminated_runs"]),
    ("center-drops-a-distinct-row", "diagnostics.py",
     "list(distinct.values())", "list(distinct.values())[1:]",
     ["tests/test_diagnostics.py::test_center_matches_the_full_stack_on_random_tables",
      "tests/test_diagnostics.py::test_center_matches_the_full_stack_on_corpus_and_perfbench"]),
    ("center-rows-keyed-unsorted", "diagnostics.py",
     "        for b in sorted(row):\n            for c, value in row[b].items():",
     "        for b in row:\n            for c, value in row[b].items():",
     ["tests/test_diagnostics.py::test_center_matches_the_full_stack_on_random_tables"]),
    ("signature-component-stops-growing", "diagnostics.py",
     "stack.append(j)", "block.append(j)",
     ["tests/test_diagnostics.py::test_signature_of_permuted_direct_sums"]),
    ("writer-item-separator", "specfile.py",
     'sep, comma = "[" + inner, "," + inner', 'sep, comma = "[" + inner, ", " + inner',
     ["tests/test_cli.py::test_dump_document_writes_the_bytes_of_json_dumps"]),
    ("writer-table-term-separator", "specfile.py",
     'between = f"{term}],{term}[{item}"', 'between = f"{term}], {term}[{item}"',
     ["tests/test_cli.py::test_dump_document_writes_algebras_as_their_bracket_entries",
      "tests/test_cli.py::test_dump_document_writes_every_engine_table_as_its_bracket_entries"]),
    ("writer-rows-walked-unsorted", "specfile.py",
     "            for b in sorted(row):\n                if len(parts) > 1024:",
     "            for b in row:\n                if len(parts) > 1024:",
     ["tests/test_cli.py::test_reports_match_benchmark_golden_digests",
      "tests/test_cli.py::test_prolong_report_does_not_depend_on_the_order_brackets_are_listed",
      "tests/test_cli.py::test_dump_document_writes_the_bytes_of_the_tuple_sorted_writer"]),
    ("writer-coefficient-cache-unquoted", "specfile.py",
     "text = self[value] = _encode(format_rational(value))",
     "text = _encode(format_rational(value))\n        self[value] = format_rational(value)",
     ["tests/test_cli.py::test_dump_document_writes_algebras_as_their_bracket_entries",
      "tests/test_cli.py::test_dump_document_writes_every_engine_table_as_its_bracket_entries"]),
    ("writer-int-list-separator", "specfile.py",
     'joint = "," + inner', 'joint = ", " + inner',
     ["tests/test_cli.py::test_dump_document_writes_algebras_as_their_bracket_entries"]),
)


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> tuple[str, str]:
    """The outcome, 'caught' (a test failed), 'SURVIVED', 'ERROR' (pytest
    could not run the tests) or 'STALE' (the old text does not occur
    exactly once), and pytest's summary line."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "gradedlie" / path
        text = target.read_text()
        if text.count(old) != 1:
            return "STALE", f"{text.count(old)} occurrences of the old text"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        summary = (done.stdout.strip().splitlines() or [""])[-1]
        return {0: "SURVIVED", 1: "caught"}.get(done.returncode, "ERROR"), summary


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    for name, path, old, new, tests in MUTANTS:
        if names and name not in names:
            continue
        outcome, summary = run_mutant(path, old, new, tests)
        bad += outcome != "caught"
        print(f"{outcome:8} {name} ({path}): {summary}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
