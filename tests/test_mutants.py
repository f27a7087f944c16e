"""Checks on the engine's source: the mutant list of scripts/mutants.py
stays applicable to the code it mutates, and no self-check is an assert.

Running the mutants takes a pytest run each; this only checks that every
entry still says something: its old text occurs exactly once in its file,
and every test it names is a test function of this suite.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants_script", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _mutants()


def _test_functions(path):
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


@pytest.mark.parametrize("name, path, old, new, tests", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_not_stale(name, path, old, new, tests):
    occurrences = (ROOT / "src" / "gradedlie" / path).read_text().count(old)
    assert occurrences == 1, f"{occurrences} occurrences of the old text in {path}"
    for test_id in tests:
        file, function = test_id.split("::")
        assert function.split("[")[0] in _test_functions(ROOT / file), test_id


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "gradedlie").glob("*.py")), ids=lambda p: p.name)
def test_engine_has_no_assert_statement(path):
    # python -O removes asserts, so a self-check must raise instead
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements at lines {found}"
