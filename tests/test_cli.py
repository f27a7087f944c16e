import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradedlie import BasisElement, GradedLieAlgebra, cli, free_nilpotent, linalg, prolongation, specfile
from gradedlie.specfile import SpecError, format_rational, parse_rational

from conftest import pairs

F = Fraction


def test_parse_rational_accepts_ints_and_strings():
    assert parse_rational(3, "x") == F(3)
    assert parse_rational("-7", "x") == F(-7)
    assert parse_rational("3/2", "x") == F(3, 2)
    assert parse_rational("-3/2", "x") == F(-3, 2)


def test_parse_rational_keeps_integral_values_as_ints():
    for value, number in (("4/2", 2), (3, 3), ("-7", -7), ("0/5", 0)):
        parsed = parse_rational(value, "x")
        assert type(parsed) is int and parsed == number
    assert type(parse_rational("3/2", "x")) is F


@pytest.mark.parametrize("bad", [1.5, "1.5", "3/0", "a", True, None, "1/ 2", "\u0661", "-\u0663",
                                 "\xa01", " 7/2 ", "\n3\n"])
def test_parse_rational_rejects(bad):
    with pytest.raises(SpecError):
        parse_rational(bad, "x")


def test_format_round_trip():
    for value in (F(3), F(-7, 2), F(0), F(22, 7)):
        assert parse_rational(format_rational(value), "x") == value


def test_format_rational_writes_any_number_of_digits():
    # Python refuses str() of an int over 4300 digits; lift that limit here only
    # to get the reference text
    sevens = 7 * (10**9001 - 1) // 9  # 9001 sevens
    values = [F(sevens), F(-sevens, 3), F(1, sevens), F(10**5000), F(-(10**5000) - 1),
              F(10**12000 + 7, 3**4000), F(2**20000 - 1, 5), F(-1, 10**4300), F(10**4299)]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(value) for value in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [format_rational(value) for value in values] == expected


def test_report_numbers_beyond_the_digit_limit_are_written(corpus_dir, tmp_path):
    # every spec number is under the limit, but the report's are not
    doc = json.loads((corpus_dir / "ode2-point.json").read_text())
    doc["g0"]["lines"] = [["1/" + "7" * 2500, "1"], ["1", "3" * 2200 + "/" + "1" * 2200]]
    spec, out = tmp_path / "long.json", tmp_path / "report.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["prolong", str(spec), "--out", str(out)]) == 0
    coeffs = [c for e in json.loads(out.read_text())["structure_constants"] for _, c in e["terms"]]
    assert max(map(len, coeffs)) > 4300
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        assert all(str(F(coeff)) == coeff for coeff in coeffs)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "preset", ["free:2", "abelian:2:3", "heisenberg:0", "free:0:3", "spiral:4", "free:2:0",
               "abelian:\u0663", "heisenberg:1\n"]
)
def test_bad_presets_are_parse_errors(preset):
    doc = {
        "schema_version": 1,
        "name": "p",
        "algebra": {"preset": preset},
        "g0": {"mode": "full"},
    }
    spec = specfile.parse_spec(doc)
    with pytest.raises(SpecError):
        specfile.build_symbol(spec)


def test_presets_build():
    for preset, dims in [
        ("heisenberg:2", {-1: 4, -2: 1}),
        ("abelian:3", {-1: 3}),
        ("free:2:3", {-1: 2, -2: 1, -3: 2}),
    ]:
        doc = {
            "schema_version": 1,
            "name": "p",
            "algebra": {"preset": preset},
            "g0": {"mode": "full"},
        }
        symbol = specfile.build_symbol(specfile.parse_spec(doc))
        assert symbol.dims_by_degree() == dims


def test_load_and_build_corpus_spec(corpus_dir):
    text = (corpus_dir / "ode2-point.json").read_text()
    spec = specfile.parse_spec(specfile.load_document(text))
    symbol = specfile.build_symbol(spec)
    assert symbol.dims_by_degree() == {-1: 2, -2: 1}
    g0 = specfile.build_g0(spec, symbol)
    assert g0.dim == 2
    assert spec.max_degree == 10


def test_check_passes_on_every_corpus_file(corpus_dir, capsys):
    for path in sorted(corpus_dir.glob("*.json")):
        assert cli.main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ode2-point: ok" in out


def test_check_rejects_grading_violation(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "name": "bad",
        "algebra": {
            "basis": [{"name": "A", "degree": -1}, {"name": "B", "degree": -1}],
            "brackets": [{"left": "A", "right": "B", "terms": [["A", 1]]}],
        },
        "g0": {"mode": "full"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    assert "grading" in capsys.readouterr().err


def test_check_rejects_non_derivation_span(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "name": "bad-span",
        "algebra": {
            "basis": [
                {"name": "X1", "degree": -1},
                {"name": "X2", "degree": -1},
                {"name": "X3", "degree": -2},
            ],
            "brackets": [{"left": "X1", "right": "X2", "terms": [["X3", 1]]}],
        },
        "g0": {"mode": "span", "maps": [[[1, 0, 0], [0, 0, 0], [0, 0, 0]]]},
    }
    path = tmp_path / "bad-span.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "X1" in err and "X2" in err


def test_check_names_the_span_map_as_given(tmp_path, capsys):
    # the second map repeats the first and is dropped; the third is no derivation
    doc = {
        "schema_version": 1,
        "name": "span-numbering",
        "algebra": {"preset": "heisenberg:1"},
        "g0": {"mode": "span", "maps": [[[1, 0, 0], [0, 1, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                                         [[1, 0, 0], [0, 0, 0], [0, 0, 0]]]},
    }
    path = tmp_path / "span-numbering.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    assert "validation failure: map 3 is not a derivation" in capsys.readouterr().err


def test_check_rejects_non_fundamental_symbol(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "name": "split",
        "algebra": {
            "basis": [{"name": "A", "degree": -1}, {"name": "B", "degree": -2}],
            "brackets": [],
        },
        "g0": {"mode": "span", "maps": []},
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 1
    assert "fundamental" in capsys.readouterr().err


def ungraded_spec(g0):
    """A spec whose symbol is fundamental but ungraded: [X1, X2] = 2 X2."""
    return {
        "schema_version": 1,
        "name": "ungraded",
        "algebra": {
            "basis": [{"name": "X1", "degree": -1}, {"name": "X2", "degree": -1}, {"name": "Z", "degree": -2}],
            "brackets": [{"left": "X1", "right": "X2", "terms": [["X2", 2]]}],
        },
        "g0": g0,
    }


def test_check_rejects_an_ungraded_symbol_on_one_line(tmp_path, capsys):
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps(ungraded_spec({"mode": "full"})))
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "validation failure: symbol is not a valid graded Lie algebra: grading violated at pair ('X1', 'X2'); "
        "negative part is not nilpotent"]


def test_check_reports_a_malformed_g0_payload_before_an_invalid_symbol(tmp_path, capsys):
    # build_g0 checks the payload against the symbol's shape before the
    # builder it reaches validates the symbol
    path = tmp_path / "ungraded-q.json"
    path.write_text(json.dumps(ungraded_spec({"mode": "orthogonal", "q": [[1]]})))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "parse error: g0.q: q must be square of the degree -1 dimension"]


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1,')
    assert cli.main(["check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: invalid JSON: nested too deeply\n"


def test_unknown_name_is_a_parse_error(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "name": "unknown-name",
        "algebra": {
            "basis": [{"name": "A", "degree": -1}],
            "brackets": [{"left": "A", "right": "Z", "terms": [["A", 1]]}],
        },
        "g0": {"mode": "full"},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 2
    assert "Z" in capsys.readouterr().err


def test_float_coefficient_is_a_parse_error(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "floats",
        "algebra": {
            "basis": [{"name": "A", "degree": -1}, {"name": "B", "degree": -1}],
            "brackets": [{"left": "A", "right": "B", "terms": [["A", 0.5]]}],
        },
        "g0": {"mode": "full"},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", str(path)]) == 2


def test_non_list_line_vector_is_a_parse_error(corpus_dir, tmp_path, capsys):
    doc = json.loads((corpus_dir / "ode2-point.json").read_text())
    doc["g0"]["lines"] = [[1, 0], 5]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["prolong", str(path)]) == 2
    assert "g0.lines[1]" in capsys.readouterr().err


def _with(doc, path, value):
    """doc with value set at path (appended when the index is one past a list's end)."""
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, list) and path[-1] == len(node):
        node.append(value)
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, message", [
    ((), [1], "the document must be a JSON object"),
    (("schema_version",), 2, "document: unsupported schema_version 2"),
    (("algebra", "basis"), [], "algebra.basis: the basis must not be empty"),
    (("algebra", "basis", 2, "degree"), 0, "algebra.basis[2]: symbol degrees must be negative"),
    (("algebra", "basis", 1, "name"), "X1", "algebra.basis: duplicate basis name 'X1'"),
    (("algebra", "brackets", 1), 5, "algebra.brackets[1]: bracket entries must be objects"),
    (("algebra", "brackets", 0, "terms", 0), ["X3"], "algebra.brackets[0].terms[0]: terms must be"),
    (("algebra", "brackets", 0, "right"), "X1", "algebra.brackets[0]: left and right must differ"),
    (("algebra", "brackets", 1), {"left": "X2", "right": "X1", "terms": []},
     "algebra.brackets[1]: bracket for pair (X2, X1) given twice"),
    (("algebra", "brackets", 0, "terms", 0, 0), "Y", "algebra.brackets[0]: unknown basis name 'Y'"),
    (("g0", "mode"), "affine", "g0: unknown g0 mode 'affine'"),
    (("g0", "lines", 2), [1, 1], "g0.lines: exactly two line vectors required"),
    (("g0", "lines"), [[1, 0, 0], [0, 1, 0]], "g0.lines: line vectors must match the degree -1 dimension"),
    (("g0",), {"mode": "span", "maps": [[]]}, "g0.maps[0]: expected a non-empty matrix"),
    (("options", "max_degree"), 0, "options: max_degree must be at least 1"),
], ids=["not-an-object", "schema-version", "empty-basis", "degree-zero", "duplicate-name",
        "bracket-not-an-object", "term-not-a-pair", "left-is-right", "pair-given-twice", "unknown-term",
        "g0-mode", "three-lines", "line-length", "empty-map", "max-degree-zero"])
def test_spec_errors_name_their_place_and_exit_two(corpus_dir, tmp_path, capsys, path, value, message):
    doc = _with(json.loads((corpus_dir / "ode2-point.json").read_text()), path, value)
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    for command in ("check", "prolong"):
        assert cli.main([command, str(spec)]) == 2
        captured = capsys.readouterr()
        assert f"parse error: {message}" in captured.err and not captured.out


def test_a_bracket_listed_right_before_left_changes_sign():
    doc = {
        "schema_version": 1,
        "name": "flipped",
        "algebra": {
            "basis": [{"name": "X1", "degree": -1}, {"name": "X2", "degree": -1}, {"name": "X3", "degree": -2}],
            "brackets": [{"left": "X2", "right": "X1", "terms": [["X3", "3/2"]]}],
        },
        "g0": {"mode": "full"},
    }
    symbol = specfile.build_symbol(specfile.parse_spec(doc))
    assert symbol.bracket_basis(0, 1) == {2: F(-3, 2)}
    assert symbol.bracket_basis(1, 0) == {2: F(3, 2)}


@pytest.mark.parametrize("path", [
    ("schema_version",),
    ("options", "max_degree"),
    ("algebra", "basis", 0, "degree"),
])
def test_bool_is_not_an_integer(corpus_dir, tmp_path, capsys, path):
    doc = json.loads((corpus_dir / "ode2-point.json").read_text())
    doc.setdefault("options", {})
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = True
    spec = tmp_path / "doc.json"
    spec.write_text(json.dumps(doc))
    assert cli.main(["prolong", str(spec), "--format", "table"]) == 2
    captured = capsys.readouterr()
    assert f"field {path[-1]!r} has the wrong type" in captured.err
    assert "True" not in captured.out


@pytest.mark.parametrize("command", ["prolong", "check"])
@pytest.mark.parametrize("case", ["json-integer", "rational-string"])
def test_over_long_numbers_are_parse_errors(corpus_dir, tmp_path, capsys, command, case):
    # Python refuses to turn more than 4300 digits into an int
    digits = "7" * 5000
    doc = json.loads((corpus_dir / "ode2-point.json").read_text())
    if case == "json-integer":
        text = json.dumps(doc).replace('"max_degree": 10', f'"max_degree": {digits}')
        where = "invalid JSON"
    else:
        doc["g0"]["lines"][1][0] = f"{digits}/3"
        text = json.dumps(doc)
        where = "g0.lines[1][0]"
    spec = tmp_path / "doc.json"
    spec.write_text(text)
    assert cli.main([command, str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"parse error: {where}: a number has more than 4300 digits"]


def test_over_long_message_names_the_limit_in_force():
    digits = "7" * 1500
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        with pytest.raises(SpecError, match="^g0: a number has more than 1000 digits$"):
            parse_rational(f"{digits}/3", "g0")
        with pytest.raises(SpecError, match="^invalid JSON: a number has more than 1000 digits$"):
            specfile.load_document(f'{{"max_degree": {digits}}}')
    finally:
        sys.set_int_max_str_digits(limit)


def test_import_leaves_the_dataclasses_machinery_unloaded():
    # dataclasses and what it imports (inspect, ast, dis, tokenize) lengthen every command's start-up
    code = "import sys, gradedlie.cli; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(done.stdout.split())
    crept = [name for name in ("dataclasses", "inspect", "ast") if name in loaded]
    assert crept == [], f"importing gradedlie.cli loads {', '.join(crept)}"



SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), COLUMNS="80")
FRESH_MAIN = "import sys; from gradedlie.cli import main; sys.exit(main(sys.argv[1:]))"


def _in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_calls_in_one_process_match_fresh_interpreters(corpus_dir, tmp_path, monkeypatch):
    # the parser is reused across calls: no option, error or exit code may
    # carry over from one call to the next
    monkeypatch.setenv("COLUMNS", "80")  # usage text is wrapped to the terminal width
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "schema_version": 1, "name": "bad",
        "algebra": {"basis": [{"name": "A", "degree": -1}, {"name": "B", "degree": -1}],
                    "brackets": [{"left": "A", "right": "B", "terms": [["A", 1]]}]},
        "g0": {"mode": "full"},
    }))
    files = [str(path) for path in sorted(corpus_dir.glob("*.json"))]
    calls = []
    for i, path in enumerate(files):
        calls.append(["prolong", path, "--format", "table", "--max-degree", "2"])
        calls.append(["prolong", path])
        calls.append([["prolong", path, "--format", "xml"], ["check", str(broken)],
                      ["prolong", str(invalid)], ["check", path], ["free", "2", "2"],
                      ["prolong", "--help"], ["prolong"], ["prolong", path, "--max-degree", "0"]][i])
    codes = set()
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], env=SRC_ENV,
                               capture_output=True, text=True, timeout=120)
        ours = _in_process(argv)
        assert ours == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.add(ours[0])
    assert codes == {0, 1, 2}


def test_a_rebound_command_function_is_called(corpus_dir, monkeypatch, capsys):
    assert cli.main(["check", str(corpus_dir / "ode2-point.json")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_prolong", lambda args: seen.append(args.file) or 7)
    assert cli.main(["prolong", "elsewhere.json"]) == 7
    assert seen == ["elsewhere.json"]
    assert cli._build_parser.cache_info().currsize == 1


def test_import_leaves_the_parser_unbuilt():
    # setup time is import time: the parser is built by the first main call
    code = "import gradedlie.cli as cli; print(cli._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "0\n"

CORPUS_DOCS = {
    path.stem: json.loads(path.read_text())
    for path in sorted((Path(__file__).resolve().parents[1] / "corpus").glob("*.json"))
}
MUTANT_VALUES = [None, -1, 1.5, "x", [], {}, True, "1/0", [[1, 0], [0, 1]]]


def _paths(node, prefix=()):
    """Every key or index path inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(CORPUS_DOCS[draw(st.sampled_from(sorted(CORPUS_DOCS)))]))
    *parents, last = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in parents:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[last]
    else:
        node[last] = draw(st.sampled_from(MUTANT_VALUES))
    # keep every run short: cap the cutoff at 2 wherever the document sets it
    options = doc.setdefault("options", {})
    if isinstance(options, dict):
        cutoff = options.get("max_degree", 10)
        if type(cutoff) is int and cutoff > 2:
            options["max_degree"] = 2
    return doc


@settings(max_examples=100, deadline=None)
@given(mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["prolong", str(path)])
    assert code in (0, 1, 2, 3)


def test_free_round_trips_through_check(tmp_path):
    out = tmp_path / "free-2-3.json"
    assert cli.main(["free", "2", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["algebra"]["basis"]) == 5
    assert cli.main(["check", str(out)]) == 0


def test_free_small_cases(tmp_path):
    out = tmp_path / "doc.json"
    assert cli.main(["free", "2", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    degrees = [e["degree"] for e in doc["algebra"]["basis"]]
    assert sorted(degrees) == [-2, -1, -1]
    assert cli.main(["free", "1", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["algebra"]["basis"]) == 1


def test_free_rejects_bad_parameters():
    with pytest.raises(SystemExit) as exc:
        cli.main(["free", "0", "3"])
    assert exc.value.code == 2
    with pytest.raises(ValueError, match="need r >= 1 and mu >= 1"):
        specfile.free_spec_document(2, 0)


def test_prolong_report_structure(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["terminated"] is True
    assert doc["vanishing_degree"] == 3
    assert doc["total_dimension"] == 8
    assert doc["degrees"] == [-2, -1, 0, 1, 2]
    assert doc["dimensions"] == [1, 2, 2, 2, 1]
    assert doc["diagnostics"]["killing_signature"] == [5, 3]
    assert doc["validity"]["g0_dimension"] == 2
    norm0 = doc["normalization"][0]
    assert (norm0["dim_target"], norm0["dim_image"], norm0["dim_kernel"]) == (4, 4, 2)
    assert norm0["complement_indices"] == []


def test_reports_are_byte_identical_across_corpus(corpus_dir, tmp_path):
    for path in sorted(corpus_dir.glob("*.json")):
        first = tmp_path / f"{path.stem}-a.json"
        second = tmp_path / f"{path.stem}-b.json"
        cli.main(["prolong", str(path), "--out", str(first)])
        cli.main(["prolong", str(path), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes(), path.name
    doc = json.loads((tmp_path / "cartan-25-a.json").read_text())
    assert doc["total_dimension"] == 14
    assert doc["diagnostics"]["killing_signature"] == [8, 6]


def test_reports_match_benchmark_golden_digests(corpus_dir):
    # the digests were made from the seed code, so this pins every report byte
    golden = json.loads((corpus_dir.parent / "perfbench" / "golden.json").read_text())
    for path in sorted(corpus_dir.glob("*.json")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["prolong", str(path)]) == 0, path.name
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == golden[path.stem], path.name


# sha256 of the `gradedlie prolong` report of free:2:3 with the four gl(2)
# unit blocks in span mode, each degree -1 block extended to a derivation;
# made with the column-split solve span mode used before it read extensions
# off the derivation kernel, so this pins that both give every report byte
SPAN_REPORT_SHA256 = "fe9cc1e14fa6448a4e936d2a72331e5c220c514405131191f40d5e9b7bac0ab1"


def test_span_mode_report_matches_its_golden_digest(tmp_path):
    units = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    doc = {"schema_version": 1, "name": "free23-span", "algebra": {"preset": "free:2:3"},
           "g0": {"mode": "span", "maps": units}, "options": {"max_degree": 10}}
    path = tmp_path / "free23-span.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["prolong", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert report["terminated"] and report["total_dimension"] == 14
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SPAN_REPORT_SHA256


def test_prolong_report_does_not_depend_on_the_order_brackets_are_listed(tmp_path):
    # free:2:3 spelled out, Y = [X1, X2]: listing [X1, Y] before [X1, X2]
    # fills the symbol's row of X1 with its keys in descending order
    def bracket(left, right, target):
        return {"left": left, "right": right, "terms": [[target, "1"]]}

    basis = [{"name": name, "degree": degree}
             for name, degree in (("X1", -1), ("X2", -1), ("Y", -2), ("Z1", -3), ("Z2", -3))]
    ascending = [bracket("X1", "X2", "Y"), bracket("X1", "Y", "Z1"), bracket("X2", "Y", "Z2")]
    descending = [ascending[1], ascending[0], ascending[2]]
    reports = []
    for listed in (ascending, descending):
        path = tmp_path / "free23-listed.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "free23-listed",
                                    "algebra": {"basis": basis, "brackets": listed}, "g0": {"mode": "full"}}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["prolong", str(path)]) == 0
        reports.append(out.getvalue())
    assert list(specfile.build_symbol(specfile.parse_spec(json.loads(path.read_text()))).rows[0]) == [2, 1]
    assert json.loads(reports[0])["total_dimension"] == 14
    assert reports[1] == reports[0]


def _tracer(corpus_dir):
    path = corpus_dir.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_benchmark_names_resolve(corpus_dir):
    # the traced benchmark rebinds these module attributes by name, so
    # removing or renaming one breaks the traced run
    tracer = _tracer(corpus_dir)
    missing = [
        f"{module}.{name}"
        for module, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gradedlie.{module}"), name, None))
    ]
    assert missing == []


def test_traced_report_runs_under_the_benchmark_recorder(corpus_dir):
    # the recorder also reads attributes of what the traced functions
    # return: the unpacked rref result, the Spencer matrix, the
    # express_in_basis basis
    recorder = _tracer(corpus_dir).Recorder()
    with recorder.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["prolong", str(corpus_dir / "cartan-25.json")]) == 0
    assert recorder.spencer and recorder.matrices and recorder.express_rref
    assert recorder.metrics(1)["normalization.build_spencer.calls"][0] == len(recorder.spencer)


def test_report_rationals_reparse_exactly(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    for entry in doc["structure_constants"]:
        for _, coeff in entry["terms"]:
            value = parse_rational(coeff, "report")
            assert format_rational(value) == coeff


def test_table_format(corpus_dir, capsys):
    assert cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "total dimension: 8" in out
    assert "signature (5, 3)" in out
    spec = str(corpus_dir / "abelian-gl-1.json")
    assert cli.main(["prolong", spec, "--max-degree", "2", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "terminated: no (truncated at max degree 2)" in out and "total dimension" not in out


def test_truncated_report_has_no_diagnostics(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    cli.main(["prolong", str(corpus_dir / "abelian-gl-1.json"), "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["terminated"] is False
    assert doc["diagnostics"] is None
    assert doc["total_dimension"] is None


def test_max_degree_flag_overrides_file_option(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    cli.main([
        "prolong", str(corpus_dir / "abelian-gl-1.json"),
        "--max-degree", "4", "--out", str(out),
    ])
    doc = json.loads(out.read_text())
    assert doc["degrees"] == [-1, 0, 1, 2, 3, 4]


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "prolong-out", "free-out"])
def test_file_errors_are_one_line_exit_two(corpus_dir, tmp_path, capsys, case):
    spec = str(corpus_dir / "ode2-point.json")
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    unwritable = str(tmp_path / "missing-dir" / "out.json")
    argv = {
        "missing": ["check", str(tmp_path / "missing.json")],
        "directory": ["check", str(corpus_dir)],
        "not-utf8": ["check", str(undecodable)],
        "prolong-out": ["prolong", spec, "--out", unwritable],
        "free-out": ["free", "2", "2", "--out", unwritable],
    }[case]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_internal_failure_maps_to_exit_three(corpus_dir, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise prolongation.InternalConsistencyError("synthetic")

    monkeypatch.setattr(cli.prolongation, "universal_prolongation", boom)
    assert cli.main(["prolong", str(corpus_dir / "ode2-point.json")]) == 3
    assert "synthetic" in capsys.readouterr().err


def test_unwritable_out_fails_before_computing(corpus_dir, tmp_path, monkeypatch, capsys):
    def computed(*args, **kwargs):
        raise AssertionError("the prolongation ran before the output path was checked")

    monkeypatch.setattr(cli.prolongation, "universal_prolongation", computed)
    for out in (str(tmp_path / "missing-dir" / "out.json"), str(tmp_path)):
        assert cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("file error:") and out in err
        assert len(err.splitlines()) == 1


def test_free_nilpotent_escape_is_an_internal_failure(monkeypatch, capsys):
    # every commutator reported outside the Hall span
    monkeypatch.setattr(linalg, "express_in_basis", lambda basis, targets: [None for _ in targets])
    assert cli.main(["free", "2", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure:")
    assert "escaped the Hall span" in captured.err
    assert len(captured.err.splitlines()) == 1


_texts = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001d11e'),
                           st.characters()), max_size=6)
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**200).map(lambda n: -n),
                     st.integers(2**64, 2**200), _texts)


def _documents(depth):
    if depth == 0:
        return _scalars
    inner = _documents(depth - 1)
    return st.one_of(_scalars, st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                     st.dictionaries(_texts, inner, max_size=3))


def _dumped(doc) -> str:
    stream = io.StringIO()
    specfile.dump_document(doc, stream)
    return stream.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_texts, _documents(3), max_size=5))
def test_dump_document_writes_the_bytes_of_json_dumps(doc):
    assert _dumped(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_document_streams_any_iterable_as_a_list():
    doc = {"pairs": [(i, str(i)) for i in range(5)], "empty": [], "nested": [[], {}, [[]]]}
    lazy = dict(doc, pairs=(pair for pair in doc["pairs"]), empty=iter(()))
    assert _dumped(lazy) == _dumped(doc) == json.dumps(doc, indent=2) + "\n"


def test_dump_document_flushes_a_large_document_in_batches():
    # the entries and the table are each over a fifth of the output
    basis = [BasisElement(f"e{i}", -1) for i in range(300)]
    table = {(a, b): {(a + b) % 300: F(a - b, 7), a: 2} for a in range(300) for b in range(a + 1, min(a + 70, 300))}
    doc = {"entries": [{"left": f"e{i}", "terms": [[f"e{i + 1}", "-1/2"], [f"e{i}", i]]} for i in range(20000)],
           "table": GradedLieAlgebra(basis, table), "indices": list(range(20000))}
    writes = []

    class Stream(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    stream = Stream()
    specfile.dump_document(doc, stream)
    assert stream.getvalue() == json.dumps(_plain(doc), indent=2) + "\n"
    assert len(writes) > 10 and max(writes) < len(stream.getvalue()) / 5


def bracket_entries(algebra):
    """The {"left", "right", "terms"} entry of each bracket pair of the table,
    built the slow way: what dump_document writes for an algebra."""
    names = [e.name for e in algebra.basis]
    return [{"left": names[a], "right": names[b],
             "terms": [[names[c], format_rational(v)] for c, v in sorted(algebra.bracket_basis(a, b).items())]}
            for a, b in pairs(algebra)]


def _plain(doc):
    """doc with each algebra replaced by its bracket entries, for json.dumps."""
    if isinstance(doc, GradedLieAlgebra):
        return bracket_entries(doc)
    if isinstance(doc, dict):
        return {key: _plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(value) for value in doc]
    return doc


_ints = st.one_of(st.integers(), st.integers(2**64, 2**200), st.integers(2**64, 2**200).map(lambda n: -n))
_coefficients = st.one_of(st.integers(-3, 3), _ints, st.fractions(max_denominator=10**30))


@st.composite
def _algebras(draw):
    """Random tables on random names; the writer does not read the grading,
    so the degrees and brackets need not make a Lie algebra."""
    names = draw(st.lists(_texts, min_size=1, max_size=5, unique=True))
    n = len(names)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), _coefficients, max_size=3)) for pair in chosen}
    degrees = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return GradedLieAlgebra([BasisElement(*e) for e in zip(names, degrees)], table)


_int_lists = st.one_of(st.lists(_ints, max_size=6), st.lists(st.one_of(_ints, st.booleans()), max_size=6))


def _fast_documents(depth):
    leaves = st.one_of(_scalars, _algebras(), _int_lists, _int_lists.map(tuple))
    if depth == 0:
        return leaves
    inner = _fast_documents(depth - 1)
    return st.one_of(leaves, st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
                     st.dictionaries(_texts, inner, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_texts, _fast_documents(2), max_size=4))
@example({"empty": GradedLieAlgebra([BasisElement("x", -1), BasisElement("y", -1)], {})})
@example({"one": GradedLieAlgebra([BasisElement('"x"', -1), BasisElement("\u00e9\n", -1), BasisElement("z", -2)],
                                  {(0, 1): {2: F(-1, 2)}}),
          "ints": [3, -(2**70), True, 0], "more": (1, 2**65, -7)})
def test_dump_document_writes_algebras_as_their_bracket_entries(doc):
    assert _dumped(doc) == json.dumps(_plain(doc), indent=2) + "\n"


def tuple_sorted_entries(algebra, indent):
    """The bracket entries of `algebra` as the writer wrote them from a table
    keyed by (a, b) tuples: the keys sorted, each entry one fill of a
    four-argument template, the terms sorted by basis index."""
    n = algebra.dim
    table = {(a, b): terms for a in range(n) for b in range(a + 1, n) if (terms := algebra.bracket_basis(a, b))}
    at, field, term, item = indent + "  ", indent + "    ", indent + "      ", indent + "        "
    entry = (f'%s{{{field}"left": %s,{field}"right": %s,'
             f'{field}"terms": [{term}[{item}%s{term}]{field}]{at}}}')
    between = f"{term}],{term}[{item}"
    names = [json.dumps(e.name) for e in algebra.basis]
    out, sep, comma = [], "[" + at, "," + at
    for a, b in sorted(table):
        terms = between.join(f"{names[c]},{item}{json.dumps(format_rational(v))}"
                             for c, v in sorted(table[a, b].items()))
        out.append(entry % (sep, names[a], names[b], terms))
        sep = comma
    out.append("[]" if sep is not comma else indent + "]")
    return "".join(out)


@st.composite
def _shuffled_tables(draw):
    """Random tables given in a random pair order, so a row's keys are
    inserted out of order, with multi-term brackets, Fractions and names
    that need JSON escapes."""
    names = draw(st.lists(_texts, min_size=1, max_size=6, unique=True))
    n = len(names)
    chosen = draw(st.permutations([(a, b) for a in range(n) for b in range(a + 1, n)]))
    chosen = chosen[:draw(st.integers(0, len(chosen)))]
    table = {pair: draw(st.dictionaries(st.integers(0, n - 1), _coefficients, min_size=1, max_size=4))
             for pair in chosen}
    return GradedLieAlgebra([BasisElement(name, -1) for name in names], table)


@settings(max_examples=300, deadline=None)
@given(_shuffled_tables())
@example(GradedLieAlgebra([BasisElement(name, -1) for name in ('"a"', "b\\", "\u00e9\n", "d")],
                          {(1, 3): {0: F(1, 2), 2: -1}, (0, 3): {1: 3}, (0, 2): {3: F(-7, 3), 0: 2, 1: 1}}))
def test_dump_document_writes_the_bytes_of_the_tuple_sorted_writer(algebra):
    expected = '{\n  "structure_constants": ' + tuple_sorted_entries(algebra, "\n  ") + "\n}\n"
    assert _dumped({"structure_constants": algebra}) == expected


def test_dump_document_writes_every_engine_table_as_its_bracket_entries(corpus_results, perfbench_results):
    for name, (_, symbol, _, result) in {**corpus_results, **perfbench_results}.items():
        doc = {"symbol": symbol, "structure_constants": result.algebra,
               "normalization": [rep._asdict() for rep in result.normalization]}
        assert _dumped(doc) == json.dumps(_plain(doc), indent=2) + "\n", name


@pytest.mark.parametrize("r, mu", [(2, 3), (3, 2), (2, 5)])
def test_free_writes_the_bytes_of_json_dumps(capsys, r, mu):
    symbol = free_nilpotent(r, mu)
    reference = {
        "schema_version": 1,
        "name": f"free-{r}-{mu}",
        "algebra": {
            "basis": [{"name": e.name, "degree": e.degree} for e in symbol.basis],
            "brackets": bracket_entries(symbol),
        },
        "g0": {"mode": "full"},
        "options": {"max_degree": 10},
    }
    assert cli.main(["free", str(r), str(mu)]) == 0
    assert capsys.readouterr().out == json.dumps(reference, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, 0.0, F(1, 2), {1: "x"}, object()])
def test_dump_document_rejects_what_json_would_write_differently(value):
    assert _dumped({"ok": [1, "a"]}) == json.dumps({"ok": [1, "a"]}, indent=2) + "\n"
    with pytest.raises(TypeError):
        _dumped({"ok": [1, "a"], "bad": [value]})


def test_out_file_and_stdout_are_byte_identical(corpus_dir, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["prolong", str(corpus_dir / "cartan-25.json"), "--out", str(out)]) == 0
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["prolong", str(corpus_dir / "cartan-25.json")]) == 0
    assert out.read_text() == printed.getvalue()


def test_failure_after_computing_leaves_no_out_file(corpus_dir, tmp_path, monkeypatch, capsys):
    def failing(algebra):
        raise prolongation.InternalConsistencyError("synthetic diagnostics failure")

    monkeypatch.setattr(cli.diagnostics, "fingerprint", failing)
    out = tmp_path / "report.json"
    assert cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--out", str(out)]) == 3
    assert "synthetic" in capsys.readouterr().err
    assert not out.exists()


def test_table_format_never_formats_the_constants(corpus_dir, monkeypatch, capsys):
    def formatted(value):
        raise AssertionError("the table report formatted a structure constant")

    monkeypatch.setattr(specfile, "format_rational", formatted)
    assert cli.main(["prolong", str(corpus_dir / "ode2-point.json"), "--format", "table"]) == 0
    assert "total dimension: 8" in capsys.readouterr().out

