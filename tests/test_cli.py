"""CLI contract: golden-file byte comparison, exit codes, certificates."""

import inspect
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from sympsheaf import KForm, is_symplectic_map, point_space, standard_J
from sympsheaf import jsonio
from sympsheaf.cli import _HANDLERS, _render_value, main
from sympsheaf.errors import MalformedInput
from sympsheaf.jsonio import kform_from_json, matrix_from_json, space_from_json

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("darboux", "form_J", 0),
    ("darboux", "form_degenerate", 1),
    ("darboux", "malformed", 2),
    ("darboux", "unknown_point", 2),
    ("normal-form", "form_rank2", 0),
    ("normal-form", "form_nonconstant_rank", 1),
    ("normal-form", "malformed", 2),
    ("check-symplectic", "shear", 0),
    ("check-symplectic", "scale2", 1),
    ("check-symplectic", "malformed", 2),
    ("check-symplectic", "form_not_square", 2),
    ("charpoly", "rot", 0),
    ("charpoly", "rect", 1),
    ("charpoly", "malformed", 2),
    ("charpoly", "zero_denominator", 2),
    ("charpoly", "not_rational", 2),
    ("charpoly", "ragged_rows", 2),
    ("charpoly", "open_not_open", 2),
    ("charpoly", "open_not_array", 2),
    ("charpoly", "section_open_unknown", 2),
    ("charpoly", "section_open_mismatch", 2),
    ("charpoly", "empty_open", 0),
    ("charpoly", "matrix_not_array", 2),
    ("charpoly", "matrix_row_not_array", 2),
    ("charpoly", "problem_not_object", 2),
    ("charpoly", "space_not_object", 2),
    ("charpoly", "space_points_not_array", 2),
    ("charpoly", "space_points_missing", 2),
    ("charpoly", "space_open_member_not_string", 2),
    ("charpoly", "matrix_missing", 2),
    ("charpoly", "section_values_not_object", 2),
    ("eigen", "eigen_sections", 0),
    ("eigen", "rect", 1),
    ("eigen", "malformed", 2),
    ("eigen", "eigen_large_spectrum", 0),
    ("sheaf-check", "sheaf_functions", 0),
    ("sheaf-check", "constant_presheaf", 1),
    ("sheaf-check", "malformed", 2),
    ("sheaf-check", "bad_topology", 2),
    ("sheaf-check", "cover_not_open", 2),
    ("sheaf-check", "presheaf_kind_unknown", 2),
    ("sheaf-check", "grid_not_rational", 2),
    ("sheaf-check", "grid_not_array", 2),
    ("sheaf-check", "cover_not_array", 2),
    ("sheaf-check", "cover_member_not_array", 2),
    ("sheaf-check", "function_duplicate_grid", 0),
    ("sheaf-check", "constant_duplicate_grid", 1),
    ("sheaf-check", "constant_empty_cover", 1),
    ("sheaf-check", "cover_missing", 2),
    ("wedge", "wedge_basic", 0),
    ("wedge", "wedge_mismatch", 1),
    ("wedge", "malformed", 2),
    ("wedge", "wedge_fractional_degree", 2),
    ("wedge", "wedge_xi_not_object", 2),
    ("wedge", "wedge_coeffs_not_object", 2),
    ("wedge", "wedge_index_not_integer", 2),
    ("wedge", "wedge_index_out_of_range", 2),
    ("wedge", "wedge_negative_degree", 2),
    ("wedge", "wedge_missing_degree", 2),
]


def run_cli(command, case, output="json", seed=None):
    argv = [command, "--input", str(DATA / f"{case}.json"), "--output", output]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return run_argv(argv)


def run_argv(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("command,case,expected_code", CASES,
                         ids=[f"{c}-{n}" for c, n, _ in CASES])
def test_golden(command, case, expected_code):
    code, out = run_cli(command, case)
    assert code == expected_code
    assert out == (GOLDEN / f"{command}_{case}.json").read_text()


@pytest.mark.parametrize("command,case", [("darboux", "form_J"),
                                          ("sheaf-check", "constant_presheaf")])
def test_byte_stability(command, case):
    first = run_cli(command, case)
    second = run_cli(command, case)
    assert first == second


def test_charpoly_rot_coefficients():
    code, out = run_cli("charpoly", "rot")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["coeffs"] == [1, 0, 1]  # t² + 1
    residue = report["certificate"]["cayley_hamilton_residue"]
    assert residue == [[0, 0], [0, 0]]


@pytest.mark.parametrize("key", ["degree", "rank"])
@pytest.mark.parametrize("bad", [1.7, 2.0, True, "2", None, -1])
def test_kform_degree_and_rank_must_be_integers(key, bad):
    obj = {"degree": 1, "rank": 2, "coeffs": {"[1]": 1}, key: bad}
    with pytest.raises(MalformedInput, match=rf"^xi\.{key}: "):
        kform_from_json(point_space().whole, obj, "xi")


@pytest.mark.parametrize("field", ["xi", "eta"])
@pytest.mark.parametrize("key", ["degree", "rank"])
def test_kform_degree_and_rank_are_required(key, field):
    obj = {"degree": 1, "rank": 2, "coeffs": {"[1]": 1}}
    del obj[key]
    with pytest.raises(MalformedInput, match=rf"^{field}\.{key}: missing$"):
        kform_from_json(point_space().whole, obj, field)


@pytest.mark.parametrize("key", ["[2,1]", "[1,1]", "[0,1]", "[-1,2]", "[1,3]", "[1]", "[1,2,3]",
                                 "1,2", "[1,2", "[+1,2]", "[1,,2]", "[]", "[١,٣]"])
def test_kform_multi_indices_name_the_key(key):
    obj = {"degree": 2, "rank": 2, "coeffs": {"[1,2]": 1, key: 1}}
    with pytest.raises(MalformedInput, match=rf"^xi\.coeffs\.{re.escape(key)}: "):
        kform_from_json(point_space().whole, obj, "xi")


def test_kform_multi_indices_allow_spaces():
    U = point_space().whole
    form = kform_from_json(U, {"degree": 2, "rank": 3, "coeffs": {" [ 1 , 3 ] ": 2}}, "xi")
    assert form == kform_from_json(U, {"degree": 2, "rank": 3, "coeffs": {"[1,3]": 2}}, "xi")
    assert kform_from_json(U, {"degree": 0, "rank": 3, "coeffs": {"[]": 5}}, "xi") == \
        KForm.scalar(U, 3, 5)


@pytest.mark.parametrize("bad", [True, None])  # 1.5 is the golden case
def test_sheaf_check_grid_entries_must_be_rationals(tmp_path, bad):
    problem = json.loads((DATA / "constant_presheaf.json").read_text())
    problem["grid"] = [0, bad]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["sheaf-check", "--input", str(path), "--output", "json"])
    assert code == 2
    assert json.loads(buf.getvalue())["error"]["message"].startswith("MalformedInput: grid[1]: ")


@pytest.mark.parametrize("kind", [[], {}, None, 1])  # "bogus" is the golden case
def test_sheaf_check_presheaf_kind_must_be_named(tmp_path, kind):
    problem = json.loads((DATA / "constant_presheaf.json").read_text())
    problem["presheaf"] = kind
    code, out = run_argv(["sheaf-check", "--input", write_problem(tmp_path, json.dumps(problem)),
                          "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == \
        f"MalformedInput: presheaf: unknown presheaf kind {kind!r}"


def test_darboux_certificate_reverifies():
    # pipe the emitted change of basis back through the symplectic check
    code, out = run_cli("darboux", "form_J")
    assert code == 0
    report = json.loads(out)
    problem = json.loads((DATA / "form_J.json").read_text())
    space = space_from_json(problem["space"])
    U = space.open_set(problem["open"])
    omega = matrix_from_json(U, problem["form"])
    P = matrix_from_json(U, report["result"]["change_of_basis"])
    J = standard_J(U, report["result"]["m"])
    assert P.transpose() @ omega @ P == J
    assert matrix_from_json(U, report["certificate"]["gram"]) == J
    assert is_symplectic_map(P, J) == (omega == J)  # here Ω = J, so P ∈ Sp


def test_sheaf_check_witness_shape():
    code, out = run_cli("sheaf-check", "constant_presheaf")
    assert code == 1
    report = json.loads(out)
    family = report["result"]["S2"]["witness"]["family"]
    assert family == [{"open": ["a"], "section": 1}, {"open": ["b"], "section": 2}]


def test_text_output_mode():
    code, out = run_cli("darboux", "form_J", output="text")
    assert code == 0
    assert out.startswith("darboux: ok")
    assert "change_of_basis" in out


def test_text_output_writes_empty_arrays_and_objects_on_their_key_line():
    # rot has no rational eigenvalue, so its pairs and residues are empty
    code, out = run_cli("eigen", "rot", output="text")
    assert code == 0
    assert out == ("eigen: ok\nresult:\n  pairs: []\n  omitted_points:\n    - x\n"
                   "certificate:\n  residues: []\n")
    assert _render_value({"a": {}, "b": [], "c": 0}) == "a: {}\nb: []\nc: 0"


# text reports: an S2 witness family and eigenpairs, lists of objects, and a null witness
TEXT_CASES = [("sheaf-check", "constant_presheaf", 1), ("eigen", "eigen_sections", 0)]


@pytest.mark.parametrize("command,case,expected_code", TEXT_CASES,
                         ids=[f"{c}-{n}" for c, n, _ in TEXT_CASES])
def test_text_golden(command, case, expected_code):
    code, out = run_cli(command, case, output="text")
    assert code == expected_code
    assert out == (GOLDEN / f"{command}_{case}.txt").read_text()


def test_text_marks_each_object_in_a_list_and_writes_json_literals():
    value = {"rows": [[{"a": 1}, 2], [3, None]], "items": [{"x": True}, {}, False]}
    assert _render_value(value) == ("rows:\n  - - a: 1\n    - 2\n  - [3, null]\n"
                                    "items:\n  - x: true\n  - {}\n  - false")


def test_seed_changes_sampled_grid_but_not_verdict():
    for seed in (0, 1, 2):
        code, out = run_cli("sheaf-check", "sheaf_functions", seed=seed)
        assert code == 0
        assert json.loads(out)["status"] == "ok"


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sympsheaf.cli", "charpoly",
         "--input", str(DATA / "rot.json"), "--output", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def test_unreadable_input_is_malformed():
    code, out = run_cli("darboux", "no_such_file")
    assert code == 2
    assert json.loads(out)["status"] == "MalformedInput"


@pytest.mark.parametrize("argv", [["no-such-command", "--input", str(DATA / "rot.json")],
                                  ["charpoly", "--output", "json"]],
                         ids=["unknown-command", "missing-input"])
def test_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_options_may_come_before_the_command():
    options_first = run_argv(["--output", "json", "--input", str(DATA / "rot.json"), "charpoly"])
    assert options_first == run_cli("charpoly", "rot")


def test_each_handler_takes_the_fields_its_command_reads():
    # jsonio reads a command's fields, in this order, and main passes them by name
    for command, handler in _HANDLERS.items():
        fields = list(inspect.signature(handler).parameters)[2:]
        assert fields == list(jsonio._INPUTS[command]), command


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert [name for name in _HANDLERS if name not in out] == []


@pytest.mark.parametrize("space,field", [
    ({"points": ["x", 1], "opens": [[], ["x"]]}, "space.points[1]: not a string"),
    ({"points": ["x", "x"], "opens": [[], ["x"]]}, "space.points[1]: duplicate point label"),
    ({"points": ["x"], "opens": "x"}, "space.opens: not an array"),
    ({"points": ["x"], "opens": [[], "x"]}, "space.opens[1]: not an array"),
    ({"opens": [[], ["x"]]}, "space.points: missing"),
    ({"points": ["x"]}, "space.opens: missing"),
    ({"points": ["x"], "opens": [[], [["x"]]]}, "space.opens[1][0]: not a string: ['x']"),
    ({"points": ["x", "y"], "opens": [[], ["x", 1], ["x", "y"]]},
     "space.opens[1][1]: not a string"),
])
def test_space_fields_are_named(space, field):
    with pytest.raises(MalformedInput, match=rf"^{re.escape(field)}"):
        space_from_json(space)


@pytest.mark.parametrize("command,case,field", [
    ("darboux", "form_J", "space"), ("darboux", "form_J", "form"),
    ("normal-form", "form_rank2", "form"), ("check-symplectic", "shear", "matrix"),
    ("charpoly", "rot", "matrix"), ("eigen", "eigen_sections", "matrix"),
    ("sheaf-check", "sheaf_functions", "cover"),
    ("wedge", "wedge_basic", "xi"), ("wedge", "wedge_basic", "eta")])
def test_missing_fields_are_named(tmp_path, command, case, field):
    problem = json.loads((DATA / f"{case}.json").read_text())
    del problem[field]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out = run_argv([command, "--input", str(path), "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == f"MalformedInput: {field}: missing"


def write_problem(tmp_path, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    return str(path)


ONE_POINT = '{"space": {"points": ["x"], "opens": [[], ["x"]]}, '


@pytest.mark.parametrize("output", ["json", "text"])
def test_reports_write_integers_past_the_digit_limit(tmp_path, output):
    # det diag(a, a) for a = 10^2200 − 1 has 4,400 digits, past Python's default
    # int→str limit of 4,300: the report gives it exactly, and main restores the limit
    a = "9" * 2200
    det = "9" * 2199 + "8" + "0" * 2199 + "1"  # a² = 10^4400 − 2·10^2200 + 1
    path = write_problem(tmp_path, ONE_POINT + f'"matrix": [[{a}, 0], [0, {a}]]}}')
    limit = sys.get_int_max_str_digits()
    code, out = run_argv(["check-symplectic", "--input", path, "--output", output])
    assert code == 1 and sys.get_int_max_str_digits() == limit
    assert (f'"det": {det}\n' if output == "json" else f"\n  det: {det}\n") in out


@pytest.mark.parametrize("entry,field", [('"1/{}"', "matrix[0][0]"), ('"-{}/7"', "matrix[0][0]"),
                                         ("{}", "problem")],
                         ids=["rational-string", "numerator-string", "integer-literal"])
def test_input_past_the_digit_limit_is_named(tmp_path, entry, field):
    limit = sys.get_int_max_str_digits()
    path = write_problem(tmp_path, ONE_POINT + f'"matrix": [[{entry.format("7" * (limit + 1))}]]}}')
    code, out = run_argv(["charpoly", "--input", path, "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == \
        f"MalformedInput: {field}: a number of more than {limit} digits, past the input digit limit"


@pytest.mark.parametrize("entry", ["1e100000000", "-2.5E-1_000_000"],
                         ids=["exponent", "negative-exponent"])
def test_exponents_are_not_rationals(tmp_path, entry):
    # the grammar has no exponent, so no input expands past the digit limit
    path = write_problem(tmp_path, ONE_POINT + f'"matrix": [[{json.dumps(entry)}]]}}')
    code, out = run_argv(["charpoly", "--input", path, "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == \
        f"MalformedInput: matrix[0][0]: not a rational: {entry!r}"


@pytest.mark.parametrize("text,value", [("7", 7), ("-3/4", F(-3, 4)), ("6/4", F(3, 2)),
                                        ("-0", 0), ("0/5", 0), ("007/010", F(7, 10))])
def test_rationals_are_read_by_the_documented_grammar(text, value):
    assert jsonio.fraction_from_json(text, "x") == value


@pytest.mark.parametrize("text", ["1e3", " -2.5E-2 ", f"1e{sys.get_int_max_str_digits()}", "e5",
                                  "0.5", "+3", "1_000", "٣/٤", "٣", " 3/4 ", "3/4\n", "3/-4",
                                  "-3/-4", "--3", "3/", "/4", "1/2/3", "-", "0x10", "inf", "nan"])
def test_strings_outside_the_grammar_are_not_rationals(text):
    with pytest.raises(MalformedInput, match=rf"^x: not a rational: {re.escape(repr(text))}$"):
        jsonio.fraction_from_json(text, "x")


def test_deeply_nested_input_is_malformed(tmp_path):
    depth = 100_000
    path = write_problem(tmp_path, ONE_POINT + '"matrix": ' + "[" * depth + "]" * depth + "}")
    code, out = run_argv(["charpoly", "--input", path, "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"].startswith(
        "MalformedInput: problem: nested deeper than the recursion limit")


@pytest.mark.parametrize("values", [3, [1, 2], "a", None])
def test_section_values_must_be_an_object(values):
    with pytest.raises(MalformedInput, match=rf"^matrix\[0\]\[0\]\.values: not an object: "):
        matrix_from_json(point_space().whole, [[{"values": values}]])


def test_input_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(ONE_POINT.encode() + b'"matrix": [["\xff"]]}')
    code, out = run_argv(["charpoly", "--input", str(path), "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        f"MalformedInput: problem: not UTF-8: byte 0xff at offset {len(ONE_POINT) + 13} "
        "(invalid start byte)")


def test_a_byte_order_mark_is_left_to_the_json_decoder(tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xef\xbb\xbf" + (DATA / "rot.json").read_bytes())
    code, out = run_argv(["charpoly", "--input", str(path), "--output", "json"])
    assert code == 2
    assert json.loads(out)["error"]["message"] == (
        "JSONDecodeError: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)")
