import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chiralva import cli, serialize, vertex
from chiralva.cli import build_parser, main
from chiralva.equivalence import va_to_chiral
from chiralva.fixtures import a3_va
from chiralva.vertex import bump_structure_constant, tensor_with_ox

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_check_va_a3_four_pass_lines():
    code, out = run_cli("check-va", str(FIXTURES / "a3.json"))
    assert code == 0
    assert out.count("): PASS") == 4
    for label in ("truncation (trunc)", "d-derivative (l-1-0)", "skew-symmetry (skew)", "jacobi (jac-comp)"):
        assert label in out
    assert out.rstrip().endswith("result: PASS")


def test_roundtrip_a3_exact():
    code, out = run_cli("roundtrip", str(FIXTURES / "a3.json"))
    assert code == 0
    assert "roundtrip: EXACT" in out


def test_check_va_mutated_names_skew_witness():
    code, out = run_cli("check-va", str(FIXTURES / "a3_mutated.json"))
    assert code == 1
    skew_line = next(line for line in out.splitlines() if line.startswith("skew-symmetry"))
    assert "FAIL" in skew_line
    assert "u=" in skew_line and "v=" in skew_line and "m=" in skew_line


def test_check_chiral_fixture():
    code, out = run_cli("check-chiral", str(FIXTURES / "a3_chiral.json"))
    assert code == 0
    for label in ("d-module-morphism", "chiral-skew", "chiral-jacobi"):
        assert label in out


def test_compose_diff_zero_and_mutated(tmp_path):
    code, out = run_cli("compose-diff", str(FIXTURES / "a3_chiral.json"), "-1", "-1", "-1", "1", "t", "1")
    assert code == 0
    assert "result: ZERO" in out

    code, out = run_cli("compose-diff", str(FIXTURES / "a3_chiral.json"), "3", "4", "5", "t", "t", "t")
    assert code == 0
    assert out.count("(empty)") == 4

    A = va_to_chiral(bump_structure_constant(tensor_with_ox(a3_va()), 0, -1, 1, 1), checked=False)
    bad = tmp_path / "bad_chiral.json"
    bad.write_text(serialize.dumps(A), encoding="utf-8")
    code, out = run_cli("compose-diff", str(bad), "-1", "-1", "-1", "1", "t", "1")
    assert code == 1
    assert "result: NONZERO" in out
    assert "(k,l)=(0, 0)" in out.split("difference")[1]


def test_delta_suite_default_and_custom():
    code, out = run_cli("delta-suite")
    assert code == 0
    assert "two-term-delta" in out and "three-term-delta" in out
    assert "fundamental-property" in out and "derivative-transport" in out

    code, out = run_cli(
        "delta-suite", "--lhs", "delta(x1/x2) * x2^-1", "--rhs", "x2^-1 * delta(x1/x2)", "--box=-4:4"
    )
    assert code == 0

    code, out = run_cli("delta-suite", "--lhs", "delta(x1/x2)", "--rhs", "0", "--box=-3:3")
    assert code == 1


def test_reports_are_deterministic(tmp_path):
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    code1, out1 = run_cli("check-va", str(FIXTURES / "a3.json"), "--report", str(r1))
    code2, out2 = run_cli("check-va", str(FIXTURES / "a3.json"), "--report", str(r2))
    assert code1 == code2 == 0
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes() == out1.encode()


def test_json_format_report():
    code, out = run_cli("check-va", str(FIXTURES / "a3.json"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["checks"]) == 4


def test_translation_commands_round_trip_files(tmp_path):
    out_chiral = tmp_path / "a3_to_chiral.json"
    code, _ = run_cli("to-chiral", str(FIXTURES / "a3.json"), "--out", str(out_chiral))
    assert code == 0
    assert out_chiral.read_bytes() == (FIXTURES / "a3_chiral.json").read_bytes()

    out_va = tmp_path / "back.json"
    code, _ = run_cli("to-va", str(out_chiral), "--out", str(out_va))
    assert code == 0
    assert out_va.read_bytes() == (FIXTURES / "a3_qz.json").read_bytes()


def test_translation_rejects_mutated_input():
    code, out = run_cli("to-chiral", str(FIXTURES / "a3_mutated.json"))
    assert code == 1
    assert "FAIL" in out


def test_parse_and_contract_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    assert main(["check-va", str(bad)]) == 2
    assert main(["compose-diff", str(FIXTURES / "a3_chiral.json"), "0", "0", "0", "nope", "t", "1"]) == 2
    assert main(["check-va", str(FIXTURES / "a3.json"), "--window=junk"]) == 2
    assert main(["check-chiral", str(FIXTURES / "a3.json")]) == 2


def _edited_fixture(tmp_path, name, edit):
    doc = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    edit(doc)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _run_cli_err(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


def test_chiral_override_index_out_of_range_exits_2(tmp_path, capsys):
    def edit(doc):
        doc["B"].append({"i": 7, "j": 0, "n": -1, "m": 1, "value": [["1"], [], []]})
        doc["recursion_determined"] = False

    path = _edited_fixture(tmp_path, "a3_chiral.json", edit)
    for command in ("check-chiral", "roundtrip", "to-va"):
        code, err = _run_cli_err(capsys, command, path)
        assert code == 2, command
        assert "out of range" in err


def test_chiral_negative_layer_exits_2(tmp_path, capsys):
    def edit(doc):
        doc["B"].append({"i": 1, "j": 0, "n": -1, "m": -1, "value": [["1"], [], []]})

    path = _edited_fixture(tmp_path, "a3_chiral.json", edit)
    code, err = _run_cli_err(capsys, "check-chiral", path)
    assert code == 2
    assert "m >= 1" in err


def test_duplicate_basis_names_exit_2(tmp_path, capsys):
    def edit(doc):
        doc["basis_names"] = ["1", "t", "t"]

    for command, name in (("check-va", "a3.json"), ("check-chiral", "a3_chiral.json")):
        code, err = _run_cli_err(capsys, command, _edited_fixture(tmp_path, name, edit))
        assert code == 2, command
        assert "distinct" in err


@pytest.mark.parametrize("command,name", [("check-va", "a3.json"), ("check-chiral", "a3_chiral.json")])
def test_non_string_basis_names_exit_2(tmp_path, capsys, command, name):
    # names used to be coerced with str(), so these loaded as None, 1, {'x': 2}
    def edit(doc):
        doc["basis_names"] = [None, 1, {"x": 2}]

    code, err = _run_cli_err(capsys, command, _edited_fixture(tmp_path, name, edit))
    assert code == 2
    assert "basis_names must be a list of strings" in err


def test_window_override_widens():
    code, out = run_cli("check-va", str(FIXTURES / "a3.json"), "--window=-7:3")
    assert code == 0
    assert "n in [-7..3]" in out
    code, out = run_cli("check-chiral", str(FIXTURES / "a3_chiral.json"), "--window=-6:2")
    assert code == 0
    assert "[-6..2]" in out


def test_module_entry_point():
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "chiralva", "check-va", str(FIXTURES / "a3.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "result: PASS" in proc.stdout


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_malformed_json_exits_2_without_traceback(tmp_path, capsys):
    # an infinite rank used to raise OverflowError, deep nesting RecursionError
    infinite = _write(tmp_path, "inf.json", '{"kind": "vertex-algebra", "rank": Infinity}')
    deep = _write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    code, err = _run_cli_err(capsys, "check-va", infinite)
    assert code == 2 and "must be an integer" in err
    for command in ("check-va", "check-chiral", "roundtrip"):
        code, err = _run_cli_err(capsys, command, deep)
        assert code == 2, command
        assert "nests too deeply" in err


def test_non_integer_fields_exit_2(tmp_path, capsys):
    def set_rank(value):
        return lambda doc: doc.update(rank=value)

    def set_n(doc):
        doc["structure"][0]["n"] = -1.5

    def set_m(doc):
        doc["B"][0]["m"] = 0.0

    def set_n_max(doc):
        doc["support_bounds"][0]["n_max"] = "-1"

    cases = [("check-va", "a3.json", set_rank(3.5)), ("check-va", "a3.json", set_rank(True)),
             ("check-va", "a3.json", set_n), ("check-va", "a3.json", set_n_max),
             ("check-chiral", "a3_chiral.json", set_rank(False)),
             ("check-chiral", "a3_chiral.json", set_m)]
    for command, name, edit in cases:
        code, err = _run_cli_err(capsys, command, _edited_fixture(tmp_path, name, edit))
        assert code == 2, (command, name)
        assert "must be an integer" in err


def test_duplicate_entries_exit_2(tmp_path, capsys):
    def dup_structure(doc):
        doc["structure"].append({**doc["structure"][0], "value": [["2"], [], []]})

    def dup_support(doc):
        doc["support_bounds"].append(doc["support_bounds"][0])

    def dup_b(doc):
        doc["B"].append({**doc["B"][0], "value": [["2"], [], []]})

    for command, name, edit in (("check-va", "a3.json", dup_structure),
                                ("check-va", "a3.json", dup_support),
                                ("check-chiral", "a3_chiral.json", dup_b)):
        code, err = _run_cli_err(capsys, command, _edited_fixture(tmp_path, name, edit))
        assert code == 2, name
        assert "duplicate" in err

    text = (FIXTURES / "a3.json").read_text(encoding="utf-8")
    twice = _write(tmp_path, "twice.json", text.replace('"rank": 3', '"rank": 3, "rank": 4', 1))
    code, err = _run_cli_err(capsys, "check-va", twice)
    assert code == 2 and "duplicate" in err


def test_support_bounds_outside_the_basis_exit_2(tmp_path, capsys):
    def outside(doc):
        doc["support_bounds"].append({"i": 9, "j": 9, "n_min": -1, "n_max": -1})

    code, err = _run_cli_err(capsys, "check-va", _edited_fixture(tmp_path, "a3.json", outside))
    assert code == 2
    assert "out of range" in err


def test_coefficient_too_long_to_print_exits_2():
    # used to end in a ValueError traceback from the int-to-string digit limit
    import subprocess, sys
    proc = subprocess.run(
        [sys.executable, "-m", "chiralva", "compose-diff", str(FIXTURES / "a3_chiral.json"),
         "--", "-3000", "-2", "0", "1", "t", "t"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("contract error: ") and proc.stderr.count("\n") == 1
    assert f"more than {sys.get_int_max_str_digits()} digits" in proc.stderr


def test_delta_suite_zero_denominator_exits_2(capsys):
    # used to end in a ZeroDivisionError traceback from the parser
    code, err = _run_cli_err(capsys, "delta-suite", "--lhs", "1/0", "--rhs", "x1")
    assert code == 2
    assert err == "parse error: line 1, column 3: zero denominator\n"


def _long_digits() -> str:
    """A run of digits one longer than the interpreter converts to an int."""
    return "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("lhs,column,what", [
    ("{}", 1, "an integer"),
    ("x1^{}", 4, "an integer"),
    ("1/{}", 3, "a denominator"),
])
def test_delta_suite_long_literal_exits_2(capsys, lhs, column, what):
    # used to end in a ValueError traceback from the int-from-string digit limit
    code, err = _run_cli_err(capsys, "delta-suite", "--lhs", lhs.format(_long_digits()), "--rhs", "x1")
    assert code == 2
    assert err == (f"parse error: line 1, column {column}: {what} has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("old,new", [('"n": -1', '"n": -{}'), ('"rank": 3', '"rank": {}')])
def test_long_json_integer_exits_2(tmp_path, capsys, old, new):
    # json.loads used to raise a bare ValueError from the same digit limit
    text = (FIXTURES / "a3.json").read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "long.json"
    path.write_text(text.replace(old, new.format(_long_digits()), 1), encoding="utf-8")
    code, err = _run_cli_err(capsys, "check-va", str(path))
    assert code == 2
    assert err == f"parse error: an integer has more than {sys.get_int_max_str_digits()} digits\n"


def test_layer_past_the_factorial_limit_exits_2(tmp_path, capsys):
    # an explicit layer at m = 2^63 over the stored B^{-1}_0(1, 1) needs
    # 1/m! at load; math.factorial used to raise OverflowError (exit 1)
    m = 2 ** 63
    doc = json.loads((FIXTURES / "a3_chiral.json").read_text(encoding="utf-8"))
    doc["B"].append({"i": 0, "j": 0, "n": -1 - m, "m": m, "value": [["1"], [], []]})
    path = tmp_path / "far_layer.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _run_cli_err(capsys, "check-chiral", str(path))
    assert code == 2
    assert err == (f"contract error: cannot compute 1/{m}!: the factorial takes "
                   f"arguments up to {sys.maxsize}\n")


@pytest.mark.parametrize("box,message", [
    ("--box=a:b", "--box expects lo:hi, got 'a:b'"),
    ("--box=5:-5", "--box range is empty: '5:-5'"),
])
def test_delta_suite_box_errors_name_the_box_flag(capsys, box, message):
    code, err = _run_cli_err(capsys, "delta-suite", box)
    assert code == 2
    assert err == f"contract error: {message}\n"


@pytest.mark.parametrize("command,name,where", [
    ("check-va", "a3.json", ("structure", 0, "value", 0)),
    ("check-va", "a3.json", ("D", 2, 1)),
    ("check-chiral", "a3_chiral.json", ("B", 0, "value", 0)),
])
def test_non_canonical_coefficient_literal_exits_2(tmp_path, capsys, command, name, where):
    # "1_0" used to load as 10
    def edit(doc):
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = ["1_0"]

    code, err = _run_cli_err(capsys, command, _edited_fixture(tmp_path, name, edit))
    assert code == 2
    assert err.startswith("parse error: bad rational literal '1_0'")


# ---------------------------------------------------------------------------
# the parser is built once per process: help, usage errors and defaults must
# be those of a freshly built parser on every call

SUBCOMMANDS = ("check-va", "check-chiral", "to-chiral", "to-va", "roundtrip", "delta-suite",
               "compose-diff")


def _exit_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as stop:
        main(argv)
    return stop.value.code, out.getvalue(), err.getvalue()


def _fresh_help(command=None):
    parser = build_parser()
    if command is None:
        return parser.format_help()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command].format_help()


@pytest.mark.parametrize("command", (None, *SUBCOMMANDS))
def test_help_matches_a_freshly_built_parser(command):
    argv = ["--help"] if command is None else [command, "--help"]
    for _ in range(2):
        code, out, err = _exit_output(argv)
        assert (code, out, err) == (0, _fresh_help(command), "")


def test_bad_flag_exits_2_with_the_fresh_parser_message():
    argv = ["check-va", str(FIXTURES / "a3.json"), "--bogus"]
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as stop:
        build_parser().parse_args(argv)
    assert stop.value.code == 2
    for _ in range(2):
        assert _exit_output(argv) == (2, "", err.getvalue())


def test_window_does_not_outlive_its_command():
    path = str(FIXTURES / "a3.json")
    code, plain = run_cli("check-va", path)
    assert code == 0
    code, widened = run_cli("check-va", path, "--window=-3:2")
    assert code == 0 and "[-3..2]" in widened and widened != plain
    assert run_cli("check-va", path) == (0, plain)


# `main` parses with the subcommand's own parser and falls back to the full
# parser: every argv must end as it does through a freshly built full parser

A3 = str(FIXTURES / "a3.json")
A3_CHIRAL = str(FIXTURES / "a3_chiral.json")
PARSE_CASES = {
    "no command": [],
    "unknown command": ["nosuch"],
    "top-level help": ["-h"],
    "subcommand help": ["compose-diff", "--help"],
    "non-int m1": ["compose-diff", A3_CHIRAL, "x", "-1", "-1", "1", "t", "1"],
    "unknown flag after a subcommand": ["compose-diff", A3_CHIRAL, "-1", "-1", "-1", "1", "t", "1", "--bogus"],
    "unknown flag before the positionals": ["check-va", "--bogus", A3],
    "missing positional": ["compose-diff", A3_CHIRAL, "-1"],
    "-- before negative exponents": ["compose-diff", A3_CHIRAL, "--", "-1", "-1", "-1", "1", "t", "1"],
    "window with a negative bound": ["check-chiral", A3_CHIRAL, "--window=-3:0"],
    "json format": ["compose-diff", A3_CHIRAL, "-1", "0", "-1", "t", "t", "1", "--format", "json"],
    "json format before the positionals": ["check-va", "--format", "json", A3],
}


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES.values(), ids=PARSE_CASES.keys())
def test_each_argv_ends_as_through_a_fresh_full_parser(monkeypatch, argv):
    got = _outcome(list(argv))
    with monkeypatch.context() as mp:
        mp.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        want = _outcome(list(argv))
    assert got == want
    assert got[0] in (0, 2) and (got[0] == 0) == (not got[2])


def test_compose_diff_builds_no_triple_index_and_check_va_one(monkeypatch):
    calls = []
    real = vertex._index_triples
    monkeypatch.setattr(vertex, "_index_triples", lambda pairs: calls.append(1) or real(pairs))
    assert run_cli("compose-diff", A3_CHIRAL, "-1", "0", "-1", "t", "t", "1")[0] == 0
    assert calls == []
    assert run_cli("check-va", A3)[0] == 0
    assert calls == [1]


def test_duplicate_json_member_stderr_is_exact(tmp_path, capsys):
    text = (FIXTURES / "a3.json").read_text(encoding="utf-8")
    twice = _write(tmp_path, "twice.json", text.replace('"rank": 3', '"rank": 3, "rank": 3, "rank": 4', 1))
    assert _run_cli_err(capsys, "check-va", twice) == (2, "parse error: duplicate JSON member entry 'rank'\n")
    doc = json.loads(Path(A3_CHIRAL).read_text(encoding="utf-8"))
    entry = json.dumps(doc["B"][0])
    nested = _write(tmp_path, "nested.json", json.dumps(doc).replace(entry, entry.replace('"i": ', '"j": 0, "i": '), 1))
    assert _run_cli_err(capsys, "check-chiral", nested) == (2, "parse error: duplicate JSON member entry 'j'\n")
