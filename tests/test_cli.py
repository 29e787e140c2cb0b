import builtins
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import spinharm
import spinharm.cli as cli
import spinharm.clifford as clifford
import spinharm.verify as verify
from spinharm.cli import main
from spinharm.coeffexpr import MAX_FILE_FOLD_WORK, MAX_NESTING, MAX_TOKENS
from spinharm.gstruct import InternalInvariantError
from spinharm.homogeneous import (MAX_CLEARED_DEGREE, MAX_DENOMINATOR_BITS,
                                  MAX_DENOMINATOR_DEGREE, MAX_JSON_DEPTH,
                                  ModelAnalysis, load_model)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# report


def test_report_cp3_text():
    code, text = run_cli("report", "cp3")
    assert code == 0
    assert "class flags: W1- W2-" in text
    assert "harmonicity: ALL_T" in text
    assert "canonical parameters: ALL_T" in text


def test_report_aw11_at_five_quarters():
    code, text = run_cli("report", "aw11", "--at", "5/4")
    assert code == 0
    assert "at t = 5/4: flags W1" in text
    assert "ROOT_SET {1/8" in text


def test_report_structured_is_json_and_deterministic():
    code1, text1 = run_cli("report", "spin4", "--format", "structured")
    code2, text2 = run_cli("report", "spin4", "--format", "structured")
    assert code1 == code2 == 0
    assert text1 == text2
    data = json.loads(text1)
    assert data["model"] == "spin4"
    assert data["harmonicity"]["kind"] == "ALL_T"
    assert data["classes"]["flags"] == ["W3", "W4", "W5"]
    assert data["cross_check"]["residual_identically_zero"] is True


def test_report_file_model(tmp_path, g2_toy_dict):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(g2_toy_dict))
    code, text = run_cli("report", str(path))
    assert code == 0
    assert "ROOT_SET {1/2 (mult 1)}" in text


def test_report_unknown_model_exit2(capsys):
    code, _ = run_cli("report", "nope")
    assert code == 2
    assert "unknown model" in capsys.readouterr().err


def test_report_malformed_file_exit2(tmp_path, capsys, flat6_dict):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "1/("}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 2
    assert "slot 1" in capsys.readouterr().err


# scan needs a range; report and dump take the model alone
_MODEL_ARGS = {"report": (), "dump": (), "scan": ("--min", "1", "--max", "2")}


@pytest.mark.parametrize("command", sorted(_MODEL_ARGS))
@pytest.mark.parametrize("text,line,column", [
    ("[" * 100_000 + "]" * 100_000, 1, MAX_JSON_DEPTH + 1),
    # brackets inside strings do not count; the outer object is depth 1
    ('{"name": "[[[[{{{{\\"[[[[", "lambda":\n  '
     + "[" * 100_000 + "]" * 100_000 + "}", 2, MAX_JSON_DEPTH + 2),
], ids=["brackets", "brackets-after-strings"])
def test_json_nested_too_deep_exit2(tmp_path, capsys, command, text, line,
                                    column):
    # the JSON decoder's RecursionError used to exit 3 as an internal error
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out = run_cli(command, str(path), *_MODEL_ARGS[command])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: bad model file: JSON nested deeper than {MAX_JSON_DEPTH} "
        f"at line {line} column {column}\n")


def test_json_nested_500_deep_loads_and_reports(tmp_path):
    # MAX_JSON_DEPTH only names the bracket where the decoder gives up: a
    # record the decoder takes, with an unknown key nested 500 deep, loads
    path = tmp_path / "deep.json"
    path.write_text(load_model("cp3").dumps().replace(
        "{", '{"extra": ' + "[" * 500 + "]" * 500 + ", ", 1))
    assert 500 > MAX_JSON_DEPTH
    for argv in ((), ("--format", "structured")):
        assert run_cli("report", str(path), *argv) == \
            run_cli("report", "cp3", *argv)


@pytest.mark.parametrize("command", sorted(_MODEL_ARGS))
def test_directory_as_model_file_exit2(tmp_path, capsys, command):
    # IsADirectoryError used to exit 3 as an internal error
    code, out = run_cli(command, str(tmp_path), *_MODEL_ARGS[command])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        f"error: cannot read model file {str(tmp_path)!r}: Is a directory\n"


def test_unreadable_model_file_exit2(tmp_path, capsys, monkeypatch,
                                    flat6_dict):
    # open() refuses the file as it would for a reader without permission,
    # whoever runs the test
    path = tmp_path / "locked.json"
    path.write_text(json.dumps(flat6_dict))
    real_open = builtins.open

    def locked_open(file, *args, **kwargs):
        if os.fspath(file) == str(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  str(path))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", locked_open)
    code, out = run_cli("report", str(path))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        f"error: cannot read model file {str(path)!r}: Permission denied\n"


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected a JSON object, got list"),
    (json.dumps({"name": "x", "n": 6, "substitution": ["t=u"],
                 "spinor": ["0"] * 4 + ["1"] + ["0"] * 3,
                 "lambda": [[] for _ in range(6)]}),
     "substitution must be a string, got ['t=u']")],
    ids=["list", "substitution"])
def test_model_record_message_names_the_fault(tmp_path, capsys, text,
                                              message):
    # these exited 2 with "list indices must be integers or slices, not
    # str" and "unhashable type: 'list'"
    path = tmp_path / "record.json"
    path.write_text(text)
    assert run_cli("report", str(path)) == (2, "")
    assert capsys.readouterr().err == f"error: bad model record: {message}\n"


@pytest.mark.parametrize("lam, argv, message", [
    ([[]] * 5, ("report",), "lambda has 5 slots; n = 6 needs 6"),
    ([[{"i": 5, "j": 3, "coeff": "1"}]] + [[]] * 5, ("report",),
     "slot 1: indices must be strictly increasing: (5, 3)"),
    ([[{"i": 3, "j": 7, "coeff": "1"}]] + [[]] * 5, ("report",),
     "slot 1: index out of range in (3, 7)"),
    ([[{"i": 3, "j": 5, "coeff": "t^u"}]] + [[]] * 5, ("report",),
     "slot 1 (3,5): expected 'int' at column 3"),
    ([[{"i": 3, "j": 5, "coeff": "(t))"}]] + [[]] * 5, ("report",),
     "slot 1 (3,5): trailing input at column 4"),
    (None, ("scan", "cp3", "--min", "1", "--max", "2", "--steps", "0"),
     "steps must be positive")],
    ids=["slot-count", "order", "range", "power", "trailing", "steps"])
def test_fault_message_exit2(tmp_path, capsys, flat6_dict, lam, argv,
                             message):
    if lam is not None:
        flat6_dict["lambda"] = lam
        path = tmp_path / "model.json"
        path.write_text(json.dumps(flat6_dict))
        argv += (str(path),)
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("coeff", ["(" * 5000 + "1" + ")" * 5000,
                                   "-" * 5000 + "1"])
def test_report_deep_nesting_exit2(tmp_path, capsys, flat6_dict, coeff):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slot 1") and "nesting deeper" in err
    assert "Traceback" not in err


def test_report_nesting_at_the_limit_exit0(tmp_path, capsys, flat6_dict):
    # the whole call path, not the parser alone, has stack for MAX_NESTING
    coeff = "(" * MAX_NESTING + "t" + ")" * MAX_NESTING
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("coeff, message", [
    # past Python's int-string limit: refused from its digit count
    ("1" * 5000, "coefficient above 4096 bits at column 1"),
    # coefficients take integer literals; a rational is a quotient
    ("0.5*t", "unexpected character '.' at column 2"),
    # a digit is one of the ASCII digits 0-9: no other Unicode digit
    ("t\u00b2", "unexpected character '\u00b2' at column 2"),
    ("\u0663*t", "unexpected character '\u0663' at column 1")],
    ids=["huge-integer", "decimal-point", "superscript-two",
         "arabic-indic-three"])
def test_report_bad_coefficient_literal_exit2(tmp_path, capsys, flat6_dict,
                                              coeff, message):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: slot 1 (1,2): {message}\n"
    assert len(err) < 100


def test_leading_zeros_of_a_coefficient_load(tmp_path, flat6_dict):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "0" * 5000 + "1"}]
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(flat6_dict))
    code, text = run_cli("dump", str(path))
    assert code == 0
    assert json.loads(text)["lambda"][0] == [{"i": 1, "j": 2, "coeff": "1"}]


def test_report_irrational_roots_exit2(tmp_path, capsys, g2_toy_dict):
    # the perturbation factor t becomes t^2 - 2: div S vanishes at sqrt(2)
    for ent in g2_toy_dict["lambda"][0][3:]:
        assert ent["coeff"].endswith(")*t")
        ent["coeff"] = ent["coeff"][:-1] + "(t^2-2)"
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(g2_toy_dict))
    code, _ = run_cli("report", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert "irrational real roots" in err
    assert err.startswith("error: harmonicity: gcd of the numerators")


def test_internal_invariant_exit3(monkeypatch, capsys):
    def boom(self):
        raise InternalInvariantError("phi component nonzero")
    monkeypatch.setattr(ModelAnalysis, "_extract", boom)
    code, _ = run_cli("report", "cp3")
    assert code == 3
    assert "invariant breach" in capsys.readouterr().err


@pytest.mark.parametrize("model,t", [("cp3", "0"), ("aw11", "0"),
                                     ("cp3", "-1")])
def test_report_at_outside_domain_exit2(capsys, model, t):
    with pytest.raises(SystemExit) as exc:
        run_cli("report", model, "--at", t)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "t must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,option", [
    (("report", "cp3", "--at", "1e100000000"), "--at"),
    (("report", "cp3", "--at", "3e-100000000"), "--at"),
    (("report", "cp3", "--at", "1" * 2000), "--at"),
    (("scan", "cp3", "--min", "1e100000000", "--max", "2"), "--min"),
    (("scan", "cp3", "--min", "1", "--max", "1E100000000"), "--max")])
def test_oversized_rational_argument_exit2_at_once(capsys, argv, option):
    # Fraction would build 10^100000000 first: these used to hang
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: rational above 4096 bits" in err


def test_non_ascii_rational_argument_exit2(capsys):
    # Fraction reads the Arabic-Indic three as 3: this printed "at t = 3"
    with pytest.raises(SystemExit) as exc:
        run_cli("report", "cp3", "--at", "\u0663")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --at: not a rational: '\u0663'" in err


@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "1e1_0", "3/-4"])
def test_rational_argument_outside_the_literal_grammar_exit2(capsys, text):
    # Fraction reads '_' digit grouping and surrounding whitespace: "1_0"
    # printed "at t = 10"
    with pytest.raises(SystemExit) as exc:
        run_cli("report", "cp3", "--at", text)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --at: not a rational: {text!r}\n")


def test_spinor_entry_with_whitespace_exit2(tmp_path, capsys, flat6_dict):
    # this loaded as 1 and reported with exit 0
    flat6_dict["spinor"][4] = " 1 "
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(flat6_dict))
    for command in ("report", "dump"):
        code, text = run_cli(command, str(path))
        assert (code, text) == (2, "")
        assert capsys.readouterr().err == \
            "error: bad model record: spinor entry 5: not a rational: ' 1 '\n"


def test_rational_argument_within_the_bit_limit_is_read_exactly():
    # 2^4095 written out has 1233 digits; a decimal exponent is exact too
    assert cli._fraction(str(2 ** 4095)) == 2 ** 4095
    assert cli._fraction("125e-3") == Fraction(1, 8)
    with pytest.raises(cli.argparse.ArgumentTypeError,
                       match="above 4096 bits"):
        cli._fraction(str(2 ** 4096))


def test_report_at_pole_exit2(tmp_path, capsys, flat6_dict):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "1/(t-1)"}]
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path), "--at", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: t = 1 is a pole of the model's coefficients "
                   "(slot 1, entry (1, 2))\n")
    code, text = run_cli("report", str(path), "--at", "2")
    assert code == 0 and "at t = 2: flags" in text


def test_report_at_pole_hidden_from_the_classes_exit2(tmp_path, capsys,
                                                     flat6_dict):
    # (e13 - e24)/(t - 1) lies in su(3), which S never sees: every class
    # coordinate is finite at t = 1, but Lambda is not defined there
    flat6_dict["lambda"][0] = [{"i": 1, "j": 3, "coeff": "1/(t-1)"},
                               {"i": 2, "j": 4, "coeff": "-1/(t-1)"},
                               {"i": 3, "j": 5, "coeff": "t"}]
    path = tmp_path / "hidden.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path), "--at", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: t = 1 is a pole of the model's coefficients "
                   "(slot 1, entry (1, 3))\n")
    code, text = run_cli("report", str(path), "--at", "2")
    assert code == 0 and "at t = 2: flags" in text


def test_report_at_pole_names_first_slot(tmp_path, capsys, flat6_dict):
    # t = 2 is u = sqrt(2) under t=u^2: the pole is found exactly there,
    # and the first of the two slots with a pole there is named
    flat6_dict["substitution"] = "t=u^2"
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "1/(t-3)"}]
    flat6_dict["lambda"][1] = [{"i": 1, "j": 4, "coeff": "1/(u^2-2)"}]
    flat6_dict["lambda"][3] = [{"i": 3, "j": 6, "coeff": "1/(t-2)"}]
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path), "--at", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: t = 2 is a pole of the model's coefficients "
                   "(slot 2, entry (1, 4))\n")
    code, text = run_cli("report", str(path), "--at", "5/2")
    assert code == 0 and "at t = 5/2: flags" in text


def test_report_at_pole_shared_by_two_slots(tmp_path, capsys, flat6_dict,
                                            monkeypatch):
    # slots 2 and 4 share the denominator t - 2, slot 1 has t - 3 twice
    # and 1 once, slot 3 has 1: each distinct non-constant denominator is
    # tested once, and the first entry with a pole, in slot order, is named
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "1/(t-3)"},
                               {"i": 3, "j": 4, "coeff": "t/(t-3)"},
                               {"i": 5, "j": 6, "coeff": "t"}]
    flat6_dict["lambda"][1] = [{"i": 2, "j": 5, "coeff": "t/(t-2)"},
                               {"i": 1, "j": 4, "coeff": "1/(t-2)"}]
    flat6_dict["lambda"][2] = [{"i": 3, "j": 4, "coeff": "t"}]
    flat6_dict["lambda"][3] = [{"i": 1, "j": 3, "coeff": "5/(t-2)"}]
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(flat6_dict))
    tested = []
    vanishes_at = cli.vanishes_at
    monkeypatch.setattr(cli, "vanishes_at",
                        lambda p, c, root: tested.append(p) or
                        vanishes_at(p, c, root))
    code, _ = run_cli("report", str(path), "--at", "2")
    assert code == 2
    err = capsys.readouterr().err
    assert err == ("error: t = 2 is a pole of the model's coefficients "
                   "(slot 2, entry (1, 4))\n")
    assert sorted(p.degree for p in tested) == [1, 1]
    assert len(set(tested)) == 2


def test_report_fold_work_limit_exit2(tmp_path, capsys, flat6_dict):
    # 11,999 tokens, every step inside the degree and bit caps: the sum
    # folded for about 13 s before the cumulative work was bounded
    coeff = "+".join(["(t+1)^60/(t+2)^60"] * 750)
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "work.json"
    path.write_text(json.dumps(flat6_dict))
    start = time.perf_counter()
    code, _ = run_cli("report", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slot 1") and "folding work above" in err
    assert "Traceback" not in err


def test_file_fold_work_limit_exit2(tmp_path, capsys, flat6_dict):
    # ten entries, each just under the per-coefficient budget: they share
    # one budget of MAX_FILE_FOLD_WORK, which the fifth entry parsed (the
    # first of slot 3) passes
    coeff = "+".join(["(t+1)^60/(t+2)^60"] * 26)
    pairs = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 4),
             (2, 5), (2, 6), (3, 4)]
    for k, (i, j) in enumerate(pairs):
        flat6_dict["lambda"][k % 6].append({"i": i, "j": j, "coeff": coeff})
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps(flat6_dict))
    for command in ("report", "dump"):
        start = time.perf_counter()
        code, _ = run_cli(command, str(path))
        assert time.perf_counter() - start < 2
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slot 3 (1,4): ")
        assert f"model-file folding work above {MAX_FILE_FOLD_WORK}" in err
        assert "Traceback" not in err


def test_report_sequence_matches_golden_bytes():
    # later reports reuse the stabilizer data built for earlier ones
    golden = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "perfbench", "golden")
    for name in ("cp3", "spin4", "aw11", "cp3"):
        code, text = run_cli("report", name, "--format", "structured")
        assert code == 0
        with open(os.path.join(golden, f"report-{name}.json"),
                  encoding="utf-8") as fh:
            assert text == fh.read(), name


def test_report_long_operator_chain(tmp_path, capsys, flat6_dict):
    chain = "+".join(["t"] * 5000)
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": chain}]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("lambda", None), ("lambda", 5), ("lambda", [3] * 6),
    ("spinor", ["0"] * 4 + ["1/0"] + ["0"] * 3),
    ("spinor", ["0"] * 4 + ["x"] + ["0"] * 3),
    # an Arabic-Indic one, which Fraction would read as 1
    ("spinor", ["0"] * 4 + ["\u0661"] + ["0"] * 3)])
def test_report_mistyped_field_exit2(tmp_path, capsys, flat6_dict, field,
                                     value):
    # found by tests/test_fuzz_model_file.py: these exited 3
    flat6_dict[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(flat6_dict))
    for command in ("report", "dump"):
        code, _ = run_cli(command, str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad model record") and \
            "Traceback" not in err
        if field == "spinor":
            assert "spinor entry 5" in err


@pytest.mark.parametrize("entry", ["1e100000000", "-1e-100000000",
                                   "7" * 5000, "1/" + "9" * 1300])
def test_report_oversized_spinor_entry_exit2_at_once(tmp_path, capsys,
                                                     flat6_dict, entry):
    # Fraction would build 10^100000000 first: this used to hang
    flat6_dict["spinor"][4] = entry
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(flat6_dict))
    start = time.perf_counter()
    code, _ = run_cli("report", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad model record: spinor entry 5: "
                          "rational above 4096 bits")


@pytest.mark.parametrize("spinor, message", [
    ("00001000", "spinor must be a list of 8 entries, got '00001000'"),
    ({"5": "1"}, "spinor must be a list of 8 entries, got {'5': '1'}"),
    (["0"] * 4 + ["1"] + ["0"] * 4, "spinor must have 8 coordinates, got 9"),
    (["0"] * 400_000, "spinor must have 8 coordinates, got 400000")])
def test_malformed_spinor_field_exit2_at_once(tmp_path, capsys, flat6_dict,
                                              spinor, message):
    # a string loaded as the spinor e5, one character per entry, and an
    # object as its keys; a 400,000-entry list was parsed entry by entry
    # (1.8 s) before its length was checked
    flat6_dict["spinor"] = spinor
    path = tmp_path / "spinor.json"
    path.write_text(json.dumps(flat6_dict))
    for command in ("report", "dump"):
        start = time.perf_counter()
        code, _ = run_cli(command, str(path))
        elapsed = time.perf_counter() - start
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: bad model record: {message}\n"
        if len(spinor) > 8:
            assert elapsed < 0.1


def _aw11_over(entries):
    """aw11 with the coefficient of entry e of slot k divided by f, for
    (k, e, f) in entries."""
    d = load_model("aw11").to_dict()
    for k, e, f in entries:
        ent = d["lambda"][k][e]
        ent["coeff"] = f"({ent['coeff']})/({f})"
    return d


@pytest.mark.parametrize("extra", [0, 1])
def test_common_denominator_degree_limit(tmp_path, capsys, extra):
    # aw11's D is t; the first entry divided by (t+1)^(M-1+extra) makes
    # deg D = M + extra once the second entry's t joins it
    power = MAX_DENOMINATOR_DEGREE - 1 + extra
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(_aw11_over([(0, 0, f"(t+1)^{power}")])))
    code, text = run_cli("report", str(path))
    err = capsys.readouterr().err
    if extra:
        assert code == 2 and text == ""
        assert err == (f"error: slot 1 (3,5): common denominator of degree "
                       f"{MAX_DENOMINATOR_DEGREE + 1} above "
                       f"{MAX_DENOMINATOR_DEGREE}\n")
    else:
        assert code == 0 and err == ""
        assert ModelAnalysis(load_model(str(path))).common_denominator \
            .degree == MAX_DENOMINATOR_DEGREE
        assert "harmonicity:" in text


def test_common_denominator_probe_exit2_at_once(tmp_path, capsys):
    # entry m divided by (t^2 + m)^20: a 1.3 KB file with deg D = 841
    # loaded in 0.01 s, and report ran past 60 s
    d = load_model("aw11").to_dict()
    m = 0
    for entries in d["lambda"]:
        for ent in entries:
            m += 1
            ent["coeff"] = f"({ent['coeff']})/(t^2+{m})^20"
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    start = time.perf_counter()
    code, _ = run_cli("report", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert capsys.readouterr().err == \
        "error: slot 1 (3,5): common denominator of degree 81 above 80\n"


def test_common_denominator_bits_limit(tmp_path, capsys):
    # distinct linear denominators t + (2^200 + m): each adds about 200
    # bits to D's coefficients, and report time grows with them
    big = 2 ** 200
    picks = [(k, e, f"t+{big + 3 * k + e}") for k in range(7)
             for e in range(3)]
    path = tmp_path / "bits.json"
    path.write_text(json.dumps(_aw11_over(picks)))
    code, _ = run_cli("report", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slot ")
    assert err.endswith(f"-bit coefficients above {MAX_DENOMINATOR_BITS} "
                        "bits\n")
    # the same file with the first few entries loads and reports
    path.write_text(json.dumps(_aw11_over(picks[:4])))
    assert run_cli("report", str(path))[0] == 0


@pytest.mark.parametrize("extra", [0, 1])
def test_cleared_degree_limit(tmp_path, capsys, extra):
    # aw11's D is t; its first entry, -1, times (t+1)^(M-1+extra) clears to
    # degree M + extra while D keeps degree 1
    d = load_model("aw11").to_dict()
    ent = d["lambda"][0][0]
    assert (ent["i"], ent["j"], ent["coeff"]) == (2, 7, "-1")
    ent["coeff"] = f"-(t+1)^{MAX_CLEARED_DEGREE - 1 + extra}"
    path = tmp_path / "cleared.json"
    path.write_text(json.dumps(d))
    start = time.perf_counter()
    code, text = run_cli("report", str(path))
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    if extra:
        assert code == 2 and text == "" and elapsed < 0.5
        assert err == (f"error: slot 1 (2,7): cleared coefficient of degree "
                       f"{MAX_CLEARED_DEGREE + 1} above "
                       f"{MAX_CLEARED_DEGREE}\n")
    else:
        assert code == 0 and err == ""
        an = ModelAnalysis(load_model(str(path)))
        assert max(c.num.degree for slot in an.cleared
                   for c in slot.terms.values()) == MAX_CLEARED_DEGREE
        assert "harmonicity:" in text


def test_cleared_degree_probe_exit2_at_once(tmp_path, capsys):
    # entry m times (t + a_m)^40/(t^2 + b_m)^4: deg D 73, under the
    # denominator limit, and report took 5.2-6.6 s
    d = load_model("aw11").to_dict()
    rng = random.Random(5)
    for entries in d["lambda"]:
        for ent in entries:
            a, b = rng.randint(1, 9), rng.randint(1, 9)
            ent["coeff"] = f"({ent['coeff']})*(t+{a})^40/(t^2+{b})^4"
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(d))
    start = time.perf_counter()
    code, _ = run_cli("report", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    an = ModelAnalysis(load_model(str(path)))
    assert an.common_denominator.degree == 73 <= MAX_DENOMINATOR_DEGREE
    assert capsys.readouterr().err == (
        f"error: slot 1 (2,7): cleared coefficient of degree 105 above "
        f"{MAX_CLEARED_DEGREE}\n")


@pytest.mark.parametrize("coeff", [["t", "+", "u"], {"t": 1}, None, 5])
def test_report_non_string_coefficient_exit2(tmp_path, capsys, flat6_dict,
                                             coeff):
    # a JSON list used to tokenize like the string "t+u" and load as 2u
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(flat6_dict))
    for command in ("report", "dump"):
        code, _ = run_cli(command, str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: slot 1: bad entry") and \
            "Traceback" not in err


def test_report_token_limit_exit2(tmp_path, capsys, flat6_dict):
    chain = "+".join(["t"] * (MAX_TOKENS // 2 + 1))
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": chain}]
    path = tmp_path / "long.json"
    path.write_text(json.dumps(flat6_dict))
    code, _ = run_cli("report", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slot 1") and "more than" in err
    assert f"column {MAX_TOKENS + 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("coeff", ["*".join(["(t+1)"] * 2000),
                                   "u^1000000000", "2^1000000000"])
def test_report_oversized_coefficient_exit2(tmp_path, capsys, flat6_dict,
                                            coeff):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": coeff}]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(flat6_dict))
    start = time.perf_counter()
    code, _ = run_cli("report", str(path))
    assert time.perf_counter() - start < 2
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: slot 1") and "above" in err
    assert "Traceback" not in err


def test_unexpected_exception_exit3(monkeypatch, capsys):
    def boom(args, out):
        raise RuntimeError("unexpected state")
    monkeypatch.setattr(cli, "cmd_report", boom)
    code, _ = run_cli("report", "cp3")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from spinharm import *", namespace)
    assert spinharm.__all__
    for name in spinharm.__all__:
        assert namespace[name] is getattr(spinharm, name)


def test_report_does_not_import_numpy():
    src = os.path.dirname(os.path.dirname(spinharm.__file__))
    script = ("import io, sys\n"
              "import spinharm.cli\n"
              "code = spinharm.cli.main(['report', 'cp3'], out=io.StringIO())\n"
              "print(code, 'numpy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], env=dict(
        os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


def test_cached_parser_gives_fresh_process_outputs(capsys):
    # one parser serves every main() call of a process; a parse that ends
    # in an argparse error must not change what later calls print
    runs = (["report", "cp3", "--at", "3/2"], ["report", "cp3", "--at", "0"],
            ["dump", "spin4"])
    in_process = []
    for argv in runs:
        out = io.StringIO()
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, out.getvalue(), capsys.readouterr().err))
    assert [r[0] for r in in_process] == [0, 2, 0]
    assert cli.build_parser() is cli.build_parser()
    src = os.path.dirname(os.path.dirname(spinharm.__file__))
    script = "import sys, spinharm.cli\nsys.exit(spinharm.cli.main())\n"
    for argv, got in zip(runs, in_process):
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert got == (done.returncode, done.stdout, done.stderr), argv


@pytest.mark.parametrize("argv, lines", [
    (["scan", "spin4", "--min", "1/2", "--max", "5/2", "--steps", "10000"],
     1),
    (["dump", "cp3"], 0)], ids=["scan-one-row", "dump-no-reader"])
def test_a_reader_that_stops_early_ends_the_run_quietly(argv, lines):
    # the reader takes its lines and closes the pipe (for lines = 0 it is
    # gone before the first write); the run then exits EXIT_CLOSED_PIPE
    # with nothing on stderr: no "internal error: BrokenPipeError" and no
    # "Exception ignored" from the interpreter's flush at exit
    src = os.path.dirname(os.path.dirname(spinharm.__file__))
    read_end, write_end = os.pipe()
    if not lines:
        os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-m", "spinharm.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=write_end, stderr=subprocess.PIPE,
                            text=True)
    os.close(write_end)
    got = []
    if lines:
        with open(read_end, encoding="utf-8") as reader:
            got = [reader.readline() for _ in range(lines)]
    err = proc.communicate(timeout=120)[1]
    assert (proc.returncode, err) == (cli.EXIT_CLOSED_PIPE, "")
    assert got == run_cli(*argv)[1].splitlines(keepends=True)[:lines]


def test_planted_eleven_digit_root_report_gcd_count(tmp_path, monkeypatch):
    # aw11 with slot 1 += slot 2 * (t - p/q), p and q 11-digit primes, as
    # the benchmark's roots files are: every denominator is a power of u,
    # so a warm structured report cancels each by a slice, and poly_gcd
    # runs on the numerators and the root finder's derivatives alone
    from spinharm import homogeneous, scalars
    base = spinharm.load_model("aw11").to_dict()
    extra = [dict(ent, coeff=f"({ent['coeff']})*(t-50000000021/50000000023)")
             for ent in base["lambda"][1]]
    base["lambda"][0] = base["lambda"][0] + extra
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(base))
    assert run_cli("report", "aw11", "--format", "structured")[0] == 0
    calls = []
    gcd = scalars.poly_gcd

    def counted(a, b):
        calls.append((a.degree, b.degree))
        return gcd(a, b)

    for module in (scalars, homogeneous):
        monkeypatch.setattr(module, "poly_gcd", counted)
    code, text = run_cli("report", str(path), "--format", "structured")
    assert code == 0
    assert json.loads(text)["harmonicity"]["roots"] == \
        {"1/2": 1, "50000000021/50000000023": 1}
    assert len(calls) <= 16


# ---------------------------------------------------------------------------
# dump


def test_dump_load_dump_roundtrip(tmp_path):
    for name in ("cp3", "spin4", "aw11"):
        code, text = run_cli("dump", name)
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        code2, text2 = run_cli("dump", str(path))
        assert code2 == 0
        assert text2 == text


# ---------------------------------------------------------------------------
# scan


def test_scan_cp3_all_small():
    code, text = run_cli("scan", "cp3", "--min", "1/10", "--max", "4",
                         "--steps", "20")
    assert code == 0
    for line in text.strip().splitlines():
        assert float(line.split()[1]) < 1e-12


def test_scan_spin4_structured():
    code, text = run_cli("scan", "spin4", "--min", "1/2", "--max", "5/2",
                         "--steps", "200", "--format", "structured")
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 201
    # residual identically zero: every sample is numerically negligible
    assert all(row["residual"] < 1e-9 for row in rows)
    on_grid = [row for row in rows if row["t"] == "3/2"]
    assert len(on_grid) == 1


def test_scan_toy_brackets_root(tmp_path, g2_toy_dict):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(g2_toy_dict))
    code, text = run_cli("scan", str(path), "--min", "1/4", "--max", "1",
                         "--steps", "12", "--format", "structured")
    assert code == 0
    rows = json.loads(text)
    by_t = {Fraction(r["t"]): r["residual"] for r in rows}
    root = Fraction(1, 2)
    assert by_t[root] < 1e-12
    lo = max(t for t in by_t if t < root)
    hi = min(t for t in by_t if t > root)
    assert by_t[lo] > by_t[root] and by_t[hi] > by_t[root]


def test_scan_steps_above_the_bound_exit2(capsys, monkeypatch):
    from spinharm import numeric

    def no_grid(model, ts):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(numeric, "residual_norms", no_grid)
    code, out = run_cli("scan", "cp3", "--min", "1", "--max", "2",
                        "--steps", str(numeric.MAX_STEPS + 1))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == \
        f"error: steps must be at most {numeric.MAX_STEPS}\n"


def test_scan_bad_range_exit2(capsys):
    code, _ = run_cli("scan", "cp3", "--min", "2", "--max", "1")
    assert code == 2
    capsys.readouterr()


def test_scan_text_prints_a_pole_row():
    path = Path(__file__).parent / "data" / "models" / "pole.json"
    code, text = run_cli("scan", str(path), "--min", "1/2", "--max", "3/2",
                         "--steps", "2")
    rows = text.splitlines()
    assert code == 0 and len(rows) == 3
    assert rows[1] == "    1.000000  pole"


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_known_failures():
    code, text = run_cli("verify", "--trials", "3")
    assert code == 1
    failing = {line.split()[1] for line in text.splitlines()
               if line.startswith("[FAIL]")}
    assert failing == {"spin4-eta-exact", "spin4-root-set",
                       "spin4-class-flags"}


def test_verify_output_bytes_at_twenty_trials():
    # recorded from `spinharm verify --trials 20` before the operator checks
    # moved from dense matrices to SpinOp
    want = (Path(__file__).parent / "data" / "verify-trials20.txt").read_text(
        encoding="utf-8")
    src = os.path.dirname(os.path.dirname(spinharm.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "spinharm.cli", "verify", "--trials", "20"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (1, want, "")


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_verify_nonpositive_trials_exit2(capsys, trials):
    # these used to print "[PASS] property-... -- -5 random instances exact"
    code, text = run_cli("verify", "--trials", trials)
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        f"error: trials must be positive, got {trials}\n"


def test_verify_structured():
    code, text = run_cli("verify", "--trials", "2", "--format", "structured")
    assert code == 1
    rows = json.loads(text)
    by_name = {r["name"]: r["ok"] for r in rows}
    assert by_name["clifford-relations"] is True
    assert by_name["cp3-model"] is True
    assert by_name["aw11-model"] is True
    assert by_name["spin4-eta-exact"] is False


def test_a_raising_check_is_a_fail_line(monkeypatch):
    def check_boom():
        raise RuntimeError("boom")

    names = [r.name for r in verify.run_all(trials=2)]
    monkeypatch.setattr(verify, "ALL_CHECKS", [check_boom, *verify.ALL_CHECKS])
    code, text = run_cli("verify", "--trials", "2")
    lines = text.splitlines()
    assert code == 1
    assert lines[0] == "[FAIL] boom -- RuntimeError: boom"
    assert [line.split()[1] for line in lines[1:len(names) + 1]] == names


# ---------------------------------------------------------------------------
# mutation scenarios: deliberately broken conventions must trip the checks


def run_check_guarded(fn):
    try:
        return fn()
    except Exception as exc:
        return [verify.CheckResult(fn.__name__, False, str(exc))]


def test_mutated_lift_factor_fails_cp3_check(monkeypatch):
    monkeypatch.setattr(clifford, "LIFT_FACTOR", Fraction(1))
    results = run_check_guarded(verify.check_cp3)
    assert not all(r.ok for r in results)


def test_mutated_substitution_fails_spin4_checks(monkeypatch):
    from spinharm.homogeneous import _BUILTIN_DATA
    import copy
    record = copy.deepcopy(_BUILTIN_DATA["spin4"])
    record["substitution"] = "t=u^2"
    monkeypatch.setitem(_BUILTIN_DATA, "spin4", record)
    results = run_check_guarded(verify.check_spin4)
    names_failing = {r.name for r in results if not r.ok}
    # the pinned m-projection value must trip under the wrong substitution
    assert "spin4-m-projection" in names_failing or len(results) == 1
