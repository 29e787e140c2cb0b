import io
import json
import os
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
from spinharm.homogeneous import ModelAnalysis


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


def test_scan_bad_range_exit2(capsys):
    code, _ = run_cli("scan", "cp3", "--min", "2", "--max", "1")
    assert code == 2
    capsys.readouterr()


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
