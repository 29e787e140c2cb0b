"""Fuzzed model files and --at values: exit 0 or 2, never a traceback.

Hypothesis writes model-file JSON with well-formed, malformed and oversized
coefficient strings, fields of the wrong type or size, and --at values that
are rational, zero, negative, malformed or a pole of the model.  Every
`report` and `dump` must end with exit code 0 or 2 (exit 3 is an internal
error), print no traceback, and finish within a bounded time.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spinharm.cli import main

SECONDS_PER_EXAMPLE = 5

_ATOM = st.sampled_from(["1", "2", "3", "t", "t", "t", "u",
                         "98765432109876543210"])


def _binary(pair):
    left, op, right = pair
    return f"({left}){op}({right})"


_EXPR = st.recursive(
    _ATOM,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(_binary),
        st.tuples(inner, st.integers(-2, 3)).map(
            lambda p: f"({p[0]})^{p[1]}"),
        inner.map(lambda e: f"-{e}")),
    max_leaves=5)

_SPECIAL = st.sampled_from([
    "1/(t-1)", "1/(2*t-1)", "u/(t^2+1)", "(1-t)/(2*u)", "1/(t-t)",
    "(t-t)^-1", "0^-1", "1/0", "u^-2", "t^200", "2^5000", "", "(", ")",
    "t t", "1/(", "--t", "t^", "3^-0", "(" * 150 + "t" + ")" * 150])

_GARBAGE = st.text(alphabet="0123456789tu+-*/^() .x", max_size=16)

_S5 = ["0", "0", "0", "0", "1", "0", "0", "0"]

# one field of a well-formed record replaced by a value of the wrong kind
_BAD_VALUES = {
    "name": [7, None, []],
    "n": [5, 8, "6", None, 6.5, "x", []],
    "substitution": ["t=2u", None, [], 3],
    "spinor": [None, "spinor", 5, _S5[:7], _S5 + ["0"],
               ["1/2"] * 8, ["1/0"] + _S5[1:], ["x"] + _S5[1:],
               [None] + _S5[1:], ["nan"] + _S5[1:], ["0"] * 8,
               _S5[:4] + ["1e100000000"] + _S5[5:]],
    "lambda": [None, 5, "lambda", {}, [None] * 6, [3] * 6, [[]] * 5,
               [[]] * 8],
    "notes": [None, 3],
}
_BAD_ENTRIES = [{}, [], "entry", 4, None, {"i": 1, "j": 2},
                {"i": 2, "j": 1, "coeff": "t"}, {"i": 3, "j": 3, "coeff": "t"},
                {"i": 0, "j": 2, "coeff": "t"}, {"i": 1, "j": 9, "coeff": "t"},
                {"i": "x", "j": 2, "coeff": "t"}, {"i": 1.5, "j": 2, "coeff": "t"},
                {"i": True, "j": 2, "coeff": "t"}, {"i": 1, "j": 2, "coeff": 3},
                {"i": 1, "j": 2, "coeff": None}, {"i": 1, "j": 2, "coeff": []}]


@st.composite
def _model_record(draw):
    n = draw(st.sampled_from([6, 7]))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lam = []
    for _ in range(n):
        keys = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))
        lam.append([{"i": i, "j": j, "coeff": draw(_EXPR)} for i, j in keys])
    record = {
        "name": "fuzz", "n": n,
        "substitution": draw(st.sampled_from(
            ["t=u", "t=u", "t=u^2", "t=u^2/2"])),
        "spinor": draw(st.sampled_from(
            [_S5, ["3/5", "4/5", "0", "0", "0", "0", "0", "0"],
             ["1/2", "1/2", "1/2", "1/2", "0", "0", "0", "0"]])),
        "lambda": lam,
        "notes": "",
    }
    fault = draw(st.sampled_from(
        ["none"] * 6 + ["coeff", "coeff", "field", "entry", "duplicate",
                        "missing", "record"]))
    if fault == "coeff":
        slot = draw(st.integers(0, n - 1))
        lam[slot].append({"i": 1, "j": n,
                          "coeff": draw(st.one_of(_SPECIAL, _GARBAGE))})
    elif fault == "field":
        key = draw(st.sampled_from(sorted(_BAD_VALUES)))
        record[key] = draw(st.sampled_from(_BAD_VALUES[key]))
    elif fault == "entry":
        slot = draw(st.integers(0, n - 1))
        lam[slot].append(draw(st.sampled_from(_BAD_ENTRIES)))
    elif fault == "duplicate":
        lam[0] += [{"i": 1, "j": 2, "coeff": "t"}] * 2
    elif fault == "missing":
        del record[draw(st.sampled_from(sorted(record)))]
    elif fault == "record":
        return draw(st.sampled_from([[], "model", 7, None, {}]))
    return record


_AT = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 12)).map(
        lambda p: f"{p[0]}/{p[1]}"),
    st.sampled_from(["0", "-1", "1", "1/2", "2", "-3/2", "1/0", "x", "0.5",
                     "1e3", ""]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["report", "report", "report", "dump"]))
    options = []
    if command == "report":
        if draw(st.booleans()):
            options += ["--format", "structured"]
        if draw(st.booleans()):
            options.append("--include-negative-roots")
        if draw(st.booleans()):
            options += ["--at", draw(_AT)]
    return command, options


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except SystemExit as exc:    # argparse refuses the arguments
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(record=_model_record(), command=_argv(),
       raw=st.sampled_from([None, None, None, None, "{", "[1, 2",
                            "\"model\"", "", "{\"n\": 6}", "\x00"]))
def test_fuzzed_model_file_exits_0_or_2(record, command, raw):
    name, options = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(record) if raw is None else raw,
                        encoding="utf-8")
        start = time.perf_counter()
        code, err = _run([name, str(path), *options])
        elapsed = time.perf_counter() - start
    assert code in (0, 2), err
    assert "Traceback" not in err
    assert code == 0 or err, "exit 2 without a message"
    assert elapsed < SECONDS_PER_EXAMPLE


@pytest.mark.parametrize("field, value", [
    ("n", 6.5), ("n", "6"), ("i", 1.5), ("i", True), ("j", "5")])
def test_non_integer_index_field_exit2(field, value):
    # int() used to truncate or convert these: 6.5 loaded as 6, "6" as 6,
    # 1.5 as 1, true as 1 and "5" as 5
    record = {"name": "typed", "n": 6, "substitution": "t=u",
              "spinor": _S5, "lambda": [[] for _ in range(6)], "notes": ""}
    entry = {"i": 1, "j": 5, "coeff": "t"}
    if field == "n":
        record["n"] = value
        message = f"error: bad model record: n must be an integer, " \
            f"got {value!r}\n"
    else:
        entry[field] = value
        message = f"error: slot 1: bad entry {entry!r}\n"
    record["lambda"][0].append(entry)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        for command in ("report", "dump"):
            assert _run([command, str(path)]) == (2, message)


@pytest.mark.parametrize("field, value", [
    ("name", []), ("name", None), ("name", 7), ("notes", 3),
    ("notes", None), ("notes", ["a"])])
def test_non_string_name_or_notes_exit2(field, value):
    # these loaded: "name": [] reported as "model []", and dump wrote
    # "notes": 3 back as a number
    record = {"name": "typed", "n": 6, "substitution": "t=u",
              "spinor": _S5, "lambda": [[] for _ in range(6)], "notes": ""}
    record[field] = value
    message = f"error: bad model record: {field} must be a string, " \
        f"got {value!r}\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(record), encoding="utf-8")
        for command in ("report", "dump"):
            assert _run([command, str(path)]) == (2, message)
