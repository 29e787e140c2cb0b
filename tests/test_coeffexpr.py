import contextlib
import json
import time
from pathlib import Path

import pytest

from spinharm import coeffexpr, homogeneous
from spinharm.coeffexpr import (MAX_COEFF_BITS, MAX_DEGREE,
                                MAX_FOLD_TABLE_BYTES, MAX_FOLD_WORK,
                                MAX_NESTING, MAX_TOKENS, FoldBudget,
                                ParseError, parse_scalar)
from spinharm.homogeneous import _BUILTIN_DATA, HomogeneousModel, ModelError
from spinharm.scalars import Scalar, Substitution

U = Scalar.u()
T_U2 = Substitution.T_EQUALS_U_SQUARED
T_HALF = Substitution.T_EQUALS_HALF_U_SQUARED
T_ID = Substitution.T_EQUALS_U


def sc(p, q=1):
    return Scalar.rational(p, q)


def test_cp3_coefficient_shape():
    s = parse_scalar("(1-t)/(2*u)", T_U2)
    assert s == (sc(1) - U * U) / (sc(2) * U)


def test_linear_in_t():
    s = parse_scalar("3/2 - t", T_ID)
    assert s == sc(3, 2) - U


def test_truncated_input_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("1/(2*", T_ID)
    assert "column 5" in str(err.value)


def test_unclosed_paren():
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_scalar("(1-t", T_ID)


def test_unknown_character_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 + x", T_ID)
    assert "column 5" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("1/0 +", "division by zero at column 2"),
    ("u^200 + (", f"degree above {MAX_DEGREE} at column 2"),
    # the tokenizer runs first: a stray character is met before any folding
    ("t/0 x", "unexpected character 'x' at column 5")])
def test_first_fault_met_is_reported(text, message):
    # the string is folded as it is read, so a fault at an operator is
    # reported before a syntax fault further right
    with pytest.raises(ParseError) as err:
        parse_scalar(text, T_ID)
    assert str(err.value) == message


@pytest.mark.parametrize("digits", [MAX_COEFF_BITS // 3,       # built
                                    MAX_COEFF_BITS // 3 + 1,   # not built
                                    5000])   # past Python's int-string limit
def test_huge_integer_refused_at_its_column(digits):
    with pytest.raises(ParseError) as err:
        parse_scalar("t+" + "9" * digits, T_ID)
    assert str(err.value) == \
        f"coefficient above {MAX_COEFF_BITS} bits at column 3"


def test_leading_zeros_are_not_counted():
    assert parse_scalar("0" * 5000 + "1", T_ID) == sc(1)
    assert parse_scalar("0" * 5000, T_ID) == sc(0)


def test_precedence_power_over_product():
    assert parse_scalar("1+2*3", T_ID) == sc(7)
    assert parse_scalar("2^3*2", T_ID) == sc(16)
    assert parse_scalar("2*3+4*5", T_ID) == sc(26)


def test_unary_minus_binds_below_power():
    assert parse_scalar("-t^2", T_ID) == -(U * U)


def test_negative_exponent():
    assert parse_scalar("u^-2", T_U2) == sc(1) / (U * U)


def test_power_of_parenthesized_expression():
    s = parse_scalar("(1-t)^2/t", T_ID)
    assert s == (sc(1) - U) ** 2 / U


def test_division_by_zero_literal_rejected():
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("1/(2-2)", T_ID)
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("1/0", T_ID)


def test_zero_to_negative_power_rejected():
    with pytest.raises(ParseError, match="division by zero"):
        parse_scalar("(1-1)^-1", T_ID)


def test_substitution_binds_t():
    assert parse_scalar("t", T_U2) == U * U
    assert parse_scalar("t", T_HALF) == U * U / sc(2)
    assert parse_scalar("t", T_ID) == U


def test_whitespace_tolerated():
    assert parse_scalar("  ( 1 - t ) / ( 2 * u )  ", T_U2) == \
        parse_scalar("(1-t)/(2*u)", T_U2)


def test_fold_spin4_coefficient():
    # (1-t)/sqrt(2t) with u = sqrt(2t)
    s = parse_scalar("(1-t)/u", T_HALF)
    assert s == (sc(2) - U * U) / (sc(2) * U)


@pytest.mark.parametrize("text", ["(" * 5000 + "t" + ")" * 5000,
                                  "-" * 5000 + "t"])
def test_deep_nesting_rejected_with_position(text):
    with pytest.raises(ParseError) as err:
        parse_scalar(text, T_ID)
    assert f"nesting deeper than {MAX_NESTING}" in str(err.value)
    assert err.value.position == MAX_NESTING + 1


def test_nesting_at_the_limit_parses():
    depth = MAX_NESTING
    assert parse_scalar("(" * depth + "t" + ")" * depth, T_ID) == U
    assert parse_scalar("-" * depth + "t", T_ID) == U * sc((-1) ** depth)


def test_long_operator_chain_folds_without_recursion():
    chain = "+".join(["t"] * 5000)
    assert parse_scalar(chain, T_ID) == sc(5000) * U
    assert parse_scalar("*".join(["1"] * 5000) + "/t", T_ID) == sc(1) / U


def test_token_limit_boundary():
    # "-1+1+...+1": exactly MAX_TOKENS tokens, spaces not counted
    ones = MAX_TOKENS // 2
    assert parse_scalar("-" + " + ".join(["1"] * ones), T_ID) == sc(ones - 2)
    with pytest.raises(ParseError, match=f"more than {MAX_TOKENS} tokens") \
            as err:
        parse_scalar("+".join(["1"] * (ones + 1)), T_ID)
    # the first excess token, one column per token
    assert err.value.position == MAX_TOKENS + 1
    with pytest.raises(ParseError) as err:
        parse_scalar("t  " * (MAX_TOKENS + 1), T_ID)
    assert err.value.position == 3 * MAX_TOKENS + 1


def test_long_product_chain_refused_at_degree_limit():
    chain = "*".join(["(t+1)"] * 2000)
    with pytest.raises(ParseError, match=f"degree above {MAX_DEGREE}") as err:
        parse_scalar(chain, T_ID)
    # the '*' that brings in factor MAX_DEGREE + 1, six columns per factor
    assert err.value.position == 6 * MAX_DEGREE


def test_degree_limit_boundary():
    assert parse_scalar(f"u^{MAX_DEGREE}", T_ID) == U ** MAX_DEGREE
    assert parse_scalar(f"1/u^{MAX_DEGREE}", T_ID) == sc(1) / U ** MAX_DEGREE
    for text in (f"u^{MAX_DEGREE + 1}", f"u^{MAX_DEGREE}*u",
                 f"u^-{MAX_DEGREE + 1}", f"t^{MAX_DEGREE // 2 + 1}"):
        sub = T_U2 if "t" in text else T_ID
        with pytest.raises(ParseError, match="degree above"):
            parse_scalar(text, sub)


def test_coefficient_bits_boundary():
    # a power is bounded before it is computed by |exp| * bits of its base
    half = MAX_COEFF_BITS // 2
    assert parse_scalar(f"2^{half}", T_ID) == sc(2 ** half)
    assert parse_scalar(f"1/3^{half}", T_ID) == sc(1, 3 ** half)
    with pytest.raises(ParseError, match="bits at column 2"):
        parse_scalar(f"2^{half + 1}", T_ID)
    big = str(2 ** MAX_COEFF_BITS)   # MAX_COEFF_BITS + 1 bits
    with pytest.raises(ParseError, match="bits at column 1"):
        parse_scalar(big, T_ID)
    with pytest.raises(ParseError, match="bits at column 4"):
        parse_scalar(f"t/({big})", T_ID)


def test_negated_huge_literal_is_refused_at_the_literal():
    # a negation keeps its operand's size: the literal itself is refused
    big = str(2 ** MAX_COEFF_BITS)   # MAX_COEFF_BITS + 1 bits
    with pytest.raises(ParseError) as err:
        parse_scalar(f"t + -{big}", T_ID)
    assert str(err.value) == \
        f"coefficient above {MAX_COEFF_BITS} bits at column 6"


def test_division_by_zero_left_of_a_huge_literal_is_reported_first():
    # 1,234 digits: over MAX_COEFF_BITS bits, within the tokenizer's 1,365
    digits = "9" * 1234
    assert len(digits) <= MAX_COEFF_BITS // 3 < MAX_COEFF_BITS < \
        int(digits).bit_length()
    for text in (f"t/0 + {digits}", f"t/0*{digits}", f"-(t/0)-{digits}"):
        with pytest.raises(ParseError) as err:
            parse_scalar(text, T_ID)
        assert str(err.value) == \
            f"division by zero at column {text.index('/') + 1}"


@pytest.mark.parametrize("text, message", [
    ("u^1000000000", "degree above"), ("t^-1000000000", "degree above"),
    ("2^1000000000", "bits"), ("(1/2)^-1000000000", "bits")])
def test_huge_powers_refused_before_computing(text, message):
    with pytest.raises(ParseError, match=message):
        parse_scalar(text, T_U2)


def test_fold_work_limit_boundary():
    # each '+' of t^49 + t^49 + ... is charged (49 + 1) * (49 + 1)
    steps, rest = divmod(MAX_FOLD_WORK, 50 * 50)
    assert rest == 0
    at_limit = "+".join(["t^49"] * (steps + 1))
    assert parse_scalar(at_limit, T_ID) == sc(steps + 1) * U ** 49
    over = at_limit + "+t^49"
    with pytest.raises(ParseError, match="folding work above") as err:
        parse_scalar(over, T_ID)
    assert err.value.position == len(at_limit) + 1
    assert over[err.value.position - 1] == "+"


def test_fold_work_limit_stops_sum_of_large_fractions():
    text = "+".join(["(t+1)^60/(t+2)^60"] * 750)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="folding work above") as err:
        parse_scalar(text, T_ID)
    assert time.perf_counter() - start < 2
    assert text[err.value.position - 1] in "+/"


# ---------------------------------------------------------------------------
# one fold per distinct string in a process, its work charged each time

MODELS_DIR = Path(__file__).parent / "data" / "models"
RECORDS = [_BUILTIN_DATA[name] for name in sorted(_BUILTIN_DATA)] + [
    json.loads(p.read_text()) for p in sorted(MODELS_DIR.glob("*.json"))]


@pytest.fixture
def fold_table():
    """The process's fold table, empty when the test starts and ends."""
    coeffexpr._FOLDS.clear()
    yield coeffexpr._FOLDS
    coeffexpr._FOLDS.clear()


@pytest.fixture
def loader_budgets(monkeypatch):
    """The FoldBudget of every model record loaded in the test."""
    made = []

    class Recorded(FoldBudget):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(homogeneous, "FoldBudget", Recorded)
    return made


def _entries(record):
    return [(k, ent) for k, entries in enumerate(record["lambda"], 1)
            for ent in entries]


def _fresh_fold(record):
    """Every entry folded afresh in file order, charged to one budget:
    (total work, the load error it meets or None)."""
    sub = Substitution.from_label(record["substitution"])
    budget = FoldBudget()
    for k, ent in _entries(record):
        try:
            parse_scalar(ent["coeff"], sub, budget)
        except ParseError as exc:
            return budget.work, f"slot {k} ({ent['i']},{ent['j']}): {exc}"
    return budget.work, None


def _load(record, warm, loader_budgets):
    """HomogeneousModel.from_dict(record) on an empty fold table, or, when
    warm, after an earlier load has kept the record's folds in it: the
    model, or the load's ModelError with its budget's work."""
    if warm:
        with contextlib.suppress(ModelError):
            HomogeneousModel.from_dict(record)
        loader_budgets.clear()
    try:
        return HomogeneousModel.from_dict(record), loader_budgets[0].work
    except ModelError as exc:
        return exc, loader_budgets[0].work


@pytest.mark.parametrize(
    "record, warm",
    [(r, False) for r in RECORDS] + [(r, True) for r in RECORDS],
    ids=[r["name"] for r in RECORDS] + [r["name"] + "-warm" for r in RECORDS])
def test_file_fold_work_equals_the_sum_over_entries(record, warm, fold_table,
                                                    loader_budgets):
    sub = Substitution.from_label(record["substitution"])
    per_entry = 0
    for _, ent in _entries(record):
        budget = FoldBudget()
        parse_scalar(ent["coeff"], sub, budget)
        per_entry += budget.work
    model, work = _load(record, warm, loader_budgets)
    assert isinstance(model, HomogeneousModel)
    assert len(loader_budgets) == 1
    assert work == per_entry == _fresh_fold(record)[0]
    kept = {text for text, label in fold_table if label == sub.label}
    assert kept == {ent["coeff"] for _, ent in _entries(record)}


_HEAVY = "+".join(["(t+1)^60/(t+2)^60"] * 26)
_LIGHT = "+".join(["(t+1)^9/(t+3)^9"] * 40)


# H costs 189,875 units of folding work and L 8,060: each layout passes
# MAX_FILE_FOLD_WORK inside a repeat, of H (the first three) or of L
_LAYOUTS = ["HHHHHH", "HLHLHHH", "LLLLLHHHHH", "HHHHLLLLLLL", "HLLHLLHLLHLL"]


@pytest.mark.parametrize(
    "layout, warm",
    [(k, False) for k in _LAYOUTS] + [(k, True) for k in _LAYOUTS],
    ids=_LAYOUTS + [k + "-warm" for k in _LAYOUTS])
def test_repeated_heavy_string_trips_where_a_fresh_fold_does(
        layout, warm, flat6_dict, fold_table, loader_budgets):
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    for k, (kind, (i, j)) in enumerate(zip(layout, pairs)):
        flat6_dict["lambda"][k % 6].append(
            {"i": i, "j": j, "coeff": _HEAVY if kind == "H" else _LIGHT})
    work, message = _fresh_fold(flat6_dict)
    assert "model-file folding work above" in message
    err, loaded_work = _load(flat6_dict, warm, loader_budgets)
    assert isinstance(err, ModelError)
    assert str(err) == message
    column = err.__cause__.position
    assert 1 < column < len(_HEAVY)
    assert loaded_work == work
    # each string was folded whole before the trip, and kept
    assert set(fold_table) == {(_HEAVY if kind == "H" else _LIGHT, "t=u")
                               for kind in layout}


def _kept_bytes(text, value):
    degree, bits = coeffexpr._size(value)
    return len(text) + 2 * (degree + 2) * (bits // 8 + 1)


def test_fold_table_stays_within_its_bound(fold_table):
    # far more distinct strings than the bound holds: the least recently
    # used go first, and an entry that alone passes the bound is not kept
    budget = FoldBudget()
    texts = [f"{k}*t+1/{k}" for k in range(1, 3001)]
    kept = 0
    for k, text in enumerate(texts):
        budget.parse(text, T_ID)
        if k >= 2:
            budget.parse(texts[1], T_ID)   # used again: stays
        kept += _kept_bytes(text, parse_scalar(text, T_ID))
        assert fold_table.size <= MAX_FOLD_TABLE_BYTES
    assert kept > 2 * MAX_FOLD_TABLE_BYTES
    assert fold_table.size == sum(size for _, _, size in fold_table.values())
    assert (texts[0], "t=u") not in fold_table
    assert list(fold_table)[-2:] == [(texts[-1], "t=u"), (texts[1], "t=u")]
    before = list(fold_table)
    big = "(t+1)^128*" + "9" * 1150
    value = budget.parse(big, T_ID)
    assert _kept_bytes(big, value) > MAX_FOLD_TABLE_BYTES
    assert list(fold_table) == before   # nothing kept, nothing evicted


def test_fold_table_keys_on_the_substitution_and_keeps_no_fault(fold_table):
    budget = FoldBudget()
    assert budget.parse("t", T_ID) == U
    assert budget.parse("t", T_U2) == U * U
    assert budget.parse("t", T_HALF) == U * U / sc(2)
    for text in ("1/0", "t+", "(t+1)^200"):
        with pytest.raises(ParseError):
            budget.parse(text, T_ID)
    assert set(fold_table) == {("t", "t=u"), ("t", "t=u^2"),
                               ("t", "t=u^2/2")}
