"""The CLI's JSON writer against the standard library's.

`jsontext.dumps(v)` must be `json.dumps(v, sort_keys=True, indent=2)`
byte for byte on every value the program prints.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from spinharm.jsontext import dumps

_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ \ud800'),
    st.characters()), max_size=12)
_LEAVES = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e300,
                     5e-324]),
    _TEXT)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(_TEXT, max_size=5),
        st.dictionaries(_TEXT, inner, max_size=5)),
    max_leaves=30)


def _reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert dumps(value) == _reference(value)


@pytest.mark.parametrize("value", [
    {}, [], "", [[]], {"a": {}}, {"a": []}, [{}, [], ""],
    ["é", " ", "\ud800", '"', "\\", "\x00\x1f\x7f"],
    {"é": 1, "b\n": [True, False, None], "a": -0.0},
    [math.nan, math.inf, -math.inf, -0.0, 0.1, 1e16, 2 ** 70],
    {"z": {"y": {"x": [1, [2, [3, {"w": "v"}]]]}}}])
def test_edge_values(value):
    assert dumps(value) == _reference(value)


def test_unprintable_values_are_refused():
    for value in ({1: "a"}, {"a": object()}, [1j], {"a": {1, 2}}, ("a",)):
        with pytest.raises(TypeError):
            dumps(value)
