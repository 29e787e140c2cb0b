"""The one JSON writer of the CLI's structured output and of `dump`.

`dumps(value)` is `json.dumps(value, sort_keys=True, indent=2)`, byte for
byte, for every value the program prints: dicts with str keys, lists,
str, int, bool, None and float.  The standard library writes an
indented document through its pure-Python encoder; this one builds each
container with one `str.join`, a list of strings in a single join, and
escapes strings with the same C `encode_basestring_ascii`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")


def dumps(value) -> str:
    """json.dumps(value, sort_keys=True, indent=2)."""
    return _encode(value, "\n")


def _encode(value, newline):
    """value as JSON text; newline is "\\n" and the indent of its line."""
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        # _string refuses a key that is not a str
        items = [_string(key) + ": " + _encode(v, inner)
                 for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        separator = "," + inner
        try:   # a list of strings, in one join
            body = separator.join(map(_string, value))
        except TypeError:
            body = separator.join([_encode(v, inner) for v in value])
        return "[" + inner + body + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} "
                    "is not JSON serializable")


def _float(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the writer of each leaf type, by exact type
_LEAVES = {str: _string, int: int.__repr__, float: _float,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}
