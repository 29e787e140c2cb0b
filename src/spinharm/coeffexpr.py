"""One-pass reader for model-file coefficient expressions.

Grammar (standard precedence, ^ binds tightest, then unary minus, then * /,
then + -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' ['-'] INTEGER]
    atom   := INTEGER | 't' | 'u' | '(' expr ')'
    INTEGER := a run of the ASCII digits 0-9 (no other Unicode digit)

Expressions may mention both t and u; t is rewritten through the model's
substitution before any arithmetic, so model files can quote coefficients
like (1-t)/(2*u) verbatim.  The tokenizer runs first and refuses any token
past the first MAX_TOKENS and any integer literal of more than
MAX_COEFF_BITS // 3 significant digits.  One recursive descent then folds
each rule to its exact Scalar value as it reads it, with no syntax tree in
between, so the first fault met is reported.  Division by a subexpression
that folds to zero is rejected with a position, and so is any step whose
result outgrows MAX_DEGREE or MAX_COEFF_BITS, and any step that takes the
cumulative folding work past MAX_FOLD_WORK, or past MAX_FILE_FOLD_WORK for
all the coefficients of one model file.  Those share one FoldBudget.  A
string is folded once per process while it stays in the fold table: every
fold that succeeds is kept there, with its work, keyed by (string,
substitution label), within MAX_FOLD_TABLE_BYTES, least recently used out
first.  A repeat, in the same file or in any later one, reuses the Scalar
and charges its recorded work again, so every limit trips at the same
entry and column as on a fresh fold.  A fault is never kept.  The fold
table is a BoundedTable, the one least-recently-used table of the package,
which also keeps the cleared Wang-map slots of `homogeneous`.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from fractions import Fraction

from .scalars import Scalar, Substitution, quote


# parentheses and unary minuses open at once; each '(' costs five frames of
# recursion (expr, term, unary, power, atom) and each '-' one, so this stays
# well inside Python's default recursion limit
MAX_NESTING = 100

# size of every folded value: the u-degree of its numerator and denominator,
# and the bit length of every integer in their normal form (coefficients over
# one common denominator).  They bound the cost of folding, which grows with
# both; a power is checked before it is computed, from |exp| times the base's
# degree and bits (an upper bound on the result's)
MAX_DEGREE = 128
MAX_COEFF_BITS = 4096

# tokens in one coefficient string, whitespace not counted: bounds the
# length of the input, which the limits above do not, before any folding
MAX_TOKENS = 12_000

# cumulative folding work in one coefficient string: each + - * / step is
# charged (d_a + 1) * (d_b + 1) for operands of u-degrees d_a and d_b, the
# size of the polynomial products and gcds it needs.  The limits above bound
# one step; this bounds their sum, which a long chain of large operands
# (a sum of hundreds of degree-60 fractions) would otherwise run up to
# minutes of folding.  A built-in coefficient uses at most a few hundred
# units, and the longest test input (t+t+...+t, 5,000 terms) about 20,000
MAX_FOLD_WORK = 200_000

# cumulative folding work in one model file, charged the same way by every
# coefficient parsed with one FoldBudget: without it a file could hold one
# coefficient at MAX_FOLD_WORK per Wang-map entry (147 for n = 7)
MAX_FILE_FOLD_WORK = 4 * MAX_FOLD_WORK

# bytes retained by the fold table, which keeps every folded coefficient
# string of the process with its value: a model record read again (a
# built-in's dump reloaded, a perturbed copy of one) folds only what is new
MAX_FOLD_TABLE_BYTES = 1 << 15

# bytes retained by the slot table of `homogeneous`, which keeps the record
# of every cleared Wang-map slot analysed in the process: a model that
# shares slots with one analysed before (a built-in's perturbed copy)
# analyses only its new slots.  The 19 built-in slots count about 1,800
# bytes and a slot perturbed by (t - p/q) 200 to 900, so the built-in
# slots stay resident while a dozen perturbed copies come and go
MAX_SLOT_TABLE_BYTES = 1 << 13


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at column {position}")
        self.position = position


class FoldBudget:
    """Folding work shared by the coefficients of one model file."""

    __slots__ = ("work",)

    def __init__(self):
        self.work = 0

    def charge(self, cost, pos):
        self.work += cost
        if self.work > MAX_FILE_FOLD_WORK:
            raise ParseError(
                f"model-file folding work above {MAX_FILE_FOLD_WORK}", pos)

    def parse(self, text, sub: Substitution) -> Scalar:
        """parse_scalar(text, sub, self), or its value from the fold table
        with its recorded work charged; a repeat that would pass
        MAX_FILE_FOLD_WORK is folded afresh to name its column."""
        if type(text) is not str:   # a JSON list would tokenize as a string
            raise TypeError(f"coefficient {text!r} is not a string")
        key = (text, sub.label)
        hit = _FOLDS.get(key)
        if hit is not None and self.work + hit[1] <= MAX_FILE_FOLD_WORK:
            _FOLDS.move_to_end(key)
            self.work += hit[1]
            return hit[0]
        start = self.work
        value = parse_scalar(text, sub, self)
        _FOLDS.keep(key, (value, self.work - start),
                    len(text) + scalar_bytes(value))
        return value


class BoundedTable(OrderedDict):
    """key -> the fields of a kept value followed by the bytes it retains,
    least recently used first, within `limit` bytes in all.  A caller
    counts the bytes with scalar_bytes and moves a key it reads to the end;
    a value larger than the limit is not kept."""

    __slots__ = ("limit", "size")

    def __init__(self, limit):
        super().__init__()
        self.limit = limit
        self.size = 0

    def clear(self):
        super().clear()
        self.size = 0

    def keep(self, key, value, size):
        """Keep the tuple value under a key not in the table, evicting
        from the old end."""
        if size > self.limit:
            return
        self[key] = (*value, size)
        self.size += size
        while self.size > self.limit:
            self.size -= self.popitem(last=False)[1][-1]


# (text, substitution label) -> (Scalar, fold work, retained bytes): an
# entry retains its text's length and its value's scalar_bytes
_FOLDS = BoundedTable(MAX_FOLD_TABLE_BYTES)


_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if len(tokens) == MAX_TOKENS:
            raise ParseError(f"more than {MAX_TOKENS} tokens", i + 1)
        if ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i + 1))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            # over MAX_COEFF_BITS // 3 significant digits is over 2^4096
            digits = text[i:j].lstrip("0")
            if len(digits) > MAX_COEFF_BITS // 3:
                raise ParseError(
                    f"coefficient above {MAX_COEFF_BITS} bits", i + 1)
            tokens.append(("int", int(digits or "0"), i + 1))
            i = j
            continue
        if ch in ("t", "u"):
            tokens.append(("sym", ch, i + 1))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i + 1)
    # EOF reports at the last column so truncated input points at the culprit
    tokens.append(("end", None, max(len(text), 1)))
    return tokens


_BINARY = {"+": Scalar.__add__, "-": Scalar.__sub__,
           "*": Scalar.__mul__, "/": Scalar.__truediv__}


def _size(s: Scalar):
    """(u-degree, bits) of a Scalar, as bounded by MAX_DEGREE and
    MAX_COEFF_BITS."""
    num, den = s.num, s.den
    return max(num.degree, den.degree), max(num.bits(), den.bits())


def scalar_bytes(s: Scalar):
    """The bytes a kept Scalar is counted to retain: 2 * (degree + 2)
    integers of the bit length _size reads (numerator and denominator,
    their coefficients and common denominator)."""
    degree, bits = _size(s)
    return 2 * (degree + 2) * (bits // 8 + 1)


def _check_size(degree, bits, pos):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree above {MAX_DEGREE}", pos)
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficient above {MAX_COEFF_BITS} bits", pos)


class _Fold:
    """The recursive descent over a coefficient's tokens: each rule returns
    (value, u-degree) of what it has read.  expr and term fold their chains
    left to right in a loop; only brackets and unary minus recurse.  Only a
    step or a power can grow a value, so only their results are measured:
    an integer literal is checked by its bit length where it is read, and a
    symbol or a negation keeps within the limits what it starts from."""

    __slots__ = ("tokens", "i", "depth", "work", "sub", "budget")

    def __init__(self, text, sub: Substitution, budget):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.work = 0
        self.sub = sub
        self.budget = budget

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def deeper(self, pos):
        """Open one nesting level, refusing past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
        self.depth += 1

    def checked(self, value, pos):
        """(value, u-degree), its size checked at pos."""
        degree, bits = _size(value)
        _check_size(degree, bits, pos)
        return value, degree

    def step(self, op, a, a_degree, b, b_degree, pos):
        """a op b, its work charged before it is computed."""
        if op == "/" and b.is_zero:
            raise ParseError("division by zero", pos)
        cost = (a_degree + 1) * (b_degree + 1)
        self.work += cost
        if self.work > MAX_FOLD_WORK:
            raise ParseError(f"folding work above {MAX_FOLD_WORK}", pos)
        if self.budget is not None:
            self.budget.charge(cost, pos)
        return self.checked(_BINARY[op](a, b), pos)

    def expr(self):
        acc, degree = self.term()
        while self.tokens[self.i][0] in ("+", "-"):
            op, _, pos = self.advance()
            b, b_degree = self.term()
            acc, degree = self.step(op, acc, degree, b, b_degree, pos)
        return acc, degree

    def term(self):
        acc, degree = self.unary()
        while self.tokens[self.i][0] in ("*", "/"):
            op, _, pos = self.advance()
            b, b_degree = self.unary()
            acc, degree = self.step(op, acc, degree, b, b_degree, pos)
        return acc, degree

    def unary(self):
        kind, _, pos = self.tokens[self.i]
        if kind != "-":
            return self.power()
        self.i += 1
        self.deeper(pos)
        value, degree = self.unary()
        self.depth -= 1
        return -value, degree   # the same degree and bits

    def power(self):
        base, degree = self.atom()
        kind, _, pos = self.tokens[self.i]
        if kind != "^":
            return base, degree
        self.i += 1
        sign = 1
        if self.tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        kind, exp, at = self.advance()
        if kind != "int":
            raise ParseError("expected 'int'", at)
        exp *= sign
        if exp < 0 and base.is_zero:
            raise ParseError("division by zero", pos)
        bits = _size(base)[1]
        _check_size(abs(exp) * degree, abs(exp) * bits, pos)
        return self.checked(base ** exp, pos)

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            if value.bit_length() > MAX_COEFF_BITS:
                raise ParseError(
                    f"coefficient above {MAX_COEFF_BITS} bits", pos)
            return Scalar.rational(value), 0
        if kind == "sym":
            value = Scalar.u() if value == "u" else self.sub.t
            return value, value.num.degree   # u, u^2/m: within every limit
        if kind != "(":
            raise ParseError("expected a number, symbol, or '('", pos)
        self.deeper(pos)
        inner = self.expr()
        self.depth -= 1
        kind, _, at = self.advance()
        if kind != ")":
            raise ParseError("expected ')'", at)
        return inner


# a sign, then digits/digits or a decimal with an optional exponent, in
# ASCII digits: Fraction alone would also read any Unicode digit, '_'
# digit grouping and surrounding whitespace
_RATIONAL = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")


def parse_fraction(text: str) -> Fraction:
    """A rational literal ("3/4", "-0.25", "1e-3", see _RATIONAL);
    ValueError unless it is one with numerator and denominator within
    MAX_COEFF_BITS.  Its digits and exponent are counted first (a decimal
    digit carries over 3 bits), so "1e100000000" is refused unbuilt."""
    mantissa, _, exp = text.lower().partition("e")
    try:
        if not _RATIONAL.fullmatch(text):
            raise ValueError
        size = sum(c.isdigit() for c in mantissa) + abs(int(exp or 0))
        f = Fraction(text) if 3 * size <= MAX_COEFF_BITS else None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {quote(text)}") from None
    if f is None or max(f.numerator.bit_length(),
                        f.denominator.bit_length()) > MAX_COEFF_BITS:
        raise ValueError(
            f"rational above {MAX_COEFF_BITS} bits: {quote(text)}")
    return f


def parse_scalar(text, sub: Substitution, budget=None) -> Scalar:
    """Fold a coefficient string to a Scalar in one pass, charging the
    folding work to budget (a FoldBudget) when one is given."""
    fold = _Fold(text, sub, budget)
    value = fold.expr()[0]
    kind, _, pos = fold.tokens[fold.i]
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value
