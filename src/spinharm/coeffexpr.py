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
all the coefficients of one model file.  Those share one FoldBudget, which
folds each distinct string once per file: a repeat reuses the Scalar and
charges its work again, so the file limit trips at the same entry and
column.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import Scalar, Substitution


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


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at column {position}")
        self.position = position


class FoldBudget:
    """Folding work shared by the coefficients of one model file."""

    __slots__ = ("work", "_folded")

    def __init__(self):
        self.work = 0
        self._folded = {}

    def charge(self, cost, pos):
        self.work += cost
        if self.work > MAX_FILE_FOLD_WORK:
            raise ParseError(
                f"model-file folding work above {MAX_FILE_FOLD_WORK}", pos)

    def parse(self, text, sub: Substitution) -> Scalar:
        """parse_scalar(text, sub, self), once per distinct string; a repeat
        that would pass MAX_FILE_FOLD_WORK is folded afresh to name its
        column."""
        if type(text) is not str:   # a JSON list would tokenize as a string
            raise TypeError(f"coefficient {text!r} is not a string")
        hit = self._folded.get(text)
        if hit is not None and self.work + hit[1] <= MAX_FILE_FOLD_WORK:
            self.work += hit[1]
            return hit[0]
        start = self.work
        value = parse_scalar(text, sub, self)
        self._folded[text] = (value, self.work - start)
        return value


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
    bits = max(c.bit_length() for p in (num, den) for c in p.ints + (p.dd,))
    return max(num.degree, den.degree), bits


def _check_size(degree, bits, pos):
    if degree > MAX_DEGREE:
        raise ParseError(f"degree above {MAX_DEGREE}", pos)
    if bits > MAX_COEFF_BITS:
        raise ParseError(f"coefficient above {MAX_COEFF_BITS} bits", pos)


class _Fold:
    """The recursive descent over a coefficient's tokens: each rule returns
    (value, u-degree) of what it has read.  expr and term fold their chains
    left to right in a loop; only brackets and unary minus recurse."""

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
        value = -self.unary()[0]
        self.depth -= 1
        return self.checked(value, pos)

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
            return self.checked(Scalar.rational(value), pos)
        if kind == "sym":
            return self.checked(
                Scalar.u() if value == "u" else self.sub.t_as_scalar(), pos)
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
        raise ValueError(f"not a rational: {text!r}") from None
    if f is None or max(f.numerator.bit_length(),
                        f.denominator.bit_length()) > MAX_COEFF_BITS:
        raise ValueError(f"rational above {MAX_COEFF_BITS} bits: {text!r}")
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
