"""Recursive-descent parser for model-file coefficient expressions.

Grammar (standard precedence, ^ binds tightest, then unary minus, then * /,
then + -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' ['-'] INTEGER]
    atom   := INTEGER | 't' | 'u' | '(' expr ')'

Expressions may mention both t and u; t is rewritten through the model's
substitution before any arithmetic, so model files can quote coefficients
like (1-t)/(2*u) verbatim.  Folding happens in exact Scalar arithmetic;
division by a subexpression that folds to zero is rejected with a position,
and so is any step whose result outgrows MAX_DEGREE or MAX_COEFF_BITS, any
token past the first MAX_TOKENS, and any step that takes the cumulative
folding work past MAX_FOLD_WORK, or past MAX_FILE_FOLD_WORK for all the
coefficients of one model file.  Those share one FoldBudget, which folds
each distinct string once per file: a repeat reuses the Scalar and charges
its work again, so the file limit trips at the same entry and column.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Scalar, Substitution


# parentheses and unary minuses open at once; each '(' costs five frames of
# recursion, so this stays well inside Python's default recursion limit
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i + 1))
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


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}", tok[2])
        return tok

    def nest(self, pos, parse):
        """Run parse one nesting level deeper, refusing past MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError("trailing input", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.advance()
            rhs = self.term()
            node = (op, node, rhs, pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.unary()
            node = (op, node, rhs, pos)
        return node

    def unary(self):
        tok = self.peek()
        if tok[0] == "-":
            _, _, pos = self.advance()
            return ("neg", self.nest(pos, self.unary), pos)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            sign = 1
            if self.peek()[0] == "-":
                self.advance()
                sign = -1
            tok = self.expect("int")
            node = ("pow", node, sign * tok[1], pos)
        return node

    def atom(self):
        tok = self.advance()
        kind, value, pos = tok
        if kind == "int":
            return ("int", value, pos)
        if kind == "sym":
            return ("sym", value, pos)
        if kind == "(":
            node = self.nest(pos, self.expr)
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return node
        raise ParseError("expected a number, symbol, or '('", pos)


def parse_coeff(text):
    """Parse a coefficient expression into an AST."""
    return _Parser(text).parse()


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


def fold(node, sub: Substitution, budget=None) -> Scalar:
    """Evaluate an AST to a Scalar, binding t through the substitution.

    A chain like t+t+...+t parses into a left-nested tree as deep as it is
    long, so the left spine of binary operators is walked in a loop; only
    right operands and bracketed or negated subexpressions recurse, and
    MAX_NESTING bounds those.  Every step's result is checked against
    MAX_DEGREE and MAX_COEFF_BITS, and every binary step is charged to
    MAX_FOLD_WORK, and to the file's budget when one is given, before it is
    computed; a breach is reported at its operator.
    """
    work = 0

    def walk(node):
        """(value, u-degree) of a subtree."""
        nonlocal work
        spine = []
        while node[0] in _BINARY:
            spine.append(node)
            node = node[1]
        kind = node[0]
        if kind == "int":
            acc = Scalar.rational(node[1])
        elif kind == "sym":
            acc = Scalar.u() if node[1] == "u" else sub.t_as_scalar()
        elif kind == "neg":
            acc = -walk(node[1])[0]
        elif kind == "pow":
            base = walk(node[1])[0]
            exp = node[2]
            if exp < 0 and base.is_zero:
                raise ParseError("division by zero", node[3])
            degree, bits = _size(base)
            _check_size(abs(exp) * degree, abs(exp) * bits, node[3])
            acc = base ** exp
        else:
            raise ParseError(f"unknown operator {kind!r}", node[-1])
        degree, bits = _size(acc)
        _check_size(degree, bits, node[-1])
        for op, _, rhs, pos in reversed(spine):
            b, b_degree = walk(rhs)
            if op == "/" and b.is_zero:
                raise ParseError("division by zero", pos)
            cost = (degree + 1) * (b_degree + 1)
            work += cost
            if work > MAX_FOLD_WORK:
                raise ParseError(f"folding work above {MAX_FOLD_WORK}", pos)
            if budget is not None:
                budget.charge(cost, pos)
            acc = _BINARY[op](acc, b)
            degree, bits = _size(acc)
            _check_size(degree, bits, pos)
        return acc, degree

    return walk(node)[0]


def parse_fraction(text: str) -> Fraction:
    """A rational literal in Fraction's syntax ("3/4", "-0.25", "1e-3");
    ValueError unless it is one with numerator and denominator within
    MAX_COEFF_BITS.  Its digits and exponent are counted first (a decimal
    digit carries over 3 bits), so "1e100000000" is refused unbuilt."""
    mantissa, _, exp = text.lower().partition("e")
    try:
        size = sum(c.isdigit() for c in mantissa) + abs(int(exp or 0))
        f = Fraction(text) if 3 * size <= MAX_COEFF_BITS else None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational: {text!r}") from None
    if f is None or max(f.numerator.bit_length(),
                        f.denominator.bit_length()) > MAX_COEFF_BITS:
        raise ValueError(f"rational above {MAX_COEFF_BITS} bits: {text!r}")
    return f


def parse_scalar(text, sub: Substitution, budget=None) -> Scalar:
    """Parse and fold a coefficient string in one step, charging the
    folding work to budget (a FoldBudget) when one is given."""
    return fold(parse_coeff(text), sub, budget)
