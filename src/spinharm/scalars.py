"""Exact arithmetic over the rational-function field Q(u).

Every geometric quantity in this package is a Scalar: a reduced fraction
num(u)/den(u) of univariate polynomials with arbitrary-precision rational
coefficients.  Square roots never appear explicitly; each homogeneous model
declares a Substitution binding the metric parameter t to u (t = u^2 encodes
u = sqrt(t), t = u^2/2 encodes u = sqrt(2t), t = u keeps t rational), so
coefficients like (1-t)/(2*sqrt(t)) become honest rational functions of u.

A polynomial is stored fraction-free: a tuple `ints` of Python ints in
increasing degree with no trailing zero, over one positive int denominator
`dd` with gcd(dd, *ints) = 1 (the representation of FLINT's fmpq_poly); the
zero polynomial is the empty tuple over 1.  Sums and products are integer
convolutions with one gcd per result, and exact division divides by the
divisor's primitive part (Gauss's lemma).  A gcd splits off the power of
u that its operands share and returns at once when either cofactor is a
constant; two cofactors of degree 4 or more are first tried by GCDHEU, in
one integer gcd of the two packed into ints, and otherwise by the
primitive PRS.  `Poly.coeffs` gives the coefficients back as Fractions.
Scalars keep den monic and gcd(num, den) = 1, which makes equality a
syntactic check and is used everywhere as the exact zero test.  A Scalar
whose denominator is 1 holds the shared ONE_POLY object itself, so
`den is ONE_POLY` is the polynomial test on hot paths.
Results already in this normal form (a sum of polynomials, a polynomial
plus a fraction, a negation, a product of polynomials or with a rational
constant) are built raw by `_scalar`; only the other cases run the
reducing constructor.  There a denominator c u^k (every built-in's common
denominator is u) shares only u^j with the numerator, j = min(k, the
power of u dividing it), which is cancelled by slicing the two integer
tuples, with no gcd.  Two rational constants (as in the Clifford
matrices) combine on their ints n/dd, as fmpq does, with one gcd per
result and no Poly arithmetic.  Every zero the kernel builds (a sum that
cancels, x - x, x * 0, -ZERO) is the one shared ZERO, and `+ - *` return
at once for an operand that is ZERO, or ONE in a product.  Small reduced
constants are shared, as CPython shares small ints: n/d with |n| < 64 and
d <= 64 is one object (`_SMALL`), found by the pair as passed before any
gcd, so `Scalar.rational(1) is ONE`.  This is safe because `Scalar` and
`Poly` have no code path that assigns `num`, `den`, `ints` or `dd` after
construction.  A point question ("is s zero at t0?") is answered by
`zero_at` alone: at an irrational u0 = sqrt(c) it tests the even and odd
parts of num and den at c, so no value type for Q(sqrt(c)) is needed.
`vanishes_at` decides each such test on integers, by homogeneous Horner
on the integer numerator or its even and odd slices, with no Fraction.
Root finding runs on ints, on the squarefree part f of the polynomial,
in the domain asked for: t > 0 (`positive_only`), or both sides of 0 and
t = 0.  An f of degree 1, or of degree 2 with no real root or a square
discriminant, is solved in closed form; any other f goes to continued
fractions (Taylor shifts and Descartes' rule of signs), which isolate
its real roots.  There a rational root p/q shows up exactly, and a root
left between Farey neighbours too close for a fraction whose denominator
divides the leading coefficient is irrational, so the one isolation
gives the rational roots and the irrational ones' count.  Either way
exact division by q t - p counts a rational root's multiplicity.
Verdicts are always decided exactly; floating point appears only in
eval_numeric, the one-value reference the float oracle (numeric.py) is
tested against.

This module alone knows how a value is stored.  The kernel API, the
names that the other modules import from it:

    Scalar Poly ZERO ONE ZERO_POLY ONE_POLY Substitution as_scalar
    poly_gcd rational_roots vanishes_at zero_at format_scalar
    IrrationalRoots clip quote

with Scalar's num, den, rational(), u(), is_zero, is_rational,
as_fraction() and operators, and Poly's degree, is_zero, bits(), eval(),
exact_div(), even_odd_parts(), scale_argument(), int_coeffs() and + - *;
rational_roots takes positive_only, and of its intervals only the number
is read.  Identity with ZERO or ONE and every lane above are speed only:
`Scalar(...)` still builds distinct zeros, and `tests/plain_kernel.py`,
with no shared object or lane, runs the whole CLI to the same bytes in a
tier-1 test.
"""

from __future__ import annotations

import math
from fractions import Fraction


MAX_QUOTE = 200   # characters of a value quoted in a message


def clip(text):
    """text, cut after MAX_QUOTE characters with the cut marked."""
    return text if len(text) <= MAX_QUOTE else text[:MAX_QUOTE] + "…"


def quote(value):
    """repr(value), clipped for a message."""
    return clip(repr(value))


class ScalarDomainError(ArithmeticError):
    """Base for exact-arithmetic domain errors."""


class NotExpressibleInT(ScalarDomainError):
    """A Scalar with odd powers of u surviving the substitution to t."""


class PoleError(ScalarDomainError):
    """Evaluation at a zero of the denominator."""


class IdenticallyZero(ScalarDomainError):
    """Root finding on the zero polynomial.  No verdict path meets it:
    `vanishing_verdict` returns ALL_T before it looks for any root."""


class IrrationalRoots(ScalarDomainError):
    """Common real roots that are not rational (no exact t-set to report)."""


class Poly:
    """Univariate polynomial over Q with coefficients ints[k]/dd in
    increasing degree, in the normal form of the module docstring."""

    __slots__ = ("ints", "dd")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"rational coefficient expected, got {type(c).__name__}")
        # reduced fractions over the lcm of their denominators share no
        # factor with it, so no gcd is needed here
        dd = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (dd // c.denominator) for c in coeffs]
        while ints and not ints[-1]:
            ints.pop()
        self.ints = tuple(ints)
        self.dd = dd

    @property
    def coeffs(self):
        dd = self.dd
        return tuple(Fraction(c, dd) for c in self.ints)

    @property
    def degree(self):
        return len(self.ints) - 1

    @property
    def is_zero(self):
        return not self.ints

    def bits(self):
        """The most bits of an integer in the fraction-free form: the
        coprime integer coefficients and their one positive denominator."""
        return max(map(int.bit_length, (self.dd, *self.ints)))

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return self is other or (isinstance(other, Poly)
                                 and self.ints == other.ints
                                 and self.dd == other.dd)

    def __hash__(self):
        return hash((self.ints, self.dd))

    def __add__(self, other):
        a, b, dd = self._over_common_dd(other)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _poly(out, dd)

    def __neg__(self):
        return _raw(tuple(-c for c in self.ints), self.dd)

    def __sub__(self, other):
        a, b, dd = self._over_common_dd(other)
        out = list(a) + [0] * (len(b) - len(a))
        for k, c in enumerate(b):
            out[k] -= c
        return _poly(out, dd)

    def _over_common_dd(self, other):
        """(a, b, dd): both numerators over the lcm dd of the denominators."""
        a, b, dd = self.ints, other.ints, self.dd
        if dd != other.dd:
            g = math.gcd(dd, other.dd)
            ma, mb = other.dd // g, dd // g
            a = [c * ma for c in a]
            b = [c * mb for c in b]
            dd *= ma
        return a, b, dd

    def __mul__(self, other):
        # Poly first: Fraction is ABC-registered, so testing it first would
        # send every Poly product through ABCMeta.__instancecheck__
        if isinstance(other, Poly):
            a, b = self.ints, other.ints
            if not a or not b:
                return ZERO_POLY
            if len(a) == 1:
                return other._scale(a[0], self.dd)
            if len(b) == 1:
                return self._scale(b[0], other.dd)
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return _poly(out, self.dd * other.dd)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def _scale(self, n, d):
        """self * n/d for ints n and d > 0."""
        if not n:
            return ZERO_POLY
        return _poly([c * n for c in self.ints], self.dd * d)

    def exact_div(self, other):
        """self/other; ValueError unless other divides self exactly.

        Long division of the integer numerator by other's primitive part.
        By Gauss's lemma an exact quotient of an integer polynomial by a
        primitive one has integer coefficients, so a step that does not
        divide by the leading coefficient already proves it inexact.
        """
        b = other.ints
        if not b:
            raise ZeroDivisionError("zero denominator")
        a = self.ints
        if not a:
            return self
        content = math.gcd(*b)
        if content != 1:
            b = [c // content for c in b]
        db, lead = len(b) - 1, b[-1]
        if len(a) <= db:
            raise ValueError("inexact polynomial division")
        rem = list(a)
        quot = [0] * (len(a) - db)
        for k in range(len(a) - 1, db - 1, -1):
            c = rem[k]
            if c:
                q, r = divmod(c, lead)
                if r:
                    raise ValueError("inexact polynomial division")
                quot[k - db] = q
                for j in range(db):
                    rem[k - db + j] -= q * b[j]
        if any(rem[:db]):
            raise ValueError("inexact polynomial division")
        # (A/dd) / (content*B'/other.dd) = (A/B') * other.dd / (dd*content)
        return _poly([c * other.dd for c in quot], self.dd * content)

    def monic(self):
        a = self.ints
        if not a or a[-1] == self.dd:
            return self
        if a[-1] < 0:
            a = [-c for c in a]
        return _poly(a, a[-1])

    def eval(self, x):
        """Horner evaluation: a Fraction at an int or Fraction x, else in
        float arithmetic (a float x, or a numpy array entry by entry)."""
        a = self.ints
        if not isinstance(x, (int, Fraction)):
            dd = self.dd
            acc = x * 0
            for c in reversed(a):
                acc = acc * x + c / dd
            return acc
        if not a:
            return Fraction(0)
        d = x.denominator   # p(n/d) = d^deg p(n/d) / d^deg
        return Fraction(_at(a, x.numerator, d), self.dd * d ** self.degree)

    def scale_argument(self, m):
        """p(v) -> p(m*v) for rational m."""
        a = self.ints
        if not a:
            return self
        # c_k (n/d)^k = c_k n^k d^(deg-k) / d^deg
        n, d, deg = m.numerator, m.denominator, len(a) - 1
        return _poly([c * n ** k * d ** (deg - k) for k, c in enumerate(a)],
                     self.dd * d ** deg)

    def even_odd_parts(self):
        """p(u) = E(u^2) + u*O(u^2); returns (E, O)."""
        return (_poly(self.ints[0::2], self.dd),
                _poly(self.ints[1::2], self.dd))

    def int_coeffs(self):
        """Scaled copy with coprime integer coefficients, positive leading."""
        return _int_primitive(self.ints)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def _raw(ints, dd):
    """Poly from fields already in normal form."""
    p = object.__new__(Poly)
    p.ints = ints
    p.dd = dd
    return p


def _poly(ints, dd):
    """Poly with coefficients ints[k]/dd for dd > 0, brought to normal form."""
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    if not n:
        return ZERO_POLY
    ints = tuple(ints[:n])
    if dd != 1:
        g = math.gcd(dd, *ints)
        if g != 1:
            ints = tuple(c // g for c in ints)
            dd //= g
    return _raw(ints, dd)


ZERO_POLY = Poly()
ONE_POLY = Poly((1,))
U_POLY = Poly((0, 1))


def _int_pseudo_rem(a, b):
    """Pseudo-remainder of integer coefficient lists (fraction-free), b with
    a positive leading coefficient."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for j in range(len(b)):
            a[da - db + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_primitive(a):
    """The integer coefficients a over their content, leading coefficient
    positive ([] for the zero polynomial)."""
    g = math.gcd(*a)
    if not g:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


# the least degree of two operands from which poly_gcd tries the heuristic
# gcd first (below it the PRS measured faster, on the gcds that the
# benchmark workloads and the model fixtures compute), and the evaluation
# points it tries before the PRS
HEURISTIC_GCD_DEGREE = 4
HEURISTIC_GCD_TRIES = 4


def _order(a):
    """The power of u that divides the nonzero integer list a."""
    k = 0
    while not a[k]:
        k += 1
    return k


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd: u^k, for the least power k of u dividing a or b, times
    the gcd of the two cofactors, which is 1 when either is a constant.
    Two cofactors of degree HEURISTIC_GCD_DEGREE or more try the heuristic
    gcd first; the others, and any pair it leaves, run the fraction-free
    (primitive PRS) Euclidean algorithm."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = a.ints, b.ints
    i, j = _order(x), _order(y)
    x, y = _int_primitive(x[i:]), _int_primitive(y[j:])
    if len(x) < len(y):
        x, y = y, x
    g = y if len(y) == 1 else \
        _heuristic_gcd(x, y) if len(y) > HEURISTIC_GCD_DEGREE else None
    if g is None:
        while y:
            r = _int_primitive(_int_pseudo_rem(x, y))
            x, y = y, r
        g = x
    return _poly([0] * min(i, j) + g, g[-1])


def _heuristic_gcd(x, y):
    """The primitive gcd of the primitive integer polynomials x and y by
    GCDHEU (Char, Geddes & Gonnet 1989), or None.

    Both are packed into one int at xi = 2^b, with xi > 2 min(|x|, |y|) + 2
    in the max norm, and the balanced xi-adic digits of the gcd of those
    two ints are read back as a polynomial.  Its primitive part is the gcd
    exactly when it divides both x and y over Z; otherwise b doubles, up to
    HEURISTIC_GCD_TRIES points in all.  So only the time is heuristic.
    """
    b = (2 * min(max(map(abs, x)), max(map(abs, y))) + 2).bit_length()
    for _ in range(HEURISTIC_GCD_TRIES):
        gamma = math.gcd(_pack(x, b), _pack(y, b))
        xi, mask = 1 << b, (1 << b) - 1
        digits = []
        while gamma:
            c = gamma & mask
            if c > xi >> 1:
                c -= xi
            digits.append(c)
            gamma = (gamma - c) >> b
        g = _int_primitive(digits)
        if _divides(g, x) and _divides(g, y):
            return g
        b *= 2
    return None


def _pack(a, b):
    """a(2^b) for an integer coefficient list a."""
    acc = 0
    for c in reversed(a):
        acc = (acc << b) + c
    return acc


def _divides(g, a):
    """Whether the primitive integer polynomial g divides a over Z."""
    try:
        _raw(a, 1).exact_div(_raw(g, 1))
    except ValueError:
        return False
    return True


class Scalar:
    """Element of Q(u): num/den with den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE_POLY):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = ONE_POLY
        else:
            # a nonzero constant on either side makes the gcd 1
            if num.degree > 0 and den.degree > 0:
                k = _order(den.ints)
                if k == den.degree:
                    # den = c u^k: the gcd is u^j, cancelled by slicing
                    j = min(k, _order(num.ints))
                    if j:
                        num = _raw(num.ints[j:], num.dd)
                        den = _raw(den.ints[j:], den.dd)
                else:
                    g = poly_gcd(num, den)
                    if g.degree > 0:
                        num = num.exact_div(g)
                        den = den.exact_div(g)
            lead = den.ints[-1]
            if lead != den.dd:
                # num * (1/lead of den), the sign moved to the numerator
                num = num._scale(den.dd if lead > 0 else -den.dd, abs(lead))
                den = den.monic()
            if den == ONE_POLY:
                den = ONE_POLY   # the shared object, see the module docstring
        self.num = num
        self.den = den

    @classmethod
    def rational(cls, p, q=1):
        if type(p) is int and type(q) is int and q > 0:
            return _rational(p, q)
        if type(p) is Fraction and q == 1:
            return _rational(p.numerator, p.denominator)
        for x in (p, q):
            if not isinstance(x, (int, Fraction)):
                raise TypeError("rational coefficient expected, got "
                                f"{type(x).__name__}")
        f = Fraction(p, q)
        return _rational(f.numerator, f.denominator)

    @classmethod
    def u(cls, power=1):
        return _scalar(_raw((0,) * power + (1,), 1), ONE_POLY)

    @property
    def is_zero(self):
        return not self.num.ints

    @property
    def is_rational(self):
        return self.den is ONE_POLY and len(self.num.ints) <= 1

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("not a rational constant")
        return Fraction(self.num.ints[0], self.num.dd) if self.num else \
            Fraction(0)

    def __bool__(self):
        return bool(self.num.ints)

    def __eq__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if other is ZERO:
            return self
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ZERO:
            return other
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        a = self.num.ints
        if self.den is ONE_POLY and len(a) <= 1:
            return _rational(-a[0], self.num.dd) if a else ZERO
        return _scalar(-self.num, self.den)

    def __sub__(self, other):
        if other is ZERO:
            return self
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ZERO:
            return -other
        if self.den is ONE_POLY and other.den is ONE_POLY:
            a, b = self.num, other.num
            if len(a.ints) == 1 and len(b.ints) == 1:
                return _rational(a.ints[0] * b.dd - b.ints[0] * a.dd,
                                 a.dd * b.dd)
            if not b.ints:
                return self
            if not a.ints:
                return -other
            return _scalar(a - b, ONE_POLY)
        return _add(self, _scalar(-other.num, other.den))

    def __rsub__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        if other is ZERO:
            return ZERO
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ZERO:
            return ZERO
        if other is ONE:
            return self
        if self is ONE:
            return other
        a, b = self.num, other.num
        if not a.ints or not b.ints:
            return ZERO
        da, db = self.den, other.den
        # c * n/d is reduced for a rational constant c: no gcd needed
        if da is ONE_POLY:
            if len(a.ints) == 1:
                if db is ONE_POLY and len(b.ints) == 1:
                    return _rational(a.ints[0] * b.ints[0], a.dd * b.dd)
                return _scalar(a * b, db)
            if db is ONE_POLY:
                return _scalar(a * b, db)
        elif db is ONE_POLY and len(b.ints) == 1:
            return _scalar(a * b, da)
        return Scalar(a * b, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        b = other.num.ints
        if not b:
            raise ZeroDivisionError("zero denominator")
        if other.den is ONE_POLY and len(b) == 1:
            # division by the rational constant b0/dd scales the numerator
            n, d = other.num.dd, b[0]
            if d < 0:
                n, d = -n, -d
            a = self.num.ints
            if self.den is ONE_POLY and len(a) <= 1:
                return _rational(a[0] * n, self.num.dd * d) if a else ZERO
            return _scalar(self.num._scale(n, d), self.den)
        if not self.num.ints:
            return ZERO
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


# the one zero of the kernel: built before any arithmetic can run
ZERO = object.__new__(Scalar)
ZERO.num, ZERO.den = ZERO_POLY, ONE_POLY


def _scalar(num, den):
    """Scalar from fields already in normal form, ONE_POLY for den = 1;
    the shared ZERO for a zero numerator."""
    if not num.ints:
        return ZERO
    s = object.__new__(Scalar)
    s.num = num
    s.den = den
    return s


def _add(x, y):
    """x + y for Scalars; sums over a denominator of 1 and a polynomial
    plus a fraction are reduced as they stand."""
    a, b = x.num, y.num
    if not a.ints:
        return y
    if not b.ints:
        return x
    dx, dy = x.den, y.den
    if dx is ONE_POLY:
        if dy is ONE_POLY:
            if len(a.ints) == 1 and len(b.ints) == 1:
                return _rational(a.ints[0] * b.dd + b.ints[0] * a.dd,
                                 a.dd * b.dd)
            return _scalar(a + b, ONE_POLY)
        # gcd(a dy + b, dy) = gcd(b, dy) = 1
        return _scalar(a * dy + b, dy)
    if dy is ONE_POLY:
        return _scalar(a + b * dx, dx)
    if dx == dy:
        num = a + b
        return Scalar(num, dx) if num.ints else ZERO
    return Scalar(a * dy + b * dx, dx * dy)


# the shared small constants: (n, d) as passed and as reduced -> Scalar,
# for -SMALL_BOUND < n < SMALL_BOUND and 0 < d <= SMALL_BOUND (8,128 keys)
SMALL_BOUND = 64
_SMALL = {}


def _rational(n, d):
    """The rational constant n/d for ints n and d > 0, reduced by one gcd;
    the shared object when the reduced pair is small."""
    s = _SMALL.get((n, d))
    if s is None:
        g = math.gcd(n, d)
        rn, rd = n // g, d // g
        s = _SMALL.get((rn, rd))
        if s is None:
            s = _scalar(_raw((rn,), rd), ONE_POLY)
            if -SMALL_BOUND < rn < SMALL_BOUND and rd <= SMALL_BOUND:
                _SMALL[(rn, rd)] = s
        if -SMALL_BOUND < n < SMALL_BOUND and d <= SMALL_BOUND:
            _SMALL[(n, d)] = s
    return s


def _coerce(x):
    """x as a Scalar, or NotImplemented for an operator to return."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    return NotImplemented


def as_scalar(x):
    """x as a Scalar: a Scalar itself, an int or Fraction as a rational
    constant; TypeError naming any other type."""
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(
            f"rational coefficient expected, got {type(x).__name__}")
    return s


_SMALL[(0, 1)] = ZERO
ONE = Scalar.rational(1)


# ---------------------------------------------------------------------------
# substitutions t <-> u


class Substitution:
    """Binding of the metric parameter t to the formal variable u."""

    T_EQUALS_U_SQUARED = None   # t = u^2, u = sqrt(t)
    T_EQUALS_HALF_U_SQUARED = None   # t = u^2/2, u = sqrt(2t)
    T_EQUALS_U = None   # t = u, rational parameter

    _BY_LABEL = {}

    def __init__(self, label, u_squared_per_t):
        # u^2 = u_squared_per_t * t, or None when u = t directly
        self.label = label
        self.u_squared_per_t = u_squared_per_t
        # the image of t in Q(u), built once per substitution
        self.t = Scalar.u() if u_squared_per_t is None else \
            Scalar(Poly((0, 0, Fraction(1, u_squared_per_t))))
        Substitution._BY_LABEL[label] = self

    def __repr__(self):
        return f"Substitution({self.label!r})"

    @classmethod
    def from_label(cls, label):
        try:
            return cls._BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown substitution {quote(label)}") from None

    def u_value(self, t0: Fraction):
        """(c, root) with u = root if rational else sqrt(c), at t = t0."""
        if self.u_squared_per_t is None:
            return t0, t0
        c = self.u_squared_per_t * t0
        r = _fraction_sqrt(c)
        return c, r


Substitution.T_EQUALS_U_SQUARED = Substitution("t=u^2", Fraction(1))
Substitution.T_EQUALS_HALF_U_SQUARED = Substitution("t=u^2/2", Fraction(2))
Substitution.T_EQUALS_U = Substitution("t=u", None)


def _fraction_sqrt(c: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if c < 0:
        return None
    pn = math.isqrt(c.numerator)
    pd = math.isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def as_polynomial_in_t(s: Scalar, sub: Substitution) -> Scalar:
    """Rewrite a u-Scalar as a rational function of t under the substitution.

    Errors with NotExpressibleInT when odd powers of u survive.  The
    verdicts work on u-numerators and never call it; it stays as the
    independent reference the verdict tests compare against.
    """
    if sub.u_squared_per_t is None:
        return s
    ne, no = s.num.even_odd_parts()
    de, do = s.den.even_odd_parts()
    # multiply num and den by the conjugate De(u^2) - u*Do(u^2)
    odd_residue = no * de - ne * do
    if not odd_residue.is_zero:
        raise NotExpressibleInT("not expressible in t")
    v = U_POLY   # the variable u^2 =: v before rescaling to t
    den_v = de * de - v * (do * do)
    num_v = ne * de - v * (no * do)
    m = sub.u_squared_per_t   # v = m*t
    return Scalar(num_v.scale_argument(m), den_v.scale_argument(m))


def vanishes_at(p: Poly, c: Fraction, root) -> bool:
    """Whether p(u) is exactly 0 at u = root, or at u = sqrt(c) when root
    is None: the pair (c, root) that `Substitution.u_value` gives.  An
    irrational sqrt(c) is a root of p = E(u^2) + u O(u^2) exactly when
    E(c) = O(c) = 0.  Decided on integers: q^m g(r/q) by `_at` on p's
    integer numerator, or on its even and odd slices, with no Fraction or
    Poly built; an empty slice is the zero polynomial."""
    a = p.ints
    if root is not None:
        return not a or not _at(a, root.numerator, root.denominator)
    n, d = c.numerator, c.denominator
    e, o = a[0::2], a[1::2]
    return (not e or not _at(e, n, d)) and (not o or not _at(o, n, d))


def zero_at(s: Scalar, sub: Substitution, t0) -> bool:
    """Whether s is exactly 0 at the rational parameter t0; PoleError
    where its denominator vanishes."""
    c, root = sub.u_value(Fraction(t0))
    if vanishes_at(s.den, c, root):
        raise PoleError("pole")
    return vanishes_at(s.num, c, root)


def eval_numeric(s: Scalar, sub: Substitution, t0) -> float:
    """Double-precision value of s at t0, never a verdict; the reference
    for the batched oracle in numeric.py."""
    t0f = float(t0)
    if sub.u_squared_per_t is None:
        u0 = t0f
    else:
        u0 = math.sqrt(float(sub.u_squared_per_t) * t0f)
    # exact pole check at rational t0, else float guard
    if isinstance(t0, (int, Fraction)) and \
            vanishes_at(s.den, *sub.u_value(Fraction(t0))):
        raise PoleError("pole")
    den = s.den.eval(u0)
    if den == 0.0:
        raise PoleError("pole")
    return s.num.eval(u0) / den


# ---------------------------------------------------------------------------
# real root isolation (continued fractions)


def _divide_root(a, p, q):
    """The integer list a divided by q t - p, or None when p/q is not a
    root of a.  With gcd(p, q) = 1 the quotient of a root is integral
    (Gauss's lemma), so an inexact step means p/q is no root."""
    out, b = [0] * (len(a) - 1), 0
    for j in range(len(a) - 1, 0, -1):
        b, r = divmod(a[j] + p * b, q)
        if r:
            return None
        out[j - 1] = b
    return out if a[0] + p * b == 0 else None


def _shift(g, m):
    """g(x + m) for an integer coefficient list g (Taylor shift)."""
    g = list(g)
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] += m * g[j + 1]
    return g


def _variations(g):
    """Sign variations of g: its positive roots plus an even number."""
    signs = [c > 0 for c in g if c]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _lower_bound(g):
    """e with every positive root of g above 2^e, g(0) != 0: the reversed
    g's are below 2 max (|g_j| / |g_0|)^(1/j) over the g_j of the other
    sign than g_0 (Kioustelidis), here rounded up on bit lengths."""
    b0, s = g[0].bit_length(), g[0] > 0
    return -1 - max((c.bit_length() - b0 + j) // j
                    for j, c in enumerate(g) if c and (c > 0) != s)


def _at(g, p, q):
    """q^n g(p/q) for the integer list g of degree n (homogeneous Horner)."""
    v, w = g[-1], 1
    for c in g[-2::-1]:
        w *= q
        v = v * p + c * w
    return v


def _floor_root(g, s, a, b, c, d):
    """(m, exact): m the integer part of the one positive root of
    h(x) = (c x + d)^n g((a x + b)/(c x + d)), whose sign below it is s
    (True: positive), and whether it is m; by doubling, then bisection."""
    lo = hi = 0   # hi = 0 while no x above the root is known
    while hi != lo + 1:
        x = (lo + hi) // 2 if hi else 2 * lo or 1
        v = _at(g, a * x + b, c * x + d)
        if not v:
            return x, True
        if (v > 0) == s:
            lo = x
        else:
            hi = x
    return lo, False


def _isolate(f, lead, side, found, others):
    """Append to found the rational roots of the squarefree integer list f,
    f(0) != 0, on one side of 0 (side 1 or -1), and to others (lo, hi, 0)
    per irrational one, in Fractions, neither end a root.  A node is g with
    M(x) = (a x + b)/(c x + d), |ad - bc| = 1, mapping the positive roots of
    g onto the roots of f(side t) between b/d and a/c.  With two or more
    sign variations it is shifted past a lower bound of its roots, if that
    is 1 or more, and split into x + 1 and 1/(x + 1); a root at the split
    shows as the zero constant term of both halves.  With one, its root
    follows its continued fraction: M, and (p x + q)/(r x + s) from there
    to g, advance by the exact integer part and invert.  Between Farey
    neighbours b/d and a/c every fraction has a denominator of c + d or
    more, and a rational root's divides lead: once c + d > lead the root is
    irrational.
    """
    todo = [([c * side ** j for j, c in enumerate(f)], 1, 0, 0, 1)]
    while todo:
        g, a, b, c, d = todo.pop()
        v = _variations(g)
        p, q, r, s, sign = 1, 0, 0, 1, g[0] > 0
        while v == 1:
            m, exact = _floor_root(g, sign, p, q, r, s)
            b, d, q, s = a * m + b, c * m + d, p * m + q, r * m + s
            if exact:
                found.append(Fraction(side * b, d))
                break
            if c + d > lead:
                ends = sorted((Fraction(side * a, c), Fraction(side * b, d)))
                if ends[0] not in found and ends[1] not in found:
                    others.append((*ends, 0))
                    break
            a, b, c, d, p, q, r, s, sign = b, a, d, c, q, p, s, r, not sign
        if v > 1:
            e = _lower_bound(g)
            if e >= 0:
                g, b, d = _shift(g, 1 << e), (a << e) + b, (c << e) + d
            right = _shift(g, 1)
            mid = not right[0]
            if mid:
                found.append(Fraction(side * (a + b), c + d))
            todo.append((right[mid:], a, a + b, c, c + d))
            if _variations(right) < v:
                todo.append((_shift(g[::-1], 1)[mid:], b, a + b, d, c + d))


def _closed_form(f):
    """The real roots of the squarefree integer list f of degree 1, or of
    degree 2 with no real root or a square discriminant, all rational; None
    for any other f, whose roots `_isolate` finds."""
    if len(f) == 2:
        return [Fraction(-f[0], f[1])]
    if len(f) != 3:
        return None
    c, b, a = f
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    return [Fraction(-b - root, 2 * a), Fraction(-b + root, 2 * a)]


def rational_roots(p: Poly, positive_only=False):
    """(roots, others): the rational roots of p with multiplicities, and
    one (lo, hi, 0) per distinct irrational real root, which lies in the
    open interval (lo, hi) of Fraction ends, neither end a root of p, on
    the negative side when hi <= 0 and on the positive side when lo >= 0.
    With positive_only only the roots t > 0 are returned.  A squarefree
    part that `_closed_form` solves is not isolated; any other is, by
    `_isolate`.  Exact division by q t - p gives a rational root's
    multiplicity.  Raises IdenticallyZero on the zero polynomial, which
    `vanishing_verdict` never passes: it returns ALL_T for a zero gcd
    first.
    """
    if p.is_zero:
        raise IdenticallyZero("identically zero")
    roots, others = {}, []
    k = _order(p.ints)
    if k and not positive_only:
        roots[Fraction(0)] = k
    work = _poly(p.ints[k:], p.dd)
    if work.degree < 1:
        return roots, others
    derivative = _poly([j * c for j, c in enumerate(work.ints)][1:], work.dd)
    f = work.exact_div(poly_gcd(work, derivative)).int_coeffs()
    found = _closed_form(f)
    if found is None:
        found = []
        for side in (1,) if positive_only else (1, -1):
            _isolate(f, f[-1], side, found, others)
    elif positive_only:
        found = [r for r in found if r > 0]
    rest = work.int_coeffs()
    for r in sorted(found):
        mult, n, d = 0, r.numerator, r.denominator
        while (quotient := _divide_root(rest, n, d)) is not None:
            rest, mult = quotient, mult + 1
        roots[r] = mult
    return roots, others


# ---------------------------------------------------------------------------
# canonical printing (grammar-compatible, diff-friendly)


def _format_poly(ints, var):
    """Terms of an integer coefficient list in increasing degree."""
    parts = []
    for k, c in enumerate(ints):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            body = mono if mag == 1 else f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_scalar(s: Scalar, var="u") -> str:
    """Canonical string: integer-coefficient num/den in increasing degree."""
    if s.is_zero:
        return "0"
    # num*m and den*m are integer for m = lcm of the two denominators;
    # dividing by their joint content leaves the smallest integer pair
    num, den = s.num, s.den
    m = math.lcm(num.dd, den.dd)
    ns = [c * (m // num.dd) for c in num.ints]
    ds = [c * (m // den.dd) for c in den.ints]
    g = math.gcd(*ns, *ds)
    num_s = _format_poly([c // g for c in ns], var)
    if ds == [g]:
        return num_s
    den_s = _format_poly([c // g for c in ds], var)
    num_atom = " " not in num_s
    den_atom = " " not in den_s and "*" not in den_s
    num_s = num_s if num_atom else f"({num_s})"
    den_s = den_s if den_atom else f"({den_s})"
    return f"{num_s}/{den_s}"
