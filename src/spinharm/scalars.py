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
divisor's primitive part (Gauss's lemma).  `Poly.coeffs` gives the
coefficients back as Fractions.  Scalars keep den monic and gcd(num, den) =
1, which makes equality a syntactic check and is used everywhere as the
exact zero test.  A Scalar whose denominator is 1 holds the shared ONE_POLY
object itself, so `den is ONE_POLY` is the polynomial test on hot paths.
Results already in this normal form (a sum of polynomials, a polynomial
plus a fraction, a negation, a product of polynomials or with a rational
constant) are built raw by `_scalar`; only the other cases run the
reducing constructor.  Two rational constants (as in the Clifford
matrices) combine on their ints n/dd, as fmpq does, with one gcd per
result and no Poly arithmetic; a sum that cancels is the shared ZERO.
A point question ("is s zero at t0?") is answered by
`zero_at` alone: at an irrational u0 = sqrt(c) it tests the even and odd
parts of num and den at c, so no value type for Q(sqrt(c)) is needed.
Root finding runs on ints: a Sturm chain isolates each real root by
bisection from the Cauchy bound, on dyadic endpoints a/2^k signed by a
homogeneous Horner with shifts.  A Fraction is built only for the final
candidate p/q, which exact division by q t - p confirms and deflates.
Verdicts are always decided exactly; floating point appears only in
eval_numeric, the one-value reference the float oracle (numeric.py) is
tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction


class ScalarDomainError(ArithmeticError):
    """Base for exact-arithmetic domain errors."""


class NotExpressibleInT(ScalarDomainError):
    """A Scalar with odd powers of u surviving the substitution to t."""


class PoleError(ScalarDomainError):
    """Evaluation at a zero of the denominator."""


class IdenticallyZero(ScalarDomainError):
    """Root finding on the zero polynomial (verdict: holds for all t)."""


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

    def __bool__(self):
        return bool(self.ints)

    def __eq__(self, other):
        return self is other or (isinstance(other, Poly)
                                 and self.ints == other.ints
                                 and self.dd == other.dd)

    def __hash__(self):
        return hash((self.ints, self.dd))

    def __add__(self, other):
        a, b = self.ints, other.ints
        if not b:
            return self
        if not a:
            return other
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
        if not other.ints:
            return self
        if not self.ints:
            return -other
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
        """Horner evaluation: a Fraction at an int or Fraction x, a float at
        a float x."""
        a = self.ints
        if isinstance(x, float):
            dd = self.dd
            acc = x * 0
            for c in reversed(a):
                acc = acc * x + c / dd
            return acc
        if not a:
            return Fraction(0)
        # p(n/d) = (sum c_k n^k d^(deg-k)) / d^deg
        n, d = x.numerator, x.denominator
        acc, dk = a[-1], 1
        for c in a[-2::-1]:
            dk *= d
            acc = acc * n + c * dk
        return Fraction(acc, self.dd * dk)

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
    """Pseudo-remainder of integer coefficient lists (fraction-free).

    Scaling by |lead(b)| keeps it a positive multiple of the Euclidean
    remainder, as Sturm chains need.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    m = abs(lb)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1] if lb > 0 else -a[-1]
        a = [c * m for c in a]
        for j in range(len(b)):
            a[da - db + j] -= la * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_content_div(a):
    """Divide by the positive content; signs are kept (Sturm chains need it)."""
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return [c // g for c in a] if g > 1 else a


def _int_primitive(a):
    """The integer coefficients a over their content, leading coefficient
    positive ([] for the zero polynomial)."""
    g = math.gcd(*a)
    if not g:
        return []
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the fraction-free (primitive PRS) Euclidean algorithm."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x, y = a.int_coeffs(), b.int_coeffs()
    if len(x) < len(y):
        x, y = y, x
    while y:
        r = _int_primitive(_int_pseudo_rem(x, y))
        x, y = y, r
    return _poly(x, x[-1])


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
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self.num, self.den)

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is ONE_POLY and other.den is ONE_POLY:
            a, b = self.num, other.num
            if len(a.ints) == 1 and len(b.ints) == 1:
                return _rational(a.ints[0] * b.dd - b.ints[0] * a.dd,
                                 a.dd * b.dd)
            return _scalar(a - b, ONE_POLY)
        return _add(self, _scalar(-other.num, other.den))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
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
            return _scalar(self.num._scale(n if d > 0 else -n, abs(d)),
                           self.den)
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

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


def _scalar(num, den):
    """Scalar from fields already in normal form, ONE_POLY for den = 1."""
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
        return Scalar(a + b, dx)
    return Scalar(a * dy + b * dx, dx * dy)


def _rational(n, d):
    """The rational constant n/d for ints n and d > 0, reduced by one gcd."""
    if not n:
        return ZERO
    g = math.gcd(n, d)
    return _scalar(_raw((n // g,), d // g), ONE_POLY)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.rational(x)
    return NotImplemented


ZERO = _scalar(ZERO_POLY, ONE_POLY)
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
        self._t = Scalar.u() if u_squared_per_t is None else \
            Scalar(Poly((0, 0, Fraction(1, u_squared_per_t))))
        Substitution._BY_LABEL[label] = self

    def __repr__(self):
        return f"Substitution({self.label!r})"

    @classmethod
    def from_label(cls, label):
        try:
            return cls._BY_LABEL[label]
        except KeyError:
            raise ValueError(f"unknown substitution {label!r}") from None

    def t_as_scalar(self):
        """The image of t in Q(u), built once per substitution."""
        return self._t

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
    E(c) = O(c) = 0."""
    if root is not None:
        return p.eval(root) == 0
    e, o = p.even_odd_parts()
    return e.eval(c) == 0 and o.eval(c) == 0


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
# real root isolation (Sturm) and rational reconstruction


def _sturm_chain(a):
    """Sturm sequence a, a', -rem, ... of an integer coefficient list,
    each term divided by its positive content."""
    chain = [a, _int_content_div([k * c for k, c in enumerate(a)][1:])]
    while len(chain[-1]) > 1:
        r = _int_pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_int_content_div([-c for c in r]))
    return chain


def _sign_at(a, n, k):
    """Sign of the integer polynomial a at the dyadic n/2^k: the sign of
    sum a_j n^j 2^(k(deg-j)), by Horner with shifts."""
    acc, shift = a[-1], 0
    for c in a[-2::-1]:
        shift += k
        acc = acc * n + (c << shift)
    return (acc > 0) - (acc < 0)


def _variations(signs):
    out, last = 0, 0
    for s in signs:
        if s:
            if last and s != last:
                out += 1
            last = s
    return out


def _variations_at(chain, n, k):
    return _variations(_sign_at(a, n, k) for a in chain)


def _variations_at_infinity(chain, sign):
    """Sign variations of the chain at +inf (sign=1) or -inf (sign=-1)."""
    return _variations((1 if a[-1] > 0 else -1) * sign ** (len(a) - 1)
                       for a in chain)


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


def _strip_t_power(p: Poly):
    k = 0
    while p.ints[k] == 0:
        k += 1
    return k, _poly(p.ints[k:], p.dd)


def real_root_count(p: Poly, positive_only=True) -> int:
    """Distinct real roots of p in t > 0, or in t != 0 (Sturm's theorem).

    The chain of a non-squarefree p ends in gcd(p, p'), which does not
    vanish at 0 once t^k is stripped, so the count is still exact.
    """
    if p.is_zero:
        raise IdenticallyZero("identically zero")
    _, work = _strip_t_power(p)
    if work.degree < 1:
        return 0
    chain = _sturm_chain(work.int_coeffs())
    lo = _variations_at(chain, 0, 0) if positive_only else \
        _variations_at_infinity(chain, -1)
    return lo - _variations_at_infinity(chain, 1)


def _isolating_intervals(f, chain, bound):
    """Intervals (lo/2^k, hi/2^k] as int triples (lo, hi, k), one per
    distinct real root of f, f(lo)f(hi) != 0.

    Bisection of (-bound, 0] and (0, bound] on Sturm counts; a split point
    that is itself a root is moved towards lo, so no endpoint is a root.
    """
    v = [_variations_at(chain, x, 0) for x in (-bound, 0, bound)]
    todo = [(-bound, 0, 0, v[0], v[1]), (0, bound, 0, v[1], v[2])]
    out = []
    while todo:
        lo, hi, k, vlo, vhi = todo.pop()
        if vlo - vhi == 1:
            out.append((lo, hi, k))
        elif vlo - vhi > 1:
            lo, hi, k = lo << 1, hi << 1, k + 1
            mid = (lo + hi) >> 1
            while _sign_at(f, mid, k) == 0:
                lo, mid, hi, k = lo << 1, lo + mid, hi << 1, k + 1
            vmid = _variations_at(chain, mid, k)
            todo.append((lo, mid, k, vlo, vmid))
            todo.append((mid, hi, k, vmid, vhi))
    return out


def _rational_in(f, lo, hi, k, lead):
    """The rational root of f in (lo/2^k, hi/2^k], or None if irrational.

    f is squarefree with exactly one root r in the interval.  A rational
    root has a denominator dividing lead, and two such fractions lie at
    least 1/lead^2 apart: once (hi - lo) 2 lead^2 < 2^k, r is the fraction
    nearest the midpoint with denominator at most lead.  A halving
    doubles lo and 2^k, so the numerator width hi - lo stays fixed.
    """
    slo, width = _sign_at(f, lo, k), hi - lo
    spread = width * 2 * lead * lead
    while spread >= 1 << k:
        lo, k = lo << 1, k + 1
        s = _sign_at(f, lo + width, k)
        if s == 0:
            return Fraction(lo + width, 1 << k)
        if s == slo:
            lo += width
    c = Fraction(2 * lo + width, 2 << k).limit_denominator(lead)
    p, q = c.numerator, c.denominator
    if lo * q < p << k <= (lo + width) * q and \
            _divide_root(f, p, q) is not None:
        return c
    return None


def rational_roots(p: Poly) -> dict:
    """All rational roots of p with multiplicities.

    The squarefree part's real roots are isolated with a Sturm chain on
    the Cauchy bound and each interval is narrowed until at most one
    fraction with a denominator dividing the leading coefficient fits.
    Exact division by q t - p confirms that candidate p/q and gives its
    multiplicity.  Raises IdenticallyZero on the zero polynomial; callers
    translate that into a 'holds for all t' verdict.
    """
    if p.is_zero:
        raise IdenticallyZero("identically zero")
    roots = {}
    k, work = _strip_t_power(p)
    if k:
        roots[Fraction(0)] = k
    if work.degree < 1:
        return roots
    derivative = _poly([j * c for j, c in enumerate(work.ints)][1:], work.dd)
    f = work.exact_div(poly_gcd(work, derivative)).int_coeffs()
    lead = f[-1]
    # Cauchy: every root has |t| < 1 + max|f_i| / lead <= bound
    bound = 2 + max(abs(c) for c in f[:-1]) // lead
    chain = _sturm_chain(f)
    found = (_rational_in(f, *interval, lead)
             for interval in _isolating_intervals(f, chain, bound))
    rest = work.int_coeffs()
    for r in sorted(r for r in found if r is not None):
        mult, n, d = 0, r.numerator, r.denominator
        while (quotient := _divide_root(rest, n, d)) is not None:
            rest, mult = quotient, mult + 1
        roots[r] = mult
    return roots


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
