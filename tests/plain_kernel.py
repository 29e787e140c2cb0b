"""A plain reference implementation of the exact kernel's API.

`spinharm.scalars` keeps polynomials fraction-free, builds results in
normal form without a gcd where it can, shares ZERO, ONE and the small
rational constants, and isolates roots by continued fractions on
integers.  This module implements the same API (the list in the
`spinharm.scalars` docstring) the textbook way: Poly holds a tuple of
Fraction coefficients, gcd is Euclid's algorithm over Q, every Scalar
operation builds num/den and reduces it, roots come from a Sturm chain
with bisection, and no object is cached or shared, so a test of identity
with ZERO or ONE fails on every value but the two constants themselves.

Only the arithmetic is reimplemented.  The exceptions, `clip`, `quote`
and `_format_poly` are the kernel's own, from `spinharm/scalars.py`
loaded under another module name.  `install()` puts this module in
`sys.modules["spinharm.scalars"]`; it must run before anything imports
`spinharm`, so the CLI then runs end to end on this kernel.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path


def _load_real_kernel():
    spec = importlib.util.find_spec("spinharm")
    path = Path(spec.submodule_search_locations[0]) / "scalars.py"
    real_spec = importlib.util.spec_from_file_location(
        "spinharm_real_scalars", path)
    module = importlib.util.module_from_spec(real_spec)
    real_spec.loader.exec_module(module)
    return module


_real = _load_real_kernel()
MAX_QUOTE = _real.MAX_QUOTE
clip, quote, _format_poly = _real.clip, _real.quote, _real._format_poly
ScalarDomainError = _real.ScalarDomainError
NotExpressibleInT = _real.NotExpressibleInT
PoleError = _real.PoleError
IdenticallyZero = _real.IdenticallyZero
IrrationalRoots = _real.IrrationalRoots


def install():
    """Make this module the kernel of every later `import spinharm`."""
    if "spinharm" in sys.modules:
        raise RuntimeError("spinharm is already imported")
    sys.modules["spinharm.scalars"] = sys.modules[__name__]


class Poly:
    """Polynomial over Q: Fraction coefficients in increasing degree with
    no trailing zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(
                    f"rational coefficient expected, got {type(c).__name__}")
            out.append(c if type(c) is Fraction else Fraction(c))
        while out and not out[-1]:
            out.pop()
        self.coeffs = tuple(out)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def bits(self):
        """The most bits of an integer in p = (integer polynomial) / dd,
        dd > 0 the lcm of the coefficients' denominators."""
        dd = math.lcm(*(c.denominator for c in self.coeffs))
        return max(abs(x).bit_length()
                   for x in (dd, *(int(c * dd) for c in self.coeffs)))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
        return Poly(x + y for x, y in zip(a, b))

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def exact_div(self, other):
        """self/other; ValueError unless other divides self exactly."""
        quot, rem = _divmod(self, other)
        if rem:
            raise ValueError("inexact polynomial division")
        return quot

    def monic(self):
        return self * (1 / self.coeffs[-1]) if self.coeffs else self

    def eval(self, x):
        """Horner evaluation: exact at an int or Fraction x, else in float
        arithmetic (a float x, or a numpy array entry by entry)."""
        exact = isinstance(x, (int, Fraction))
        acc = Fraction(0) if exact else x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else float(c))
        return acc

    def scale_argument(self, m):
        """p(v) -> p(m*v) for rational m."""
        return Poly(c * m ** k for k, c in enumerate(self.coeffs))

    def even_odd_parts(self):
        """p(u) = E(u^2) + u*O(u^2); returns (E, O)."""
        return Poly(self.coeffs[0::2]), Poly(self.coeffs[1::2])

    def int_coeffs(self):
        """Scaled copy with coprime integer coefficients, positive leading."""
        if not self.coeffs:
            return []
        dd = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * dd) for c in self.coeffs]
        g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
        return [c // g for c in ints]

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


ZERO_POLY = Poly()
ONE_POLY = Poly((1,))


def _divmod(a, b):
    """(quotient, remainder) of the long division of a by b over Q."""
    b = b.coeffs
    if not b:
        raise ZeroDivisionError("zero denominator")
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(rem) - len(b), -1, -1):
        q = rem[k + len(b) - 1] / b[-1]
        quot[k] = q
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    return Poly(quot), Poly(rem)


def _derivative(p):
    return Poly(k * c for k, c in enumerate(p.coeffs) if k)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over Q, each remainder made monic."""
    while b:
        a, b = b, _divmod(a, b)[1].monic()
    return a.monic()


def _operand(x):
    """x as a Scalar, or NotImplemented for an operator to return."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return NotImplemented


def as_scalar(x):
    """x as a Scalar; TypeError naming any type but Scalar, int, Fraction."""
    s = _operand(x)
    if s is NotImplemented:
        raise TypeError(
            f"rational coefficient expected, got {type(x).__name__}")
    return s


class Scalar:
    """num/den in lowest terms with den monic, reduced on construction."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE_POLY):
        if not isinstance(num, Poly):
            num = Poly((num,))
        if not isinstance(den, Poly):
            den = Poly((den,))
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        num, den = num.exact_div(g), den.exact_div(g)
        lead = den.coeffs[-1]
        self.num = num * (1 / lead)
        self.den = den * (1 / lead)

    @classmethod
    def rational(cls, p, q=1):
        for x in (p, q):
            if not isinstance(x, (int, Fraction)):
                raise TypeError("rational coefficient expected, got "
                                f"{type(x).__name__}")
        return cls(Fraction(p, q))

    @classmethod
    def u(cls, power=1):
        return cls(Poly((0,) * power + (1,)))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_rational(self):
        return self.den == ONE_POLY and self.num.degree <= 0

    def as_fraction(self):
        if not self.is_rational:
            raise ValueError("not a rational constant")
        return self.num.coeffs[0] if self.num else Fraction(0)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.den)

    def __sub__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero denominator")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (Scalar(1) / self) ** (-k)
        out = Scalar(1)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"

    def __str__(self):
        return format_scalar(self)


ZERO = Scalar(0)
ONE = Scalar(1)


class Substitution:
    """Binding of the metric parameter t to the formal variable u."""

    _BY_LABEL = {}

    def __init__(self, label, u_squared_per_t):
        # u^2 = u_squared_per_t * t, or None when u = t directly
        self.label = label
        self.u_squared_per_t = u_squared_per_t
        self.t = Scalar.u() if u_squared_per_t is None else \
            Scalar.u(2) / Scalar(u_squared_per_t)
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
        if c < 0:
            return c, None
        n, d = math.isqrt(c.numerator), math.isqrt(c.denominator)
        exact = n * n == c.numerator and d * d == c.denominator
        return c, Fraction(n, d) if exact else None


Substitution.T_EQUALS_U_SQUARED = Substitution("t=u^2", Fraction(1))
Substitution.T_EQUALS_HALF_U_SQUARED = Substitution("t=u^2/2", Fraction(2))
Substitution.T_EQUALS_U = Substitution("t=u", None)


def vanishes_at(p: Poly, c: Fraction, root) -> bool:
    """Whether p(u) is 0 at u = root, or at u = sqrt(c) when root is None:
    there the even and odd parts of p both vanish at c."""
    if root is not None:
        return p.eval(root) == 0
    e, o = p.even_odd_parts()
    return e.eval(c) == 0 and o.eval(c) == 0


def zero_at(s: Scalar, sub: Substitution, t0) -> bool:
    """Whether s is 0 at the rational parameter t0; PoleError at a pole."""
    c, root = sub.u_value(Fraction(t0))
    if vanishes_at(s.den, c, root):
        raise PoleError("pole")
    return vanishes_at(s.num, c, root)


def _sturm_variations(chain, x):
    """Sign changes of the Sturm chain at x, zeros skipped."""
    signs = [s for s in (p.eval(x) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def rational_roots(p: Poly, positive_only=False):
    """(roots, others): the rational roots of p with multiplicities, and
    one (lo, hi, 0) per distinct irrational real root, which lies in the
    interval (lo, hi] of Fraction endpoints, on the side of 0 of the
    kernel's interval; with positive_only, only those in t > 0.

    Sturm's theorem counts the distinct real roots of the squarefree part
    f in (a, b]; bisection from the Cauchy bound B, on (-B, 0] and (0, B]
    or on (0, B] alone, isolates each one, away from 0, and narrows its
    interval below 1/(2 lead^2), lead the leading coefficient of f over Z.
    A rational root has a denominator dividing lead, so it is then the
    fraction nearest the midpoint with such a denominator, which
    evaluation confirms; none means an irrational root.
    """
    if p.is_zero:
        raise IdenticallyZero("identically zero")
    roots, others = {}, []
    zeros = 0
    while not p.coeffs[0]:
        p, zeros = p.exact_div(Poly((0, 1))), zeros + 1
    if zeros and not positive_only:
        roots[Fraction(0)] = zeros
    if p.degree < 1:
        return roots, others
    f = p.exact_div(poly_gcd(p, _derivative(p)))
    chain = [f, _derivative(f)]
    while chain[-1].degree > 0:
        rem = _divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(-rem)
    lead = f.int_coeffs()[-1]
    bound = 1 + max(abs(c / f.coeffs[-1]) for c in f.coeffs[:-1])
    todo = [(Fraction(0), bound)]
    if not positive_only:
        todo.insert(0, (-bound, Fraction(0)))
    while todo:
        lo, hi = todo.pop()
        count = _sturm_variations(chain, lo) - _sturm_variations(chain, hi)
        if count > 1:
            mid = (lo + hi) / 2
            while not f.eval(mid):
                mid = (lo + mid) / 2
            todo += [(lo, mid), (mid, hi)]
        elif count == 1:
            r = _root_in(f, lo, hi, lead)
            if r is None:
                others.append((lo, hi, 0))
            else:
                mult = 0
                while not p.eval(r):
                    p, mult = p.exact_div(Poly((-r, 1))), mult + 1
                roots[r] = mult
    return roots, others


def _root_in(f, lo, hi, lead):
    """The rational root of f in (lo, hi], which holds exactly one root and
    no endpoint a root, or None if that root is irrational."""
    while (hi - lo) * 2 * lead * lead >= 1:
        mid = (lo + hi) / 2
        at_mid = f.eval(mid)
        if not at_mid:
            return mid
        if (at_mid > 0) == (f.eval(lo) > 0):
            lo = mid
        else:
            hi = mid
    c = ((lo + hi) / 2).limit_denominator(lead)
    return c if lo < c <= hi and not f.eval(c) else None


def format_scalar(s: Scalar, var="u") -> str:
    """Canonical string: integer-coefficient num/den in increasing degree."""
    if s.is_zero:
        return "0"
    coeffs = s.num.coeffs + s.den.coeffs
    m = math.lcm(*(c.denominator for c in coeffs))
    g = math.gcd(*(int(c * m) for c in coeffs))
    num_s = _format_poly([int(c * m) // g for c in s.num.coeffs], var)
    den = [int(c * m) // g for c in s.den.coeffs]
    if den == [1]:
        return num_s
    den_s = _format_poly(den, var)
    num_atom = " " not in num_s
    den_atom = " " not in den_s and "*" not in den_s
    num_s = num_s if num_atom else f"({num_s})"
    den_s = den_s if den_atom else f"({den_s})"
    return f"{num_s}/{den_s}"
