import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spinharm.scalars import (
    IdenticallyZero, IrrationalRoots, NotExpressibleInT, ONE_POLY, Poly,
    PoleError, Scalar, Substitution, ZERO, ZERO_POLY, as_polynomial_in_t,
    eval_numeric, format_scalar, poly_gcd, rational_roots, real_root_count,
    vanishes_at, zero_at,
)

U = Scalar.u()
T_U2 = Substitution.T_EQUALS_U_SQUARED
T_HALF = Substitution.T_EQUALS_HALF_U_SQUARED
T_ID = Substitution.T_EQUALS_U


def sc(p, q=1):
    return Scalar.rational(p, q)


# ---------------------------------------------------------------------------
# normalization


def test_normalize_cancels_common_factor():
    # (u^2 - 1)/(u - 1) -> u + 1
    s = Scalar(Poly((-1, 0, 1)), Poly((-1, 1)))
    assert s == U + sc(1)
    assert s.den == Poly((1,))


def test_normalize_removes_content():
    s = Scalar(Poly((0, 2)), Poly((2,)))
    assert s == U


def test_normalize_zero():
    s = Scalar(Poly(()), Poly((0, 0, 0, 1)))
    assert s.is_zero
    assert s.den == Poly((1,))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        Scalar(Poly((1,)), Poly(()))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        U / sc(0)


def test_denominator_made_monic():
    s = Scalar(Poly((1,)), Poly((0, 2)))   # 1/(2u)
    assert s.den == Poly((0, 1))
    assert s.num == Poly((Fraction(1, 2),))


# ---------------------------------------------------------------------------
# substitution into t


def test_as_t_half_u_squared_definition():
    s = U * U / sc(2)
    t = as_polynomial_in_t(s, T_HALF)
    assert t == U   # the scalar named u now stands for t


def test_as_t_even_powers():
    s = (sc(1) - U * U) ** 2 / (U * U)
    t = as_polynomial_in_t(s, T_U2)
    expect = (sc(1) - U) ** 2 / U
    assert t == expect


def test_as_t_odd_power_errors():
    with pytest.raises(NotExpressibleInT, match="not expressible"):
        as_polynomial_in_t(U, T_U2)


def test_as_t_odd_over_odd_is_fine():
    # u^3/u is even once reduced
    s = U ** 3 / U
    assert as_polynomial_in_t(s, T_U2) == U


def test_as_t_rational_substitution_is_identity():
    s = (sc(1) + U) / U
    assert as_polynomial_in_t(s, T_ID) == s


# ---------------------------------------------------------------------------
# rational roots


def test_roots_double_root():
    p = Poly((Fraction(9, 4), -3, 1))   # (3/2 - t)^2
    assert rational_roots(p) == {Fraction(3, 2): 2}


def test_roots_product():
    # t(t - 1/2)(t - 5/4)
    p = Poly((0, 1)) * Poly((Fraction(-1, 2), 1)) * Poly((Fraction(-5, 4), 1))
    assert rational_roots(p) == {Fraction(0): 1, Fraction(1, 2): 1,
                                 Fraction(5, 4): 1}


def test_roots_drop_irrational_roots_next_to_rational_ones():
    # the fraction nearest sqrt(2)'s interval is the root 1 outside it
    p = Poly((-1, 1)) * Poly((-2, 0, 1))   # (t - 1)(t^2 - 2)
    assert rational_roots(p) == {Fraction(1): 1}


def test_roots_zero_polynomial_rejected():
    with pytest.raises(IdenticallyZero):
        rational_roots(Poly(()))


def test_roots_random_degree5_against_bisection_oracle():
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(6)]
        coeffs[5] = rng.choice([1, 2, 3, -1, -2])
        p = Poly(coeffs)
        roots = rational_roots(p)
        # every claimed root is an exact zero, with exact deflation
        work = p
        for r, mult in roots.items():
            assert p.eval(r) == 0
            for _ in range(mult):
                work = work.exact_div(Poly((-r, 1)))
            assert work.eval(r) != 0
        # numeric bisection over a sign-change grid must land on each
        # odd-multiplicity root within 1e-9
        odd = sorted(r for r, m in roots.items() if m % 2 == 1)
        for r in odd:
            lo, hi = float(r) - 0.25, float(r) + 0.25
            flo = p.eval(lo)
            fhi = p.eval(hi)
            # shrink until the bracket isolates this root
            while any(lo < float(r2) < hi for r2 in odd if r2 != r):
                lo = (lo + float(r)) / 2
                hi = (hi + float(r)) / 2
                flo, fhi = p.eval(lo), p.eval(hi)
            if flo == 0.0 or fhi == 0.0:
                continue
            assert flo * fhi < 0
            for _ in range(60):
                mid = (lo + hi) / 2
                fm = p.eval(mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            assert abs((lo + hi) / 2 - float(r)) < 1e-9


def _linear(r):
    """t - r for a rational r."""
    return Poly((-Fraction(r), 1))


def test_roots_large_integer_root():
    assert rational_roots(_linear(10000000019)) == {Fraction(10000000019): 1}


def test_roots_twenty_digit_root():
    r = 10**20 + 39
    assert rational_roots(_linear(r)) == {Fraction(r): 1}


def test_roots_eleven_digit_primes():
    p, q = 50000000021, 50000001041   # distinct primes near 5*10^10
    poly = Poly((-1, 2)) * Poly((-p, q))   # (2t - 1)(qt - p)
    assert rational_roots(poly) == {Fraction(1, 2): 1, Fraction(p, q): 1}


def test_roots_repeated_root_next_to_large_one():
    p, q = 170000000033, 600000012431
    poly = Poly((-7, 3)) * Poly((-7, 3)) * _linear(Fraction(p, q))
    assert rational_roots(poly) == {Fraction(7, 3): 2, Fraction(p, q): 1}


def test_roots_eleven_digit_neighbours():
    # p/q and p/q + 1/q^2: the closest pair the reconstruction must part
    p, q = 50000000021, 50000001041
    near = Fraction(p * q + 1, q * q)
    poly = Poly((-p, q)) * _linear(near)
    assert rational_roots(poly) == {Fraction(p, q): 1, near: 1}


def test_roots_irrational_pair_around_an_eleven_digit_root():
    # q^2 (q t - p)^2 - 2 has the roots p/q +- sqrt(2)/q^2; the fraction
    # nearest each of their intervals is p/q, which lies outside both
    p, q = 170000000033, 600000012431
    line = Poly((-p, q))
    poly = line * (Poly((q * q,)) * line * line - Poly((2,)))
    assert poly.int_coeffs()[-1] == q ** 5
    assert rational_roots(poly) == {Fraction(p, q): 1}
    assert real_root_count(poly) == 3


@pytest.mark.parametrize("roots,quadratic,split", [
    # (B/2, B] or (0, B] holds one root: the narrowing hits it
    ((Fraction(3, 2),), None, Fraction(1, 2)),             # B = 3
    ((Fraction(1, 2),), None, Fraction(1, 4)),             # B = 2
    ((Fraction(15, 4),), None, Fraction(3, 4)),            # B = 5
    ((Fraction(-3),), (1, 1, 1), Fraction(-1, 2)),         # B = 6
    # two roots share the half: the isolating bisection hits it
    ((Fraction(9, 2), Fraction(-7, 8)), (-2, 0, 1), Fraction(1, 2)),  # B = 9
    ((Fraction(1),), (-2, 0, 1), Fraction(1, 4)),          # B = 4
    ((Fraction(-16), Fraction(-15, 8)), None, Fraction(-1, 2)),       # B = 32
])
def test_roots_on_dyadic_split_points_of_the_cauchy_bound(roots, quadratic,
                                                          split):
    from spinharm.homogeneous import ROOT_SET, Verdict, vanishing_verdict
    poly = Poly(quadratic or (1,))
    for r in roots:
        poly = poly * _linear(r)
    f = poly.int_coeffs()
    assert split * (2 + max(abs(c) for c in f[:-1]) // f[-1]) in roots
    assert rational_roots(poly) == {r: 1 for r in roots}
    irrational = 2 if quadratic == (-2, 0, 1) else 0
    assert real_root_count(poly, positive_only=False) == \
        len(roots) + irrational
    assert real_root_count(poly) == \
        sum(1 for r in roots if r > 0) + irrational // 2
    if not irrational:
        verdict = vanishing_verdict([Scalar(poly)], T_ID, positive_only=False)
        assert verdict == Verdict(ROOT_SET, {r: 1 for r in roots})


def test_roots_large_coefficient_model_file():
    """A model-file coefficient (t-10000000019) reaches the root finder."""
    import copy
    from spinharm.homogeneous import (ROOT_SET, HomogeneousModel,
                                      ModelAnalysis, Verdict, load_model)
    base = load_model("aw11").to_dict()
    data = copy.deepcopy(base)
    extra = copy.deepcopy(base["lambda"][1])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*(t-10000000019)"
    data["lambda"][0] += extra
    an = ModelAnalysis(HomogeneousModel.from_dict(data))
    assert an.harmonicity().verdict == Verdict(
        ROOT_SET, {Fraction(1, 2): 1, Fraction(10000000019): 1})


def _seeded_polys(count, seed):
    """Planted rational roots (some negative, zero or repeated) times
    irreducible quadratics, with a random integer scale."""
    rng = random.Random(seed)
    for _ in range(count):
        poly = Poly((rng.choice([1, -2, 3, 5, -7, 12]),))
        for _ in range(rng.randint(0, 4)):
            r = Fraction(rng.randint(-60, 60), rng.randint(1, 50))
            for _ in range(rng.choice([1, 1, 1, 2, 3])):
                poly = poly * _linear(r)
        for _ in range(rng.randint(0, 2)):
            poly = poly * _irreducible_quadratic(rng)
        yield poly


def _irreducible_quadratic(rng):
    """a t^2 + b t + c with no rational root (real or complex roots)."""
    while True:
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        disc = b * b - 4 * a * c
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            return Poly((c, b, a))


def test_roots_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for poly in _seeded_polys(200, seed=3):
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k
                   for k, c in enumerate(poly.coeffs))
        expect = {}
        for factor, mult in sympy.factor_list(sympy.Poly(expr, t))[1]:
            if factor.degree() == 1:
                a, b = factor.all_coeffs()
                r = -sympy.Rational(b) / a
                expect[Fraction(int(r.p), int(r.q))] = mult
        assert rational_roots(poly) == expect, poly


def _real_irrational_quadratic(rng):
    """a t^2 + b t + c with two real irrational roots."""
    while True:
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        disc = b * b - 4 * a * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            return Poly((c, b, a))


def test_irrational_refusal_against_sympy_oracle():
    """real_root_count is Sturm's count of sympy's real roots in the
    domain, and vanishing_verdict refuses exactly when one is irrational."""
    from spinharm.homogeneous import vanishing_verdict
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(23)
    for k, poly in enumerate(_seeded_polys(60, seed=19)):
        if k % 3:
            poly = poly * _real_irrational_quadratic(rng)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j
                   for j, c in enumerate(poly.coeffs))
        real = set(sympy.Poly(expr, t).real_roots())
        for positive_only in (True, False):
            domain = [r for r in real if r > 0 or not positive_only and r]
            assert real_root_count(poly, positive_only) == len(domain), poly
            if any(not r.is_rational for r in domain):
                with pytest.raises(IrrationalRoots):
                    vanishing_verdict([Scalar(poly)], T_ID, positive_only)
            else:
                vanishing_verdict([Scalar(poly)], T_ID, positive_only)


# ---------------------------------------------------------------------------
# numeric and exact evaluation


def test_eval_numeric_sqrt_t():
    assert eval_numeric(U / sc(2), T_U2, 1) == pytest.approx(0.5, abs=1e-15)


def test_eval_numeric_zero_numerator():
    s = (sc(1) - U * U) / (sc(2) * U)   # (1-t)/(2 sqrt t)
    assert eval_numeric(s, T_U2, 1) == pytest.approx(0.0, abs=1e-15)


def test_eval_numeric_spin4_eta_square():
    # ((3/2 - t)^2)/(2t) written in u with t = u^2/2
    s = ((sc(3) - U * U) / sc(2)) ** 2 / (U * U)
    assert eval_numeric(s, T_HALF, Fraction(3, 2)) == pytest.approx(0.0)


def test_eval_numeric_pole():
    s = sc(1) / (U * U - sc(1))
    with pytest.raises(PoleError):
        eval_numeric(s, T_U2, 1)


def test_zero_at_quadratic_field():
    # u = sqrt(2) at t = 2 under t = u^2: zero iff E(2) = O(2) = 0
    two = Fraction(2)
    assert not zero_at((sc(1) - U * U) / (sc(2) * U), T_U2, two)
    assert zero_at(U * U - sc(2), T_U2, two)
    assert zero_at(U ** 3 - sc(2) * U, T_U2, two)      # E = 0, O(2) = 0
    assert not zero_at(U ** 3 - sc(2) * U + sc(1), T_U2, two)   # E(2) != 0
    assert not zero_at(U ** 3 - U, T_U2, two)           # O(2) != 0
    with pytest.raises(PoleError):
        zero_at(U / (U * U - sc(2)), T_U2, two)
    # t = u^2/2: t = 1 is u = sqrt(2), so u^2 - 2t vanishes there
    assert zero_at(U * U - sc(2), T_HALF, 1)
    assert not zero_at(U - sc(2), T_HALF, 1)


def test_zero_at_rational_point():
    assert not zero_at((sc(1) + U) / U, T_ID, Fraction(1, 4))
    assert zero_at((sc(4) * U - sc(1)) / U, T_ID, Fraction(1, 4))
    with pytest.raises(PoleError):
        zero_at(sc(1) / (sc(4) * U - sc(1)), T_ID, Fraction(1, 4))
    # t = 1/4 under t = u^2 is u = 1/2, rational
    assert zero_at(sc(2) * U - sc(1), T_U2, Fraction(1, 4))


@given(st.lists(st.integers(-5, 5), max_size=6),
       st.sampled_from([2, 3, 5, 6, 7, Fraction(1, 2), Fraction(8, 3)]))
@settings(max_examples=60, deadline=None)
def test_vanishes_at_sqrt_c_iff_divisible_by_u2_minus_c(ints, c):
    # c is not a rational square, so u^2 - c is irreducible over Q
    p = Poly(ints)
    m = Poly((-Fraction(c), 0, 1))
    want = p.is_zero or poly_gcd(p, m).degree == 2
    assert vanishes_at(p, Fraction(c), None) == want
    assert vanishes_at(p * m, Fraction(c), None)


# ---------------------------------------------------------------------------
# field axioms (property tests)


_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=1, max_size=3)
_nonzero_coeffs = _coeffs.filter(lambda cs: any(c != 0 for c in cs))


@st.composite
def scalars(draw, allow_zero=True):
    num = Poly(draw(_coeffs))
    den = Poly(draw(_nonzero_coeffs))
    s = Scalar(num, den)
    if not allow_zero and s.is_zero:
        s = s + Scalar.rational(1)
    return s


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_additive_inverse_and_commutativity(a, b):
    assert (a + (-a)).is_zero
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(scalars(allow_zero=False))
def test_multiplicative_inverse(a):
    assert a * (Scalar.rational(1) / a) == Scalar.rational(1)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_normalize_idempotent(a):
    again = Scalar(a.num, a.den)
    assert again.num == a.num and again.den == a.den


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_equality_matches_cross_multiplication(a, b):
    assert (a == b) == (a.num * b.den == b.num * a.den)


def test_eval_homomorphism_on_random_rationals():
    rng = random.Random(5)
    ops = [("add", lambda x, y: x + y, lambda x, y: x + y),
           ("sub", lambda x, y: x - y, lambda x, y: x - y),
           ("mul", lambda x, y: x * y, lambda x, y: x * y),
           ("div", lambda x, y: x / y, lambda x, y: x / y)]
    for k in range(100):
        a = (sc(rng.randint(-3, 3)) + U * sc(rng.randint(-2, 2))) / \
            (U * U + sc(rng.randint(1, 4)))
        b = (sc(rng.randint(-3, 3)) * U + sc(1)) / (U + sc(rng.randint(1, 3)))
        t0 = Fraction(rng.randint(1, 40), rng.randint(1, 20))
        name, sym, num = ops[k % 4]
        if name == "div" and b.is_zero:
            continue
        lhs = eval_numeric(sym(a, b), T_U2, t0)
        rhs = num(eval_numeric(a, T_U2, t0), eval_numeric(b, T_U2, t0))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# gcd and printing


def test_poly_gcd_fraction_free():
    a = Poly((-1, 0, 1)) * Poly((2, 3))
    b = Poly((-1, 1)) * Poly((5, 1))
    g = poly_gcd(a, b)
    assert g == Poly((-1, 1))   # monic gcd u - 1


def test_format_canonical():
    s = (sc(1) - U * U) / (sc(2) * U)
    assert format_scalar(s) == "(1 - u^2)/(2*u)"
    assert format_scalar(U / sc(2)) == "u/2"
    assert format_scalar(sc(-3, 2)) == "-3/2"
    assert format_scalar(sc(0)) == "0"
    assert format_scalar(as_polynomial_in_t(U * U, T_U2), var="t") == "t"


# ---------------------------------------------------------------------------
# gcd-free construction against the general poly_gcd reduction


def _gcd_reduced(num, den):
    """(num, den) reduced the general way: divide by poly_gcd, monic den."""
    if num.is_zero:
        return ZERO_POLY, ONE_POLY
    g = poly_gcd(num, den)
    num, den = num.exact_div(g), den.exact_div(g)
    lead = den.coeffs[-1]
    return num * (1 / lead), den.monic()


_nonzero_consts = st.fractions(min_value=-4, max_value=4,
                               max_denominator=3).filter(lambda c: c != 0)


@settings(max_examples=80, deadline=None)
@given(_coeffs, _nonzero_coeffs, _nonzero_consts, st.booleans())
def test_constant_side_skips_gcd_exactly(cs, ds, c, constant_num):
    num, den = (Poly([c]), Poly(ds)) if constant_num else (Poly(cs), Poly([c]))
    s = Scalar(num, den)
    assert (s.num, s.den) == _gcd_reduced(num, den)


def test_constant_times_fraction_skips_gcd(monkeypatch):
    # c * n/d is reduced already: no poly_gcd call, and the same result
    from spinharm import scalars
    frac = U / (U + sc(1))
    calls = [0]
    gcd = scalars.poly_gcd

    def counted(a, b):
        calls[0] += 1
        return gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counted)
    left, right = sc(2) * frac, frac * sc(-3, 2)
    assert calls[0] == 0
    assert (left.num, left.den) == _gcd_reduced(Poly((0, 2)), Poly((1, 1)))
    assert (right.num, right.den) == \
        _gcd_reduced(Poly((0, Fraction(-3, 2))), Poly((1, 1)))


def test_constant_arithmetic_makes_no_poly_call(monkeypatch):
    # two rational constants combine on their ints, reduced by one gcd
    from spinharm import scalars
    a, b = sc(3, 4), sc(-5, 6)
    calls = [0]
    poly = scalars._poly

    def counted(ints, dd):
        calls[0] += 1
        return poly(ints, dd)

    monkeypatch.setattr(scalars, "_poly", counted)
    got = [a * b, a + b, a - b, b - b, b * b, sc(6, 4), sc(Fraction(-2, 6))]
    assert calls[0] == 0
    assert [s.as_fraction() for s in got] == [
        Fraction(-5, 8), Fraction(-1, 12), Fraction(19, 12), 0,
        Fraction(25, 36), Fraction(3, 2), Fraction(-1, 3)]


@settings(max_examples=80, deadline=None)
@given(_coeffs, _coeffs)
def test_polynomial_sum_and_product_stay_reduced(xs, ys):
    a, b = Scalar(Poly(xs)), Scalar(Poly(ys))
    s, p = a + b, a * b
    assert (s.num, s.den) == _gcd_reduced(Poly(xs) + Poly(ys), ONE_POLY)
    assert (p.num, p.den) == _gcd_reduced(Poly(xs) * Poly(ys), ONE_POLY)


# a fixed pair of denominators, so that two draws often share one
_SHARED_DENS = (Poly((1, 1)), Poly((-2, 0, 1)))


@st.composite
def _fast_path_scalars(draw):
    """A Scalar of one of the kinds the arithmetic treats apart: a
    polynomial, a rational constant, a fraction over a shared denominator,
    or a general fraction."""
    kind = draw(st.sampled_from(("poly", "const", "shared", "general")))
    if kind == "poly":
        return Scalar(Poly(draw(_coeffs)))
    if kind == "const":
        return Scalar.rational(draw(st.fractions(
            min_value=-4, max_value=4, max_denominator=3)))
    if kind == "shared":
        return Scalar(Poly(draw(_coeffs)), draw(st.sampled_from(_SHARED_DENS)))
    return draw(scalars())


def _assert_reduced_as(got, num, den):
    """got equals the reducing constructor's Scalar(num, den), field by
    field, and a denominator of 1 is the shared ONE_POLY."""
    want = Scalar(num, den)
    assert (got.num, got.den) == (want.num, want.den)
    assert (got.den is ONE_POLY) == (got.den == ONE_POLY)


@settings(max_examples=300, deadline=None)
@given(_fast_path_scalars(), _fast_path_scalars(),
       st.one_of(st.integers(-3, 3), _nonzero_consts),
       st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_fast_paths_match_the_reducing_constructor(a, b, q, r):
    _assert_reduced_as(a + b, a.num * b.den + b.num * a.den, a.den * b.den)
    _assert_reduced_as(a - b, a.num * b.den - b.num * a.den, a.den * b.den)
    _assert_reduced_as(-a, -a.num, a.den)
    _assert_reduced_as(a * b, a.num * b.num, a.den * b.den)
    if not b.is_zero:
        _assert_reduced_as(a / b, a.num * b.den, a.den * b.num)
    c = Scalar.rational(q)
    for got, want in ((a + q, a + c), (q + a, a + c), (a - q, a - c),
                      (q - a, c - a), (a * q, a * c), (q * a, a * c)):
        assert (got.num, got.den) == (want.num, want.den)
    _assert_reduced_as(a * q, a.num * q, a.den)
    if q:
        _assert_reduced_as(a / q, a.num, a.den * q)
    for s in (a, b, c):
        assert (s.den is ONE_POLY) == (s.den == ONE_POLY)
    # subtraction builds no negated copy: it must equal adding one
    for x, y in ((a, b), (b, a), (a, c), (c, a), (a, a)):
        diff, ref = x - y, x + (-y)
        assert (diff.num, diff.den) == (ref.num, ref.den)
        for p, ref in ((x.num - y.num, x.num + (-y.num)),
                       (x.den - y.num, x.den + (-y.num))):
            assert (p.ints, p.dd) == (ref.ints, ref.dd)
    # the rational-constant lane: constants over equal and different
    # denominators, of either sign, and sums that cancel
    d, e = Scalar.rational(r), Scalar.rational(r + 1)   # e has d's dd
    for x, y in ((c, d), (d, c), (d, e), (e, d), (d, d), (d, -d), (-c, c)):
        _assert_reduced_as(x + y, x.num + y.num, ONE_POLY)
        _assert_reduced_as(x - y, x.num - y.num, ONE_POLY)
        _assert_reduced_as(x * y, x.num * y.num, ONE_POLY)
    for zero in (d - d, d + (-d), -c + c, c - c):
        assert zero.num.ints == () and zero.den is ONE_POLY
        assert zero == ZERO and hash(zero) == hash(ZERO)
    for got in (Scalar.rational(r), Scalar.rational(r.numerator,
                                                    r.denominator),
                Scalar.rational(-r.numerator, -r.denominator)):
        _assert_reduced_as(got, Poly((r,)), ONE_POLY)
    _assert_reduced_as(Scalar.rational(r.numerator), r.numerator, ONE_POLY)


def test_reduction_to_a_unit_denominator_interns_it():
    s = Scalar(Poly((-1, 0, 1)), Poly((-1, 1)))   # (u^2 - 1)/(u - 1)
    assert s.den is ONE_POLY
    f = U / (U + sc(1))
    for unit in (f * (sc(1) / f), f - f + U, Scalar(Poly((3,)), Poly((3,))),
                 Scalar(Poly((0, 1)), Poly((2,)))):
        assert unit.den is ONE_POLY, unit


# ---------------------------------------------------------------------------
# integer kernel against a Fraction-tuple reference


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = a + (Fraction(0),) * (n - len(a)), b + (Fraction(0),) * (n - len(b))
    return _trim(x + y for x, y in zip(a, b))


def _ref_neg(a):
    return tuple(-x for x in a)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b):
    rem, db = list(a), len(b) - 1
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        q = rem[k] / b[-1]
        quot[k - db] = q
        for j, y in enumerate(b):
            rem[k - db + j] -= q * y
    return _trim(quot), _trim(rem)


def _ref_eval(a, x):
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _assert_normal(p):
    """dd > 0, no trailing zero, gcd(ints, dd) = 1."""
    assert p.dd > 0
    assert not p.ints or p.ints[-1] != 0
    assert math.gcd(p.dd, *p.ints) == 1
    assert all(type(c) is int for c in p.ints + (p.dd,))


_ref_coeffs = st.lists(
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
    min_size=0, max_size=6).map(tuple)
_ref_nonzero = _ref_coeffs.filter(any)
_ref_scalars = st.one_of(st.integers(-30, 30), st.fractions(
    min_value=-20, max_value=20, max_denominator=9))


@settings(max_examples=150, deadline=None)
@given(_ref_coeffs, _ref_coeffs, _ref_scalars)
def test_kernel_ring_operations_match_reference(xs, ys, q):
    a, b = Poly(xs), Poly(ys)
    assert a.coeffs == _trim(xs)
    cases = [(a + b, _ref_add(_trim(xs), _trim(ys))),
             (a - b, _ref_add(_trim(xs), _ref_neg(_trim(ys)))),
             (-a, _ref_neg(_trim(xs))),
             (a * b, _ref_mul(_trim(xs), _trim(ys))),
             (a * q, _trim(x * q for x in xs)),
             (q * a, _trim(x * q for x in xs))]
    for got, want in cases:
        _assert_normal(got)
        assert got.coeffs == want
        assert got == Poly(want) and hash(got) == hash(Poly(want))


@settings(max_examples=150, deadline=None)
@given(_ref_coeffs, _ref_nonzero, _ref_coeffs)
def test_kernel_exact_div_matches_reference(xs, ys, rs):
    prod, b = Poly(xs) * Poly(ys), Poly(ys)
    quot, rem = _ref_divmod(prod.coeffs, b.coeffs)
    got = prod.exact_div(b)
    _assert_normal(got)
    assert rem == () and got.coeffs == quot == _trim(xs)
    # a remainder of lower degree than b makes the division inexact
    r = Poly(rs[:b.degree])
    if not r.is_zero:
        assert _ref_divmod((prod + r).coeffs, b.coeffs)[1] == r.coeffs
        with pytest.raises(ValueError, match="inexact"):
            (prod + r).exact_div(b)


def test_kernel_exact_div_by_zero_rejected():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        Poly((1, 2)).exact_div(ZERO_POLY)


@settings(max_examples=150, deadline=None)
@given(_ref_coeffs, _ref_scalars,
       st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_kernel_unary_operations_match_reference(xs, m, x):
    a, cs = Poly(xs), _trim(xs)
    m = Fraction(m)
    monic = a.monic()
    _assert_normal(monic)
    assert monic.coeffs == (tuple(c / cs[-1] for c in cs) if cs else ())
    scaled = a.scale_argument(m)
    _assert_normal(scaled)
    assert scaled.coeffs == _trim(c * m ** k for k, c in enumerate(cs))
    even, odd = a.even_odd_parts()
    _assert_normal(even)
    _assert_normal(odd)
    assert (even.coeffs, odd.coeffs) == (_trim(cs[0::2]), _trim(cs[1::2]))
    for point in (m, int(m), x):
        value = a.eval(point)
        assert value == _ref_eval(cs, point)
        assert type(value) is (float if isinstance(point, float)
                               else Fraction)
    ints = a.int_coeffs()
    if cs:
        assert ints[-1] > 0 and math.gcd(*ints) == 1
        assert Poly(ints).monic() == monic
    else:
        assert ints == []


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(allow_zero=False))
def test_scalar_results_keep_normal_form(a, b):
    for s in (a, b, a + b, a - b, a * b, a / b, -a):
        _assert_normal(s.num)
        _assert_normal(s.den)
        assert s.den.ints[-1] == s.den.dd   # monic
        assert poly_gcd(s.num, s.den) == ONE_POLY or s.num.is_zero


def test_poly_rejects_float_coefficients():
    with pytest.raises(TypeError, match="rational coefficient expected"):
        Poly((1, 0.5))
