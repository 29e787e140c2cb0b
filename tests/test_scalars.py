import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spinharm import scalars as scalars_module, verify
from spinharm.scalars import (
    IdenticallyZero, IrrationalRoots, NotExpressibleInT, ONE, ONE_POLY, Poly,
    PoleError, SMALL_BOUND, Scalar, Substitution, ZERO, ZERO_POLY,
    as_polynomial_in_t, eval_numeric, format_scalar, poly_gcd, rational_roots,
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
    assert rational_roots(p)[0] == {Fraction(3, 2): 2}


def test_roots_product():
    # t(t - 1/2)(t - 5/4)
    p = Poly((0, 1)) * Poly((Fraction(-1, 2), 1)) * Poly((Fraction(-5, 4), 1))
    assert rational_roots(p)[0] == {Fraction(0): 1, Fraction(1, 2): 1,
                                    Fraction(5, 4): 1}


def test_roots_drop_irrational_roots_next_to_rational_ones():
    # the fraction nearest sqrt(2)'s interval is the root 1 outside it
    p = Poly((-1, 1)) * Poly((-2, 0, 1))   # (t - 1)(t^2 - 2)
    assert rational_roots(p)[0] == {Fraction(1): 1}


def _real_root_count(poly, positive_only=True):
    """Distinct real roots of poly in t > 0, or in t != 0, read off
    rational_roots: its rational roots plus its irrational intervals."""
    roots, others = rational_roots(poly)
    return sum(1 for r in roots if r > 0 or not positive_only and r) + \
        sum(1 for lo, _, _ in others if lo >= 0 or not positive_only)


def test_roots_zero_polynomial_rejected():
    with pytest.raises(IdenticallyZero):
        rational_roots(Poly(()))


def test_roots_random_degree5_against_bisection_oracle():
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(6)]
        coeffs[5] = rng.choice([1, 2, 3, -1, -2])
        p = Poly(coeffs)
        roots, _ = rational_roots(p)
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


def _positive_part(poly):
    """rational_roots(poly) cut to t > 0 by the sign of each root and
    interval."""
    roots, others = rational_roots(poly)
    return ({r: k for r, k in roots.items() if r > 0},
            [iv for iv in others if iv[0] >= 0])


# t^2 (t + 3/2)(t - 5)(t^2 - 2)(t^2 + t - 1): a t^k factor, a negative
# rational root and irrational roots on both sides of 0
DOMAIN_CASE = Poly((0, 0, 1)) * _linear(Fraction(-3, 2)) * _linear(5) * \
    Poly((-2, 0, 1)) * Poly((-1, 1, 1))


def test_roots_large_integer_root():
    assert rational_roots(_linear(10000000019))[0] == \
        {Fraction(10000000019): 1}


def test_roots_twenty_digit_root():
    r = 10**20 + 39
    assert rational_roots(_linear(r))[0] == {Fraction(r): 1}


def test_roots_eleven_digit_primes():
    p, q = 50000000021, 50000001041   # distinct primes near 5*10^10
    poly = Poly((-1, 2)) * Poly((-p, q))   # (2t - 1)(qt - p)
    assert rational_roots(poly)[0] == {Fraction(1, 2): 1, Fraction(p, q): 1}


def test_roots_repeated_root_next_to_large_one():
    p, q = 170000000033, 600000012431
    poly = Poly((-7, 3)) * Poly((-7, 3)) * _linear(Fraction(p, q))
    assert rational_roots(poly)[0] == {Fraction(7, 3): 2, Fraction(p, q): 1}


def test_roots_eleven_digit_neighbours():
    # p/q and p/q + 1/q^2: the closest pair the reconstruction must part
    p, q = 50000000021, 50000001041
    near = Fraction(p * q + 1, q * q)
    poly = Poly((-p, q)) * _linear(near)
    assert rational_roots(poly)[0] == {Fraction(p, q): 1, near: 1}


def test_roots_irrational_pair_around_an_eleven_digit_root():
    # q^2 (q t - p)^2 - 2 has the roots p/q +- sqrt(2)/q^2; the fraction
    # nearest each of their intervals is p/q, which lies outside both
    p, q = 170000000033, 600000012431
    line = Poly((-p, q))
    poly = line * (Poly((q * q,)) * line * line - Poly((2,)))
    assert poly.int_coeffs()[-1] == q ** 5
    assert rational_roots(poly)[0] == {Fraction(p, q): 1}
    assert _real_root_count(poly) == 3


# roots on the split points of Sturm bisection from the Cauchy bound
# B = 2 + max|f_i| // lead, the engine before continued fractions (split * B
# is a root); SPLIT_POINTS below holds those of continued fractions
@pytest.mark.parametrize("roots,quadratic,split", [
    # (B/2, B] or (0, B] holds one root: the narrowing hit it
    ((Fraction(3, 2),), None, Fraction(1, 2)),             # B = 3
    ((Fraction(1, 2),), None, Fraction(1, 4)),             # B = 2
    ((Fraction(15, 4),), None, Fraction(3, 4)),            # B = 5
    ((Fraction(-3),), (1, 1, 1), Fraction(-1, 2)),         # B = 6
    # two roots share the half: the isolating bisection hit it
    ((Fraction(9, 2), Fraction(-7, 8)), (-2, 0, 1), Fraction(1, 2)),  # B = 9
    ((Fraction(1),), (-2, 0, 1), Fraction(1, 4)),          # B = 4
    ((Fraction(-16), Fraction(-15, 8)), None, Fraction(-1, 2)),       # B = 32
])
def test_roots_on_the_former_sturm_split_points(roots, quadratic, split):
    from spinharm.homogeneous import ROOT_SET, Verdict, vanishing_verdict
    poly = Poly(quadratic or (1,))
    for r in roots:
        poly = poly * _linear(r)
    f = poly.int_coeffs()
    assert split * (2 + max(abs(c) for c in f[:-1]) // f[-1]) in roots
    assert rational_roots(poly)[0] == {r: 1 for r in roots}
    irrational = 2 if quadratic == (-2, 0, 1) else 0
    assert _real_root_count(poly, positive_only=False) == \
        len(roots) + irrational
    assert _real_root_count(poly) == \
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
    assert an.harmonicity() == Verdict(
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
        assert rational_roots(poly)[0] == expect, poly


def _real_irrational_quadratic(rng):
    """a t^2 + b t + c with two real irrational roots."""
    while True:
        a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
        disc = b * b - 4 * a * c
        if disc > 0 and math.isqrt(disc) ** 2 != disc:
            return Poly((c, b, a))


def test_irrational_refusal_against_sympy_oracle():
    """rational_roots' roots and intervals count sympy's real roots in the
    domain, and vanishing_verdict refuses exactly when one is irrational."""
    from spinharm.homogeneous import vanishing_verdict
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(23)
    for k, poly in enumerate([*_seeded_polys(60, seed=19), DOMAIN_CASE]):
        if k % 3:
            poly = poly * _real_irrational_quadratic(rng)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j
                   for j, c in enumerate(poly.coeffs))
        real = set(sympy.Poly(expr, t).real_roots())
        for positive_only in (True, False):
            domain = [r for r in real if r > 0 or not positive_only and r]
            assert _real_root_count(poly, positive_only) == len(domain), poly
            if any(not r.is_rational for r in domain):
                with pytest.raises(IrrationalRoots):
                    vanishing_verdict([Scalar(poly)], T_ID, positive_only)
            else:
                vanishing_verdict([Scalar(poly)], T_ID, positive_only)


def test_irrational_intervals_against_sympy_oracle():
    """Each interval rational_roots returns holds exactly one real root, an
    irrational one, and the rational roots plus the intervals count
    sympy's distinct real roots, or those in t > 0 with positive_only,
    where the result is the positive part of the whole one."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(29)
    p, q = 170000000033, 600000012431
    line = Poly((-p, q))
    polys = list(_seeded_polys(60, seed=31)) + [
        line * (Poly((q * q,)) * line * line - Poly((2,))), DOMAIN_CASE]
    for k, poly in enumerate(polys):
        for _ in range(k % 3):
            poly = poly * _real_irrational_quadratic(rng)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j
                   for j, c in enumerate(poly.coeffs))
        real = sympy.Poly(expr, t).real_roots(multiple=False)
        for positive_only in (False, True):
            roots, others = rational_roots(poly, positive_only)
            for lo, hi, bits in others:
                a, b = sympy.Rational(lo, 2**bits), sympy.Rational(hi, 2**bits)
                inside = [r for r, _ in real if a < r <= b]
                assert len(inside) == 1 and not inside[0].is_rational, poly
            domain = [r for r, _ in real if r > 0 or not positive_only]
            assert len(roots) + len(others) == len(domain), poly
            if positive_only:
                assert (roots, others) == _positive_part(poly), poly


# roots where continued-fraction isolation shifts, splits and stops: 0, 1,
# small integers, the Stern-Brocot fractions next to 1, dyadic fractions,
# and 2^e + 1 past a power-of-two lower bound
SPLIT_POINTS = [Fraction(r) for r in (
    0, 1, 2, 3, 5, 9, 17, 64, "1/2", "1/3", "2/3", "3/2", "1/4", "3/4", "5/8",
    "7/16", "1/1024")]


def _edge_polys(count, seed):
    """Planted roots with numerators and denominators of up to 12 digits,
    roots at SPLIT_POINTS or their negatives, each possibly repeated, times
    irrational quadratics on both sides of 0 (t^2 - c, t^2 + t - 1, or two
    real roots anywhere)."""
    rng = random.Random(seed)
    for _ in range(count):
        poly = Poly((rng.choice([1, -3, 4]),))
        roots = [rng.choice([1, -1]) * rng.choice(SPLIT_POINTS)
                 for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 2)):
            digits = rng.randint(1, 12)
            roots.append(Fraction(rng.randint(-10 ** digits, 10 ** digits),
                                  rng.randint(1, 10 ** digits)))
        for r in roots:
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = poly * _linear(r)
        for _ in range(rng.randint(0, 2)):
            c = rng.choice([2, 3, 5, 7, 10, 1 << 40 | 1])
            poly = poly * rng.choice([Poly((-c, 0, 1)), Poly((-1, 1, 1)),
                                      _real_irrational_quadratic(rng)])
        yield poly


def _plain_root_count(plain, lo, hi):
    """Distinct real roots of the plain-kernel Poly in (lo, hi], by
    Sturm's theorem."""
    import plain_kernel
    chain = [plain, plain_kernel._derivative(plain)]
    while chain[-1].degree > 0:
        rem = plain_kernel._divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(-rem)
    return plain_kernel._sturm_variations(chain, lo) - \
        plain_kernel._sturm_variations(chain, hi)


def test_roots_against_the_plain_kernels_sturm_isolation():
    """Continued fractions against the plain kernel's Sturm isolation, on
    the whole line and with positive_only: the same rational roots and
    multiplicities, and as many irrational intervals on each side of 0;
    each interval has lo < hi, no end a root, and exactly one root inside,
    an irrational one.  With positive_only the result is the positive part
    of the whole one."""
    import plain_kernel
    # (t - 1)(t^2 + t - 1): t = 1 is a root and the first split point, and
    # the half (0, 1) meets the Farey rule at once with 1 as an end
    polys = [Poly((1, -2, 0, 1)), DOMAIN_CASE] + \
        list(_seeded_polys(60, seed=37)) + list(_edge_polys(80, seed=41))
    for poly, positive_only in itertools.product(polys, (False, True)):
        plain = plain_kernel.Poly(poly.coeffs)
        roots, others = rational_roots(poly, positive_only)
        plain_roots, plain_others = \
            plain_kernel.rational_roots(plain, positive_only)
        assert roots == plain_roots, poly
        assert sorted(lo >= 0 for lo, _, _ in others) == \
            sorted(lo >= 0 for lo, _, _ in plain_others), poly
        for lo, hi, k in others:
            assert k == 0 and lo < hi and (lo >= 0 or hi <= 0), poly
            assert plain.eval(lo) and plain.eval(hi), poly
            assert _plain_root_count(plain, lo, hi) == 1, poly
            assert not any(lo < r < hi for r in roots), poly
        if positive_only:
            assert (roots, others) == _positive_part(poly), poly


def _planted(rng):
    """A nonzero fraction of up to 12 digits over up to 12, either sign."""
    digits = rng.randint(1, 12), rng.randint(1, 12)
    return Fraction(rng.choice([1, -1]) * rng.randint(1, 10 ** digits[0]),
                    rng.randint(1, 10 ** digits[1]))


def _low_degree_polys(count, seed):
    """Polynomials whose squarefree part has degree 1 or 2: t - r; two
    planted lines (a square discriminant, or one root twice); a quadratic
    with no real root; one with irrational real roots (small, t^2 - c for
    a c of up to 12 digits, or around a planted root); each times a
    rational constant, and some squared or times t."""
    rng = random.Random(seed)
    for k in range(count):
        kind = k % 4
        if kind == 0:
            poly = _linear(_planted(rng))
        elif kind == 1:
            r = _planted(rng)
            poly = _linear(r) * _linear(rng.choice([r, -r, _planted(rng)]))
        elif kind == 2:
            a = rng.randint(1, 10 ** rng.randint(1, 12))
            b = rng.randint(-a, a)
            c = (b * b) // (4 * a) + rng.randint(1, 10 ** rng.randint(1, 12))
            poly = Poly((c, b, a))
        else:
            r = _planted(rng)
            c = rng.randint(2, 10 ** 12)
            if math.isqrt(c) ** 2 == c:
                c += 1
            poly = rng.choice([
                _real_irrational_quadratic(rng), Poly((-c, 0, 1)),
                Poly((r.denominator ** 2,)) * _linear(r) * _linear(r)
                - Poly((2,))])
        poly = poly * Poly((_planted(rng),))
        if rng.random() < 0.3:
            poly = poly * poly
        if rng.random() < 0.2:
            poly = poly * Poly((0, 1))
        yield poly


def test_closed_form_against_continued_fractions_and_the_plain_kernel(
        monkeypatch):
    """A squarefree part of degree 1 or 2 with rational or no real roots
    is solved in closed form: the same rational roots and multiplicities
    as the plain kernel's Sturm isolation, and the same roots and the same
    irrational intervals as the continued fractions, which an irrational
    quadratic still goes to, on the whole line and with positive_only."""
    import plain_kernel
    polys = list(_low_degree_polys(200, seed=43))
    results = {(k, positive_only): rational_roots(poly, positive_only)
               for k, poly in enumerate(polys)
               for positive_only in (False, True)}
    monkeypatch.setattr(scalars_module, "_closed_form", lambda f: None)
    for (k, positive_only), (roots, others) in results.items():
        poly = polys[k]
        assert (roots, others) == rational_roots(poly, positive_only), poly
        plain = plain_kernel.rational_roots(plain_kernel.Poly(poly.coeffs),
                                            positive_only)
        assert roots == plain[0], poly
        assert len(others) == len(plain[1]), poly


def test_closed_form_against_sympy():
    """The closed form's rational roots and the intervals' count against
    sympy's real roots, in both domains."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for poly in _low_degree_polys(120, seed=47):
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t**j
                   for j, c in enumerate(poly.coeffs))
        real = sympy.Poly(expr, t).real_roots(multiple=False)
        for positive_only in (False, True):
            domain = [(r, m) for r, m in real if r > 0 or not positive_only]
            roots, others = rational_roots(poly, positive_only)
            assert roots == {Fraction(int(r.p), int(r.q)): m
                             for r, m in domain if r.is_rational}, poly
            assert len(others) == sum(not r.is_rational
                                      for r, _ in domain), poly


def test_a_roots_report_isolates_nothing(tmp_path, monkeypatch):
    # aw11 perturbed by (t - p/q), p and q 11-digit primes, as the
    # benchmark's roots files are: every verdict gcd has a squarefree part
    # of degree 1 or 2 with rational roots, solved in closed form
    import io
    import json
    from spinharm.cli import main
    from spinharm.homogeneous import load_model
    p, q = 50000000021, 50000000023
    data = load_model("aw11").to_dict()
    data["lambda"][0] += [dict(ent, coeff=f"({ent['coeff']})*(t-{p}/{q})")
                          for ent in data["lambda"][1]]
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    calls = []
    for name in ("_floor_root", "_isolate"):
        original = getattr(scalars_module, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(scalars_module, name, counted)
    out = io.StringIO()
    assert main(["report", str(path), "--format", "structured"], out=out) == 0
    report = json.loads(out.getvalue())
    assert report["harmonicity"]["roots"] == {"1/2": 1, f"{p}/{q}": 1}
    assert report["canonical_parameters"]["roots"] == {"1/8": 1}
    assert calls == []


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
       st.sampled_from([2, 3, 5, 6, 7, Fraction(1, 2), Fraction(8, 3),
                        -1, -4, Fraction(-2, 5)]),
       st.fractions(min_value=-4, max_value=4, max_denominator=6),
       st.booleans())
@example(ints=[], c=2, r=Fraction(0), odd=False)   # the zero polynomial
@example(ints=[3], c=-1, r=Fraction(1, 2), odd=False)   # a constant
@example(ints=[-2, 0, 1], c=2, r=Fraction(-3, 2), odd=True)
@settings(max_examples=60, deadline=None)
def test_vanishes_at_sqrt_c_iff_divisible_by_u2_minus_c(ints, c, r, odd):
    # c is not a rational square (nor is any c < 0), so u^2 - c is
    # irreducible over Q; p is even or odd after the factor u
    import plain_kernel
    p = Poly(ints) * Poly((0, 1) if odd else (1,))
    m = Poly((-Fraction(c), 0, 1))
    want = p.is_zero or poly_gcd(p, m).degree == 2
    assert vanishes_at(p, Fraction(c), None) == want
    assert vanishes_at(p * m, Fraction(c), None)
    # at a rational u = r, with c = r^2 as `Substitution.u_value` pairs them
    linear = Poly((-r, 1))
    assert vanishes_at(p * linear, r * r, r)
    # the integer test against the plain kernel's Fraction evaluation
    for q in (p, p * m, p * linear):
        plain = plain_kernel.Poly(q.coeffs)
        for at in ((Fraction(c), None), (r * r, r)):
            assert vanishes_at(q, *at) == plain_kernel.vanishes_at(plain, *at)


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


def _ref_gcd(a, b):
    """Monic gcd of Fraction coefficient tuples by Euclid over Q."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a)


def _prs_gcd(a, b):
    """poly_gcd with the heuristic gcd switched off."""
    saved = scalars_module.HEURISTIC_GCD_DEGREE
    scalars_module.HEURISTIC_GCD_DEGREE = math.inf
    try:
        return poly_gcd(a, b)
    finally:
        scalars_module.HEURISTIC_GCD_DEGREE = saved


_int_polys = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                      max_size=7).filter(lambda cs: cs[-1])


@settings(max_examples=150, deadline=None)
@given(_int_polys, _int_polys, _int_polys)
def test_poly_gcd_on_either_path_matches_euclid(gs, xs, ys):
    # a common factor planted in two integer polynomials
    g = Poly(gs)
    a, b = g * Poly(xs), g * Poly(ys)
    want = _ref_gcd(a.coeffs, b.coeffs)
    assert poly_gcd(a, b).coeffs == want
    assert _prs_gcd(a, b).coeffs == want
    found = scalars_module._heuristic_gcd(a.int_coeffs(), b.int_coeffs())
    if found is not None:
        assert found[-1] > 0 and Poly(found).monic().coeffs == want


def test_heuristic_gcd_runs_from_its_degree(monkeypatch):
    calls = []
    heuristic = scalars_module._heuristic_gcd
    monkeypatch.setattr(scalars_module, "_heuristic_gcd",
                        lambda x, y: calls.append(len(y) - 1) or
                        heuristic(x, y))
    d = scalars_module.HEURISTIC_GCD_DEGREE
    low, high = Poly([1] * d), Poly([1] * (d + 1))   # degrees d - 1 and d
    assert poly_gcd(low * Poly((1, 1)), low) == low.monic()
    assert calls == []
    assert poly_gcd(high * Poly((2, 1)), high) == high.monic()
    assert calls == [d]


def test_heuristic_gcd_falls_back_to_the_prs():
    # x(xi) keeps a factor 2^30 for each 2^b tried, so every candidate is a
    # power of u, which does not divide x; the PRS finds gcd 1
    x = Poly([2 ** 30] * 5 + [1])
    y = Poly((0, 0, 0, 0, 1))
    assert scalars_module._heuristic_gcd(x.int_coeffs(), y.int_coeffs()) \
        is None
    assert poly_gcd(x, y) == ONE_POLY == _prs_gcd(x, y)


def test_heuristic_gcd_at_degree_eighty():
    # two degree-80 values with a degree-40 common factor and large
    # coefficients, as a cleared model file gives
    rng = random.Random(11)
    g, p, q = (Poly([rng.randint(-10 ** 12, 10 ** 12) for _ in range(41)])
               for _ in range(3))
    want = _prs_gcd(g * p, g * q)
    assert want == (g * poly_gcd(p, q)).monic()
    assert poly_gcd(g * p, g * q) == want


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


def _unit_at_zero(rng, degree):
    """A seeded Poly of the given degree, Fraction coefficients with small
    denominators and a nonzero constant term: no power of u divides it."""
    cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 6))
          for _ in range(degree + 1)]
    cs[0], cs[-1] = cs[0] or 1, cs[-1] or -1
    return Poly(cs)


def _u_to(k):
    return Poly((0,) * k + (1,))


def _plain(p):
    import plain_kernel
    return plain_kernel.Poly(p.coeffs)


def test_power_of_u_denominator_against_the_plain_kernel(monkeypatch):
    """Scalar(num, den) with den = c u^k cancels u^j, j = min(k, the power
    of u dividing num), by slicing, with no poly_gcd call; den = c u^k
    (u - r) takes the general path.  Both against the plain kernel on
    seeded numerators with a planted u^j and, for the general path, a
    planted common factor u - r: j below, at and above k, c negative or
    rational, and a numerator with a rational dd."""
    import plain_kernel
    calls = []
    gcd = scalars_module.poly_gcd
    monkeypatch.setattr(scalars_module, "poly_gcd",
                        lambda a, b: calls.append(1) or gcd(a, b))
    rng = random.Random(47)
    seen = set()
    for _ in range(400):
        k, j = rng.randint(1, 4), rng.randint(0, 6)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        num = _u_to(j) * _unit_at_zero(rng, rng.randint(0, 4))
        den = _u_to(k) * Poly((c,))
        general = rng.random() < 0.3
        if general:
            r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                         rng.randint(1, 3))
            den = den * Poly((-r, 1))
            if rng.random() < 0.5:
                num = num * Poly((-r, 1))
        calls.clear()
        got = Scalar(num, den)
        want = plain_kernel.Scalar(_plain(num), _plain(den))
        assert (got.num.coeffs, got.den.coeffs) == \
            (want.num.coeffs, want.den.coeffs), (num, den)
        assert bool(calls) == (general and num.degree > 0), (num, den)
        seen |= {("general" if general else "lane", (j > k) - (j < k)),
                 ("c < 0", c < 0), ("c rational", c.denominator > 1),
                 ("dd", num.dd > 1)}
    assert seen == {(path, order) for path in ("general", "lane")
                    for order in (-1, 0, 1)} | \
        {(label, flag) for label in ("c < 0", "c rational", "dd")
         for flag in (False, True)}


def test_poly_gcd_with_planted_powers_of_u_against_the_plain_kernel():
    """poly_gcd splits off the power of u its operands share and returns
    at once for a monomial operand; against the plain kernel's Euclid on
    seeded pairs u^i h x, u^j h y with a planted common factor h, and
    pairs with a monomial c u^j, across the heuristic and the PRS paths."""
    import plain_kernel
    rng = random.Random(53)
    for _ in range(300):
        i, j = rng.randint(0, 4), rng.randint(0, 4)
        h = _unit_at_zero(rng, rng.randint(0, 3))
        a = _u_to(i) * h * _unit_at_zero(rng, rng.randint(0, 6))
        if rng.random() < 0.25:
            b = _u_to(j) * Poly((Fraction(rng.randint(-9, 9) or 1,
                                          rng.randint(1, 4)),))
        else:
            b = _u_to(j) * h * _unit_at_zero(rng, rng.randint(0, 6))
        want = plain_kernel.poly_gcd(_plain(a), _plain(b)).coeffs
        assert poly_gcd(a, b).coeffs == want, (a, b)
        assert poly_gcd(b, a).coeffs == want, (a, b)
        assert _prs_gcd(a, b).coeffs == want, (a, b)


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


# ---------------------------------------------------------------------------
# shared small constants


def _is_small(f):
    return -SMALL_BOUND < f.numerator < SMALL_BOUND and \
        f.denominator <= SMALL_BOUND


_wide_rationals = st.fractions(min_value=-300, max_value=300,
                               max_denominator=150)


@settings(max_examples=300, deadline=None)
@given(_wide_rationals, _wide_rationals)
def test_rational_arithmetic_matches_fraction_and_shares_small_results(x, y):
    a, b = Scalar.rational(x), Scalar.rational(y)
    cases = [(a + b, x + y), (a - b, x - y), (a * b, x * y), (-a, -x)]
    if y:
        cases.append((a / b, x / y))
    shared = {id(s) for s in scalars_module._SMALL.values()}
    for got, want in cases:
        assert got.as_fraction() == want
        assert got.den is ONE_POLY
        _assert_normal(got.num)
        pair = (want.numerator, want.denominator)
        if _is_small(want):
            assert got is scalars_module._rational(*pair)
        else:
            assert pair not in scalars_module._SMALL
            assert id(got) not in shared


def test_equal_small_constants_are_one_object():
    _rational = scalars_module._rational
    half = Scalar.rational(1, 2)
    assert Scalar.rational(1) is ONE and Scalar.rational(0) is ZERO
    assert _rational(2, 4) is half and _rational(-64, 128) is -half
    for same in (Scalar.rational(Fraction(1, 2)), Scalar.rational(-1, -2),
                 Scalar.rational(32, 64), Scalar.rational(Fraction(3, 6)),
                 _rational(3 * 64, 6 * 64), sc(1, 4) + sc(1, 4),
                 sc(3, 2) - ONE, sc(3, 4) * sc(2, 3), sc(1, 4) / sc(1, 2),
                 -sc(-1, 2)):
        assert same is half
    assert sc(3, 4) * sc(4, 3) is ONE and sc(5, 7) - sc(5, 7) is ZERO
    assert -ZERO is ZERO and ZERO / sc(3) is ZERO and ZERO - ZERO is ZERO
    assert half - ZERO is half and ZERO - half is -half


def test_constants_outside_the_bound_are_not_stored():
    _rational, table = scalars_module._rational, scalars_module._SMALL
    for n, d in ((SMALL_BOUND, 1), (-SMALL_BOUND, 1), (1, SMALL_BOUND + 1),
                 (2 * SMALL_BOUND + 2, 2), (10 ** 30, 7)):
        s, f = _rational(n, d), Fraction(n, d)
        assert s.as_fraction() == f
        assert (n, d) not in table
        assert (f.numerator, f.denominator) not in table
        assert _rational(n, d) is not s
    edge = _rational(SMALL_BOUND - 1, SMALL_BOUND)
    assert table[(SMALL_BOUND - 1, SMALL_BOUND)] is edge
    assert _rational(1 - SMALL_BOUND, SMALL_BOUND) is -edge


def test_shared_constants_stay_within_the_bound_after_verify():
    verify.run_all(trials=20)
    table = scalars_module._SMALL
    assert (2 * SMALL_BOUND - 1) * SMALL_BOUND == 8128
    assert 0 < len(table) <= 8128
    for (n, d), s in table.items():
        assert -SMALL_BOUND < n < SMALL_BOUND and 0 < d <= SMALL_BOUND
        assert s.as_fraction() == Fraction(n, d)


# ---------------------------------------------------------------------------
# the shared ZERO and the identity short-circuits: a fast path only


def _fresh_zero():
    """A zero built by the public constructor: equal to ZERO, not it."""
    return Scalar(Poly(()))


def _fresh_one():
    return Scalar(Poly((1,)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_fast_path_scalars(),
                 _coeffs.map(lambda cs: Scalar(Poly(cs)))))
def test_short_circuits_match_a_non_shared_zero_and_one(x):
    zero, one = _fresh_zero(), _fresh_one()
    assert zero is not ZERO and one is not ONE
    assert zero == ZERO and one == ONE
    for got, want in ((x + ZERO, x + zero), (ZERO + x, zero + x),
                      (x - ZERO, x - zero), (ZERO - x, zero - x),
                      (x * ZERO, x * zero), (ZERO * x, zero * x),
                      (x * ONE, x * one), (ONE * x, one * x),
                      (x + 0, x + zero), (0 - x, zero - x), (x * 1, x * one)):
        assert got == want
        _assert_reduced_as(got, want.num, want.den)


@settings(max_examples=100, deadline=None)
@given(_fast_path_scalars(), _fast_path_scalars())
def test_kernel_built_zeros_are_the_shared_zero(x, y):
    # a zero operand may come back as it stands, so x is drawn nonzero
    if x.is_zero:
        x = x + ONE
    zero = _fresh_zero()
    assert x - x is ZERO
    assert x + (-x) is ZERO and (-x) + x is ZERO
    assert x * 0 is ZERO and 0 * x is ZERO
    assert -ZERO is ZERO and -zero is ZERO
    assert (x + y) - (y + x) is ZERO
    if not y.is_zero:
        assert zero / y is ZERO
    # a cancelling sum of polynomials and one over a shared denominator
    p = Scalar(Poly((1, 2, 3)))
    assert p + Scalar(Poly((-1, -2, -3))) is ZERO
    q = Scalar(Poly((1,)), Poly((1, 1)))
    assert q + Scalar(Poly((-1,)), Poly((1, 1))) is ZERO


def test_reflected_operators_refuse_what_no_scalar_accepts():
    # a float on the left once recursed through __rsub__/__rtruediv__
    for other in (0.5, "x", None):
        with pytest.raises(TypeError, match="unsupported operand"):
            other - ONE
        with pytest.raises(TypeError, match="unsupported operand"):
            other / sc(3)
    assert 1 - U == Scalar(Poly((1, -1)))
    assert Fraction(1, 2) / U == Scalar(Poly((1,)), Poly((0, 2)))


@pytest.mark.parametrize("args", [(1.5,), ("1/2",), (1, 2.0), (None,),
                                  (Fraction(1, 2), "3")])
def test_rational_refuses_what_is_not_rational(args):
    import plain_kernel
    bad = next(a for a in args if not isinstance(a, (int, Fraction)))
    for kernel in (scalars_module, plain_kernel):
        with pytest.raises(TypeError) as err:
            kernel.Scalar.rational(*args)
        assert str(err.value) == \
            f"rational coefficient expected, got {type(bad).__name__}"
    assert Scalar.rational(Fraction(3), 6) == sc(1, 2)
    assert Scalar.rational(True) is ONE


def test_short_circuits_keep_type_errors():
    # ZERO and ONE still refuse what no Scalar accepts
    for shared in (ZERO, ONE):
        for other in (0.5, "x", None):
            with pytest.raises(TypeError):
                shared + other
            with pytest.raises(TypeError):
                shared - other
            with pytest.raises(TypeError):
                shared * other
