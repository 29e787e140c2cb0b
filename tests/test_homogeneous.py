import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinharm.clifford import MultiVector, c_sigma
from spinharm.homogeneous import (ALL_T, NEVER, ROOT_SET, HomogeneousModel,
                                  ModelAnalysis, ModelError, Verdict,
                                  load_model, vanishing_verdict)
from spinharm.linalg import Matrix, basis_vec, vec_is_zero, zero_vec
from spinharm.numeric import Grid, scan
from spinharm.scalars import (MAX_QUOTE, IrrationalRoots, Poly, Scalar,
                              Substitution, as_polynomial_in_t, eval_numeric,
                              rational_roots, zero_at)

U = Scalar.u()


def sc(p, q=1):
    return Scalar.rational(p, q)


# ---------------------------------------------------------------------------
# loading and serialization


def test_builtin_names():
    for name in ("cp3", "spin4", "aw11"):
        m = load_model(name)
        assert m.name == name


def test_unknown_model():
    with pytest.raises(ModelError, match="unknown model"):
        load_model("nope")


def test_cp3_slot5_pinned():
    m = load_model("cp3")
    coeff = (sc(1) - U * U) / (sc(2) * U)
    assert m.lam[4] == MultiVector(6, {(1, 3): coeff, (2, 4): coeff})


def test_spin4_slot4_pinned():
    m = load_model("spin4")
    # (1-t)/sqrt(2t) = (2-u^2)/(2u) with u = sqrt(2t)
    assert m.lam[3].coeff((1, 2)) == (sc(2) - U * U) / (sc(2) * U)
    assert m.lam[3].coeff((5, 6)) == sc(1) / (sc(2) * U)


def test_aw11_slot7_levi_civita():
    # the Koszul-verified Levi-Civita map (the published display is its
    # negative; see the repository notes)
    m = load_model("aw11")
    q = sc(1) / (sc(4) * U)
    expected = MultiVector(
        7, {(1, 2): sc(-1), (3, 4): -(sc(1) - q), (5, 6): sc(1) - q})
    assert m.lam[6] == expected


def test_dump_load_roundtrip_bit_exact():
    for name in ("cp3", "spin4", "aw11"):
        m = load_model(name)
        text = m.dumps()
        again = HomogeneousModel.loads(text)
        assert again.dumps() == text
        assert again.to_dict() == m.to_dict()


def test_load_from_file(tmp_path, flat6_dict):
    import json
    path = tmp_path / "flat6.json"
    path.write_text(json.dumps(flat6_dict))
    m = load_model(str(path))
    assert m.name == "flat6"
    assert all(slot.is_zero for slot in m.lam)


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="bad model file"):
        load_model(str(path))


def test_bad_coefficient_reports_slot_and_column(flat6_dict):
    flat6_dict["lambda"][2] = [{"i": 1, "j": 2, "coeff": "1/(2*"}]
    with pytest.raises(ModelError, match="slot 3") as err:
        HomogeneousModel.from_dict(flat6_dict)
    assert "column 5" in str(err.value)


def test_non_unit_spinor_rejected(flat6_dict):
    flat6_dict["spinor"] = ["1", "1", "0", "0", "0", "0", "0", "0"]
    with pytest.raises(ModelError, match="unit spinor"):
        HomogeneousModel.from_dict(flat6_dict)


def test_repeated_bad_spinor_entry_is_named_at_its_first_place(flat6_dict):
    # each distinct entry is parsed once; the refusal names entry 3, not 6
    flat6_dict["spinor"] = ["0", "0", "1/x", "0", "1", "1/x", "0", "0"]
    with pytest.raises(ModelError) as err:
        HomogeneousModel.from_dict(flat6_dict)
    assert str(err.value) == \
        "bad model record: spinor entry 3: not a rational: '1/x'"


def test_repeated_spinor_entries_keep_their_values(flat6_dict):
    flat6_dict["spinor"] = ["1/2", "0", "1/2", 0, "1/2", "0.5", "0", "0"]
    model = HomogeneousModel.from_dict(flat6_dict)
    assert [c.as_fraction() for c in model.phi0] == \
        [Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2),
         0, 0]


def test_duplicate_entry_rejected(flat6_dict):
    flat6_dict["lambda"][0] = [{"i": 1, "j": 2, "coeff": "1"},
                               {"i": 1, "j": 2, "coeff": "2"}]
    with pytest.raises(ModelError, match="duplicate"):
        HomogeneousModel.from_dict(flat6_dict)


def test_bad_dimension_rejected(flat6_dict):
    flat6_dict["n"] = 5
    flat6_dict["lambda"] = flat6_dict["lambda"][:5]
    with pytest.raises(ModelError, match="unsupported dimension"):
        HomogeneousModel.from_dict(flat6_dict)


# ---------------------------------------------------------------------------
# extraction


def test_cp3_extraction_exact():
    an = ModelAnalysis(load_model("cp3"))
    s, eta = an.extract_S_eta()
    expected = Matrix.zeros(6, 6)
    for k in range(4):
        expected.data[k][k] = -(U / sc(2))
    tail = (U * U - sc(1)) / (sc(2) * U)
    expected.data[4][4] = tail
    expected.data[5][5] = tail
    assert s == expected
    assert vec_is_zero(eta)


def test_spin4_extraction_exact():
    an = ModelAnalysis(load_model("spin4"))
    s, eta = an.extract_S_eta()
    a = (sc(2) - U * U) / (sc(2) * U)   # (1-t)/sqrt(2t)
    c = sc(1) / (sc(2) * U)             # 1/(2 sqrt(2t))
    half = sc(1, 2)
    expected = Matrix.zeros(6, 6)
    expected.data[0][0] = -U / sc(4)
    expected.data[1][1] = U / sc(4)
    expected.data[0][4] = half * c
    expected.data[1][5] = -(half * c)
    expected.data[4][0] = -U / sc(4)
    expected.data[5][1] = U / sc(4)
    expected.data[4][4] = -(half * a)
    expected.data[5][5] = half * a
    assert s == expected
    # eta is half the published display; see the repository notes
    eta4 = (sc(3) - U * U) / (sc(4) * U)
    assert eta == [sc(0), sc(0), sc(0), eta4, sc(0), sc(0)]


def test_aw11_extraction_matches_published_diagonal():
    an = ModelAnalysis(load_model("aw11"))
    s, eta = an.extract_S_eta()
    t = U
    a = (sc(1) / (sc(2) * t) - sc(1)) * sc(1, 2)
    b = sc(-3) / (sc(8) * t)
    expected = Matrix.zeros(7, 7)
    for k in (0, 1, 6):
        expected.data[k][k] = a
    for k in (2, 3, 4, 5):
        expected.data[k][k] = b
    assert s == expected
    assert vec_is_zero(eta)   # identically zero for n = 7


# ---------------------------------------------------------------------------
# torsion and canonical parameters


def test_cp3_torsion_is_identity_projection():
    an = ModelAnalysis(load_model("cp3"))
    assert an.torsion() == an.model.lam


def test_spin4_torsion_slot4():
    an = ModelAnalysis(load_model("spin4"))
    w_coeff = (sc(3) - U * U) / (sc(6) * U)
    expected = MultiVector(
        6, {(1, 2): w_coeff, (3, 4): -w_coeff, (5, 6): w_coeff})
    assert an.torsion()[3] == expected


def test_torsion_slots_in_complement():
    for name in ("cp3", "spin4", "aw11"):
        an = ModelAnalysis(load_model(name))
        m = an.structure.complement_m()
        g = an.structure.annihilator()
        for slot in an.torsion():
            coords = slot.pair_coeffs()
            assert m.project(coords) == coords
            assert vec_is_zero(g.project(coords))


def test_models_with_one_spinor_share_one_structure():
    cp3 = ModelAnalysis(load_model("cp3"))
    assert cp3.structure is ModelAnalysis(load_model("spin4")).structure
    assert cp3.structure is not ModelAnalysis(load_model("aw11")).structure


def test_aw11_torsion_at_one_eighth():
    an = ModelAnalysis(load_model("aw11"))
    g = an.structure.annihilator()
    sub = an.model.substitution
    for slot in an.model.lam:
        for comp in g.project(slot.pair_coeffs()):
            assert zero_at(comp, sub, Fraction(1, 8))


def test_canonical_parameters():
    assert ModelAnalysis(load_model("cp3")).canonical_parameters() == \
        Verdict(ALL_T)
    assert ModelAnalysis(load_model("aw11")).canonical_parameters() == \
        Verdict(ROOT_SET, {Fraction(1, 8): 1})
    assert ModelAnalysis(load_model("spin4")).canonical_parameters() == \
        Verdict(NEVER)


# ---------------------------------------------------------------------------
# divergences


def test_divergence_endo_vanishes_on_builtins():
    for name in ("cp3", "spin4", "aw11"):
        an = ModelAnalysis(load_model(name))
        s, _ = an.extract_S_eta()
        assert vec_is_zero(an.divergence_endo(s, an.model.lam))


def test_divergence_vector_eta_spin4():
    an = ModelAnalysis(load_model("spin4"))
    _, eta = an.extract_S_eta()
    assert an.divergence_vector(eta, an.model.lam).is_zero


def test_divergence_vector_zero():
    an = ModelAnalysis(load_model("cp3"))
    assert an.divergence_vector(zero_vec(6), an.model.lam).is_zero


def test_divergence_vector_numeric_cross_check():
    model = load_model("cp3")
    an = ModelAnalysis(model)
    e1 = basis_vec(6, 0)
    exact = an.divergence_vector(e1, model.lam)
    val = eval_numeric(exact, model.substitution, 1)
    grid = Grid(model, [Fraction(1)])
    assert val == pytest.approx(grid.divergence_vector(np.eye(6)[:1])[0],
                                abs=1e-9)


# ---------------------------------------------------------------------------
# harmonicity


def test_cp3_harmonic_for_all_t():
    an = ModelAnalysis(load_model("cp3"))
    assert an.harmonicity() == Verdict(ALL_T)
    assert all(c.is_zero for c in an.harmonicity_residual())


def test_aw11_harmonic_for_all_t():
    assert ModelAnalysis(load_model("aw11")).harmonicity() == Verdict(ALL_T)


def test_spin4_residual_identically_zero():
    # regression for the computed truth: the six-term residual of the
    # self-consistent extraction cancels identically (the published {3/2}
    # verdict needs the inconsistent doubled S and eta; see notes)
    an = ModelAnalysis(load_model("spin4"))
    assert all(c.is_zero for c in an.harmonicity_residual())
    assert an.harmonicity() == Verdict(ALL_T)


def test_flat_toy_harmonic(flat6_dict, flat7_dict):
    an6 = ModelAnalysis(HomogeneousModel.from_dict(flat6_dict))
    assert an6.harmonicity() == Verdict(ALL_T)
    an7 = ModelAnalysis(HomogeneousModel.from_dict(flat7_dict))
    assert an7.harmonicity() == Verdict(ALL_T)
    delta_phi, c_xi_phi, _ = an7.cross_check_terms()
    assert vec_is_zero(delta_phi) and vec_is_zero(c_xi_phi)


def test_g2_toy_root_set(g2_toy_dict):
    an = ModelAnalysis(HomogeneousModel.from_dict(g2_toy_dict))
    assert an.harmonicity() == Verdict(ROOT_SET, {Fraction(1, 2): 1})
    # residual is (2t-1)/4 in the second coordinate
    nz = [c for c in an.harmonicity_residual() if not c.is_zero]
    assert nz == [(sc(2) * U - sc(1)) / sc(4)]


def test_verdict_repr_lists_roots_with_multiplicities():
    assert repr(Verdict(ROOT_SET, {Fraction(3, 2): 1, Fraction(-1, 2): 2})) \
        == "Verdict(ROOT_SET: {-1/2(x2), 3/2})"
    assert repr(Verdict(ALL_T)) == "Verdict(ALL_T)"


def test_g2_toy_numeric_bracketing(g2_toy_dict):
    model = HomogeneousModel.from_dict(g2_toy_dict)
    rows = scan(model, Fraction(1, 4), Fraction(1, 1), 12)
    vals = {t: r for (t, r) in rows}
    root = Fraction(1, 2)
    assert vals[root] < 1e-12
    left = max(t for t in vals if t < root)
    right = min(t for t in vals if t > root)
    assert vals[left] > vals[root] and vals[right] > vals[root]


# ---------------------------------------------------------------------------
# Laplacian cross-check


def test_cross_check_residual_zero_on_builtins():
    for name in ("cp3", "spin4", "aw11"):
        an = ModelAnalysis(load_model(name))
        assert all(c.is_zero for c in an.cross_check_terms()[2])
        assert an.laplacian_cross_check() == Verdict(ALL_T)


def test_cross_check_agrees_with_harmonicity_on_builtins():
    for name in ("cp3", "spin4", "aw11"):
        an = ModelAnalysis(load_model(name))
        assert an.harmonicity() == an.laplacian_cross_check()


def test_cross_check_c_xi_phi_matches_c_sigma(g2_toy_dict):
    models = [load_model(name) for name in ("cp3", "spin4", "aw11")]
    models.append(HomogeneousModel.from_dict(g2_toy_dict))
    for model in models:
        an = ModelAnalysis(model)
        c = c_sigma(an.rep, an.torsion())[0]
        expected = c.dense().apply(an.structure.phi)
        assert an.cross_check_terms()[1] == expected, model.name


def test_spin4_xi_eta_actions_frozen():
    # recorded resolution of the published s5-vs-s6 ambiguity: with
    # xi_eta = eta(X4) xi_4 the two actions are exact opposites through
    # the j-rotation, with coefficient (3/2-t)^2/(4t) = (3-u^2)^2/(8u^2)
    from spinharm.verify import S5, S6
    an = ModelAnalysis(load_model("spin4"))
    _, eta = an.extract_S_eta()
    xi = an.torsion()
    xi_eta = MultiVector.zero(6)
    for i in range(6):
        if not eta[i].is_zero:
            xi_eta = xi_eta + xi[i].scale(eta[i])
    coeff = (sc(3) - U * U) ** 2 / (sc(8) * U * U)
    on_s5 = an.rep.act(xi_eta, S5)
    on_s6 = an.rep.act(xi_eta, S6)
    assert on_s5 == [sc(0)] * 5 + [coeff] + [sc(0)] * 2
    assert on_s6 == [sc(0)] * 4 + [-coeff] + [sc(0)] * 3


def test_theorem_residual_is_negative_of_cross_check(eta_toy_dict):
    # the chi-sign regression: on a fixture with nonvanishing chi the two
    # independently assembled residuals must be exact negatives
    an = ModelAnalysis(HomogeneousModel.from_dict(eta_toy_dict))
    s, eta = an.extract_S_eta()
    chi = an.structure.chi_vector(an.torsion(), s)
    assert not vec_is_zero(chi)
    assert not vec_is_zero(eta)
    assert an.harmonicity_residual() == \
        [-c for c in an.cross_check_terms()[2]]


# ---------------------------------------------------------------------------
# verdict machinery


def test_vanishing_verdict_multiplicity():
    sub = Substitution.T_EQUALS_U
    val = ((sc(3, 2) - U) ** 2) / (sc(2) * U)
    v = vanishing_verdict([val], sub)
    assert v == Verdict(ROOT_SET, {Fraction(3, 2): 2})


def test_vanishing_verdict_negative_roots_flag():
    sub = Substitution.T_EQUALS_U
    val = U + sc(1)
    assert vanishing_verdict([val], sub, positive_only=True) == Verdict(NEVER)
    assert vanishing_verdict([val], sub, positive_only=False) == \
        Verdict(ROOT_SET, {Fraction(-1): 1})


def test_vanishing_verdict_handles_odd_powers():
    sub = Substitution.T_EQUALS_U_SQUARED
    # u - 2 vanishes at u = 2, i.e. t = 4; u + 2 never for u > 0
    assert vanishing_verdict([U - sc(2)], sub) == \
        Verdict(ROOT_SET, {Fraction(4): 1})
    assert vanishing_verdict([U + sc(2)], sub) == Verdict(NEVER)
    assert vanishing_verdict([sc(0)], sub) == Verdict(ALL_T)
    # u = 0 is t = 0, outside the domain of u = sqrt(t)
    assert vanishing_verdict([U], sub) == Verdict(NEVER)
    assert vanishing_verdict([U], sub, positive_only=False) == Verdict(NEVER)


def test_vanishing_verdict_mixed_parity_multiplicities():
    sub = Substitution.T_EQUALS_U_SQUARED
    val = (U - sc(2)) ** 3 * (U * U + sc(1))
    assert vanishing_verdict([val], sub) == Verdict(ROOT_SET, {Fraction(4): 3})
    # sqrt(2) is irrational, t = 2 is not: u^2 - 2 divides the gcd twice
    val = U * (U * U - sc(2)) ** 2
    assert vanishing_verdict([val, val * (U + sc(1))], sub) == \
        Verdict(ROOT_SET, {Fraction(2): 2})
    sub = Substitution.T_EQUALS_HALF_U_SQUARED
    assert vanishing_verdict([(U - sc(1)) * (U + sc(3))], sub) == \
        Verdict(ROOT_SET, {Fraction(1, 2): 1})


def test_vanishing_verdict_refuses_irrational_even_gcd():
    # u^4 - 2 vanishes at t = sqrt(2): NEVER would be false
    sub = Substitution.T_EQUALS_U_SQUARED
    with pytest.raises(IrrationalRoots, match=r"-2 \+ t\^2"):
        vanishing_verdict([U ** 4 - sc(2)], sub)


def test_vanishing_verdict_refuses_irrational_mixed_gcd():
    # u^2 - u - 1 vanishes at the golden ratio, where t = u^2 is irrational;
    # ROOT_SET {9} would silently drop it
    sub = Substitution.T_EQUALS_U_SQUARED
    with pytest.raises(IrrationalRoots, match=r"3 \+ 2\*u - 4\*u\^2 \+ u\^3"):
        vanishing_verdict([(U - sc(3)) * (U * U - U - sc(1))], sub)


def test_vanishing_verdict_refuses_irrational_common_roots():
    sub = Substitution.T_EQUALS_U
    t2m2 = U * U - sc(2)
    # both vanish at sqrt(2): NEVER would be false
    with pytest.raises(IrrationalRoots, match=r"-2 \+ t\^2"):
        vanishing_verdict([t2m2, sc(2) * t2m2], sub)
    # ROOT_SET {1} would silently drop sqrt(2)
    with pytest.raises(IrrationalRoots):
        vanishing_verdict([(U - sc(1)) * t2m2], sub)


def test_irrational_refusal_quotes_a_bounded_gcd():
    # the gcd (t^2 - 2)(1 + 2t + ... + 79t^78) printed 833 characters
    sub = Substitution.T_EQUALS_U
    long = sum((sc(k + 1) * U ** k for k in range(79)), sc(0))
    with pytest.raises(IrrationalRoots) as info:
        vanishing_verdict([(U * U - sc(2)) * long], sub)
    message = str(info.value)
    head, tail = "gcd of the numerators ", " has irrational real roots"
    assert message.startswith(head + "-2 - 4*t") and message.endswith(tail)
    quoted = message[len(head):-len(tail)]
    assert len(quoted) == MAX_QUOTE + 1 and quoted.endswith("…")


def test_vanishing_verdict_complex_roots_do_not_count():
    sub = Substitution.T_EQUALS_U
    val = (U - sc(1)) * (U * U + sc(1))
    assert vanishing_verdict([val], sub) == Verdict(ROOT_SET, {Fraction(1): 1})


def test_vanishing_verdict_irrational_roots_outside_domain():
    sub = Substitution.T_EQUALS_U
    val = U * U + sc(4) * U + sc(2)   # roots -2 +- sqrt(2), both negative
    assert vanishing_verdict([val], sub, positive_only=True) == Verdict(NEVER)
    with pytest.raises(IrrationalRoots):
        vanishing_verdict([val], sub, positive_only=False)


def _intersected_verdict(values, sub, positive_only):
    """Reference: intersect the rational roots of each t-numerator."""
    common = None
    for v in values:
        num = as_polynomial_in_t(v, sub).num
        if num.is_zero:
            continue
        roots = {r: m for r, m in rational_roots(num)[0].items()
                 if r > 0 or not positive_only}
        if common is None:
            common = roots
        else:
            common = {r: min(m, common[r]) for r, m in roots.items()
                      if r in common}
    if common is None:
        return Verdict(ALL_T)
    return Verdict(ROOT_SET, common) if common else Verdict(NEVER)


_SUBS = [Substitution.T_EQUALS_U, Substitution.T_EQUALS_U_SQUARED,
         Substitution.T_EQUALS_HALF_U_SQUARED]
_roots = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _value_families(draw):
    """Values sharing roots from one pool, times root-free quadratics."""
    sub = draw(st.sampled_from(_SUBS))
    t = sub.t
    pool = draw(st.lists(_roots, min_size=1, max_size=3, unique=True))
    values = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 5)) == 0:
            values.append(sc(0))
            continue
        v = sc(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        for r in pool + [draw(_roots)]:
            v = v * (t - sc(r)) ** draw(st.integers(0, 2))
        for _ in range(draw(st.integers(0, 1))):
            v = v * (t * t + sc(draw(st.integers(1, 3))))
        values.append(v / (t + sc(draw(st.integers(1, 3)))))
    return values, sub


@settings(max_examples=80, deadline=None)
@given(_value_families(), st.booleans())
def test_vanishing_verdict_gcd_first_matches_intersection(family,
                                                          positive_only):
    values, sub = family
    assert vanishing_verdict(values, sub, positive_only) == \
        _intersected_verdict(values, sub, positive_only)


_linear = st.fractions(min_value=-3, max_value=3,
                       max_denominator=3).map(lambda a: (-a, 1))
_quadratic = st.tuples(st.integers(-3, 3), st.integers(-4, 4),
                       st.just(1))   # u^2 + b u + c as (c, b, 1)
_even = st.fractions(min_value=-4, max_value=4,
                     max_denominator=3).map(lambda c: (c, 0, 1))
_u_factor = st.one_of(_linear, _quadratic, _even)


@st.composite
def _u_factor_families(draw):
    """Products of linear and quadratic factors in u, sharing factors from
    one pool (of even factors only, at times), each over a root-free
    denominator u^2 + k; some are zero."""
    sub = draw(st.sampled_from(_SUBS))
    pool = draw(st.lists(st.one_of(_u_factor, _even) if draw(st.booleans())
                         else _even, min_size=1, max_size=3))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 5)) == 0:
            families.append(None)
            continue
        factors = [f for f in pool + [draw(_u_factor)]
                   for _ in range(draw(st.integers(0, 2)))]
        families.append((draw(st.integers(1, 4)), factors,
                         draw(st.integers(1, 3))))
    return sub, families


def _sympy_verdict(sympy, sub, nums, positive_only):
    """The verdict from sympy's exact real roots of the gcd of the
    u-numerators, or "refused" where a root in the domain has no
    rational t."""
    u, t = sympy.symbols("u t")
    nums = [n for n in nums if n != 0]
    if not nums:
        return Verdict(ALL_T)
    g = sympy.expand(nums[0])
    for n in nums[1:]:
        g = sympy.gcd(g, n)
    m = sub.u_squared_per_t
    if m is None or sympy.expand(g - g.subs(u, -u)) == 0:
        # a polynomial in t: every real root in t > 0, or in t != 0 and 0
        var = t if m is None else sympy.sqrt(sympy.Rational(m.numerator,
                                                            m.denominator) * t)
        p = sympy.Poly(sympy.expand(g.subs(u, var)), t)
        found = [(r, k) for r, k in p.real_roots(multiple=False)
                 if r > 0 or not positive_only]
    else:
        # u = +sqrt(m t): only u > 0, t = u^2/m
        found = [(r ** 2 / sympy.Rational(m.numerator, m.denominator), k)
                 for r, k in sympy.Poly(g, u).real_roots(multiple=False)
                 if r > 0]
    if not found:
        return Verdict(NEVER)
    roots = {}
    for r, k in found:
        poly = sympy.minimal_polynomial(r, t)
        if sympy.degree(poly, t) != 1:
            return "refused"
        q = sympy.Rational(sympy.solve(poly, t)[0])
        roots[Fraction(int(q.p), int(q.q))] = k
    return Verdict(ROOT_SET, roots)


@settings(max_examples=60, deadline=None)
@given(_u_factor_families(), st.booleans())
def test_vanishing_verdict_matches_sympy(family, positive_only):
    sympy = pytest.importorskip("sympy")
    u = sympy.symbols("u")
    sub, families = family
    values, nums = [], []
    for fam in families:
        if fam is None:
            values.append(sc(0))
            nums.append(sympy.Integer(0))
            continue
        c, factors, k = fam
        value, expr = sc(c), sympy.Integer(c)
        for f in factors:
            value = value * Scalar(Poly(f))
            expr = expr * sum(sympy.Rational(a.numerator, a.denominator)
                              * u ** i for i, a in enumerate(map(Fraction, f)))
        values.append(value / (U * U + sc(k)))
        nums.append(sympy.fraction(sympy.cancel(expr / (u ** 2 + k)))[0])
    try:
        got = vanishing_verdict(values, sub, positive_only)
    except IrrationalRoots:
        got = "refused"
    assert got == _sympy_verdict(sympy, sub, nums, positive_only)


# factors of a model's common denominator D: u, u - 1 and u + 1 (the pole
# t = 1/2 of spin4-divided under t = u^2/2), u^2 - 1, u^2 - 2, u^2 + 1
_D_FACTORS = st.sampled_from([(0, 1), (-1, 1), (1, 1), (-1, 0, 1),
                              (-2, 0, 1), (1, 0, 1)])


def _power(factor, k):
    out = Poly((1,))
    for _ in range(k):
        out = out * Poly(factor)
    return out


@st.composite
def _cleared_families(draw):
    """D, a power k in {1, 2}, and polynomial numerators N_i that share
    D's factors at multiplicities below, at and above theirs in D^k."""
    sub = draw(st.sampled_from(_SUBS))
    k = draw(st.sampled_from((1, 2)))
    factors = draw(st.lists(_D_FACTORS, min_size=1, max_size=3, unique=True))
    d = Poly((1,))
    for f in factors:
        d = d * _power(f, draw(st.integers(1, 2)))
    nums = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 5)) == 0:
            nums.append(Poly())
            continue
        num = Poly((draw(st.sampled_from((1, -2, 3))),))
        for f in factors + [draw(_u_factor)]:
            num = num * _power(f, draw(st.integers(0, 5)))
        nums.append(num)
    return sub, k, d, nums


def _verdict_or_refusal(values, sub, positive_only, *denominator):
    try:
        return vanishing_verdict(values, sub, positive_only, *denominator)
    except IrrationalRoots as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_cleared_families(), st.booleans())
def test_cleared_verdict_matches_the_reduced_values(family, positive_only):
    # dividing gcd(g, D^k) out of the cleared numerators' gcd once gives
    # the verdict, or the refusal, on the reduced values N_i / D^k
    sub, k, d, nums = family
    dk = d if k == 1 else d * d
    assert _verdict_or_refusal([Scalar(n) for n in nums], sub,
                               positive_only, dk) == \
        _verdict_or_refusal([Scalar(n, dk) for n in nums], sub,
                            positive_only)


def test_extraction_invariant_no_phi_component():
    # a slot from the stabilizer algebra contributes nothing at all
    d = {
        "name": "stab", "n": 6, "substitution": "t=u",
        "spinor": ["0", "0", "0", "0", "1", "0", "0", "0"],
        "lambda": [[{"i": 1, "j": 2, "coeff": "1"},
                    {"i": 3, "j": 4, "coeff": "1"}],
                   [], [], [], [], []],
        "notes": "",
    }
    an = ModelAnalysis(HomogeneousModel.from_dict(d))
    s, eta = an.extract_S_eta()
    assert s.is_zero and vec_is_zero(eta)


# ---------------------------------------------------------------------------
# exact-vs-numeric twin agreement


@pytest.mark.parametrize("name", ["cp3", "spin4", "aw11"])
def test_numeric_twin_agreement(name):
    rng = random.Random({"cp3": 101, "spin4": 102, "aw11": 103}[name])
    model = load_model(name)
    an = ModelAnalysis(model)
    sub = model.substitution
    s, eta = an.extract_S_eta()
    residual = an.harmonicity_residual()
    cross_residual = an.cross_check_terms()[2]
    ts = [Fraction(rng.randint(1, 80), rng.randint(10, 40))
          for _ in range(20)]
    grid = Grid(model, ts)
    assert not grid.poles.any()
    for row, t0 in enumerate(ts):
        s_num, eta_num = grid.s_eta[0][row], grid.s_eta[1][row]
        for i in range(model.n):
            for jj in range(model.n):
                exact = eval_numeric(s.data[i][jj], sub, t0)
                assert exact == pytest.approx(s_num[i, jj], abs=1e-9)
            assert eval_numeric(eta[i], sub, t0) == \
                pytest.approx(eta_num[i], abs=1e-9)
        res_num = grid.residual()[row]
        for k, coord in enumerate(residual):
            assert eval_numeric(coord, sub, t0) == \
                pytest.approx(res_num[k], abs=1e-9)
        cc_num = grid.cross_check_residual()[row]
        for k, coord in enumerate(cross_residual):
            assert eval_numeric(coord, sub, t0) == \
                pytest.approx(cc_num[k], abs=1e-9)


def test_scan_requires_valid_range():
    model = load_model("cp3")
    with pytest.raises(ValueError):
        scan(model, Fraction(1), Fraction(1), 10)
    with pytest.raises(ValueError):
        scan(model, Fraction(-1), Fraction(1), 10)


def test_residual_norm_near_zero_everywhere_cp3():
    model = load_model("cp3")
    for (t, r) in scan(model, Fraction(1, 10), Fraction(4), 20):
        assert r is not None and r < 1e-12
