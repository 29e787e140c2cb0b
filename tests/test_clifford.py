import random
from fractions import Fraction
from itertools import combinations

import pytest

import spinharm.clifford as clifford
from spinharm.clifford import (MultiVector, SpinRep, bracket, c_sigma,
                               index_pairs)
from spinharm.linalg import Matrix, vec_dot
from spinharm.scalars import ONE, Scalar
from spinharm import verify
from spinharm.verify import S5, S6

U = Scalar.u()


def sc(p, q=1):
    return Scalar.rational(p, q)


def rand_two_form(rng, n, terms=4):
    pairs = rng.sample(index_pairs(n), terms)
    return MultiVector(n, {p: sc(rng.randint(-3, 3)) for p in pairs})


def rand_skew(rng, n):
    m = Matrix.zeros(n, n)
    for i in range(n):
        for j in range(i + 1, n):
            v = sc(rng.randint(-3, 3))
            m.data[i][j] = v
            m.data[j][i] = -v
    return m


# ---------------------------------------------------------------------------
# representation tables and relations


def test_generator_e1_entries():
    g = SpinRep.build(6).gens[0]
    # +E18+E27-E36-E45 with E_ab: (a,b) -> -1, (b,a) -> +1
    expected = Matrix.zeros(8, 8)
    for (a, b, s) in ((1, 8, 1), (2, 7, 1), (3, 6, -1), (4, 5, -1)):
        expected.data[a - 1][b - 1] = sc(-s)
        expected.data[b - 1][a - 1] = sc(s)
    assert g == expected


def test_generator_e7_entries():
    g = SpinRep.build(7).gens[6]
    expected = Matrix.zeros(8, 8)
    for (a, b, s) in ((1, 2, 1), (3, 4, -1), (5, 6, -1), (7, 8, 1)):
        expected.data[a - 1][b - 1] = sc(-s)
        expected.data[b - 1][a - 1] = sc(s)
    assert g == expected


@pytest.mark.parametrize("n", [6, 7])
def test_clifford_relations_all_pairs(n):
    rep = SpinRep.build(n)
    minus2 = Matrix.identity(8).scale(sc(-2))
    for i in range(n):
        for j in range(n):
            anti = rep.gens[i] * rep.gens[j] + rep.gens[j] * rep.gens[i]
            assert anti == (minus2 if i == j else Matrix.zeros(8, 8))


def test_generators_skew_orthogonal():
    for n in (6, 7):
        rep = SpinRep.build(n)
        for g in rep.gens:
            assert g.is_skew()
            assert (g.transpose() * g) == Matrix.identity(8)


def test_unsupported_dimension():
    with pytest.raises(ValueError, match="unsupported"):
        SpinRep(5)


# ---------------------------------------------------------------------------
# volume element


def test_volume_element_on_s5():
    rep = SpinRep.build(6)
    j = rep.endo(rep.volume_element())
    assert j.apply(S5) == S6


def test_volume_element_square_and_anticommutation():
    rep = SpinRep.build(6)
    j = rep.endo(rep.volume_element())
    assert (j * j + Matrix.identity(8)).is_zero
    for g in rep.gens:
        assert (j * g + g * j).is_zero


def test_volume_element_needs_n6():
    with pytest.raises(ValueError, match="unsupported"):
        SpinRep.build(7).volume_element()


# ---------------------------------------------------------------------------
# action


def test_vector_action_e1_on_s5():
    rep = SpinRep.build(6)
    out = rep.gens[0].apply(S5)
    assert out == [sc(1 if k == 3 else 0) for k in range(8)]


def test_annihilator_element_kills_s5():
    rep = SpinRep.build(6)
    omega = MultiVector(6, {(1, 2): sc(1), (3, 4): sc(1)})
    assert all(c.is_zero for c in rep.act(omega, S5))


def test_grade_zero_scales():
    rep = SpinRep.build(6)
    three = MultiVector(6, {(): sc(3)})
    psi = [sc(k) for k in range(8)]
    assert rep.act(three, psi) == [sc(3) * c for c in psi]


def test_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        MultiVector(6, {(1, 7): sc(1)})


@pytest.mark.parametrize("key", [(2, 1), (3, 3), (1, 4, 2)])
def test_indices_must_increase(key):
    with pytest.raises(ValueError, match="strictly increasing"):
        MultiVector(6, {key: sc(1)})


@pytest.mark.parametrize("n, key, message", [
    (6, (1, 7), "index out of range in (1, 7)"),
    (7, (0, 2), "index out of range in (0, 2)"),
    (7, (8,), "index out of range in (8,)"),
    (6, (2, 1), "indices must be strictly increasing: (2, 1)"),
    (7, (3, 3), "indices must be strictly increasing: (3, 3)"),
    (9, (9, 10), "index out of range in (9, 10)"),
    (9, (4, 2), "indices must be strictly increasing: (4, 2)")])
def test_key_errors_name_the_key(n, key, message):
    with pytest.raises(ValueError) as info:
        MultiVector(n, {key: sc(1)})
    assert str(info.value) == message


@pytest.mark.parametrize("build, type_name", [
    (lambda: Matrix([[1.5]]), "float"),
    (lambda: MultiVector(6, {(1, 2): 1.5}), "float"),
    (lambda: Matrix.identity(2).scale(0.5), "float"),
    (lambda: MultiVector(6, {(1, 2): 1}).scale("x"), "str"),
    (lambda: SpinRep.build(6).op(MultiVector(6, {(1, 2): 1})).scale(None),
     "NoneType"),
], ids=["Matrix", "MultiVector", "Matrix.scale", "MultiVector.scale",
        "SpinOp.scale"])
def test_a_non_rational_entry_is_refused(build, type_name):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == f"rational coefficient expected, got {type_name}"


def test_index_pairs_is_one_tuple_per_n():
    for n in (6, 7):
        assert index_pairs(n) is index_pairs(n)
        assert index_pairs(n) == tuple((i, j) for i in range(1, n + 1)
                                       for j in range(i + 1, n + 1))


def test_valid_keys_keep_their_coefficients():
    want = MultiVector(7, {(1, 2): sc(1), (): sc(2), (1, 3, 7): sc(3)})
    got = MultiVector(7, {(1, 2): 1, (): 2, (1, 3, 7): 3})
    assert got == want
    assert MultiVector(9, {(8, 9): sc(1)}).terms == {(8, 9): sc(1)}


def test_internal_results_equal_checked_construction():
    # sums, negation, scaling and the pair and skew-matrix constructors
    # build their terms unchecked; the checked constructor must agree
    a = MultiVector(6, {(1, 2): U, (3, 4): sc(2), (1, 2, 3): sc(-1)})
    b = MultiVector(6, {(1, 2): -U, (5, 6): sc(1, 3)})
    for got in (a + b, -a, a.scale(U), a.scale(0), a - a,
                MultiVector.from_pair_coeffs(6, b.pair_coeffs()),
                MultiVector.from_skew_matrix(b.to_skew_matrix())):
        assert got == MultiVector(got.n, got.terms)
        assert all(not c.is_zero for c in got.terms.values())
    assert a + b == MultiVector(6, {(3, 4): sc(2), (5, 6): sc(1, 3),
                                    (1, 2, 3): sc(-1)})
    assert MultiVector.from_skew_matrix(b.to_skew_matrix()) == b


def test_vector_square_is_minus_norm():
    rng = random.Random(9)
    for n in (6, 7):
        rep = SpinRep.build(n)
        coords = [sc(rng.randint(-3, 3)) for _ in range(n)]
        x = MultiVector.vector(n, coords)
        sq = rep.endo(x) * rep.endo(x)
        norm2 = vec_dot(coords, coords)
        assert sq == Matrix.identity(8).scale(-norm2)


def test_two_form_action_skew_and_orthogonal_to_phi():
    rng = random.Random(10)
    for n in (6, 7):
        rep = SpinRep.build(n)
        for _ in range(10):
            omega = rand_two_form(rng, n)
            e = rep.endo(omega)
            assert e.is_skew()
            assert vec_dot(e.apply(S5), S5).is_zero


# ---------------------------------------------------------------------------
# spin lift


def test_lift_single_term():
    rep = SpinRep.build(6)
    e12 = Matrix.zeros(6, 6)
    e12.data[0][1] = sc(-1)
    e12.data[1][0] = sc(1)
    lifted = rep.spin_lift(e12)
    assert lifted == (rep.gens[0] * rep.gens[1]).scale(sc(1, 2))


def test_lift_reproduces_cp3_column():
    # lift of ((1-t)/(2 sqrt t))(e13+e24) applied to s5 equals S55 e5.s5
    rep = SpinRep.build(6)
    coeff = (sc(1) - U * U) / (sc(2) * U)
    omega = MultiVector(6, {(1, 3): coeff, (2, 4): coeff})
    out = rep.spin_lift(omega).apply(S5)
    s55 = -coeff
    expected = [s55 * c for c in rep.gens[4].apply(S5)]
    assert out == expected


def test_lift_commutation_defining_property():
    rng = random.Random(11)
    for n in (6, 7):
        rep = SpinRep.build(n)
        for _ in range(10):
            a = rand_skew(rng, n)
            lifted = rep.spin_lift(a)
            for i in range(n):
                comm = lifted * rep.gens[i] - rep.gens[i] * lifted
                image = Matrix.zeros(8, 8)
                for j in range(n):
                    image = image + rep.gens[j].scale(a.data[j][i])
                assert comm == image


def test_lift_is_lie_algebra_homomorphism():
    rng = random.Random(12)
    rep = SpinRep.build(6)
    for _ in range(10):
        a = rand_skew(rng, 6)
        b = rand_skew(rng, 6)
        ab = a * b - b * a
        lhs = rep.spin_lift(ab)
        la, lb = rep.spin_lift(a), rep.spin_lift(b)
        assert lhs == la * lb - lb * la


def test_lift_rejects_non_skew():
    with pytest.raises(ValueError, match="skew"):
        SpinRep.build(6).spin_lift(Matrix.identity(6))


# ---------------------------------------------------------------------------
# wedge and interior


def test_wedge_repeated_index_vanishes():
    e1 = MultiVector.vector(6, [sc(1)] + [sc(0)] * 5)
    e12 = MultiVector(6, {(1, 2): sc(1)})
    assert e1.wedge(e12).is_zero


def test_interior_contraction_rule():
    e1 = MultiVector.vector(6, [sc(1)] + [sc(0)] * 5)
    e3 = MultiVector.vector(6, [sc(0)] * 2 + [sc(1)] + [sc(0)] * 3)
    e12 = MultiVector(6, {(1, 2): sc(1)})
    assert e1.interior(e12) == MultiVector(6, {(2,): sc(1)})
    assert e3.interior(e12).is_zero


def test_clifford_commutator_contraction_identity():
    # X.w - w.X = -2 (X -| w) under the negative Clifford convention
    rng = random.Random(13)
    for k in range(50):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        x = MultiVector.vector(n, [sc(rng.randint(-3, 3)) for _ in range(n)])
        omega = rand_two_form(rng, n)
        lhs = rep.endo(x) * rep.endo(omega) - rep.endo(omega) * rep.endo(x)
        rhs = rep.endo(x.interior(omega)).scale(sc(-2))
        assert lhs == rhs


def test_wedge_anticommutes_on_vectors():
    rng = random.Random(14)
    a = MultiVector.vector(6, [sc(rng.randint(-3, 3)) for _ in range(6)])
    b = MultiVector.vector(6, [sc(rng.randint(-3, 3)) for _ in range(6)])
    assert a.wedge(b) == (-(b.wedge(a)))


# ---------------------------------------------------------------------------
# bracket


def test_bracket_sharing_one_index():
    e12 = MultiVector(6, {(1, 2): sc(1)})
    e13 = MultiVector(6, {(1, 3): sc(1)})
    assert bracket(e12, e13) == MultiVector(6, {(2, 3): sc(1)})


def test_bracket_disjoint_indices():
    e12 = MultiVector(6, {(1, 2): sc(1)})
    e34 = MultiVector(6, {(3, 4): sc(1)})
    assert bracket(e12, e34).is_zero


def test_bracket_matrix_identity():
    rng = random.Random(15)
    for k in range(30):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        a = rand_two_form(rng, n)
        b = rand_two_form(rng, n)
        lhs = rep.endo(a) * rep.endo(b) - rep.endo(b) * rep.endo(a)
        assert lhs == rep.endo(bracket(a, b)).scale(sc(2))


def test_bracket_wrong_grade():
    v = MultiVector.vector(6, [sc(1)] * 6)
    w = MultiVector(6, {(1, 2): sc(1)})
    with pytest.raises(ValueError, match="grade-2"):
        bracket(v, w)


# ---------------------------------------------------------------------------
# c_T and sigma_T


def test_c_sigma_single_slot():
    rep = SpinRep.build(6)
    slots = [MultiVector(6, {(1, 2): sc(1)})] + \
            [MultiVector.zero(6)] * 5
    c, sigma, norm2 = c_sigma(rep, slots)
    assert c.dense() == Matrix.identity(8).scale(sc(-1, 2))
    assert sigma.is_zero
    assert norm2 == sc(1)
    # the difference is exactly the scalar -(1/2)|T|^2
    diff = c.dense() - rep.endo(sigma)
    assert diff == Matrix.identity(8).scale(sc(-1, 2) * norm2)


def test_c_sigma_zero_tensor():
    rep = SpinRep.build(6)
    c, sigma, norm2 = c_sigma(rep, [MultiVector.zero(6)] * 6)
    assert c.dense().is_zero and sigma.is_zero and norm2.is_zero


def test_c_sigma_kappa_universal():
    rng = random.Random(16)
    for k in range(50):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        slots = [rand_two_form(rng, n, terms=3) for _ in range(n)]
        c, sigma, norm2 = c_sigma(rep, slots)
        # the difference is exactly the scalar -(1/2)|T|^2
        diff = c.dense() - rep.endo(sigma)
        assert diff == Matrix.identity(8).scale(sc(-1, 2) * norm2)


def test_c_sigma_refuses_a_wrong_slot_count():
    rep = SpinRep.build(6)
    with pytest.raises(ValueError,
                       match="one slot per frame direction required"):
        c_sigma(rep, [MultiVector.zero(6)] * 5)


def test_c_sigma_refuses_a_slot_not_of_grade_2():
    rep = SpinRep.build(7)
    slots = [MultiVector.zero(7)] * 6 + [MultiVector.vector(7, [sc(1)] * 7)]
    with pytest.raises(ValueError, match="slots must be grade-2 elements"):
        c_sigma(rep, slots)


def test_c_sigma_property_builds_no_dense_matrix(monkeypatch):
    # c_T - sigma_T = -(1/2)|T|^2 is decided by SpinOp equality: the words
    # cancel by signed permutation and no 8x8 matrix is expanded
    calls = []
    dense = clifford._dense
    monkeypatch.setattr(clifford, "_dense",
                        lambda collected: calls.append(1) or dense(collected))
    assert verify._property_c_sigma(random.Random(0), 4) is None
    assert calls == []


def test_lift_factor_is_half():
    assert clifford.LIFT_FACTOR == Fraction(1, 2)


# ---------------------------------------------------------------------------
# signed-permutation action against the dense ordered products of `gens`


def _dense_product(a, b):
    """Reference 8x8 product, one vec_dot per entry with no zero skipping."""
    cols = list(zip(*b.data))
    return Matrix([[vec_dot(row, col) for col in cols] for row in a.data])


def _dense_tuple_products(rep):
    """e_I as the ordered product of dense generators, every increasing I."""
    ref = {(): Matrix.identity(8)}
    for k in range(1, rep.n + 1):
        for key in combinations(range(1, rep.n + 1), k):
            ref[key] = _dense_product(ref[key[:-1]], rep.gens[key[-1] - 1])
    return ref


@pytest.mark.parametrize("n", [6, 7])
def test_basis_op_matches_dense_products(n):
    rep = SpinRep.build(n)
    ref = _dense_tuple_products(rep)
    assert len(ref) == 2 ** n
    for key, dense in ref.items():
        assert rep.op(MultiVector(n, {key: ONE})).dense() == dense, key


@pytest.mark.parametrize("n", [6, 7])
def test_endo_matches_dense_products(n):
    rep = SpinRep.build(n)
    ref = _dense_tuple_products(rep)
    coeffs = {key: (sc(k % 5 - 2) + U ** (k % 3)) / (sc(1) + U)
              for k, key in enumerate(ref)}
    total = Matrix.zeros(8, 8)
    for key, dense in ref.items():
        c = coeffs[key]
        assert rep.endo(MultiVector(n, {key: c})) == dense.scale(c), key
        total = total + dense.scale(c)
    assert rep.endo(MultiVector(n, coeffs)) == total


@pytest.mark.parametrize("n", [6, 7])
def test_act_matches_dense_products(n):
    rep = SpinRep.build(n)
    ref = _dense_tuple_products(rep)
    spinor = [sc(0), U, sc(-3, 2), sc(0), sc(1) / (sc(2) + U), sc(1), sc(0),
              U * U]
    m = MultiVector(n, {key: sc(k % 7 - 3) + U
                        for k, key in enumerate(ref)})
    expected = [sc(0)] * 8
    for key, c in m.terms.items():
        image = [vec_dot(row, spinor) for row in ref[key].data]
        expected = [e + c * x for e, x in zip(expected, image)]
    assert rep.act(m, spinor) == expected
    v = m.grade(1)
    assert rep.act_vector(v.vector_coords(), spinor) == rep.act(v, spinor)
