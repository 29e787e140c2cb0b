import io
import random
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from spinharm import cli, gstruct, verify
from spinharm.clifford import MultiVector, SpinRep, _perm_sign, index_pairs
from spinharm.gstruct import SpinorStructure, unit_spinor
from spinharm.homogeneous import BUILTIN_MODELS
from spinharm.linalg import (Matrix, Subspace, vec_add, vec_dot, vec_is_zero,
                             vec_scale, zero_vec)
from spinharm.scalars import Poly, Scalar, Substitution
from spinharm.verify import (G2_COMPLEMENT, G2_GENERATORS, S5, S6,
                             SU3_COMPLEMENT, SU3_GENERATORS, _forms_subspace)

import reference

U = Scalar.u()


def sc(p, q=1):
    return Scalar.rational(p, q)


def structure(n):
    return SpinorStructure(SpinRep.build(n), S5)


def rand_vec(rng, n):
    return [sc(rng.randint(-3, 3)) for _ in range(n)]


def rand_matrix(rng, n):
    return Matrix([[sc(rng.randint(-3, 3)) for _ in range(n)]
                   for _ in range(n)])


PSI6 = {(1, 3, 5): -1, (1, 4, 6): -1, (2, 3, 6): 1, (2, 4, 5): -1}
PSI7 = {(1, 2, 7): 1, (1, 3, 5): 1, (1, 4, 6): 1, (2, 3, 6): -1,
        (2, 4, 5): 1, (3, 4, 7): -1, (5, 6, 7): 1}


# ---------------------------------------------------------------------------
# unit spinors and decomposition


def test_unit_spinor_validation():
    with pytest.raises(ValueError, match="unit"):
        unit_spinor([sc(2)] + [sc(0)] * 7)
    with pytest.raises(ValueError, match="must be a unit spinor"):
        unit_spinor([sc(0)] * 8)
    unit_spinor([sc(3, 5), sc(0), sc(0), sc(0), sc(4, 5)] + [sc(0)] * 3)


def test_shared_structure_is_built_once_per_key():
    assert SpinorStructure.shared(6, S5) is SpinorStructure.shared(6, list(S5))
    assert SpinorStructure.shared(7, S5) is not SpinorStructure.shared(6, S5)
    bad = [sc(2)] + [sc(0)] * 7
    for _ in range(2):   # a failed build leaves nothing behind
        with pytest.raises(ValueError, match="unit"):
            SpinorStructure.shared(6, bad)


def test_decompose_phi_itself():
    st = structure(6)
    parts = st.decompose(S5)
    assert parts.a == sc(1) and parts.b == sc(0)
    assert vec_is_zero(parts.vector)


def test_decompose_j_phi():
    st = structure(6)
    parts = st.decompose(S6)
    assert parts.a == sc(0) and parts.b == sc(1)
    assert vec_is_zero(parts.vector)


def test_decompose_n7_has_no_j_part():
    st = structure(7)
    parts = st.decompose(S5)
    assert parts.a == sc(1) and parts.b is None


@pytest.mark.parametrize("n", [6, 7])
def test_decompose_roundtrip_random(n):
    rng = random.Random(21)
    st = structure(n)
    rep = st.rep
    for _ in range(50):
        psi = rand_vec(rng, 8)
        parts = st.decompose(psi)
        recomposed = vec_scale(parts.a, st.phi)
        if n == 6:
            jphi = rep.endo(rep.volume_element()).apply(st.phi)
            recomposed = vec_add(recomposed, vec_scale(parts.b, jphi))
        recomposed = vec_add(recomposed,
                             rep.act_vector(parts.vector, st.phi))
        assert recomposed == psi


# ---------------------------------------------------------------------------
# annihilator and complement


def test_annihilator_su3():
    st = structure(6)
    ann = st.annihilator()
    assert ann.dim == 8
    assert ann == _forms_subspace(SU3_GENERATORS, 6)


def test_annihilator_g2():
    st = structure(7)
    ann = st.annihilator()
    assert ann.dim == 14
    assert ann == _forms_subspace(G2_GENERATORS, 7)


def test_complements_match_published_lists():
    assert structure(6).complement_m() == _forms_subspace(SU3_COMPLEMENT, 6)
    assert structure(7).complement_m() == _forms_subspace(G2_COMPLEMENT, 7)


@pytest.mark.parametrize("n,dim", [(6, 8), (7, 14)])
def test_annihilator_dimension_for_other_unit_spinors(n, dim):
    # rationally normalizable spinors in other directions
    for coords in ([sc(1)] + [sc(0)] * 7,
                   [sc(3, 5), sc(0), sc(0), sc(0), sc(4, 5)] + [sc(0)] * 3,
                   [sc(0), sc(5, 13), sc(0), sc(12, 13)] + [sc(0)] * 4):
        st = SpinorStructure(SpinRep.build(n), coords)
        assert st.annihilator().dim == dim
        assert len(st.action_matrix().rref()[1]) == 7


def test_m_action_spans_phi_perp():
    st = structure(6)
    m = st.complement_m()
    images = [st.rep.act(MultiVector.from_pair_coeffs(6, v), st.phi)
              for v in m.basis]
    span = Subspace(8, images)
    assert span.dim == 7
    for img in images:
        assert vec_dot(img, st.phi).is_zero


def test_u3_perp_action_gives_vector_part():
    # adjoining the Kahler form to su(3) gives u(3); its complement acts as
    # the X.phi slice of the spinor space
    st = structure(6)
    u3_rows = [list(v) for v in st.annihilator().basis]
    u3_rows.append(st.kahler_form().pair_coeffs())
    u3 = Subspace(15, u3_rows)
    assert u3.dim == 9
    perp = u3.orthogonal_complement()
    assert perp.dim == 6
    x_span = Subspace(8, [g.apply(st.phi) for g in st.rep.gens])
    for v in perp.basis:
        img = st.rep.act(MultiVector.from_pair_coeffs(6, v), st.phi)
        assert x_span.project(img) == img


# ---------------------------------------------------------------------------
# almost complex structure


def test_almost_complex_exact_matrix():
    j = structure(6).almost_complex()
    expected = Matrix.zeros(6, 6)
    for (i, jj, v) in ((1, 2, -1), (2, 1, 1), (3, 4, 1), (4, 3, -1),
                       (5, 6, -1), (6, 5, 1)):
        expected.data[i - 1][jj - 1] = sc(v)
    assert j == expected


def test_almost_complex_properties():
    st = structure(6)
    j = st.almost_complex()
    assert (j * j + Matrix.identity(6)).is_zero
    assert j.is_skew()
    assert j.transpose() * j == Matrix.identity(6)
    # isometry on basis pairs
    for a in range(6):
        for b in range(6):
            lhs = vec_dot(j.column(a), j.column(b))
            assert lhs == (sc(1) if a == b else sc(0))


# ---------------------------------------------------------------------------
# cubic form


def test_psi_form_n6_frozen():
    psi = structure(6).psi_form()
    assert psi.terms == {k: sc(v) for k, v in PSI6.items()}
    assert psi.norm2() == sc(4)


def test_psi_form_n7_frozen():
    psi = structure(7).psi_form()
    assert psi.terms == {k: sc(v) for k, v in PSI7.items()}
    assert len(psi.terms) == 7
    assert all(c == sc(1) or c == sc(-1) for c in psi.terms.values())


@pytest.mark.parametrize("n", [6, 7])
def test_psi_form_is_kept(n):
    st = structure(n)
    assert st.psi_form() is st.psi_form()


@pytest.mark.parametrize("n", [6, 7])
def test_torsion_from_S_contracts_psi(n):
    # S e_i = e_a: slot i is f * (e_a -| psi), its (b, c) coefficient
    # f * sign(a, b, c) * psi_sorted, with f = 1 (n = 6), 2/3 (n = 7)
    st = structure(n)
    psi = PSI6 if n == 6 else PSI7
    f = sc(1) if n == 6 else sc(2, 3)
    for i in (0, n - 1):
        for a in range(1, n + 1):
            s = Matrix.zeros(n, n)
            s.data[a - 1][i] = sc(1)
            xi = st.torsion_from_S(s)
            assert all(slot.is_zero for k, slot in enumerate(xi) if k != i)
            for (b, c) in index_pairs(n):
                key = (a, b, c)
                want = sc(0)
                if len(set(key)) == 3:
                    want = f * sc(psi.get(tuple(sorted(key)), 0)
                                  * _perm_sign(key))
                assert xi[i].coeff((b, c)) == want, (i, key)


@pytest.mark.parametrize("n", [6, 7])
def test_torsion_table_matches_the_column_contraction(n):
    # random S with zeros, polynomial and fractional entries, and a zero
    # built by the public constructor (equal to ZERO, not the shared one)
    rng = random.Random(22 + n)
    entries = [sc(0), sc(0), sc(0), sc(1), sc(-2, 3), U, sc(1) - U * U,
               U / (sc(1) + U), Scalar(Poly(()))]
    st = structure(n)
    for _ in range(12):
        s = Matrix([[rng.choice(entries) for _ in range(n)]
                    for _ in range(n)])
        got = st.torsion_from_S(s)
        want = reference.torsion_from_S(st, s)
        assert got == want
        assert all(all(c for c in slot.terms.values()) for slot in got)


def test_report_and_verify_build_no_stabilizer_projector(monkeypatch):
    # fresh shared structures: the g-part of every split is x minus its
    # m-part, so only the projector onto m is ever built
    monkeypatch.setattr(gstruct, "_shared_structure",
                        cache(gstruct._shared_structure.__wrapped__))
    for name in BUILTIN_MODELS:
        assert cli.main(["report", name, "--format", "structured"],
                        out=io.StringIO()) == 0
    verify.run_all(trials=5)
    rng = random.Random(25)
    for n in (6, 7):
        st = SpinorStructure.shared(n, S5)
        assert st.annihilator()._columns is None
        assert st.complement_m()._columns is not None
        for _ in range(4):
            s = rand_matrix(rng, n)
            assert st.torsion_from_S(s) == reference.torsion_from_S(st, s)


def test_psi_repeated_argument_vanishes():
    st = structure(6)
    rng = random.Random(22)
    x = rand_vec(rng, 6)
    y = rand_vec(rng, 6)
    # <X.X.Y.phi, phi> = -|X|^2 <Y.phi, phi> = 0
    xa = st.rep.endo(MultiVector.vector(6, x))
    ya = st.rep.endo(MultiVector.vector(6, y))
    val = vec_dot(xa.apply(xa.apply(ya.apply(st.phi))), st.phi)
    assert val.is_zero


def test_psi7_interiors_span_complement():
    st = structure(7)
    psi = st.psi_form()
    m = st.complement_m()
    rows = []
    for l in range(1, 8):
        el = MultiVector(7, {(l,): sc(1)})
        coords = el.interior(psi).pair_coeffs()
        assert m.project(coords) == coords
        rows.append(coords)
    assert Subspace(21, rows).dim == 7


# ---------------------------------------------------------------------------
# torsion machinery


def test_torsion_from_zero_S():
    st = structure(6)
    xi = st.torsion_from_S(Matrix.zeros(6, 6))
    assert all(slot.is_zero for slot in xi)


def test_torsion_from_S_rejects_nonzero_eta():
    st = structure(6)
    eta = [sc(1)] + [sc(0)] * 5
    with pytest.raises(ValueError, match="homogeneous"):
        st.torsion_from_S(Matrix.zeros(6, 6), eta)


def test_torsion_slots_lie_in_complement():
    rng = random.Random(23)
    for n in (6, 7):
        st = structure(n)
        m = st.complement_m()
        raw = rand_matrix(rng, n)
        sym = (raw + raw.transpose()).scale(sc(1, 2))
        sym = sym - Matrix.identity(n).scale(sym.trace() / sc(n))
        for slot in st.torsion_from_S(sym):
            assert m.project(slot.pair_coeffs()) == slot.pair_coeffs()


def test_chi_vanishes_for_psi_built_torsion():
    rng = random.Random(24)
    for n in (6, 7):
        st = structure(n)
        s = rand_matrix(rng, n)
        xi = st.torsion_from_S(s)
        assert vec_is_zero(st.chi_vector(xi, s))


def test_chi_identity_torsion_n7():
    st = structure(7)
    xi = st.torsion_from_S(Matrix.identity(7))
    assert vec_is_zero(st.chi_vector(xi, Matrix.identity(7)))


def test_w3_energy_identity():
    rng = random.Random(25)
    st = structure(6)
    j = st.almost_complex()
    for _ in range(5):
        raw = rand_matrix(rng, 6)
        sym = (raw + raw.transpose()).scale(sc(1, 2))
        sym = sym - Matrix.identity(6).scale(sym.trace() / sc(6))
        w3 = (sym + j * sym * j).scale(sc(1, 2))
        xi = st.torsion_from_S(w3)
        acc = zero_vec(8)
        for slot in xi:
            e = st.rep.endo(slot)
            acc = vec_add(acc, e.apply(e.apply(st.phi)))
        norm2 = sum((c * c for row in w3.data for c in row), sc(0))
        assert acc == vec_scale(sc(-4) * norm2, st.phi)


# ---------------------------------------------------------------------------
# Dirac contraction


def test_dirac_symmetric_traceless_vanishes():
    rng = random.Random(26)
    st = structure(6)
    raw = rand_matrix(rng, 6)
    sym = (raw + raw.transpose()).scale(sc(1, 2))
    sym = sym - Matrix.identity(6).scale(sym.trace() / sc(6))
    assert vec_is_zero(st.dirac(sym, zero_vec(6)))


def test_dirac_identity_n7():
    st = structure(7)
    out = st.dirac(Matrix.identity(7))
    assert out == vec_scale(sc(-7), st.phi)


def test_dirac_matches_raw_reassembly():
    rng = random.Random(27)
    st = structure(6)
    s = rand_matrix(rng, 6)
    eta = rand_vec(rng, 6)
    out = st.dirac(s, eta)
    jphi = st.rep.endo(st.rep.volume_element()).apply(st.phi)
    expected = zero_vec(8)
    for i in range(6):
        nabla = st.rep.act_vector(s.column(i), st.phi)
        nabla = vec_add(nabla, vec_scale(eta[i], jphi))
        expected = vec_add(expected, st.rep.gens[i].apply(nabla))
    assert out == expected


# ---------------------------------------------------------------------------
# classification (SU(3))


def cp3_S():
    m = Matrix.zeros(6, 6)
    for k in range(4):
        m.data[k][k] = -(U / sc(2))
    tail = (U * U - sc(1)) / (sc(2) * U)
    m.data[4][4] = tail
    m.data[5][5] = tail
    return m


def test_classify_su3_cp3_generic():
    st = structure(6)
    cls = st.classify(cp3_S(), zero_vec(6))
    assert cls.flags() == {"W1-", "W2-"}
    assert cls.coords["W1-"] == (-(sc(1) + U * U) / (sc(6) * U),)
    assert cls.total() == cp3_S()


def test_classify_su3_cp3_at_half():
    st = structure(6)
    cls = st.classify(cp3_S(), zero_vec(6))
    sub = Substitution.T_EQUALS_U_SQUARED
    assert cls.flags_at(sub, Fraction(1, 2)) == {"W1-"}


def test_warm_classify_su3_forms_j_s_j_once(monkeypatch):
    st = structure(6)
    st.classify(cp3_S(), zero_vec(6))   # builds J and its Kahler coordinates
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((Matrix, "__mul__"),
                        (SpinorStructure, "kahler_form"),
                        (SpinorStructure, "_jsj_upper")):
        monkeypatch.setattr(owner, attr, counted(attr, getattr(owner, attr)))
    cls = st.classify(cp3_S(), zero_vec(6))
    # J sym0 J once, on J's nonzeros: no Matrix product
    assert calls == Counter({"_jsj_upper": 1})
    assert cls.total() == cp3_S()
    assert cls.flags() == {"W1-", "W2-"}


# e5, whose J is a signed permutation, and a rational unit spinor whose J
# has 24 nonzero entries
_JSJ_SPINORS = (S5, [sc(1, 2), sc(1, 2), sc(0), sc(1, 2), sc(0), sc(0),
                     sc(1, 2), sc(0)])


@pytest.mark.parametrize("phi", _JSJ_SPINORS, ids=("e5", "dense-j"))
def test_jsj_upper_is_the_dense_product(monkeypatch, phi):
    st = SpinorStructure.shared(6, phi)
    j = st.almost_complex()
    rng = random.Random(38)
    products = Counter()
    mul = Scalar.__mul__

    def counted(x, y):
        products[side] += 1
        return mul(x, y)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    for _ in range(10):
        upper = [sc(rng.randint(-3, 3), rng.choice((1, 2)))
                 for _ in gstruct._upper(6)]
        sym = gstruct._symmetric(6, upper)
        side = "dense"
        dense = (j * sym * j).data
        side = "sparse"
        assert st._jsj_upper(upper) == [dense[a][b]
                                        for a, b in gstruct._upper(6)]
    assert products["sparse"] <= products["dense"]
    if phi is S5:   # a signed permutation: 36 + 21 products, not 72
        assert products["sparse"] < products["dense"]


def test_classify_components_reclassify_pure():
    rng = random.Random(28)
    st = structure(6)
    s = rand_matrix(rng, 6)
    eta = rand_vec(rng, 6)
    cls = st.classify(s, eta)
    assert cls.total() == s
    for label, comp in cls.components.items():
        if comp.is_zero:
            continue
        sub_cls = st.classify(comp, zero_vec(6))
        assert sub_cls.flags() == {label}


def test_classify_w1plus_is_multiple_of_J():
    st = structure(6)
    j = st.almost_complex()
    lam = sc(3, 7)
    cls = st.classify(j.scale(lam), zero_vec(6))
    assert cls.flags() == {"W1+"}
    assert cls.coords["W1+"] == (lam,)


def test_classify_w5_only():
    st = structure(6)
    eta = [sc(1), sc(0), sc(2)] + [sc(0)] * 3
    cls = st.classify(Matrix.zeros(6, 6), eta)
    assert cls.flags() == {"W5"}


# ---------------------------------------------------------------------------
# classification (G2)


def aw11_S():
    t = U   # rational substitution
    a = (sc(1) / (sc(2) * t) - sc(1)) * sc(1, 2)
    b = sc(-3) / (sc(8) * t)
    m = Matrix.zeros(7, 7)
    for k in (0, 1, 6):
        m.data[k][k] = a
    for k in (2, 3, 4, 5):
        m.data[k][k] = b
    return m


def test_classify_g2_aw11_generic():
    st = structure(7)
    cls = st.classify(aw11_S())
    assert cls.flags() == {"W1", "W3"}
    assert cls.coords["W1"] == (aw11_S().trace() / sc(7),)
    assert cls.total() == aw11_S()


def test_classify_g2_aw11_at_five_quarters():
    st = structure(7)
    cls = st.classify(aw11_S())
    assert cls.flags_at(Substitution.T_EQUALS_U, Fraction(5, 4)) == {"W1"}


def test_classify_g2_w4_roundtrip():
    rng = random.Random(29)
    st = structure(7)
    psi = st.psi_form()
    for _ in range(5):
        v = rand_vec(rng, 7)
        vm = MultiVector.vector(7, v)
        s = vm.interior(psi).to_skew_matrix()
        cls = st.classify(s)
        assert cls.flags() == {"W4"}
        assert cls.w4_vector == tuple(v)


def test_classify_g2_w2_projection():
    st = structure(7)
    # a stabilizer-algebra element classifies as pure W2
    omega = MultiVector(7, {(1, 2): sc(1), (3, 4): sc(1)})
    cls = st.classify(omega.to_skew_matrix())
    assert cls.flags() == {"W2"}
    assert vec_is_zero(cls.w4_vector)


# ---------------------------------------------------------------------------
# Lee vector


def lee_parts(st, s):
    """The decomposition of S.phi for a skew S; S.phi = Z.phi exactly when
    its phi and j.phi parts vanish, and Z is its vector part."""
    return st.decompose(st.rep.act(MultiVector.from_skew_matrix(s), st.phi))


def test_lee_vector_roundtrip_and_norm():
    rng = random.Random(30)
    st = structure(6)
    # project a random 2-form onto u(3)-perp to build a W4-type S
    u3_rows = [list(v) for v in st.annihilator().basis]
    u3_rows.append(st.kahler_form().pair_coeffs())
    u3perp = Subspace(15, u3_rows).orthogonal_complement()
    for _ in range(5):
        x = [sc(rng.randint(-3, 3)) for _ in range(15)]
        w4 = u3perp.project(x)
        s = MultiVector.from_pair_coeffs(6, w4).to_skew_matrix()
        parts = lee_parts(st, s)
        assert parts.a.is_zero and parts.b.is_zero
        lhs = st.rep.act(MultiVector.from_pair_coeffs(6, w4), st.phi)
        assert lhs == st.rep.act_vector(parts.vector, st.phi)


def test_lee_vector_rejects_general_skew():
    st = structure(6)
    # the Kahler form itself has a j.phi component
    parts = lee_parts(st, st.almost_complex())
    assert not (parts.a.is_zero and parts.b.is_zero)
