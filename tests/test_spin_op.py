"""`SpinOp`, the spinor operator kept as a sum of words, against dense matrices.

Products, sums, differences and scalings of `SpinRep.op(m)` are compared
with the entrywise `dense_endo` and `matrix_product` of tests/reference.py,
and `==` with equality of those dense matrices.  The operator checks of
`verify` compare SpinOps, so each must still fail under a broken sign.
"""

from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from reference import dense_endo, matrix_product
from spinharm import clifford, gstruct, verify
from spinharm.clifford import MultiVector, SpinRep, bracket
from spinharm.scalars import Scalar


def sc(p, q=1):
    return Scalar.rational(p, q)


U = Scalar.u()

_ENTRY = st.sampled_from([sc(1), sc(-1), sc(2), sc(-3, 2), sc(1, 2), U,
                          sc(1) - U, U * U / sc(3), sc(1) / (sc(1) + U)])


@st.composite
def _multivector(draw, n, grades=(0, 1, 2, 3)):
    keys = [key for k in grades for key in combinations(range(1, n + 1), k)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
    return MultiVector(n, {key: draw(_ENTRY) for key in chosen})


@st.composite
def _pair(draw):
    n = draw(st.sampled_from((6, 7)))
    return n, draw(_multivector(n)), draw(_multivector(n)), draw(_ENTRY)


@settings(max_examples=120, deadline=None)
@given(_pair())
def test_operations_match_dense_matrices(case):
    n, a, b, c = case
    rep = SpinRep.build(n)
    oa, ob = rep.op(a), rep.op(b)
    da, db = dense_endo(rep, a), dense_endo(rep, b)
    assert oa.dense() == da
    assert rep.endo(a) == da
    assert (oa * ob).dense() == matrix_product(da, db)
    assert (oa + ob).dense() == da + db
    assert (oa - ob).dense() == da - db
    assert oa.scale(c).dense() == da.scale(c)
    assert (oa * ob - ob * oa).dense() == \
        matrix_product(da, db) - matrix_product(db, da)


@settings(max_examples=120, deadline=None)
@given(_pair())
def test_equality_agrees_with_dense_equality(case):
    n, a, b, c = case
    rep = SpinRep.build(n)
    oa, ob = rep.op(a), rep.op(b)
    one = rep.op(MultiVector(n, {(): 1}))
    pairs = [(oa, ob), (oa * ob, ob * oa), (oa + ob, ob + oa),
             (oa * one, oa), (oa.scale(c), oa), (oa - oa, rep.op(b - b)),
             (oa * ob, rep.op(a.wedge(b))), (oa * oa, oa.scale(c))]
    for left, right in pairs:
        assert (left == right) == (left.dense() == right.dense())
        assert (left != right) == (left.dense() != right.dense())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((6, 7)).flatmap(
    lambda n: st.tuples(_multivector(n, (1,)), _multivector(n),
                        _multivector(n, (2,)), _multivector(n, (2,)))))
def test_raw_results_are_valid_multivectors(case):
    x, m, a, b = case
    n = x.n
    for got in (x.interior(m), m.wedge(a), a.wedge(m), bracket(a, b)):
        assert got == MultiVector(n, got.terms)
        assert all(type(c) is Scalar and c for c in got.terms.values())


def test_equality_does_not_assume_independent_permutations():
    # a broken table whose e1..e4 are the diagonal sign matrices d1..d4
    # with d1 + d4 = d2 + d3: four distinct normalized permutations
    rep = SpinRep(6)
    rest = (1,) * 4
    for i, head in zip((1, 2, 3, 4), ((1, 1, 1, 1), (1, -1, 1, 1),
                                      (1, 1, -1, 1), (1, -1, -1, 1))):
        rep._perms[(i,)] = (tuple(range(8)), head + rest)
    one = {(1,): 1, (4,): 1}
    other = {(2,): 1, (3,): 1}
    left, right = rep.op(MultiVector(6, one)), rep.op(MultiVector(6, other))
    assert len((left - right)._collected()) == 4
    assert left == right
    assert left.dense() == right.dense()
    assert left != right.scale(2)


def test_word_caches_hold_short_words_only():
    rep = SpinRep(6)
    vol = rep.op(rep.volume_element())
    e1 = rep.op(MultiVector(6, {(1,): 1}))
    e12 = rep.op(MultiVector(6, {(1, 2): 1}))
    assert vol * vol == rep.op(MultiVector(6, {(): -1}))
    assert vol * e1 == e1.scale(-1) * vol
    assert e12 * e12 == rep.op(MultiVector(6, {(): -1}))
    assert max(map(len, rep._perms)) == max(map(len, rep._normals)) == 4


def test_equality_scales_no_operator(monkeypatch):
    # `==` collects both sides in one pass: the 85 equalities of a warm
    # check_clifford_relations build no negated copy of either side
    verify.check_clifford_relations()
    calls = []
    real = clifford.SpinOp.scale
    monkeypatch.setattr(clifford.SpinOp, "scale",
                        lambda self, c: calls.append(c) or real(self, c))
    [result] = verify.check_clifford_relations()
    assert result.ok and calls == []


def test_operands_of_another_representation_are_refused():
    a = SpinRep.build(6).op(MultiVector(6, {(1,): 1}))
    b = SpinRep(6).op(MultiVector(6, {(1,): 1}))
    for operation in (a.__add__, a.__mul__, a.__eq__):
        with pytest.raises(ValueError, match="mismatched"):
            operation(b)


# ---------------------------------------------------------------------------
# mutations: the operator checks still trip on a broken sign


@pytest.fixture
def fresh_caches(monkeypatch):
    """New representations and shared structures, built under the
    mutation, and dropped when the test ends."""
    monkeypatch.setattr(SpinRep, "build",
                        classmethod(cache(SpinRep.build.__wrapped__)))
    monkeypatch.setattr(gstruct, "_shared_structure",
                        cache(gstruct._shared_structure.__wrapped__))


def _by_name(results):
    return {r.name: r for r in results}


def test_flipped_generator_sign_fails_relations_and_volume(monkeypatch,
                                                          fresh_caches):
    # e3 is not among the pinned generator entries, so only the relations
    # and the volume element can see the flip
    (a, b, s), *rest = clifford._GEN_TABLE[3]
    monkeypatch.setitem(clifford._GEN_TABLE, 3, ((a, b, -s), *rest))
    [relations] = verify.check_clifford_relations()
    assert not relations.ok and "pair (1,3)" in relations.detail
    [volume] = verify.check_volume_element()
    assert not volume.ok


def _odd_position_interior(self, other):
    """X -| m with the sign of every odd position flipped."""
    out = MultiVector.zero(other.n)
    for (l,), cx in self.terms.items():
        for key, c in other.terms.items():
            if l in key:
                rest = tuple(i for i in key if i != l)
                out = out + MultiVector(other.n, {rest: cx * c})
    return out


def test_flipped_interior_sign_fails_clifford_multiplication(monkeypatch,
                                                             fresh_caches):
    monkeypatch.setattr(MultiVector, "interior", _odd_position_interior)
    got = _by_name(verify.check_property_suite(trials=10))
    assert not got["property-clifford-multiplication"].ok


def test_flipped_bracket_sign_fails_bracket_identity(monkeypatch,
                                                     fresh_caches):
    monkeypatch.setattr(verify, "bracket",
                        lambda a, b: bracket(a, b).scale(-1))
    got = _by_name(verify.check_property_suite(trials=10))
    assert not got["property-bracket-identity"].ok
    assert got["property-clifford-multiplication"].ok


def test_flipped_wedge_sign_fails_c_sigma_kappa(monkeypatch, fresh_caches):
    perm_sign = clifford._perm_sign
    monkeypatch.setattr(clifford, "_perm_sign", lambda seq: -perm_sign(seq))
    got = _by_name(verify.check_property_suite(trials=10))
    assert not got["property-c-sigma-kappa"].ok
