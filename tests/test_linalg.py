import random

import pytest
from hypothesis import given, settings, strategies as st

from spinharm.clifford import MultiVector, SpinRep
from spinharm.gstruct import SpinorStructure
from spinharm.linalg import (Matrix, Subspace, basis_vec, vec_dot,
                             vec_is_zero, vec_sub, zero_vec)
from spinharm.scalars import Scalar
from spinharm.verify import (S5, SU3_COMPLEMENT, SU3_GENERATORS,
                             _forms_subspace)

import reference

U = Scalar.u()


def sc(p, q=1):
    return Scalar.rational(p, q)


def rand_matrix(rng, rows, cols):
    return Matrix([[sc(rng.randint(-5, 5), rng.choice((1, 2)))
                    for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# kernel


def test_kernel_of_zero_map():
    k = Matrix.zeros(3, 3).kernel()
    assert k.dim == 3
    assert k.ambient_dim == 3


def test_kernel_of_spinor_action_map():
    # the 8x15 matrix of omega -> omega.s5 on 2-forms over R^6
    st = SpinorStructure(SpinRep.build(6), S5)
    a = st.action_matrix()
    assert (a.rows, a.cols) == (8, 15)
    k = a.kernel()
    assert k.dim == 8
    assert len(a.rref()[1]) == 7
    for v in k.basis:
        assert vec_is_zero(a.apply(v))


def test_kernel_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(10):
        a = rand_matrix(rng, 7, 5)
        k = a.kernel()
        assert len(a.rref()[1]) + k.dim == 5
        for v in k.basis:
            assert vec_is_zero(a.apply(v))


# ---------------------------------------------------------------------------
# solve


def test_solve_identity():
    b = [sc(3), sc(-1), U]
    assert Matrix.identity(3).solve(b) == b


def test_solve_inconsistent():
    a = Matrix([[sc(1), sc(1)], [sc(1), sc(1)]])
    assert a.solve([sc(0), sc(1)]) is None


def test_solve_random_invertible():
    rng = random.Random(3)
    built = 0
    while built < 8:
        a = rand_matrix(rng, 6, 6)
        if len(a.rref()[1]) < 6:
            continue
        built += 1
        b = [sc(rng.randint(-4, 4)) for _ in range(6)]
        x = a.solve(b)
        assert x is not None
        assert a.apply(x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Matrix.zeros(2, 2).solve([sc(1)])


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_equal_under_rescaling_and_permutation():
    v1 = [sc(1), sc(2), sc(0), sc(1)]
    v2 = [sc(0), sc(1), sc(1), sc(-1)]
    a = Subspace(4, [v1, v2])
    b = Subspace(4, [[sc(3) * c for c in v2],
                     [c + d for c, d in zip(v1, v2)]])
    assert a == b


def test_su3_annihilator_matches_generator_list():
    st = SpinorStructure(SpinRep.build(6), S5)
    assert st.annihilator() == _forms_subspace(SU3_GENERATORS, 6)


def test_su3_vs_complement_not_equal():
    a = _forms_subspace(SU3_GENERATORS, 6)
    b = _forms_subspace(SU3_COMPLEMENT, 6)
    assert a != b


def test_subspace_equal_is_equivalence():
    rng = random.Random(4)
    spaces = []
    for _ in range(6):
        vs = [[sc(rng.randint(-3, 3)) for _ in range(5)] for _ in range(2)]
        spaces.append(Subspace(5, vs))
    for a in spaces:
        assert a == a
        for b in spaces:
            assert (a == b) == (b == a)
            for c in spaces:
                if a == b and b == c:
                    assert a == c


# ---------------------------------------------------------------------------
# orthogonal complement


def test_complement_of_su3_is_published_m():
    ann = _forms_subspace(SU3_GENERATORS, 6)
    assert ann.orthogonal_complement() == _forms_subspace(SU3_COMPLEMENT, 6)


def test_complement_of_full_space_is_zero():
    full = Subspace(4, [basis_vec(4, k) for k in range(4)])
    comp = full.orthogonal_complement()
    assert comp.dim == 0
    assert comp.orthogonal_complement() == full


def test_complement_dimensions_and_orthogonality():
    rng = random.Random(6)
    vs = [[sc(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
    u = Subspace(6, vs)
    c = u.orthogonal_complement()
    assert u.dim + c.dim == 6
    for x in u.basis:
        for y in c.basis:
            assert vec_dot(x, y).is_zero


# ---------------------------------------------------------------------------
# projection


def test_project_fixes_members():
    rng = random.Random(7)
    vs = [[sc(rng.randint(-3, 3)) for _ in range(5)] for _ in range(2)]
    u = Subspace(5, vs)
    x = [a + b for a, b in zip(*[u.basis[0], u.basis[-1]])]
    assert u.project(x) == x


def test_project_kills_orthogonal_vectors():
    u = Subspace(3, [[sc(1), sc(0), sc(0)]])
    assert u.project([sc(0), sc(2), U]) == zero_vec(3)


def test_project_spin4_slot4_onto_m():
    # ((1-t)/sqrt(2t)) e12 + (1/(2 sqrt 2t)) e56 projects onto
    # ((3-2t)/(6 sqrt 2t)) (e12 - e34 + e56); here u = sqrt(2t)
    a = (sc(2) - U * U) / (sc(2) * U)
    c = sc(1) / (sc(2) * U)
    lam4 = MultiVector.two_form(6, {(1, 2): a, (5, 6): c})
    st = SpinorStructure(SpinRep.build(6), S5)
    proj = st.complement_m().project(lam4.pair_coeffs())
    w_coeff = (sc(3) - U * U) / (sc(6) * U)
    expected = MultiVector.two_form(
        6, {(1, 2): w_coeff, (3, 4): -w_coeff, (5, 6): w_coeff})
    assert MultiVector.from_pair_coeffs(6, proj) == expected


def test_project_idempotent_and_residual_orthogonal():
    rng = random.Random(8)
    for _ in range(10):
        vs = [[sc(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        u = Subspace(6, vs)
        x = [sc(rng.randint(-4, 4)) for _ in range(6)]
        p = u.project(x)
        assert u.project(p) == p
        res = vec_sub(x, p)
        for b in u.basis:
            assert vec_dot(res, b).is_zero


def test_matrix_algebra_basics():
    a = Matrix([[sc(1), U], [sc(0), sc(2)]])
    b = Matrix([[sc(1), sc(0)], [U, sc(1)]])
    assert (a * b).data[0][0] == sc(1) + U * U
    assert a.transpose().data[0][1] == sc(0)
    assert (a + (-a)).is_zero
    assert a.trace() == sc(3)
    assert not a.is_skew() and a != a.transpose()


# ---------------------------------------------------------------------------
# zero-skipping product against the vec_dot reference


_ENTRIES = [sc(0), sc(0), sc(0), sc(1), sc(-3, 2), U, sc(1) - U,
            sc(1) / (sc(1) + U), U / (sc(2) - U * U)]


@st.composite
def _matrix_pair(draw):
    rows, inner, cols = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.sampled_from(_ENTRIES)
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    return Matrix(a), Matrix(b)


@settings(max_examples=60, deadline=None)
@given(_matrix_pair())
def test_product_with_zero_entries_matches_vec_dot(pair):
    a, b = pair
    cols = list(zip(*b.data))
    expected = [[vec_dot(row, col) for col in cols] for row in a.data]
    assert (a * b).data == expected
    assert a.apply(list(cols[0])) == [vec_dot(row, cols[0])
                                      for row in a.data]


# ---------------------------------------------------------------------------
# row-sparse product against the column-by-column reference


_POLY_ENTRIES = [sc(0), sc(0), U, sc(1) - U, U * U - sc(3, 2)]


@st.composite
def _product_operands(draw):
    """Rectangular a, b with rational, polynomial or fractional entries,
    and perhaps a zero row of a and a zero column of b."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    entry = st.sampled_from(draw(st.sampled_from(
        (_RATIONAL_ENTRIES, _POLY_ENTRIES, _ENTRIES))))
    a = [[draw(entry) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(entry) for _ in range(cols)] for _ in range(inner)]
    if draw(st.booleans()):
        a[draw(st.integers(0, rows - 1))] = [sc(0)] * inner
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in b:
            row[j] = sc(0)
    return Matrix(a), Matrix(b)


@settings(max_examples=100, deadline=None)
@given(_product_operands())
def test_row_sparse_product_matches_column_product(pair):
    a, b = pair
    got = a * b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.data == reference.matrix_product(a, b).data


@settings(max_examples=30, deadline=None)
@given(_product_operands())
def test_matrix_results_share_no_rows_with_operands(pair):
    a, b = pair
    c = Matrix([row[::-1] for row in a.data])   # a's shape
    before = [[row[:] for row in m.data] for m in (a, b, c)]
    results = [a * b, a + c, a - c, -a, a.scale(sc(2)), a * 3,
               a * Matrix.identity(a.cols), Matrix.identity(a.rows) * a]
    for m in results:
        for row in m.data:
            row[0] = U
    assert [m.data for m in (a, b, c)] == before


# ---------------------------------------------------------------------------
# cached projector against the Gram-system reference


def _gram_solve_projection(u, v):
    """Solve B B^T c = B v for the basis rows B and return sum c_k B_k."""
    if not u.basis:
        return zero_vec(u.ambient_dim)
    b = Matrix(u.basis)
    coeffs = (b * b.transpose()).solve(b.apply(v))
    out = zero_vec(u.ambient_dim)
    for c, row in zip(coeffs, u.basis):
        out = [o + c * r for o, r in zip(out, row)]
    return out


_RATIONAL_ENTRIES = [sc(0), sc(0), sc(1), sc(-1), sc(2), sc(-3, 2), sc(1, 3)]


@st.composite
def _subspace_and_vectors(draw):
    n = draw(st.integers(1, 5))
    rows = draw(st.integers(0, n))
    entry = st.sampled_from(draw(st.sampled_from((_RATIONAL_ENTRIES,
                                                  _ENTRIES))))
    basis = [[draw(entry) for _ in range(n)] for _ in range(rows)]
    vs = [[draw(st.sampled_from(_ENTRIES)) for _ in range(n)]
          for _ in range(2)]
    return Subspace(n, basis), vs


@settings(max_examples=60, deadline=None)
@given(_subspace_and_vectors())
def test_project_matches_gram_solve(case):
    u, vs = case
    for v in vs:   # the second vector reuses the cached projector
        p = u.project(v)
        assert p == _gram_solve_projection(u, v)
        assert u.project(p) == p
