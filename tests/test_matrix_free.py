"""The matrix-free spinor pipeline against its dense references.

`SpinRep.act`, `act_vector` and `lift_act` apply signed permutations to one
spinor; `SpinorStructure.decompose` applies the transposed orthonormal
frame; `ModelAnalysis.divergence_endo` computes one column of each
commutator; the W4 solve applies a cached left inverse.  Each is compared
with the dense operator or the elimination it replaces, on Q(u) data with
zero entries, and off the basis spinor, where the frames have several
nonzero entries per column.
"""

import io
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from spinharm import clifford, cli, coeffexpr, gstruct
from spinharm.clifford import MultiVector, SpinRep
from spinharm.gstruct import InternalInvariantError, SpinorStructure
from spinharm.homogeneous import (BUILTIN_MODELS, _BUILTIN_DATA,
                                  HomogeneousModel, ModelAnalysis)
from spinharm.linalg import Matrix, vec_add, zero_vec
from spinharm.scalars import Scalar, Substitution


def sc(p, q=1):
    return Scalar.rational(p, q)


U = Scalar.u()

_ENTRIES = [sc(0), sc(0), sc(0), sc(1), sc(-3, 2), U, sc(1) - U,
            sc(1) / (sc(1) + U), U / (sc(2) - U * U)]
_ENTRY = st.sampled_from(_ENTRIES)

# rational unit spinors; all but the first are off the basis
_SPINORS = [
    [sc(0)] * 4 + [sc(1)] + [sc(0)] * 3,
    [sc(3, 5), sc(4, 5)] + [sc(0)] * 6,
    [sc(1, 2)] * 4 + [sc(0)] * 4,
    [sc(0), sc(2, 3), sc(0), sc(-1, 3), sc(0), sc(0), sc(2, 3), sc(0)],
]


def _vector(draw, size):
    return [draw(_ENTRY) for _ in range(size)]


@st.composite
def _multivector(draw, n, grade=None):
    keys = [key for k in range(n + 1)
            for key in combinations(range(1, n + 1), k)
            if grade is None or k == grade]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    return MultiVector(n, {key: draw(_ENTRY) for key in chosen})


@st.composite
def _action_case(draw):
    n = draw(st.sampled_from((6, 7)))
    return (n, draw(_multivector(n)), draw(_multivector(n, 2)),
            _vector(draw, n), _vector(draw, 8))


@settings(max_examples=80, deadline=None)
@given(_action_case())
def test_actions_match_dense_operators(case):
    n, m, omega, coords, spinor = case
    rep = SpinRep.build(n)
    assert rep.act(m, spinor) == rep.endo(m).apply(spinor)
    assert rep.act_vector(coords, spinor) == \
        rep.endo(MultiVector.vector(n, coords)).apply(spinor)
    assert rep.lift_act(omega, spinor) == rep.spin_lift(omega).apply(spinor)


def test_lift_act_reads_lift_factor_at_call_time(monkeypatch):
    rep = SpinRep.build(6)
    omega = MultiVector(6, {(1, 2): U, (3, 5): sc(2)})
    phi = _SPINORS[1]
    half = rep.lift_act(omega, phi)
    monkeypatch.setattr(clifford, "LIFT_FACTOR", Fraction(1))
    assert rep.lift_act(omega, phi) == rep.act(omega, phi)
    assert rep.act(omega, phi) == [sc(2) * x for x in half]


def test_actions_check_dimensions():
    rep = SpinRep.build(6)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rep.act(MultiVector(7, {(7,): sc(1)}), _SPINORS[0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        rep.act_vector([sc(1)] * 7, _SPINORS[0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        rep.act(MultiVector(6, {(1,): sc(1)}), _SPINORS[0][:7])


@pytest.mark.parametrize("n", (6, 7))
@pytest.mark.parametrize("phi", _SPINORS)
@settings(max_examples=15, deadline=None)
@given(psi=st.lists(_ENTRY, min_size=8, max_size=8))
def test_decompose_matches_solve(n, phi, psi):
    structure = SpinorStructure.shared(n, phi)
    parts = structure.decompose(psi)
    flat = [parts.a] + ([parts.b] if n == 6 else []) + parts.vector
    assert flat == structure._decomp_matrix.solve(psi)
    assert (parts.b is None) == (n == 7)


@st.composite
def _model_and_endo(draw):
    n = draw(st.sampled_from((6, 7)))
    lam = [draw(_multivector(n, 2)) for _ in range(n)]
    model = HomogeneousModel("random", n, Substitution.from_label("t=u"),
                             lam, _SPINORS[0])
    return model, Matrix([_vector(draw, n) for _ in range(n)])


@settings(max_examples=40, deadline=None)
@given(_model_and_endo())
def test_divergence_endo_matches_full_commutator(case):
    model, s = case
    expected = zero_vec(model.n)
    for i, slot in enumerate(model.lam):
        a = slot.to_skew_matrix()
        expected = vec_add(expected, (a * s - s * a).column(i))
    assert ModelAnalysis(model).divergence_endo(s) == expected


@st.composite
def _two_form_and_vector(draw):
    n = draw(st.sampled_from((6, 7)))
    return draw(_multivector(n, 2)), _vector(draw, n)


@settings(max_examples=80, deadline=None)
@given(_two_form_and_vector())
def test_two_form_apply_matches_skew_matrix(case):
    omega, v = case
    assert omega.apply(v) == omega.to_skew_matrix().apply(v)


@pytest.mark.parametrize("phi", _SPINORS)
@settings(max_examples=15, deadline=None)
@given(v=st.lists(_ENTRY, min_size=7, max_size=7))
def test_w4_vector_matches_solve(phi, v):
    structure = SpinorStructure.shared(7, phi)
    psi = structure.psi_form()
    cols = [MultiVector(7, {(l,): sc(1)}).interior(psi).pair_coeffs()
            for l in range(1, 8)]
    m_coords = Matrix.from_columns(cols).apply(v)
    assert structure._solve_w4_vector(m_coords) == v
    assert Matrix.from_columns(cols).solve(m_coords) == v


# ---------------------------------------------------------------------------
# the invariant checks stay live


def test_non_unit_phi_breaks_the_frame_check():
    structure = SpinorStructure(SpinRep(6), _SPINORS[1])
    structure.phi = [sc(2) * x for x in structure.phi]
    with pytest.raises(InternalInvariantError, match="orthonormal"):
        structure.decompose(_SPINORS[2])


def test_broken_generator_breaks_the_frame_check():
    rep = SpinRep(7)             # not the shared representation
    rep._perms[(1,)] = rep._perms[(2,)]
    structure = SpinorStructure(rep, _SPINORS[3])
    with pytest.raises(InternalInvariantError, match="orthonormal"):
        structure.decompose(_SPINORS[2])


def test_m_part_outside_the_image_raises():
    structure = SpinorStructure.shared(7, _SPINORS[0])
    g2_element = structure.annihilator().basis[0]
    with pytest.raises(InternalInvariantError, match="not representable"):
        structure._solve_w4_vector(g2_element)


# ---------------------------------------------------------------------------
# no dense path on a report


def test_cold_reports_build_no_dense_clifford_operator(monkeypatch):
    # fresh caches, so the reports build both representations and both
    # shared structures: the stabilizer, m, J, psi and the frame
    monkeypatch.setattr(SpinRep, "build",
                        classmethod(cache(SpinRep.build.__wrapped__)))
    monkeypatch.setattr(gstruct, "_shared_structure",
                        cache(gstruct._shared_structure.__wrapped__))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in ("_tuple_endo", "endo"):
        monkeypatch.setattr(SpinRep, attr,
                            counted(attr, getattr(SpinRep, attr)))
    for name in ("cp3", "spin4", "aw11"):
        assert cli.main(["report", name, "--format", "structured"],
                        out=io.StringIO()) == 0
    assert gstruct._shared_structure.cache_info().misses == 2
    assert calls == Counter()


def test_warm_reports_build_no_dense_operator_and_solve_nothing(monkeypatch):
    argvs = [["report", m, "--format", "structured"]
             for m in ("cp3", "spin4", "aw11")]
    for argv in argvs:           # builds the shared structures
        assert cli.main(argv, out=io.StringIO()) == 0
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr in ((SpinRep, "endo"), (SpinRep, "spin_lift"),
                        (Matrix, "solve"), (Matrix, "rref")):
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    for argv in argvs:
        assert cli.main(argv, out=io.StringIO()) == 0
    assert calls == Counter()


def test_warm_reports_do_each_piece_of_work_once(monkeypatch):
    # per warm report: one fold per distinct coefficient string, one
    # lift(Lambda_i).phi0 per slot, and a skew matrix only for each printed
    # skew class component (W1+, W2+, W4 for n = 6; W2, W4 for n = 7)
    for name in BUILTIN_MODELS:
        assert cli.main(["report", name, "--format", "structured"],
                        out=io.StringIO()) == 0
    calls = Counter()
    parse, lift_act = coeffexpr.parse_scalar, SpinRep.lift_act
    to_skew = MultiVector.to_skew_matrix

    def counted_parse(text, sub, budget=None):
        calls["parse_scalar"] += 1
        return parse(text, sub, budget)

    def counted_lift(rep, omega, spinor):
        calls["lift_act on phi0"] += spinor == phi0
        return lift_act(rep, omega, spinor)

    def counted_skew(omega):
        calls["to_skew_matrix"] += 1
        return to_skew(omega)

    monkeypatch.setattr(coeffexpr, "parse_scalar", counted_parse)
    monkeypatch.setattr(SpinRep, "lift_act", counted_lift)
    monkeypatch.setattr(MultiVector, "to_skew_matrix", counted_skew)
    for name in BUILTIN_MODELS:
        data = _BUILTIN_DATA[name]
        phi0 = [sc(Fraction(x)) for x in data["spinor"]]
        strings = {e["coeff"] for entries in data["lambda"] for e in entries}
        for fmt, skew in (("text", 0), ("structured", 9 - data["n"])):
            calls.clear()
            assert cli.main(["report", name, "--format", fmt],
                            out=io.StringIO()) == 0
            assert calls == Counter({"parse_scalar": len(strings),
                                     "lift_act on phi0": data["n"],
                                     "to_skew_matrix": skew}), (name, fmt)
