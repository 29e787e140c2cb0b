"""The classes read off coordinates against the dense reference splitting.

`SpinorStructure.classify` computes mu, lambda, the upper triangles of the
symmetric parts and the pair coordinates of the skew parts, and
`ModelAnalysis.classify` reduces each coordinate once by 1/D.  Every
component matrix, scalar, eta, W4 vector and flag must equal what the
dense matrix formulas of `tests/reference.py` give, on the built-ins, on
every model fixture and on random S, also off the basis spinor where J is
not a signed permutation.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from spinharm.gstruct import SpinorStructure
from spinharm.homogeneous import ModelAnalysis, load_model
from spinharm.linalg import Matrix
from spinharm.scalars import PoleError, Scalar, Substitution, zero_at

MODELS_DIR = Path(__file__).parent / "data" / "models"
MODELS = ("cp3", "spin4", "aw11") + tuple(
    str(p) for p in sorted(MODELS_DIR.glob("*.json")))

U = Scalar.u()


def sc(p, q=1):
    return Scalar.rational(p, q)


def _nonzero_at(m, sub, t0):
    return any(not e.is_zero and not zero_at(e, sub, t0)
               for row in m.data for e in row)


def _reference(structure, s, eta):
    """(components, {label: coordinates}, W4 vector, flags, flags_at) the
    dense way, for the labels whose coordinates are scalars or eta."""
    if structure.n == 6:
        comps, mu, lam, eta = reference.classify_su3(structure, s, eta)
        coords = {"W1-": (mu,), "W1+": (lam,), "W5": tuple(eta)}
        w4_vector = ()
        extra = {"W5": eta}
    else:
        comps, lam, v = reference.classify_g2(structure, s)
        coords, w4_vector = {"W1": (lam,)}, tuple(v)
        extra = {}

    def flags_at(sub, t0):
        out = {label for label, m in comps.items()
               if _nonzero_at(m, sub, t0)}
        out |= {label for label, vec in extra.items()
                if any(not zero_at(e, sub, t0) for e in vec)}
        return out

    flags = ({label for label, m in comps.items() if not m.is_zero}
             | {label for label, vec in extra.items()
                if any(not e.is_zero for e in vec)})
    return comps, coords, w4_vector, flags, flags_at


def _assert_matches(classes, structure, s, eta, points=(), sub=None):
    comps, coords, w4_vector, flags, flags_at = _reference(structure, s, eta)
    got = classes.components
    assert sorted(got) == sorted(comps)
    for label, m in comps.items():
        assert got[label] == m, label
    for label, value in coords.items():
        assert classes.coords[label] == value, label
    assert classes.w4_vector == w4_vector
    assert classes.flags() == flags
    assert classes.total() == s
    for t0 in points:
        try:
            want = flags_at(sub, t0)
        except PoleError:
            with pytest.raises(PoleError):
                classes.flags_at(sub, t0)
            continue
        assert classes.flags_at(sub, t0) == want, t0


@pytest.mark.parametrize("name", MODELS)
def test_model_classes_match_the_dense_reference(name):
    an = ModelAnalysis(load_model(name))
    s, eta = an.extract_S_eta()
    points = [Fraction(k, 4) for k in range(1, 13)]
    _assert_matches(an.classify(), an.structure, s, eta, points,
                    an.model.substitution)
    # the structure's own classification, without the 1/D reduction
    eta6 = eta if an.model.n == 6 else None
    _assert_matches(an.structure.classify(s, eta6), an.structure, s, eta)


_ENTRIES = [sc(0), sc(0), sc(0), sc(1), sc(-3, 2), U, sc(1) - U,
            sc(1) / (sc(1) + U), U / (sc(2) - U * U)]
_SPINORS = [
    [sc(0)] * 4 + [sc(1)] + [sc(0)] * 3,
    [sc(0), sc(2, 3), sc(0), sc(-1, 3), sc(0), sc(0), sc(2, 3), sc(0)],
]


@st.composite
def _case(draw):
    n = draw(st.sampled_from((6, 7)))
    entry = st.sampled_from(_ENTRIES)
    s = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    eta = [draw(entry) for _ in range(6)] if n == 6 else None
    phi = draw(st.sampled_from(_SPINORS))
    return SpinorStructure.shared(n, phi), s, eta


@settings(max_examples=40, deadline=None)
@given(_case())
def test_random_classes_match_the_dense_reference(case):
    structure, s, eta = case
    _assert_matches(structure.classify(s, eta), structure, s, eta,
                    (Fraction(1, 2), Fraction(2)), Substitution.T_EQUALS_U)
