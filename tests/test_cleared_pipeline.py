"""The exact pipeline on the cleared Wang map.

`ModelAnalysis` multiplies every Lambda slot by the model's common
denominator D(u) once, runs every stage on polynomial entries, and divides
each output by D (outputs linear in Lambda) or D^2 (quadratic outputs).
The scaling test pins that split from outside: dividing a model's Wang map
by f(t) divides every linear output by f and every quadratic one by f^2.
"""

import io
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from spinharm import cli, coeffexpr, homogeneous, scalars
from spinharm.clifford import MultiVector
from spinharm.homogeneous import HomogeneousModel, ModelAnalysis, load_model
from spinharm.scalars import ONE, ONE_POLY, Poly, Scalar

MODELS_DIR = Path(__file__).parent / "data" / "models"
DERIVED = ("cp3", "spin4", "aw11") + tuple(
    str(p) for p in sorted(MODELS_DIR.glob("*.json")))


def _outputs(an):
    """Every output of the pipeline by name, as flat lists of Scalars, and
    the power of Lambda it is homogeneous in."""
    s, eta = an.extract_S_eta()
    classes = an.classify()
    delta_phi, c_xi_phi, cross_residual = an.cross_check_terms()
    linear = {
        "S": [e for row in s.data for e in row],
        "eta": eta,
        "torsion": [c for slot in an.torsion() for c in slot.pair_coeffs()],
        "canonical": an.canonical_coordinates(),
        "W4_vector": list(classes.w4_vector),
    }
    for label, cs in classes.coords.items():
        linear[label + " coordinates"] = list(cs)
    for label, m in classes.components.items():
        linear[label] = [e for row in m.data for e in row]
    quadratic = {
        "harmonicity": an.harmonicity_residual(),
        "delta_phi": delta_phi,
        "c_xi_phi": c_xi_phi,
        "cross_residual": cross_residual,
    }
    return ({k: (v, 1) for k, v in linear.items()}
            | {k: (v, 2) for k, v in quadratic.items()})


@cache
def _base(name):
    model = load_model(name)
    return model, _outputs(ModelAnalysis(model))


def _in_t(coeffs, sub):
    """f(t) = sum c_k t^k as a Scalar in u."""
    t, acc = sub.t, Scalar.rational(0)
    for c in reversed(coeffs):
        acc = acc * t + Scalar.rational(c)
    return acc


_POLY_IN_T = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(
    any)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(DERIVED), coeffs=_POLY_IN_T)
def test_dividing_lambda_by_f_divides_outputs_by_f_and_f_squared(name,
                                                                   coeffs):
    model, base = _base(name)
    f = _in_t(coeffs, model.substitution)
    divided = HomogeneousModel(model.name, model.n, model.substitution,
                               [slot.scale(ONE / f) for slot in model.lam],
                               model.phi0)
    got = _outputs(ModelAnalysis(divided))
    assert got.keys() == base.keys()
    for key, (values, power) in base.items():
        assert got[key][0] == [v / f ** power for v in values], key


def test_common_denominator_and_cleared_slots():
    for name in ("cp3", "spin4", "aw11"):
        an = ModelAnalysis(load_model(name))
        assert an.common_denominator == Poly((0, 1))
    an = ModelAnalysis(load_model(str(MODELS_DIR / "etatoy.json")))
    assert an.common_denominator == ONE_POLY
    # aw11 (t=u) with entries divided by t+3, t^2+1 and 2t-1
    an = ModelAnalysis(load_model(str(MODELS_DIR / "aw11-divided.json")))
    expected = (Scalar.u() * (Scalar.u() + 3) * (Scalar.u() ** 2 + 1)
                * (Scalar.u() - Scalar.rational(1, 2)))
    assert an.common_denominator == expected.num
    d = Scalar(an.common_denominator)
    for slot, cleared in zip(an.model.lam, an.cleared):
        assert cleared.terms.keys() == slot.terms.keys()
        for key, c in cleared.terms.items():
            assert c.den == ONE_POLY
            assert c == slot.terms[key] * d


def test_warm_reports_halve_the_gcds(monkeypatch):
    # A warm `report M --format structured` made 111 (cp3), 167 (spin4)
    # and 271 (aw11) poly_gcd calls, coefficient parsing included, when
    # every stage ran in Q(u): 263 of aw11's through Scalar reduction, 8
    # in vanishing_verdict.  The cleared pipeline must make at most half.
    budget = {"cp3": 111 // 2, "spin4": 167 // 2, "aw11": 271 // 2}
    for name in budget:
        assert cli.main(["report", name, "--format", "structured"],
                        out=io.StringIO()) == 0
    calls = [0]
    gcd = scalars.poly_gcd

    def counted(a, b):
        calls[0] += 1
        return gcd(a, b)

    monkeypatch.setattr(scalars, "poly_gcd", counted)
    monkeypatch.setattr(homogeneous, "poly_gcd", counted)
    for name, most in budget.items():
        calls[0] = 0
        # the warm-up built the shared structures; a kept built-in model
        # would answer the report without any stage's work, the fold
        # table its coefficients without their gcds, and the slot table
        # its slots without theirs
        homogeneous._builtin_model.cache_clear()
        coeffexpr._FOLDS.clear()
        homogeneous._SLOTS.clear()
        assert cli.main(["report", name, "--format", "structured"],
                        out=io.StringIO()) == 0
        assert 0 < calls[0] <= most, name


@pytest.mark.parametrize("name", ("cp3", "spin4", "aw11"))
def test_divergence_over_given_slots(name):
    # one function over whatever slots it is given: the cleared slots give
    # D^2 div S for the cleared S = D S
    an = ModelAnalysis(load_model(name))
    s, eta = an.extract_S_eta()
    d = Scalar(an.common_denominator)
    cleared_s = s.scale(d)
    assert an.divergence_endo(cleared_s, an.cleared) == \
        [x * d * d for x in an.divergence_endo(s, an.model.lam)]
    if an.model.n == 6:
        assert an.divergence_vector([x * d for x in eta], an.cleared) == \
            an.divergence_vector(eta, an.model.lam) * d * d


# ---------------------------------------------------------------------------
# the stabilizer part of a slot is D Lambda_i - xi_i


def _projected_canonical_coordinates(an):
    """The canonical-parameter coordinates by the annihilator projector,
    slot by slot, over D."""
    g = an.structure.annihilator()
    inv = Scalar(ONE_POLY, an.common_denominator)
    return [inv * c for slot in an.cleared
            for c in g.project(slot.pair_coeffs())]


@pytest.mark.parametrize("name", DERIVED)
def test_canonical_coordinates_match_the_annihilator_projection(name):
    an = ModelAnalysis(load_model(name))
    assert an.canonical_coordinates() == _projected_canonical_coordinates(an)


_SLOT_ENTRIES = st.sampled_from(
    [Scalar.rational(1), Scalar.rational(-3, 2), Scalar.u(),
     Scalar.u() ** 2 - Scalar.rational(2), ONE / (Scalar.u() + ONE)])
# rational unit spinors, all but the first off the basis
_UNIT_SPINORS = ([0, 0, 0, 0, 1, 0, 0, 0],
                 [Scalar.rational(3, 5), Scalar.rational(4, 5)] + [0] * 6,
                 [Scalar.rational(1, 2)] * 4 + [0] * 4)


@st.composite
def _random_model(draw):
    n = draw(st.sampled_from((6, 7)))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    lam = []
    for _ in range(n):
        keys = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
        lam.append(MultiVector(n, {key: draw(_SLOT_ENTRIES) for key in keys}))
    return HomogeneousModel("random", n, scalars.Substitution.T_EQUALS_U,
                            lam, draw(st.sampled_from(_UNIT_SPINORS)))


@settings(max_examples=40, deadline=None)
@given(_random_model())
def test_canonical_coordinates_match_projection_on_random_slots(model):
    an = ModelAnalysis(model)
    assert an.canonical_coordinates() == _projected_canonical_coordinates(an)
