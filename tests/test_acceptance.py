"""Acceptance suite: one test per criterion, one PASS/FAIL line per check.

All exact checks use Scalar equality; numeric-oracle checks use 1e-9
absolute tolerance.  Three spin4 sub-criteria assert published values that
are provably incompatible with the conventions pinned by the other
criteria (a single spin-lift factor cannot be 1/2, 1 and -1/2 at once);
they are asserted as stated and fail.  The computed truth for each is
pinned by regression tests in test_homogeneous.py and test_gstruct.py,
and the full analysis lives in the repository notes.
"""

from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from spinharm import verify

MODELS_DIR = Path(__file__).parent / "data" / "models"


@pytest.fixture(scope="module")
def spin4_results():
    return {r.name: r for r in verify.check_spin4()}


def _assert_all(results):
    for r in results:
        print(r.line())
    bad = [r.name for r in results if not r.ok]
    assert not bad, f"failing: {', '.join(bad)}"


def _assert_one(result):
    print(result.line())
    assert result.ok, result.detail


def test_criterion_1_clifford_relations():
    _assert_all(verify.check_clifford_relations())


def test_criterion_2_volume_element():
    _assert_all(verify.check_volume_element())


def test_criterion_3_stabilizer_algebras():
    _assert_all(verify.check_stabilizer_algebras())


def test_criterion_4_cp3():
    _assert_all(verify.check_cp3())


def test_criterion_5_spin4_eta_exact(spin4_results):
    _assert_one(spin4_results["spin4-eta-exact"])


def test_criterion_5_spin4_m_projection(spin4_results):
    _assert_one(spin4_results["spin4-m-projection"])


def test_criterion_5_spin4_divergences(spin4_results):
    _assert_one(spin4_results["spin4-divergences"])


def test_criterion_5_spin4_root_set(spin4_results):
    _assert_one(spin4_results["spin4-root-set"])


def test_criterion_5_spin4_class_flags(spin4_results):
    _assert_one(spin4_results["spin4-class-flags"])


def test_criterion_6_aw11():
    _assert_all(verify.check_aw11())


def test_criterion_7_property_suite():
    _assert_all(verify.check_property_suite(trials=100))


@pytest.mark.parametrize("trials", [0, -5])
def test_property_suite_refuses_nonpositive_trials(trials):
    # zero trials used to pass every property without testing one instance
    with pytest.raises(ValueError, match="trials must be positive"):
        verify.check_property_suite(trials=trials)
    with pytest.raises(ValueError, match="trials must be positive"):
        verify.run_all(trials=trials)


def test_criterion_8_laplacian_cross_check():
    _assert_all(verify.check_cross_check())


def test_criterion_9_numeric_scan():
    _assert_all(verify.check_numeric_scan(samples=20))


@pytest.fixture
def g2toy_everywhere(monkeypatch):
    """Run the per-model checks on the pinned g2toy fixture, whose
    harmonicity is ROOT_SET {1/2}, in place of each built-in."""
    model = verify.load_model(str(MODELS_DIR / "g2toy.json"))
    assert verify.ModelAnalysis(model).harmonicity().verdict == \
        verify.Verdict(verify.ROOT_SET, {Fraction(1, 2): 1})
    monkeypatch.setattr(verify, "load_model", lambda name: model)


def test_numeric_scan_root_set_branch(g2toy_everywhere):
    _assert_all(verify.check_numeric_scan(samples=20))


def test_numeric_scan_wrong_root_has_no_dip(g2toy_everywhere, monkeypatch):
    wrong = SimpleNamespace(
        verdict=verify.Verdict(verify.ROOT_SET, {Fraction(1, 3): 1}))
    monkeypatch.setattr(verify.ModelAnalysis, "harmonicity",
                        lambda self, positive_only=True: wrong)
    [result] = verify.check_numeric_scan(samples=20)
    assert not result.ok
    # the check names the built-in whose slot the fixture took
    assert "cp3: no dip at root 1/3" in result.detail
