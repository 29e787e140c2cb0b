"""Acceptance suite: one test per criterion, one PASS/FAIL line per check.

All exact checks use Scalar equality; numeric-oracle checks use 1e-9
absolute tolerance.  Three spin4 sub-criteria assert published values that
are provably incompatible with the conventions pinned by the other
criteria (a single spin-lift factor cannot be 1/2, 1 and -1/2 at once);
they are asserted as stated and fail.  The computed truth for each is
pinned by regression tests in test_homogeneous.py and test_gstruct.py,
and the full analysis lives in the repository notes.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference
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


def _count_calls(monkeypatch, owner, attr):
    """A list that grows by one on each call of owner.attr."""
    calls, fn = [], getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_second_stabilizer_check_reduces_nothing(monkeypatch):
    # the published lists are row-reduced once per process
    _assert_all(verify.check_stabilizer_algebras())
    rrefs = _count_calls(monkeypatch, verify.Matrix, "rref")
    _assert_all(verify.check_stabilizer_algebras())
    assert rrefs == []


def test_a_broken_published_generator_fails_after_the_cache_clears(
        monkeypatch):
    broken = [dict(g) for g in verify.SU3_GENERATORS]
    broken[0][(1, 3)] = 2
    monkeypatch.setattr(verify, "SU3_GENERATORS", broken)
    verify._published.cache_clear()
    try:
        [result] = verify.check_stabilizer_algebras()
    finally:
        monkeypatch.undo()
        verify._published.cache_clear()
    assert not result.ok
    assert result.detail == "n=6: annihilator != published generator list"
    _assert_all(verify.check_stabilizer_algebras())


def test_warm_property_suite_makes_no_matrix_product(monkeypatch):
    # the instances are filled by their upper triangles and J S J is read
    # off J's nonzero entries
    _assert_all(verify.check_property_suite(trials=2, seed=38))
    products = _count_calls(monkeypatch, verify.Matrix, "__mul__")
    _assert_all(verify.check_property_suite(trials=2, seed=39))
    assert products == []


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
    assert verify.ModelAnalysis(model).harmonicity() == \
        verify.Verdict(verify.ROOT_SET, {Fraction(1, 2): 1})
    monkeypatch.setattr(verify, "load_model", lambda name: model)


def test_numeric_scan_root_set_branch(g2toy_everywhere):
    _assert_all(verify.check_numeric_scan(samples=20))


def test_numeric_scan_wrong_root_has_no_dip(g2toy_everywhere, monkeypatch):
    wrong = verify.Verdict(verify.ROOT_SET, {Fraction(1, 3): 1})
    monkeypatch.setattr(verify.ModelAnalysis, "harmonicity",
                        lambda self, positive_only=True: wrong)
    [result] = verify.check_numeric_scan(samples=20)
    assert not result.ok
    # the check names the built-in whose slot the fixture took
    assert "cp3: no dip at root 1/3" in result.detail


def _draw_instances(seed):
    """The random instances of the property suite for one seed, with the rng
    state after each draw."""
    rng = random.Random(seed)
    st = verify.SpinorStructure.shared(6, verify.S5)
    out = []
    for draw in (lambda: verify._rand_vector(rng, 7),
                 lambda: verify._rand_2form(rng, 6),
                 lambda: verify._rand_2form(rng, 7, nterms=3),
                 lambda: verify._rand_matrix(rng, 6),
                 lambda: verify._rand_matrix(rng, 7),
                 lambda: verify._rand_traceless_upper(rng, 6),
                 lambda: verify._rand_traceless_upper(rng, 7),
                 lambda: verify._rand_symmetric_traceless(rng, 6),
                 lambda: verify._rand_symmetric_traceless(rng, 7),
                 lambda: verify._w3_class_matrix(rng, st)):
        out.append((draw(), rng.getstate()))
    return out


def test_random_instances_match_the_fraction_draw(monkeypatch):
    # _rand_scalar and _rand_2form read getrandbits and pick prebuilt
    # constants, and the symmetric instances are filled by their upper
    # triangles alone; the instances and the rng states must be those of
    # randint, choice and sample, of the Fraction-then-Scalar draw, of
    # gstruct._split and of the dense Matrix formulas
    seeds = range(200)
    new = [_draw_instances(seed) for seed in seeds]
    monkeypatch.setattr(verify, "_rand_scalar", reference.rand_fraction_scalar)
    monkeypatch.setattr(verify, "_rand_2form", reference.rand_2form)
    monkeypatch.setattr(verify, "_rand_traceless_upper",
                        reference.rand_traceless_upper)
    monkeypatch.setattr(verify, "_rand_symmetric_traceless",
                        reference.rand_symmetric_traceless)
    monkeypatch.setattr(verify, "_w3_class_matrix", reference.w3_class_matrix)
    old = [_draw_instances(seed) for seed in seeds]
    assert new == old
