"""The batched float oracle against the exact pipeline.

`numeric.residual_norms` evaluates a whole t grid in one pass; every row
must match the exact harmonicity residual evaluated in double precision,
a pole must be found exactly, and the spinor frame must be built once.
"""

import copy
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spinharm import numeric
from spinharm.homogeneous import HomogeneousModel, ModelAnalysis, load_model
from spinharm.scalars import Poly, Substitution, eval_numeric, vanishes_at

MODELS_DIR = Path(__file__).parent / "data" / "models"

GRID = [Fraction(k, 8) for k in range(1, 33, 3)]   # 1/8 .. 31/8

# (base, dst, src, p, q): slot dst gains slot src times (t - p/q), with
# disjoint entries in the two slots, as the benchmark's generated files do
PERTURBATIONS = [
    ("cp3", 0, 2, 5, 7), ("cp3", 3, 1, 11, 3),
    ("spin4", 0, 1, 2, 3), ("spin4", 4, 2, 9, 4),
    ("aw11", 0, 1, 3, 5), ("aw11", 5, 2, 7, 2),
]


def perturb(base, dst, src, p, q):
    d = copy.deepcopy(base)
    extra = copy.deepcopy(base["lambda"][src])
    for ent in extra:
        ent["coeff"] = f"({ent['coeff']})*(t-{p}/{q})"
    d["lambda"][dst] = d["lambda"][dst] + extra
    return HomogeneousModel.from_dict(d)


def _models(g2_toy_dict, eta_toy_dict):
    models = {name: load_model(name) for name in ("cp3", "spin4", "aw11")}
    models["g2toy"] = HomogeneousModel.from_dict(g2_toy_dict)
    # the only fixture with S(eta) != 0, the j.S(eta).phi term of the residual
    models["etatoy"] = HomogeneousModel.from_dict(eta_toy_dict)
    for (name, dst, src, p, q) in PERTURBATIONS:
        base = load_model(name).to_dict()
        models[f"{name}+{dst}{src}"] = perturb(base, dst, src, p, q)
    return models


def test_residual_norms_match_exact_residual(g2_toy_dict, eta_toy_dict):
    for name, model in _models(g2_toy_dict, eta_toy_dict).items():
        an = ModelAnalysis(model)
        sub = model.substitution
        residual = an.harmonicity_residual()
        cross = an.cross_check_terms()[2]
        grid = numeric.Grid(model, GRID)
        norms = numeric.residual_norms(model, GRID)
        assert not grid.poles.any()
        for k, t0 in enumerate(GRID):
            exact = [eval_numeric(c, sub, t0) for c in residual]
            assert grid.residual()[k] == pytest.approx(exact, abs=1e-9), \
                (name, t0)
            assert norms[k] == pytest.approx(math.hypot(*exact), abs=1e-9)
            exact_cc = [eval_numeric(c, sub, t0) for c in cross]
            assert grid.cross_check_residual()[k] == \
                pytest.approx(exact_cc, abs=1e-9), (name, t0)


def test_su3_residual_is_minus_cross_check(eta_toy_dict):
    # an identity inside the oracle: on the fixture with chi^S != 0 the
    # six-term residual is the negative of Delta phi + 1/2 c_xi.phi
    grid = numeric.Grid(HomogeneousModel.from_dict(eta_toy_dict), GRID)
    assert np.abs(grid.residual()).max() > 0.1
    assert np.allclose(grid.residual(), -grid.cross_check_residual(),
                       atol=1e-12)


def test_perturbations_are_not_harmonic(g2_toy_dict, eta_toy_dict):
    # the agreement above is not vacuous: away from t = p/q every perturbed
    # file has a residual far from zero somewhere on the grid
    for name, model in _models(g2_toy_dict, eta_toy_dict).items():
        if "+" in name:
            assert max(numeric.residual_norms(model, GRID)) > 1e-3, name


def _irrational_pole_model(flat6_dict):
    d = dict(flat6_dict, substitution="t=u^2")
    d["lambda"] = [[{"i": 1, "j": 2, "coeff": "1/(u^2-2)"}]] + \
        [[] for _ in range(5)]
    return HomogeneousModel.from_dict(d)


def test_pole_found_exactly_where_float_misses_it(flat6_dict):
    model = _irrational_pole_model(flat6_dict)
    # u^2 - 2 at u = sqrt(2) rounds to about 4e-16, not 0
    assert math.sqrt(2.0) ** 2 - 2 != 0.0
    rows = numeric.scan(model, Fraction(1), Fraction(3), 4)
    assert [t for t, _ in rows] == [1, Fraction(3, 2), 2, Fraction(5, 2), 3]
    assert [r is None for _, r in rows] == [False, False, True, False, False]
    assert all(math.isfinite(r) for _, r in rows if r is not None)
    assert numeric.residual_norm(model, Fraction(2)) is None
    assert numeric.Grid(model, [Fraction(2)]).poles.tolist() == [True]


def _pole_rows_per_row(dens, sub, ts):
    """Every den tested at the u of every exact row."""
    return [isinstance(t0, (int, Fraction))
            and any(vanishes_at(d, *sub.u_value(Fraction(t0))) for d in dens)
            for t0 in ts]


def test_pole_rows_match_the_per_row_test():
    # a monomial c u^k is a pole at t = 0 alone; every other denominator
    # (pole.json's t - 1, the divided fixtures' factors) is tested per row
    rng = random.Random(39)
    models = [load_model(name) for name in ("cp3", "spin4", "aw11")]
    models += [load_model(str(MODELS_DIR / f"{name}.json"))
               for name in ("pole", "aw11-divided", "cp3-divided",
                            "spin4-divided", "aw11-family")]
    den_sets = [{c.den for slot in m.lam for c in slot.terms.values()
                 if c.den.degree > 0} for m in models]
    den_sets += [{Poly([0, 0, 3])}, {Poly([0, 0, 0, Fraction(-1, 2)])},
                 {Poly([0, 0, 3]), Poly([-1, 1])}, set()]
    subs = (Substitution.T_EQUALS_U, Substitution.T_EQUALS_U_SQUARED,
            Substitution.T_EQUALS_HALF_U_SQUARED)
    hit = set()
    for dens in den_sets:
        for sub in subs:
            ts = [0, 1, -3, 0.0, 0.5]
            ts += [Fraction(p, q) for p in range(-8, 9) for q in (1, 2, 4)]
            ts += [Fraction(rng.randint(-64, 64), rng.randint(1, 8))
                   for _ in range(60)]
            want = _pole_rows_per_row(dens, sub, ts)
            assert numeric._pole_rows(dens, sub, ts).tolist() == want
            hit.update(t0 == 0 for t0, w in zip(ts, want) if w)
    assert hit == {True, False}   # poles at t = 0 and away from it


def test_spin4_bracket_at_three_halves_dips():
    # spin4 perturbed by (t - 3/2) equals spin4 at t = 3/2, whose residual
    # vanishes identically, so the perturbed residual dips to 0 exactly there
    model = perturb(load_model("spin4").to_dict(), 0, 1, 3, 2)
    root, eps = Fraction(3, 2), Fraction(1, 1024)
    lo, mid, hi = numeric.residual_norms(model, [root - eps, root, root + eps])
    assert mid < 1e-12 and lo > 1e-6 and hi > 1e-6
    rows = dict(numeric.scan(model, Fraction(1), Fraction(2), 8))
    assert rows[root] < 1e-12
    assert rows[Fraction(11, 8)] > rows[root] < rows[Fraction(13, 8)]
    # the unperturbed spin4 reads ~0 across the same bracket (ALL_T)
    plain = numeric.residual_norms(load_model("spin4"),
                                   [root - eps, root, root + eps])
    assert max(plain) < 1e-9


def test_one_row_grid_matches_batch_rows():
    model = load_model("cp3")
    grid = numeric.Grid(model, GRID)
    s, eta = grid.s_eta
    for k, t0 in enumerate(GRID[:3]):
        row = numeric.Grid(model, [t0])
        s1, eta1 = row.s_eta
        assert np.array_equal(s1[0], s[k]) and np.array_equal(eta1[0], eta[k])
        assert np.allclose(row.residual()[0], grid.residual()[k], atol=1e-15)


def test_frame_built_once_per_spinor(monkeypatch):
    calls = []
    real = numeric._nullspace

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(numeric, "_nullspace", counting)
    numeric.frame.cache_clear()
    model = load_model("spin4")
    numeric.scan(model, Fraction(1, 2), Fraction(5, 2), 10)
    assert len(calls) == 2          # stabilizer, then its complement m
    numeric.scan(model, Fraction(1, 2), Fraction(5, 2), 10)
    numeric.residual_norm(load_model("spin4"), Fraction(3, 2))
    assert len(calls) == 2


def test_scan_grid_is_the_textbook_grid(monkeypatch):
    """scan's points, built as integer numerators over one denominator,
    are the Fractions t_min + (t_max - t_min) k / steps, on the ranges of
    tests/test_cli.py and on seeded ones."""
    seen = []
    monkeypatch.setattr(numeric, "residual_norms",
                        lambda model, ts: seen.append(ts) or [0.0] * len(ts))
    rng = random.Random(43)
    ranges = [(Fraction(1, 10), Fraction(4), 20),
              (Fraction(1, 2), Fraction(5, 2), 200),
              (Fraction(1, 4), Fraction(1), 12), (Fraction(1), Fraction(2), 8),
              (Fraction(1, 2), Fraction(3, 2), 2), (Fraction(1), Fraction(3), 4)]
    for _ in range(40):
        lo = Fraction(rng.randint(1, 10 ** rng.randint(1, 12)),
                      rng.randint(1, 10 ** rng.randint(0, 12)))
        hi = lo + Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        ranges.append((lo, hi, rng.randint(1, 300)))
    model = load_model("cp3")
    for lo, hi, steps in ranges:
        rows = numeric.scan(model, lo, hi, steps)
        want = [lo + (hi - lo) * k / steps for k in range(steps + 1)]
        assert seen.pop() == want == [t for t, _ in rows], (lo, hi, steps)
