"""The acceptance suite behind `spinharm verify` and tests/test_acceptance.py.

Each check returns CheckResult(name, ok, detail).  Exact checks use Scalar
equality; numeric-oracle checks use 1e-9 absolute tolerance.  Three spin4
sub-checks (eta value, harmonic root set, class flags) assert published
values that are internally inconsistent with the conventions the other
criteria pin down; they are asserted as stated and fail, with the computed
truth in the detail string.  See the repository notes for the analysis.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import Scalar, ZERO, ONE, zero_at
from .linalg import Matrix, Subspace, vec_is_zero
from .clifford import (MultiVector, SpinRep, FrameTensor, bracket, c_sigma,
                       index_pairs)
from .gstruct import SpinorStructure
from .homogeneous import (ALL_T, ROOT_SET, ModelAnalysis, Verdict,
                          load_model)

NUMERIC_TOL = 1e-9

# stabilizer algebra generator lists (2-form coefficient dictionaries)
SU3_GENERATORS = [
    {(1, 3): 1, (2, 4): -1}, {(1, 4): 1, (2, 3): 1},
    {(1, 5): 1, (2, 6): 1}, {(1, 6): 1, (2, 5): -1},
    {(3, 5): 1, (4, 6): -1}, {(3, 6): 1, (4, 5): 1},
    {(1, 2): 1, (3, 4): 1}, {(3, 4): 1, (5, 6): 1},
]
SU3_COMPLEMENT = [
    {(3, 5): 1, (4, 6): 1}, {(3, 6): 1, (4, 5): -1},
    {(1, 5): 1, (2, 6): -1}, {(1, 6): 1, (2, 5): 1},
    {(1, 3): 1, (2, 4): 1}, {(1, 4): 1, (2, 3): -1},
    {(1, 2): 1, (3, 4): -1, (5, 6): 1},
]
G2_GENERATORS = [
    {(1, 6): 1, (3, 7): 1}, {(1, 6): 1, (2, 5): -1},
    {(1, 5): 1, (2, 6): 1}, {(2, 6): 1, (4, 7): 1},
    {(1, 7): 1, (3, 6): -1}, {(1, 7): 1, (4, 5): 1},
    {(2, 7): 1, (3, 5): -1}, {(2, 7): 1, (4, 6): -1},
    {(1, 2): 1, (3, 4): 1}, {(1, 2): 1, (5, 6): -1},
    {(1, 3): 1, (2, 4): -1}, {(1, 3): 1, (6, 7): -1},
    {(1, 4): 1, (2, 3): 1}, {(1, 4): 1, (5, 7): 1},
]
G2_COMPLEMENT = [
    {(1, 6): 1, (3, 7): -1, (2, 5): 1},
    {(1, 5): 1, (2, 6): -1, (4, 7): 1},
    {(1, 7): 1, (3, 6): 1, (4, 5): -1},
    {(2, 7): 1, (3, 5): 1, (4, 6): 1},
    {(1, 2): 1, (3, 4): -1, (5, 6): 1},
    {(1, 3): 1, (2, 4): 1, (6, 7): 1},
    {(1, 4): 1, (2, 3): -1, (5, 7): -1},
]

S5 = [Scalar.rational(1 if k == 4 else 0) for k in range(8)]
S6 = [Scalar.rational(1 if k == 5 else 0) for k in range(8)]

GEN_ENTRY_PINS = {
    # (n, generator index 1-based) -> list of (row, col, value)
    (6, 1): [(1, 8, -1), (8, 1, 1), (2, 7, -1), (7, 2, 1),
             (3, 6, 1), (6, 3, -1), (4, 5, 1), (5, 4, -1)],
    (7, 7): [(1, 2, -1), (2, 1, 1), (3, 4, 1), (4, 3, -1),
             (5, 6, 1), (6, 5, -1), (7, 8, -1), (8, 7, 1)],
}


class CheckResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}" + (f" -- {self.detail}"
                                            if self.detail else "")


def _forms_subspace(generators, n):
    pairs = index_pairs(n)
    rows = []
    for g in generators:
        rows.append([Scalar.rational(g.get(p, 0)) for p in pairs])
    return Subspace(len(pairs), rows)


def _rand_fraction(rng, span=2):
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))


def _rand_two_form(rng, n, nterms=4):
    pairs = index_pairs(n)
    chosen = rng.sample(pairs, min(nterms, len(pairs)))
    return MultiVector.two_form(
        n, {p: Scalar.rational(_rand_fraction(rng)) for p in chosen})


def _rand_vector(rng, n):
    return [Scalar.rational(_rand_fraction(rng)) for _ in range(n)]


def _rand_matrix(rng, n):
    return Matrix([[Scalar.rational(_rand_fraction(rng)) for _ in range(n)]
                   for _ in range(n)])


# --------------------------------------------------------------------------
# criterion 1: Clifford relations


def check_clifford_relations():
    fails = []
    for n in (6, 7):
        rep = SpinRep.build(n)
        gens = [rep.op(MultiVector(n, {(i,): ONE})) for i in range(1, n + 1)]
        minus2 = rep.op(MultiVector(n, {(): -2}))
        zero = rep.op(MultiVector.zero(n))
        for i in range(n):
            for j in range(n):
                anti = gens[i] * gens[j] + gens[j] * gens[i]
                want = minus2 if i == j else zero
                if anti != want:
                    fails.append(f"n={n} pair ({i + 1},{j + 1})")
    for (n, idx), pins in GEN_ENTRY_PINS.items():
        g = SpinRep.build(n).gens[idx - 1]
        nonzero = {(r, c) for r in range(1, 9) for c in range(1, 9)
                   if not g.data[r - 1][c - 1].is_zero}
        for (r, c, v) in pins:
            if g.data[r - 1][c - 1] != Scalar.rational(v):
                fails.append(f"e{idx} entry ({r},{c})")
            nonzero.discard((r, c))
        if nonzero:
            fails.append(f"e{idx} extra entries {sorted(nonzero)}")
    return [CheckResult("clifford-relations", not fails,
                        "; ".join(fails) or
                        "e_i e_j + e_j e_i = -2 delta_ij for n=6,7; "
                        "generator tables exact")]


# criterion 2: volume element


def check_volume_element():
    rep = SpinRep.build(6)
    vol = rep.volume_element()
    jm = rep.op(vol)
    zero = rep.op(MultiVector.zero(6))
    fails = []
    if rep.act(vol, S5) != S6:
        fails.append("j.s5 != s6")
    if jm * jm != rep.op(MultiVector(6, {(): -1})):
        fails.append("j^2 != -Id")
    for i in range(1, 7):
        ei = rep.op(MultiVector(6, {(i,): ONE}))
        if jm * ei + ei * jm != zero:
            fails.append(f"j does not anticommute with e{i}")
    return [CheckResult("volume-element", not fails,
                        "; ".join(fails) or
                        "j.s5 = s6, j^2 = -Id, j anticommutes with e1..e6")]


# criterion 3: stabilizer algebras and complements


def check_stabilizer_algebras():
    fails = []
    for n, gen_list, comp_list, dim in (
            (6, SU3_GENERATORS, SU3_COMPLEMENT, 8),
            (7, G2_GENERATORS, G2_COMPLEMENT, 14)):
        st = SpinorStructure.shared(n, S5)
        ann = st.annihilator()
        if ann.dim != dim:
            fails.append(f"n={n}: annihilator dim {ann.dim} != {dim}")
        if ann != _forms_subspace(gen_list, n):
            fails.append(f"n={n}: annihilator != published generator list")
        comp = st.complement_m()
        if comp.dim != 7:
            fails.append(f"n={n}: complement dim {comp.dim} != 7")
        if comp != _forms_subspace(comp_list, n):
            fails.append(f"n={n}: complement != published list")
    return [CheckResult("stabilizer-algebras", not fails,
                        "; ".join(fails) or
                        "su(3) (dim 8) and g2 (dim 14) match the published "
                        "lists; complements match the 7-element lists")]


# criterion 4: cp3


def _cp3_expected_S():
    u = Scalar.u()
    half = Scalar.rational(1, 2)
    d5 = (u * u - ONE) / (Scalar.rational(2) * u)   # -(1-t)/(2 sqrt t)
    m = Matrix.zeros(6, 6)
    for k in range(4):
        m.data[k][k] = -(half * u)
    m.data[4][4] = d5
    m.data[5][5] = d5
    return m


def check_cp3():
    an = ModelAnalysis(load_model("cp3"))
    sub = an.model.substitution
    s, eta = an.extract_S_eta()
    fails = []
    if s != _cp3_expected_S():
        fails.append("S != -diag(sqrt(t)/2 x4, (1-t)/(2 sqrt t) x2)")
    if not vec_is_zero(eta):
        fails.append("eta != 0")
    cls = an.classify()
    if cls.flags() != {"W1-", "W2-"}:
        fails.append(f"generic flags {sorted(cls.flags())} != [W1-, W2-]")
    u = Scalar.u()
    mu_expected = -(ONE + u * u) / (Scalar.rational(6) * u)
    if cls.mu != mu_expected:
        fails.append("mu != -(t+1)/(6 sqrt t)")
    if cls.flags_at(sub, Fraction(1, 2)) != {"W1-"}:
        fails.append("flags at t=1/2 != [W1-]")
    if not vec_is_zero(an.divergence_endo(s)):
        fails.append("div S != 0")
    if an.canonical_parameters() != Verdict(ALL_T):
        fails.append("canonical parameters != ALL_T")
    if an.harmonicity_su3().verdict != Verdict(ALL_T):
        fails.append("harmonicity != ALL_T")
    return [CheckResult("cp3-model", not fails,
                        "; ".join(fails) or
                        "S and eta exact; class W1-+W2- (W1- at t=1/2); "
                        "div S = 0; canonical ALL_T; harmonic for all t")]


# criterion 5: spin4 (three sub-checks assert published values that conflict
# with the conventions pinned by criteria 1-4; they fail with the computed
# truth in the detail)


def _spin4_stated_eta():
    u = Scalar.u()
    stated4 = (Scalar.rational(3) - u * u) / (Scalar.rational(2) * u)
    return [ZERO, ZERO, ZERO, stated4, ZERO, ZERO]


def check_spin4():
    an = ModelAnalysis(load_model("spin4"))
    sub = an.model.substitution
    s, eta = an.extract_S_eta()
    out = []

    stated = _spin4_stated_eta()
    ok_eta = eta == stated
    detail = "eta = (3/2-t)/sqrt(2t) X4-flat"
    if not ok_eta:
        detail = ("stated eta4 = (3-u^2)/(2*u); extracted eta4 = "
                  f"{eta[3]} (half the stated value; see notes)")
    out.append(CheckResult("spin4-eta-exact", ok_eta, detail))

    u = Scalar.u()
    w_coeff = (Scalar.rational(3) - u * u) / (Scalar.rational(6) * u)
    expected_proj = MultiVector.two_form(
        6, {(1, 2): w_coeff, (3, 4): -w_coeff, (5, 6): w_coeff})
    proj4 = an.torsion()[3]
    out.append(CheckResult(
        "spin4-m-projection", proj4 == expected_proj,
        "m-part of Lambda(X4) = ((3-2t)/(6 sqrt(2t)))(e12-e34+e56)"))

    div_s = an.divergence_endo(s)
    div_eta = an.divergence_vector(eta)
    ok_div = vec_is_zero(div_s) and div_eta.is_zero
    out.append(CheckResult("spin4-divergences", ok_div,
                           "div S = 0 and div(eta-sharp) = 0"))

    hv = an.harmonicity_su3()
    stated_verdict = Verdict(ROOT_SET, {Fraction(3, 2): 1})
    ok_roots = (hv.verdict.kind == ROOT_SET
                and set(hv.verdict.roots) == {Fraction(3, 2)})
    detail = "harmonic exactly at t = 3/2"
    if not ok_roots:
        detail = (f"stated root set {{3/2}}; computed verdict "
                  f"{hv.verdict} (residual is identically zero; see notes)")
    out.append(CheckResult("spin4-root-set", ok_roots, detail))

    cls = an.classify()
    flags = cls.flags()
    flags_at = cls.flags_at(sub, Fraction(3, 2))
    ok_flags = (flags == {"W2-", "W3", "W4", "W5"}
                and flags_at == {"W2-", "W3", "W4"})
    detail = "class W2-+W3+W4+W5, dropping W5 at t=3/2"
    if not ok_flags:
        detail = (f"stated {{W2-,W3,W4,W5}}/{{W2-,W3,W4}}; computed "
                  f"{sorted(flags)}/{sorted(flags_at)} (the symmetric "
                  "traceless part is purely J-anticommuting; see notes)")
    out.append(CheckResult("spin4-class-flags", ok_flags, detail))
    return out


# criterion 6: aw11


def _aw11_expected_S():
    t = Scalar.u()   # rational substitution: u plays the role of t
    quarter = ONE / (Scalar.rational(4) * t)
    a = (ONE / (Scalar.rational(2) * t) - ONE) * Scalar.rational(1, 2)
    b = Scalar.rational(-3, 2) * quarter
    m = Matrix.zeros(7, 7)
    for k in (0, 1, 6):
        m.data[k][k] = a
    for k in (2, 3, 4, 5):
        m.data[k][k] = b
    return m


def check_aw11():
    an = ModelAnalysis(load_model("aw11"))
    sub = an.model.substitution
    s, eta = an.extract_S_eta()
    fails = []
    if s != _aw11_expected_S():
        fails.append("S != (1/2)diag(1/(2t)-1 x2, -3/(4t) x4, 1/(2t)-1)")
    if not vec_is_zero(eta):
        fails.append("eta != 0 for n = 7")
    cls = an.classify()
    if cls.flags() != {"W1", "W3"}:
        fails.append(f"generic flags {sorted(cls.flags())} != [W1, W3]")
    if cls.flags_at(sub, Fraction(5, 4)) != {"W1"}:
        fails.append("flags at t=5/4 != [W1]")
    if an.canonical_parameters() != Verdict(ROOT_SET, {Fraction(1, 8): 1}):
        fails.append("canonical parameters != {1/8}")
    if not vec_is_zero(an.divergence_endo(s)):
        fails.append("div S != 0")
    if an.harmonicity_g2().verdict != Verdict(ALL_T):
        fails.append("harmonicity != ALL_T")
    return [CheckResult("aw11-model", not fails,
                        "; ".join(fails) or
                        "S exact; class W1+W3 (pure W1 at t=5/4); canonical "
                        "set {1/8}; div S = 0; harmonic for all t")]


# criterion 7: property suite, 100 random instances each


def _property_clifford_mult(rng, trials):
    # with e_i^2 = -1 and the first-slot contraction, the commutator
    # identity carries -2 (the +2 form belongs to the e_i^2 = +1 convention)
    for k in range(trials):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        x = MultiVector.vector(n, _rand_vector(rng, n))
        omega = _rand_two_form(rng, n)
        xo, oo = rep.op(x), rep.op(omega)
        lhs = xo * oo - oo * xo
        rhs = rep.op(x.interior(omega)).scale(Scalar.rational(-2))
        if lhs != rhs:
            return f"X.w - w.X != -2(X -| w) at trial {k}"
    return None


def _property_bracket(rng, trials):
    for k in range(trials):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        a = _rand_two_form(rng, n)
        b = _rand_two_form(rng, n)
        ao, bo = rep.op(a), rep.op(b)
        lhs = ao * bo - bo * ao
        rhs = rep.op(bracket(a, b)).scale(Scalar.rational(2))
        if lhs != rhs:
            return f"w.t - t.w != 2[w,t] at trial {k}"
    return None


def _property_chi_vanishes(rng, trials):
    for k in range(trials):
        n = 6 if k % 2 else 7
        st = SpinorStructure.shared(n, S5)
        s = _rand_matrix(rng, n)
        xi = st.torsion_from_S(s)
        chi = st.chi_vector(xi, s)
        if not vec_is_zero(chi):
            return f"chi^S != 0 at trial {k}"
    return None


def _w3_class_matrix(rng, st):
    n = 6
    raw = _rand_matrix(rng, n)
    sym = (raw + raw.transpose()).scale(Scalar.rational(1, 2))
    sym = sym - Matrix.identity(n).scale(sym.trace() / Scalar.rational(n))
    j = st.almost_complex()
    return (sym + j * sym * j).scale(Scalar.rational(1, 2))


def _property_w3_energy(rng, trials):
    st = SpinorStructure.shared(6, S5)
    for k in range(trials):
        s = _w3_class_matrix(rng, st)
        xi = st.torsion_from_S(s)
        acc = [ZERO] * 8
        for slot in xi:
            e = st.rep.endo(slot)
            acc = [a + v for a, v in zip(acc, e.apply(e.apply(st.phi)))]
        norm2 = ZERO
        for row in s.data:
            for c in row:
                norm2 = norm2 + c * c
        want = [Scalar.rational(-4) * norm2 * p for p in st.phi]
        if acc != want:
            return f"sum xi.xi.phi != -4|S|^2 phi at trial {k}"
    return None


def _property_dirac(rng, trials):
    for k in range(trials):
        n = 6 if k % 2 else 7
        st = SpinorStructure.shared(n, S5)
        raw = _rand_matrix(rng, n)
        sym = (raw + raw.transpose()).scale(Scalar.rational(1, 2))
        sym = sym - Matrix.identity(n).scale(sym.trace() / Scalar.rational(n))
        if not vec_is_zero(st.dirac(sym)):
            return f"Dirac contraction != 0 at trial {k}"
    return None


def _property_c_sigma(rng, trials):
    half = Scalar.rational(1, 2)
    for k in range(trials):
        n = 6 if k % 2 else 7
        rep = SpinRep.build(n)
        slots = [_rand_two_form(rng, n, nterms=3) for _ in range(n)]
        cs = c_sigma(rep, FrameTensor(n, slots))
        if cs.kappa != half:
            return f"kappa != 1/2 at trial {k} (got {cs.kappa})"
    return None


def check_property_suite(trials=100, seed=20240811):
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = random.Random(seed)
    named = [
        ("property-clifford-multiplication", _property_clifford_mult),
        ("property-bracket-identity", _property_bracket),
        ("property-chi-vanishes", _property_chi_vanishes),
        ("property-w3-energy", _property_w3_energy),
        ("property-dirac-symmetric-traceless", _property_dirac),
        ("property-c-sigma-kappa", _property_c_sigma),
    ]
    out = []
    for name, fn in named:
        err = fn(rng, trials)
        out.append(CheckResult(name, err is None,
                               err or f"{trials} random instances exact"))
    return out


# criterion 8: Laplacian cross-check on the stated harmonic sets


def check_cross_check():
    fails = []
    stated = {"cp3": Verdict(ALL_T),
              "spin4": Verdict(ROOT_SET, {Fraction(3, 2): 1}),
              "aw11": Verdict(ALL_T)}
    for name, verdict in stated.items():
        an = ModelAnalysis(load_model(name))
        cc = an.laplacian_cross_check()
        if verdict.kind == ALL_T:
            if not all(c.is_zero for c in cc.residual):
                fails.append(f"{name}: residual not identically zero")
        else:
            for t0 in verdict.roots:
                if not all(zero_at(c, an.model.substitution, t0)
                           for c in cc.residual):
                    fails.append(f"{name}: residual != 0 at t={t0}")
    return [CheckResult("laplacian-cross-check", not fails,
                        "; ".join(fails) or
                        "Delta phi + (1/2) c_xi.phi vanishes exactly on "
                        "every stated harmonic set")]


# criterion 9: numeric oracle


def check_numeric_scan(samples=20, seed=77):
    from . import numeric   # numpy only for this check
    rng = random.Random(seed)
    fails = []
    for name in ("cp3", "spin4", "aw11"):
        model = load_model(name)
        an = ModelAnalysis(model)
        verdict = an.harmonicity().verdict
        ts = [Fraction(rng.randint(1, 64), rng.randint(16, 32))
              for _ in range(samples)]
        worst = 0.0
        for t0, r in zip(ts, numeric.residual_norms(model, ts)):
            if r is None:
                continue
            if verdict.kind == ALL_T:
                worst = max(worst, r)
            elif all(abs(float(t0) - float(root)) > 1e-6
                     for root in verdict.roots):
                if r < NUMERIC_TOL:
                    fails.append(f"{name}: residual ~0 off the root set")
        if verdict.kind == ALL_T and worst > NUMERIC_TOL:
            fails.append(f"{name}: ALL_T but residual {worst:.2e} at a sample")
        if verdict.kind == ROOT_SET:
            for root in verdict.roots:
                eps = Fraction(1, 1024)
                lo, mid, hi = numeric.residual_norms(
                    model, [root - eps, Fraction(root), root + eps])
                if mid is None or mid > NUMERIC_TOL:
                    fails.append(f"{name}: no dip at root {root}")
                if lo is not None and hi is not None and \
                        not (lo > mid and hi > mid):
                    fails.append(f"{name}: root {root} not bracketed")
    return [CheckResult("numeric-scan", not fails,
                        "; ".join(fails) or
                        f"{samples} samples per model within {NUMERIC_TOL}; "
                        "dips bracket every exact root")]


ALL_CHECKS = (
    check_clifford_relations,
    check_volume_element,
    check_stabilizer_algebras,
    check_cp3,
    check_spin4,
    check_aw11,
    check_property_suite,
    check_cross_check,
    check_numeric_scan,
)


def run_all(trials=100):
    """Run every acceptance check; an exception inside a check is a failure.
    A trials count below 1 is refused before any check runs."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = []
    for fn in ALL_CHECKS:
        try:
            if fn is check_property_suite:
                results.extend(fn(trials=trials))
            else:
                results.extend(fn())
        except Exception as exc:   # a blown-up check must surface as FAIL
            name = fn.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False,
                                       f"{type(exc).__name__}: {exc}"))
    return results
