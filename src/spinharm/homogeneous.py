"""Reductive homogeneous models with parametrized metrics.

A model is a Wang map Lambda (one so(n)-valued 2-form per orthonormal frame
direction, encoding the Levi-Civita connection of an invariant metric), a
defining unit spinor phi0, and a substitution binding the deformation
parameter t to the formal variable u.  Everything downstream is exact,
and runs on the cleared Wang map: ModelAnalysis multiplies every slot by
the model's common denominator D(u), the monic lcm of the denominators of
all Lambda coefficients, so each stage computes with polynomials in u, and
reduces an output once, dividing it by D when it is linear in Lambda and
by D^2 when it is quadratic:

  * extract_S_eta decomposes lift(Lambda(X_i)).phi0 into S(X_i) and
    eta(X_i) (the phi-component must vanish; its survival is a hard error);
    every Clifford action here is applied to one spinor (`SpinRep.act`,
    `act_vector`, `lift_act`), with no 8x8 matrix built;
  * torsion projects each Lambda slot onto the complement m of the
    stabilizer algebra -- the intrinsic torsion of the structure;
  * canonical_parameters finds the exact t-set where the stabilizer
    component of Lambda vanishes (canonical connection);
  * divergences of invariant tensors reduce to commutator sums, of which
    only column i of [A_i, S] is needed;
  * the harmonicity residual is the full six-term spinor expression for
    n = 6 and div S for n = 7;
  * laplacian_cross_check computes Delta phi = -sum lift(L_i)^2 phi0 and
    c_xi.phi from the torsion slots and reports the residual
    Delta phi + 1/2 c_xi.phi, which equals -1/2 L.phi and must vanish
    exactly where the structure is harmonic.

Canonical parameters, harmonicity and the cross-check share one verdict
engine, vanishing_verdict, on the gcd of their values' u-numerators; a
refusal (a real root in the domain that is not rational) names the stage.

Built-in models: cp3 (SO(5)/U(2), t = u^2), spin4 (the Lie group
Spin(4) = S^3 x S^3, t = u^2/2), aw11 (the Aloff-Wallach space
SU(3)/S^1, rational t).  Each carries a Wang map of the deformed metric
B_t; the acceptance checks compare the S and eta extracted from it with the
published values, but no code checks it against the Koszul formula from
the Lie brackets.  Model files are JSON per the documented schema;
built-ins round-trip through dump/load bit-exactly.
"""

from __future__ import annotations

import json
import os
from functools import cached_property

from .scalars import (Scalar, Poly, ZERO, ONE_POLY, ZERO_POLY, U_POLY,
                      Substitution, rational_roots, real_root_count, poly_gcd,
                      IrrationalRoots, vanishes_at, format_scalar)
from .linalg import (Matrix, basis_vec, vec_add, vec_dot, vec_scale,
                     vec_sub, zero_vec)
from .clifford import MultiVector, SpinRep
from .coeffexpr import parse_fraction
from .gstruct import SpinorStructure, InternalInvariantError, unit_spinor


class ModelError(ValueError):
    """Unloadable model: unknown name, bad file, or invalid field."""


ALL_T = "ALL_T"
ROOT_SET = "ROOT_SET"
NEVER = "NEVER"


class Verdict:
    """Exact t-set where a family of rational functions vanishes jointly."""

    __slots__ = ("kind", "roots")

    def __init__(self, kind, roots=None):
        self.kind = kind
        self.roots = dict(roots or {})

    def __eq__(self, other):
        return (isinstance(other, Verdict) and self.kind == other.kind
                and self.roots == other.roots)

    def __repr__(self):
        if self.kind == ROOT_SET:
            inner = ", ".join(f"{r}(x{m})" if m > 1 else str(r)
                              for r, m in sorted(self.roots.items()))
            return f"Verdict({self.kind}: {{{inner}}})"
        return f"Verdict({self.kind})"

    def to_dict(self):
        return {"kind": self.kind,
                "roots": {str(r): m for r, m in sorted(self.roots.items())}}


def vanishing_verdict(values, sub, positive_only=True) -> Verdict:
    """Joint vanishing t-set of u-domain Scalars under the substitution.

    g is the gcd of the u-numerators, its multiplicities the least over the
    numerators.  An even g is E(m t) (g itself when t = u), whose rational
    roots are the answer on t > 0, or on t != 0 and t = 0 when positive_only
    is off.  A g = E(u^2) + u O(u^2) with odd terms vanishes at
    u = sqrt(v0) > 0 only where the norm E(v)^2 - v O(v)^2 does: each
    rational root v0 > 0 of the norm is kept if g vanishes at sqrt(v0),
    with the multiplicity of sqrt(v0)'s minimal polynomial in g.  Raises
    IrrationalRoots when a Sturm count finds more real roots of g in the
    domain than were kept.
    """
    g = ZERO_POLY
    for v in values:
        if not v.is_zero:
            g = poly_gcd(g, v.num) if g else v.num
            if g.degree < 1:
                return Verdict(NEVER)
    if not g:
        return Verdict(ALL_T)
    m = sub.u_squared_per_t
    e, o = g.even_odd_parts()
    if m is None or not o:
        p = g if m is None else e.scale_argument(m)
        roots = {r: k for r, k in rational_roots(p).items()
                 if r > 0 or not positive_only}
        irrational = real_root_count(p, positive_only) > \
            sum(1 for r in roots if r)
        shown, var = p, "t"
    else:
        roots = {}
        for v0 in rational_roots(e * e - U_POLY * (o * o)):
            if v0 <= 0:
                continue
            _, root = sub.u_value(v0 / m)
            minimal = Poly((-v0, 0, 1) if root is None else (-root, 1))
            work, k = g, 0
            while vanishes_at(work, v0, root):
                work, k = work.exact_div(minimal), k + 1
            if k:
                roots[v0 / m] = k
        irrational = real_root_count(g) > len(roots)
        shown, var = g, "u"
    if irrational:
        raise IrrationalRoots(
            f"gcd of the numerators "
            f"{format_scalar(Scalar(Poly(shown.int_coeffs())), var)} "
            "has irrational real roots")
    return Verdict(ROOT_SET, roots) if roots else Verdict(NEVER)


class HarmonicityVerdict:
    """Residual (spinor for n = 6, frame vector for n = 7) plus verdict."""

    __slots__ = ("residual", "verdict")

    def __init__(self, residual, verdict):
        self.residual = residual
        self.verdict = verdict


class CrossCheck:
    __slots__ = ("delta_phi", "c_xi_phi", "residual", "verdict")

    def __init__(self, delta_phi, c_xi_phi, residual, verdict):
        self.delta_phi = delta_phi
        self.c_xi_phi = c_xi_phi
        self.residual = residual
        self.verdict = verdict


class HomogeneousModel:
    """Immutable reductive-space description."""

    __slots__ = ("name", "n", "substitution", "lam", "phi0", "notes")

    def __init__(self, name, n, substitution, lam, phi0, notes=""):
        if n not in (6, 7):
            raise ModelError(f"unsupported dimension {n}")
        if len(lam) != n:
            raise ModelError("one Wang-map slot per frame direction required")
        for slot in lam:
            if slot.n != n or not (slot.is_zero or slot.is_pure_grade(2)):
                raise ModelError("Wang-map slots must be grade-2 elements")
        try:
            phi0 = unit_spinor(phi0)
        except ValueError as exc:
            raise ModelError(str(exc)) from None
        self.name = name
        self.n = n
        self.substitution = substitution
        self.lam = list(lam)
        self.phi0 = phi0
        self.notes = notes

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        lam_out = []
        for slot in self.lam:
            entries = [{"i": i, "j": j, "coeff": format_scalar(c)}
                       for (i, j), c in sorted(slot.terms.items())]
            lam_out.append(entries)
        return {
            "name": self.name,
            "n": self.n,
            "substitution": self.substitution.label,
            "spinor": [_fraction_str(c) for c in self.phi0],
            "lambda": lam_out,
            "notes": self.notes,
        }

    def dumps(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data):
        from .coeffexpr import FoldBudget, ParseError
        try:
            name = _json_str(data, "name")
            notes = _json_str(data, "notes") if "notes" in data else ""
            n = _json_int(data, "n")
            sub = Substitution.from_label(data["substitution"])
            spinor = [_parse_fraction(k, c)
                      for k, c in enumerate(data["spinor"], 1)]
            lam_raw = data["lambda"]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad model record: {exc}") from exc
        if not (isinstance(lam_raw, list)
                and all(isinstance(entries, list) for entries in lam_raw)):
            raise ModelError("bad model record: lambda must be a list of "
                             "entry lists, one per slot")
        lam = []
        budget = FoldBudget()
        for k, entries in enumerate(lam_raw):
            coeffs = {}
            for ent in entries:
                try:
                    i, j = _json_int(ent, "i"), _json_int(ent, "j")
                    c = budget.parse(ent["coeff"], sub)
                except ParseError as exc:
                    raise ModelError(
                        f"slot {k + 1} ({ent.get('i')},{ent.get('j')}): {exc}"
                    ) from exc
                except (KeyError, TypeError, ValueError) as exc:
                    raise ModelError(f"slot {k + 1}: bad entry {ent!r}") from exc
                if (i, j) in coeffs:
                    raise ModelError(f"slot {k + 1}: duplicate entry ({i},{j})")
                coeffs[(i, j)] = c
            try:
                lam.append(MultiVector.two_form(n, coeffs))
            except ValueError as exc:
                raise ModelError(f"slot {k + 1}: {exc}") from exc
        return cls(name, n, sub, lam, spinor, notes)

    @classmethod
    def loads(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"bad model file: {exc}") from exc
        return cls.from_dict(data)


def _json_int(record, key):
    """record[key] if it is a JSON integer (true and false are not)."""
    value = record[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _json_str(record, key):
    """record[key] if it is a JSON string."""
    value = record[key]
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _fraction_str(c: Scalar) -> str:
    f = c.as_fraction()
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def _parse_fraction(k, text) -> Scalar:
    """Spinor entry k (counted from 1) as a rational Scalar."""
    try:
        return Scalar.rational(parse_fraction(str(text)))
    except ValueError as exc:
        raise ValueError(f"spinor entry {k}: {exc}") from None


# ---------------------------------------------------------------------------
# built-in models (Levi-Civita Wang maps of the deformed metrics B_t)

_S5 = ["0", "0", "0", "0", "1", "0", "0", "0"]

_BUILTIN_DATA = {
    "cp3": {
        "name": "cp3",
        "n": 6,
        "substitution": "t=u^2",
        "spinor": _S5,
        "lambda": [
            [{"i": 3, "j": 5, "coeff": "u/2"}, {"i": 4, "j": 6, "coeff": "u/2"}],
            [{"i": 3, "j": 6, "coeff": "-u/2"}, {"i": 4, "j": 5, "coeff": "u/2"}],
            [{"i": 1, "j": 5, "coeff": "-u/2"}, {"i": 2, "j": 6, "coeff": "u/2"}],
            [{"i": 1, "j": 6, "coeff": "-u/2"}, {"i": 2, "j": 5, "coeff": "-u/2"}],
            [{"i": 1, "j": 3, "coeff": "(1-t)/(2*u)"},
             {"i": 2, "j": 4, "coeff": "(1-t)/(2*u)"}],
            [{"i": 1, "j": 4, "coeff": "(1-t)/(2*u)"},
             {"i": 2, "j": 3, "coeff": "-(1-t)/(2*u)"}],
        ],
        "notes": "CP^3 = SO(5)/U(2), metric family B_t, u = sqrt(t)",
    },
    "spin4": {
        "name": "spin4",
        "n": 6,
        "substitution": "t=u^2/2",
        "spinor": _S5,
        "lambda": [
            [{"i": 2, "j": 4, "coeff": "u/2"}, {"i": 3, "j": 5, "coeff": "u/2"}],
            [{"i": 1, "j": 4, "coeff": "-u/2"}, {"i": 3, "j": 6, "coeff": "u/2"}],
            [{"i": 1, "j": 5, "coeff": "-u/2"}, {"i": 2, "j": 6, "coeff": "-u/2"}],
            [{"i": 1, "j": 2, "coeff": "(1-t)/u"},
             {"i": 5, "j": 6, "coeff": "1/(2*u)"}],
            [{"i": 1, "j": 3, "coeff": "(1-t)/u"},
             {"i": 4, "j": 6, "coeff": "-1/(2*u)"}],
            [{"i": 2, "j": 3, "coeff": "(1-t)/u"},
             {"i": 4, "j": 5, "coeff": "1/(2*u)"}],
        ],
        "notes": "Spin(4) = S^3 x S^3, metric family B_t, u = sqrt(2t)",
    },
    # The published Wang-map display for this space is the negative of the
    # Levi-Civita map of B_t (Koszul-verified from the su(3) brackets with
    # the traceless block-Cartan direction diag(i,-i,0)); the slots below
    # carry the verified connection, which also reproduces the published S.
    "aw11": {
        "name": "aw11",
        "n": 7,
        "substitution": "t=u",
        "spinor": _S5,
        "lambda": [
            [{"i": 2, "j": 7, "coeff": "-1"},
             {"i": 3, "j": 5, "coeff": "1-1/(4*t)"},
             {"i": 4, "j": 6, "coeff": "1-1/(4*t)"}],
            [{"i": 1, "j": 7, "coeff": "1"},
             {"i": 3, "j": 6, "coeff": "-(1-1/(4*t))"},
             {"i": 4, "j": 5, "coeff": "1-1/(4*t)"}],
            [{"i": 1, "j": 5, "coeff": "-1/(4*t)"},
             {"i": 2, "j": 6, "coeff": "1/(4*t)"},
             {"i": 4, "j": 7, "coeff": "-1/(4*t)"}],
            [{"i": 1, "j": 6, "coeff": "-1/(4*t)"},
             {"i": 2, "j": 5, "coeff": "-1/(4*t)"},
             {"i": 3, "j": 7, "coeff": "1/(4*t)"}],
            [{"i": 1, "j": 3, "coeff": "1/(4*t)"},
             {"i": 2, "j": 4, "coeff": "1/(4*t)"},
             {"i": 6, "j": 7, "coeff": "1/(4*t)"}],
            [{"i": 1, "j": 4, "coeff": "1/(4*t)"},
             {"i": 2, "j": 3, "coeff": "-1/(4*t)"},
             {"i": 5, "j": 7, "coeff": "-1/(4*t)"}],
            [{"i": 1, "j": 2, "coeff": "-1"},
             {"i": 3, "j": 4, "coeff": "-(1-1/(4*t))"},
             {"i": 5, "j": 6, "coeff": "1-1/(4*t)"}],
        ],
        "notes": "Aloff-Wallach N(1,1) = SU(3)/S^1, metric family B_t, rational t",
    },
}

BUILTIN_MODELS = tuple(sorted(_BUILTIN_DATA))


def load_model(name_or_path) -> HomogeneousModel:
    """Load a built-in model by name or a JSON model file by path."""
    key = str(name_or_path)
    if key in _BUILTIN_DATA:
        return HomogeneousModel.from_dict(_BUILTIN_DATA[key])
    if os.path.exists(key):
        with open(key, "r", encoding="utf-8") as fh:
            return HomogeneousModel.loads(fh.read())
    raise ModelError(f"unknown model {key!r} (no such built-in or file)")


# ---------------------------------------------------------------------------
# the analysis pipeline


class ModelAnalysis:
    """Lazy exact pipeline over one model, run on the cleared Wang map.

    D(u), the monic lcm of the denominators of every Lambda coefficient
    (1 for a polynomial model), is computed once; its zeros are the model's
    poles.  Every stage runs on the cleared slots D*Lambda_i, whose entries
    are polynomials, so no Scalar in its inner loops needs a gcd.  Each
    output is reduced once, at the end: an output linear in Lambda (S, eta,
    the torsion, the canonical-parameter coordinates, the classes) is
    divided by D, and a quadratic one (the harmonicity residual, Delta phi,
    c_xi.phi and the cross-check residual) by D^2.  S, eta, the torsion
    xi_i and lift(D Lambda_i).phi0 (shared by S, eta and Delta phi) are
    kept once computed; the stabilizer part of a slot is D Lambda_i - xi_i,
    m being its orthogonal complement.  The stabilizer, m, J and psi come
    from the structure shared by every model with the same n and phi0.
    """

    def __init__(self, model: HomogeneousModel):
        self.model = model
        self.rep = SpinRep.build(model.n)
        self.structure = SpinorStructure.shared(model.n, model.phi0)

    # -- the cleared Wang map ----------------------------------------------------

    @cached_property
    def common_denominator(self) -> Poly:
        """D(u): the monic lcm of the Lambda coefficients' denominators."""
        d = ONE_POLY
        for den in {c.den for slot in self.model.lam
                    for c in slot.terms.values()}:
            d = d * den.exact_div(poly_gcd(d, den))
        return d

    @cached_property
    def cleared(self):
        """The slots D*Lambda_i; every coefficient is a polynomial in u."""
        d = self.common_denominator
        return [MultiVector(self.model.n,
                            {key: Scalar(c.num * d.exact_div(c.den))
                             for key, c in slot.terms.items()})
                for slot in self.model.lam]

    @cached_property
    def _inverse(self):
        """{1: 1/D, 2: 1/D^2}: the factor that reduces an output of degree
        1 or 2 in the cleared slots to the model's."""
        inv = Scalar(ONE_POLY, self.common_denominator)
        return {1: inv, 2: inv * inv}

    # -- S and eta -------------------------------------------------------------

    def extract_S_eta(self):
        return self._s_eta

    @cached_property
    def _s_eta(self):
        s, eta = self._cleared_s_eta
        inv = self._inverse[1]
        return s.scale(inv), vec_scale(inv, eta)

    @cached_property
    def _cleared_s_eta(self):
        return self._extract()

    @cached_property
    def _lifted_phi(self):
        """lift(D Lambda_i).phi0 per slot, for _extract and Delta phi."""
        return [self.rep.lift_act(slot, self.structure.phi)
                for slot in self.cleared]

    def _extract(self):
        """(D S, D eta), read off the cleared slots."""
        cols = []
        eta = []
        for i, lifted in enumerate(self._lifted_phi):
            parts = self.structure.decompose(lifted)
            if not parts.a.is_zero:
                raise InternalInvariantError(
                    f"slot {i + 1}: nabla phi has a phi component")
            cols.append(parts.vector)
            eta.append(parts.b if parts.b is not None else ZERO)
        return Matrix.from_columns(cols), eta

    # -- torsion ----------------------------------------------------------------

    def torsion(self):
        return self._torsion

    @cached_property
    def _torsion(self):
        inv = self._inverse[1]
        return [slot.scale(inv) for slot in self._cleared_torsion]

    @cached_property
    def _cleared_torsion(self):
        """The m-projections of the cleared slots: D times the torsion."""
        m = self.structure.complement_m()
        return [MultiVector.from_pair_coeffs(self.model.n,
                                             m.project(slot.pair_coeffs()))
                for slot in self.cleared]

    def canonical_coordinates(self):
        """The stabilizer components of every Lambda slot, slot after slot
        in pair coordinates, as D Lambda_i - xi_i over D; they vanish
        exactly where Lambda is the canonical connection."""
        coords = []
        for slot, xi in zip(self.cleared, self._cleared_torsion):
            coords.extend(vec_sub(slot.pair_coeffs(), xi.pair_coeffs()))
        return vec_scale(self._inverse[1], coords)

    def canonical_parameters(self, positive_only=True) -> Verdict:
        return self._verdict("canonical parameters",
                             self.canonical_coordinates(), positive_only)

    def _verdict(self, stage, values, positive_only):
        """vanishing_verdict under the model's substitution; a refusal
        names the stage."""
        try:
            return vanishing_verdict(values, self.model.substitution,
                                     positive_only)
        except IrrationalRoots as exc:
            raise IrrationalRoots(f"{stage}: {exc}") from None

    # -- divergences -------------------------------------------------------------

    def divergence_endo(self, s: Matrix, slots=None):
        """div S = sum_i [A_i, S] X_i for invariant S, with A_i the i-th of
        the given slots (Lambda(X_i) by default); column i of [A_i, S] is
        computed as A_i (S X_i) - S (A_i X_i)."""
        if s.rows != self.model.n or s.cols != self.model.n:
            raise ValueError("dimension mismatch")
        n = self.model.n
        out = zero_vec(n)
        for i, slot in enumerate(self.model.lam if slots is None else slots):
            out = vec_add(out, vec_sub(slot.apply(s.column(i)),
                                       s.apply(slot.apply(basis_vec(n, i)))))
        return out

    def divergence_vector(self, v, slots=None):
        """div V = sum_i <A_i V, X_i> for an invariant vector field V, with
        A_i the i-th of the given slots (Lambda(X_i) by default)."""
        if len(v) != self.model.n:
            raise ValueError("dimension mismatch")
        acc = ZERO
        for i, slot in enumerate(self.model.lam if slots is None else slots):
            acc = acc + slot.apply(v)[i]
        return acc

    # -- harmonicity --------------------------------------------------------------

    def harmonicity(self, positive_only=True) -> HarmonicityVerdict:
        if self.model.n == 6:
            return self.harmonicity_su3(positive_only)
        return self.harmonicity_g2(positive_only)

    def harmonicity_su3(self, positive_only=True) -> HarmonicityVerdict:
        """Residual chi^S.phi - 1/2 xi_eta.j.phi + (div S).phi
        + div(eta)j.phi + j.S(eta).phi - |eta|^2 phi, exact in t.

        chi^S enters with the sign that makes the residual the exact
        negative of the Laplacian cross-check residual (a polynomial
        identity, validated on fixtures with nonvanishing chi); under this
        package's contraction convention that is -chi_vector.  Every term
        is quadratic in Lambda: the sum over the cleared slots is D^2 times
        the residual.
        """
        if self.model.n != 6:
            raise ValueError("SU(3) harmonicity needs n = 6")
        s, eta = self._cleared_s_eta
        xi = self._cleared_torsion
        phi = self.structure.phi
        vol = self.rep.volume_element()
        jphi = self.structure.jphi

        chi = self.structure.chi_vector(xi, s)
        residual = [-r for r in self.rep.act_vector(chi, phi)]

        xi_eta = MultiVector.zero(6)
        for i in range(6):
            if not eta[i].is_zero:
                xi_eta = xi_eta + xi[i].scale(eta[i])
        half = Scalar.rational(1, 2)
        term = self.rep.act(xi_eta, jphi)
        residual = [r - half * v for r, v in zip(residual, term)]

        div_s = self.divergence_endo(s, self.cleared)
        residual = vec_add(residual, self.rep.act_vector(div_s, phi))

        div_eta = self.divergence_vector(eta, self.cleared)
        residual = vec_add(residual, vec_scale(div_eta, jphi))

        s_eta = s.apply(eta)
        residual = vec_add(residual,
                           self.rep.act(vol, self.rep.act_vector(s_eta, phi)))

        eta2 = vec_dot(eta, eta)
        residual = vec_add(residual, vec_scale(-eta2, phi))

        residual = vec_scale(self._inverse[2], residual)
        return HarmonicityVerdict(
            residual, self._verdict("harmonicity", residual, positive_only))

    def harmonicity_g2(self, positive_only=True) -> HarmonicityVerdict:
        """Residual div S; the structure is harmonic iff it vanishes."""
        if self.model.n != 7:
            raise ValueError("G2 harmonicity needs n = 7")
        s, _ = self._cleared_s_eta
        residual = vec_scale(self._inverse[2],
                             self.divergence_endo(s, self.cleared))
        return HarmonicityVerdict(
            residual, self._verdict("harmonicity", residual, positive_only))

    # -- spinor Laplacian cross-check ------------------------------------------------

    def laplacian_cross_check(self, positive_only=True) -> CrossCheck:
        """Delta phi = -sum lift(Lambda_i)^2 phi0 against -1/2 c_xi.phi.

        The residual Delta phi + 1/2 c_xi.phi equals -1/2 L.phi, so its
        vanishing set is the harmonic parameter set.  All three are
        quadratic in Lambda, summed over the cleared slots and divided by
        D^2.
        """
        phi = self.structure.phi
        rep = self.rep
        delta = zero_vec(8)
        for slot, lifted in zip(self.cleared, self._lifted_phi):
            delta = vec_sub(delta, rep.lift_act(slot, lifted))
        # c_xi.phi = 1/2 sum_i xi_i.(xi_i.phi), one slot at a time
        half = Scalar.rational(1, 2)
        c_xi_phi = zero_vec(8)
        for slot in self._cleared_torsion:
            c_xi_phi = vec_add(c_xi_phi, rep.act(slot, rep.act(slot, phi)))
        c_xi_phi = vec_scale(half, c_xi_phi)
        residual = [d + half * c for d, c in zip(delta, c_xi_phi)]
        inv2 = self._inverse[2]
        residual = vec_scale(inv2, residual)
        verdict = self._verdict("cross-check", residual, positive_only)
        return CrossCheck(vec_scale(inv2, delta), vec_scale(inv2, c_xi_phi),
                          residual, verdict)

    # -- classification ---------------------------------------------------------------

    def classify(self):
        """The classes of (D S, D eta), each distinct coordinate scaled
        back by 1/D once; the component matrices mirror the results."""
        s, eta = self._cleared_s_eta
        classes = self.structure.classify(
            s, eta if self.model.n == 6 else None)
        return classes.scale(self._inverse[1])
