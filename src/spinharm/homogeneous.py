"""Reductive homogeneous models with parametrized metrics.

A model is a Wang map Lambda (one so(n)-valued 2-form per orthonormal frame
direction, encoding the Levi-Civita connection of an invariant metric), a
defining unit spinor phi0, and a substitution binding the deformation
parameter t to the formal variable u.  Everything downstream is exact,
and runs on the cleared Wang map: each slot times the model's common
denominator D(u), the monic lcm of the denominators of all Lambda
coefficients, multiplied out once per process per (slot as written, D)
by the slot table, so each stage computes with polynomials in u; an
output is D^k times its value, k its degree in Lambda, until it is read:

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
  * harmonicity decides where the residual vanishes: the full six-term
    spinor expression for n = 6 and div S for n = 7;
  * laplacian_cross_check computes Delta phi = -sum lift(L_i)^2 phi0 and
    c_xi.phi from the torsion slots and decides where the residual
    Delta phi + 1/2 c_xi.phi vanishes, which equals -1/2 L.phi and must
    vanish exactly where the structure is harmonic.

Canonical parameters, harmonicity and the cross-check each answer with a
read-only Verdict from one engine, vanishing_verdict, on the gcd of their
cleared values with D^k's factors divided out; a refusal (a real root in
the domain that is not rational) names the stage.  canonical_coordinates,
harmonicity_residual and cross_check_terms reduce those values on read.

Built-in models: cp3 (SO(5)/U(2), t = u^2), spin4 (the Lie group
Spin(4) = S^3 x S^3, t = u^2/2), aw11 (the Aloff-Wallach space
SU(3)/S^1, rational t).  Each carries a Wang map of the deformed metric
B_t; the acceptance checks compare the S and eta extracted from it with the
published values, but no code checks it against the Koszul formula from
the Lie brackets.  Model files are JSON per the documented schema;
built-ins round-trip through dump/load bit-exactly.  A built-in is parsed
once per process and carries one ModelAnalysis (`ModelAnalysis.of`), which
keeps every stage once, the cleared values that both positive_only settings
share, and each verdict per setting, and its record text once dumped; a
model file is read and analysed afresh on every load, but its coefficient
strings may come from the fold table of `coeffexpr`, and the records of
its cleared slots from the slot table (`slot_record`).
"""

from __future__ import annotations

import json
import os
import re
from functools import cache, cached_property
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .scalars import (Scalar, Poly, ZERO, ONE_POLY, ZERO_POLY, Substitution,
                      rational_roots, poly_gcd, IrrationalRoots,
                      format_scalar, clip, quote)
from .linalg import (Matrix, _matrix, basis_vec, vec_add, vec_dot,
                     vec_scale, vec_sub, zero_vec)
from .clifford import MultiVector, SpinRep, _multivector
from .coeffexpr import (MAX_SLOT_TABLE_BYTES, BoundedTable, FoldBudget,
                        ParseError, parse_fraction, scalar_bytes)
from . import jsontext
from .gstruct import (SpinorStructure, InternalInvariantError, kept,
                      unit_spinor)


class ModelError(ValueError):
    """Unloadable model: unknown name, bad file, or invalid field."""


ALL_T = "ALL_T"
ROOT_SET = "ROOT_SET"
NEVER = "NEVER"


class Verdict:
    """Exact t-set where a family of rational functions vanishes jointly,
    read-only since an analysis shares it: any write raises TypeError."""

    __slots__ = ("kind", "roots")

    def __init__(self, kind, roots=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "roots", MappingProxyType(dict(roots or {})))

    def __setattr__(self, name, value=None):
        raise TypeError("a Verdict is read-only")

    __delattr__ = __setattr__

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


def vanishing_verdict(values, sub, positive_only=True,
                      denominator=ONE_POLY) -> Verdict:
    """Joint vanishing t-set of the u-domain Scalars value/denominator,
    under the substitution.

    g is the gcd of the u-numerators, its multiplicities m_i the least over
    them, with its common factors with the denominator divided out once:
    the least of max(0, m_i - c) is max(0, min m_i - c).  An even g is
    E(m t) (g itself when t = u), whose rational roots are the answer on
    t > 0, or on t != 0 and t = 0 when positive_only is off.  A g = E(u^2)
    + u O(u^2) with odd terms vanishes at t0 = r^2/m for each rational root
    r > 0 of g, with g's multiplicity, and at t0 = v0/m for each rational
    root v0 > 0 of gcd(E, O) with an irrational square root, with its
    multiplicity there: (u^2 - v0)^k divides g exactly when (v - v0)^k
    divides E and O; this case decides t > 0 only.  `rational_roots`
    finds the real roots in the domain alone; IrrationalRoots is raised
    when it finds more there than were kept.
    """
    g = ZERO_POLY
    for v in values:
        if not v.is_zero:
            g = poly_gcd(g, v.num) if g else v.num
            if g.degree < 1:
                return Verdict(NEVER)
    if not g:
        return Verdict(ALL_T)
    g = g.exact_div(poly_gcd(g, denominator))
    m = sub.u_squared_per_t
    e, o = g.even_odd_parts()
    if m is None or not o:
        p = g if m is None else e.scale_argument(m)
        roots, others = rational_roots(p, positive_only)
        irrational = bool(others)
        shown, var = p, "t"
    else:
        found, others = rational_roots(g, True)
        roots = {r * r / m: k for r, k in found.items()}
        for v0, k in rational_roots(poly_gcd(e, o), True)[0].items():
            if sub.u_value(v0 / m)[1] is None:
                roots[v0 / m] = k
        irrational = len(found) + len(others) > len(roots)
        shown, var = g, "u"
    if irrational:
        raise IrrationalRoots(
            f"gcd of the numerators "
            f"{clip(format_scalar(Scalar(Poly(shown.int_coeffs())), var))} "
            "has irrational real roots")
    return Verdict(ROOT_SET, roots) if roots else Verdict(NEVER)


def _read_only(n, terms):
    """The 2-forms with the given terms as a tuple, each one's terms behind
    a mapping proxy, so that no holder can write into a kept slot."""
    return tuple(_multivector(n, MappingProxyType(t)) for t in terms)


class HomogeneousModel:
    """Reductive-space description whose Lambda slots are read-only: the
    slots are a tuple and each slot's terms a mapping proxy.  A shared
    built-in carries its one ModelAnalysis in the `_analysis` slot, and its
    canonical record text, once dumped, in `_text`."""

    __slots__ = ("name", "n", "substitution", "lam", "phi0", "notes",
                 "_analysis", "_text")

    def __init__(self, name, n, substitution, lam, phi0, notes=""):
        if n not in (6, 7):
            raise ModelError(f"unsupported dimension {n}")
        if len(lam) != n:
            raise ModelError(f"lambda has {len(lam)} slots; n = {n} needs {n}")
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
        self.lam = _read_only(n, (dict(slot.terms) for slot in lam))
        self.phi0 = phi0
        self.notes = notes
        self._analysis = None
        self._text = None

    # -- serialization ---------------------------------------------------------

    def to_dict(self):
        text = cache(format_scalar)   # each distinct value formatted once
        lam_out = []
        for slot in self.lam:
            entries = [{"i": i, "j": j, "coeff": text(c)}
                       for (i, j), c in sorted(slot.terms.items())]
            lam_out.append(entries)
        return {
            "name": self.name,
            "n": self.n,
            "substitution": self.substitution.label,
            "spinor": [str(c.as_fraction()) for c in self.phi0],
            "lambda": lam_out,
            "notes": self.notes,
        }

    def dumps(self):
        """The canonical record text; a shared built-in keeps it."""
        text = self._text
        if text is None:
            text = jsontext.dumps(self.to_dict()) + "\n"
            if self._analysis is not None:
                self._text = text
        return text

    @classmethod
    def from_dict(cls, data):
        try:
            if type(data) is not dict:
                raise TypeError("expected a JSON object, got "
                                f"{type(data).__name__}")
            name = _json_str(data, "name")
            notes = _json_str(data, "notes") if "notes" in data else ""
            n = _json_int(data, "n")
            sub = Substitution.from_label(_json_str(data, "substitution"))
            spinor = _spinor_entries(_json_spinor(data))
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
                    raise ModelError(
                        f"slot {k + 1}: bad entry {quote(ent)}") from exc
                if (i, j) in coeffs:
                    raise ModelError(f"slot {k + 1}: duplicate entry ({i},{j})")
                coeffs[(i, j)] = c
            try:
                lam.append(MultiVector(n, coeffs))
            except ValueError as exc:
                raise ModelError(f"slot {k + 1}: {exc}") from exc
        return cls(name, n, sub, lam, spinor, notes)

    @classmethod
    def loads(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"bad model file: {exc}") from exc
        except RecursionError:
            where = _deep_bracket(text)
            if where is None:
                raise
            raise ModelError(
                f"bad model file: JSON nested deeper than {MAX_JSON_DEPTH} "
                f"at line {where[0]} column {where[1]}") from None
        return cls.from_dict(data)


# not a depth limit (a model file needs 4): a file too deep for the JSON
# decoder, about 1,000 levels, is refused naming its first bracket past it
MAX_JSON_DEPTH = 32
# the common denominator D of a model's coefficients: the most u-degree and
# integer-coefficient bits that `report` takes (see README, exit codes)
MAX_DENOMINATOR_DEGREE = 80
MAX_DENOMINATOR_BITS = 4096
# the most u-degree of a cleared coefficient D*c: deg num + deg D - deg den
MAX_CLEARED_DEGREE = 80
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


def _deep_bracket(text):
    """(line, column) of the first bracket nested deeper than
    MAX_JSON_DEPTH, skipping strings, or None.  Only a file that the JSON
    decoder refused for its depth is scanned."""
    depth = 0
    for m in _JSON_TOKEN.finditer(text):
        token = m.group()
        if token in "[{":
            depth += 1
            if depth > MAX_JSON_DEPTH:
                pos = m.start()
                return (text.count("\n", 0, pos) + 1,
                        pos - text.rfind("\n", 0, pos))
        elif token in "]}":
            depth -= 1
    return None


def _json_int(record, key):
    """record[key] if it is a JSON integer (true and false are not)."""
    value = record[key]
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {quote(value)}")
    return value


def _json_str(record, key):
    """record[key] if it is a JSON string."""
    value = record[key]
    if type(value) is not str:
        raise ValueError(f"{key} must be a string, got {quote(value)}")
    return value


def _json_spinor(record):
    """record["spinor"] if it is a JSON list of 8 entries, checked before
    any entry is parsed."""
    value = record["spinor"]
    if type(value) is not list:
        raise ValueError(f"spinor must be a list of 8 entries, got "
                         f"{quote(value)}")
    if len(value) != 8:
        raise ValueError(f"spinor must have 8 coordinates, got {len(value)}")
    return value


def _spinor_entries(entries):
    """The spinor entries as rational Scalars, each distinct entry parsed
    once; a bad one is named by its first position (counted from 1)."""
    texts = [str(entry) for entry in entries]
    parsed = {}
    for k, text in enumerate(texts, 1):
        if text not in parsed:
            try:
                parsed[text] = Scalar.rational(parse_fraction(text))
            except ValueError as exc:
                raise ValueError(f"spinor entry {k}: {exc}") from None
    return [parsed[text] for text in texts]


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
    """Load a built-in model by name, the one shared model of that name, or
    a JSON model file by path, read and parsed afresh on every call; a
    coefficient string folded earlier in the process (`FoldBudget.parse`)
    reuses that fold's value."""
    key = str(name_or_path)
    if key in _BUILTIN_DATA:
        return _builtin_model(key)
    if os.path.exists(key):
        try:
            with open(key, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelError(
                f"cannot read model file {key!r}: {exc.strerror}") from None
        return HomogeneousModel.loads(text)
    raise ModelError(f"unknown model {key!r} (no such built-in or file)")


@cache
def _builtin_model(name) -> HomogeneousModel:
    """The built-in model of that name, parsed once per process with its
    one analysis (stages run on first use), as SpinorStructure.shared
    builds each structure once; neither may be mutated."""
    model = HomogeneousModel.from_dict(_BUILTIN_DATA[name])
    model._analysis = ModelAnalysis(model)
    return model


# ---------------------------------------------------------------------------
# the cleared slots, each analysed once per process


class SlotRecord(NamedTuple):
    """The per-slot values of one cleared slot A = D Lambda_i under a
    structure that the stages linear in Lambda read: A itself, lift(A).phi0,
    its phi coefficient (which must vanish), its S column and eta; xi, the
    m-projection of A, and the stabilizer coordinates A - xi.  Read-only,
    since every model with the slot shares it: tuples, and the terms of A
    and xi behind mapping proxies."""

    cleared: MultiVector
    lifted: tuple
    phi_part: Scalar
    column: tuple
    eta: Scalar
    xi: MultiVector
    canonical: tuple


# (structure, D, frozenset of a slot's terms as written) -> (SlotRecord,
# bytes), and the same key with "squares" -> (slot_squares' pair, bytes)
_SLOTS = BoundedTable(MAX_SLOT_TABLE_BYTES)


def slot_record(structure: SpinorStructure, d: Poly,
                slot: MultiVector) -> SlotRecord:
    """The record of the slot, as written, cleared by the common
    denominator d under the structure, kept in the slot table.  Its key
    ignores the order of the slot's terms, so a built-in and a model file
    share records, and names d and the structure, so models that clear the
    slot differently, or with n = 6 and n = 7, never do.  A hit multiplies
    nothing out."""
    return _kept((structure, d, frozenset(slot.terms.items())),
                 _build_record, structure, d, slot)


def slot_squares(structure: SpinorStructure, d: Poly, slot: MultiVector):
    """(lift(A).lift(A).phi0, xi.xi.phi0): the slot's terms of Delta phi
    and c_xi.phi, kept beside its record but built only when the
    cross-check asks, since they are quadratic in the slot."""
    return _kept((structure, d, frozenset(slot.terms.items()), "squares"),
                 _build_squares, structure, d, slot)


def _kept(key, build, structure, d, slot):
    """The slot table's value under key, or build(structure, d, slot)'s,
    kept counting the scalar_bytes of the nonzero Scalars of the slot as
    written (which the key holds) and of the value, the cleared slot of a
    record included (every zero is the one shared ZERO).  The least
    recently used goes first; a value larger than MAX_SLOT_TABLE_BYTES is
    not kept, nor is a build that raises."""
    hit = _SLOTS.get(key)
    if hit is not None:
        _SLOTS.move_to_end(key)
        return hit[0]
    value, scalars = build(structure, d, slot)
    _SLOTS.keep(key, (value,), sum(map(scalar_bytes, filter(None, chain(
        slot.terms.values(), scalars)))))
    return value


def _build_record(structure, d, slot):
    [cleared] = _read_only(slot.n, [{key: Scalar(c.num * d.exact_div(c.den))
                                     for key, c in slot.terms.items()}])
    lifted = tuple(structure.rep.lift_act(cleared, structure.phi))
    parts = structure.decompose(lifted)
    pairs = cleared.pair_coeffs()
    coords = structure.complement_m().project(pairs)
    [xi] = _read_only(slot.n,
                      [MultiVector.from_pair_coeffs(slot.n, coords).terms])
    record = SlotRecord(cleared, lifted, parts.a, tuple(parts.vector),
                        ZERO if parts.b is None else parts.b, xi,
                        tuple(vec_sub(pairs, coords)))
    return record, chain(cleared.terms.values(), lifted,
                         (record.phi_part, record.eta), record.column,
                         xi.terms.values(), record.canonical)


def _build_squares(structure, d, slot):
    record = slot_record(structure, d, slot)
    rep = structure.rep
    squares = (tuple(rep.lift_act(record.cleared, record.lifted)),
               tuple(rep.act(record.xi, rep.act(record.xi, structure.phi))))
    return squares, chain(*squares)


# ---------------------------------------------------------------------------
# the analysis pipeline


class ModelAnalysis:
    """Lazy exact pipeline over one model, run on the cleared Wang map.

    D(u), the monic lcm of the denominators of every Lambda coefficient
    (1 for a polynomial model), is computed once; its zeros are the model's
    poles.  Every stage runs on the cleared slots D*Lambda_i, whose entries
    are polynomials, so no Scalar in its inner loops needs a gcd; a slot
    is multiplied out only when the slot table lacks its record.  An
    output linear in Lambda (S, eta, the torsion, the canonical-parameter
    coordinates, the classes) is D times its value, and a quadratic one
    (the harmonicity residual, Delta phi, c_xi.phi and the cross-check
    residual) D^2 times.  Verdicts are decided on these cleared values, and
    an output is divided by D or D^2 only where it is read.  Every
    per-slot value comes from the slot table, which every model analysed
    in the process with that slot as written, D and structure shares: the
    cleared slot, the S column and eta of lift(D Lambda_i).phi0, the
    torsion xi_i and the stabilizer part D Lambda_i - xi_i (m being its
    orthogonal complement) from the slot's SlotRecord, and its terms of
    Delta phi and c_xi.phi from slot_squares; the stages only gather and
    sum them.  S, eta and the torsion are kept once gathered, and so are
    the classes and the cleared values the verdicts are decided on, which
    no positive_only setting changes; each verdict is kept per setting.
    What a stage hands out is fresh or read-only (tuples, 2-forms with
    proxied terms, Classes, Verdicts).  The stabilizer, m, J and psi come
    from the structure shared by every model with the same n and phi0.
    """

    def __init__(self, model: HomogeneousModel):
        self.model = model
        self.rep = SpinRep.build(model.n)
        self.structure = SpinorStructure.shared(model.n, model.phi0)
        self._verdicts = {}   # (stage, positive_only) -> Verdict

    @classmethod
    def of(cls, model: HomogeneousModel) -> ModelAnalysis:
        """The one analysis a shared built-in model carries, or a fresh one
        for any other model.  A file model keeps none: its analysis is freed
        with the request that holds it, with no model-analysis cycle left
        for the garbage collector."""
        return model._analysis or cls(model)

    # -- the cleared Wang map ----------------------------------------------------

    @cached_property
    def common_denominator(self) -> Poly:
        """D(u): the monic lcm of the Lambda coefficients' denominators,
        taken entry by entry in file order.  ModelError names the entry at
        which its degree or the bits of its integer coefficients pass
        MAX_DENOMINATOR_DEGREE or MAX_DENOMINATOR_BITS: every cleared slot
        has about D's size, and the stages' cost grows steeply with it."""
        d, seen = ONE_POLY, {ONE_POLY}
        for k, slot in enumerate(self.model.lam, 1):
            for (i, j), c in slot.terms.items():
                if c.den in seen:
                    continue
                seen.add(c.den)
                d = d * c.den.exact_div(poly_gcd(d, c.den))
                bits = d.bits()
                if d.degree > MAX_DENOMINATOR_DEGREE:
                    size = f"of degree {d.degree} above " \
                        f"{MAX_DENOMINATOR_DEGREE}"
                elif bits > MAX_DENOMINATOR_BITS:
                    size = f"with {bits}-bit coefficients above " \
                        f"{MAX_DENOMINATOR_BITS} bits"
                else:
                    continue
                raise ModelError(
                    f"slot {k} ({i},{j}): common denominator {size}")
        return d

    @cached_property
    def cleared(self):
        """The slots D*Lambda_i, read-only, from their records; each
        coefficient a polynomial in u."""
        return tuple(record.cleared for record in self._slots)

    @cached_property
    def _inverse(self):
        """{1: 1/D, 2: 1/D^2}: the factor that reduces an output of degree
        1 or 2 in the cleared slots to the model's."""
        inv = Scalar(ONE_POLY, self.common_denominator)
        return {1: inv, 2: inv * inv}

    # -- S and eta -------------------------------------------------------------

    def extract_S_eta(self):
        """(S, eta): the one kept S, whose rows are tuples, and eta as a
        fresh list on each call, so no caller can write into either."""
        s, eta = self._reduced_s_eta
        return s, list(eta)

    @cached_property
    def _reduced_s_eta(self):
        s, eta = self._extract()
        inv = self._inverse[1]
        s = s.scale(inv)
        return (_matrix(tuple(map(tuple, s.data)), s.cols),
                tuple(vec_scale(inv, eta)))

    @cached_property
    def _slots(self):
        """The SlotRecord of each slot, in slot order.  ModelError names the
        first entry, in file order, whose cleared degree deg num + deg D -
        deg den passes MAX_CLEARED_DEGREE, before any record is looked up
        or multiplied out: D alone does not bound it."""
        d = self.common_denominator
        for k, slot in enumerate(self.model.lam, 1):
            for (i, j), c in slot.terms.items():
                degree = c.num.degree + d.degree - c.den.degree
                if degree > MAX_CLEARED_DEGREE:
                    raise ModelError(
                        f"slot {k} ({i},{j}): cleared coefficient of degree "
                        f"{degree} above {MAX_CLEARED_DEGREE}")
        return [slot_record(self.structure, d, slot)
                for slot in self.model.lam]

    @kept
    def _extract(self):
        """(D S, D eta), read off the slot records; a slot whose
        lift(D Lambda_i).phi0 has a phi component is named by its index
        in this model."""
        for i, record in enumerate(self._slots, 1):
            if not record.phi_part.is_zero:
                raise InternalInvariantError(
                    f"slot {i}: nabla phi has a phi component")
        return (Matrix.from_columns([r.column for r in self._slots]),
                [r.eta for r in self._slots])

    # -- torsion ----------------------------------------------------------------

    @kept
    def torsion(self):
        inv = self._inverse[1]
        return _read_only(self.model.n, (slot.scale(inv).terms
                                         for slot in self._cleared_torsion))

    @cached_property
    def _cleared_torsion(self):
        """The m-projections of the cleared slots: D times the torsion."""
        return [record.xi for record in self._slots]

    def canonical_coordinates(self):
        """The stabilizer components of every Lambda slot, slot after slot
        in pair coordinates, as D Lambda_i - xi_i over D; they vanish
        exactly where Lambda is the canonical connection."""
        return vec_scale(self._inverse[1], self._cleared_canonical)

    @cached_property
    def _cleared_canonical(self):
        return [c for record in self._slots for c in record.canonical]

    def canonical_parameters(self, positive_only=True) -> Verdict:
        return self._verdict("canonical parameters", self._cleared_canonical,
                             1, positive_only)

    def _verdict(self, stage, cleared, power, positive_only):
        """vanishing_verdict of cleared values over D^power under the
        model's substitution, kept per (stage, positive_only); a refusal
        names the stage and is not kept."""
        key = (stage, bool(positive_only))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = vanishing_verdict(
                    cleared, self.model.substitution, positive_only,
                    self._inverse[power].den)
            except IrrationalRoots as exc:
                raise IrrationalRoots(f"{stage}: {exc}") from None
        return self._verdicts[key]

    # -- divergences -------------------------------------------------------------

    def divergence_endo(self, s: Matrix, slots):
        """div S = sum_i [A_i, S] X_i for invariant S, with A_i the i-th of
        the given slots (`model.lam`, or `cleared` for D^2 div of D S);
        column i of [A_i, S] is computed as A_i (S X_i) - S (A_i X_i)."""
        if s.rows != self.model.n or s.cols != self.model.n:
            raise ValueError("dimension mismatch")
        n = self.model.n
        out = zero_vec(n)
        for i, slot in enumerate(slots):
            out = vec_add(out, vec_sub(slot.apply(s.column(i)),
                                       s.apply(slot.apply(basis_vec(n, i)))))
        return out

    def divergence_vector(self, v, slots):
        """div V = sum_i <A_i V, X_i> for an invariant vector field V, with
        A_i the i-th of the given slots, as for divergence_endo."""
        if len(v) != self.model.n:
            raise ValueError("dimension mismatch")
        acc = ZERO
        for i, slot in enumerate(slots):
            acc = acc + slot.apply(v)[i]
        return acc

    # -- harmonicity --------------------------------------------------------------

    def harmonicity(self, positive_only=True) -> Verdict:
        """The t-set where the harmonicity residual vanishes."""
        return self._verdict("harmonicity", self._cleared_residual, 2,
                             positive_only)

    def harmonicity_residual(self):
        """The harmonicity residual (a spinor for n = 6, a frame vector for
        n = 7), reduced by 1/D^2 from the kept cleared one."""
        return vec_scale(self._inverse[2], self._cleared_residual)

    @cached_property
    def _cleared_residual(self):
        """D^2 times the harmonicity residual: div S for n = 7, and for
        n = 6 chi^S.phi - 1/2 xi_eta.j.phi + (div S).phi + div(eta)j.phi
        + j.S(eta).phi - |eta|^2 phi, exact in t.

        chi^S enters with the sign that makes the residual the exact
        negative of the Laplacian cross-check residual (a polynomial
        identity, validated on fixtures with nonvanishing chi); under this
        package's contraction convention that is -chi_vector.  Every term
        is quadratic in Lambda: the sum over the cleared slots is D^2 times
        the residual.
        """
        s, eta = self._extract()
        if self.model.n == 7:
            return tuple(self.divergence_endo(s, self.cleared))
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
        return tuple(vec_add(residual, vec_scale(-eta2, phi)))

    # -- spinor Laplacian cross-check ------------------------------------------------

    def laplacian_cross_check(self, positive_only=True) -> Verdict:
        """The t-set where Delta phi + 1/2 c_xi.phi vanishes, for Delta phi
        = -sum lift(Lambda_i)^2 phi0.  That residual equals -1/2 L.phi, so
        its vanishing set is the harmonic parameter set.
        """
        return self._verdict("cross-check", self._cleared_cross[2], 2,
                             positive_only)

    def cross_check_terms(self):
        """(Delta phi, c_xi.phi, the residual), each reduced by 1/D^2 from
        the kept cleared triple."""
        return tuple(vec_scale(self._inverse[2], part)
                     for part in self._cleared_cross)

    @cached_property
    def _cleared_cross(self):
        """(Delta phi, c_xi.phi, residual), each quadratic in Lambda,
        summed over the cleared slots' squares: D^2 times their values."""
        # Delta phi = -sum_i lift(L_i).lift(L_i).phi and
        # c_xi.phi = 1/2 sum_i xi_i.(xi_i.phi)
        delta = zero_vec(8)
        c_xi_phi = zero_vec(8)
        d = self.common_denominator
        # the records first, so the size scan of _slots runs before any
        # slot is squared
        for slot, _ in zip(self.model.lam, self._slots):
            lift2, xi2 = slot_squares(self.structure, d, slot)
            delta = vec_sub(delta, lift2)
            c_xi_phi = vec_add(c_xi_phi, xi2)
        half = Scalar.rational(1, 2)
        c_xi_phi = vec_scale(half, c_xi_phi)
        residual = tuple(d + half * c for d, c in zip(delta, c_xi_phi))
        return tuple(delta), tuple(c_xi_phi), residual

    # -- classification ---------------------------------------------------------------

    @kept
    def classify(self):
        """The classes of (D S, D eta), each distinct coordinate scaled
        back by 1/D once; the component matrices mirror the results."""
        s, eta = self._extract()
        classes = self.structure.classify(
            s, eta if self.model.n == 6 else None)
        return classes.scale(self._inverse[1])
