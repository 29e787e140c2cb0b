"""Real spin representations of Spin(6) and Spin(7) on Delta = R^8.

The generators are the fixed integer 8x8 matrices

    e1 = +E18+E27-E36-E45    e2 = -E17+E28+E35-E46
    e3 = -E16+E25-E38+E47    e4 = -E15-E26-E37-E48
    e5 = -E13-E24+E57+E68    e6 = +E14-E23-E58+E67
    e7 = +E12-E34-E56+E78                       (n = 7 only)

with E_ij the skew matrix sending the j-th basis spinor to minus the i-th.
They satisfy e_i e_j + e_j e_i = -2 delta_ij exactly, and for n = 6 the
volume element j = e1...e6 is an almost complex structure on Delta that
anticommutes with every e_i.

Multivectors are graded coefficient maps over strictly increasing index
tuples.  A term e_{i1...ik} acts on spinors as the ordered matrix product
e_{i1}...e_{ik}; in particular 2-forms act with no extra factor, while the
lift of a skew matrix A = sum_{i<j} A_ji E_ij into the spin representation
carries the factor 1/2 (the unique factor making [lift(A), X.] = (AX). hold,
so the lift is a Lie algebra homomorphism so(n) -> spin(n)).

Each e_I is a signed permutation of the basis spinors, so the action on one
spinor (`act`, `act_vector`, and `lift_act` for the lift) moves the
spinor's nonzero entries into place with their signs and builds no matrix;
it is the one way the package acts on a spinor.  A 2-form acts on frame
vectors the same way, term by term (`MultiVector.apply`).  The checks that
compare operators (the Clifford relations, the volume element, the
commutator identities, c_T) keep them as SpinOps, sums c_W e_W over words
W: a product concatenates words, and equality collects the terms by their
signed permutation, so an identity's words cancel with no matrix built.
A dense spinor matrix (`gens`, `endo`, `spin_lift`, `j_matrix`) is a
SpinOp's `dense()`, built only where a matrix is returned: the pinned
generator entries, c_T itself, and the W3-energy check, which applies
each torsion slot twice.  `to_skew_matrix` builds the printed class
component matrices.

For a frame tensor T (one 2-form per frame direction) the module builds
c_T = 1/2 sum_i T_i . T_i and sigma_T = 1/2 sum_i T_i ^ T_i together with
|T|^2 = sum_i sum_{j<k} (T_i)_jk^2.  Under these conventions the difference
c_T - sigma_T is the scalar -(1/2)|T|^2 (kappa = 1/2; a 2-form omega obeys
omega.omega = omega^omega - |omega|^2 because the mixed grade-2 products
cancel in pairs).  Literature statements with the constant 3/2 use a |T|^2
normalization three times ours.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from .scalars import Scalar, ZERO, ONE, _coerce
from .linalg import Matrix, _matrix

# the unique factor making the so(n) -> spin(n) transport a Lie algebra
# homomorphism; tests mutate it to demonstrate the verification suite trips
LIFT_FACTOR = Fraction(1, 2)

_GEN_TABLE = {
    1: ((1, 8, +1), (2, 7, +1), (3, 6, -1), (4, 5, -1)),
    2: ((1, 7, -1), (2, 8, +1), (3, 5, +1), (4, 6, -1)),
    3: ((1, 6, -1), (2, 5, +1), (3, 8, -1), (4, 7, +1)),
    4: ((1, 5, -1), (2, 6, -1), (3, 7, -1), (4, 8, -1)),
    5: ((1, 3, -1), (2, 4, -1), (5, 7, +1), (6, 8, +1)),
    6: ((1, 4, +1), (2, 3, -1), (5, 8, -1), (6, 7, +1)),
    7: ((1, 2, +1), (3, 4, -1), (5, 6, -1), (7, 8, +1)),
}


def index_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _perm_sign(seq):
    """Sign of the permutation sorting seq (distinct entries)."""
    sign = 1
    items = list(seq)
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            if items[a] > items[b]:
                sign = -sign
    return sign


class MultiVector:
    """Element of the exterior algebra on R^n with Scalar coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        for key, c in (terms or {}).items():
            key = tuple(key)
            if any(not (1 <= i <= n) for i in key):
                raise ValueError(f"index out of range in {key}")
            if len(set(key)) != len(key) or list(key) != sorted(key):
                raise ValueError(f"indices must be strictly increasing: {key}")
            c = c if isinstance(c, Scalar) else _coerce(c)
            if not c.is_zero:
                clean[key] = c
        self.terms = clean

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def vector(cls, n, coords):
        return cls(n, {(i + 1,): c for i, c in enumerate(coords)})

    @classmethod
    def two_form(cls, n, coeffs):
        return cls(n, {key: c for key, c in coeffs.items()})

    def coeff(self, key):
        return self.terms.get(tuple(key), ZERO)

    @property
    def is_zero(self):
        return not self.terms

    def grade(self, k):
        return MultiVector(self.n,
                           {key: c for key, c in self.terms.items()
                            if len(key) == k})

    def is_pure_grade(self, k):
        return all(len(key) == k for key in self.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, ZERO) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return _multivector(self.n, out)

    def __neg__(self):
        return _multivector(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = c if isinstance(c, Scalar) else _coerce(c)
        if c.is_zero:
            return MultiVector.zero(self.n)
        return _multivector(self.n,
                            {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, MultiVector) and self.n == other.n
                and self.terms == other.terms)

    def _check(self, other):
        if not isinstance(other, MultiVector) or other.n != self.n:
            raise ValueError("mismatched exterior algebras")

    def wedge(self, other):
        self._check(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if set(k1) & set(k2):
                    continue
                merged = tuple(sorted(k1 + k2))
                sign = _perm_sign(k1 + k2)
                prev = out.get(merged, ZERO)
                val = prev + c1 * c2 if sign > 0 else prev - c1 * c2
                out[merged] = val
        return _multivector(self.n, {k: v for k, v in out.items() if v})

    def interior(self, other):
        """Left contraction X -| m for a grade-1 self."""
        if not self.is_pure_grade(1):
            raise ValueError("interior product needs a grade-1 left factor")
        self._check(other)
        out = {}
        for (l,), cx in self.terms.items():
            for key, c in other.terms.items():
                if l not in key:
                    continue
                pos = key.index(l)
                rest = key[:pos] + key[pos + 1:]
                val = cx * c
                if pos % 2:
                    val = -val
                s = out.get(rest, ZERO) + val
                out[rest] = s
        return _multivector(other.n, {k: v for k, v in out.items() if v})

    def vector_coords(self):
        if not self.is_pure_grade(1):
            raise ValueError("not a grade-1 element")
        return [self.terms.get((i,), ZERO) for i in range(1, self.n + 1)]

    def pair_coeffs(self):
        """Grade-2 coefficients flattened in index_pairs order."""
        if not self.is_pure_grade(2):
            raise ValueError("not a grade-2 element")
        return [self.terms.get(p, ZERO) for p in index_pairs(self.n)]

    @classmethod
    def from_pair_coeffs(cls, n, coords):
        """The 2-form with the given Scalar coordinates in index_pairs
        order."""
        return _multivector(n, {p: c for p, c in zip(index_pairs(n), coords)
                                if c})

    def apply(self, v):
        """A v for the skew matrix A of this 2-form, at most two
        multiply-adds per term (none for a zero entry of v):
        to_skew_matrix().apply(v) with no matrix built."""
        out = [ZERO] * self.n
        for (i, j), c in self.terms.items():
            x, y = v[j - 1], v[i - 1]
            if x:
                out[i - 1] = out[i - 1] - c * x
            if y:
                out[j - 1] = out[j - 1] + c * y
        return out

    def to_skew_matrix(self):
        """Grade-2 element as the skew matrix A with A_ji = omega_ij."""
        if not self.is_pure_grade(2):
            raise ValueError("not a grade-2 element")
        m = Matrix.zeros(self.n, self.n)
        for (i, j), c in self.terms.items():
            m.data[i - 1][j - 1] = m.data[i - 1][j - 1] - c
            m.data[j - 1][i - 1] = m.data[j - 1][i - 1] + c
        return m

    @classmethod
    def from_skew_matrix(cls, a: Matrix):
        if not a.is_skew():
            raise ValueError("skew-symmetric matrix required")
        return cls.from_pair_coeffs(a.rows, [a.data[j - 1][i - 1] for (i, j)
                                             in index_pairs(a.rows)])

    def norm2(self):
        acc = ZERO
        for c in self.terms.values():
            acc = acc + c * c
        return acc

    def __repr__(self):
        if self.is_zero:
            return "MultiVector(0)"
        body = " + ".join(f"({c})*e{''.join(map(str, k))}" if k else f"({c})"
                          for k, c in sorted(self.terms.items()))
        return f"MultiVector({body})"


def _multivector(n, terms):
    """MultiVector from terms already valid: increasing in-range keys and
    nonzero Scalar coefficients."""
    m = object.__new__(MultiVector)
    m.n = n
    m.terms = terms
    return m


# words up to this length keep their signed permutation (and its normalized
# form) once composed; longer ones are composed on each use.  The operator
# products of the checks reach length 4, so the caches stay bounded per n,
# and equal values are stored once (a valid table gives 2^(n+1) of them).
_CACHED_WORD = 4


class SpinRep:
    """The real spin representation for n = 6 or 7.

    Every product e_W of generators over a word W (an ordered index tuple)
    is a signed permutation of the basis spinors: column j of e_W has its
    one nonzero entry, signs[j] = +-1, in row rows[j].  The generators'
    permutations are read off _GEN_TABLE and composed letter by letter in
    `_signed_perm`.  `act` applies them to a spinor directly; `op` turns a
    multivector into a SpinOp, and every dense matrix (`gens`, `endo`,
    `spin_lift`, `j_matrix`) is a SpinOp's `dense()`.  `build` returns one
    representation per n for the process.
    """

    def __init__(self, n):
        if n not in (6, 7):
            raise ValueError("unsupported dimension (need 6 or 7)")
        self.n = n
        self._perms = {(): (tuple(range(8)), (1,) * 8)}
        self._normals = {}
        self._shared = {}
        for i in range(1, n + 1):
            rows, signs = [0] * 8, [0] * 8
            for (a, b, s) in _GEN_TABLE[i]:
                # s E_ab sends the a-th basis spinor to s times the b-th
                # and the b-th to -s times the a-th
                rows[a - 1], signs[a - 1] = b - 1, s
                rows[b - 1], signs[b - 1] = a - 1, -s
            self._perms[(i,)] = (tuple(rows), tuple(signs))

    @cached_property
    def gens(self):
        """The dense generator matrices e_1, ..., e_n."""
        return [self._tuple_endo((i,)) for i in range(1, self.n + 1)]

    @classmethod
    @cache
    def build(cls, n):
        return cls(n)

    def _signed_perm(self, key):
        """(rows, signs) of the ordered product e_{key[0]}...e_{key[-1]}."""
        perm = self._perms.get(key)
        if perm is None:
            rows_a, signs_a = self._signed_perm(key[:-1])
            rows_b, signs_b = self._perms[key[-1:]]
            # (A B) e_j = signs_b[j] A e_{rows_b[j]}
            perm = (tuple(rows_a[r] for r in rows_b),
                    tuple(s * signs_a[r] for r, s in zip(rows_b, signs_b)))
            perm = self._keep(self._perms, key, perm)
        return perm

    def _normal(self, word):
        """(perm, sign) with e_word = sign * perm, where the signed
        permutation perm = (rows, signs) has signs[0] = +1."""
        got = self._normals.get(word)
        if got is None:
            perm = self._signed_perm(word)
            rows, signs = perm
            sign = signs[0]
            if sign < 0:
                perm = (rows, tuple(-s for s in signs))
            got = self._keep(self._normals, word, (perm, sign))
        return got

    def _keep(self, cache, word, value):
        """value, cached for a short word as the one shared copy."""
        if len(word) > _CACHED_WORD:
            return value
        value = cache[word] = self._shared.setdefault(value, value)
        return value

    def op(self, m: MultiVector) -> SpinOp:
        """The spinor operator of a multivector (ordered products), unbuilt."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        return SpinOp(self, tuple(m.terms.items()))

    def _tuple_endo(self, key):
        """Dense matrix of the ordered product e_{key[0]}...e_{key[-1]}."""
        return SpinOp(self, ((key, ONE),)).dense()

    def endo(self, m: MultiVector) -> Matrix:
        """Spinor endomorphism of a multivector (ordered products)."""
        return self.op(m).dense()

    def act(self, m: MultiVector, spinor):
        """The spinor m.spinor, with no matrix built."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        return self._act(m.terms.items(), spinor)

    def act_vector(self, coords, spinor):
        """Clifford action of the vector with the given frame coordinates."""
        if len(coords) != self.n:
            raise ValueError("dimension mismatch")
        return self._act((((i + 1,), c) for i, c in enumerate(coords) if c),
                         spinor)

    def lift_act(self, omega: MultiVector, spinor):
        """spin_lift(omega).spinor: the 2-form's action times LIFT_FACTOR,
        which is read on every call, as in spin_lift."""
        f = Scalar.rational(LIFT_FACTOR)
        return [f * x if x else x for x in self.act(omega, spinor)]

    def _act(self, terms, spinor):
        """Sum of c e_I.spinor over (I, c) in terms: each e_I moves entry j
        of the spinor to row rows[j] with sign signs[j]."""
        if len(spinor) != 8:
            raise ValueError("dimension mismatch")
        entries = [(j, x) for j, x in enumerate(spinor) if x]
        out = [ZERO] * 8
        for key, c in terms:
            rows, signs = self._signed_perm(key)
            for j, x in entries:
                r = rows[j]
                if signs[j] > 0:
                    out[r] = out[r] + c * x
                else:
                    out[r] = out[r] - c * x
        return out

    def volume_element(self) -> MultiVector:
        if self.n != 6:
            raise ValueError("unsupported dimension (volume element needs n=6)")
        return MultiVector(6, {(1, 2, 3, 4, 5, 6): ONE})

    def j_matrix(self) -> Matrix:
        return self._tuple_endo((1, 2, 3, 4, 5, 6)) if self.n == 6 else None

    def spin_lift(self, a) -> Matrix:
        """Lift of a skew matrix (or 2-form) into the spin representation."""
        if isinstance(a, MultiVector):
            omega = a
            if not omega.is_pure_grade(2):
                raise ValueError("grade-2 element required")
        else:
            omega = MultiVector.from_skew_matrix(a)
        return self.op(omega).scale(Scalar.rational(LIFT_FACTOR)).dense()


class SpinOp:
    """The spinor operator sum_W c_W e_W over words W of one SpinRep.

    Terms are (word, Scalar) pairs, kept as they come: a sum joins the two
    term lists, and a product concatenates words, one Scalar product per
    pair of terms.  Terms are collected only by `dense()` and `==`, by the
    normalized signed permutation of their word, so the words of a
    commutator cancel before any matrix cell is touched.
    """

    __slots__ = ("rep", "terms")

    def __init__(self, rep, terms):
        self.rep = rep
        self.terms = terms

    def _check(self, other):
        if not isinstance(other, SpinOp) or other.rep is not self.rep:
            raise ValueError("mismatched spin representations")

    def __add__(self, other):
        self._check(other)
        return SpinOp(self.rep, self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = c if isinstance(c, Scalar) else _coerce(c)
        return SpinOp(self.rep, tuple((w, c * v) for w, v in self.terms))

    def __mul__(self, other):
        self._check(other)
        return SpinOp(self.rep, tuple((w1 + w2, c1 * c2)
                                      for w1, c1 in self.terms
                                      for w2, c2 in other.terms))

    def _collected(self):
        """{normalized signed permutation: coefficient}, zeros dropped."""
        out = {}
        normal = self.rep._normal
        for word, c in self.terms:
            perm, sign = normal(word)
            prev = out.get(perm, ZERO)
            out[perm] = prev + c if sign > 0 else prev - c
        return {perm: c for perm, c in out.items() if c}

    def dense(self) -> Matrix:
        return _dense(self._collected())

    def __eq__(self, other):
        if not isinstance(other, SpinOp):
            return NotImplemented
        rest = (self - other)._collected()
        # distinct signed permutations can still be linearly dependent (as
        # under a broken generator table), so what survives is expanded
        return not rest or _dense(rest).is_zero


def _dense(collected):
    """The 8x8 matrix of sum c perm over a {signed permutation: c} map."""
    data = [[ZERO] * 8 for _ in range(8)]
    for (rows, signs), c in collected.items():
        neg = -c
        for j, (r, s) in enumerate(zip(rows, signs)):
            data[r][j] = data[r][j] + (c if s > 0 else neg)
    return _matrix(data, 8)


def bracket(a: MultiVector, b: MultiVector) -> MultiVector:
    """2-form commutator: sum_i (e_i -| a) ^ (e_i -| b).

    Acts on spinors through a.b - b.a = 2*[a, b].
    """
    if not (a.is_pure_grade(2) and b.is_pure_grade(2)):
        raise ValueError("grade-2 elements required")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    out = MultiVector.zero(a.n)
    for i in range(1, a.n + 1):
        ei = _multivector(a.n, {(i,): ONE})
        out = out + ei.interior(a).wedge(ei.interior(b))
    return out


class FrameTensor:
    """A 2-form for every frame direction (values T_{e_i})."""

    __slots__ = ("n", "slots")

    def __init__(self, n, slots):
        if len(slots) != n:
            raise ValueError("one slot per frame direction required")
        for s in slots:
            if s.n != n or not s.is_pure_grade(2):
                raise ValueError("slots must be grade-2 elements")
        self.n = n
        self.slots = list(slots)


class CSigma:
    __slots__ = ("c", "sigma", "norm2", "kappa")

    def __init__(self, c, sigma, norm2, kappa):
        self.c = c
        self.sigma = sigma
        self.norm2 = norm2
        self.kappa = kappa


def c_sigma(rep: SpinRep, t: FrameTensor) -> CSigma:
    """c_T = 1/2 sum T_i.T_i, sigma_T = 1/2 sum T_i^T_i, |T|^2, fitted kappa.

    kappa is the unique constant with c_T = act(sigma_T) - kappa |T|^2 Id
    when the difference is scalar (it always is; kappa = 1/2 under this
    module's norm conventions).
    """
    if t.n != rep.n:
        raise ValueError("dimension mismatch")
    half = Scalar.rational(1, 2)
    squares = SpinOp(rep, ())
    sigma = MultiVector.zero(t.n)
    norm2 = ZERO
    for slot in t.slots:
        e = rep.op(slot)
        squares = squares + e * e
        sigma = sigma + slot.wedge(slot).scale(half)
        norm2 = norm2 + slot.norm2()
    c = squares.dense().scale(half)
    diff = c - rep.endo(sigma)
    kappa = None
    diag = diff.data[0][0]
    scalar_matrix = diff == Matrix.identity(8).scale(diag)
    if scalar_matrix and not norm2.is_zero:
        kappa = -diag / norm2
    elif scalar_matrix and norm2.is_zero:
        kappa = None if not diag.is_zero else Scalar.rational(1, 2)
    return CSigma(c, sigma, norm2, kappa)
