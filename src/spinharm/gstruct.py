"""Spinor-defined G-structure algebra at a point.

A unit spinor phi in Delta = R^8 determines SU(3) (n = 6) or G2 (n = 7) as
the stabilizer inside SO(n).  This module computes, exactly over Q(u):

  * the spinor-space decomposition  psi = a phi + b (j phi) + X.phi
    (the j-term only for n = 6): phi, j phi and the e_i.phi are an
    orthonormal basis of Delta for any unit phi, so the coefficients are
    inner products, read off by the transposed frame;
  * the stabilizer algebra = kernel of the 2-form action omega -> omega.phi
    (dimension 8 resp. 14) and its orthogonal complement m (dimension 7);
  * the almost complex structure J with J(X).phi = j.X.phi (n = 6);
  * the cubic form psi(X,Y,Z) = -<X.Y.Z.phi, phi> for n = 6 and
    +<X.Y.Z.phi, phi> for n = 7 (the sign each dimension's theory uses);
  * intrinsic torsion slots from an endomorphism S as the contractions
    xi_X = S(X) -| psi, i.e. g(xi_X Y, Z) = psi(S(X), Y, Z), with the extra
    factor 2/3 for n = 7;
  * chi^S = sum_i xi_{e_i} S(e_i) and the pointwise Dirac contraction;
  * the Gray-Hervella splitting of (S, eta) into classes, W1+- ... W5 for
    SU(3) and W1 ... W4 for G2, held as one read-only `Classes` type.

All splits are orthogonal projections in exact arithmetic, so components
recombine to the input on the nose and each component re-classifies pure.
Each of them is read off the spinors e_I.phi, and every e_I reaches phi (or
another single spinor) through `SpinRep.act`: a signed permutation of its
entries, with no 8x8 matrix built.

These depend on (n, phi) alone, not on a model's Wang map or on t:
`SpinorStructure.shared` keeps one structure per (n, phi) for the process,
and computes each piece once, on first use.  The fixed linear maps among
them are kept by their nonzero entries and applied by those alone: the
transposed frame; one projector, onto m, whose remainder is the stabilizer
part; one table of the contractions e_l -| psi, which gives the torsion
slots and, with its left inverse, the W4 vector; and J (n = 6), whose
conjugation J S J splits a symmetric S into W2- and W3, formed on the
upper triangle alone.  The decomposition frame is checked once per
structure to be orthonormal, and each W4 solve multiplies back through
the contraction table.
"""

from __future__ import annotations

from functools import cache, cached_property, wraps
from itertools import combinations
from types import MappingProxyType

from .scalars import Scalar, ZERO, ONE, zero_at
from .linalg import (Matrix, Subspace, _matrix, apply_columns,
                     sparse_columns, vec_add, vec_dot, vec_is_zero, vec_scale,
                     vec_sub, zero_vec)
from .clifford import MultiVector, SpinRep, _multivector, index_pairs


class InternalInvariantError(AssertionError):
    """A structural identity the representation guarantees failed to hold."""


def kept(stage):
    """The stage with its first result stored on the instance; a stage
    that raises stores nothing.  It stays a plain function, so a caller can
    wrap it by name."""
    key = stage.__qualname__   # dotted: no attribute lookup reaches it

    @wraps(stage)
    def wrapper(self):
        if key not in self.__dict__:
            self.__dict__[key] = stage(self)
        return self.__dict__[key]
    return wrapper


class SpinorParts:
    """Result of the spinor decomposition; b is None when n = 7."""

    __slots__ = ("a", "b", "vector")

    def __init__(self, a, b, vector):
        self.a = a
        self.b = b
        self.vector = vector


def unit_spinor(coords):
    """The coordinates as Scalars, checked to be a unit spinor; a ValueError
    names the fault."""
    coords = [c if isinstance(c, Scalar) else Scalar.rational(c)
              for c in coords]
    if len(coords) != 8:
        raise ValueError("spinor must have 8 coordinates")
    if vec_dot(coords, coords) != ONE:
        raise ValueError("spinor must be a unit spinor")
    return coords


class SpinorStructure:
    """All pointwise data attached to a defining unit spinor."""

    def __init__(self, rep: SpinRep, phi):
        self.rep = rep
        self.n = rep.n
        self.phi = unit_spinor(phi)

    @staticmethod
    def shared(n, phi0) -> SpinorStructure:
        """The structure of the unit spinor phi0 in dimension n, built once
        per (n, phi0) in a process; the result must not be mutated."""
        return _shared_structure(n, tuple(phi0))

    def _basis_act(self, key, spinor):
        """e_key.spinor for one strictly increasing index tuple."""
        return self.rep._act(((key, ONE),), spinor)

    @cached_property
    def jphi(self):
        """j.phi for n = 6 (None for n = 7)."""
        return (self.rep.act(self.rep.volume_element(), self.phi)
                if self.n == 6 else None)

    # -- spinor decomposition ------------------------------------------------

    @cached_property
    def _decomp_matrix(self):
        cols = [self.phi] + ([self.jphi] if self.n == 6 else [])
        cols += [self._basis_act((i,), self.phi) for i in range(1, self.n + 1)]
        return Matrix.from_columns(cols)

    @cached_property
    def _decomp_columns(self):
        """Q^T for the decomposition matrix Q, checked to be its inverse,
        by its nonzero columns.

        Every e_I with one, two or five generators is skew and e_i e_i = -1,
        so phi, j phi and the e_i.phi are orthonormal for any unit phi;
        Q^T Q != Id signals a broken representation or spinor.
        """
        q = self._decomp_matrix
        qt = q.transpose()
        if qt * q != Matrix.identity(8):
            raise InternalInvariantError(
                "spinor decomposition frame is not orthonormal")
        return sparse_columns(qt)

    def decompose(self, psi) -> SpinorParts:
        """Split psi = a phi (+ b j phi) + X.phi exactly: the coefficients
        are the inner products of psi with the orthonormal columns."""
        sol = apply_columns(self._decomp_columns, psi, 8)
        if self.n == 6:
            return SpinorParts(sol[0], sol[1], sol[2:])
        return SpinorParts(sol[0], None, sol[1:])

    # -- stabilizer algebra and complement -----------------------------------

    def action_matrix(self) -> Matrix:
        """Matrix of omega -> omega.phi from 2-form coefficients to Delta."""
        return Matrix.from_columns([self._basis_act(p, self.phi)
                                    for p in index_pairs(self.n)])

    @kept
    def annihilator(self) -> Subspace:
        """2-forms annihilating phi: su(3) for n = 6, g2 for n = 7."""
        return self.action_matrix().kernel()

    @kept
    def complement_m(self) -> Subspace:
        """Orthogonal complement of the stabilizer inside the 2-forms."""
        return self.annihilator().orthogonal_complement()

    # -- derived structures ---------------------------------------------------

    @kept
    def almost_complex(self) -> Matrix:
        """J with J(X).phi = j.X.phi; J^2 = -Id, orthogonal, skew (n = 6)."""
        if self.n != 6:
            raise ValueError("almost complex structure needs n = 6")
        vol = self.rep.volume_element()
        cols = []
        for i in range(1, 7):
            x_phi = self._basis_act((i,), self.phi)
            parts = self.decompose(self.rep.act(vol, x_phi))
            if not (parts.a.is_zero and parts.b.is_zero):
                raise InternalInvariantError(
                    "j.X.phi has a phi or j.phi component")
            cols.append(parts.vector)
        return Matrix.from_columns(cols)

    def kahler_form(self) -> MultiVector:
        return MultiVector.from_skew_matrix(self.almost_complex())

    @cached_property
    def _kahler_coords(self):
        """(x_J, <x_J, x_J>): the Kahler form in pair coordinates and its
        squared norm, for the W1+ component."""
        xj = self.kahler_form().pair_coeffs()
        return xj, vec_dot(xj, xj)

    @kept
    def psi_form(self) -> MultiVector:
        """The cubic form psi(X,Y,Z) = -<X.Y.Z.phi, phi> for n = 6 and
        +<X.Y.Z.phi, phi> for n = 7, as a 3-form."""
        psi = MultiVector(self.n, {
            key: vec_dot(self._basis_act(key, self.phi), self.phi)
            for key in combinations(range(1, self.n + 1), 3)})
        return -psi if self.n == 6 else psi

    # -- torsion machinery ----------------------------------------------------

    def torsion_from_S(self, s: Matrix, eta=None):
        """Torsion slots xi_i = S(e_i) -| psi, i.e. g(xi_X Y, Z) =
        psi(S(X), Y, Z).

        n = 7 carries the extra factor 2/3.  For n = 6 this description is
        only valid when eta vanishes.
        """
        if self.n == 6 and eta is not None and not vec_is_zero(eta):
            raise ValueError("use homogeneous model torsion")
        m, columns = self._contractions
        c = _TWO_THIRDS if self.n == 7 else ONE
        return [MultiVector.from_pair_coeffs(self.n, apply_columns(
                    columns, vec_scale(c, s.column(i)), m.rows))
                for i in range(self.n)]

    @cached_property
    def _contractions(self):
        """M, whose column l is e_l -| psi in pair coordinates, so that
        M V = V -| psi: as a Matrix and by its nonzero columns."""
        psi = self.psi_form()
        m = Matrix.from_columns(
            [_multivector(self.n, {(l,): ONE}).interior(psi).pair_coeffs()
             for l in range(1, self.n + 1)])
        return m, sparse_columns(m)

    def chi_vector(self, xi_slots, s: Matrix):
        """chi^S = sum_i xi_{e_i} S(e_i) as frame coordinates."""
        out = zero_vec(self.n)
        for i, slot in enumerate(xi_slots):
            out = vec_add(out, slot.apply(s.column(i)))
        return out

    def dirac(self, s: Matrix, eta=None):
        """sum_i e_i.(S(e_i).phi + eta(e_i) j.phi), the pointwise Dirac term."""
        out = zero_vec(8)
        jphi = self.jphi
        for i in range(self.n):
            term = self.rep.act_vector(s.column(i), self.phi)
            if eta is not None and jphi is not None and not eta[i].is_zero:
                term = vec_add(term, vec_scale(eta[i], jphi))
            out = vec_add(out, self._basis_act((i + 1,), term))
        return out

    # -- Gray-Hervella classification ------------------------------------------

    def classify(self, s: Matrix, eta=None) -> Classes:
        """The classes of (S, eta) for n = 6 (eta = 0 by default), of S
        for n = 7, computed as coordinates."""
        n = self.n
        trace = s.trace() / Scalar.rational(n)
        sym0, x = _split(s, trace)
        m_part = self.complement_m().project(x)
        w2 = vec_sub(x, m_part)
        if n == 7:
            return Classes(self, {"W1": (trace,), "W2": w2, "W3": sym0,
                                  "W4": m_part}, self._solve_w4_vector(m_part))
        jsj = self._jsj_upper(sym0)
        w2m = [(c - d) * _HALF for c, d in zip(sym0, jsj)]
        w3 = [(c + d) * _HALF for c, d in zip(sym0, jsj)]
        xj, xj_norm2 = self._kahler_coords
        lam = vec_dot(x, xj) / xj_norm2
        return Classes(self, {"W1+": (lam,), "W1-": (trace,),
                              "W2+": w2, "W2-": w2m, "W3": w3,
                              "W4": vec_sub(m_part, vec_scale(lam, xj)),
                              "W5": zero_vec(6) if eta is None else eta})

    @cached_property
    def _j_columns(self):
        """J by its nonzero columns (n = 6)."""
        return sparse_columns(self.almost_complex())

    def _jsj_upper(self, upper):
        """The upper triangle of J S J, for the symmetric S with the given
        upper triangle, on J's nonzero entries alone: the columns of J S,
        then (J S) J only for a <= b.  That is never more products than the
        two dense ones, and for J a signed permutation (every built-in's)
        n^2 + n(n + 1)/2 in place of 2 n^2."""
        cols = self._j_columns
        # row k of the symmetric S is its column k
        js = [apply_columns(cols, row, 6)
              for row in _symmetric(6, upper).data]
        out = []
        for a, b in _upper(6):
            acc = ZERO
            for k, c in cols[b]:
                acc = acc + js[k][a] * c
            out.append(acc)
        return out

    @cached_property
    def _w4_left_inverse(self):
        """L = (M^T M)^-1 M^T for the contraction matrix M, by its nonzero
        columns; built on the first W4 solve, so only for n = 7."""
        return sparse_columns(self._contractions[0].left_inverse())

    def _solve_w4_vector(self, m_coords):
        """Unique V with V -| psi equal to the given m-part 2-form.

        L m is the least-squares V; it is exact only when M V = m, which is
        checked, so an m-part outside the image raises."""
        v = apply_columns(self._w4_left_inverse, m_coords, self.n)
        if apply_columns(self._contractions[1], v, len(m_coords)) != m_coords:
            raise InternalInvariantError(
                "m-part not representable as V -| psi")
        return v


@cache
def _shared_structure(n, phi0):
    return SpinorStructure(SpinRep.build(n), list(phi0))


_HALF = Scalar.rational(1, 2)
_TWO_THIRDS = Scalar.rational(2, 3)


@cache
def _upper(n):
    """Index pairs (a, b), a <= b, of the upper triangle, row by row."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def _sym_upper(d, n, c):
    """The upper triangle of sym(S) - c Id for the n rows d of S:
    (S_ab + S_ba)/2 off the diagonal."""
    return [d[a][a] - c if a == b else (d[a][b] + d[b][a]) * _HALF
            for a, b in _upper(n)]


def _split(s, c):
    """`_sym_upper` of S and the pair coordinates (S_ji - S_ij)/2 of
    skew(S)."""
    d = s.data
    skew = [(d[j - 1][i - 1] - d[i - 1][j - 1]) * _HALF
            for i, j in index_pairs(s.rows)]
    return _sym_upper(d, s.rows, c), skew


def _symmetric(n, upper):
    """The symmetric matrix with the given upper triangle."""
    m = [[None] * n for _ in range(n)]
    for (a, b), c in zip(_upper(n), upper):
        m[a][b] = m[b][a] = c
    return _matrix(m, n)


def _skew(n, pairs):
    return MultiVector.from_pair_coeffs(n, pairs).to_skew_matrix()


# The matrix of each class label from its coordinates: a multiple of Id or
# of J, a symmetric matrix by its upper triangle or a skew one by its pair
# coordinates.  W5 (n = 6) is eta itself and has no matrix.
_MATRIX_OF = {
    **dict.fromkeys(("W1", "W1-"),
                    lambda st, cs: Matrix.identity(st.n).scale(cs[0])),
    "W1+": lambda st, cs: _skew(st.n, vec_scale(cs[0], st._kahler_coords[0])),
    **dict.fromkeys(("W2", "W2+", "W4"), lambda st, cs: _skew(st.n, cs)),
    **dict.fromkeys(("W2-", "W3"), lambda st, cs: _symmetric(st.n, cs))}


class Classes:
    """Gray-Hervella classes, read-only: `coords` maps each label (W1+ ...
    W5 for n = 6, W1 ... W4 for n = 7) to a tuple of Scalars, and
    `w4_vector` is the tuple V with V -| psi equal to W4 (empty for n = 6).
    The `components` matrices, built on first read, sum exactly to S."""

    def __init__(self, structure, coords, w4_vector=()):
        self.structure = structure
        self.coords = MappingProxyType({label: tuple(cs)
                                        for label, cs in coords.items()})
        self.w4_vector = tuple(w4_vector)

    def scale(self, c):
        """The classes of (c S, c eta): every coordinate times c."""
        return Classes(self.structure,
                       {label: vec_scale(c, cs)
                        for label, cs in self.coords.items()},
                       vec_scale(c, self.w4_vector))

    @cached_property
    def components(self):
        """The matrix of each class but W5, with tuple rows."""
        st = self.structure
        return MappingProxyType({
            label: _matrix(tuple(map(tuple, _MATRIX_OF[label](st, cs).data)),
                           st.n)
            for label, cs in self.coords.items() if label in _MATRIX_OF})

    def total(self) -> Matrix:
        out = Matrix.zeros(self.structure.n, self.structure.n)
        for m in self.components.values():
            out = out + m
        return out

    def flags(self):
        return {label for label, cs in self.coords.items()
                if not vec_is_zero(cs)}

    def flags_at(self, sub, t0):
        """Flags after exact evaluation at rational parameter t0."""
        return {label for label, cs in self.coords.items()
                if any(not c.is_zero and not zero_at(c, sub, t0) for c in cs)}
