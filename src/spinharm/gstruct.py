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
  * the Gray-Hervella splitting of (S, eta) into W-components.

All splits are orthogonal projections in exact arithmetic, so components
recombine to the input on the nose and each component re-classifies pure.
Each of them is read off the spinors e_I.phi, and every e_I reaches phi (or
another single spinor) through `SpinRep.act`: a signed permutation of its
entries, with no 8x8 matrix built.

These depend on (n, phi) alone, not on a model's Wang map or on t:
`SpinorStructure.shared` keeps one structure per (n, phi) for the process,
and computes each piece once, on first use.  Two of those pieces carry a
check made once per structure: the decomposition frame must be orthonormal,
and the W4 solve multiplies back through the (e_l -| psi) matrix.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations

from .scalars import Scalar, ONE, zero_at
from .linalg import (Matrix, Subspace, vec_add, vec_dot, vec_is_zero,
                     vec_scale, vec_sub, zero_vec)
from .clifford import MultiVector, SpinRep, index_pairs


class InternalInvariantError(AssertionError):
    """A structural identity the representation guarantees failed to hold."""


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
    def _decomp_transpose(self):
        """Q^T for the decomposition matrix Q, checked to be its inverse.

        Every e_I with one, two or five generators is skew and e_i e_i = -1,
        so phi, j phi and the e_i.phi are orthonormal for any unit phi;
        Q^T Q != Id signals a broken representation or spinor.
        """
        q = self._decomp_matrix
        qt = q.transpose()
        if qt * q != Matrix.identity(8):
            raise InternalInvariantError(
                "spinor decomposition frame is not orthonormal")
        return qt

    def decompose(self, psi) -> SpinorParts:
        """Split psi = a phi (+ b j phi) + X.phi exactly: the coefficients
        are the inner products of psi with the orthonormal columns."""
        sol = self._decomp_transpose.apply(psi)
        if self.n == 6:
            return SpinorParts(sol[0], sol[1], sol[2:])
        return SpinorParts(sol[0], None, sol[1:])

    # -- stabilizer algebra and complement -----------------------------------

    def action_matrix(self) -> Matrix:
        """Matrix of omega -> omega.phi from 2-form coefficients to Delta."""
        return Matrix.from_columns([self._basis_act(p, self.phi)
                                    for p in index_pairs(self.n)])

    @cached_property
    def _annihilator(self):
        return self.action_matrix().kernel()

    @cached_property
    def _complement_m(self):
        return self._annihilator.orthogonal_complement()

    def annihilator(self) -> Subspace:
        """2-forms annihilating phi: su(3) for n = 6, g2 for n = 7."""
        return self._annihilator

    def complement_m(self) -> Subspace:
        """Orthogonal complement of the stabilizer inside the 2-forms."""
        return self._complement_m

    # -- derived structures ---------------------------------------------------

    @cached_property
    def _almost_complex(self):
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

    def almost_complex(self) -> Matrix:
        """J with J(X).phi = j.X.phi; J^2 = -Id, orthogonal, skew (n = 6)."""
        if self.n != 6:
            raise ValueError("almost complex structure needs n = 6")
        return self._almost_complex

    def kahler_form(self) -> MultiVector:
        return MultiVector.from_skew_matrix(self.almost_complex())

    @cached_property
    def _kahler_coords(self):
        """(x_J, <x_J, x_J>): the Kahler form in pair coordinates and its
        squared norm, for the W1+ component."""
        xj = self.kahler_form().pair_coeffs()
        return xj, vec_dot(xj, xj)

    @cached_property
    def _psi_plus(self):
        return MultiVector(self.n, {
            key: vec_dot(self._basis_act(key, self.phi), self.phi)
            for key in combinations(range(1, self.n + 1), 3)})

    def psi_form(self, sign=None) -> MultiVector:
        """The cubic form psi(X,Y,Z) = sign * <X.Y.Z.phi, phi> as a 3-form.

        The default sign is the dimension-appropriate one: -1 for n = 6 and
        +1 for n = 7.  Pass sign explicitly to override.
        """
        if sign is None:
            sign = -1 if self.n == 6 else +1
        return self._psi_plus if sign > 0 else -self._psi_plus

    # -- torsion machinery ----------------------------------------------------

    def torsion_from_S(self, s: Matrix, eta=None):
        """Torsion slots xi_i = S(e_i) -| psi, i.e. g(xi_X Y, Z) =
        psi(S(X), Y, Z).

        n = 7 carries the extra factor 2/3.  For n = 6 this description is
        only valid when eta vanishes.
        """
        if self.n == 6 and eta is not None and not vec_is_zero(eta):
            raise ValueError("use homogeneous model torsion")
        psi = self.psi_form()
        if self.n == 7:
            psi = psi.scale(Scalar.rational(2, 3))
        return [MultiVector.vector(self.n, s.column(i)).interior(psi)
                for i in range(self.n)]

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

    def classify(self, s: Matrix, eta=None):
        """The classes of (S, eta) for n = 6 (eta = 0 by default), of S
        for n = 7, computed as coordinates."""
        if self.n == 6:
            return self._classify_su3(s, zero_vec(6) if eta is None else eta)
        return self._classify_g2(s)

    def _classify_su3(self, s, eta):
        mu = s.trace() / Scalar.rational(6)
        sym0, x = _split(s, mu)
        j = self.almost_complex()
        jsj = (j * _symmetric(6, sym0) * j).data
        w2m = [(c - jsj[a][b]) * _HALF for (a, b), c in zip(_upper(6), sym0)]
        w3 = [(c + jsj[a][b]) * _HALF for (a, b), c in zip(_upper(6), sym0)]
        xj, xj_norm2 = self._kahler_coords
        lam = vec_dot(x, xj) / xj_norm2
        g_part = self.annihilator().project(x)
        w4 = vec_sub(vec_sub(x, g_part), vec_scale(lam, xj))
        return SU3Classes(self, mu, lam, g_part, w2m, w3, w4, list(eta))

    def _classify_g2(self, s):
        lam = s.trace() / Scalar.rational(7)
        w3, x = _split(s, lam)
        g_part = self.annihilator().project(x)
        m_coords = vec_sub(x, g_part)
        return G2Classes(self, lam, g_part, w3, m_coords,
                         self._solve_w4_vector(m_coords))

    @cached_property
    def _w4_frame(self):
        """(M, L): M has the columns e_l -| psi as 2-form coordinates, and
        L is its left inverse (M^T M)^-1 M^T."""
        psi = self.psi_form()
        m = Matrix.from_columns(
            [MultiVector(7, {(l,): ONE}).interior(psi).pair_coeffs()
             for l in range(1, 8)])
        return m, m.left_inverse()

    def _solve_w4_vector(self, m_coords):
        """Unique V with V -| psi equal to the given m-part 2-form.

        L m is the least-squares V; it is exact only when M V = m, which is
        checked, so an m-part outside the image raises."""
        m, left = self._w4_frame
        v = left.apply(m_coords)
        if m.apply(v) != m_coords:
            raise InternalInvariantError(
                "m-part not representable as V -| psi")
        return v


@cache
def _shared_structure(n, phi0):
    return SpinorStructure(SpinRep.build(n), list(phi0))


_HALF = Scalar.rational(1, 2)


@cache
def _upper(n):
    """Index pairs (a, b), a <= b, of the upper triangle, row by row."""
    return [(a, b) for a in range(n) for b in range(a, n)]


def _split(s, c):
    """The upper triangle of sym(S) - c Id and the pair coordinates of
    skew(S): (S_ab + S_ba)/2 off the diagonal and (S_ji - S_ij)/2."""
    d = s.data
    sym = [d[a][a] - c if a == b else (d[a][b] + d[b][a]) * _HALF
           for a, b in _upper(s.rows)]
    skew = [(d[j - 1][i - 1] - d[i - 1][j - 1]) * _HALF
            for i, j in index_pairs(s.rows)]
    return sym, skew


def _symmetric(n, upper):
    """The symmetric matrix with the given upper triangle."""
    m = [[None] * n for _ in range(n)]
    for (a, b), c in zip(_upper(n), upper):
        m[a][b] = m[b][a] = c
    return Matrix(m)


def _skew(n, pairs):
    return MultiVector.from_pair_coeffs(n, pairs).to_skew_matrix()


class _Classes:
    """Gray-Hervella classes as coordinates: trace scalars, upper triangles
    of the symmetric parts, pair coordinates of the skew parts.  The
    `components` matrices mirror them and sum exactly to the input S."""

    def total(self) -> Matrix:
        out = Matrix.zeros(self.structure.n, self.structure.n)
        for m in self.components.values():
            out = out + m
        return out

    def flags(self):
        return {label for label, cs in self.coordinates().items()
                if not vec_is_zero(cs)}

    def flags_at(self, sub, t0):
        """Flags after exact evaluation at rational parameter t0."""
        return {label for label, cs in self.coordinates().items()
                if any(not c.is_zero and not zero_at(c, sub, t0) for c in cs)}


class SU3Classes(_Classes):
    """Gray-Hervella classes of (S, eta) for n = 6; eta carries W5."""

    def __init__(self, structure, mu, lam, w2p, w2m, w3, w4, eta):
        self.structure = structure
        self.mu, self.lam, self.eta = mu, lam, eta
        self.w2p, self.w2m, self.w3, self.w4 = w2p, w2m, w3, w4

    def scale(self, c):
        """The classes of (c S, c eta): every coordinate times c."""
        return SU3Classes(self.structure, c * self.mu, c * self.lam,
                          *(vec_scale(c, v) for v in (self.w2p, self.w2m,
                                                      self.w3, self.w4,
                                                      self.eta)))

    def coordinates(self):
        return {"W1+": [self.lam], "W1-": [self.mu], "W2+": self.w2p,
                "W2-": self.w2m, "W3": self.w3, "W4": self.w4,
                "W5": self.eta}

    @property
    def components(self):
        xj = self.structure._kahler_coords[0]
        return {"W1+": _skew(6, vec_scale(self.lam, xj)),
                "W1-": Matrix.identity(6).scale(self.mu),
                "W2+": _skew(6, self.w2p), "W2-": _symmetric(6, self.w2m),
                "W3": _symmetric(6, self.w3), "W4": _skew(6, self.w4)}


class G2Classes(_Classes):
    """Gray-Hervella classes of S for n = 7; W4 also as the vector V."""

    def __init__(self, structure, lam, w2, w3, w4, v):
        self.structure = structure
        self.lam, self.v = lam, v
        self.w2, self.w3, self.w4 = w2, w3, w4

    def scale(self, c):
        """The classes of c S: every coordinate times c."""
        return G2Classes(self.structure, c * self.lam,
                         *(vec_scale(c, v) for v in (self.w2, self.w3,
                                                     self.w4, self.v)))

    def coordinates(self):
        return {"W1": [self.lam], "W2": self.w2, "W3": self.w3,
                "W4": self.w4}

    @property
    def components(self):
        return {"W1": Matrix.identity(7).scale(self.lam),
                "W2": _skew(7, self.w2), "W3": _symmetric(7, self.w3),
                "W4": _skew(7, self.w4)}
