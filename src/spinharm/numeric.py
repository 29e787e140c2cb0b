"""Double-precision twin of the exact pipeline, used only as an oracle.

Recomputes the homogeneous analysis in floating point with numpy's solvers
(SVD null spaces, a linear solve), sharing no solver code with the exact
path: the generator table is the only common input.  Backs `scan` and the
numeric-scan check of `verify`; never decides verdicts.

What depends on the spinor alone -- the generators, the pair products
e_i e_j, j, the stabilizer and m null spaces, the m projector and the
decomposition basis -- is one `Frame`, built once per (n, phi0) in a
process.  A grid of t values is then one batch (`Grid`): each distinct
Lambda coefficient is evaluated once over the whole grid, and S, eta, the
torsion, chi, the divergences and both residuals come out of einsum
contractions and one batched solve, with the grid as the leading axis.
Poles are exact: at a rational t every distinct non-constant denominator
is tested with `scalars.vanishes_at`, so a row whose float denominator
merely rounds to a tiny nonzero value is still a pole, and reads None.
There is no one-row view: a single t is the grid [t0], read at row 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .clifford import _GEN_TABLE, index_pairs
from .scalars import vanishes_at

_NULL_TOL = 1e-9


def _nullspace(a):
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > _NULL_TOL * max(a.shape)))
    return vh[rank:].T


class Frame:
    """Float data of the unit spinor phi0 in dimension n; none depends on t.

    Pairs p = (i, j), i < j, index the 2-forms e_i ^ e_j: `pair_products[p]`
    is e_i e_j on Delta = R^8 and `pair_skew[p]` the skew n x n matrix of
    the same 2-form.
    """

    def __init__(self, n, phi0):
        self.pairs = index_pairs(n)
        gens = np.zeros((n, 8, 8))
        for i in range(n):
            for (a, b, s) in _GEN_TABLE[i + 1]:
                gens[i, a - 1, b - 1] = -s
                gens[i, b - 1, a - 1] = s
        self.gens = gens
        self.phi = np.array([float(c.as_fraction()) for c in phi0])
        self.gens_phi = gens @ self.phi                       # (n, 8)
        self.pair_products = np.stack([gens[i - 1] @ gens[j - 1]
                                       for (i, j) in self.pairs])
        self.pair_skew = np.zeros((len(self.pairs), n, n))
        for p, (i, j) in enumerate(self.pairs):
            self.pair_skew[p, i - 1, j - 1] = -1.0
            self.pair_skew[p, j - 1, i - 1] = 1.0
        cols = [self.phi]
        if n == 6:
            self.jmat = np.eye(8)
            for g in gens:
                self.jmat = self.jmat @ g
            self.jphi = self.jmat @ self.phi
            cols.append(self.jphi)
        self.basis = np.column_stack(cols + list(self.gens_phi))
        action = (self.pair_products @ self.phi).T            # (8, P)
        self.g_basis = _nullspace(action)          # stabilizer algebra
        self.m_basis = _nullspace(self.g_basis.T)  # orthogonal complement
        self.m_proj = self.m_basis @ self.m_basis.T


@cache
def frame(n, phi0) -> Frame:
    """The Frame of (n, phi0), phi0 a tuple; built once per process."""
    return Frame(n, phi0)


def _horner(p, u):
    """Float values of the Poly p at every entry of the array u."""
    acc = np.zeros_like(u)
    for c in reversed(p.ints):
        acc = acc * u + c / p.dd
    return acc


def _pole_rows(dens, sub, ts):
    """Rows of the grid where one of the Polys dens vanishes exactly."""
    rows = np.zeros(len(ts), dtype=bool)
    if dens:
        for k, t0 in enumerate(ts):
            if isinstance(t0, (int, Fraction)):
                c, root = sub.u_value(Fraction(t0))
                rows[k] = any(vanishes_at(d, c, root) for d in dens)
    return rows


class Grid:
    """One model on a grid of t values, every quantity batched: arrays
    carry the grid as their leading axis, one row per t (T rows).

    `x[t, k, p]` is the coefficient of pair p in slot k of Lambda.  Rows
    in `poles` hold zeros, and their results mean nothing.
    """

    def __init__(self, model, ts):
        sub = model.substitution
        self.n = n = model.n
        self.frame = f = frame(n, tuple(model.phi0))
        ts = list(ts)
        t = np.array([float(t0) for t0 in ts])
        u = t if sub.u_squared_per_t is None else \
            np.sqrt(float(sub.u_squared_per_t) * t)
        col = {p: k for k, p in enumerate(f.pairs)}
        x = np.zeros((len(t), n, len(f.pairs)))
        values = {}
        zero_den = np.zeros(len(t), dtype=bool)
        for k, slot in enumerate(model.lam):
            for key, c in slot.terms.items():
                if c not in values:
                    den = _horner(c.den, u)
                    zero_den |= den == 0.0
                    values[c] = _horner(c.num, u) / np.where(den == 0.0,
                                                             1.0, den)
                x[:, k, col[key]] = values[c]
        dens = {c.den for c in values if c.den.degree > 0}
        self.poles = zero_den | _pole_rows(dens, sub, ts)
        x[self.poles] = 0.0
        self.x = x

    def _skew(self, coords):
        return np.einsum('tkp,pab->tkab', coords, self.frame.pair_skew)

    def _action(self, coords):
        """The 2-form action sum_p coords[p] e_i e_j on Delta, per row and
        slot."""
        return np.einsum('tkp,pab->tkab', coords, self.frame.pair_products)

    @cached_property
    def skew(self):
        """Lambda(e_k) as a skew n x n matrix: (T, n, n, n)."""
        return self._skew(self.x)

    @cached_property
    def lift(self):
        """lift(Lambda(e_k)) = 1/2 sum c_ij e_i e_j on Delta: (T, n, 8, 8)."""
        return 0.5 * self._action(self.x)

    @cached_property
    def torsion(self):
        """m-projection of each slot, in pair coordinates: (T, n, P)."""
        return np.einsum('pq,tkq->tkp', self.frame.m_proj, self.x)

    @cached_property
    def s_eta(self):
        """(S, eta) with lift(Lambda(e_i)).phi = S(e_i).phi (+ eta_i j.phi),
        from one solve against the decomposition basis for every row and
        slot."""
        f, n = self.frame, self.n
        rhs = np.einsum('tkab,b->tka', self.lift, f.phi)
        sol = np.linalg.solve(f.basis, rhs.reshape(-1, 8).T).T
        sol = sol.reshape(rhs.shape)
        s = sol[:, :, 8 - n:].transpose(0, 2, 1)
        eta = sol[:, :, 1] if n == 6 else np.zeros(rhs.shape[:2])
        return s, eta

    def divergence_endo(self, s):
        """sum_i [Lambda_i, S](e_i) per row."""
        a = self.skew
        return (np.einsum('tiab,tbi->ta', a, s)
                - np.einsum('tab,tibi->ta', s, a))

    def divergence_vector(self, v):
        """sum_i (Lambda_i v)_i per row."""
        return np.einsum('tiib,tb->t', self.skew, v)

    def _residual_su3(self):
        f = self.frame
        s, eta = self.s_eta
        xi = self.torsion
        chi = np.einsum('tiab,tbi->ta', self._skew(xi), s)
        xi_eta = np.einsum('ti,tip->tp', eta, xi)
        # chi^S enters negated, as in the exact residual, so that the six
        # terms sum to minus the Laplacian cross-check residual
        res = (self.divergence_endo(s) - chi) @ f.gens_phi
        res -= 0.5 * xi_eta @ (f.pair_products @ f.jphi)
        res += np.outer(self.divergence_vector(eta), f.jphi)
        res += (np.einsum('tab,tb->ta', s, eta) @ f.gens_phi) @ f.jmat.T
        res -= np.einsum('ti,ti->t', eta, eta)[:, None] * f.phi
        return res

    def residual(self):
        """The harmonicity residual: the six-term spinor expression for
        n = 6, div S for n = 7."""
        if self.n == 6:
            return self._residual_su3()
        return self.divergence_endo(self.s_eta[0])

    def cross_check_residual(self):
        """Delta phi + 1/2 c_xi.phi with Delta phi = -sum lift_k^2 phi and
        c_xi = 1/2 sum_k (xi_k action)^2."""
        phi = self.frame.phi
        lift = self.lift
        delta = -np.einsum('tkab,tkb->ta', lift,
                           np.einsum('tkab,b->tka', lift, phi))
        a = self._action(self.torsion)
        c_xi_phi = 0.5 * np.einsum('tkab,tkb->ta', a,
                                   np.einsum('tkab,b->tka', a, phi))
        return delta + 0.5 * c_xi_phi


def residual_norms(model, ts):
    """Euclidean norm of the numeric harmonicity residual at each t of ts,
    None at a pole."""
    grid = Grid(model, ts)
    norms = np.linalg.norm(grid.residual(), axis=1)
    return [None if pole else float(r) for pole, r in zip(grid.poles, norms)]


def residual_norm(model, t0):
    """Euclidean norm of the numeric harmonicity residual, or None at a pole."""
    return residual_norms(model, [t0])[0]


def scan(model, t_min: Fraction, t_max: Fraction, steps: int):
    """(t, residual-norm) rows over an inclusive grid with `steps` intervals."""
    if steps < 1:
        raise ValueError("steps must be positive")
    t_min, t_max = Fraction(t_min), Fraction(t_max)
    if t_min <= 0 or t_max <= t_min:
        raise ValueError("need 0 < t_min < t_max")
    ts = [t_min + (t_max - t_min) * k / steps for k in range(steps + 1)]
    return list(zip(ts, residual_norms(model, ts)))
