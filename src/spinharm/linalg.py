"""Dense exact linear algebra over the Scalar field Q(u).

Matrices are row-major grids of Scalars; vectors are plain lists of Scalars.
Everything is decided by exact arithmetic: elimination uses honest division
in the fraction field (no floating point anywhere), subspaces are stored in
reduced row-echelon form so that equality is a syntactic check, and the
inner product on coordinates is the plain dot product, which on 2-form
coefficient vectors agrees with the trace form up to a fixed positive scale.
Products are row-sparse (Gustavson): row i of A B sums a * (row k of B)
over the nonzero a = A[i][k], on B's nonzeros read once.  A fixed map
applied many times (a subspace's projector, the spinor structure's frames)
is kept as the nonzero entries of each column (`sparse_columns`) and
applied by them alone (`apply_columns`).  `Matrix(data)`
coerces its entries; results built here from Scalars are taken as they
stand (`_matrix`).
"""

from __future__ import annotations

from .scalars import Scalar, ZERO, ONE, as_scalar


def zero_vec(n):
    return [ZERO] * n


def vec_add(a, b):
    return [x + y for x, y in zip(a, b, strict=True)]


def vec_sub(a, b):
    return [x - y for x, y in zip(a, b, strict=True)]


def vec_scale(c, a):
    return [c * x for x in a]


def vec_dot(a, b):
    acc = ZERO
    for x, y in zip(a, b, strict=True):
        acc = acc + x * y
    return acc


def vec_is_zero(a):
    return all(x.is_zero for x in a)


def basis_vec(n, k):
    v = zero_vec(n)
    v[k] = ONE
    return v


class Matrix:
    """Rectangular matrix of Scalars."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[e if isinstance(e, Scalar) else as_scalar(e) for e in row]
                     for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(r) != self.cols for r in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows, cols):
        return _matrix([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for k in range(n):
            m.data[k][k] = ONE
        return m

    @classmethod
    def from_columns(cls, cols):
        n = len(cols[0])
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        """Entrywise equality, whether the rows are lists or tuples."""
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols
                and list(map(tuple, self.data)) ==
                list(map(tuple, other.data)))

    def __add__(self, other):
        self._shape_check(other)
        return _matrix(list(map(vec_add, self.data, other.data)), self.cols)

    def __sub__(self, other):
        self._shape_check(other)
        return _matrix(list(map(vec_sub, self.data, other.data)), self.cols)

    def __neg__(self):
        return _matrix([[-e for e in row] for row in self.data], self.cols)

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch")

    def scale(self, c):
        c = c if isinstance(c, Scalar) else as_scalar(c)
        return _matrix([[c * e for e in row] for row in self.data], self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            n = other.cols
            nonzeros = [[(j, b) for j, b in enumerate(row) if b]
                        for row in other.data]
            data = []
            for row in self.data:
                out = [ZERO] * n
                for a, terms in zip(row, nonzeros):
                    if a:
                        for j, b in terms:
                            out[j] = out[j] + a * b
                data.append(out)
            return _matrix(data, n)
        return self.scale(other)

    def apply(self, v):
        """The product A v, summing only the terms with both factors nonzero
        (most entries of the projectors and Clifford matrices are zero)."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        terms = [(k, x) for k, x in enumerate(v) if x is not ZERO]
        out = []
        for row in self.data:
            acc = ZERO
            for k, x in terms:
                a = row[k]
                if a is not ZERO:
                    acc = acc + a * x
            out.append(acc)
        return out

    def transpose(self):
        return _matrix([list(col) for col in zip(*self.data)], self.rows)

    def trace(self):
        acc = ZERO
        for k in range(min(self.rows, self.cols)):
            acc = acc + self.data[k][k]
        return acc

    @property
    def is_zero(self):
        return all(e.is_zero for row in self.data for e in row)

    def is_skew(self):
        if self.rows != self.cols:
            return False
        return all(self.data[i][j] == -self.data[j][i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def rref(self):
        """Reduced row-echelon form with exact pivots; returns (R, pivots)."""
        m = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pr = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero:
                    pr = i
                    break
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            if pv != ONE:
                m[r] = [e / pv for e in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(m), pivots

    def kernel(self):
        """Null space {x : Ax = 0} as a Subspace of dimension cols - rank."""
        R, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = zero_vec(self.cols)
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            basis.append(v)
        return Subspace(self.cols, basis)

    def left_inverse(self):
        """(A^T A)^-1 A^T for A of full column rank, from one RREF of
        [A^T A | A^T], whose right block it is."""
        at = self.transpose()
        gram = at * self
        R, _ = Matrix([g + r for g, r in zip(gram.data, at.data)]).rref()
        return Matrix([row[self.cols:] for row in R.data])

    def solve(self, b):
        """One exact solution of Ax = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ValueError("dimension mismatch")
        aug = Matrix([row + [bi] for row, bi in zip(self.data, b)])
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = zero_vec(self.cols)
        for r, pc in enumerate(pivots):
            x[pc] = R.data[r][self.cols]
        return x

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _matrix(data, cols):
    """Matrix of fresh rows of Scalars of length cols, taken as they stand."""
    m = object.__new__(Matrix)
    m.data = data
    m.rows, m.cols = len(data), cols
    return m


def sparse_columns(a: Matrix):
    """A fixed map by its nonzeros: for each column j, the pairs (i, A_ij)
    with A_ij != 0, to be applied by `apply_columns`."""
    return [[(i, row[j]) for i, row in enumerate(a.data) if row[j]]
            for j in range(a.cols)]


def apply_columns(columns, v, rows):
    """A v for the map with the given `sparse_columns`: a * x is added only
    for the nonzero entries a of A and x of v."""
    if len(v) != len(columns):
        raise ValueError("dimension mismatch")
    out = [ZERO] * rows
    for x, column in zip(v, columns):
        if x is not ZERO:
            for i, a in column:
                out[i] = out[i] + a * x
    return out


class Subspace:
    """Span of the given vectors, kept as an RREF basis (canonical
    representative, so == decides equality of subspaces)."""

    __slots__ = ("ambient_dim", "basis", "_columns")

    def __init__(self, ambient_dim, vectors):
        self.ambient_dim = ambient_dim
        self._columns = None
        self.basis = []
        if vectors:
            R, pivots = Matrix(vectors).rref()
            self.basis = [R.data[k] for k in range(len(pivots))]

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def orthogonal_complement(self):
        """Complement for the coordinate dot product; dims add to ambient."""
        # the kernel of one zero row is the whole space
        return Matrix(self.basis or [zero_vec(self.ambient_dim)]).kernel()

    def project(self, v):
        """Orthogonal projection onto the subspace (exact), applied by the
        projector's nonzero entries, kept per column once built."""
        if self._columns is None:
            self._columns = sparse_columns(self._build_projector())
        return apply_columns(self._columns, v, self.ambient_dim)

    def _build_projector(self):
        """P = B^T (B B^T)^-1 B for the basis rows B: B^T times its left
        inverse; the dense reference for `project`."""
        if not self.basis:
            return Matrix.zeros(self.ambient_dim, self.ambient_dim)
        bt = Matrix(self.basis).transpose()
        return bt * bt.left_inverse()

    def __repr__(self):
        return f"Subspace(dim={self.dim} in R^{self.ambient_dim})"
