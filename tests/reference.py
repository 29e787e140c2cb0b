"""Independent references that tests compare the library against.

`classify_su3` and `classify_g2` are the dense Gray-Hervella splittings:
every component is a 6x6 or 7x7 Matrix formed by matrix sums, differences
and scalings of S and its transpose.  The library reads the same classes
off coordinates (scalars, upper triangles and pair coordinates); these
functions use only the structure's J, stabilizer, Kahler coordinates and W4
solve, never its classifier.

`matrix_product` is the column-by-column product that the row-sparse
`Matrix.__mul__` is compared against.  `dense_endo` is the entrywise spinor
matrix of a multivector that `SpinRep.op(m).dense()` is compared against;
with `matrix_product` it gives the dense products and sums of operators.
"""

from spinharm.clifford import MultiVector
from spinharm.linalg import Matrix, vec_dot, vec_scale, vec_sub
from spinharm.scalars import ZERO, Scalar


def classify_su3(structure, s, eta):
    """(components, mu, lam, eta) of (S, eta) for n = 6."""
    j = structure.almost_complex()
    half = Scalar.rational(1, 2)
    mu = s.trace() / Scalar.rational(6)
    sym = (s + s.transpose()).scale(half)
    skw = s - sym
    w1m = Matrix.identity(6).scale(mu)
    sym0 = sym - w1m
    jsj = j * sym0 * j
    x = MultiVector.from_skew_matrix(skw).pair_coeffs()
    xj, xj_norm2 = structure._kahler_coords
    lam = vec_dot(x, xj) / xj_norm2
    g_part = structure.annihilator().project(x)
    w4 = vec_sub(vec_sub(x, g_part), vec_scale(lam, xj))
    components = {
        "W1+": j.scale(lam),
        "W1-": w1m,
        "W2+": MultiVector.from_pair_coeffs(6, g_part).to_skew_matrix(),
        "W2-": (sym0 - jsj).scale(half),
        "W3": (sym0 + jsj).scale(half),
        "W4": MultiVector.from_pair_coeffs(6, w4).to_skew_matrix(),
    }
    return components, mu, lam, list(eta)


def classify_g2(structure, s):
    """(components, lam, v) of S for n = 7, v the W4 vector."""
    lam = s.trace() / Scalar.rational(7)
    w1 = Matrix.identity(7).scale(lam)
    sym = (s + s.transpose()).scale(Scalar.rational(1, 2))
    x = MultiVector.from_skew_matrix(s - sym).pair_coeffs()
    g_part = structure.annihilator().project(x)
    m_coords = vec_sub(x, g_part)
    components = {
        "W1": w1,
        "W2": MultiVector.from_pair_coeffs(7, g_part).to_skew_matrix(),
        "W3": sym - w1,
        "W4": MultiVector.from_pair_coeffs(7, m_coords).to_skew_matrix(),
    }
    return components, lam, structure._solve_w4_vector(m_coords)


def matrix_product(a, b):
    """a b built column by column: column j is a.apply(column j of b)."""
    cols = [a.apply(b.column(j)) for j in range(b.cols)]
    return Matrix([[col[i] for col in cols] for i in range(a.rows)])


def dense_endo(rep, m):
    """The spinor matrix of m, term by term: each term adds +-c to the 8
    cells of its key's signed permutation."""
    data = [[ZERO] * 8 for _ in range(8)]
    for key, c in m.terms.items():
        rows, signs = rep._signed_perm(key)
        for j, (r, s) in enumerate(zip(rows, signs)):
            data[r][j] = data[r][j] + (c if s > 0 else -c)
    return Matrix(data)
