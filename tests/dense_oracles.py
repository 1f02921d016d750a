"""Dense coordinate forms of vectors and subspaces, kept as oracles for the sparse ones.

A dense vector is a tuple of g Fractions, zeros included; a dense subspace
is the dense reduced echelon matrix that ``linalg.rref`` returns.  The
functions below are the dense ``bracket``, ``w_eval``, ``contains``,
``intersection``, ``orthogonal_complement`` and ``degenerate`` that the
sparse forms in ``nullvar`` replaced.
"""

from fractions import Fraction

from nullvar.linalg import Matrix, frac, rref


def identity(n: int) -> Matrix:
    return Matrix(n, n, tuple(Fraction(int(i == j)) for i in range(n) for j in range(n)))


def dense(L, v) -> tuple:
    """The sparse vector ``v`` with all g coordinates."""
    return tuple(Fraction(v.get(j, 0)) for j in range(L.g))


def sparse(v) -> dict:
    """The nonzero coordinates of a dense vector of ints, Fractions or rational strings."""
    return {j: c for j, x in enumerate(v) if (c := frac(x))}


def unit(L, i: int) -> tuple:
    return tuple(Fraction(int(j == i)) for j in range(L.g))


def bracket(L, x, y) -> tuple:
    acc = [Fraction(0)] * L.g
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            ab = frac(a) * frac(b)
            for k, c in L.brackets[i][j].items():
                acc[k] += ab * c
    return tuple(acc)


def w_eval(L, x, y, z) -> Fraction:
    """The sum of w(b_a, b_b, b_c) x_a y_b z_c over every index triple: the table extended by alternation."""
    acc = Fraction(0)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            for c, zc in enumerate(z):
                if xa and yb and zc:
                    acc += L.w_basis(a, b, c) * frac(xa) * frac(yb) * frac(zc)
    return acc


def kernel(m: Matrix) -> Matrix:
    """Canonical right kernel, one vector per row, from the dense reduced echelon form."""
    red, pivots = rref(m)
    rows = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        rows.append(v)
    return rref(Matrix.from_rows(rows))[0] if rows else Matrix(0, m.cols, ())


class DenseSubspace:
    """A subspace held as its dense reduced echelon rows."""

    def __init__(self, L, rows):
        rows = [[frac(x) for x in row] for row in rows]
        red, self.pivots = rref(Matrix.from_rows(rows) if rows else Matrix(0, L.g, ()))
        self.L = L
        self.dim = len(self.pivots)
        self.matrix = Matrix(self.dim, L.g, red.entries[: self.dim * L.g])

    def rows(self) -> list[tuple]:
        return [self.matrix.row(i) for i in range(self.dim)]

    def matches(self, S) -> bool:
        """Whether the sparse subspace S has the same canonical rows."""
        return S.pivots == self.pivots and [dense(self.L, row) for row in S.rows] == self.rows()

    def contains(self, vector) -> bool:
        v = [frac(x) for x in vector]
        for row, p in zip(self.rows(), self.pivots):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return not any(v)

    def intersection(self, other: "DenseSubspace") -> "DenseSubspace":
        if self.dim == 0 or other.dim == 0:
            return DenseSubspace(self.L, [])
        stacked = Matrix.from_rows([list(r) for r in self.rows()] + [[-x for x in r] for r in other.rows()])
        ker = kernel(stacked.transpose())
        out = []
        for i in range(ker.rows):
            vec = [Fraction(0)] * self.L.g
            for c, row in zip(ker.row(i)[: self.dim], self.rows()):
                for j, x in enumerate(row):
                    vec[j] += c * x
            out.append(vec)
        return DenseSubspace(self.L, out)


def orthogonal_complement(L, S: DenseSubspace) -> DenseSubspace:
    if S.dim == 0:
        return DenseSubspace(L, [unit(L, i) for i in range(L.g)])
    ker = kernel(S.matrix @ L.kappa)
    return DenseSubspace(L, [ker.row(i) for i in range(ker.rows)])


def degenerate(L, V: DenseSubspace, weight) -> DenseSubspace:
    """The top-grade parts of the echelon rows over columns of descending grade."""
    grades = [sum(c * m for c, m in zip(L.weights[i], weight)) for i in range(L.g)]
    if any(grades[L.pos_index(a)] == 0 for a in range(L.n_pos)):
        raise ValueError("weight is not regular")
    order = sorted(range(L.g), key=lambda i: -grades[i])
    red, pivots = rref(Matrix(V.dim, L.g, tuple(row[i] for row in V.rows() for i in order)))
    rows = []
    for r, p in enumerate(pivots):
        top = grades[order[p]]
        rows.append([red[r, order.index(i)] if grades[i] == top else Fraction(0) for i in range(L.g)])
    return DenseSubspace(L, rows)
