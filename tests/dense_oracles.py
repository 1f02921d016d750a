"""Dense coordinate forms of vectors, subspaces and forms, kept as oracles for the sparse ones.

A dense vector is a tuple of g Fractions, zeros included; a dense subspace
is the dense reduced echelon matrix that ``linalg.rref`` returns.  The
functions below are the dense ``bracket``, ``w_eval``, ``contains``,
``orthogonal_complement`` and ``degenerate`` that the sparse forms in
``nullvar`` replaced, the Killing form as a dense matrix of traces, and the
triple-loop structure checks that the checks built on ``bracket``,
``kappa_pair`` and ``w_eval`` replaced.
"""

import itertools
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


def kappa_matrix(L) -> Matrix:
    """The Killing form as the dense matrix of tr(ad b_i ad b_j), ad b_i read off the bracket table."""
    g = L.g
    ad = [[[L.brackets[i][k].get(m, Fraction(0)) for k in range(g)] for m in range(g)] for i in range(g)]
    return Matrix.from_rows(
        [[sum(a * ad[j][k][m] for m in range(g) for k, a in enumerate(ad[i][m]) if a) for j in range(g)] for i in range(g)]
    )


def w_basis(L, i: int, j: int, k: int) -> Fraction:
    """w on a basis triple in any index order: the entry of ``L.w_table`` on the sorted triple, signed."""
    if len({i, j, k}) < 3:
        return Fraction(0)
    order = sorted((i, j, k))
    inversions = sum(1 for a, b in itertools.combinations((i, j, k), 2) if a > b)
    val = L.w_table.get(tuple(order), Fraction(0))
    return -val if inversions % 2 else val


def w_eval(L, x, y, z) -> Fraction:
    """The sum of w(b_a, b_b, b_c) x_a y_b z_c over every index triple: the table extended by alternation."""
    acc = Fraction(0)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            for c, zc in enumerate(z):
                if xa and yb and zc:
                    acc += w_basis(L, a, b, c) * frac(xa) * frac(yb) * frac(zc)
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


def orthogonal_complement(L, S: DenseSubspace) -> DenseSubspace:
    if S.dim == 0:
        return DenseSubspace(L, [unit(L, i) for i in range(L.g)])
    ker = kernel(S.matrix @ kappa_matrix(L))
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


# ---------------------------------------------------------------------------
# the structure checks as triple loops over the bracket table and the dense form


def check_jacobi(L) -> list[tuple]:
    """Triples (i, j, k) violating [[i,j],k] + [[j,k],i] + [[k,i],j] = 0."""
    bad = []
    g = L.g
    for i in range(g):
        for j in range(i + 1, g):
            bij = L.brackets[i][j]
            for k in range(j + 1, g):
                acc: dict[int, Fraction] = {}
                for m, c in bij.items():
                    for t, c2 in L.brackets[m][k].items():
                        acc[t] = acc.get(t, Fraction(0)) + c * c2
                for m, c in L.brackets[j][k].items():
                    for t, c2 in L.brackets[m][i].items():
                        acc[t] = acc.get(t, Fraction(0)) + c * c2
                for m, c in L.brackets[k][i].items():
                    for t, c2 in L.brackets[m][j].items():
                        acc[t] = acc.get(t, Fraction(0)) + c * c2
                if any(acc.values()):
                    bad.append((i, j, k))
    return bad


def check_kappa_invariance(L) -> list[tuple]:
    """Triples violating kappa([x,y],z) = -kappa(y,[x,z]) on the basis."""
    bad = []
    g = L.g
    kap = kappa_matrix(L)
    for i in range(g):
        for j in range(g):
            bij = L.brackets[i][j]
            for k in range(g):
                lhs = Fraction(0)
                for m, c in bij.items():
                    lhs += c * kap.entries[m * g + k]
                rhs = Fraction(0)
                for m, c in L.brackets[i][k].items():
                    rhs += kap.entries[j * g + m] * c
                if lhs + rhs != 0:
                    bad.append((i, j, k))
    return bad


def check_w_antisymmetry(L) -> list[tuple]:
    """Ordered basis triples where kappa([b_i,b_j],b_k) deviates from the alternating table."""
    bad = []
    g = L.g
    kap = kappa_matrix(L)
    for i in range(g):
        for j in range(g):
            bij = L.brackets[i][j]
            for k in range(g):
                direct = Fraction(0)
                for m, c in bij.items():
                    direct += c * kap.entries[m * g + k]
                if direct != w_basis(L, i, j, k):
                    bad.append((i, j, k))
    return bad


def check_root_space_pairing(L) -> list[tuple]:
    """Failures of kappa(h, x_a) = 0 and kappa(x_a, x_b) = 0 unless b = -a."""
    bad = []
    kap = kappa_matrix(L)
    for i in range(L.g):
        for j in range(i, L.g):
            val = kap[i, j]
            wi = L.weights[i]
            wj = L.weights[j]
            opposite = all(a + b == 0 for a, b in zip(wi, wj))
            if opposite:
                rooted = i >= L.l and j >= L.l
                if rooted and val == 0:
                    bad.append((i, j))  # root pairing must be nonzero
                continue
            if val != 0:
                bad.append((i, j))
    return bad


def check_kappa_root_form(L) -> list[tuple]:
    """Basis pairs where kappa differs from the form the root datum gives alone."""
    rd = L.rd
    kap = kappa_matrix(L)
    simple = [tuple(int(k == i) for k in range(L.l)) for i in range(L.l)]

    def expected(i, j) -> Fraction:
        if i < L.l and j < L.l:
            a, b = simple[i], simple[j]
            return 4 * rd.inner(a, b) / (rd.inner(a, a) * rd.inner(b, b))
        if L.partner(i) == j:
            return 2 / rd.inner(L.weights[i], L.weights[i])
        return Fraction(0)

    return [(i, j) for i in range(L.g) for j in range(i, L.g) if kap[i, j] != expected(i, j)]
