"""Dense coordinate forms of vectors, subspaces and forms, kept as oracles for the sparse ones.

A dense vector is a tuple of g Fractions, zeros included, and a dense
matrix is a list of such rows; no oracle holds its values in the sparse
``linalg.Matrix`` it checks.  A dense subspace is the dense reduced echelon
matrix of Gauss-Jordan elimination over ``Fraction``.  The functions below
are the dense ``bracket``, ``w_eval``, ``contains``,
``orthogonal_complement`` and ``degenerate`` that the sparse forms in
``nullvar`` replaced, the Killing form as a dense matrix of traces, the
triple-loop structure checks that the checks built on ``bracket``,
``kappa_pair`` and ``w_eval`` replaced, the cubic local equations built from
``Fraction`` rows, and the transpose relation on ``Fraction`` matrices: the
dense graded and pairing matrices, Gaussian elimination for ``det`` and the
triple-loop matrix product, which the integer numerators replaced.
"""

import itertools
from fractions import Fraction

from nullvar import exterior
from nullvar.linalg import frac


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(m: list) -> list[list]:
    return [list(column) for column in zip(*m)]


def rref(m: list, cols: int) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination over Fraction, zero rows last, with its pivot columns."""
    work = [[frac(x) for x in row] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((k for k in range(r, len(work)) if work[k][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for k in range(len(work)):
            f = work[k][c]
            if k != r and f:
                work[k] = [x - f * y for x, y in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    return work, tuple(pivots)


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


def kappa_matrix(L) -> list[list[Fraction]]:
    """The Killing form as the dense matrix of tr(ad b_i ad b_j), ad b_i read off the bracket table."""
    g = L.g
    ad = [[[L.brackets[i][k].get(m, Fraction(0)) for k in range(g)] for m in range(g)] for i in range(g)]
    return [[sum(a * ad[j][k][m] for m in range(g) for k, a in enumerate(ad[i][m]) if a) for j in range(g)] for i in range(g)]


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


def kernel(m: list, cols: int) -> list[list[Fraction]]:
    """Canonical right kernel, one vector per row, from the dense reduced echelon form."""
    red, pivots = rref(m, cols)
    rows = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        rows.append(v)
    return rref(rows, cols)[0]


class DenseSubspace:
    """A subspace held as its dense reduced echelon rows."""

    def __init__(self, L, rows):
        red, self.pivots = rref(rows, L.g)
        self.L = L
        self.dim = len(self.pivots)
        self.matrix = [tuple(row) for row in red[: self.dim]]

    def rows(self) -> list[tuple]:
        return list(self.matrix)

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
    return DenseSubspace(L, kernel(matmul(S.matrix, kappa_matrix(L)), L.g))


def degenerate(L, V: DenseSubspace, weight) -> DenseSubspace:
    """The top-grade parts of the echelon rows over columns of descending grade."""
    grades = [sum(c * m for c, m in zip(L.weights[i], weight)) for i in range(L.g)]
    if any(grades[L.pos_index(a)] == 0 for a in range(L.n_pos)):
        raise ValueError("weight is not regular")
    order = sorted(range(L.g), key=lambda i: -grades[i])
    red, pivots = rref([[row[i] for i in order] for row in V.rows()], L.g)
    rows = []
    for r, p in enumerate(pivots):
        top = grades[order[p]]
        rows.append([red[r][order.index(i)] if grades[i] == top else Fraction(0) for i in range(L.g)])
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
                    lhs += c * kap[m][k]
                rhs = Fraction(0)
                for m, c in L.brackets[i][k].items():
                    rhs += kap[j][m] * c
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
                    direct += c * kap[m][k]
                if direct != w_basis(L, i, j, k):
                    bad.append((i, j, k))
    return bad


def check_root_space_pairing(L) -> list[tuple]:
    """Failures of kappa(h, x_a) = 0 and kappa(x_a, x_b) = 0 unless b = -a."""
    bad = []
    kap = kappa_matrix(L)
    for i in range(L.g):
        for j in range(i, L.g):
            val = kap[i][j]
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

    return [(i, j) for i in range(L.g) for j in range(i, L.g) if kap[i][j] != expected(i, j)]


# ---------------------------------------------------------------------------
# the cubic local equations with every coefficient a Fraction


def local_equations(L, base, complement) -> list[dict]:
    """One polynomial per ascending triple of base rows, in the monomials X[i][j] of x_i + sum_j X[i][j] y_j.

    Each coefficient is the dense ``w_eval`` of the Fraction rows it multiplies.
    """
    xs = [dense(L, row) for row in base.rows]
    ys = [dense(L, row) for row in complement.rows]
    polynomials = []
    for triple in itertools.combinations(range(len(xs)), 3):
        poly = {}
        slots = [[((), xs[i])] + [(((i, j),), y) for j, y in enumerate(ys)] for i in triple]
        for (m1, v1), (m2, v2), (m3, v3) in itertools.product(*slots):
            mono = tuple(sorted(m1 + m2 + m3))
            poly[mono] = poly.get(mono, Fraction(0)) + w_eval(L, v1, v2, v3)
        polynomials.append({mono: c for mono, c in poly.items() if c})
    return polynomials


# ---------------------------------------------------------------------------
# the transpose relation on dense Fraction matrices


def det(m: list) -> Fraction:
    """Determinant by Gaussian elimination over Fraction, dividing by each pivot."""
    n = len(m)
    work = [[frac(x) for x in row] for row in m]
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((k for k in range(c, n) if work[k][c]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = 1 / work[c][c]
        for k in range(c + 1, n):
            f = work[k][c]
            if f:
                fk = f * inv
                for j in range(c, n):
                    work[k][j] -= fk * work[c][j]
    return result


def matmul(a: list, b: list) -> list[list[Fraction]]:
    """The product by the triple loop over i, k and j, summed in Fraction, skipping zero factors."""
    out = [[Fraction(0)] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
    return out


_OPERATORS = {"delta": (exterior.delta, 3), "delta_star": (exterior.delta_star, -3)}


def graded_matrix(L, name: str, k: int) -> list[list[Fraction]]:
    """The Fraction matrix of ``delta`` or ``delta_star`` at degree k, from the rational terms of each image."""
    fn, shift = _OPERATORS[name]
    index = exterior.key_index_map(L, k + shift)
    keys = exterior.degree_keys(L, k)
    entries = [[Fraction(0)] * len(keys) for _ in index]
    for col, key in enumerate(keys):
        for out_key, val in fn(exterior.MultiVector.over(L, k, {key: 1})).terms.items():
            entries[index[out_key]][col] = val
    return entries


def pairing_matrix(L, k: int) -> list[list[Fraction]]:
    """Gram determinants of the Fraction kappa on degree-k basis wedges.

    A Leibniz term picks one nonzero kappa entry in each factor's row, in
    distinct columns, so a wedge pairs only with the sets of such columns;
    every other entry is zero.
    """
    keys = exterior.degree_keys(L, k)
    index = exterior.key_index_map(L, k)
    entries = [[Fraction(0)] * len(keys) for _ in keys]
    for row_idx, key in enumerate(keys):
        bits = exterior._bits(key)
        for partners in itertools.product(*(L.kappa[i] for i in bits)):
            if len(set(partners)) == len(bits):
                col_idx = index[sum(1 << j for j in partners)]
                other = exterior._bits(keys[col_idx])
                entries[row_idx][col_idx] = det([[L.kappa[i].get(j, 0) for j in other] for i in bits])
    return entries


def transpose_identity_sign(L) -> int | None:
    """Sign s with M(contraction at d)^T G_{d-3} = s G_d M(wedge at d-3) in Fractions, or None."""
    low = L.d - 3
    if low < 0:
        return 1
    lhs = matmul(transpose(graded_matrix(L, "delta_star", L.d)), pairing_matrix(L, low))
    rhs = matmul(pairing_matrix(L, L.d), graded_matrix(L, "delta", low))
    if lhs == rhs:
        return 1
    if lhs == [[-x for x in row] for row in rhs]:
        return -1
    return None
