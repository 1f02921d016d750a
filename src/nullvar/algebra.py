"""Semisimple Lie algebras in a Chevalley basis built from the root datum alone.

Structure constants are computed from the positive roots and their inner
products (see ``build_algebra``); they are integers, held as Fractions.  The
Killing form ``kappa`` is the ad-trace form recomputed from them, held as
sparse symmetric rows, and the trilinear form is w(x, y, z) = kappa([x, y], z).
Everything derived from the two (the inverse form, the table of w) is built
on first use and cached per algebra by ``per_algebra``, which the exterior
operators and the suites use too.  The structure checks are written with
``bracket``, the one pairing ``kappa_pair`` and ``w_eval``, so they test the
code paths that every other suite reads.

Basis order: h_1..h_l (the simple coroots), then x_alpha for positive roots
by height, then x_{-alpha} in the same order.  Each (x_alpha, x_{-alpha},
[x_alpha, x_{-alpha}]) is an sl2-triple with alpha([x_alpha, x_{-alpha}]) = 2.

A coordinate vector is sparse: a dict from basis index to its nonzero
Fraction coordinate, so a zero coordinate is an absent key.  A ``Subspace``
holds its canonical reduced echelon rows in the same form, straight from the
integer elimination of ``linalg``; the dense form appears only in its JSON.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .linalg import (
    Matrix,
    combine,
    echelon_rows,
    frac,
    integer_rows,
    inverse,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
)
from .roots import RootDatum

Vector = dict[int, Fraction]  # basis index -> nonzero coordinate


class StructureError(AssertionError):
    """A structural identity of the algebra failed to hold."""


class InvolutionError(ValueError):
    """Sign data cannot be extended to a Lie algebra involution."""


# ---------------------------------------------------------------------------
# the algebra proper


def per_algebra(build):
    """Cache ``build(L, *args)`` in ``L._cache``, built on the first call.

    The key is the builder's name, with the arguments after it when there are
    any, so a table built from ``L`` alone is ``L._cache[name]``.  Methods of
    ``LieAlgebra`` take it too, with ``self`` as ``L``.
    """
    name = build.__name__

    @functools.wraps(build)
    def cached(L, *args):
        key = (name, *args) if args else name
        if key not in L._cache:
            L._cache[key] = build(L, *args)
        return L._cache[key]

    return cached


class LieAlgebra:
    """Basis-indexed structure constants with derived Killing and trilinear forms.

    Attributes are read-only by convention.  Derived data (kappa, its inverse,
    the table of w on basis triples) is recomputed from the bracket table, so
    a corrupted table yields an algebra whose verification suites fail.
    ``kappa[i]`` maps each j to the nonzero kappa(b_i, b_j).
    """

    def __init__(self, rd: RootDatum, weights, brackets):
        self.rd = rd
        self.g = rd.g
        self.l = rd.rank
        self.d = rd.d
        self.n_pos = rd.n_positive
        self.weights = tuple(tuple(w) for w in weights)
        # brackets[i][j]: dict k -> coefficient of b_k in [b_i, b_j]
        self.brackets = brackets
        if len(self.weights) != self.g:
            raise ValueError("basis size mismatch")
        self.kappa = self._ad_trace_form()
        self._cache: dict = {}

    # -- index layout -------------------------------------------------------

    def pos_index(self, a: int) -> int:
        """Basis index of x_alpha for the a-th positive root."""
        return self.l + a

    def neg_index(self, a: int) -> int:
        """Basis index of x_{-alpha} for the a-th positive root."""
        return self.l + self.n_pos + a

    def partner(self, i: int) -> int | None:
        """Index pairing x_alpha with x_{-alpha}; None on the Cartan part."""
        if i < self.l:
            return None
        if i < self.l + self.n_pos:
            return i + self.n_pos
        return i - self.n_pos

    def basis_vector(self, i: int) -> Vector:
        return {i: Fraction(1)}

    # -- brackets and forms ---------------------------------------------------

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y], summed from the bracket table over the nonzero coordinates."""
        return combine((a * b, self.brackets[i][j]) for i, a in x.items() for j, b in y.items())

    def _ad_trace_form(self) -> tuple[Vector, ...]:
        """kappa(b_i, b_j) = tr(ad b_i ad b_j), summed over the bracket table, as sparse rows."""
        g = self.g
        rows: list[Vector] = [{} for _ in range(g)]
        for i, j in itertools.combinations_with_replacement(range(g), 2):
            row_i, row_j = self.brackets[i], self.brackets[j]
            acc = Fraction(0)
            for k in range(g):
                for m, c in row_i[k].items():
                    if k in row_j[m]:
                        acc += c * row_j[m][k]
            if acc:
                rows[i][j] = rows[j][i] = acc
        return tuple(rows)

    def kappa_pair(self, x: Vector, y: Vector) -> Fraction:
        """kappa(x, y), summed over the entries of the rows of kappa at x that meet y."""
        return sum((a * c * y[j] for i, a in x.items() for j, c in self.kappa[i].items() if j in y), Fraction(0))

    @per_algebra
    def _dual_rows(self) -> tuple[Vector, ...]:
        """The rows of the inverse of kappa, inverted densely through ``linalg.inverse``."""
        g = self.g
        return inverse(Matrix.from_rows([[row.get(j, 0) for j in range(g)] for row in self.kappa])).sparse_rows()

    def dual_basis_vector(self, i: int) -> Vector:
        """Vector b^i with kappa(b^i, b_j) = delta_ij: row i of the inverse form."""
        return self._dual_rows()[i]

    @property
    @per_algebra
    def w_table(self) -> dict[tuple[int, int, int], Fraction]:
        """Nonzero values w(b_i, b_j, b_k) = kappa([b_i, b_j], b_k) on ascending basis triples."""
        table = {}
        for i, j, k in itertools.combinations(range(self.g), 3):
            if val := self.kappa_pair(self.brackets[i][j], self.basis_vector(k)):
                table[i, j, k] = val
        return table

    @per_algebra
    def _w_by_first(self) -> dict[int, list[tuple[int, int, Fraction]]]:
        """``(b, c, w(b_a, b_b, b_c))`` for each first index a: the table extended by alternation."""
        by_first: dict[int, list[tuple[int, int, Fraction]]] = {}
        for (i, j, k), val in self.w_table.items():
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                by_first.setdefault(a, []).extend(((b, c, val), (c, b, -val)))
        return by_first

    def w_eval(self, x: Vector, y: Vector, z: Vector) -> Fraction:
        """w(x, y, z) = kappa([x, y], z) for arbitrary coordinate vectors.

        Sums w(b_a, b_b, b_c) x_a y_b z_c over the nonzero table entries whose
        three coordinates are all nonzero, so sparse arguments cost little.
        """
        by_first = self._w_by_first()
        acc = Fraction(0)
        for a, xa in x.items():
            for b, c, val in by_first.get(a, ()):
                yb = y.get(b)
                if yb is not None:
                    zc = z.get(c)
                    if zc is not None:
                        acc += val * xa * yb * zc
        return acc

    # -- root bookkeeping ----------------------------------------------------

    def decomposition(self, a: int) -> tuple[int, int]:
        """The fixed decomposition gamma = alpha + beta of a non-simple positive root: the
        first of ``all_decompositions``, alpha the first positive root with gamma - alpha positive."""
        decomps = self.all_decompositions(a)
        if not decomps:
            raise StructureError(f"positive root {self.rd.positive_roots[a]} admits no decomposition")
        return decomps[0]

    def all_decompositions(self, a: int) -> list[tuple[int, int]]:
        gamma = self.rd.positive_roots[a]
        pos = self.rd.positive_roots
        pos_set = {r: idx for idx, r in enumerate(pos)}
        out = []
        for b, alpha in enumerate(pos):
            rest = tuple(gc - ac for gc, ac in zip(gamma, alpha))
            idx = pos_set.get(rest)
            if idx is not None and b <= idx:
                out.append((b, idx))
        return out

    def n_constant(self, i: int, j: int) -> Fraction:
        """Coefficient N with [b_i, b_j] = N x_{gamma} for root vectors, gamma the root sum."""
        br = self.brackets[i][j]
        nonzero = [(k, c) for k, c in br.items() if c]
        if len(nonzero) != 1:
            raise StructureError(f"bracket of indices {i},{j} is not a single root vector")
        return nonzero[0][1]

    def with_corrupted_constant(self, i: int, j: int, k: int, amount=1) -> "LieAlgebra":
        """Copy with C_{ij}^k shifted by ``amount`` (antisymmetry preserved).

        ``i == j`` raises ``ValueError``: C_ii^k would be shifted by ``amount`` and
        back, leaving the algebra unchanged.
        """
        if i == j:
            raise ValueError(f"corrupting C_ii^k leaves the algebra unchanged (i = j = {i})")
        amount = frac(amount)
        brackets = [[dict(cell) for cell in row] for row in self.brackets]

        def bump(a, b, delta):
            new = brackets[a][b].get(k, Fraction(0)) + delta
            if new:
                brackets[a][b][k] = new
            else:
                brackets[a][b].pop(k, None)

        bump(i, j, amount)
        bump(j, i, -amount)
        return LieAlgebra(self.rd, self.weights, brackets)


def _standard_weights(rd: RootDatum):
    zero = (0,) * rd.rank
    weights = [zero] * rd.rank
    weights += [tuple(r) for r in rd.positive_roots]
    weights += [tuple(-c for c in r) for r in rd.positive_roots]
    return tuple(weights)


def build_algebra(rd: RootDatum) -> LieAlgebra:
    """Chevalley basis of the root datum, with structure constants from the roots alone.

    [h_i, x_a] = <a, a_i^v> x_a, [x_a, x_-a] = h_a = sum_i c_i (a_i,a_i)/(a,a) h_i
    for a = sum_i c_i a_i, and [x_a, x_b] = N_{a,b} x_{a+b}.  N = +(p+1) on
    each extraspecial pair, p the largest integer with b - p a a root; every
    other N follows from N_{b,a} = -N_{a,b}, N_{-a,-b} = -N_{a,b}, the cyclic
    rule N_{a,b}/(c,c) = N_{b,c}/(a,a) for a + b + c = 0, and the four-root
    relation (Carter, Simple Groups of Lie Type, 1972, 4.1-4.2).
    """
    l, pos = rd.rank, rd.positive_roots
    positive = set(pos)
    roots = list(pos) + [_neg(r) for r in pos]
    is_root = set(roots)
    norm = {r: rd.inner(r, r) for r in roots}

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    table: dict[tuple, Fraction] = {}  # N on pairs of positive roots

    def n(a, b) -> Fraction:
        """N_{a,b} for roots a, b whose sum is a root."""
        c = _neg(add(a, b))
        if (a in positive) == (b in positive):
            return table[a, b] if a in positive else -table[_neg(a), _neg(b)]
        if (b in positive) == (c in positive):
            return norm[c] / norm[a] * n(b, c)
        return norm[c] / norm[b] * n(c, a)

    def term(a, b, c, e) -> Fraction:
        """N_{a,b} N_{c,e} / (a+b, a+b), or 0 when a + b is not a root."""
        s = add(a, b)
        return n(a, b) * n(c, e) / norm[s] if s in is_root else Fraction(0)

    # positive roots come by height, so every N a pair below needs is known
    for xi in pos:
        pairs = [(a, b) for a in pos if (b := add(xi, _neg(a))) in positive]
        if not pairs:
            continue
        gam, dl = pairs[0]  # the extraspecial pair: its first root is least
        p, s = 0, add(dl, _neg(gam))
        while s in is_root:
            p, s = p + 1, add(s, _neg(gam))
        table[gam, dl], table[dl, gam] = Fraction(p + 1), Fraction(-p - 1)
        mg, md = _neg(gam), _neg(dl)
        for a, b in pairs:
            if (a, b) not in table:
                # four-root relation on a + b - gam - dl = 0
                table[a, b] = norm[xi] / table[gam, dl] * (term(b, mg, a, md) + term(mg, a, b, md))
                table[b, a] = -table[a, b]

    g = rd.g
    index = {r: l + k for k, r in enumerate(roots)}
    simple = [tuple(int(k == i) for k in range(l)) for i in range(l)]
    brackets = [[{} for _ in range(g)] for _ in range(g)]

    def put(i, j, terms):
        brackets[i][j] = terms
        brackets[j][i] = {k: -c for k, c in terms.items()}

    for i, a_i in enumerate(simple):
        for r in roots:
            if c := 2 * rd.inner(r, a_i) / norm[a_i]:
                put(i, index[r], {index[r]: c})
    for k, a in enumerate(roots):
        for b in roots[k + 1:]:
            s = add(a, b)
            if not any(s):
                put(index[a], index[b], {i: c * norm[a_i] / norm[a] for i, (c, a_i) in enumerate(zip(a, simple)) if c})
            elif s in is_root:
                put(index[a], index[b], {index[s]: n(a, b)})

    return LieAlgebra(rd, _standard_weights(rd), brackets)


def _neg(root) -> tuple[int, ...]:
    return tuple(-c for c in root)


# ---------------------------------------------------------------------------
# validation suites over all basis triples


def check_antisymmetry(L: LieAlgebra) -> list[tuple]:
    bad = []
    for i in range(L.g):
        for j in range(L.g):
            lhs = L.brackets[i][j]
            rhs = L.brackets[j][i]
            if set(lhs) != set(rhs) or any(lhs[k] != -rhs[k] for k in lhs):
                bad.append((i, j))
    return bad


def _basis_brackets(L: LieAlgebra) -> tuple[list[Vector], list[list[Vector]]]:
    """The basis vectors b_i and the brackets [b_i, b_j], as sparse vectors."""
    e = [L.basis_vector(i) for i in range(L.g)]
    return e, [[L.bracket(x, y) for y in e] for x in e]


def check_jacobi(L: LieAlgebra) -> list[tuple]:
    """Ascending basis triples violating [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j] = 0."""
    e, br = _basis_brackets(L)
    return [
        (i, j, k)
        for i, j, k in itertools.combinations(range(L.g), 3)
        if combine((1, L.bracket(br[a][b], e[c])) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
    ]


def check_kappa_invariance(L: LieAlgebra) -> list[tuple]:
    """Basis triples violating kappa([b_i,b_j],b_k) = -kappa(b_j,[b_i,b_k])."""
    e, br = _basis_brackets(L)
    return [
        (i, j, k)
        for i, j, k in itertools.product(range(L.g), repeat=3)
        if L.kappa_pair(br[i][j], e[k]) + L.kappa_pair(e[j], br[i][k])
    ]


def check_w_antisymmetry(L: LieAlgebra) -> list[tuple]:
    """Ordered basis triples where kappa([b_i,b_j],b_k) differs from ``w_eval``, the alternating table."""
    e, br = _basis_brackets(L)
    return [
        (i, j, k)
        for i, j, k in itertools.product(range(L.g), repeat=3)
        if L.kappa_pair(br[i][j], e[k]) != L.w_eval(e[i], e[j], e[k])
    ]


def check_root_space_pairing(L: LieAlgebra) -> list[tuple]:
    """Failures of kappa(h, x_a) = 0 and kappa(x_a, x_b) = 0 unless b = -a, and of kappa(x_a, x_-a) != 0."""
    bad = []
    for i, j in itertools.combinations_with_replacement(range(L.g), 2):
        nonzero = j in L.kappa[i]
        if all(a + b == 0 for a, b in zip(L.weights[i], L.weights[j])):
            if i >= L.l and not nonzero:
                bad.append((i, j))  # root pairing must be nonzero
        elif nonzero:
            bad.append((i, j))
    return bad


def check_kappa_root_form(L: LieAlgebra) -> list[tuple]:
    """Basis pairs where kappa differs from the form the root datum gives alone.

    kappa(h_i, h_j) = 4(a_i,a_j)/((a_i,a_i)(a_j,a_j)), kappa(x_a, x_-a) = 2/(a,a)
    and 0 elsewhere, with ( , ) the Killing-normalized product ``rd.inner``.
    """
    rd = L.rd
    simple = [tuple(int(k == i) for k in range(L.l)) for i in range(L.l)]

    def expected(i, j) -> Fraction:
        if i < L.l and j < L.l:
            a, b = simple[i], simple[j]
            return 4 * rd.inner(a, b) / (rd.inner(a, a) * rd.inner(b, b))
        if L.partner(i) == j:
            return 2 / rd.inner(L.weights[i], L.weights[i])
        return Fraction(0)

    return [(i, j) for i in range(L.g) for j in range(i, L.g) if L.kappa[i].get(j, 0) != expected(i, j)]


def bracket_defect(L: LieAlgebra, images: list[Vector]) -> tuple[int, int] | None:
    """The first ordered basis pair (a, b) with phi[b_a, b_b] != [phi b_a, phi b_b], or None.

    phi is the linear map sending b_j to images[j]; None means it preserves
    every bracket of the table.
    """
    for a, b in itertools.product(range(L.g), repeat=2):
        if combine((c, images[m]) for m, c in L.brackets[a][b].items()) != L.bracket(images[a], images[b]):
            return a, b
    return None


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Subspace of the algebra, held as its canonical reduced echelon rows.

    ``rows`` are sparse vectors, each 1 at its pivot and 0 at every other
    pivot, in pivot order; equal subspaces have equal rows.
    """

    def __init__(self, L: LieAlgebra, rows):
        rows = list(rows)
        if any(not 0 <= j < L.g for row in rows for j in row):
            raise ValueError("ambient dimension mismatch")
        self.L = L
        self.rows, self.pivots = echelon_rows(integer_rows(rows))
        self.dim = len(self.pivots)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.L is other.L and self.rows == other.rows

    def contains(self, vector: Vector) -> bool:
        """Reduce ``vector`` by each echelon row at its pivot; it lies in S iff nothing is left."""
        if any(not 0 <= j < self.L.g for j in vector):
            raise ValueError("ambient dimension mismatch")
        v = vector
        for row, p in zip(self.rows, self.pivots):
            c = v.get(p)
            if c:
                v = combine(((1, v), (-c, row)))
        return not v

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.L, self.rows + other.rows)

    def to_json(self) -> dict:
        g = self.L.g
        dense = Matrix(self.dim, g, tuple(row.get(j, Fraction(0)) for row in self.rows for j in range(g)))
        return matrix_to_json(dense) | {"dim": self.dim}

    @staticmethod
    def from_json(L: LieAlgebra, data: dict) -> "Subspace":
        mat = matrix_from_json(data)
        if mat.cols != L.g:
            raise ValueError("ambient dimension mismatch")
        sub = Subspace(L, mat.sparse_rows())
        # type(...) is int: a JSON true or 1.0 would compare equal to a rank of 1
        if "dim" in data and (type(data["dim"]) is not int or sub.dim != data["dim"]):
            raise ValueError("declared dimension is not the integer rank of the basis")
        return sub


def standard_borel(L: LieAlgebra) -> Subspace:
    rows = [L.basis_vector(i) for i in range(L.l)]
    rows += [L.basis_vector(L.pos_index(a)) for a in range(L.n_pos)]
    return Subspace(L, rows)


def root_pair_plane(L: LieAlgebra, a: int) -> Subspace:
    return Subspace(L, [L.basis_vector(L.pos_index(a)), L.basis_vector(L.neg_index(a))])


def orthogonal_complement(L: LieAlgebra, S: Subspace) -> Subspace:
    """Kappa-orthogonal complement: the kernel of the rows of S times kappa.

    dim S + dim complement = g when kappa is nondegenerate.
    """
    rows = [combine((x, L.kappa[j]) for j, x in row.items()) for row in S.rows]
    return Subspace(L, kernel_basis(integer_rows(rows), L.g))


# ---------------------------------------------------------------------------
# involutions


class Involution:
    """Automorphism of order two acting as -id on the Cartan subalgebra.

    sigma is h -> -h, x_alpha -> t_alpha x_{-alpha}, x_{-alpha} -> x_alpha / t_alpha,
    a signed permutation of the basis fixed by the numbers t_alpha.
    """

    def __init__(self, L: LieAlgebra, signs):
        self.L = L
        self.signs = tuple(signs)  # t_alpha per positive root

    def _root_pairs(self, sign) -> list[Vector]:
        """x_alpha + sign * t_alpha x_{-alpha} for each positive root alpha."""
        L = self.L
        return [{L.pos_index(a): Fraction(1), L.neg_index(a): sign * t} for a, t in enumerate(self.signs)]

    def fixed_subspace(self) -> Subspace:
        """sigma v = v: spanned by the x_alpha + t_alpha x_{-alpha}."""
        return Subspace(self.L, self._root_pairs(1))

    def minus_subspace(self) -> Subspace:
        """sigma v = -v: spanned by the h_i and the x_alpha - t_alpha x_{-alpha}."""
        return Subspace(self.L, [self.L.basis_vector(i) for i in range(self.L.l)] + self._root_pairs(-1))


def build_involution(L: LieAlgebra, simple_signs) -> Involution:
    """Involution with sigma(h) = -h, sigma(x_alpha) = t_alpha x_{-alpha}
    and sigma(x_{-alpha}) = x_alpha / t_alpha.

    One sign t_alpha = +1 or -1 per simple root is free; t_alpha of the
    remaining positive roots is forced by the automorphism property.  It is
    a nonzero rational, a unit when the root vectors are Chevalley
    normalized (as ``build_algebra`` builds them), and sigma squared is the
    identity either way.  sigma is the signed permutation sigma(b_i) =
    c_i b_pi(i), and ``bracket_defect`` checks it on every ordered basis pair.
    """
    simple_signs = tuple(int(s) for s in simple_signs)
    if len(simple_signs) != L.l or any(s not in (1, -1) for s in simple_signs):
        raise InvolutionError("need one sign in {+1,-1} per simple root")
    signs: list[Fraction | None] = [Fraction(s) for s in simple_signs] + [None] * (L.n_pos - L.l)
    for a in range(L.l, L.n_pos):
        b, c = L.decomposition(a)  # two lower roots: the positive roots come by height
        n_pp = L.n_constant(L.pos_index(b), L.pos_index(c))
        n_mm = L.n_constant(L.neg_index(b), L.neg_index(c))
        signs[a] = signs[b] * signs[c] * n_mm / n_pp

    perm = list(range(L.l)) + [L.partner(i) for i in range(L.l, L.g)]
    scale = [Fraction(-1)] * L.l + signs + [1 / t for t in signs]
    defect = bracket_defect(L, [{perm[i]: scale[i]} for i in range(L.g)])
    if defect is not None:
        raise InvolutionError("sigma fails to be an automorphism on (%d,%d)" % defect)
    return Involution(L, signs)
