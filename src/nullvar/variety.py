"""The variety of maximal nullspaces: predicate, chart, orbits, degenerations.

A maximal nullspace containing the standard Cartan subalgebra is the Cartan
plus one line inside each plane x_alpha, x_{-alpha}.  The chart fixes one free
parameter per simple root; ``chart_lines`` cuts the line over a non-simple
positive root gamma out of its plane by the vanishing of w against the lines
of one decomposition gamma = alpha + beta, and ``chart_disagreements`` names
the roots where another decomposition cuts out another line.  Zero parameters
are allowed and land on orbit boundary strata: the stratum of a chart point is
the set of its nonzero parameters, which ``parabolic_profile`` recovers from
the subspace alone.

The local picture at the Borel goes through one sparse operator
D(v1 ^ v2 ^ v3) = v1 (x) [v2,v3] + v2 (x) [v3,v1] + v3 (x) [v1,v2]: ``_d``
gives its value on a basis triple, summed from the structure constants, and
both its corank and its grading relations read D from there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, StructureError, Subspace, Vector, standard_borel
from .linalg import combine, echelon_rows, frac, integer_terms, rank


class NotInVarietyError(ValueError):
    """Input subspace is not a maximal nullspace."""


def is_nullspace(L: LieAlgebra, S: Subspace) -> bool:
    """True iff w vanishes on all triples of basis rows of S, each row scaled to integers, which keeps every zero."""
    rows = [integer_terms(row)[1] for row in S.rows]
    return not any(L.w_eval(*triple) for triple in itertools.combinations(rows, 3))


def _line_vector(L: LieAlgebra, a: int, t: Fraction) -> Vector:
    """x_alpha + t x_{-alpha} for the a-th positive root alpha."""
    return {L.pos_index(a): Fraction(1), L.neg_index(a): t} if t else {L.pos_index(a): Fraction(1)}


def _kernel_line(L: LieAlgebra, v_alpha: Vector, v_beta: Vector, a: int) -> Vector:
    """Line in the plane of the a-th positive root killed by w(v_alpha, v_beta, .)."""
    fp = L.w_eval(v_alpha, v_beta, L.basis_vector(L.pos_index(a)))
    fn = L.w_eval(v_alpha, v_beta, L.basis_vector(L.neg_index(a)))
    if fp == 0 and fn == 0:
        raise StructureError(
            f"restricted form vanishes on the plane of root {L.rd.positive_roots[a]}"
        )
    if fn == 0:
        return L.basis_vector(L.neg_index(a))
    return _line_vector(L, a, -fp / fn)


def chart_lines(L: LieAlgebra, t) -> list[Vector]:
    """The line in each root plane at the chart parameters t, one parameter per simple root.

    lines[a] spans the line over the a-th positive root: x_alpha + t_alpha
    x_{-alpha} for a simple root, and above it the line killed by w against
    the lines of one decomposition.
    """
    t = tuple(frac(x) for x in t)
    if len(t) != L.l:
        raise ValueError("need one parameter per simple root")
    lines: list[Vector] = []
    for a in range(L.n_pos):
        if a < L.l:
            lines.append(_line_vector(L, a, t[a]))
        else:
            b, c = L.decomposition(a)
            lines.append(_kernel_line(L, lines[b], lines[c], a))
    return lines


def chart(L: LieAlgebra, t) -> Subspace:
    """Nullspace chart: the Cartan plus the line in each root plane."""
    return Subspace(L, [L.basis_vector(i) for i in range(L.l)] + chart_lines(L, t))


def chart_disagreements(L: LieAlgebra, t) -> list[tuple[int, ...]]:
    """The non-simple roots with a decomposition whose derived line is not the chart's."""
    lines = chart_lines(L, t)
    return [
        L.rd.positive_roots[a]
        for a in range(L.l, L.n_pos)
        if any(_kernel_line(L, lines[b], lines[c], a) != lines[a] for b, c in L.all_decompositions(a))
    ]


def parabolic_closure(L: LieAlgebra, V: Subspace) -> Subspace:
    """V + [V, V]; raises NotInVarietyError if the result is not a subalgebra."""
    p = Subspace(L, V.rows + tuple(L.bracket(x, y) for x, y in itertools.combinations(V.rows, 2)))
    if not all(p.contains(L.bracket(x, y)) for x, y in itertools.combinations(p.rows, 2)):
        raise NotInVarietyError("V + [V,V] is not closed under the bracket")
    return p


def parabolic_profile(L: LieAlgebra, V: Subspace) -> tuple[int, tuple[int, ...]]:
    """(dim of the parabolic closure, simple roots whose negative space it contains).

    For a chart point the second component recovers, from the subspace alone,
    the simple roots whose chart parameter is nonzero: the orbit stratum.
    """
    p = parabolic_closure(L, V)
    included = tuple(
        a for a in range(L.l) if p.contains(L.basis_vector(L.neg_index(a)))
    )
    return p.dim, included


# ---------------------------------------------------------------------------
# one-parameter degenerations


def _grading(L: LieAlgebra, weight) -> list[int]:
    """Integer grade of each basis vector under the coweight with alpha_i value weight[i]."""
    weight = tuple(int(x) for x in weight)
    if len(weight) != L.l:
        raise ValueError("need one integer per simple root")
    grades = []
    for i in range(L.g):
        grades.append(sum(c * m for c, m in zip(L.weights[i], weight)))
    for a, root in enumerate(L.rd.positive_roots):
        if grades[L.pos_index(a)] == 0:
            raise ValueError(f"weight is not regular: root {root} pairs to zero")
    return grades


def degenerate(L: LieAlgebra, V: Subspace, weight) -> Subspace:
    """Limit of V under the one-parameter flow graded by ``weight``.

    Within each basis vector the components of top grade survive; a dominant
    regular weight (all entries positive) therefore drives a generic chart
    point onto the standard Borel subalgebra, an anti-dominant one onto the
    opposite Borel.  The result is graded, hence stable under the Cartan, and
    degeneration preserves dimension and the nullspace property.
    """
    grades = _grading(L, weight)
    # echelon rows over columns of descending grade pivot at their top grade,
    # and their top-grade parts stay independent: each is nonzero at its own
    # pivot and zero at every other
    order = sorted(range(L.g), key=lambda i: -grades[i])
    column = {i: c for c, i in enumerate(order)}
    red, pivots = echelon_rows([{column[i]: x for i, x in row.items()} for row in V.rows])
    limit = []
    for row, p in zip(red, pivots):
        top = grades[order[p]]
        limit.append({order[c]: x for c, x in row.items() if grades[order[c]] == top})
    return Subspace(L, limit)


# ---------------------------------------------------------------------------
# the D operator and the cubic local equations


def _slot(L: LieAlgebra, i: int, j: int, k: int) -> dict[tuple[int, int], Fraction]:
    """b_i (x) [b_j, b_k] as (first factor index, m) -> coefficient."""
    return {(i, m): c for m, c in L.brackets[j][k].items()}


def _d(L: LieAlgebra, i: int, j: int, k: int) -> dict[tuple[int, int], Fraction]:
    """D(b_i ^ b_j ^ b_k) = b_i (x) [b_j,b_k] + b_j (x) [b_k,b_i] + b_k (x) [b_i,b_j]."""
    return combine((1, _slot(L, a, b, c)) for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))


def d_operator_corank(L: LieAlgebra) -> int:
    """Corank of D: wedge^3 b -> b (x) [b, b] for the standard Borel."""
    borel_idx = standard_borel(L).pivots
    borel_pos = {idx: s for s, idx in enumerate(borel_idx)}
    nil_col = {L.pos_index(a): a for a in range(L.n_pos)}
    target_dim = len(borel_idx) * L.n_pos
    rows = []
    for triple in itertools.combinations(borel_idx, 3):
        row = {}
        for (a, m), c in _d(L, *triple).items():
            if m not in nil_col:
                raise StructureError("bracket of Borel elements left the nilradical")
            row[borel_pos[a] * L.n_pos + nil_col[m]] = c
        rows.append(row)
    corank = target_dim - rank(rows)
    if corank > L.d:
        raise StructureError(f"D operator corank {corank} exceeds {L.d}")
    return corank


Monomial = tuple[tuple[int, int], ...]  # sorted variable ids (i, j)


@dataclass(frozen=True)
class CubicSystem:
    """The cubic polynomials cutting the variety out of a chart of the Grassmannian.

    Variables X[i][j] describe the graph subspace spanned by
    x_i + sum_j X[i][j] y_j over the base rows x_i and complement rows y_j.
    One polynomial per ascending triple of base rows; evaluating at X = 0
    returns w on the corresponding base triple.
    """

    L: LieAlgebra
    base: Subspace
    complement: Subspace
    polynomials: tuple[dict[Monomial, Fraction], ...]

    @property
    def n_vars(self) -> int:
        return self.base.dim * self.complement.dim

    def jacobian_at_zero(self) -> list[Vector]:
        """The degree-one coefficients as sparse rows, X[i][j] at column i * m + j; rows follow the triple order."""
        m = self.complement.dim
        return [
            {i * m + j: c for mono, c in poly.items() if len(mono) == 1 for i, j in mono} for poly in self.polynomials
        ]


def local_equations(L: LieAlgebra, base: Subspace, complement: Subspace) -> CubicSystem:
    """Cubic equations of the variety on the chart defined by base and complement.

    Each w value is taken on the rows' integer numerators and divided once by their three denominators.
    """
    if base.dim + complement.dim != L.g or base.add(complement).dim != L.g:
        raise ValueError("base and complement do not decompose the algebra")
    if base.dim != L.d:
        raise ValueError(f"base must have dimension {L.d}")
    xs = [integer_terms(row) for row in base.rows]
    ys = [integer_terms(row) for row in complement.rows]
    polynomials = []
    for triple in itertools.combinations(range(len(xs)), 3):
        poly: dict[Monomial, Fraction] = {}
        # each slot is the base row x_i or one of the complement rows y_j, with X[i][j] as its monomial
        slots = [[((), *xs[i])] + [(((i, j),), *y) for j, y in enumerate(ys)] for i in triple]
        for m1, s1, v1 in slots[0]:
            for m2, s2, v2 in slots[1]:
                for m3, s3, v3 in slots[2]:
                    val = L.w_eval(v1, v2, v3)
                    if not val:
                        continue
                    mono = tuple(sorted(m1 + m2 + m3))
                    new = poly.get(mono, 0) + val / (s1 * s2 * s3)
                    if new:
                        poly[mono] = new
                    else:
                        poly.pop(mono, None)
        polynomials.append(poly)
    return CubicSystem(L, base, complement, tuple(polynomials))


def coordinate_complement(L: LieAlgebra, base: Subspace) -> Subspace:
    """Complement spanned by the unit vectors at the non-pivot columns of base."""
    pivot_set = set(base.pivots)
    rows = [L.basis_vector(j) for j in range(L.g) if j not in pivot_set]
    return Subspace(L, rows)


def jacobian_corank_at(L: LieAlgebra, base: Subspace) -> int:
    """Corank of the local equation Jacobian at the chart origin of ``base``.

    The base point must lie in the variety (nullspace of dimension d); equals
    d at every point by smoothness, which the suites verify.
    """
    if base.dim != L.d or not is_nullspace(L, base):
        raise NotInVarietyError("base point is not a maximal nullspace")
    complement = coordinate_complement(L, base)
    system = local_equations(L, base, complement)
    return system.n_vars - rank(system.jacobian_at_zero())


def check_d_relations(L: LieAlgebra) -> bool:
    """Identities relating D to the root grading on the Borel, checked exactly.

    For h, k Cartan and positive roots alpha, beta:
      alpha(k) h (x) x_a = D(h ^ k ^ x_a) + alpha(h) k (x) x_a        for all h, k;
      alpha(h) x_a (x) x_b = D(h ^ x_a ^ x_b) + beta(h) x_b (x) x_a
                             - h (x) [x_a, x_b]                        when (a+b)(h) = 0;
      N x_c (x) x_c = D(x_c ^ x_a ^ x_b) - x_a (x) [x_b, x_c]
                      + x_b (x) [x_a, x_c]                             for c = a+b a root,
    with N the coefficient of x_c in [x_a, x_b].  The second and third only
    hold after the specialization their derivation uses; they are checked in
    that specialized form.  Each side is linear in each Cartan argument, so
    finite checks on basis indices decide them: the first on every pair of
    Cartan basis vectors (h_i, h_j), the second on the vectors
    s_j h_i - s_i h_j with s_p = (a+b)(h_p), i < j, which span the kernel of
    a+b, expanded as s_j (the identity at h_i) - s_i (the identity at h_j),
    and the third on every pair of positive roots.  alpha(h_p) is read off
    [h_p, x_a].
    """

    def alpha(a: int, p: int) -> Fraction:
        x = L.pos_index(a)
        return L.brackets[p][x].get(x, Fraction(0))

    for a in range(L.n_pos):
        xa = L.pos_index(a)
        for i, j in itertools.product(range(L.l), repeat=2):
            if combine([(alpha(a, j), {(i, xa): 1}), (-alpha(a, i), {(j, xa): 1}), (-1, _d(L, i, j, xa))]):
                return False
    pos_set = {r: i for i, r in enumerate(L.rd.positive_roots)}
    for a, b in itertools.permutations(range(L.n_pos), 2):
        xa, xb = L.pos_index(a), L.pos_index(b)
        gaps = [  # lhs - rhs of the second identity at h_p
            combine([(alpha(a, p), {(xa, xb): 1}), (-alpha(b, p), {(xb, xa): 1}),
                     (-1, _d(L, p, xa, xb)), (1, _slot(L, p, xa, xb))])
            for p in range(L.l)
        ]
        sums = [alpha(a, p) + alpha(b, p) for p in range(L.l)]
        for i, j in itertools.combinations(range(L.l), 2):
            if combine([(sums[j], gaps[i]), (-sums[i], gaps[j])]):
                return False
        c = pos_set.get(tuple(x + y for x, y in zip(L.rd.positive_roots[a], L.rd.positive_roots[b])))
        if c is not None:
            xc = L.pos_index(c)
            n_ab = L.brackets[xa][xb].get(xc, Fraction(0))
            if combine([(n_ab, {(xc, xc): 1}), (-1, _d(L, xc, xa, xb)),
                        (1, _slot(L, xa, xb, xc)), (-1, _slot(L, xb, xa, xc))]):
                return False
    return True


def random_chart_parameters(L: LieAlgebra, rng, nonzero: bool = False):
    draw = rng.randint_nonzero if nonzero else rng.randint
    return tuple(Fraction(draw(-3, 3)) for _ in range(L.l))


def random_subspace(L: LieAlgebra, rng, dim: int) -> Subspace:
    """Random subspace of exact dimension ``dim`` with entries in -3..3."""
    while True:
        # every coordinate is drawn, in row order; the zeros are left out
        rows = [{j: x for j in range(L.g) if (x := rng.randint(-3, 3))} for _ in range(dim)]
        S = Subspace(L, rows)
        if S.dim == dim:
            return S
