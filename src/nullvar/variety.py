"""The variety of maximal nullspaces: predicate, chart, orbits, degenerations.

A maximal nullspace containing the standard Cartan subalgebra is the Cartan
plus one line inside each plane x_alpha, x_{-alpha}.  The chart fixes one free
parameter per simple root; the line over a non-simple positive root gamma is
cut out, inside its plane, by the vanishing of w against the lines of one
decomposition gamma = alpha + beta.  Zero parameters are allowed and land on
orbit boundary strata.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .algebra import LieAlgebra, StructureError, Subspace, standard_borel
from .linalg import Matrix, frac, rank, rref


class NotInVarietyError(ValueError):
    """Input subspace is not a maximal nullspace."""


def is_nullspace(L: LieAlgebra, S: Subspace) -> bool:
    """True iff w vanishes on all triples of basis rows of S."""
    rows = S.basis_rows()
    for i1, i2, i3 in itertools.combinations(range(len(rows)), 3):
        if L.w_eval(rows[i1], rows[i2], rows[i3]) != 0:
            return False
    return True


@dataclass(frozen=True)
class ChartPoint:
    """Chart parameters plus the derived line in each root plane.

    lines[a] is the coordinate vector spanning the line over the a-th positive
    root; for simple roots it is x_alpha + t_alpha x_{-alpha}.
    """

    L: LieAlgebra
    t: tuple[Fraction, ...]
    lines: tuple[tuple[Fraction, ...], ...]

    def subspace(self) -> Subspace:
        rows = [self.L.basis_vector(i) for i in range(self.L.l)]
        rows += [list(line) for line in self.lines]
        return Subspace(self.L, rows)

    def effective_parameters(self) -> tuple[Fraction, ...]:
        """Coefficient of x_{-gamma} in each line, normalized to x_gamma + t x_{-gamma}."""
        out = []
        for a, line in enumerate(self.lines):
            pos = line[self.L.pos_index(a)]
            neg = line[self.L.neg_index(a)]
            if pos == 0:
                raise StructureError("line escaped the chart normal form")
            out.append(neg / pos)
        return tuple(out)


def _line_vector(L: LieAlgebra, a: int, t) -> tuple[Fraction, ...]:
    v = [Fraction(0)] * L.g
    v[L.pos_index(a)] = Fraction(1)
    v[L.neg_index(a)] = frac(t)
    return tuple(v)


def _kernel_line(L: LieAlgebra, v_alpha, v_beta, a: int) -> tuple[Fraction, ...]:
    """Line in the plane of the a-th positive root killed by w(v_alpha, v_beta, .)."""
    xp = L.basis_vector(L.pos_index(a))
    xn = L.basis_vector(L.neg_index(a))
    fp = L.w_eval(v_alpha, v_beta, xp)
    fn = L.w_eval(v_alpha, v_beta, xn)
    if fp == 0 and fn == 0:
        raise StructureError(
            f"restricted form vanishes on the plane of root {L.rd.positive_roots[a]}"
        )
    v = [Fraction(0)] * L.g
    if fn != 0:
        v[L.pos_index(a)] = Fraction(1)
        v[L.neg_index(a)] = -fp / fn
    else:
        v[L.neg_index(a)] = Fraction(1)
    return tuple(v)


def chart_point(L: LieAlgebra, t) -> ChartPoint:
    """Nullspace chart: one parameter per simple root, derived lines above."""
    t = tuple(frac(x) for x in t)
    if len(t) != L.l:
        raise ValueError("need one parameter per simple root")
    lines: list[tuple[Fraction, ...]] = []
    for a in range(L.n_pos):
        if a < L.l:
            lines.append(_line_vector(L, a, t[a]))
        else:
            b, c = L.decomposition(a)
            lines.append(_kernel_line(L, lines[b], lines[c], a))
    return ChartPoint(L, t, tuple(lines))


def chart(L: LieAlgebra, t) -> Subspace:
    return chart_point(L, t).subspace()


@dataclass(frozen=True)
class ChartConsistencyReport:
    comparisons: tuple[tuple[tuple[int, ...], int, bool], ...]  # root, decomposition count, agree

    @property
    def ok(self) -> bool:
        return all(c[2] for c in self.comparisons)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "roots": [
                {"root": list(root), "decompositions": n, "agree": agree}
                for root, n, agree in self.comparisons
            ],
        }


def chart_consistency(L: LieAlgebra, t) -> ChartConsistencyReport:
    """Compare the derived line of every decomposition of each non-simple root."""
    point = chart_point(L, t)
    comparisons = []
    for a in range(L.l, L.n_pos):
        decomps = L.all_decompositions(a)
        reference = point.lines[a]
        agree = True
        for b, c in decomps:
            line = _kernel_line(L, point.lines[b], point.lines[c], a)
            if line != reference:
                agree = False
        comparisons.append((L.rd.positive_roots[a], len(decomps), agree))
    return ChartConsistencyReport(tuple(comparisons))


def parabolic_closure(L: LieAlgebra, V: Subspace) -> Subspace:
    """V + [V, V]; raises NotInVarietyError if the result is not a subalgebra."""
    rows = V.basis_rows()
    bracket_rows = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            br = L.bracket(rows[i], rows[j])
            if any(br):
                bracket_rows.append(br)
    p = Subspace(L, list(rows) + bracket_rows)
    # closure under bracket
    prows = p.basis_rows()
    for i in range(len(prows)):
        for j in range(i + 1, len(prows)):
            if not p.contains(L.bracket(prows[i], prows[j])):
                raise NotInVarietyError("V + [V,V] is not closed under the bracket")
    return p


@dataclass(frozen=True)
class OrbitLabel:
    """Subset of simple roots with nonzero chart parameter; codim = number missing."""

    nonzero: tuple[int, ...]
    rank: int

    @property
    def codim(self) -> int:
        return self.rank - len(self.nonzero)

    def to_json(self) -> dict:
        return {"I": list(self.nonzero), "codim": self.codim}


def orbit_label(L: LieAlgebra, t) -> OrbitLabel:
    t = tuple(frac(x) for x in t)
    nonzero = tuple(i for i, x in enumerate(t) if x != 0)
    return OrbitLabel(nonzero=nonzero, rank=L.l)


def parabolic_profile(L: LieAlgebra, V: Subspace) -> tuple[int, tuple[int, ...]]:
    """(dim of the parabolic closure, simple roots whose negative space it contains).

    For chart-presented subspaces the second component recovers the orbit label
    from the subspace alone.
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
    red, pivots = rref(Matrix(V.dim, L.g, tuple(row[i] for row in V.basis_rows() for i in order)))
    rows = []
    for r, p in enumerate(pivots):
        top = grades[order[p]]
        form = [Fraction(0)] * L.g
        for c, i in enumerate(order):
            if grades[i] == top:
                form[i] = red[r, c]
        rows.append(form)
    return Subspace(L, rows)


# ---------------------------------------------------------------------------
# the D operator and the cubic local equations


def d_operator_corank(L: LieAlgebra) -> int:
    """Corank of D: wedge^3 b -> b (x) [b, b] for the standard Borel.

    D(v1 ^ v2 ^ v3) = v1 (x) [v2,v3] + v2 (x) [v3,v1] + v3 (x) [v1,v2].
    """
    borel_idx = list(range(L.l)) + [L.pos_index(a) for a in range(L.n_pos)]
    nil_idx = [L.pos_index(a) for a in range(L.n_pos)]
    nil_col = {idx: c for c, idx in enumerate(nil_idx)}
    d_b = len(borel_idx)
    n_n = len(nil_idx)
    target_dim = d_b * n_n
    rows = []
    for i1, i2, i3 in itertools.combinations(range(d_b), 3):
        row = [Fraction(0)] * target_dim
        for slot, (a, b, c) in enumerate(((i1, i2, i3), (i2, i3, i1), (i3, i1, i2))):
            br = L.brackets[borel_idx[b]][borel_idx[c]]
            for k, coeff in br.items():
                if coeff:
                    if k not in nil_col:
                        raise StructureError("bracket of Borel elements left the nilradical")
                    row[a * n_n + nil_col[k]] += coeff
        rows.append(row)
    if not rows:
        return target_dim
    r = rank(Matrix.from_rows(rows))
    corank = target_dim - r
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
    triples: tuple[tuple[int, int, int], ...]

    @property
    def n_vars(self) -> int:
        return self.base.dim * self.complement.dim

    def evaluate(self, X) -> tuple[Fraction, ...]:
        """Values of every polynomial at the rectangular parameter grid X."""
        d, m = self.base.dim, self.complement.dim
        grid = [[frac(X[i][j]) for j in range(m)] for i in range(d)]
        out = []
        for poly in self.polynomials:
            acc = Fraction(0)
            for mono, coeff in poly.items():
                val = coeff
                for (i, j) in mono:
                    val *= grid[i][j]
                    if not val:
                        break
                acc += val
            out.append(acc)
        return tuple(out)

    def jacobian_at_zero(self) -> Matrix:
        """Matrix of the degree-one coefficients; rows follow the triple order."""
        d, m = self.base.dim, self.complement.dim
        cols = d * m
        entries = []
        for poly in self.polynomials:
            row = [Fraction(0)] * cols
            for mono, coeff in poly.items():
                if len(mono) == 1:
                    (i, j) = mono[0]
                    row[i * m + j] = coeff
            entries.append(row)
        return Matrix.from_rows(entries) if entries else Matrix(0, cols, ())


def local_equations(L: LieAlgebra, base: Subspace, complement: Subspace) -> CubicSystem:
    """Cubic equations of the variety on the chart defined by base and complement."""
    if base.dim + complement.dim != L.g or base.add(complement).dim != L.g:
        raise ValueError("base and complement do not decompose the algebra")
    if base.dim != L.d:
        raise ValueError(f"base must have dimension {L.d}")
    xs = base.basis_rows()
    ys = complement.basis_rows()
    d, m = len(xs), len(ys)
    polynomials = []
    triples = list(itertools.combinations(range(d), 3))
    for (i1, i2, i3) in triples:
        poly: dict[Monomial, Fraction] = {}
        slots = []
        for i in (i1, i2, i3):
            options = [((), xs[i])]
            options += [(((i, j),), ys[j]) for j in range(m)]
            slots.append(options)
        for (m1, v1) in slots[0]:
            for (m2, v2) in slots[1]:
                for (m3, v3) in slots[2]:
                    val = L.w_eval(v1, v2, v3)
                    if not val:
                        continue
                    mono = tuple(sorted(m1 + m2 + m3))
                    new = poly.get(mono, Fraction(0)) + val
                    if new:
                        poly[mono] = new
                    else:
                        poly.pop(mono, None)
        polynomials.append(poly)
    return CubicSystem(L, base, complement, tuple(polynomials), tuple(triples))


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
    jac = system.jacobian_at_zero()
    return system.n_vars - rank(jac)


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
    that specialized form.  Each identity is linear in each Cartan argument,
    so finite checks decide them: the first on every pair of Cartan basis
    vectors (h_i, h_j), the second on the vectors (a+b)(h_j) h_i - (a+b)(h_i) h_j
    for i < j, which span the kernel of a+b, and the third on every pair of
    positive roots.
    """

    def tensor_of_pairs(pairs):
        acc: dict[tuple[int, int], Fraction] = {}
        for vec_a, vec_b, scale in pairs:
            if not scale:
                continue
            for i, a in enumerate(vec_a):
                if not a:
                    continue
                for j, b in enumerate(vec_b):
                    if b:
                        key = (i, j)
                        new = acc.get(key, Fraction(0)) + scale * frac(a) * frac(b)
                        if new:
                            acc[key] = new
                        else:
                            acc.pop(key, None)
        return acc

    def d_of(v1, v2, v3):
        return tensor_of_pairs(
            [
                (v1, L.bracket(v2, v3), Fraction(1)),
                (v2, L.bracket(v3, v1), Fraction(1)),
                (v3, L.bracket(v1, v2), Fraction(1)),
            ]
        )

    def root_value(a, h_vec):
        # root value on a Cartan vector via the bracket
        xa = L.basis_vector(L.pos_index(a))
        br = L.bracket(h_vec, xa)
        return br[L.pos_index(a)]

    cartan = [L.basis_vector(i) for i in range(L.l)]
    for a in range(L.n_pos):
        xa = L.basis_vector(L.pos_index(a))
        for h, k in itertools.product(cartan, repeat=2):
            lhs = tensor_of_pairs([(h, xa, root_value(a, k))])
            rhs = _tensor_add(d_of(h, k, xa), tensor_of_pairs([(k, xa, root_value(a, h))]))
            if lhs != rhs:
                return False
    pos_set = {r: i for i, r in enumerate(L.rd.positive_roots)}
    for a, b in itertools.permutations(range(L.n_pos), 2):
        xa = L.basis_vector(L.pos_index(a))
        xb = L.basis_vector(L.pos_index(b))
        sums = [root_value(a, h) + root_value(b, h) for h in cartan]
        for i, j in itertools.combinations(range(L.l), 2):
            hs = [sums[j] * x - sums[i] * y for x, y in zip(cartan[i], cartan[j])]
            lhs2 = tensor_of_pairs([(xa, xb, root_value(a, hs))])
            rhs2 = d_of(hs, xa, xb)
            rhs2 = _tensor_add(rhs2, tensor_of_pairs([(xb, xa, root_value(b, hs))]))
            rhs2 = _tensor_add(rhs2, tensor_of_pairs([(hs, L.bracket(xa, xb), Fraction(-1))]))
            if lhs2 != rhs2:
                return False
        csum = tuple(x + y for x, y in zip(L.rd.positive_roots[a], L.rd.positive_roots[b]))
        c = pos_set.get(csum)
        if c is not None:
            xc = L.basis_vector(L.pos_index(c))
            n_ab = L.bracket(xa, xb)[L.pos_index(c)]
            lhs3 = tensor_of_pairs([(xc, xc, n_ab)])
            rhs3 = d_of(xc, xa, xb)
            rhs3 = _tensor_add(rhs3, tensor_of_pairs([(xa, L.bracket(xb, xc), Fraction(-1))]))
            rhs3 = _tensor_add(rhs3, tensor_of_pairs([(xb, L.bracket(xa, xc), Fraction(1))]))
            if lhs3 != rhs3:
                return False
    return True


def _tensor_add(t1, t2):
    out = dict(t1)
    for key, val in t2.items():
        new = out.get(key, Fraction(0)) + val
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def random_chart_parameters(L: LieAlgebra, rng, nonzero: bool = False):
    draw = rng.randint_nonzero if nonzero else rng.randint
    return tuple(Fraction(draw(-3, 3)) for _ in range(L.l))


def random_subspace(L: LieAlgebra, rng, dim: int) -> Subspace:
    """Random subspace of exact dimension ``dim`` with entries in -3..3."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(L.g)] for _ in range(dim)]
        S = Subspace(L, rows)
        if S.dim == dim:
            return S
