"""Chart, orbits, degenerations, the D operator and the local equations to first order."""

import itertools
from fractions import Fraction

import pytest

from nullvar.algebra import (
    StructureError,
    Subspace,
    build_algebra,
    build_involution,
    eigenspace,
    root_pair_plane,
    standard_borel,
)
from nullvar.linalg import combine, frac, rank
from nullvar.roots import build_root_datum
from nullvar.seeds import Lcg
from nullvar.variety import (
    NotInVarietyError,
    chart,
    chart_disagreements,
    chart_lines,
    check_d_relations,
    coordinate_complement,
    d_operator_corank,
    degenerate,
    is_nullspace,
    jacobian_corank_at,
    local_equations,
    parabolic_closure,
    parabolic_profile,
    random_chart_parameters,
    random_subspace,
)

import dense_oracles
from dense_oracles import bracket, unit


def _effective_parameters(L, lines):
    """Coefficient of x_{-gamma} in each line, normalized to x_gamma + t x_{-gamma}."""
    out = []
    for a, line in enumerate(lines):
        pos, neg = line.get(L.pos_index(a), 0), line.get(L.neg_index(a), 0)
        assert pos != 0, "line escaped the chart normal form"
        out.append(neg / pos)
    return tuple(out)


def test_is_nullspace_examples(a2):
    assert is_nullspace(a2, standard_borel(a2))
    assert not is_nullspace(a2, Subspace(a2, [a2.basis_vector(i) for i in range(a2.g)]))
    assert is_nullspace(a2, eigenspace(a2, build_involution(a2, (1, -1)), -1))


def test_chart_zero_gives_borel(a2, c2):
    assert chart(a2, (0, 0)) == standard_borel(a2)
    assert chart(c2, (0, 0)) == standard_borel(c2)


def test_chart_generic(a2):
    V = chart(a2, (1, 1))
    assert V.dim == 5
    assert is_nullspace(a2, V)
    for a in range(a2.n_pos):
        # V meets the plane in a line: the plane adds one dimension to V
        assert V.add(root_pair_plane(a2, a)).dim == V.dim + 1
    # the induced parameter on the non-simple root is a structure-constant
    # ratio times t1 t2, hence nonzero
    t_eff = _effective_parameters(a2, chart_lines(a2, (1, 1)))
    assert t_eff[2] != 0


def test_chart_maximal_parabolic(c2):
    V = chart(c2, (1, 0))
    assert is_nullspace(c2, V)
    assert parabolic_closure(c2, V).dim == 7  # one step below the full algebra


def test_chart_consistency(a2, c2):
    assert chart_disagreements(a2, (1, 1)) == []
    assert chart_disagreements(c2, (1, 1)) == []
    assert chart_disagreements(c2, (2, 3)) == []


def test_chart_consistency_counts_decompositions(c2):
    # each non-simple root of C2 has one decomposition, so the chart's line is the only one derived
    by_root = {c2.rd.positive_roots[a]: len(c2.all_decompositions(a)) for a in range(c2.l, c2.n_pos)}
    assert by_root == {(1, 1): 1, (2, 1): 1}


def test_chart_disagreements_name_the_root_whose_decompositions_disagree(g2):
    # (1,1,1) of A3 and (3,2) of G2 have two decompositions each; one corrupted
    # constant makes them cut out different lines
    a3 = build_algebra(build_root_datum("A", 3))
    assert chart_disagreements(a3, (1, 1, 1)) == []
    assert chart_disagreements(a3.with_corrupted_constant(0, 6, 0), (1, 1, 1)) == [(1, 1, 1)]
    assert chart_disagreements(g2, (1, 1)) == []
    assert chart_disagreements(g2.with_corrupted_constant(0, 4, 0), (1, 1)) == [(3, 2)]


def test_parabolic_closure(a2):
    b = standard_borel(a2)
    assert parabolic_closure(a2, b) == b
    assert parabolic_closure(a2, chart(a2, (1, 1))).dim == 8
    # explicit span oracle: the closure of chart(1,0) adds exactly the
    # negative space of the first simple root to the Borel
    V = chart(a2, (1, 0))
    p = parabolic_closure(a2, V)
    explicit = b.add(
        type(b)(a2, [a2.basis_vector(a2.neg_index(0))])
    )
    assert p == explicit
    assert p.dim == 6


def test_orbit_labels_and_profiles(a2, c2):
    for L in (a2, c2):
        profiles = set()
        for pattern in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            prof = parabolic_profile(L, chart(L, pattern))
            assert prof[1] == tuple(i for i, x in enumerate(pattern) if x)
            profiles.add(prof)
        assert len(profiles) == 4


def test_open_orbit_closure_is_full(a2):
    assert parabolic_closure(a2, chart(a2, (2, -3))).dim == a2.g


def test_degenerate(a2, c2):
    V = chart(a2, (1, 1))
    b = standard_borel(a2)
    assert degenerate(a2, V, (2, 1)) == b
    opposite = [a2.basis_vector(i) for i in range(a2.l)]
    opposite += [a2.basis_vector(a2.neg_index(a)) for a in range(a2.n_pos)]
    assert degenerate(a2, V, (-2, -1)) == Subspace(a2, opposite)
    assert degenerate(a2, b, (2, 1)) == b  # graded input is its own limit
    lim = degenerate(a2, V, (2, 1))
    assert degenerate(a2, lim, (2, 1)) == lim
    assert degenerate(c2, chart(c2, (1, 1)), (3, 1)) == standard_borel(c2)


def test_degenerate_preserves_nullspace_and_dim(a2):
    rng = Lcg(9)
    for _ in range(10):
        V = chart(a2, random_chart_parameters(a2, rng))
        lim = degenerate(a2, V, (3, 2))
        assert lim.dim == V.dim
        assert is_nullspace(a2, lim)


def test_degenerate_limit_holds_the_top_grade_parts(a2, c2):
    rng = Lcg(19)
    for L in (a2, c2):
        for case in range(12):
            if case % 3:
                V = random_subspace(L, rng, rng.randint(1, L.g))
            else:
                V = chart(L, random_chart_parameters(L, rng))
            while True:  # a regular weight of mixed sign
                weight = [rng.randint(-4, 4) for _ in range(L.l)]
                grades = [sum(c * m for c, m in zip(L.weights[i], weight)) for i in range(L.g)]
                if all(grades[L.pos_index(a)] for a in range(L.n_pos)):
                    break
            lim = degenerate(L, V, weight)
            assert lim.dim == V.dim
            for row in lim.rows:
                assert len({grades[i] for i in row}) == 1
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in V.rows]
                v = combine(zip(coeffs, V.rows))
                if v:
                    top = max(grades[i] for i in v)
                    assert lim.contains({i: x for i, x in v.items() if grades[i] == top})


def test_degenerate_rejects_irregular_weight(a2):
    with pytest.raises(ValueError):
        degenerate(a2, chart(a2, (1, 1)), (1, -1))  # kills the root sum


def test_d_operator_corank(a1, a2, c2):
    assert d_operator_corank(a1) == 2
    assert d_operator_corank(a2) == 5
    assert d_operator_corank(c2) == 6


def _evaluate(system, X):
    """Values of every polynomial of ``system`` at the rectangular parameter grid X."""
    out = []
    for poly in system.polynomials:
        acc = Fraction(0)
        for mono, coeff in poly.items():
            val = coeff
            for i, j in mono:
                val *= frac(X[i][j])
            acc += val
        out.append(acc)
    return out


def test_local_equations_at_borel(a2):
    b = standard_borel(a2)
    comp = coordinate_complement(a2, b)
    system = local_equations(a2, b, comp)
    assert len(system.polynomials) == 10
    assert not any(() in poly for poly in system.polynomials)  # every constant is 0: the Borel is a nullspace

    def direction(a):  # the unit direction of the chart parameter of the a-th positive root
        X = [[0] * comp.dim for _ in range(b.dim)]
        X[a2.l + a][comp.pivots.index(a2.neg_index(a))] = 1
        return X

    # a simple root's parameter is tangent, since the chart moves the non-simple lines at order s^2 or higher;
    # a non-simple root's line moved alone is not
    for a in range(a2.n_pos):
        assert all(v == 0 for v in _evaluate(system, direction(a))) == (a < a2.l)
    generic = [[Fraction(i + j + 1) for j in range(comp.dim)] for i in range(b.dim)]
    assert any(v != 0 for v in _evaluate(system, generic))


@pytest.mark.parametrize("fixture", ["a2", "b2", "c2"])
def test_local_equations_match_fraction_built_at_rational_chart_points(fixture, request):
    # integer numerators of the rows, one division per nonzero term, against the Fraction-built cubic cut to
    # degree <= 1; the random base is no nullspace, so its constants are not all 0
    L = request.getfixturevalue(fixture)
    bases = [chart(L, t) for t in ((Fraction(1, 2), Fraction(-3, 2)), (Fraction(-3, 2), Fraction(1, 2)))]
    bases.append(random_subspace(L, Lcg(1), L.d))
    for base in bases:
        assert any(x.denominator > 1 for row in base.rows for x in row.values())
        coordinate = coordinate_complement(L, base)
        # a complement whose rows need scaling too
        tilted = Subspace(L, [{j: 1, (j + 1) % L.g: Fraction(-1, 3)} for j in coordinate.pivots])
        assert base.add(tilted).dim == L.g and any(x.denominator > 1 for row in tilted.rows for x in row.values())
        for complement in (coordinate, tilted):
            system = local_equations(L, base, complement)
            assert all(len(mono) <= 1 for poly in system.polynomials for mono in poly)
            cubic = dense_oracles.local_equations(L, base, complement)
            assert list(system.polynomials) == [{mono: c for mono, c in p.items() if len(mono) <= 1} for p in cubic]
            m = complement.dim
            linear = [{i * m + j: c for mono, c in p.items() if len(mono) == 1 for i, j in mono} for p in cubic]
            assert list(system.jacobian) == linear and any(linear)
        assert any(() in poly for poly in system.polynomials) == (base is bases[-1])


def test_jacobian_corank(a2, c2):
    assert jacobian_corank_at(a2, standard_borel(a2)) == 5
    assert jacobian_corank_at(a2, chart(a2, (1, 1))) == 5
    assert jacobian_corank_at(c2, standard_borel(c2)) == 6
    assert jacobian_corank_at(c2, chart(c2, (1, 2))) == 6


def test_jacobian_rejects_non_members(a2):
    with pytest.raises(NotInVarietyError):  # of dimension 8, not d = 5
        jacobian_corank_at(a2, standard_borel(a2).add(chart(a2, (1, 1))))
    V = random_subspace(a2, Lcg(1), a2.d)
    assert V.dim == a2.d and not is_nullspace(a2, V)
    with pytest.raises(NotInVarietyError):  # of dimension d, so a nonzero constant rejects it
        jacobian_corank_at(a2, V)


def test_seeded_chart_points(a1, a2, c2):
    rng = Lcg(42)
    for L in (a1, a2, c2):
        for _ in range(50):
            V = chart(L, random_chart_parameters(L, rng))
            assert V.dim == L.d
            assert is_nullspace(L, V)


def test_d_relations(a1, a2, c2):
    assert check_d_relations(a1)
    assert check_d_relations(a2)
    assert check_d_relations(c2)
    # only the third identity (c = a + b a root) fails on this corruption
    assert not check_d_relations(c2.with_corrupted_constant(2, 3, 1))


# ---------------------------------------------------------------------------
# dense oracles for the D operator: D built from coordinate vectors, the
# bracket of vectors and Fraction tensors, independently of variety._d


def _tensor_add(t1, t2):
    out = dict(t1)
    for key, val in t2.items():
        new = out.get(key, Fraction(0)) + val
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _oracle_d_operator_corank(L):
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
    r = rank([dense_oracles.sparse(row) for row in rows])
    corank = target_dim - r
    if corank > L.d:
        raise StructureError(f"D operator corank {corank} exceeds {L.d}")
    return corank


def _oracle_check_d_relations(L):
    def tensor_of_pairs(pairs):
        acc = {}
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
                (v1, bracket(L, v2, v3), Fraction(1)),
                (v2, bracket(L, v3, v1), Fraction(1)),
                (v3, bracket(L, v1, v2), Fraction(1)),
            ]
        )

    def root_value(a, h_vec):
        xa = unit(L, L.pos_index(a))
        return bracket(L, h_vec, xa)[L.pos_index(a)]

    cartan = [unit(L, i) for i in range(L.l)]
    for a in range(L.n_pos):
        xa = unit(L, L.pos_index(a))
        for h, k in itertools.product(cartan, repeat=2):
            lhs = tensor_of_pairs([(h, xa, root_value(a, k))])
            rhs = _tensor_add(d_of(h, k, xa), tensor_of_pairs([(k, xa, root_value(a, h))]))
            if lhs != rhs:
                return False
    pos_set = {r: i for i, r in enumerate(L.rd.positive_roots)}
    for a, b in itertools.permutations(range(L.n_pos), 2):
        xa = unit(L, L.pos_index(a))
        xb = unit(L, L.pos_index(b))
        sums = [root_value(a, h) + root_value(b, h) for h in cartan]
        for i, j in itertools.combinations(range(L.l), 2):
            hs = [sums[j] * x - sums[i] * y for x, y in zip(cartan[i], cartan[j])]
            lhs2 = tensor_of_pairs([(xa, xb, root_value(a, hs))])
            rhs2 = d_of(hs, xa, xb)
            rhs2 = _tensor_add(rhs2, tensor_of_pairs([(xb, xa, root_value(b, hs))]))
            rhs2 = _tensor_add(rhs2, tensor_of_pairs([(hs, bracket(L, xa, xb), Fraction(-1))]))
            if lhs2 != rhs2:
                return False
        csum = tuple(x + y for x, y in zip(L.rd.positive_roots[a], L.rd.positive_roots[b]))
        c = pos_set.get(csum)
        if c is not None:
            xc = unit(L, L.pos_index(c))
            n_ab = bracket(L, xa, xb)[L.pos_index(c)]
            lhs3 = tensor_of_pairs([(xc, xc, n_ab)])
            rhs3 = d_of(xc, xa, xb)
            rhs3 = _tensor_add(rhs3, tensor_of_pairs([(xa, bracket(L, xb, xc), Fraction(-1))]))
            rhs3 = _tensor_add(rhs3, tensor_of_pairs([(xb, bracket(L, xa, xc), Fraction(1))]))
            if lhs3 != rhs3:
                return False
    return True


def _outcome(fn, L):
    """``fn(L)``, or the type of the exception it raises."""
    try:
        return fn(L)
    except Exception as exc:
        return type(exc)


def test_sparse_d_matches_dense_oracle(a1, a2, b2, c2, g2):
    """The sparse D agrees with the dense oracles, verdict by verdict.

    On five types, and on every single-constant corruption of A2: 57 of
    the 224 fail the relations and 50 change or break the corank, so both
    verdicts and both exception paths are compared.
    """
    cases = [a1, a2, b2, c2, g2]
    for i, j in itertools.combinations(range(a2.g), 2):
        cases += [a2.with_corrupted_constant(i, j, k) for k in range(a2.g)]
    relation_failures = corank_changes = 0
    for L in cases:
        got = (_outcome(check_d_relations, L), _outcome(d_operator_corank, L))
        assert got == (_outcome(_oracle_check_d_relations, L), _outcome(_oracle_d_operator_corank, L))
        relation_failures += got[0] is not True
        corank_changes += got[1] != L.d
    assert (relation_failures, corank_changes) == (57, 50)
