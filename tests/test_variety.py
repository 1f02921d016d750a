"""Chart, orbits, degenerations, the D operator and the cubic local system."""

from fractions import Fraction

import pytest

from nullvar.algebra import (
    build_involution,
    full_algebra,
    opposite_borel,
    root_pair_plane,
    standard_borel,
)
from nullvar.seeds import Lcg
from nullvar.variety import (
    NotInVarietyError,
    chart,
    chart_consistency,
    chart_point,
    check_d_relations,
    coordinate_complement,
    d_operator_corank,
    degenerate,
    is_nullspace,
    jacobian_corank_at,
    local_equations,
    orbit_label,
    parabolic_closure,
    parabolic_profile,
    random_chart_parameters,
    random_subspace,
)


def test_is_nullspace_examples(a2):
    assert is_nullspace(a2, standard_borel(a2))
    assert not is_nullspace(a2, full_algebra(a2))
    inv = build_involution(a2, (1, -1))
    assert is_nullspace(a2, inv.minus_subspace())


def test_chart_zero_gives_borel(a2, c2):
    assert chart(a2, (0, 0)) == standard_borel(a2)
    assert chart(c2, (0, 0)) == standard_borel(c2)


def test_chart_generic(a2):
    V = chart(a2, (1, 1))
    assert V.dim == 5
    assert is_nullspace(a2, V)
    for a in range(a2.n_pos):
        assert V.intersection(root_pair_plane(a2, a)).dim == 1
    # the induced parameter on the non-simple root is a structure-constant
    # ratio times t1 t2, hence nonzero
    t_eff = chart_point(a2, (1, 1)).effective_parameters()
    assert t_eff[2] != 0


def test_chart_maximal_parabolic(c2):
    V = chart(c2, (1, 0))
    assert is_nullspace(c2, V)
    assert parabolic_closure(c2, V).dim == 7  # one step below the full algebra


def test_chart_consistency(a2, c2):
    assert chart_consistency(a2, (1, 1)).ok
    rep = chart_consistency(c2, (1, 1))
    assert rep.ok
    assert chart_consistency(c2, (2, 3)).ok


def test_chart_consistency_counts_decompositions(c2):
    rep = chart_consistency(c2, (1, 1))
    by_root = {root: n for root, n, _ in rep.comparisons}
    assert by_root[(1, 1)] == 1
    assert by_root[(2, 1)] == 1


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
            label = orbit_label(L, pattern)
            assert label.codim == sum(1 for x in pattern if x == 0)
            prof = parabolic_profile(L, chart(L, pattern))
            assert prof[1] == label.nonzero
            profiles.add(prof)
        assert len(profiles) == 4


def test_open_orbit_closure_is_full(a2):
    assert parabolic_closure(a2, chart(a2, (2, -3))).dim == a2.g


def test_degenerate(a2, c2):
    V = chart(a2, (1, 1))
    b = standard_borel(a2)
    assert degenerate(a2, V, (2, 1)) == b
    assert degenerate(a2, V, (-2, -1)) == opposite_borel(a2)
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
            for row in lim.basis_rows():
                assert len({grades[i] for i, x in enumerate(row) if x}) == 1
            rows = V.basis_rows()
            for _ in range(5):
                coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in rows]
                v = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(L.g)]
                if any(v):
                    top = max(grades[i] for i, x in enumerate(v) if x)
                    assert lim.contains([x if grades[i] == top else 0 for i, x in enumerate(v)])


def test_degenerate_rejects_irregular_weight(a2):
    with pytest.raises(ValueError):
        degenerate(a2, chart(a2, (1, 1)), (1, -1))  # kills the root sum


def test_d_operator_corank(a1, a2, c2):
    assert d_operator_corank(a1) == 2
    assert d_operator_corank(a2) == 5
    assert d_operator_corank(c2) == 6


def test_local_equations_at_borel(a2):
    b = standard_borel(a2)
    comp = coordinate_complement(a2, b)
    system = local_equations(a2, b, comp)
    assert len(system.polynomials) == 10
    zero = [[0] * comp.dim for _ in range(b.dim)]
    assert all(v == 0 for v in system.evaluate(zero))
    # chart point written in the graph coordinates of the Borel chart
    t_eff = chart_point(a2, (Fraction(1, 3), Fraction(1, 3))).effective_parameters()
    X = [[Fraction(0)] * comp.dim for _ in range(b.dim)]
    for a in range(a2.n_pos):
        col = comp.pivots.index(a2.neg_index(a))
        X[a2.l + a][col] = t_eff[a]
    assert all(v == 0 for v in system.evaluate(X))
    generic = [[Fraction(i + j + 1) for j in range(comp.dim)] for i in range(b.dim)]
    assert any(v != 0 for v in system.evaluate(generic))


def test_jacobian_corank(a2, c2):
    assert jacobian_corank_at(a2, standard_borel(a2)) == 5
    assert jacobian_corank_at(a2, chart(a2, (1, 1))) == 5
    assert jacobian_corank_at(c2, standard_borel(c2)) == 6
    assert jacobian_corank_at(c2, chart(c2, (1, 2))) == 6


def test_jacobian_rejects_non_members(a2):
    with pytest.raises(NotInVarietyError):
        jacobian_corank_at(a2, standard_borel(a2).add(chart(a2, (1, 1))))


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
