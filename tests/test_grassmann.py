"""Plucker vectors, the linear equation set, and the membership equivalence."""

from fractions import Fraction

import pytest

from nullvar import grassmann
from nullvar.algebra import Subspace, build_involution, orthogonal_complement, standard_borel
from nullvar.exterior import (
    MultiVector,
    binomial_dim,
    check_w_sharp_invariance,
    degree_keys,
    delta,
    delta_star,
    graded_matrix,
    lie_action_basis,
)
from nullvar.grassmann import (
    check_equivariance_matrices,
    equation_count,
    equation_set,
    linear_membership,
    membership_equivalence_suite,
    pairing_matrix,
    plucker,
    transpose_identity_sign,
)
from nullvar.linalg import combine
from nullvar.seeds import Lcg
from nullvar.variety import chart, is_nullspace, random_chart_parameters, random_subspace


def test_plucker_borel(a2):
    P = plucker(a2, standard_borel(a2))
    assert P.terms == {0b11111: Fraction(1)}
    assert plucker(a2, chart(a2, (0, 0))) == P


def test_plucker_chart_point(a2):
    P = plucker(a2, chart(a2, (1, 1)))
    assert len(P.terms) > 1
    assert linear_membership(a2, P)


def test_plucker_wrong_dimension(a2):
    with pytest.raises(ValueError):
        plucker(a2, Subspace(a2, [a2.basis_vector(0)]))


def test_linear_membership_examples(a2):
    assert linear_membership(a2, plucker(a2, standard_borel(a2)))
    inv = build_involution(a2, (-1, 1))
    assert linear_membership(a2, plucker(a2, inv.minus_subspace()))
    rng = Lcg(3)
    hits = 0
    for _ in range(20):
        V = random_subspace(a2, rng, a2.d)
        if not is_nullspace(a2, V):
            hits += 1
            assert not linear_membership(a2, plucker(a2, V))
    assert hits > 0


def _contraction_vanishes(L, P):
    """The reference membership test: the whole contraction of P is zero."""
    return delta_star(P).is_zero()


@pytest.mark.parametrize("corrupt", [None, (2, 3, 1)], ids=["plain", "corrupt_2_3_1"])
@pytest.mark.parametrize("fixture", ["a2", "c2"])
def test_linear_membership_matches_the_contraction(fixture, corrupt, request):
    L = request.getfixturevalue(fixture)
    if corrupt:
        L = L.with_corrupted_constant(*corrupt)
    rng = Lcg(5)
    half = (L.g - L.l) // 2
    decomposable = []
    for _ in range(6):
        decomposable.append(plucker(L, random_subspace(L, rng, L.d)))
        decomposable.append(plucker(L, chart(L, random_chart_parameters(L, rng))))
        comp = orthogonal_complement(L, random_subspace(L, rng, half))
        if comp.dim == L.d:
            decomposable.append(plucker(L, comp))
    # non-decomposable vectors too: sums of two (two chart points among them,
    # three apart), every basis wedge, multiples
    vectors = decomposable + [P.add(Q) for i, P in enumerate(decomposable) for Q in decomposable[i + 1 : i + 4]]
    vectors += [MultiVector.over(L, L.d, {key: 1}) for key in degree_keys(L, L.d)]
    vectors += [P.scale(Fraction(-7, 3)) for P in decomposable]
    verdicts = [linear_membership(L, P) for P in vectors]
    assert verdicts == [_contraction_vanishes(L, P) for P in vectors]
    assert False in verdicts
    if corrupt is None:
        assert True in verdicts


def test_equation_counts(a1, a2, c2):
    assert equation_count(a1) == 0
    assert equation_count(a2) == 28
    assert equation_count(c2) == 119
    assert binomial_dim(a2.g, a2.d) - equation_count(a2) == 28  # 1 + 27


def test_equation_set_matches_count(a2):
    eqs = equation_set(a2)
    assert eqs["rank"] == equation_count(a2)
    assert eqs["ambient_plucker_dim"] == eqs["cols"] == 56
    assert len(eqs["equations"]) == eqs["rows"] == 28


def test_equation_set_shape_c2(c2):
    eqs = equation_set(c2)
    assert (len(eqs["equations"]), eqs["ambient_plucker_dim"]) == (120, 210)
    assert eqs["rank"] == 119


@pytest.mark.parametrize("name", ["a2", "c2"])
def test_equation_rows_match_dense_contraction(name, request):
    L = request.getfixturevalue(name)
    dense = graded_matrix(L, "delta_star", L.d)
    eqs = equation_set(L)
    assert (len(eqs["equations"]), eqs["ambient_plucker_dim"]) == (dense.rows, dense.cols)
    for r, row in enumerate(eqs["equations"]):
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols))
        listed = {c: Fraction(x) for c, x in row}
        assert all(x != 0 for x in listed.values())
        assert [listed.get(c, 0) for c in range(dense.cols)] == list(dense.row(r))


def test_scalar_invariance(a2):
    V = chart(a2, (2, 3))
    P = plucker(a2, V)
    assert linear_membership(a2, P) == linear_membership(a2, P.scale(Fraction(-7, 3)))
    # a different spanning basis of the same subspace rescales the vector only
    rows = V.rows
    mixed = [combine([(2, rows[0])]), combine([(1, rows[1]), (1, rows[2])])] + list(rows[2:])
    W = Subspace(a2, mixed)
    assert W == V
    assert linear_membership(a2, plucker(a2, W)) == linear_membership(a2, P)


def test_transpose_identity(a1, a2, c2):
    for L in (a1, a2, c2):
        assert transpose_identity_sign(L) is not None


def test_pairing_matrix_symmetric(a2):
    G = pairing_matrix(a2, 2)
    assert G == G.transpose()
    assert G.rows == 28


def test_membership_equivalence_suites(a1, a2, c2):
    for L in (a1, a2, c2):
        failures, chart_agree_true = membership_equivalence_suite(L, 200, 42)
        assert failures == 0
        assert chart_agree_true == 67  # every chart sample, 67 of 200
    # a Borel inserted deliberately: both routes say yes
    assert is_nullspace(a2, standard_borel(a2))
    assert linear_membership(a2, plucker(a2, standard_borel(a2)))


def test_membership_suite_computes_one_plucker_vector_per_sample(a2, monkeypatch):
    calls = []

    def counting(L, V, _plucker=grassmann.plucker):
        calls.append(V)
        return _plucker(L, V)

    monkeypatch.setattr(grassmann, "plucker", counting)
    assert membership_equivalence_suite(a2, 12, 42) == (0, 4)
    assert len(calls) == 12


def _equivariance_oracle(L, ops):
    """Every op commutes with every basis Lie action on every basis wedge of every degree."""
    for k in range(L.g + 1):
        for key in degree_keys(L, k):
            u = MultiVector.over(L, k, {key: 1})
            for i in range(L.g):
                au = lie_action_basis(L, i, u)
                if any(op(au) != lie_action_basis(L, i, op(u)) for op in ops):
                    return False
    return True


def test_equivariance(a1, a2):
    for L in (a1, a2):
        assert check_equivariance_matrices(L)
        assert check_w_sharp_invariance(L)


# a corruption that the simple root vectors e_+-alpha_i alone do not detect:
# without the Jacobi identity they no longer generate the action
@pytest.mark.parametrize("fixture,generators_miss", [("a2", (0, 4, 6)), ("c2", (0, 4, 7))], ids=["a2", "c2"])
def test_equivariance_matches_all_degree_oracle(fixture, generators_miss, request):
    # w_sharp decides commutation with delta and degree 3 with delta_star, on
    # the whole exterior algebra and corrupted constants included; the oracle
    # checks every degree
    L = request.getfixturevalue(fixture)
    rng = Lcg(13)
    corruptions = [(2, 3, 1), generators_miss]
    while len(corruptions) < 5:
        i, j, k = (rng.randint(0, L.g - 1) for _ in range(3))
        if i != j:
            corruptions.append((i, j, k))
    algebras = [L] + [L.with_corrupted_constant(*c) for c in corruptions]
    for M in algebras:
        assert check_w_sharp_invariance(M) == _equivariance_oracle(M, (delta,)) == (M is L)
        assert check_equivariance_matrices(M) == _equivariance_oracle(M, (delta_star,)) == (M is L)
