"""Plucker vectors, the linear equation set, and the membership equivalence."""

from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from nullvar import cli, grassmann
from nullvar.algebra import Subspace, build_algebra, build_involution, eigenspace, orthogonal_complement, standard_borel
from nullvar.exterior import (
    MultiVector,
    _delta_star_table,
    binomial_dim,
    check_w_sharp_invariance,
    degree_keys,
    delta,
    delta_star,
    graded_matrix,
    lie_action_basis,
    weight_blocks,
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
from nullvar.linalg import Matrix, combine
from nullvar.roots import build_root_datum
from nullvar.seeds import Lcg
from nullvar.variety import chart, is_nullspace, random_chart_parameters, random_subspace
from nullvar.weyl import _exp_ad

import dense_oracles

DATA = Path(__file__).parent / "data"


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
    assert linear_membership(a2, plucker(a2, eigenspace(a2, build_involution(a2, (-1, 1)), -1)))
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


@pytest.mark.parametrize(
    "fixture,corrupt",
    [("a2", None), ("c2", None), ("g2", None), ("a2", (2, 3, 1, Fraction(1, 2)))],
    ids=["a2", "c2", "g2", "a2_corrupt_2_3_1_half"],
)
def test_equations_on_demand_match_the_contraction(fixture, corrupt, request):
    # equation u holds the coefficient of e_u in the contraction of every degree-d basis wedge
    L = request.getfixturevalue(fixture)
    if corrupt:
        L = L.with_corrupted_constant(*corrupt)
    table, den = _delta_star_table(L)
    assert den == (2 if corrupt else 1)
    from_contraction = {low: {} for low in degree_keys(L, L.d - 3)}
    for high in degree_keys(L, L.d):
        for low, c in delta_star(MultiVector.over(L, L.d, {high: 1})).terms.items():
            from_contraction[low][high] = c
    on_demand = {
        low: {high: Fraction(n, den) for high, n in grassmann._equation(table, low).items()} for low in from_contraction
    }
    assert on_demand == from_contraction
    assert sum(map(len, on_demand.values())) > 0


def _moved_by_every_root_vector(L, V):
    """V moved by exp(ad e) for each root vector e in turn: a dense point of V's orbit."""
    rows = list(V.rows)
    for j in range(L.l, L.g):
        rows = [_exp_ad(L, L.basis_vector(j), row) for row in rows]
    return Subspace(L, rows)


@pytest.mark.parametrize(
    "family,rank,moved",
    [("G", 2, False), ("B", 3, False), ("G", 2, True), ("A", 3, True)],
    ids=["g2_chart", "b3_chart", "g2_orbit", "a3_orbit"],
)
def test_linear_membership_matches_the_contraction_on_chart_and_orbit_points(family, rank, moved):
    L = build_algebra(build_root_datum(family, rank))
    V = chart(L, tuple(range(1, L.l + 1)))
    if moved:
        V = _moved_by_every_root_vector(L, V)
    assert is_nullspace(L, V)
    P = plucker(L, V)
    if moved:
        assert len(P.ints) > binomial_dim(L.g, L.d) // 2  # dense
    # one basis wedge with a w triple inside has a nonzero contraction, so P plus it is not a member
    table = _delta_star_table(L)[0]
    high = next(key for key in P.ints if any(key & part == part for part, _ in table))
    vectors = [P, P.add(MultiVector.over(L, L.d, {high: 1})), P.scale(Fraction(-7, 3))]
    verdicts = [linear_membership(L, Q) for Q in vectors]
    assert verdicts == [_contraction_vanishes(L, Q) for Q in vectors] == [True, False, True]


def test_a_flipped_equation_term_turns_membership_and_the_equations_verb_red(c2, monkeypatch, capsys):
    # flip the sign of one w triple's term: a triple inside a key of a chart point's Plucker vector, so
    # every chart sample, being a nullspace, fails that equation
    assert cli.main(["equations", "--type", "C2"]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "cli_equations_C2.json").read_bytes()
    table = _delta_star_table(c2)[0]
    P = plucker(c2, chart(c2, (1, 1)))
    flipped = next(part for part, _ in table if any(key & part == part for key in P.ints))

    def mutated(table, low, _equation=grassmann._equation):
        eq = _equation(table, low)
        if not low & flipped:
            eq[low | flipped] = -eq[low | flipped]
        return eq

    monkeypatch.setattr(grassmann, "_equation", mutated)
    assert not linear_membership(c2, P)
    failures, chart_agree_true = membership_equivalence_suite(c2, 200, 42)
    assert failures > 0 and chart_agree_true < 67
    assert cli.main(["equations", "--type", "C2"]) == 0
    assert capsys.readouterr().out.encode() != (DATA / "cli_equations_C2.json").read_bytes()


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
    # the whole contraction at degree d, its image rows transposed: row r is the equation of low key r
    low = degree_keys(L, L.d - 3)
    rows, den = graded_matrix(L, delta_star, L.d, degree_keys(L, L.d), low)
    dense = Matrix(len(rows), len(low), tuple(rows)).transpose()
    eqs = equation_set(L)
    assert (len(eqs["equations"]), eqs["ambient_plucker_dim"]) == (dense.rows, dense.cols)
    for r, row in enumerate(eqs["equations"]):
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols))
        listed = {c: Fraction(x) for c, x in row}
        assert all(x != 0 for x in listed.values())
        assert listed == {c: Fraction(x, den) for c, x in dense.data[r].items()}


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


# A1 (g = 3) has no basis index 3 to corrupt
RELATION_CASES = (
    [("a1", None), ("a1", (0, 2, 2))]
    + [(n, c) for n in ("a2", "c2") for c in (None, (2, 3, 1), (0, 2, 2))]
    + [("b2", None), ("b2", (2, 3, 1))]
)


@pytest.mark.parametrize(
    "name,corrupt",
    RELATION_CASES,
    ids=[f"{n}-{'sound' if c is None else ','.join(map(str, c))}" for n, c in RELATION_CASES],
)
def test_transpose_relation_matches_fraction_oracle(name, corrupt, request):
    # integer numerators, det by row expansion and the sparse product against Fraction matrices, Gaussian det and the triple loop
    L = request.getfixturevalue(name)
    M = L if corrupt is None else L.with_corrupted_constant(*corrupt)
    if corrupt == (2, 3, 1):
        # the contraction leaves its weight blocks; the whole-degree relation still holds, since for an
        # alternating w the contraction is adjoint to the wedge with w_sharp whatever kappa is
        with pytest.raises(AssertionError, match="escapes its weight block"):
            transpose_identity_sign(M)
        assert dense_oracles.transpose_identity_sign(M) == 1
        return
    sign = transpose_identity_sign(M)
    assert sign == dense_oracles.transpose_identity_sign(M)
    if corrupt is None:
        assert sign in (1, -1)


def test_pairing_matrix_matches_fraction_oracle(a2, c2):
    # a constant shifted by 1/2 gives kappa a denominator, which the integer rows must carry
    halved = a2.with_corrupted_constant(2, 3, 1, Fraction(1, 2))
    assert lcm(*[c.denominator for row in halved.kappa for c in row.values()]) > 1
    for L in (a2, c2, halved):
        for k in range(L.g + 1):
            keys = degree_keys(L, k)
            G, den = pairing_matrix(L, keys, keys)
            dense = [[Fraction(row.get(j, 0), den) for j in range(G.cols)] for row in G.data]
            assert dense == dense_oracles.pairing_matrix(L, k)


def test_pairing_matrix_blocks_match_fraction_oracle(a2, c2):
    # kappa pairs weight mu only with -mu, so the block pairs hold every nonzero Gram determinant
    for L in (a2, c2):
        for k in range(L.g + 1):
            oracle = dense_oracles.pairing_matrix(L, k)
            blocks = weight_blocks(L, k)
            position = {key: i for i, key in enumerate(degree_keys(L, k))}
            nonzero = 0
            for mu, keys in blocks.items():
                partners = blocks.get(tuple(-c for c in mu), [])
                G, den = pairing_matrix(L, keys, partners)
                assert (G.rows, G.cols) == (len(keys), len(partners))
                block = [[Fraction(row.get(j, 0), den) for j in range(G.cols)] for row in G.data]
                assert block == [[oracle[position[a]][position[b]] for b in partners] for a in keys]
                nonzero += sum(map(len, G.data))
            assert nonzero == sum(1 for row in oracle for x in row if x) > 0


def test_pairing_matrix_symmetric(a2):
    keys = degree_keys(a2, 2)
    G, den = pairing_matrix(a2, keys, keys)
    assert den > 0 and G == G.transpose()
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
