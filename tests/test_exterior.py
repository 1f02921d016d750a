"""Wedge/contraction operators, Casimir, and the operator identities."""

import itertools
from fractions import Fraction
from math import lcm

import pytest

from nullvar.algebra import build_algebra
from nullvar.exterior import (
    MultiVector,
    _block_matrix,
    blocked_eigenspace_dim,
    blocked_rank,
    borel_top_wedge,
    casimir,
    check_w_sharp_invariance,
    degree_keys,
    delta,
    delta_star,
    delta_star_scalar,
    graded_matrix,
    lie_action,
    lie_action_basis,
    verify_exact_sequences,
    verify_zeta_identity,
    w_sharp,
    wedge,
    wedge_rows,
    weight_blocks,
    zeta,
)
from nullvar.grassmann import check_equivariance_matrices
from nullvar.linalg import Matrix, integer_rows, kernel_basis, rank
from nullvar.roots import build_root_datum, casimir_eigenvalue, two_rho
from nullvar.seeds import Lcg
from nullvar.variety import chart, random_chart_parameters, random_subspace

from dense_oracles import sparse


def test_wedge_basics(a2):
    b1 = MultiVector.basis(a2, [1])
    b2 = MultiVector.basis(a2, [2])
    assert wedge(b1, b1).is_zero()
    assert wedge(b1, b2) == MultiVector.basis(a2, [1, 2])
    assert wedge(b2, b1) == MultiVector.basis(a2, [1, 2]).scale(-1)
    # full top wedge of independent vectors is nonzero
    rows = [a2.basis_vector(i) for i in range(a2.g)]
    rows[0] = {0: Fraction(1), 1: Fraction(1)}
    acc = MultiVector.over(a2, 0, {0: 1})
    for r in rows:
        acc = wedge(acc, MultiVector.from_vector(a2, r))
    assert not acc.is_zero()


def test_wedge_graded_commutativity(a2):
    u = MultiVector.basis(a2, [0, 3])
    v = MultiVector.basis(a2, [1, 2, 5])
    assert wedge(u, v) == wedge(v, u)  # (-1)^(2*3) = 1
    w1 = MultiVector.basis(a2, [4])
    assert wedge(w1, v) == wedge(v, w1).scale(-1)


def test_a1_w_sharp_by_hand(a1):
    # kappa in the (h, x, y) basis is [[8,0,0],[0,0,4],[0,4,0]], so the duals
    # are h/8, y/4, x/4 and w(h,x,y) = 8 gives w_sharp = -1/16 h^x^y
    assert a1.kappa == ({0: 8}, {2: 4}, {1: 4})
    ws = w_sharp(a1)
    assert ws == MultiVector.basis(a1, [0, 1, 2]).scale(Fraction(-1, 16))
    assert delta(MultiVector.over(a1, 0, {0: 1})) == ws


def test_delta_degree_overflow(a2):
    top = MultiVector.basis(a2, range(a2.g))
    assert delta(top).is_zero()
    op = graded_matrix(a2, "delta", a2.g)
    assert (op.rows, op.cols) == (0, 1)


def test_delta_star_low_degree(a2):
    assert delta_star(MultiVector.basis(a2, [0, 1])).is_zero()
    assert delta_star(MultiVector.over(a2, 0, {0: 1})).is_zero()
    op = graded_matrix(a2, "delta_star", 2)
    assert (op.rows, op.cols) == (0, 28)


def test_delta_star_on_degree_three_is_w(a2):
    u = MultiVector.basis(a2, [0, 2, 5])
    assert delta_star(u).scalar_value() == a2.w_eval(*(a2.basis_vector(i) for i in (0, 2, 5)))


def test_delta_star_scalar_nonzero(a1, a2, c2):
    for L in (a1, a2, c2):
        assert delta_star_scalar(L) != 0


def test_delta_star_kills_borel_wedge(a2):
    assert delta_star(borel_top_wedge(a2)).is_zero()


def test_lie_action_root_grading(a2):
    one = MultiVector.over(a2, 0, {0: 1})
    assert lie_action(a2, a2.basis_vector(0), one).is_zero()
    xa = MultiVector.basis(a2, [a2.pos_index(0)])
    h = a2.basis_vector(0)
    alpha_h = a2.bracket(h, a2.basis_vector(a2.pos_index(0)))[a2.pos_index(0)]
    assert lie_action(a2, h, xa) == xa.scale(alpha_h)
    pair = MultiVector.basis(a2, [a2.pos_index(0), a2.pos_index(1)])
    beta_h = a2.bracket(h, a2.basis_vector(a2.pos_index(1)))[a2.pos_index(1)]
    assert lie_action(a2, h, pair) == pair.scale(alpha_h + beta_h)


def test_casimir_eigenvalues(a1, a2):
    assert casimir(MultiVector.over(a2, 0, {0: 1})).is_zero()
    for i in range(a2.g):
        v = MultiVector.basis(a2, [i])
        assert casimir(v) == v  # Killing normalization: identity on the adjoint
    top = borel_top_wedge(a2)
    assert casimir(top) == top.scale(Fraction(8, 3))
    assert casimir_eigenvalue(a2.rd, two_rho(a2.rd)) == Fraction(8, 3)
    top1 = borel_top_wedge(a1)
    assert casimir(top1) == top1.scale(casimir_eigenvalue(a1.rd, two_rho(a1.rd)))


def _oracle_casimir(L, u):
    """sum_i b_i . (b^i . u) over the kappa-dual basis, from the Lie actions alone."""
    acc = MultiVector.zero(L, u.degree)
    for i in range(L.g):
        acc = acc.add(lie_action_basis(L, i, lie_action(L, L.dual_basis_vector(i), u)))
    return acc


def _basis_wedges(L):
    return [MultiVector(L, k, {key: Fraction(1)}) for k in range(L.g + 1) for key in degree_keys(L, k)]


def _casimir_mismatches(L, vectors):
    return [u for u in vectors if casimir(u) != _oracle_casimir(L, u)]


def test_casimir_table_matches_dual_basis_sum(a2, b2, c2, g2):
    for L in (a2, b2, c2):
        assert _casimir_mismatches(L, _basis_wedges(L)) == []
    rng = Lcg(5)
    wedges = []
    for _ in range(50):
        k = rng.randint(0, g2.g)
        keys = degree_keys(g2, k)
        wedges.append(MultiVector(g2, k, {keys[rng.randint(0, len(keys) - 1)]: Fraction(1)}))
    assert _casimir_mismatches(g2, wedges) == []


def test_casimir_table_on_multivectors(a2, c2):
    rng = Lcg(17)
    for L in (a2, c2):
        vectors = []
        for _ in range(40):
            k = rng.randint(1, L.g - 1)
            keys = degree_keys(L, k)
            terms = {}
            for n in range(rng.randint(1, 6)):
                key = keys[rng.randint(0, len(keys) - 1)]  # repeats add up
                coeff = rng.randint_nonzero(-3, 3)
                coeff = coeff if n % 2 else Fraction(coeff, rng.randint(1, 4))
                terms[key] = terms.get(key, 0) + coeff
            vectors.append(MultiVector(L, k, terms))
        assert _casimir_mismatches(L, vectors) == []
        assert casimir(vectors[0].scale(Fraction(-2, 3))) == casimir(vectors[0]).scale(Fraction(-2, 3))


def _flip_first_term(table, part=None):
    """``table`` with the sign of the first term of ``part`` (of its first part if None) flipped."""
    part = table[0][0] if part is None else part
    assert part in dict(table)
    out = []
    for p, terms in table:
        if p == part:
            (put, mask, plus, minus), *rest = terms
            terms = ((put, mask, minus, plus), *rest)
        out.append((p, terms))
    return tuple(out)


@pytest.mark.parametrize("replaced", [[1], [1, 4]])
def test_casimir_oracle_sees_a_flipped_table_sign(replaced):
    L = build_algebra(build_root_datum("A", 2))  # private copy: its cache is corrupted below
    casimir(MultiVector.basis(L, [0]))
    table, den = L._cache["_casimir_table"]
    L._cache["_casimir_table"] = (_flip_first_term(table, sum(1 << i for i in replaced)), den)
    assert _casimir_mismatches(L, _basis_wedges(L)) != []


# Fraction references for the integer paths: the wedge, the contraction, the
# Lie action and the wedge of rows as they were summed before the integer
# tables, all read from the rational ``terms`` view.


def _indices(key):
    return [i for i in range(key.bit_length()) if key >> i & 1]


def _oracle_delta_star(u):
    """Contraction summed in Fraction straight from ``L.w_table``."""
    L = u.L
    out = {}
    for key, coeff in u.terms.items():
        idx = _indices(key)
        for a, b, c in itertools.combinations(range(len(idx)), 3):
            val = L.w_table.get((idx[a], idx[b], idx[c]))
            if val:
                new_key = key & ~(1 << idx[a]) & ~(1 << idx[b]) & ~(1 << idx[c])
                sign = 1 if (a + b + c) & 1 else -1  # (-1)^(a+b+c-3)
                out[new_key] = out.get(new_key, Fraction(0)) + sign * coeff * val
    return MultiVector(L, u.degree - 3, out)


def _oracle_lie_action_basis(L, i, u):
    """ad b_i on each factor in turn, summed in Fraction straight from ``L.brackets``."""
    out = {}
    for key, coeff in u.terms.items():
        idx = _indices(key)
        for pos, j in enumerate(idx):
            for m, c in L.brackets[i][j].items():
                for new_key, sign in MultiVector.basis(L, idx[:pos] + [m] + idx[pos + 1 :]).terms.items():
                    out[new_key] = out.get(new_key, Fraction(0)) + sign * coeff * c
    return MultiVector(L, u.degree, out)


def _oracle_wedge(u, v):
    """Graded product summed in Fraction, each pair of keys sorted by ``MultiVector.basis``."""
    out = {}
    for k1, c1 in u.terms.items():
        for k2, c2 in v.terms.items():
            for key, sign in MultiVector.basis(u.L, _indices(k1) + _indices(k2)).terms.items():
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
    return MultiVector(u.L, u.degree + v.degree, out)


def _oracle_wedge_rows(L, rows):
    acc = MultiVector.over(L, 0, {0: 1})
    for row in rows:
        acc = _oracle_wedge(acc, MultiVector.from_vector(L, row))
    return acc


def _integer_path_mismatches(L, vectors):
    ws = w_sharp(L)
    bad = [("delta", u) for u in vectors if delta(u) != _oracle_wedge(ws, u)]
    bad += [("delta_star", u) for u in vectors if delta_star(u) != _oracle_delta_star(u)]
    bad += [("casimir", u) for u in vectors if casimir(u) != _oracle_casimir(L, u)]
    for u, v in itertools.product(vectors, vectors[:: max(1, len(vectors) // 10)]):
        if wedge(u, v) != _oracle_wedge(u, v):
            bad.append(("wedge", u, v))
    for u, i in itertools.product(vectors, range(L.g)):
        if lie_action_basis(L, i, u) != _oracle_lie_action_basis(L, i, u):
            bad.append(("lie_action_basis", i, u))
    return bad


def _wedges_up_to_six(L):
    return [MultiVector(L, k, {key: Fraction(1)}) for k in range(7) for key in degree_keys(L, k)]


def _seeded_multivectors(L, seed, count=30):
    """Multivectors whose coefficients have denominators 1, 3 and 7."""
    rng = Lcg(seed)
    vectors = []
    for _ in range(count):
        k = rng.randint(1, L.g - 1)
        keys = degree_keys(L, k)
        terms = {}
        for _ in range(rng.randint(1, 6)):
            key = keys[rng.randint(0, len(keys) - 1)]  # repeats add up
            terms[key] = terms.get(key, 0) + Fraction(rng.randint_nonzero(-3, 3), (1, 3, 7)[rng.randint(0, 2)])
        vectors.append(MultiVector(L, k, terms))
    return vectors


def test_integer_paths_match_fraction_oracles(a2, c2):
    for L in (a2, c2, c2.with_corrupted_constant(2, 3, 1)):
        assert _integer_path_mismatches(L, _wedges_up_to_six(L) + _seeded_multivectors(L, 31)) == []
        for k in range(7):
            for combo in itertools.combinations(range(L.g), k):
                rows = [L.basis_vector(i) for i in reversed(combo)]
                assert wedge_rows(L, rows) == _oracle_wedge_rows(L, rows)


def test_plucker_wedge_matches_fraction_oracle(a2, c2):
    rng = Lcg(23)
    for L in (a2, c2):
        subspaces = [random_subspace(L, rng, L.d) for _ in range(5)]
        subspaces += [chart(L, random_chart_parameters(L, rng)) for _ in range(5)]
        for S in subspaces:
            rows = S.rows
            P = wedge_rows(L, rows)
            assert not P.is_zero() and P == _oracle_wedge_rows(L, rows)
            assert _integer_path_mismatches(L, [P]) == []
        for _ in range(5):
            # rows over denominators up to 7, not always independent
            rows = [sparse(Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(L.g)) for _ in range(L.d)]
            assert wedge_rows(L, rows) == _oracle_wedge_rows(L, rows)


# each id names the integer table it corrupts: the w triples of the
# contraction, the sparse ad table of the Lie action, the terms of w_sharp
_TABLES = {"w_integer": "_delta_star_table", "ad_sparse": "_lie_tables", "w_sharp_terms": "_delta_table"}


@pytest.mark.parametrize("table", list(_TABLES))
def test_oracles_see_a_flipped_integer_table_sign(table):
    L = build_algebra(build_root_datum("A", 2))  # private copy: its cache is corrupted below
    u = MultiVector.basis(L, [0, 1, 2])
    delta_star(u), lie_action_basis(L, 0, u), delta(u)  # build the three tables
    name = _TABLES[table]
    tables, den = L._cache[name]
    if name == "_lie_tables":
        i = next(i for i, t in enumerate(tables) if t)
        tables[i] = _flip_first_term(tables[i])
    else:
        L._cache[name] = (_flip_first_term(tables), den)
    assert _integer_path_mismatches(L, _basis_wedges(L)) != []


def _fraction_sum(u, v):
    out = u.terms
    for key, c in v.terms.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def test_multivector_arithmetic_matches_fraction_oracles(a2, c2):
    for L in (a2, c2):
        vectors = _seeded_multivectors(L, 43)
        sums = 0
        for u, v in itertools.product(vectors, repeat=2):
            assert wedge(u, v).terms == _oracle_wedge(u, v).terms
            assert (u == v) == (u.terms == v.terms)
            if u.degree == v.degree:
                assert u.add(v).terms == _fraction_sum(u, v)
                assert u.sub(v).terms == _fraction_sum(u, v.scale(-1))
                sums += 1
        assert sums > len(vectors)
        for u in vectors:
            for c in (Fraction(-2, 3), Fraction(0), Fraction(7), Fraction(5, 21)):
                assert u.scale(c).terms == {key: c * x for key, x in u.terms.items() if c * x}
            # the same value over unequal denominators
            for f in (3, 7, 21):
                inflated = MultiVector.over(L, u.degree, {key: f * n for key, n in u.ints.items()}, f * u.den)
                assert inflated == u and u == inflated and inflated.terms == u.terms
                assert inflated.add(u) == u.scale(2) and inflated.sub(u).is_zero()
                assert MultiVector.over(L, u.degree, u.ints, f * u.den) != u
            view = u.terms
            view.clear()
            assert u.terms and not u.is_zero()


def test_integer_paths_with_non_integral_constants(a2):
    L = a2.with_corrupted_constant(2, 3, 1, Fraction(1, 2))
    assert lcm(*[v.denominator for v in L.w_table.values()]) == 2
    assert _integer_path_mismatches(L, _wedges_up_to_six(L) + _seeded_multivectors(L, 37)) == []


def test_zeta_examples(a2):
    one = MultiVector.over(a2, 0, {0: 1})
    s = delta_star_scalar(a2)
    assert zeta(one) == one.scale(s)
    ws = w_sharp(a2)
    assert zeta(ws) == ws.scale(s)
    assert zeta(borel_top_wedge(a2)).is_zero()


def test_w_sharp_invariance(a1, a2, c2):
    for L in (a1, a2, c2):
        assert check_w_sharp_invariance(L)


def test_graded_matrix_rank_deg2(a2):
    op = graded_matrix(a2, "delta", 2)
    assert (op.rows, op.cols) == (56, 28)
    assert blocked_rank(a2, "delta", 2) == 28


def test_blocked_rank_matches_full_matrix(a2, c2):
    # the sparse integer weight blocks against the dense graded matrices
    for L in (a2, c2):
        for k in range(0, L.g + 1):
            dense = graded_matrix(L, "delta", k)
            assert blocked_rank(L, "delta", k) == rank(integer_rows(dense.sparse_rows()))
        dense = graded_matrix(L, "delta_star", L.d)
        assert blocked_rank(L, "delta_star", L.d) == rank(integer_rows(dense.sparse_rows()))
        c_top = casimir_eigenvalue(L.rd, two_rho(L.rd))
        for k in range(L.g - L.d, L.d + 1):
            cmat = graded_matrix(L, "casimir", k)
            shifted = Matrix.from_rows(
                [[x - c_top * (i == j) for j, x in enumerate(cmat.row(i))] for i in range(cmat.rows)]
            )
            kernel = kernel_basis(integer_rows(shifted.sparse_rows()), shifted.cols)
            assert blocked_eigenspace_dim(L, k, c_top) == len(kernel) > 0


def test_eigenspace_dim_by_rank_matches_kernel_count(a2, c2):
    for L in (a2, c2):
        for scalar in (casimir_eigenvalue(L.rd, two_rho(L.rd)), 1):

            def shifted(u):
                return casimir(u).sub(u.scale(scalar))

            for k in range(L.g + 1):
                blocks = weight_blocks(L, k).values()
                kernels = sum(len(kernel_basis(_block_matrix(L, shifted, k, keys, keys), len(keys))) for keys in blocks)
                assert blocked_eigenspace_dim(L, k, scalar) == kernels


def test_delta_is_wedge_with_w_sharp(a2, c2):
    ws = w_sharp(a2)
    for k in range(a2.g + 1):
        for key in degree_keys(a2, k):
            u = MultiVector(a2, k, {key: Fraction(1)})
            assert delta(u) == wedge(ws, u)
    rng = Lcg(11)
    for L in (a2, c2):
        ws = w_sharp(L)
        for _ in range(60):
            k = rng.randint(0, L.g)
            keys = degree_keys(L, k)
            terms = {}
            for n in range(rng.randint(1, 6)):
                key = keys[rng.randint(0, len(keys) - 1)]  # repeats add up
                coeff = rng.randint_nonzero(-3, 3)
                coeff = coeff if n % 2 else Fraction(coeff, rng.randint(1, 4))
                terms[key] = terms.get(key, 0) + coeff
            u = MultiVector(L, k, terms)
            assert delta(u) == wedge(ws, u)
            assert delta(u.scale(-1)) == delta(u).scale(-1)


def test_weight_blocks_group_keys_by_summed_weights(a2, c2):
    a3 = build_algebra(build_root_datum("A", 3))
    for L in (a2, c2, a3):
        for k in range(L.g + 1):
            combos = list(itertools.combinations(range(L.g), k))
            assert degree_keys(L, k) == [sum(1 << i for i in combo) for combo in combos]
            expected = {}
            for combo in combos:
                weight = tuple(sum(L.weights[i][j] for i in combo) for j in range(L.l))
                expected.setdefault(weight, []).append(sum(1 << i for i in combo))
            assert weight_blocks(L, k) == expected


def test_exact_sequences_a1(a1):
    rep = verify_exact_sequences(a1)
    assert rep.ok
    assert [r.gamma_mult for r in rep.records] == [0, 3, 3, 0]


def test_exact_sequences_a2(a2):
    rep = verify_exact_sequences(a2)
    assert rep.ok
    by_k = {r.k: r for r in rep.records}
    assert by_k[5].rank_delta_in == 28
    assert by_k[5].ker_delta == 55
    assert by_k[5].gamma_mult == 27
    assert by_k[2].ker_delta == 0 and by_k[2].gamma_mult == 0


def test_c2_kernel_is_w_line(c2):
    assert blocked_rank(c2, "delta", 3) == 119
    # the dense oracle: the right kernel of the whole degree-3 wedge matrix
    dense = graded_matrix(c2, "delta", 3)
    ker = kernel_basis(integer_rows(dense.sparse_rows()), dense.cols)
    assert len(ker) == 1
    keys = degree_keys(c2, 3)
    vector = MultiVector(c2, 3, {keys[j]: x for j, x in ker[0].items()})
    ws = w_sharp(c2)
    key = next(iter(ws.terms))
    ratio = vector.terms.get(key, Fraction(0)) / ws.terms[key]
    assert ratio != 0 and vector == ws.scale(ratio)


def test_zeta_identity_full(a1, a2):
    for L in (a1, a2):
        assert verify_zeta_identity(L) == (True, [True] * (L.g + 1))


def test_zeta_identity_c2_capped(c2):
    # C2 was once checked exactly only up to degree 4 and sampled above it;
    # every degree 0..10 is now checked on every basis wedge
    squares_ok, zeta_ok = verify_zeta_identity(c2)
    assert squares_ok
    assert len(zeta_ok) == c2.g + 1 == 11
    assert all(zeta_ok)


def test_zeta_identity_fails_degreewise_on_corrupted_c2(c2):
    # the corruption keeps both squares zero but breaks zeta at every degree
    # between 1 and 9; degrees 0 and 10 (the scalars and the top wedge) hold
    squares_ok, zeta_ok = verify_zeta_identity(c2.with_corrupted_constant(2, 3, 1))
    assert squares_ok
    assert zeta_ok == [True] + [False] * 9 + [True]


def _zeta_and_squares_oracle(L):
    """The per-wedge loop: both squares and zeta on every basis wedge of every degree."""
    scalar = delta_star_scalar(L)
    ratio = scalar / casimir_eigenvalue(L.rd, two_rho(L.rd))
    squares_ok = True
    zeta_ok = []
    for k in range(L.g + 1):
        ok = True
        for key in degree_keys(L, k):
            u = MultiVector.over(L, k, {key: 1})
            up, down = delta(u), delta_star(u)
            if not delta(up).is_zero() or not delta_star(down).is_zero():
                squares_ok = False
            if ok and delta(down).add(delta_star(up)).add(casimir(u).scale(ratio)) != u.scale(scalar):
                ok = False
        zeta_ok.append(ok)
    return squares_ok, zeta_ok


@pytest.mark.parametrize("fixture", ["a2", "c2"])
def test_squares_on_their_deciding_degrees_match_the_per_wedge_loop(fixture, request):
    # delta twice is read off delta(w_sharp) and delta_star twice off degree 6
    L = request.getfixturevalue(fixture)
    rng = Lcg(7)
    corruptions = [(2, 3, 1)]
    while len(corruptions) < 4:
        i, j, k = (rng.randint(0, L.g - 1) for _ in range(3))
        if i != j:
            corruptions.append((i, j, k))
    for M in [L] + [L.with_corrupted_constant(*c) for c in corruptions]:
        assert verify_zeta_identity(M) == _zeta_and_squares_oracle(M)


def test_operator_invariance(a1, a2):
    for L in (a1, a2):
        assert check_w_sharp_invariance(L) and check_equivariance_matrices(L)


def test_zeta_commutes_with_casimir_low_degrees(a2):
    for k in range(0, 4):
        zc = graded_matrix(a2, "zeta", k) @ graded_matrix(a2, "casimir", k)
        cz = graded_matrix(a2, "casimir", k) @ graded_matrix(a2, "zeta", k)
        assert zc == cz
