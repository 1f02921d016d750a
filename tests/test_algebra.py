"""Concrete algebras: brackets, Killing form, trilinear form, involutions, subspaces."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from nullvar import algebra
from nullvar.algebra import (
    InvolutionError,
    LieAlgebra,
    StructureError,
    Subspace,
    bracket_defect,
    build_algebra,
    build_involution,
    check_antisymmetry,
    check_jacobi,
    check_kappa_invariance,
    check_kappa_root_form,
    check_root_space_pairing,
    check_w_antisymmetry,
    eigenspace,
    orthogonal_complement,
    standard_borel,
)
from nullvar.linalg import combine, kernel_basis
from nullvar.roots import build_root_datum
from nullvar.seeds import Lcg
from nullvar.variety import is_nullspace, random_subspace

import dense_oracles
from dense_oracles import dense, sparse

def test_a1_structure(a1):
    h, x, y = a1.basis_vector(0), a1.basis_vector(1), a1.basis_vector(2)
    assert a1.bracket(h, x) == {1: 2}
    assert a1.bracket(h, y) == {2: -2}
    assert a1.bracket(x, y) == h
    # oracle: trace of (ad h)^2 = sum of alpha(h)^2 over both roots = 4 + 4
    ad_h = dense_oracles.transpose([dense(a1, a1.bracket(h, a1.basis_vector(j))) for j in range(3)])
    assert sum(dense_oracles.matmul(ad_h, ad_h)[i][i] for i in range(3)) == 8
    assert a1.kappa_pair(h, h) == 8


def test_a2_shape(a2):
    assert a2.g == 8 and a2.n_pos == 3
    for a in range(a2.n_pos):
        assert a2.kappa_pair(a2.basis_vector(a2.pos_index(a)), a2.basis_vector(a2.neg_index(a))) != 0


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2"])
def test_sparse_kappa_is_the_dense_trace_form(fixture, request):
    L = request.getfixturevalue(fixture)
    dense_kappa = dense_oracles.kappa_matrix(L)
    e = L.basis_vector
    assert all(L.kappa_pair(e(i), e(j)) == dense_kappa[i][j] for i in range(L.g) for j in range(L.g))
    assert all(0 not in row.values() for row in L.kappa)


# sha256 of each type's bracket table and sparse kappa, as written by _table_digest
TABLE_DIGESTS = {
    "A1": "9717a29c9775d911fd727adcc302da1d6de27fcbbccc8b532e8315a76b17c5f7",
    "A2": "b9db1ab8770203253566aba499ccc782111d83dd705426c00a4aeb8dc38d6703",
    "A3": "ee2895658526c2f4c536c76755971868af9315e8b9bfa764318dbfc978f49bad",
    "B2": "f84545d9d7449d374ae1642c602933a0f7d9d03c5301fcac5ddce4609e34231a",
    "B3": "720f9e009a1f0807892f1ae2798caeacfa877cb835c664012a12a4d296b1fced",
    "C2": "cff27b72ca6d22759f671331e5b7794c0340132aeb96b24784e450d4d2fa886b",
    "C3": "0b9fae7fb0417194d37dd223f145ab00a69812b89971756e84f3351f52a094d7",
    "D3": "ab88d655b060611fa78ea48bab8bc31f8dd318cf58604b33c7f67231399060c7",
    "D4": "76e6c6ff85ee9b9c386f572b4c016bedc8bf28246f747304e6c8c3016ebae856",
    "G2": "2f5bcad65fe9399689f748bcd28e6c36ef657eed14461419c4e0ac3e63169d81",
}


def _table_digest(L) -> str:
    h = hashlib.sha256()
    for i, row in enumerate(L.brackets):
        for j, cell in enumerate(row):
            for k, c in sorted(cell.items()):
                h.update(f"b{i},{j},{k}:{c};".encode())
    for i, row in enumerate(L.kappa):
        for j, c in sorted(row.items()):
            h.update(f"k{i},{j}:{c};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("label", sorted(TABLE_DIGESTS))
def test_structure_constants_and_kappa_match_their_digest(label):
    L = build_algebra(build_root_datum(label[0], int(label[1:])))
    assert _table_digest(L) == TABLE_DIGESTS[label]


_CHECKS_AND_ORACLES = (
    (check_jacobi, dense_oracles.check_jacobi),
    (check_kappa_invariance, dense_oracles.check_kappa_invariance),
    (check_w_antisymmetry, dense_oracles.check_w_antisymmetry),
    (check_root_space_pairing, dense_oracles.check_root_space_pairing),
    (check_kappa_root_form, dense_oracles.check_kappa_root_form),
)


def _check_mismatches(L) -> list[str]:
    """Names of the structure checks whose list of bad triples or pairs differs from the triple-loop oracle's."""
    return [check.__name__ for check, oracle in _CHECKS_AND_ORACLES if check(L) != oracle(L)]


def test_structure_checks_match_loop_oracles_on_every_corruption_of_a2(a2):
    corruptions = [(i, j, k) for i in range(a2.g) for j in range(i + 1, a2.g) for k in range(a2.g)]
    assert len(corruptions) == 224
    mismatched = [c for c in corruptions if _check_mismatches(a2.with_corrupted_constant(*c))]
    assert mismatched == []


@pytest.mark.parametrize("fixture", ["a1", "a2", "b2", "c2", "g2"])
def test_exhaustive_structure_checks(fixture, request):
    L = request.getfixturevalue(fixture)
    assert check_antisymmetry(L) == []
    assert check_jacobi(L) == []
    assert check_kappa_invariance(L) == []
    assert check_w_antisymmetry(L) == []
    assert check_root_space_pairing(L) == []
    assert check_kappa_root_form(L) == []
    assert _check_mismatches(L) == []


def test_kappa_root_form_sees_a_rescaled_root_vector(a2):
    # doubling x_a keeps every bracket identity but leaves the Chevalley normalization
    i = a2.pos_index(0)
    scale = {i: Fraction(2)}
    brackets = [
        [{k: c * scale.get(m, 1) * scale.get(n, 1) / scale.get(k, 1) for k, c in cell.items()} for n, cell in enumerate(row)]
        for m, row in enumerate(a2.brackets)
    ]
    rescaled = LieAlgebra(a2.rd, a2.weights, brackets)
    assert check_jacobi(rescaled) == [] and check_kappa_invariance(rescaled) == []
    assert check_kappa_root_form(rescaled) == [(i, a2.neg_index(0))]
    assert check_kappa_root_form(a2.with_corrupted_constant(i, a2.neg_index(0), 0, 1)) != []


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2"])
def test_chevalley_constants(label):
    L = build_algebra(build_root_datum(label[0], int(label[1:])))
    rd = L.rd
    roots = [L.weights[i] for i in range(L.l, L.g)]
    index = {r: L.l + k for k, r in enumerate(roots)}
    for cell in (c for row in L.brackets for c in row):
        assert all(v.denominator == 1 for v in cell.values())
    pairs = 0
    for a in roots:
        neg_a = tuple(-c for c in a)
        # a(h_a) = 2, with h_a = [x_a, x_-a] on the simple coroots h_i
        h_a = L.brackets[index[a]][index[neg_a]]
        assert set(h_a) <= set(range(L.l))
        assert sum(c * rd.cartan[j][i] * a[j] for i, c in h_a.items() for j in range(L.l)) == 2
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s not in index:
                continue
            n_ab = L.n_constant(index[a], index[b])
            n_neg = L.n_constant(index[neg_a], index[tuple(-c for c in b)])
            assert n_neg == -n_ab
            p, down = 0, tuple(y - x for x, y in zip(a, b))
            while down in index:
                p, down = p + 1, tuple(y - x for x, y in zip(a, down))
            assert abs(n_ab) == p + 1, (a, b)
            pairs += 1
    assert pairs > 0


def test_bracket_antisymmetry_on_vectors(a2):
    x = sparse(k % 3 - 1 for k in range(8))
    assert a2.bracket(x, x) == {}
    assert a2.bracket(a2.basis_vector(0), a2.basis_vector(1)) == {}


def test_w_alternation_and_values(a1, a2):
    x, y, h = a1.basis_vector(1), a1.basis_vector(2), a1.basis_vector(0)
    assert a1.w_eval(x, x, h) == 0
    assert a1.w_eval(x, y, h) == 8
    # simple alpha, beta with x_{-alpha-beta}: nonzero
    val = a2.w_eval(*(a2.basis_vector(i) for i in (a2.pos_index(0), a2.pos_index(1), a2.neg_index(2))))
    assert val != 0


def _w_by_bracket(L, kappa, x, y, z):
    """Independent w: expand [x, y] from the bracket table, then pair with z by the dense ``kappa``."""
    x, y, z = ([Fraction(a) for a in v] for v in (x, y, z))
    xy = [Fraction(0)] * L.g
    for i in range(L.g):
        for j in range(L.g):
            for k, c in L.brackets[i][j].items():
                xy[k] += x[i] * y[j] * c
    return sum(xy[k] * kappa[k][m] * z[m] for k in range(L.g) for m in range(L.g))


@pytest.mark.parametrize("fixture", ["a2", "c2"])
def test_w_eval_matches_bracket_then_kappa(fixture, request):
    L = request.getfixturevalue(fixture)
    rng = Lcg(11)
    g = L.g

    def draw():
        return sparse(rng.randint(-3, 3) for _ in range(g))

    units = [L.basis_vector(i) for i in range(g)]
    integral = [draw() for _ in range(12)]
    rational = [sparse(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(g)) for _ in range(6)]
    as_ints = [{j: int(a) for j, a in v.items()} for v in integral[:4]]
    pool = integral + rational + as_ints
    triples = [(units[i], units[j], units[k]) for i in range(g) for j in range(g) for k in range(g)]
    triples += [(pool[n % len(pool)], pool[(3 * n + 1) % len(pool)], pool[(7 * n + 2) % len(pool)]) for n in range(60)]
    triples += [(units[n % g], pool[n % len(pool)], pool[(n + 5) % len(pool)]) for n in range(40)]
    nonzero = 0
    kappa = dense_oracles.kappa_matrix(L)
    for x, y, z in triples:
        got = L.w_eval(x, y, z)
        assert type(got) is Fraction
        assert got == _w_by_bracket(L, kappa, *(dense(L, v) for v in (x, y, z))), (x, y, z)
        nonzero += got != 0
    assert nonzero > len(triples) // 10  # the comparison is not vacuous
    w = pool[1]
    for v in pool[::3]:
        assert L.w_eval(v, v, w) == L.w_eval(v, w, v) == L.w_eval(w, v, v) == 0


def test_involution_dimensions(a1, a2, c2):
    assert eigenspace(a1, build_involution(a1, (1,)), 1).dim == 1
    assert eigenspace(a1, build_involution(a1, (1,)), -1).dim == 2
    sigma = build_involution(a2, (1, 1))
    assert eigenspace(a2, sigma, 1).dim == 3
    assert eigenspace(a2, sigma, -1).dim == 5
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        sigma = build_involution(c2, signs)
        assert eigenspace(c2, sigma, 1).dim == 4
        assert eigenspace(c2, sigma, -1).dim == 6


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_involution_signs_are_units(label):
    # N_{-a,-b} = -N_{a,b} in a Chevalley basis forces t_alpha = +-1; build_involution
    # itself checks the automorphism property on every basis pair
    L = build_algebra(build_root_datum(label[0], int(label[1:])))
    for signs in itertools.product((1, -1), repeat=L.l):
        sigma = build_involution(L, signs)
        assert all(t in (1, -1) for image in sigma for t in image.values())


def _dense_sigma(L, signs) -> list[list[Fraction]]:
    """sigma as a g x g matrix: column j is the image of b_j."""
    g = L.g
    entries = [[Fraction(0)] * g for _ in range(g)]
    for i in range(L.l):
        entries[i][i] = Fraction(-1)
    for a, t in enumerate(signs):
        p, n = L.pos_index(a), L.neg_index(a)
        entries[n][p], entries[p][n] = t, 1 / t
    return entries


def _matvec(m: list, v) -> tuple:
    return tuple(sum((a * x for a, x in zip(row, v) if x), Fraction(0)) for row in m)


def _dense_build_involution(L, simple_signs):
    """The dense builder that ``build_involution`` replaced, kept as an oracle.

    It checks sigma^2 = 1 and the automorphism property through dense products,
    takes the eigenspaces as kernels of sigma -+ 1, and returns
    ``(images, fixed, minus)`` with images[j] the sparse column j of sigma.
    """
    simple_signs = tuple(int(s) for s in simple_signs)
    if len(simple_signs) != L.l or any(s not in (1, -1) for s in simple_signs):
        raise InvolutionError("need one sign in {+1,-1} per simple root")
    signs = [Fraction(s) for s in simple_signs] + [None] * (L.n_pos - L.l)
    for a in range(L.l, L.n_pos):
        b, c = L.decomposition(a)
        if signs[b] is None or signs[c] is None:
            raise StructureError("positive roots are not in height order")
        n_pp = L.n_constant(L.pos_index(b), L.pos_index(c))
        n_mm = L.n_constant(L.neg_index(b), L.neg_index(c))
        signs[a] = signs[b] * signs[c] * n_mm / n_pp
    g = L.g
    sigma = _dense_sigma(L, signs)
    if dense_oracles.matmul(sigma, sigma) != dense_oracles.identity(g):
        raise InvolutionError("sigma squared is not the identity")
    for i in range(g):
        si = _matvec(sigma, dense_oracles.unit(L, i))
        for j in range(i + 1, g):
            lhs = _matvec(sigma, [L.brackets[i][j].get(k, Fraction(0)) for k in range(g)])
            if lhs != dense_oracles.bracket(L, si, _matvec(sigma, dense_oracles.unit(L, j))):
                raise InvolutionError(f"sigma fails to be an automorphism on ({i},{j})")

    def eigenspace(e):
        rows = [[x - e * (i == j) for j, x in enumerate(row)] for i, row in enumerate(sigma)]
        return Subspace(L, kernel_basis([sparse(row) for row in rows], g))

    fixed, minus = eigenspace(1), eigenspace(-1)
    if fixed.dim != (g - L.l) // 2 or minus.dim != L.d:
        raise InvolutionError("eigenspace dimensions are off")
    return [sparse(column) for column in zip(*sigma)], fixed, minus


def _involution_outcome(build, L, signs):
    try:
        return build(L, signs)
    except (InvolutionError, StructureError) as exc:
        return type(exc), str(exc)


# corrupted constants (i, j, k) of A2: one the builder accepts, one that breaks the
# automorphism check, one whose bracket of root vectors is no longer a single root
# vector; and a sign outside {+1, -1}
_INVOLUTION_WITNESSES = [
    ((2, 5, 0), (1, -1), None),
    ((2, 3, 4), (1, 1), "sigma fails to be an automorphism on (2,7)"),
    ((2, 3, 0), (-1, 1), "bracket of indices 2,3 is not a single root vector"),
    (None, (2, 1), "need one sign in {+1,-1} per simple root"),
]


@pytest.mark.parametrize(
    "corruption,signs,error", _INVOLUTION_WITNESSES, ids=["green", "automorphism", "n_constant", "bad_sign"]
)
def test_involution_matches_dense_builder_on_witnesses(a2, corruption, signs, error):
    L = a2.with_corrupted_constant(*corruption) if corruption else a2
    dense = _involution_outcome(_dense_build_involution, L, signs)
    sparse = _involution_outcome(build_involution, L, signs)
    if error is None:
        assert sparse == dense[0]
        assert (eigenspace(L, sparse, 1), eigenspace(L, sparse, -1)) == dense[1:]
    else:
        assert sparse == dense and sparse[1] == error


@pytest.mark.parametrize("label", ["A2", "B2", "C2"])
def test_involution_matches_dense_builder(label):
    L = build_algebra(build_root_datum(label[0], int(label[1:])))
    for signs in itertools.product((1, -1), repeat=L.l):
        sigma = build_involution(L, signs)
        assert (sigma, eigenspace(L, sigma, 1), eigenspace(L, sigma, -1)) == _dense_build_involution(L, signs)


def test_involution_eigenspaces_are_right_eigenvectors(b2):
    for signs in itertools.product((1, -1), repeat=b2.l):
        images = build_involution(b2, signs)
        sigma = dense_oracles.transpose([dense(b2, image) for image in images])
        minus = eigenspace(b2, images, -1)
        assert minus.dim == b2.d
        for v in (dense(b2, row) for row in minus.rows):
            assert _matvec(sigma, v) == tuple(-x for x in v)
        for v in (dense(b2, row) for row in eigenspace(b2, images, 1).rows):
            assert _matvec(sigma, v) == v


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_decomposition_is_first_of_all_decompositions(label):
    L = build_algebra(build_root_datum(label[0], int(label[1:])))
    pos = L.rd.positive_roots
    for a in range(L.l, L.n_pos):
        # oracle: the first positive root alpha in root order with gamma - alpha positive
        b = next(b for b, alpha in enumerate(pos) if tuple(x - y for x, y in zip(pos[a], alpha)) in pos)
        first = (b, pos.index(tuple(x - y for x, y in zip(pos[a], pos[b]))))
        assert L.decomposition(a) == L.all_decompositions(a)[0] == first


@pytest.mark.parametrize("family", ["B", "C"])
def test_rank3_sign_patterns_build_nullspaces(family):
    L = build_algebra(build_root_datum(family, 3))
    for signs in itertools.product((1, -1), repeat=3):
        minus = eigenspace(L, build_involution(L, signs), -1)
        assert minus.dim == L.d
        assert is_nullspace(L, minus)


def test_involution_is_orthogonal_decomposition(a2):
    sigma = build_involution(a2, (1, -1))
    fixed, minus = eigenspace(a2, sigma, 1), eigenspace(a2, sigma, -1)
    assert fixed.add(minus).dim == a2.g
    for u in fixed.rows:
        for v in minus.rows:
            assert a2.kappa_pair(u, v) == 0
    assert minus == orthogonal_complement(a2, fixed)


@pytest.mark.parametrize("fixture", ["a2", "c2"])
def test_eigenspaces_of_an_inner_involution(fixture, request):
    # sigma(b_i) = eps(wt b_i) b_i with eps the sign character that is -1 on the last simple root
    L = request.getfixturevalue(fixture)
    sign = [(-1) ** wt[-1] for wt in L.weights]
    sigma = [{i: Fraction(s)} for i, s in enumerate(sign)]
    assert bracket_defect(L, sigma) is None
    for s in (1, -1):
        assert eigenspace(L, sigma, s) == Subspace(L, [L.basis_vector(i) for i in range(L.g) if sign[i] == s])
    assert is_nullspace(L, eigenspace(L, sigma, -1))


def test_involution_minus_space_form(a2):
    # minus eigenspace = Cartan plus the lines x_a - t_a x_{-a}
    sigma = build_involution(a2, (1, 1))
    minus = eigenspace(a2, sigma, -1)
    assert all(minus.contains(a2.basis_vector(i)) for i in range(a2.l))
    for a in range(a2.n_pos):
        t = sigma[a2.pos_index(a)][a2.neg_index(a)]
        assert minus.contains({a2.pos_index(a): Fraction(1), a2.neg_index(a): -t})


def test_involution_rejects_bad_signs(a2):
    with pytest.raises(InvolutionError):
        build_involution(a2, (2, 1))
    corrupted = a2.with_corrupted_constant(a2.pos_index(0), a2.pos_index(1), a2.pos_index(2), 1)
    with pytest.raises((InvolutionError, StructureError)):
        build_involution(corrupted, (1, 1))


def test_orthogonal_complements(a2):
    assert orthogonal_complement(a2, Subspace(a2, [a2.basis_vector(i) for i in range(a2.g)])).dim == 0
    h = Subspace(a2, [a2.basis_vector(i) for i in range(a2.l)])
    h_perp = orthogonal_complement(a2, h)
    assert h_perp.dim == 6
    for a in range(a2.n_pos):
        assert h_perp.contains(a2.basis_vector(a2.pos_index(a)))
        assert h_perp.contains(a2.basis_vector(a2.neg_index(a)))
    S = standard_borel(a2)
    assert orthogonal_complement(a2, orthogonal_complement(a2, S)) == S


def _complement_oracle(L, S):
    """The complement by two eliminations: the kernel of S times kappa, then the echelon rows of that kernel."""
    rows = [combine((x, L.kappa[j]) for j, x in row.items()) for row in S.rows]
    return Subspace(L, kernel_basis(rows, L.g))


@pytest.mark.parametrize(
    "fixture,corrupt",
    [("a2", None), ("b2", None), ("c2", None), ("g2", None), ("c2", (2, 3, 1))],
    ids=["a2", "b2", "c2", "g2", "c2_corrupt_2_3_1"],
)
def test_orthogonal_complement_matches_two_elimination_oracle(fixture, corrupt, request, monkeypatch):
    L = request.getfixturevalue(fixture)
    if corrupt:
        L = L.with_corrupted_constant(*corrupt)
    kernels = []

    def recording(rows, cols, _kernel_basis=algebra.kernel_basis):
        kernels.append(_kernel_basis(rows, cols))
        return kernels[-1]

    monkeypatch.setattr(algebra, "kernel_basis", recording)
    rng = Lcg(11)
    for dim in range(L.g + 1):
        S = random_subspace(L, rng, dim)
        comp = orthogonal_complement(L, S)
        assert comp == _complement_oracle(L, S)
        # the kernel rows, mapped back from the reversed columns, are already the canonical rows
        mapped = [{L.g - 1 - j: x for j, x in row.items()} for row in kernels[-1]]
        assert sorted(mapped, key=min) == list(comp.rows)


def test_subspace_canonical_equality(a2):
    rows1 = [a2.basis_vector(0), a2.basis_vector(1)]
    rows2 = [{0: Fraction(1), 1: Fraction(1)}, a2.basis_vector(1)]
    assert Subspace(a2, rows1) == Subspace(a2, rows2)


@pytest.mark.parametrize("fixture", ["a2", "c2"])
def test_contains_agrees_with_dimension_growth(fixture, request):
    L = request.getfixturevalue(fixture)
    rng = Lcg(41)
    seen = set()
    for _ in range(15):
        S = random_subspace(L, rng, rng.randint(0, L.g))
        rows = [dense(L, row) for row in S.rows]
        inside = [Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in rows]
        vectors = [
            sparse(sum((c * row[j] for c, row in zip(inside, rows)), Fraction(0)) for j in range(L.g)),
            sparse(Fraction(rng.randint(-3, 3), rng.randint(1, 7)) for _ in range(L.g)),
        ] + [L.basis_vector(j) for j in range(L.g)]
        for v in vectors:
            grows = S.add(Subspace(L, [v])).dim > S.dim
            assert S.contains(v) == (not grows)
            seen.add(grows)
        with pytest.raises(ValueError):
            S.contains({L.g: Fraction(1)})
    assert seen == {True, False}


def test_subspace_json_roundtrip(a2):
    S = standard_borel(a2)
    data = S.to_json()
    assert data["dim"] == 5
    assert Subspace.from_json(a2, data) == S


def test_corruption_changes_checks(a2):
    bad = a2.with_corrupted_constant(a2.pos_index(0), a2.pos_index(1), a2.pos_index(2), 1)
    assert check_jacobi(bad) != []


def test_corrupting_a_diagonal_constant_is_rejected(a2):
    # C_ii^k would be shifted and shifted back by antisymmetry, a silent no-op
    with pytest.raises(ValueError, match="unchanged"):
        a2.with_corrupted_constant(1, 1, 0)
