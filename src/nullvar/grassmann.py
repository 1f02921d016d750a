"""Plucker vectors and the linear equations cutting the nullspace variety out of the Grassmannian.

Membership of a d-dimensional subspace in the variety is decided by linear
equations on its Plucker vector: the coordinates of its contraction with the
trilinear form, one per degree-(d-3) basis wedge, each read on demand off the
contraction's own table.  ``linear_membership`` evaluates those that P's keys
reach until one is nonzero; ``equation_set`` writes them all as the JSON of
the ``equations`` verb.  Through the pairing induced by the Killing form,
their row space matches the hyperplanes spanned by the wedge images from
degree d-3, which ``transpose_identity_sign`` checks one pair of weight
blocks per Weyl orbit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .algebra import LieAlgebra, Subspace, orthogonal_complement, per_algebra
from .exterior import (
    MultiVector,
    _bits,
    _delta_star_table,
    binomial_dim,
    blocked_rank,
    degree_keys,
    delta,
    delta_star,
    graded_matrix,
    key_index_map,
    lie_action_basis,
    orbit_representatives,
    wedge,
    weight_blocks,
)
from .linalg import Matrix, combine, det
from .seeds import Lcg
from .variety import chart, is_nullspace, random_chart_parameters, random_subspace


def plucker(L: LieAlgebra, S: Subspace) -> MultiVector:
    """Wedge of the canonical basis rows of a d-dimensional subspace."""
    if S.dim != L.d:
        raise ValueError(f"Plucker vectors require dimension {L.d}, got {S.dim}")
    v = MultiVector.over(L, 0, {0: 1})
    for row in reversed(S.rows):
        # each row, the last first, goes in front of the product so far, so the table is one row
        v = wedge(MultiVector.from_vector(L, row), v)
    if v.is_zero():
        raise AssertionError("independent rows wedge to zero")
    return v


def _equation(table: tuple, low: int) -> dict[int, int]:
    """Equation of the degree-(d-3) key ``low``: its numerator over ``den`` in the contraction of each degree-d key."""
    return {
        low | part: minus if (low & mask).bit_count() & 1 else plus
        for part, ((_, mask, plus, minus),) in table
        if not low & part
    }


def linear_membership(L: LieAlgebra, P: MultiVector) -> bool:
    """True iff P satisfies every linear equation, that is its contraction vanishes.

    Only the equations of ``v ^ part``, for a key v of P and a w triple
    ``part`` inside it, can be nonzero; each is read once, the first nonzero
    one deciding False.  For decomposable P this says the spanning subspace is
    a nullspace; the equations are linear, so any P is decided.
    """
    if P.degree != L.d:
        raise ValueError("membership is defined on degree-d vectors")
    table = _delta_star_table(L)[0]
    get = P.ints.get
    seen: set[int] = set()
    for key in P.ints:
        for part, _ in table:
            if key & part == part and (low := key ^ part) not in seen:
                seen.add(low)
                if sum(n * get(high, 0) for high, n in _equation(table, low).items()):
                    return False
    return True


def equation_set(L: LieAlgebra) -> dict:
    """The linear equations as sparse JSON rows: one per degree-(d-3) basis wedge.

    Row r lists the nonzero ``[column, coefficient]`` pairs, by column, of the
    equation of the r-th key of ``degree_keys(L, d - 3)``; column c is the
    c-th key of ``degree_keys(L, d)``.
    """
    table, den = _delta_star_table(L)
    column = key_index_map(L, L.d)
    equations = [
        [[c, str(Fraction(n, den))] for c, n in sorted((column[high], n) for high, n in _equation(table, low).items())]
        for low in degree_keys(L, L.d - 3)
    ]
    ambient = binomial_dim(L.g, L.d)
    return {
        "rows": len(equations),
        "cols": ambient,
        "equations": equations,
        "rank": blocked_rank(L, "delta_star", L.d),
        "ambient_plucker_dim": ambient,
    }


def equation_count(L: LieAlgebra) -> int:
    """Independent linear equations: rank of the wedge map from degree d-3, shared with the exact sequences."""
    return blocked_rank(L, "delta", L.d - 3)


# ---------------------------------------------------------------------------
# the kappa pairing on exterior powers and the transpose relation


def pairing_matrix(L: LieAlgebra, keys, tkeys) -> tuple[Matrix, int]:
    """``(m, den)``: the Gram matrix of the kappa pairing between the basis wedges ``keys`` and ``tkeys`` is m / den.

    kappa is read once, as integer rows over one denominator, so den is that
    denominator to the degree.  Entry (i, j) is the determinant of the minor
    of those rows on the factors of keys[i] against those of tkeys[j].  By
    the Leibniz expansion it is nonzero only if each factor of keys[i] picks
    a distinct partner from its sparse kappa row, so only the keys of
    ``tkeys`` reached that way are computed, and only the nonzero
    determinants are stored.
    """
    kappa_den = lcm(1, *[c.denominator for row in L.kappa for c in row.values()])
    kappa = [{j: c.numerator * (kappa_den // c.denominator) for j, c in row.items()} for row in L.kappa]
    index = {key: j for j, key in enumerate(tkeys)}
    k = keys[0].bit_count() if keys else 0
    data = []
    for key in keys:
        bits = _bits(key)
        reached = {0}
        for i in bits:
            reached = {mask | 1 << j for mask in reached for j in kappa[i] if not mask >> j & 1}
        row = {}
        for other in reached & index.keys():
            column = {j: c for c, j in enumerate(_bits(other))}
            if d := det([{column[j]: x for j, x in kappa[i].items() if j in column} for i in bits]):
                row[index[other]] = d
        data.append(row)
    return Matrix(len(keys), len(tkeys), tuple(data)), kappa_den**k


def transpose_identity_sign(L: LieAlgebra) -> int | None:
    """Sign s with M(contraction at d)^T G_{d-3} = s G_d M(wedge at d-3), or None.

    An exact matrix identity; its existence means the equation row space is the
    kappa-transpose of the wedge image from degree d-3.  Both operators keep
    weights and kappa pairs weight mu only with -mu, so the identity splits
    into one pair of blocks per weight mu of degree d-3: the contraction rows
    of B_d(-mu) into B_{d-3}(-mu) times G(B_{d-3}(-mu), B_{d-3}(mu)) against s
    times G(B_d(-mu), B_d(mu)) times the transposed wedge rows of B_{d-3}(mu)
    into B_d(mu).  A certified Tits lift commutes with both operators and
    keeps kappa, so each pair holds iff its representative's does
    (``orbit_representatives``).  Both sides are integer products, compared
    row by row each times the other's two denominators, and one s must hold
    for every pair.
    """
    low = L.d - 3
    if low < 0:
        return 1
    low_blocks, high_blocks = weight_blocks(L, low), weight_blocks(L, L.d)
    signs = (1, -1)
    for mu in orbit_representatives(L, low):
        minus = tuple(-c for c in mu)
        low_mu, high_mu = low_blocks[mu], high_blocks.get(mu, [])
        low_minus, high_minus = low_blocks.get(minus, []), high_blocks.get(minus, [])
        star, star_den = graded_matrix(L, delta_star, L.d, high_minus, low_minus)
        g_low, low_den = pairing_matrix(L, low_minus, low_mu)
        lhs = (Matrix(len(high_minus), len(low_minus), tuple(star)) @ g_low).data
        up, delta_den = graded_matrix(L, delta, low, low_mu, high_mu)
        g_high, high_den = pairing_matrix(L, high_minus, high_mu)
        rhs = (g_high @ Matrix(len(low_mu), len(high_mu), tuple(up)).transpose()).data
        a, b = high_den * delta_den, low_den * star_den
        signs = tuple(s for s in signs if not any(combine(((a, x), (-s * b, y))) for x, y in zip(lhs, rhs)))
        if not signs:
            return None
    return signs[0]


# ---------------------------------------------------------------------------
# the agreement suite between the linear and the direct membership tests


def membership_equivalence_suite(L: LieAlgebra, samples: int, seed: int) -> tuple[int, int]:
    """Seeded agreement check between the linear test and the direct predicate.

    Rotates through three sample kinds: random d-subspaces with entries in
    -3..3, random chart points, and kappa-orthogonals of random subspaces of
    dimension (g-l)/2.  For chart points also guards the tautologies that the
    double orthogonal complement returns the point and that the complement has
    dimension (g-l)/2.  Returns ``(failures, chart_agree_true)``: the
    disagreements plus the tautology failures, and the chart points that both
    tests call nullspaces.
    """
    rng = Lcg(seed)
    failures = 0
    chart_agree_true = 0
    half = (L.g - L.l) // 2
    for i in range(samples):
        kind = i % 3
        if kind == 0:
            V = random_subspace(L, rng, L.d)
        elif kind == 1:
            V = chart(L, random_chart_parameters(L, rng))
        else:
            S = random_subspace(L, rng, half)
            V = orthogonal_complement(L, S)
        direct = is_nullspace(L, V)
        linear = linear_membership(L, plucker(L, V))
        if direct != linear:
            failures += 1
        elif direct and kind == 1:
            chart_agree_true += 1
        if kind == 1:
            comp = orthogonal_complement(L, V)
            if comp.dim != half:
                failures += 1
            back = orthogonal_complement(L, comp)
            # back == V has V's canonical rows, so its Plucker vector is V's
            if back != V or not linear:
                failures += 1
    return failures, chart_agree_true


@per_algebra
def check_equivariance_matrices(L: LieAlgebra) -> bool:
    """The contraction commutes with every basis Lie action, decided on the degree-3 basis wedges.

    ``lie_action_basis(L, i, .)`` is the derivation D_i extending ad b_i, for
    any structure constants, Jacobi identity or not.  So the contraction by a
    3-form is natural under it: [D_i, delta_star] is the contraction by the
    3-form transformed by ad b_i, which vanishes in every degree iff that form
    does, that is iff it does on the degree-3 basis wedges.  Degrees 0-2 are
    vacuous, both sides being zero there, and on degree 3 the contraction is a
    scalar, which D_i kills: commuting there means delta_star(D_i u) = 0.
    Commuting with the simple root vectors alone would imply it only through
    the Jacobi identity, which a corrupted constant breaks, so every basis
    element is checked.  The wedge half is ``exterior.check_w_sharp_invariance``.
    """
    return all(
        delta_star(lie_action_basis(L, i, MultiVector.over(L, 3, {key: 1}))).is_zero()
        for key in degree_keys(L, 3)
        for i in range(L.g)
    )
