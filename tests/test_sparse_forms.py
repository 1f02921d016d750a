"""Sparse vectors and subspaces against the dense forms they replaced.

Each comparison runs on A2 and C2, sound and with the constant C_23^1
shifted by 1 and by 1/2, so the bracket table, kappa and the w table all
differ from the sound ones.
"""

import itertools
from fractions import Fraction

import pytest

import dense_oracles as oracle
from dense_oracles import DenseSubspace, dense
from nullvar.algebra import StructureError, Subspace, orthogonal_complement, root_pair_plane, standard_borel
from nullvar.seeds import Lcg
from nullvar.variety import chart, degenerate, random_chart_parameters, random_subspace

VARIANTS = {"sound": None, "shift_1": Fraction(1), "shift_half": Fraction(1, 2)}
CASES = [(fixture, variant) for fixture in ("a2", "c2") for variant in VARIANTS]
IDS = [f"{fixture}-{variant}" for fixture, variant in CASES]


def _algebra(request, fixture, variant):
    L = request.getfixturevalue(fixture)
    amount = VARIANTS[variant]
    return L if amount is None else L.with_corrupted_constant(2, 3, 1, amount)


def _vectors(L, rng, count):
    """The unit vectors and seeded vectors with a few coordinates over denominators up to 4."""
    out = [L.basis_vector(i) for i in range(L.g)]
    for _ in range(count):
        out.append({rng.randint(0, L.g - 1): Fraction(rng.randint_nonzero(-3, 3), rng.randint(1, 4)) for _ in range(4)})
    return out


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("fixture,variant", CASES, ids=IDS)
def test_bracket_and_w_eval_match_dense(fixture, variant, request):
    L = _algebra(request, fixture, variant)
    pool = _vectors(L, Lcg(7), 20)
    nonzero = 0
    for x, y in itertools.product(pool, repeat=2):
        br = L.bracket(x, y)
        assert 0 not in br.values()
        assert dense(L, br) == oracle.bracket(L, dense(L, x), dense(L, y))
    for n in range(400):
        x, y, z = pool[n % len(pool)], pool[(3 * n + 1) % len(pool)], pool[(7 * n + 2) % len(pool)]
        got = L.w_eval(x, y, z)
        assert got == oracle.w_eval(L, dense(L, x), dense(L, y), dense(L, z))
        nonzero += got != 0
    assert nonzero > 40  # the comparison is not vacuous


def _spanning_sets(L, rng):
    """Row lists of seeded subspaces of every dimension, of root planes, the Borel and chart points."""
    sets = [[dense(L, row) for row in random_subspace(L, rng, dim).rows] for dim in range(L.g + 1)]
    # dependent rows: the sum of two rows repeated
    sets += [rows + [tuple(a + b for a, b in zip(rows[0], rows[1]))] for rows in sets[2:4]]
    sets += [[dense(L, row) for row in root_pair_plane(L, a).rows] for a in range(L.n_pos)]
    sets.append([dense(L, row) for row in standard_borel(L).rows])
    charts = 0
    for _ in range(4):
        try:
            V = chart(L, random_chart_parameters(L, rng, nonzero=True))
        except StructureError:  # a corrupted w can vanish on a root plane
            continue
        sets.append([dense(L, row) for row in V.rows])
        charts += 1
    return sets, charts


@pytest.mark.parametrize("fixture,variant", CASES, ids=IDS)
def test_subspace_operations_match_dense(fixture, variant, request):
    L = _algebra(request, fixture, variant)
    rng = Lcg(13)
    sets, charts = _spanning_sets(L, rng)
    if variant == "sound":
        assert charts == 4
    pairs = [(oracle.sparse(row) for row in rows) for rows in sets]
    subspaces = [(Subspace(L, list(rows)), DenseSubspace(L, dense_rows)) for rows, dense_rows in zip(pairs, sets)]
    vectors = _vectors(L, rng, 10)
    verdicts = set()
    for S, D in subspaces:
        assert D.matches(S)
        inside = oracle.sparse(map(sum, zip(*D.rows()))) if D.dim else {}
        for v in vectors + [inside]:
            verdicts.add(S.contains(v))
            assert S.contains(v) == D.contains(dense(L, v))
        assert D.contains(dense(L, inside))
        assert oracle.orthogonal_complement(L, D).matches(orthogonal_complement(L, S))
        for weight in ((2, 1), (-1, 3), (3, -1)):
            got = _outcome(degenerate, L, S, weight)
            expected = _outcome(oracle.degenerate, L, D, weight)
            assert got == expected if isinstance(got, type) else expected.matches(got)
    assert verdicts == {True, False}
    dims = set()
    for (S, D), (T, E) in itertools.combinations(subspaces, 2):
        total = S.add(T)
        assert DenseSubspace(L, D.rows() + E.rows()).matches(total)
        dims.add(total.dim)
    assert len(dims) > 3
