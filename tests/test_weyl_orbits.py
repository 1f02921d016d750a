"""Weyl-orbit reduction of the weight blocks against the loop over every block.

The reduced code computes one block per Weyl orbit, and only when each
simple reflection's Tits lift is certified an automorphism that moves the
weights by the reflection.  The oracle below is the all-blocks loop with no
reduction.
"""

import itertools

import pytest

from nullvar import exterior, weyl
from nullvar.algebra import build_algebra
from nullvar.exterior import (
    _block_matrix,
    _OPS,
    binomial_dim,
    blocked_eigenspace_dim,
    blocked_rank,
    orbit_representatives,
    weight_blocks,
)
from nullvar.linalg import rank
from nullvar.roots import build_root_datum, casimir_eigenvalue, two_rho
from nullvar.weyl import tits_lifts_certified


def _all_blocks_rank(L, name, k):
    """The rank of the named operator at degree k, with every weight block eliminated."""
    fn, shift = _OPS[name]
    target = k + shift
    if binomial_dim(L.g, target) == 0 or binomial_dim(L.g, k) == 0:
        return 0
    target_blocks = weight_blocks(L, target)
    total = 0
    for wt, keys in weight_blocks(L, k).items():
        tkeys = target_blocks.get(wt, [])
        block = _block_matrix(L, fn, k, keys, tkeys)
        if tkeys:
            total += rank(block)
    return total


def _all_blocks_eigenspace_dim(L, name, k, scalar):
    """The eigenspace dimension at degree k, with every weight block eliminated."""
    fn, _ = _OPS[name]

    def shifted(u):
        return fn(u).sub(u.scale(scalar))

    return sum(len(keys) - rank(_block_matrix(L, shifted, k, keys, keys)) for keys in weight_blocks(L, k).values())


def _fresh(family, rank_):
    # a new algebra, so no per-algebra cache holds a result from before a patch
    return build_algebra(build_root_datum(family, rank_))


def _assert_reduced(L):
    """The certificate holds and some degree has fewer representatives than blocks."""
    assert tits_lifts_certified(L)
    assert any(
        len(set(orbit_representatives(L, k).values())) < len(weight_blocks(L, k)) for k in range(L.g + 1)
    )


@pytest.mark.parametrize("fixture", ["a2", "b2", "c2", "g2"])
def test_reduced_ranks_match_the_all_blocks_loop(fixture, request):
    L = request.getfixturevalue(fixture)
    _assert_reduced(L)
    for k in range(L.g + 1):
        assert blocked_rank(L, "delta", k) == _all_blocks_rank(L, "delta", k)
    assert blocked_rank(L, "delta_star", L.d) == _all_blocks_rank(L, "delta_star", L.d)


def test_reduced_delta_ranks_match_the_all_blocks_loop_on_a3():
    L = _fresh("A", 3)
    _assert_reduced(L)
    assert [blocked_rank(L, "delta", k) for k in range(L.g + 1)] == [
        _all_blocks_rank(L, "delta", k) for k in range(L.g + 1)
    ]


@pytest.mark.parametrize("fixture", ["a2", "c2", "g2"])
def test_reduced_casimir_window_matches_the_all_blocks_loop(fixture, request):
    L = request.getfixturevalue(fixture)
    _assert_reduced(L)
    c_top = casimir_eigenvalue(L.rd, two_rho(L.rd))
    for k in range(L.g - L.d, L.d + 1):
        assert blocked_eigenspace_dim(L, "casimir", k, c_top) == _all_blocks_eigenspace_dim(L, "casimir", k, c_top)


def test_representatives_are_dominant_conjugates_with_blocks_of_the_same_size():
    L = _fresh("A", 3)
    cartan = L.rd.cartan
    for k in range(L.g + 1):
        blocks = weight_blocks(L, k)
        for wt, rep in orbit_representatives(L, k).items():
            assert all(sum(c * row[i] for c, row in zip(rep, cartan)) >= 0 for i in range(L.l))
            assert len(blocks[rep]) == len(blocks[wt])


def test_certificate_fails_on_every_single_constant_corruption_of_a2(a2):
    corruptions = [(i, j, k) for i, j in itertools.combinations(range(a2.g), 2) for k in range(a2.g)]
    assert len(corruptions) == 224
    assert tits_lifts_certified(a2)
    assert [c for c in corruptions if tits_lifts_certified(a2.with_corrupted_constant(*c))] == []


def test_an_uncertified_algebra_eliminates_every_block(a2, monkeypatch):
    L = a2.with_corrupted_constant(0, 3, 3)  # keeps each operator inside its weight blocks
    assert not tits_lifts_certified(L)
    seen = []
    original = exterior._block_matrix

    def counting(L, fn, k, keys, tkeys):
        seen.append((fn.__name__, k, tuple(keys)))
        return original(L, fn, k, keys, tkeys)

    monkeypatch.setattr(exterior, "_block_matrix", counting)
    expected = []
    for k in range(L.g - 2):
        blocked_rank(L, "delta", k)
        expected += [("delta", k, tuple(keys)) for keys in weight_blocks(L, k).values()]
    blocked_rank(L, "delta_star", L.d)
    expected += [("delta_star", L.d, tuple(keys)) for keys in weight_blocks(L, L.d).values()]
    blocked_eigenspace_dim(L, "casimir", L.d, 1)
    expected += [("shifted", L.d, tuple(keys)) for keys in weight_blocks(L, L.d).values()]
    assert seen == expected


def test_a_lift_with_one_flipped_image_sign_is_rejected(monkeypatch):
    original = weyl._tits_lift
    g = _fresh("A", 2).g
    for j in range(g):

        def flipped(L, i, j=j):
            images = original(L, i)
            if i == 0:
                images[j] = {m: -c for m, c in images[j].items()}
            return images

        monkeypatch.setattr(weyl, "_tits_lift", flipped)
        assert not tits_lifts_certified(_fresh("A", 2))


def test_an_automorphism_that_keeps_the_weights_is_rejected(monkeypatch):
    # the identity preserves every bracket, so only the weight check rejects it
    monkeypatch.setattr(weyl, "_tits_lift", lambda L, i: [L.basis_vector(j) for j in range(L.g)])
    assert not tits_lifts_certified(_fresh("A", 2))
