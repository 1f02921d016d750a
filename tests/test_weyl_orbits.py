"""Weyl-orbit reduction of the weight blocks against the loop over every block.

The reduced code computes one block per Weyl orbit, and only when each
simple reflection's Tits lift is certified an automorphism that moves the
weights by the reflection.  The oracles below are the all-blocks loop with no
reduction, the uncached walk to the dominant conjugate, and the highest root
of each length, which every root of that length is conjugate to.
"""

import itertools
from collections import Counter

import pytest

from nullvar import exterior, grassmann, weyl
from nullvar.algebra import build_algebra
from nullvar.exterior import (
    _OPS,
    binomial_dim,
    blocked_eigenspace_dim,
    blocked_rank,
    casimir,
    graded_matrix,
    orbit_representatives,
    weight_blocks,
)
from nullvar.grassmann import transpose_identity_sign
from nullvar.linalg import rank
from nullvar.roots import build_root_datum, casimir_eigenvalue, pairing, reflect, two_rho
from nullvar.weyl import dominant, tits_lifts_certified


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
        block, _ = graded_matrix(L, fn, k, keys, tkeys)
        if tkeys:
            total += rank(block)
    return total


def _all_blocks_eigenspace_dim(L, k, scalar):
    """The Casimir eigenspace dimension at degree k, with every weight block eliminated."""

    def shifted(u):
        return casimir(u).sub(u.scale(scalar))

    return sum(len(keys) - rank(graded_matrix(L, shifted, k, keys, keys)[0]) for keys in weight_blocks(L, k).values())


def _walked_dominant(rd, weight):
    """The dominant conjugate by the uncached walk: reflect while some simple root pairs negatively."""
    while True:
        i = next((i for i in range(rd.rank) if pairing(rd.cartan, weight, i) < 0), None)
        if i is None:
            return weight
        weight = reflect(rd.cartan, weight, i)


def _is_dominant(rd, weight):
    return all(pairing(rd.cartan, weight, i) >= 0 for i in range(rd.rank))


def _fresh(family, rank_):
    # a new algebra, so no per-algebra cache holds a result from before a patch
    return build_algebra(build_root_datum(family, rank_))


def _assert_reduced(L):
    """The certificate holds and some degree has fewer representatives than blocks."""
    assert tits_lifts_certified(L)
    assert any(
        len(orbit_representatives(L, k)) < len(weight_blocks(L, k)) for k in range(L.g + 1)
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
        assert blocked_eigenspace_dim(L, k, c_top) == _all_blocks_eigenspace_dim(L, k, c_top)


@pytest.mark.parametrize("family,rank_", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3)])
def test_reduced_transpose_relation_matches_the_all_blocks_loop(family, rank_, monkeypatch):
    L = _fresh(family, rank_)
    _assert_reduced(L)
    low = L.d - 3
    assert len(orbit_representatives(L, low)) < len(weight_blocks(L, low))
    reduced = transpose_identity_sign(L)
    seen = []

    def every_block(L, k):
        seen.append(k)
        return dict.fromkeys(weight_blocks(L, k), 1)

    monkeypatch.setattr(grassmann, "orbit_representatives", every_block)
    assert transpose_identity_sign(L) == reduced == 1
    assert seen == [low]


def test_representatives_are_dominant_conjugates_with_blocks_of_the_same_size():
    L = _fresh("A", 3)
    for k in range(L.g + 1):
        blocks = weight_blocks(L, k)
        walked = {wt: _walked_dominant(L.rd, wt) for wt in blocks}
        assert all(_is_dominant(L.rd, rep) and len(blocks[rep]) == len(blocks[wt]) for wt, rep in walked.items())
        assert orbit_representatives(L, k) == Counter(walked.values())


@pytest.mark.parametrize("family,rank_", [("A", 2), ("B", 2), ("C", 2), ("G", 2), ("A", 3), ("D", 3)])
def test_cached_dominant_matches_the_uncached_walk(family, rank_):
    L = _fresh(family, rank_)
    block_weights = {wt for k in range(L.g + 1) for wt in weight_blocks(L, k)}
    for wt in block_weights:
        assert dominant(L, wt) == _walked_dominant(L.rd, wt)
    # the recursion also caches every weight on the way, each of which must hold its own answer
    cached = {key[1]: rep for key, rep in L._cache.items() if isinstance(key, tuple) and key[0] == "dominant"}
    assert block_weights <= cached.keys()
    assert all(rep == _walked_dominant(L.rd, wt) for wt, rep in cached.items())


def test_each_algebra_walks_by_its_own_cartan_matrix():
    # A3 and D3 share block weight tuples but not Cartan matrices, so a cache shared between them would fail
    a3, d3 = _fresh("A", 3), _fresh("D", 3)
    assert a3.rd.cartan != d3.rd.cartan
    shared = {wt for k in range(a3.g + 1) for wt in weight_blocks(a3, k)} & {
        wt for k in range(d3.g + 1) for wt in weight_blocks(d3, k)
    }
    assert any(dominant(a3, wt) != dominant(d3, wt) for wt in shared)
    for L in (a3, d3):
        for k in range(L.g + 1):
            assert all(_is_dominant(L.rd, rep) for rep in orbit_representatives(L, k))


@pytest.mark.parametrize("family,rank_", [("A", 2), ("C", 2), ("G", 2), ("A", 3)])
def test_representative_counts_cover_every_block(family, rank_):
    L = _fresh(family, rank_)
    _assert_reduced(L)
    for k in range(L.g + 1):
        assert sum(orbit_representatives(L, k).values()) == len(weight_blocks(L, k))


def test_an_uncertified_algebra_counts_every_block_once(a2):
    L = a2.with_corrupted_constant(0, 3, 3)
    assert not tits_lifts_certified(L)
    for k in range(L.g + 1):
        assert orbit_representatives(L, k) == dict.fromkeys(weight_blocks(L, k), 1)


_ROOT_TYPES = [("A", r) for r in range(1, 6)] + [(f, r) for f in "BC" for r in range(2, 6)]
_ROOT_TYPES += [("D", r) for r in range(3, 7)] + [("G", 2)]


@pytest.mark.parametrize("family,rank_", _ROOT_TYPES, ids=[f"{f}{r}" for f, r in _ROOT_TYPES])
def test_every_root_walks_to_the_highest_root_of_its_length(family, rank_):
    # positive_roots are ordered by height, so the last of a length is the highest of that length
    L = _fresh(family, rank_)
    rd = L.rd
    norm = {root: rd.inner(root, root) for root in rd.positive_roots}
    highest = rd.positive_roots[-1]
    highest_short = [root for root in rd.positive_roots if norm[root] == min(norm.values())][-1]
    for root in rd.positive_roots:
        expected = highest if norm[root] == norm[highest] else highest_short
        assert dominant(L, root) == expected
        assert dominant(L, tuple(-c for c in root)) == expected
    zero = (0,) * rd.rank
    assert dominant(L, zero) == zero


def test_certificate_fails_on_every_single_constant_corruption_of_a2(a2):
    corruptions = [(i, j, k) for i, j in itertools.combinations(range(a2.g), 2) for k in range(a2.g)]
    assert len(corruptions) == 224
    assert tits_lifts_certified(a2)
    assert [c for c in corruptions if tits_lifts_certified(a2.with_corrupted_constant(*c))] == []


def test_an_uncertified_algebra_eliminates_every_block(a2, monkeypatch):
    L = a2.with_corrupted_constant(0, 3, 3)  # keeps each operator inside its weight blocks
    assert not tits_lifts_certified(L)
    seen = []
    original = exterior.graded_matrix

    def counting(L, fn, k, keys, tkeys):
        seen.append((fn.__name__, k, tuple(keys)))
        return original(L, fn, k, keys, tkeys)

    monkeypatch.setattr(exterior, "graded_matrix", counting)
    expected = []
    for k in range(L.g - 2):
        blocked_rank(L, "delta", k)
        expected += [("delta", k, tuple(keys)) for keys in weight_blocks(L, k).values()]
    blocked_rank(L, "delta_star", L.d)
    expected += [("delta_star", L.d, tuple(keys)) for keys in weight_blocks(L, L.d).values()]
    blocked_eigenspace_dim(L, L.d, 1)
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
