"""Decomposition dimension identities and the Casimir eigenspace window."""

import pytest

from nullvar.exterior import gamma_multiplicity
from nullvar.repcheck import (
    ambient_dimension,
    claims_for,
    hook_content_dim,
    load_claims,
    verify_dimension_claim,
    verify_gamma_window,
)
from nullvar.roots import build_root_datum, weyl_dim


def test_hook_content_examples():
    assert hook_content_dim([3, 3], 5) == 175
    assert hook_content_dim([2, 1, 1], 7) == 210  # wedge^2 so(7) as a Schur module
    assert hook_content_dim([1], 4) == 4
    assert hook_content_dim([1, 1], 4) == 6


def test_hook_content_rejects_bad_partitions():
    with pytest.raises(ValueError):
        hook_content_dim([1, 2], 4)


def test_all_shipped_claims_pass():
    claims = load_claims()
    assert len(claims) >= 6
    for claim in claims:
        rd = build_root_datum(claim.family, claim.rank)
        assert verify_dimension_claim(rd, claim) is True, claim.label


def test_sp4_wedge_sums():
    c2 = build_root_datum("C", 2)
    by_label = {c.label: c for c in claims_for(c2)}
    r3, r6 = by_label["wedge3_sp4"], by_label["wedge6_sp4"]
    assert verify_dimension_claim(c2, r3) and verify_dimension_claim(c2, r6)
    assert ambient_dimension(r3) == 120
    assert sorted((weyl_dim(c2, w) for w, _ in r3.summands), reverse=True) == [35, 35, 30, 14, 5, 1]
    assert ambient_dimension(r6) == 210
    assert sorted((weyl_dim(c2, w) for w, _ in r6.summands), reverse=True) == [81, 35, 35, 30, 14, 10, 5]


def test_cubics_claim_against_hook_oracle():
    c2 = build_root_datum("C", 2)
    claim = next(c for c in claims_for(c2) if c.label == "cubics_on_plane_grassmannian_sp4")
    assert verify_dimension_claim(c2, claim)
    assert ambient_dimension(claim) == 175
    assert tuple(weyl_dim(c2, w) for w, _ in claim.summands) == (84, 10, 81)


def test_wedge_square_dimension_identities():
    a2 = build_root_datum("A", 2)
    assert 28 == weyl_dim(a2, (1, 1)) + weyl_dim(a2, (3, 0)) + weyl_dim(a2, (0, 3))
    c2 = build_root_datum("C", 2)
    assert 45 == weyl_dim(c2, (2, 0)) + weyl_dim(c2, (2, 1))


def test_gamma_window_a1(a1):
    dims = verify_gamma_window(a1)
    assert dims == tuple(gamma_multiplicity(a1, k) for k in range(a1.g + 1))
    assert dims == (0, 3, 3, 0)


def test_gamma_window_a2(a2):
    dims = verify_gamma_window(a2)
    assert dims == tuple(gamma_multiplicity(a2, k) for k in range(a2.g + 1))
    assert dims[3] == 27 and dims[4] == 54 and dims[5] == 27
    assert dims[2] == 0
    assert dims == dims[::-1]
