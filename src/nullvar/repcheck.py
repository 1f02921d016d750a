"""Dimension identities for exterior-power decompositions and related module claims.

Claims pair an ambient dimension with a list of highest weights and
multiplicities; verification sums exact Weyl dimensions.  The hook content
formula supplies an independent second route for ambient spaces given as
Schur modules of a general linear group.  Each check returns the value its
record compares.
"""

from __future__ import annotations

import json
from importlib import resources
from math import comb

from .algebra import LieAlgebra
from .exterior import blocked_eigenspace_dim
from .roots import RootDatum, casimir_eigenvalue, two_rho, weyl_dim


def hook_content_dim(partition, n: int) -> int:
    """Dimension of the Schur module of shape ``partition`` for GL(n).

    Product over cells of (n + column - row) divided by the hook length,
    rows and columns 0-indexed.
    """
    partition = [int(p) for p in partition]
    if any(p <= 0 for p in partition) or sorted(partition, reverse=True) != partition:
        raise ValueError("partition must be a weakly decreasing list of positive parts")
    num = 1
    den = 1
    ncols = partition[0]
    col_heights = [sum(1 for p in partition if p > j) for j in range(ncols)]
    for i, row_len in enumerate(partition):
        for j in range(row_len):
            num *= n + j - i
            arm = row_len - j - 1
            leg = col_heights[j] - i - 1
            den *= arm + leg + 1
    if num % den:
        raise AssertionError("hook content did not divide evenly")
    return num // den


def ambient_dimension(claim: dict) -> int:
    ambient = claim["ambient"]
    if ambient["kind"] == "exterior_power":
        return comb(ambient["space_dim"], ambient["degree"])
    if ambient["kind"] == "hook_content":
        return hook_content_dim(ambient["partition"], ambient["n"])
    raise ValueError(f"unknown ambient kind {ambient['kind']!r}")


def verify_dimension_claim(rd: RootDatum, claim: dict) -> bool:
    """True iff the Weyl dimensions, times multiplicities (1 when unstated), sum to the ambient dimension."""
    if (rd.family, rd.rank) != (claim["family"], claim["rank"]):
        raise ValueError("claim does not match the root datum")
    ambient = claim["ambient"]
    if ambient["kind"] == "exterior_power" and ambient["space_dim"] != rd.g:
        raise ValueError("ambient exterior power does not match the algebra dimension")
    total = sum(weyl_dim(rd, s["weight"]) * s.get("multiplicity", 1) for s in claim["summands"])
    return total == ambient_dimension(claim)


def load_claims() -> list[dict]:
    """The claim objects of ``data/claims.json``, as they are."""
    return json.loads(resources.files("nullvar").joinpath("data/claims.json").read_text())["claims"]


def claims_for(rd: RootDatum) -> list[dict]:
    return [c for c in load_claims() if (c["family"], c["rank"]) == (rd.family, rd.rank)]


# ---------------------------------------------------------------------------
# the top-weight isotypic window


def verify_gamma_window(L: LieAlgebra) -> tuple[int, ...]:
    """Casimir eigenspace dimension of the top weight's scalar in each degree 0..g.

    The eigenspace of the scalar attached to twice the Weyl vector is exactly
    the isotypic part of that module (every other constituent has a strictly
    smaller scalar), so in degree k its dimension must be
    ``exterior.gamma_multiplicity(L, k)``: C(l, k-(g-d)) copies of the module
    inside the degree window g-d..d, none outside.
    """
    scalar = casimir_eigenvalue(L.rd, two_rho(L.rd))
    return tuple(blocked_eigenspace_dim(L, k, scalar) for k in range(L.g + 1))
