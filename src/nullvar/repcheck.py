"""Dimension identities for exterior-power decompositions and related module claims.

Claims pair an ambient dimension with a list of highest weights and
multiplicities; verification sums exact Weyl dimensions.  The hook content
formula supplies an independent second route for ambient spaces given as
Schur modules of a general linear group.  Each check returns the value its
record compares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DecompositionClaim:
    label: str
    family: str
    rank: int
    ambient: dict
    summands: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def from_json(data: dict) -> "DecompositionClaim":
        return DecompositionClaim(
            label=data["label"],
            family=data["family"],
            rank=int(data["rank"]),
            ambient=dict(data["ambient"]),
            summands=tuple(
                (tuple(int(c) for c in s["weight"]), int(s.get("multiplicity", 1)))
                for s in data["summands"]
            ),
        )


def ambient_dimension(claim: DecompositionClaim) -> int:
    kind = claim.ambient["kind"]
    if kind == "exterior_power":
        return comb(int(claim.ambient["space_dim"]), int(claim.ambient["degree"]))
    if kind == "hook_content":
        return hook_content_dim(claim.ambient["partition"], int(claim.ambient["n"]))
    raise ValueError(f"unknown ambient kind {kind!r}")


def verify_dimension_claim(rd: RootDatum, claim: DecompositionClaim) -> bool:
    """True iff the multiplicity-weighted Weyl dimensions sum to the ambient dimension."""
    if (rd.family, rd.rank) != (claim.family, claim.rank):
        raise ValueError("claim does not match the root datum")
    if claim.ambient["kind"] == "exterior_power" and int(claim.ambient["space_dim"]) != rd.g:
        raise ValueError("ambient exterior power does not match the algebra dimension")
    return sum(weyl_dim(rd, weight) * mult for weight, mult in claim.summands) == ambient_dimension(claim)


def load_claims() -> list[DecompositionClaim]:
    raw = resources.files("nullvar").joinpath("data/claims.json").read_text()
    return [DecompositionClaim.from_json(c) for c in json.loads(raw)["claims"]]


def claims_for(rd: RootDatum) -> list[DecompositionClaim]:
    return [c for c in load_claims() if (c.family, c.rank) == (rd.family, rd.rank)]


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
