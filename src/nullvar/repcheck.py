"""Dimension identities for exterior-power decompositions and related module claims.

Claims pair an ambient dimension with a list of highest weights and
multiplicities; verification sums exact Weyl dimensions.  The hook content
formula supplies an independent second route for ambient spaces given as
Schur modules of a general linear group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb

from .algebra import LieAlgebra
from .exterior import blocked_eigenspace_dim, gamma_multiplicity
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
    if kind == "explicit":
        return int(claim.ambient["dim"])
    raise ValueError(f"unknown ambient kind {kind!r}")


@dataclass(frozen=True)
class ClaimReport:
    label: str
    ambient_dim: int
    summand_dims: tuple[int, ...]
    total: int
    ok: bool


def verify_dimension_claim(rd: RootDatum, claim: DecompositionClaim) -> ClaimReport:
    """Sum of multiplicity-weighted Weyl dimensions against the ambient dimension."""
    if (rd.family, rd.rank) != (claim.family, claim.rank):
        raise ValueError("claim does not match the root datum")
    if claim.ambient["kind"] == "exterior_power" and int(claim.ambient["space_dim"]) != rd.g:
        raise ValueError("ambient exterior power does not match the algebra dimension")
    dims = tuple(weyl_dim(rd, weight) for weight, _ in claim.summands)
    total = sum(dim * mult for dim, (_, mult) in zip(dims, claim.summands))
    ambient = ambient_dimension(claim)
    return ClaimReport(
        label=claim.label,
        ambient_dim=ambient,
        summand_dims=dims,
        total=total,
        ok=(total == ambient),
    )


def load_claims() -> list[DecompositionClaim]:
    raw = resources.files("nullvar").joinpath("data/claims.json").read_text()
    return [DecompositionClaim.from_json(c) for c in json.loads(raw)["claims"]]


def claims_for(rd: RootDatum) -> list[DecompositionClaim]:
    return [c for c in load_claims() if (c.family, c.rank) == (rd.family, rd.rank)]


# ---------------------------------------------------------------------------
# the top-weight isotypic window


@dataclass(frozen=True)
class WindowRecord:
    k: int
    eigenspace_dim: int
    expected: int
    ok: bool


@dataclass(frozen=True)
class WindowReport:
    records: tuple[WindowRecord, ...]
    symmetric: bool

    @property
    def ok(self) -> bool:
        return self.symmetric and all(r.ok for r in self.records)


def verify_gamma_window(L: LieAlgebra) -> WindowReport:
    """Casimir eigenspace of the top weight per degree against the window count.

    The eigenspace of the scalar attached to twice the Weyl vector is exactly
    the isotypic part of that module (every other constituent has a strictly
    smaller scalar), so its dimension must be C(l, k-(g-d)) times the module
    dimension inside the degree window g-d..d and zero outside.
    """
    scalar = casimir_eigenvalue(L.rd, two_rho(L.rd))
    records = []
    for k in range(0, L.g + 1):
        found = blocked_eigenspace_dim(L, "casimir", k, scalar)
        expected = gamma_multiplicity(L, k)
        records.append(WindowRecord(k=k, eigenspace_dim=found, expected=expected, ok=(found == expected)))
    symmetric = all(
        records[k].eigenspace_dim == records[L.g - k].eigenspace_dim for k in range(0, L.g + 1)
    )
    return WindowReport(records=tuple(records), symmetric=symmetric)
