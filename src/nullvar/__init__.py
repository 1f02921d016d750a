"""Exact-arithmetic verification of maximal nullspace varieties of the invariant trilinear form.

The library builds classical semisimple Lie algebras with exact rational
structure constants and mechanically checks, at small rank, the structural
facts behind the linear-equations description of the variety of maximal
nullspaces: operator identities on the exterior algebra, rank-nullity
bookkeeping of the wedge complex, smoothness coranks, orbit combinatorics,
degenerations, and the representation-theoretic dimension identities.
"""

__version__ = "0.1.0"

from .algebra import (
    LieAlgebra,
    Subspace,
    build_algebra,
    build_involution,
    eigenspace,
    orthogonal_complement,
    standard_borel,
)
from .exterior import MultiVector, casimir, delta, delta_star, wedge, zeta
from .linalg import Matrix, kernel_basis, rank, rref
from .roots import RootDatum, build_root_datum, casimir_eigenvalue, weyl_dim
from .variety import chart, degenerate, is_nullspace, parabolic_closure

__all__ = [
    "LieAlgebra",
    "Matrix",
    "MultiVector",
    "RootDatum",
    "Subspace",
    "build_algebra",
    "build_involution",
    "build_root_datum",
    "casimir",
    "casimir_eigenvalue",
    "chart",
    "degenerate",
    "delta",
    "delta_star",
    "eigenspace",
    "is_nullspace",
    "kernel_basis",
    "orthogonal_complement",
    "parabolic_closure",
    "rank",
    "rref",
    "standard_borel",
    "wedge",
    "weyl_dim",
    "zeta",
]
