"""Root systems of the classical families (plus G2), Weyl vector, dimension formula.

Roots are integer vectors over the simple roots, generated from them by the
simple reflections of ``reflect``, the one Weyl action (``weyl.dominant``
walks weights with it too).  ``RootDatum.gram`` is the
Gram matrix of the simple roots scaled so that <theta, theta + 2 rho> = 1 for
the highest root theta: the Casimir scalar of the adjoint representation is
1, matching the Killing form built downstream from structure constants.
``inner`` is the one inner product; every other use of it is a ratio, which
the scale leaves unchanged.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .linalg import frac, inverse

# one row per supported family: least and greatest rank (None: unbounded), the norm of the last
# simple root before the Killing scale (the others have norm 2), and the positive-root count,
# which gives the dimension before the roots are built and a construction self-check after
_FAMILIES = {
    "A": (1, None, 2, lambda l: l * (l + 1) // 2),
    "B": (2, None, 1, lambda l: l * l),
    "C": (2, None, 4, lambda l: l * l),
    "D": (3, None, 2, lambda l: l * (l - 1)),
    "G": (2, 2, 6, lambda l: 6),
}


class UnsupportedTypeError(ValueError):
    """Requested family/rank outside the supported range."""


def _checked_family(family: str, rank: int) -> str:
    """The upper-case family; UnsupportedTypeError outside ``_FAMILIES`` or outside its rank range."""
    family = family.upper()
    if family not in _FAMILIES:
        raise UnsupportedTypeError(f"unsupported family {family!r}")
    least, greatest = _FAMILIES[family][:2]
    if rank < least or rank > (greatest or rank):
        raise UnsupportedTypeError(f"unsupported rank {rank} for family {family}")
    return family


def algebra_dimension(family: str, rank: int) -> int:
    """g = rank + 2 #positive roots, from the family's count alone, without building the roots.

    Raises UnsupportedTypeError exactly where ``build_root_datum`` does.
    """
    return rank + 2 * _FAMILIES[_checked_family(family, rank)][3](rank)


def _gram_matrix(family: str, l: int) -> list[list[Fraction]]:
    """The Gram matrix of the simple roots before the Killing scale: the norms of ``_FAMILIES`` on the diagonal.

    Simple roots joined by a Dynkin edge pair to minus half the longer norm,
    as <a_short, a_long^v> = -1; the edges form the chain i-1 -- i, except
    that D's last root hangs off root l - 3.
    """
    norms = [2] * (l - 1) + [_FAMILIES[family][2]]
    edges = [(i - 1, i) for i in range(1, l)]
    if family == "D":
        edges[-1] = (l - 3, l - 1)
    G = [[Fraction(norms[i]) if i == j else Fraction(0) for j in range(l)] for i in range(l)]
    for i, j in edges:
        G[i][j] = G[j][i] = Fraction(-max(norms[i], norms[j]), 2)
    return G


@dataclass(frozen=True)
class RootDatum:
    """Simple roots, positive roots, Cartan matrix and normalized inner product."""

    family: str
    rank: int
    gram: tuple[tuple[Fraction, ...], ...]  # simple roots, Killing-normalized
    positive_roots: tuple[tuple[int, ...], ...]  # root-basis coordinates, by height then lex
    cartan: tuple[tuple[int, ...], ...]  # cartan[i][j] = 2(a_i,a_j)/(a_j,a_j)
    fundamental_in_root: tuple[tuple[Fraction, ...], ...]  # omega_i in the root basis

    @property
    def l(self) -> int:
        return self.rank

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def g(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    @property
    def d(self) -> int:
        return (self.g + self.rank) // 2

    @property
    def rho_root(self) -> tuple[Fraction, ...]:
        acc = [Fraction(0)] * self.rank
        for root in self.positive_roots:
            for i, c in enumerate(root):
                acc[i] += c
        return tuple(x / 2 for x in acc)

    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def inner(self, u, v) -> Fraction:
        """Killing-normalized inner product on root-basis coordinates."""
        return _pair(self.gram, u, v)

    def weight_to_root(self, weight) -> tuple[Fraction, ...]:
        """Coordinates over the simple roots of sum_i weight[i] * omega_i."""
        if len(weight) != self.rank:
            raise ValueError("weight length mismatch")
        acc = [Fraction(0)] * self.rank
        for i, a in enumerate(weight):
            if a:
                for j, c in enumerate(self.fundamental_in_root[i]):
                    acc[j] += frac(a) * c
        return tuple(acc)


def _pair(gram, u, v) -> Fraction:
    """sum_ij u_i gram[i][j] v_j on root-basis coordinates."""
    acc = Fraction(0)
    for i, a in enumerate(u):
        if a:
            row = gram[i]
            for j, b in enumerate(v):
                if b:
                    acc += frac(a) * row[j] * frac(b)
    return acc


def pairing(cartan, weight: tuple[int, ...], i: int) -> int:
    """<weight, a_i^v> for a weight over the simple roots, with cartan[j][i] = <a_j, a_i^v>."""
    return sum(c * row[i] for c, row in zip(weight, cartan))


def reflect(cartan, weight: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The simple reflection s_i(weight) = weight - <weight, a_i^v> a_i."""
    return weight[:i] + (weight[i] - pairing(cartan, weight, i),) + weight[i + 1:]


def _positive_roots(cartan, l: int) -> list[tuple[int, ...]]:
    """The simple roots and every image under simple reflections that stays nonnegative.

    A non-simple positive root reflects, in some simple root, to a lower
    positive root (Humphreys, Introduction to Lie Algebras and Representation
    Theory, 10.2-10.3), so the search from the simple roots reaches them all.
    """
    found = [tuple(int(j == i) for j in range(l)) for i in range(l)]
    for root in found:  # the list grows while it is walked
        for i in range(l):
            image = reflect(cartan, root, i)
            if min(image) >= 0 and image not in found:
                found.append(image)
    # height first, then natural simple-root order within a height
    return sorted(found, key=lambda r: (sum(r), tuple(-c for c in r)))


def build_root_datum(family: str, rank: int) -> RootDatum:
    """Root datum for the requested family and rank.

    Raises UnsupportedTypeError for families and ranks outside ``_FAMILIES``
    (A from 1, B and C from 2, D from 3, G exactly 2).
    """
    family = _checked_family(family, rank)
    raw = _gram_matrix(family, rank)
    cartan_rows = []
    for i in range(rank):
        row = []
        for j in range(rank):
            val = 2 * raw[i][j] / raw[j][j]
            if val.denominator != 1:
                raise AssertionError("non-integral Cartan matrix")
            row.append(int(val))
        cartan_rows.append(tuple(row))
    positives = _positive_roots(cartan_rows, rank)
    expected = _FAMILIES[family][3](rank)
    if len(positives) != expected:
        raise AssertionError(f"{family}{rank}: expected {expected} positive roots, got {len(positives)}")

    # scale so that <theta, theta + 2rho> = 1; 2rho is the sum of the positive roots
    theta = positives[-1]
    shifted = [t + sum(col) for t, col in zip(theta, zip(*positives))]
    scale = 1 / _pair(raw, theta, shifted)
    gram = tuple(tuple(scale * x for x in row) for row in raw)

    # omega_i = sum_k (M^{-1})[i][k] alpha_k where M[k][j] = cartan[k][j]
    cartan_inv = inverse([{j: c for j, c in enumerate(row) if c} for row in cartan_rows])
    rd = RootDatum(
        family=family,
        rank=rank,
        gram=gram,
        positive_roots=tuple(positives),
        cartan=tuple(cartan_rows),
        fundamental_in_root=tuple(tuple(row.get(j, Fraction(0)) for j in range(rank)) for row in cartan_inv),
    )
    # rho on the fundamental-weight side is (1, ..., 1): a check of the inverse
    if rd.weight_to_root((1,) * rank) != rd.rho_root:
        raise AssertionError("rho is not the sum of the fundamental weights")
    return rd


def parse_type_label(label: str) -> tuple[str, int]:
    """Split labels like 'A2' or 'C2' into (family, rank); ``int`` alone would also read 'A1_0' or 'A+2'."""
    label = label.strip()
    if not re.fullmatch(r"[A-Za-z][0-9]+", label):
        raise UnsupportedTypeError(f"malformed type label {label!r}")
    return label[0].upper(), int(label[1:])


def weyl_dim(rd: RootDatum, weight) -> int:
    """Dimension of the irreducible module with the given dominant weight.

    Product over positive roots of (weight+rho, alpha) / (rho, alpha); the
    scale of the inner product cancels.
    """
    if any(frac(a) < 0 for a in weight):
        raise ValueError("weight is not dominant")
    lam = rd.weight_to_root(weight)
    rho = rd.rho_root
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    num = Fraction(1)
    den = Fraction(1)
    for alpha in rd.positive_roots:
        num *= rd.inner(lam_rho, alpha)
        den *= rd.inner(rho, alpha)
    value = num / den
    if value.denominator != 1 or value <= 0:
        raise AssertionError(f"Weyl dimension not a positive integer: {value}")
    return int(value)


def casimir_eigenvalue(rd: RootDatum, weight) -> Fraction:
    """Casimir scalar <weight, weight + 2 rho> in the Killing normalization."""
    if any(frac(a) < 0 for a in weight):
        raise ValueError("weight is not dominant")
    lam = rd.weight_to_root(weight)
    two_rho = tuple(2 * x for x in rd.rho_root)
    return rd.inner(lam, tuple(a + b for a, b in zip(lam, two_rho)))


def two_rho(rd: RootDatum) -> tuple[int, ...]:
    return (2,) * rd.rank


def dim_gamma_two_rho(rd: RootDatum) -> int:
    return weyl_dim(rd, two_rho(rd))
