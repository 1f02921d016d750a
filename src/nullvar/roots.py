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

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, frac, inverse

SUPPORTED_FAMILIES = ("A", "B", "C", "D", "G")

# positive-root counts per family: the dimension before the roots are built,
# and a construction self-check after
_POSITIVE_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "G": lambda l: 6,
}


class UnsupportedTypeError(ValueError):
    """Requested family/rank outside the supported range."""


def _checked_family(family: str, rank: int) -> str:
    """The upper-case family; UnsupportedTypeError outside A/B/C/D/G or below its minimum rank."""
    family = family.upper()
    if family not in SUPPORTED_FAMILIES:
        raise UnsupportedTypeError(f"unsupported family {family!r}")
    if rank < {"A": 1, "B": 2, "C": 2, "D": 3, "G": 2}[family] or (family == "G" and rank != 2):
        raise UnsupportedTypeError(f"unsupported rank {rank} for family {family}")
    return family


def algebra_dimension(family: str, rank: int) -> int:
    """g = rank + 2 #positive roots, from the family's count alone, without building the roots.

    Raises UnsupportedTypeError exactly where ``build_root_datum`` does.
    """
    return rank + 2 * _POSITIVE_COUNT[_checked_family(family, rank)](rank)


def _gram_matrix(family: str, l: int) -> list[list[Fraction]]:
    G = [[Fraction(0)] * l for _ in range(l)]
    if family == "A":
        for i in range(l):
            G[i][i] = Fraction(2)
        for i in range(l - 1):
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
    elif family == "B":
        # last simple root short (norm 1)
        for i in range(l):
            G[i][i] = Fraction(2)
        G[l - 1][l - 1] = Fraction(1)
        for i in range(l - 1):
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
    elif family == "C":
        # last simple root long (norm 4)
        for i in range(l):
            G[i][i] = Fraction(2)
        G[l - 1][l - 1] = Fraction(4)
        for i in range(l - 2):
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
        if l >= 2:
            G[l - 2][l - 1] = G[l - 1][l - 2] = Fraction(-2)
    elif family == "D":
        for i in range(l):
            G[i][i] = Fraction(2)
        for i in range(l - 2):
            G[i][i + 1] = G[i + 1][i] = Fraction(-1)
        G[l - 3][l - 1] = G[l - 1][l - 3] = Fraction(-1)
    elif family == "G":
        G = [[Fraction(2), Fraction(-3)], [Fraction(-3), Fraction(6)]]
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

    Raises UnsupportedTypeError for families outside A/B/C/D/G or ranks below
    the family minimum (A: 1, B and C: 2, D: 3, G: exactly 2).
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
    expected = _POSITIVE_COUNT[family](rank)
    if len(positives) != expected:
        raise AssertionError(f"{family}{rank}: expected {expected} positive roots, got {len(positives)}")

    # scale so that <theta, theta + 2rho> = 1; 2rho is the sum of the positive roots
    theta = positives[-1]
    shifted = [t + sum(col) for t, col in zip(theta, zip(*positives))]
    scale = 1 / _pair(raw, theta, shifted)
    gram = tuple(tuple(scale * x for x in row) for row in raw)

    # omega_i = sum_k (M^{-1})[i][k] alpha_k where M[k][j] = cartan[k][j]
    cartan_inv = inverse(Matrix.from_rows([[Fraction(x) for x in row] for row in cartan_rows]))
    rd = RootDatum(
        family=family,
        rank=rank,
        gram=gram,
        positive_roots=tuple(positives),
        cartan=tuple(cartan_rows),
        fundamental_in_root=tuple(tuple(cartan_inv.row(i)) for i in range(rank)),
    )
    # rho on the fundamental-weight side is (1, ..., 1): a check of the inverse
    if rd.weight_to_root((1,) * rank) != rd.rho_root:
        raise AssertionError("rho is not the sum of the fundamental weights")
    return rd


def parse_type_label(label: str) -> tuple[str, int]:
    """Split labels like 'A2' or 'C2' into (family, rank)."""
    label = label.strip()
    if len(label) < 2 or not label[0].isalpha():
        raise UnsupportedTypeError(f"malformed type label {label!r}")
    family = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise UnsupportedTypeError(f"malformed type label {label!r}") from exc
    return family, rank


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
