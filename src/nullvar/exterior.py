"""Exterior algebra of a Lie algebra and its invariant differential operators.

Multivectors are sparse maps from basis subsets (encoded as bitmasks over the
g basis indices, ascending bit order) to integer numerators over one positive
denominator, which is not reduced.  Every operator is a table of integer
terms, cached per algebra, and one call of the kernel ``_substitute``: for
each basis wedge it puts the terms of each listed part (a subset of the
factors, possibly empty) in place of that part, so the image is over the
input's denominator times the table's; rationals appear only in the
constructor and in the ``terms`` view.  The operators and their parts (the
first five are the kernel's only callers; zeta composes two of them):

  wedge       u ^ v: the empty part of v, replaced by the terms of u
  delta       wedge with the trilinear form seen inside the algebra (degree
              +3): the empty part, replaced by the terms of w_sharp
  delta_star  contraction with the trilinear form (degree -3): each nonzero
              w triple, replaced by the empty key times the value of w
  lie_action_basis  the derivation extending ad b_i: each b_j, replaced by
              the terms of [b_i, b_j]
  casimir     sum over a kappa-dual basis pair of composed lie_action_basis
              calls: each factor and each pair of factors, replaced by its
              image
  zeta        delta . delta_star + delta_star . delta

One sign rule serves them all: the wedge of a key is (-1)^s part ^ rest, with
s the number of pairs of a factor of part above a factor of rest, and
put ^ rest is re-sorted the same way.  So the contraction removes the factors
at 0-indexed positions a < b < c with the sign (-1)^(a+b+c-3), and on degree 3
returns the plain value of the form.  Any consistent choice satisfies the structural identities; this one
makes the contraction adjoint to the wedge under the kappa pairing up to one
global sign per algebra, which verify routines measure rather than assume.

Every operator is such a sum of substitutions for any structure constants,
so each identity between operators is checked on the degrees that decide it.
``verify_zeta_identity`` checks zeta = delta_star(w) (id - casimir / c_top) on
every basis wedge of every degree, the exact matrix identity column by
column, with delta_star(w) = -g c_theta / 6 read off the root datum, but the
square of delta only on w_sharp and the square of delta_star only on degree
6.  Commuting with the Lie action is decided by
``check_w_sharp_invariance`` for delta and on degree 3 for delta_star
(``grassmann.check_equivariance_matrices``).

Every operator preserves the Cartan weight, so ranks, eigenspace dimensions,
the zeta identity and the transpose relation (``grassmann``, which pairs
block mu with block -mu) are computed on weight blocks, one block per Weyl
orbit of weights, each operator matrix built by ``graded_matrix``.  The Tits
lift n_i = exp(ad e_i) exp(-ad f_i) exp(ad e_i) of each simple reflection s_i
is an automorphism of g that maps block mu onto block s_i mu, keeps kappa and
commutes with every operator above, so each block's result is its dominant
conjugate's.  ``weyl.tits_lifts_certified`` builds each lift exactly
and checks it on the algebra at hand; when a check fails, as on a corrupted
algebra, every block is computed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, gcd, lcm

from .algebra import LieAlgebra, Vector, per_algebra, standard_borel
from .linalg import frac, integer_terms, rank
from .roots import casimir_eigenvalue, dim_gamma_two_rho, two_rho
from .weyl import dominant, tits_lifts_certified


def binomial_dim(g: int, k: int) -> int:
    return comb(g, k) if 0 <= k <= g else 0


class MultiVector:
    """Homogeneous element of the exterior algebra of a Lie algebra.

    ``ints`` maps each key to a nonzero integer numerator over ``den`` > 0.
    """

    __slots__ = ("L", "degree", "ints", "den")

    def __init__(self, L: LieAlgebra, degree: int, terms: dict[int, Fraction]):
        """The multivector with rational coefficients ``terms``, over their common denominator."""
        self.L = L
        self.degree = degree
        self.den, self.ints = integer_terms({k: c for k, v in terms.items() if (c := frac(v))})

    @staticmethod
    def over(L: LieAlgebra, degree: int, ints: dict[int, int], den: int = 1) -> "MultiVector":
        """The multivector with integer numerators ``ints`` over ``den``; zero numerators are dropped."""
        u = object.__new__(MultiVector)
        u.L, u.degree, u.den = L, degree, den
        u.ints = {k: n for k, n in ints.items() if n}
        return u

    @property
    def terms(self) -> dict[int, Fraction]:
        """The rational coefficients, as a fresh dict."""
        return {k: Fraction(n, self.den) for k, n in self.ints.items()}

    @staticmethod
    def zero(L: LieAlgebra, degree: int) -> "MultiVector":
        return MultiVector.over(L, degree, {})

    @staticmethod
    def from_vector(L: LieAlgebra, coords: Vector) -> "MultiVector":
        return MultiVector(L, 1, {1 << i: c for i, c in coords.items()})

    @staticmethod
    def basis(L: LieAlgebra, indices) -> "MultiVector":
        indices = list(indices)
        key = 0
        for i in indices:
            if key >> i & 1:
                return MultiVector.zero(L, len(indices))
            key |= 1 << i
        return MultiVector.over(L, len(indices), {key: _sort_sign(indices)})

    def is_zero(self) -> bool:
        return not self.ints

    def scalar_value(self) -> Fraction:
        if self.degree != 0:
            raise ValueError("not a degree-0 element")
        return Fraction(self.ints.get(0, 0), self.den)

    def reduced(self) -> "MultiVector":
        """The same multivector over its least denominator."""
        g = gcd(self.den, *self.ints.values())
        return MultiVector.over(self.L, self.degree, {k: n // g for k, n in self.ints.items()}, self.den // g)

    def add(self, other: "MultiVector") -> "MultiVector":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {k: a * n for k, n in self.ints.items()}
        for k, n in other.ints.items():
            out[k] = out.get(k, 0) + b * n
        return MultiVector.over(self.L, self.degree, out, den)

    def sub(self, other: "MultiVector") -> "MultiVector":
        return self.add(other.scale(-1))

    def scale(self, c) -> "MultiVector":
        c = frac(c)
        return MultiVector.over(
            self.L, self.degree, {k: c.numerator * n for k, n in self.ints.items()}, c.denominator * self.den
        )

    def __eq__(self, other):
        return (
            isinstance(other, MultiVector)
            and self.L is other.L
            and self.degree == other.degree
            and self.ints.keys() == other.ints.keys()
            and all(n * other.den == other.ints[k] * self.den for k, n in self.ints.items())
        )

    def __repr__(self):
        items = ", ".join(f"{_bits(k)}: {v}" for k, v in sorted(self.terms.items()))
        return f"MultiVector(deg={self.degree}, {{{items}}})"


def _bits(key: int) -> tuple[int, ...]:
    out = []
    i = 0
    while key:
        if key & 1:
            out.append(i)
        key >>= 1
        i += 1
    return tuple(out)


def _sort_sign(indices: list[int]) -> int:
    sign = 1
    n = len(indices)
    for i in range(n):
        for j in range(i + 1, n):
            if indices[i] > indices[j]:
                sign = -sign
    return sign


def _sign_mask(key: int) -> int:
    """Mask m: the wedge of key with a disjoint key u has sign (-1)^((u & m).bit_count()).

    Each bit of u below a bit of key is one transposition, so m is the xor of
    the masks below each bit of key.
    """
    mask = 0
    for i in _bits(key):
        mask ^= (1 << i) - 1
    return mask


def _terms(part: int, ints: dict[int, int]) -> tuple:
    """The terms ``(put, mask, n, -n)`` that put each key of ``ints`` in place of ``part``."""
    mask = _sign_mask(part)
    return tuple((put, mask ^ _sign_mask(put), n, -n) for put, n in ints.items())


def _substitute(u: MultiVector, degree: int, table: tuple, den: int) -> MultiVector:
    """Put the terms of ``table`` in place of factors of each basis wedge of ``u``: every operator's kernel.

    ``table`` lists ``(part, terms)`` pairs with nonzero terms.  For each key
    of ``u`` that contains ``part``, with ``rest = key ^ part``, each term
    ``(put, mask, plus, minus)`` whose ``put`` misses ``rest`` adds ``n * plus``
    to key ``rest | put``, or ``n * minus`` when ``(rest & mask).bit_count()``
    is odd.  This is the one sign rule: with
    ``mask = _sign_mask(part) ^ _sign_mask(put)``, the parity counts the
    transpositions that move ``part`` to the front of the key and ``put`` from
    the front into ascending order.  The image has ``degree`` and is over
    ``u.den * den``.
    """
    out: dict[int, int] = {}
    for key, n in u.ints.items():
        for part, terms in table:
            if key & part != part:
                continue
            rest = key ^ part
            for put, mask, plus, minus in terms:
                if rest & put:
                    continue
                new = rest | put
                out[new] = out.get(new, 0) + n * (minus if (rest & mask).bit_count() & 1 else plus)
    return MultiVector.over(u.L, degree, out, u.den * den)


def wedge(u: MultiVector, v: MultiVector) -> MultiVector:
    """Graded-commutative product; degrees add."""
    if u.L is not v.L:
        raise ValueError("different ambient algebras")
    return _substitute(v, u.degree + v.degree, ((0, _terms(0, u.ints)),), u.den)


# ---------------------------------------------------------------------------
# Lie action and Casimir


@per_algebra
def _lie_tables(L: LieAlgebra) -> tuple[list, int]:
    """``(tables, den)``: ``tables[i]`` puts the terms of [b_i, b_j] in place of each b_j."""
    den, ints = integer_terms(
        {(i, j, m): c for i, row in enumerate(L.brackets) for j, cell in enumerate(row) for m, c in cell.items()}
    )
    cells = [[{} for _ in range(L.g)] for _ in range(L.g)]
    for (i, j, m), n in ints.items():
        cells[i][j][1 << m] = n
    return [tuple((1 << j, _terms(1 << j, cell)) for j, cell in enumerate(row) if cell) for row in cells], den


def lie_action_basis(L: LieAlgebra, i: int, u: MultiVector) -> MultiVector:
    """Derivation extension of ad b_i, summed in ``int``s over one denominator."""
    tables, den = _lie_tables(L)
    return _substitute(u, u.degree, tables[i], den)


def _dual_basis_casimir(u: MultiVector) -> MultiVector:
    """sum_i b_i . (b^i . u), with b^i = sum_m (b^i)_m b_m: the definition the table of ``casimir`` comes from."""
    L = u.L
    acc = MultiVector.zero(L, u.degree)
    for i in range(L.g):
        for m, c in L.dual_basis_vector(i).items():
            acc = acc.add(lie_action_basis(L, i, lie_action_basis(L, m, u)).scale(c))
    return acc


@per_algebra
def _casimir_table(L: LieAlgebra) -> tuple[tuple, int]:
    """``(table, den)``: the Casimir on one factor and on a pair of factors.

    The part ``1 << j`` puts the Casimir of b_j in place of b_j, and the part
    ``(1 << j) | (1 << l)`` (j < l) puts the part of the Casimir of
    b_j ^ b_l that moves both factors:
    T_jl = C(b_j ^ b_l) - C(b_j) ^ b_l - b_j ^ C(b_l).  Parts with no terms
    are left out.  Both come from the dual-basis sum on degrees 1 and 2.
    """
    basis = [MultiVector.over(L, 1, {1 << j: 1}) for j in range(L.g)]
    parts = {1 << j: _dual_basis_casimir(b) for j, b in enumerate(basis)}
    for j, l in itertools.combinations(range(L.g), 2):
        both = _dual_basis_casimir(wedge(basis[j], basis[l]))
        parts[(1 << j) | (1 << l)] = both.sub(wedge(parts[1 << j], basis[l])).sub(wedge(basis[j], parts[1 << l]))
    parts = {part: mv.reduced() for part, mv in parts.items() if mv.ints}
    den = lcm(1, *[mv.den for mv in parts.values()])
    scaled = {part: {put: den // mv.den * n for put, n in mv.ints.items()} for part, mv in parts.items()}
    return tuple((part, _terms(part, ints)) for part, ints in scaled.items()), den


def casimir(u: MultiVector) -> MultiVector:
    """Casimir operator sum_i b_i . (b^i . u) over a kappa-dual basis pair, applied through a cached table.

    Composing two derivations acts on each factor of a wedge and on each pair
    of factors, so each factor and each pair is replaced by its table entry.
    """
    table, den = _casimir_table(u.L)
    return _substitute(u, u.degree, table, den)


# ---------------------------------------------------------------------------
# the trilinear form inside the algebra, wedge and contraction operators


@per_algebra
def w_sharp(L: LieAlgebra) -> MultiVector:
    """The trilinear form carried into degree 3 through the kappa identification."""
    acc = MultiVector.zero(L, 3)
    duals = [MultiVector.from_vector(L, L.dual_basis_vector(i)) for i in range(L.g)]
    for (i, j, k), val in L.w_table.items():
        acc = acc.add(wedge(wedge(duals[i], duals[j]), duals[k]).scale(val))
    return acc.reduced()


@per_algebra
def _delta_table(L: LieAlgebra) -> tuple[tuple, int]:
    """``(table, den)``: the terms of w_sharp, put in front of a wedge."""
    ws = w_sharp(L)
    return ((0, _terms(0, ws.ints)),), ws.den


def delta(u: MultiVector) -> MultiVector:
    """Wedge with the degree-3 form; degree +3.  Equal to ``wedge(w_sharp(L), u)``."""
    table, den = _delta_table(u.L)
    return _substitute(u, u.degree + 3, table, den)


@per_algebra
def _delta_star_table(L: LieAlgebra) -> tuple[tuple, int]:
    """``(table, den)``: each nonzero w triple, taken out of a wedge with the value of w.

    ``grassmann`` reads its linear equations off it too: the equation of a key
    u gives u | part, for each triple part missing u, the signed value of w.
    """
    den, ints = integer_terms({sum(1 << i for i in triple): c for triple, c in L.w_table.items()})
    return tuple((part, _terms(part, {0: n})) for part, n in ints.items()), den


def delta_star(u: MultiVector) -> MultiVector:
    """Contraction with the trilinear form; degree -3.

    On a decomposable wedge this sums, over ascending positions a < b < c,
    (-1)^(a+b+c-3) w(v_a, v_b, v_c) times the wedge with those factors removed.
    """
    table, den = _delta_star_table(u.L)
    return _substitute(u, u.degree - 3, table, den)


def delta_star_scalar(L: LieAlgebra) -> Fraction:
    """The scalar delta_star(w), computed from the algebra, never hard-coded."""
    return delta_star(w_sharp(L)).scalar_value()


def zeta(u: MultiVector) -> MultiVector:
    """delta(delta_star(u)) + delta_star(delta(u)); degree preserving."""
    # below degree 3 the contraction has no keys, so delta maps its empty image to zero
    return delta(delta_star(u)).add(delta_star(delta(u)))


# ---------------------------------------------------------------------------
# weight blocks and their operator matrices


def degree_keys(L: LieAlgebra, k: int) -> list[int]:
    """Canonical enumeration of degree-k subset keys (combinations order)."""
    if k < 0:
        return []
    return list(map(sum, itertools.combinations([1 << i for i in range(L.g)], k)))


@per_algebra
def key_index_map(L: LieAlgebra, k: int) -> dict[int, int]:
    return {key: i for i, key in enumerate(degree_keys(L, k))}


_OPS = {"delta": (delta, 3), "delta_star": (delta_star, -3)}


def graded_matrix(L: LieAlgebra, fn, k: int, keys, tkeys) -> tuple[list[dict[int, int]], int]:
    """``(rows, den)``: the images under ``fn`` of the degree-k basis wedges ``keys``, integer numerators over den.

    Row j holds the numerators of the image of ``keys[j]`` over the positions
    of ``tkeys``, brought to the images' one denominator.  Every operator
    matrix is built here, one weight block at a time, so an image term
    outside ``tkeys`` means the operator left its weight block.
    """
    index = {key: i for i, key in enumerate(tkeys)}
    rows, dens = [], []
    for key in keys:
        image = fn(MultiVector.over(L, k, {key: 1}))
        if not image.ints.keys() <= index.keys():
            raise AssertionError("operator output escapes its weight block")
        rows.append({index[out_key]: n for out_key, n in image.ints.items()})
        dens.append(image.den)
    den = lcm(1, *dens)
    return [row if d == den else {j: den // d * n for j, n in row.items()} for row, d in zip(rows, dens)], den


@per_algebra
def weight_blocks(L: LieAlgebra, k: int) -> dict[tuple[int, ...], list[int]]:
    """Degree-k keys grouped by total weight (``L.weights`` summed); operators act blockwise."""
    # each weight packed into one int in balanced base B: a sum of at most
    # g weights has digits of size below B/2, so the packed ints add as the
    # weights do, and itertools sums them without a per-key Python loop
    base = 2 * L.g * max(abs(c) for w in L.weights for c in w) + 1
    packed = [sum(c * base**j for j, c in enumerate(w)) for w in L.weights]
    groups: dict[int, list[int]] = {}
    for key, total in zip(degree_keys(L, k), map(sum, itertools.combinations(packed, k))):
        groups.setdefault(total, []).append(key)
    return {_unpack_weight(total, base, L.l): keys for total, keys in groups.items()}


def _unpack_weight(total: int, base: int, length: int) -> tuple[int, ...]:
    half = base // 2
    digits = []
    for _ in range(length):
        digits.append((total + half) % base - half)
        total = (total - digits[-1]) // base
    return tuple(digits)


# ---------------------------------------------------------------------------
# Weyl-orbit reduction of the weight blocks


def orbit_representatives(L: LieAlgebra, k: int) -> dict[tuple[int, ...], int]:
    """Each representative degree-k block weight, with the number of blocks it stands for.

    The representatives are the dominant Weyl conjugates, counted in the
    order ``weight_blocks`` first reaches them, when
    ``weyl.tits_lifts_certified`` holds; otherwise every block weight stands
    once for itself.
    """
    blocks = weight_blocks(L, k)
    if not tits_lifts_certified(L):
        return dict.fromkeys(blocks, 1)
    return Counter(dominant(L, wt) for wt in blocks)


@per_algebra
def blocked_rank(L: LieAlgebra, name: str, k: int) -> int:
    """Rank of the named weight-preserving operator at degree k, by weight blocks; eliminated once per algebra.

    Each block's rank is its representative's (``orbit_representatives``).
    """
    fn, shift = _OPS[name]
    target = k + shift
    if binomial_dim(L.g, target) == 0 or binomial_dim(L.g, k) == 0:
        return 0
    blocks, target_blocks = weight_blocks(L, k), weight_blocks(L, target)

    def block_rank(wt) -> int:
        tkeys = target_blocks.get(wt, [])
        rows, _ = graded_matrix(L, fn, k, blocks[wt], tkeys)
        return rank(rows) if tkeys else 0

    return sum(count * block_rank(wt) for wt, count in orbit_representatives(L, k).items())


def blocked_eigenspace_dim(L: LieAlgebra, k: int, scalar) -> int:
    """Dimension of the Casimir eigenspace of ``scalar`` at degree k, by representative blocks."""
    scalar = frac(scalar)
    blocks = weight_blocks(L, k)

    def shifted(u: MultiVector) -> MultiVector:
        return casimir(u).sub(u.scale(scalar))

    def block_dim(wt) -> int:
        # the rows are images, so the eigenspace has the dimension of the left
        # kernel of the square block of (op - scalar): its size minus its rank
        keys = blocks[wt]
        return len(keys) - rank(graded_matrix(L, shifted, k, keys, keys)[0])

    return sum(count * block_dim(wt) for wt, count in orbit_representatives(L, k).items())


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class DegreeRecord:
    k: int
    dim: int
    rank_delta_in: int
    ker_delta: int
    gamma_mult: int
    ok: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ExactSequenceReport:
    records: tuple[DegreeRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict:
        return {"ok": self.ok, "degrees": [r.to_json() for r in self.records]}


def gamma_multiplicity(L: LieAlgebra, k: int) -> int:
    """Dimension of the top-weight isotypic part in degree k.

    C(l, k - (g - d)) copies of the module with highest weight twice the Weyl
    vector inside the window g - d..d, none outside it.
    """
    lo = L.g - L.d
    if lo <= k <= L.d:
        return comb(L.l, k - lo) * dim_gamma_two_rho(L.rd)
    return 0


def verify_exact_sequences(L: LieAlgebra) -> ExactSequenceReport:
    """Rank-nullity bookkeeping of the delta complex, degree by degree.

    For each k: n_k = dim ker(delta_k), r_k = rank(delta_{k-3}),
    m_k = gamma_multiplicity(L, k), the dimension of the top-weight part.
    Exactness of the reduced complex plus triviality of delta on the top-weight
    part is exactly n_k = r_k + m_k at every degree.
    """
    ranks = {k: blocked_rank(L, "delta", k) for k in range(0, L.g + 1)}
    records = []
    for k in range(0, L.g + 1):
        n_k = binomial_dim(L.g, k) - ranks[k]
        r_k = ranks.get(k - 3, 0)
        m_k = gamma_multiplicity(L, k)
        records.append(
            DegreeRecord(
                k=k,
                dim=binomial_dim(L.g, k),
                rank_delta_in=r_k,
                ker_delta=n_k,
                gamma_mult=m_k,
                ok=(n_k == r_k + m_k),
            )
        )
    return ExactSequenceReport(tuple(records))


def verify_zeta_identity(L: LieAlgebra) -> tuple[bool, list[bool]]:
    """Check zeta = delta_star(w) (id - casimir / c_top) and that delta and delta_star square to zero.

    The scalar delta_star(w) is taken from the root datum: -g c_theta / 6,
    with c_theta = <theta, theta + 2 rho> the Casimir scalar of the highest
    root theta.  So degree 0, where zeta(1) = delta_star(w_sharp), compares
    the contraction with that value, not with itself.

    Returns ``(squares_ok, zeta_ok)`` with ``zeta_ok[k]`` the verdict at
    degree k.  Zeta is checked on every basis wedge of each representative
    weight block (``orbit_representatives``), of every block when the Weyl
    reduction is not certified.  The difference of the two sides commutes
    with each certified Tits lift, so this is the exact matrix identity,
    column by column; each degree stops at its first failing wedge.  Each
    square is checked where it is decided, for any structure constants.
    The wedge is associative, so delta twice is the wedge with
    w_sharp ^ w_sharp = delta(w_sharp), and it vanishes iff that one
    multivector does.  Contracting twice takes out six factors at a time,
    with the shuffle sign and a coefficient that depends only on those six,
    so delta_star twice is the contraction by a six-form: it vanishes iff
    that form does, that is iff it maps every degree-6 basis wedge to zero.
    """
    squares_ok = delta(w_sharp(L)).is_zero() and all(
        delta_star(delta_star(MultiVector.over(L, 6, {key: 1}))).is_zero() for key in degree_keys(L, 6)
    )
    theta = L.rd.positive_roots[-1]  # the positive roots come by height
    scalar = -L.g * L.rd.inner(theta, tuple(t + 2 * r for t, r in zip(theta, L.rd.rho_root))) / 6
    ratio = scalar / casimir_eigenvalue(L.rd, two_rho(L.rd))

    def holds(key: int, k: int) -> bool:
        # zeta(u) + (scalar / c_top) casimir(u) = scalar u
        u = MultiVector.over(L, k, {key: 1})
        return zeta(u).add(casimir(u).scale(ratio)) == u.scale(scalar)

    zeta_ok = []
    for k in range(L.g + 1):
        blocks = weight_blocks(L, k)
        zeta_ok.append(all(holds(key, k) for rep in orbit_representatives(L, k) for key in blocks[rep]))
    return squares_ok, zeta_ok


@per_algebra
def check_w_sharp_invariance(L: LieAlgebra) -> bool:
    """Lie derivative of the degree-3 form by every basis element vanishes.

    This decides whether delta commutes with every basis Lie action D_i: D_i
    is a derivation for any structure constants, so [D_i, delta] is the wedge
    with D_i(w_sharp), and on the scalar 1 it returns D_i(w_sharp) itself.
    """
    ws = w_sharp(L)
    return all(lie_action_basis(L, i, ws).is_zero() for i in range(L.g))


def borel_top_wedge(L: LieAlgebra) -> MultiVector:
    """Top wedge of the standard Borel subalgebra: a weight-2rho vector of degree d."""
    return MultiVector.basis(L, standard_borel(L).pivots)
