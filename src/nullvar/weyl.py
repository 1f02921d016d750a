"""The Weyl group on weights, and its Tits lifts to automorphisms of the algebra.

Weights are integer tuples over the simple roots, as ``LieAlgebra.weights``
holds them.  ``dominant`` walks a weight to the dominant weight of its Weyl
orbit by simple reflections.  ``tits_lifts_certified`` decides, exactly and on
the algebra at hand, whether each simple reflection lifts to an automorphism
that moves every weight by the reflection; only then may a computation that
commutes with automorphisms replace a weight by its dominant conjugate.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LieAlgebra, Vector, per_algebra
from .linalg import combine
from .roots import RootDatum


def _pairing(cartan, weight: tuple[int, ...], i: int) -> int:
    """<weight, a_i^v>, with cartan[j][i] = <a_j, a_i^v>."""
    return sum(c * row[i] for c, row in zip(weight, cartan))


def _reflect(cartan, weight: tuple[int, ...], i: int) -> tuple[int, ...]:
    """The simple reflection s_i(weight) = weight - <weight, a_i^v> a_i."""
    return weight[:i] + (weight[i] - _pairing(cartan, weight, i),) + weight[i + 1:]


def dominant(rd: RootDatum, weight: tuple[int, ...]) -> tuple[int, ...]:
    """The dominant weight of the Weyl orbit of ``weight``, reached by simple reflections.

    Reflecting in a simple root with a negative pairing adds a positive
    multiple of that root, so the walk climbs in the finite orbit and stops.
    """
    cartan = rd.cartan
    while True:
        i = next((i for i in range(rd.rank) if _pairing(cartan, weight, i) < 0), None)
        if i is None:
            return weight
        weight = _reflect(cartan, weight, i)


def _exp_ad(L: LieAlgebra, x: Vector, v: Vector) -> Vector | None:
    """exp(ad x) v as a finite exact sum, or None when ad x does not kill v within g steps."""
    acc = term = v
    for k in range(1, L.g + 1):
        term = {m: c / k for m, c in L.bracket(x, term).items()}
        if not term:
            return acc
        acc = combine(((1, acc), (1, term)))
    return None


def _tits_lift(L: LieAlgebra, i: int) -> list[Vector] | None:
    """The images n_i(b_j) under n_i = exp(ad e_i) exp(-ad f_i) exp(ad e_i).

    e_i and f_i are the basis vectors of weight a_i and -a_i.  None when
    either is not unique or an exponential is not a finite sum.
    """
    simple = tuple(int(j == i) for j in range(L.l))
    e = [j for j, wt in enumerate(L.weights) if wt == simple]
    f = [j for j, wt in enumerate(L.weights) if wt == tuple(-c for c in simple)]
    if len(e) != 1 or len(f) != 1:
        return None
    steps = ({e[0]: Fraction(1)}, {f[0]: Fraction(-1)}, {e[0]: Fraction(1)})
    images = []
    for j in range(L.g):
        v = L.basis_vector(j)
        for x in steps:  # the word reads the same from either end
            if (v := _exp_ad(L, x, v)) is None:
                return None
        images.append(v)
    return images


@per_algebra
def tits_lifts_certified(L: LieAlgebra) -> bool:
    """Whether each simple reflection lifts to an automorphism of L that moves weights by it.

    For each simple root the Tits lift n_i is built exactly (``_tits_lift``)
    and checked on all g^2 basis pairs to be a bracket automorphism,
    n_i[b_a, b_b] = [n_i b_a, n_i b_b], and on every basis vector to send b_j
    into the weight space of s_i(wt b_j).  Each exponential is of a nilpotent
    map, so n_i is invertible.

    This is enough for the weight-block reduction of the exterior operators.
    An automorphism n preserves the trace form kappa (ad(n x) = n ad(x) n^-1),
    so it preserves w(x, y, z) = kappa([x, y], z), w_sharp and the
    kappa-dual-basis Casimir, and its extension to the exterior algebra
    commutes with delta, delta_star, the Casimir and zeta.  That extension
    maps the weight block of mu bijectively onto the block of s_i mu, so
    ranks, eigenspace dimensions and the truth of the zeta identity agree on
    the two blocks, and an operator image escapes its weight block from one
    iff from the other.  The reflections generate the Weyl group, so every
    block can be replaced by its dominant conjugate.
    """
    cartan = L.rd.cartan
    for i in range(L.l):
        n = _tits_lift(L, i)
        if n is None:
            return False
        for j, image in enumerate(n):
            target = _reflect(cartan, L.weights[j], i)
            if any(L.weights[m] != target for m in image):
                return False
        for a in range(L.g):
            for b in range(L.g):
                if combine((c, n[m]) for m, c in L.brackets[a][b].items()) != L.bracket(n[a], n[b]):
                    return False
    return True
