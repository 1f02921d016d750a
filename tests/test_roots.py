"""Root systems, the Weyl dimension formula and Casimir scalars."""

from fractions import Fraction

import pytest

from nullvar import roots
from nullvar.roots import (
    UnsupportedTypeError,
    algebra_dimension,
    build_root_datum,
    casimir_eigenvalue,
    dim_gamma_two_rho,
    parse_type_label,
    two_rho,
    weyl_dim,
)


def _adjoint_weight(rd):
    """Highest root expressed on the fundamental weights."""
    # positive roots come by height, so the last one is the highest root
    coeffs = []
    for j in range(rd.rank):
        alpha_j = tuple(1 if k == j else 0 for k in range(rd.rank))
        val = 2 * rd.inner(rd.positive_roots[-1], alpha_j) / rd.inner(alpha_j, alpha_j)
        assert val.denominator == 1
        coeffs.append(int(val))
    return tuple(coeffs)


def test_a2_positive_roots():
    rd = build_root_datum("A", 2)
    assert rd.positive_roots == ((1, 0), (0, 1), (1, 1))
    assert rd.rho_root == (Fraction(1), Fraction(1))
    assert (rd.g, rd.l, rd.d) == (8, 2, 5)


def test_c2_positive_roots():
    rd = build_root_datum("C", 2)
    assert rd.positive_roots == ((1, 0), (0, 1), (1, 1), (2, 1))
    assert (rd.g, rd.l, rd.d) == (10, 2, 6)


def test_a1_bookkeeping():
    rd = build_root_datum("A", 1)
    assert rd.positive_roots == ((1,),)
    assert (rd.g, rd.l, rd.d) == (3, 1, 2)


@pytest.mark.parametrize(
    "family,rank,n_pos",
    [("A", 3, 6), ("B", 2, 4), ("B", 3, 9), ("C", 3, 9), ("D", 3, 6), ("G", 2, 6)],
)
def test_positive_root_counts(family, rank, n_pos):
    rd = build_root_datum(family, rank)
    assert rd.n_positive == n_pos
    assert rd.g == rd.rank + 2 * n_pos


ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("D", 4), ("G", 2)]


def _root_string_closure(gram, l):
    """The positive roots by root strings over the Gram matrix, the generator the Weyl action replaced.

    A root beta + a_i of the next height is a root iff p - <beta, a_i^v> > 0,
    with p the length of the string beta - a_i, beta - 2 a_i, ... below beta.
    """
    simples = [tuple(int(j == i) for j in range(l)) for i in range(l)]
    known = set(simples)
    layer = list(simples)
    while layer:
        nxt = []
        for beta in layer:
            for i, alpha in enumerate(simples):
                gamma = tuple(b + a for b, a in zip(beta, alpha))
                if gamma in known:
                    continue
                p, cur = 0, tuple(b - a for b, a in zip(beta, alpha))
                while cur in known:
                    p, cur = p + 1, tuple(b - a for b, a in zip(cur, alpha))
                pair = sum(beta[j] * gram[j][i] for j in range(l))
                if p - 2 * pair / gram[i][i] > 0:
                    known.add(gamma)
                    nxt.append(gamma)
        layer = nxt
    return sorted(known, key=lambda r: (sum(r), tuple(-c for c in r)))


WEYL_TYPES = (
    [("A", n) for n in range(1, 6)]
    + [(f, n) for f in "BC" for n in range(2, 6)]
    + [("D", n) for n in range(3, 7)]
    + [("G", 2)]
)


@pytest.mark.parametrize("family,rank", WEYL_TYPES, ids=[f"{f}{n}" for f, n in WEYL_TYPES])
def test_weyl_generated_roots_match_the_root_string_closure(family, rank):
    rd = build_root_datum(family, rank)
    assert list(rd.positive_roots) == _root_string_closure(roots._gram_matrix(family, rank), rank)
    # the Cartan matrix, taken from the unscaled Gram matrix, is that of the scaled one
    gram = rd.gram
    assert rd.cartan == tuple(tuple(2 * gram[i][j] / gram[j][j] for j in range(rank)) for i in range(rank))


# Humphreys' Cartan matrices (Introduction to Lie Algebras and Representation Theory, 11.4), with
# cartan[i][j] = 2(a_i, a_j)/(a_j, a_j): B's last root short, C's last root long, D forked at
# root l - 3 and G2's first root short
CARTAN = {
    ("A", 1): ((2,),),
    ("A", 2): ((2, -1), (-1, 2)),
    ("A", 3): ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    ("A", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)),
    ("B", 2): ((2, -2), (-1, 2)),
    ("B", 3): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    ("B", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
    ("C", 2): ((2, -1), (-2, 2)),
    ("C", 3): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    ("C", 4): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2)),
    ("D", 3): ((2, -1, -1), (-1, 2, 0), (-1, 0, 2)),
    ("D", 4): ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    ("D", 5): ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1), (0, 0, -1, 2, 0), (0, 0, -1, 0, 2)),
    ("G", 2): ((2, -1), (-3, 2)),
}


@pytest.mark.parametrize("family,rank", list(CARTAN), ids=[f"{f}{n}" for f, n in CARTAN])
def test_cartan_matrices_are_the_textbook_ones(family, rank):
    assert build_root_datum(family, rank).cartan == CARTAN[family, rank]


def test_killing_normalization_on_adjoint():
    for family, rank in ALL_TYPES:
        rd = build_root_datum(family, rank)
        theta = rd.positive_roots[-1]
        shifted = tuple(t + 2 * r for t, r in zip(theta, rd.rho_root))
        assert rd.inner(theta, shifted) == 1
        assert casimir_eigenvalue(rd, _adjoint_weight(rd)) == 1


def test_every_positive_root_decomposes():
    for family, rank in ALL_TYPES:
        rd = build_root_datum(family, rank)
        pos = set(rd.positive_roots)
        for root in rd.positive_roots:
            if sum(root) == 1:
                continue
            assert any(
                tuple(r - a for r, a in zip(root, alpha)) in pos for alpha in pos if alpha != root
            )


def test_weyl_dim_values():
    a2 = build_root_datum("A", 2)
    assert weyl_dim(a2, (2, 2)) == 27
    assert weyl_dim(a2, (1, 1)) == 8
    c2 = build_root_datum("C", 2)
    # direct product over the 4 positive roots, as an inline second route:
    # ((a+1)(b+1)(a+b+2)(a+2b+3))/6 at (2,1) gives 3*2*5*7/6 = 35
    assert weyl_dim(c2, (2, 1)) == 35
    assert 3 * 2 * 5 * 7 // 6 == 35
    assert weyl_dim(c2, (2, 2)) == 81
    assert 3 * 3 * 6 * 9 // 6 == 81


def test_weyl_dim_trivial_and_adjoint():
    for family, rank in [("A", 1), ("A", 2), ("C", 2), ("B", 3), ("D", 3)]:
        rd = build_root_datum(family, rank)
        assert weyl_dim(rd, (0,) * rank) == 1
        assert weyl_dim(rd, _adjoint_weight(rd)) == rd.g


def test_dim_gamma_two_rho():
    assert dim_gamma_two_rho(build_root_datum("A", 1)) == 3
    assert dim_gamma_two_rho(build_root_datum("A", 2)) == 27
    assert dim_gamma_two_rho(build_root_datum("C", 2)) == 81


def test_casimir_values():
    a2 = build_root_datum("A", 2)
    assert casimir_eigenvalue(a2, (1, 1)) == 1
    assert casimir_eigenvalue(a2, (2, 2)) == Fraction(8, 3)
    assert casimir_eigenvalue(a2, (0, 0)) == 0
    c2 = build_root_datum("C", 2)
    assert casimir_eigenvalue(c2, (0, 0)) == 0


def dominance_check(rd, lam, mu) -> bool:
    """True iff mu - lam is a non-negative integer combination of simple roots."""
    diff_root = tuple(b - a for a, b in zip(rd.weight_to_root(lam), rd.weight_to_root(mu)))
    return all(c.denominator == 1 and c >= 0 for c in diff_root)


def test_dominance():
    a2 = build_root_datum("A", 2)
    assert dominance_check(a2, (1, 1), (2, 2))
    # (2,2) - (3,0) expressed over the simple roots is (0, 1)
    assert dominance_check(a2, (3, 0), (2, 2))
    assert dominance_check(a2, (2, 2), (2, 2))
    assert not dominance_check(a2, (2, 2), (1, 1))


def test_casimir_below_top_on_window_weights():
    # weights of the degree-2 decompositions: all dominated by twice the Weyl
    # vector with strictly smaller Casimir scalar
    cases = {
        ("A", 2): [(1, 1), (3, 0), (0, 3)],
        ("C", 2): [(2, 0), (2, 1)],
        ("B", 3): [(0, 1, 0), (1, 0, 2)],
        ("D", 3): [(0, 1, 1), (1, 0, 2), (1, 2, 0)],
    }
    for (family, rank), weights in cases.items():
        rd = build_root_datum(family, rank)
        top = two_rho(rd)
        c_top = casimir_eigenvalue(rd, top)
        for weight in weights:
            assert dominance_check(rd, weight, top)
            assert casimir_eigenvalue(rd, weight) < c_top


def test_unsupported_types():
    with pytest.raises(UnsupportedTypeError):
        build_root_datum("Z", 9)
    with pytest.raises(UnsupportedTypeError):
        build_root_datum("D", 2)
    with pytest.raises(UnsupportedTypeError):
        build_root_datum("B", 1)
    with pytest.raises(UnsupportedTypeError):
        parse_type_label("Q")


@pytest.mark.parametrize("label,parsed", [("A2", ("A", 2)), (" c10 ", ("C", 10)), ("G2", ("G", 2))])
def test_type_labels_are_read(label, parsed):
    assert parse_type_label(label) == parsed


# int() alone reads the rank of the first seven: A1_0 as A10, C0_2 as C2, A-2 as rank -2 and the rest as A2
@pytest.mark.parametrize("label", ["A1_0", "C0_2", "A+2", "A 2", "A\u0662", "A\uff12", "A-2", "2A", "AB2"])
def test_type_labels_take_one_letter_and_ascii_digits(label):
    with pytest.raises(UnsupportedTypeError, match="malformed type label"):
        parse_type_label(label)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("b", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)])
def test_algebra_dimension_is_the_built_dimension(family, rank):
    assert algebra_dimension(family, rank) == build_root_datum(family, rank).g


@pytest.mark.parametrize("family,rank", [("Z", 9), ("D", 2), ("B", 1), ("G", 3), ("A", 0)])
def test_algebra_dimension_rejects_what_the_builder_rejects(family, rank):
    for fn in (algebra_dimension, build_root_datum):
        with pytest.raises(UnsupportedTypeError):
            fn(family, rank)


