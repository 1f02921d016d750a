"""Exact matrix engine: echelon form, rank, kernels."""

from fractions import Fraction
from math import prod

import pytest

from nullvar import exterior
from nullvar.algebra import Subspace, build_algebra
from nullvar.linalg import (
    Matrix,
    det,
    echelon_rows,
    inverse,
    kernel_basis,
    parse_rational,
    rank,
    rref,
)
from nullvar.roots import build_root_datum
from nullvar.seeds import Lcg

import dense_oracles
from dense_oracles import sparse


def _scaled(rows) -> list[dict[int, int]]:
    # each sparse row times the product of its denominators: integer rows with the same row space and kernel
    return [{j: int(x * prod(y.denominator for y in row.values())) for j, x in row.items()} for row in rows]


def _as_given(rows) -> list[dict]:
    # the dense rows as sparse rows, each entry kept an int or a Fraction as given
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _matrix(rows) -> Matrix:
    # the dense rows of rationals as a Matrix of their nonzero entries, each a Fraction
    return Matrix(len(rows), len(rows[0]) if rows else 0, tuple(map(sparse, rows)))


def _dense(m: Matrix) -> list[list]:
    return [[row.get(j, 0) for j in range(m.cols)] for row in m.data]


def identity(n: int) -> Matrix:
    return _matrix(dense_oracles.identity(n))


def test_matrix_refuses_rows_that_break_its_shape():
    with pytest.raises(ValueError, match="needs 2 rows, got 1"):
        Matrix(2, 3, ({0: 1},))
    for row in ({3: 1}, {-1: 1}, {0: 1, 5: 2}):
        with pytest.raises(ValueError, match=r"column key outside 0\.\.2"):
            Matrix(1, 3, (row,))
    with pytest.raises(ValueError, match="column key outside"):
        Matrix(1, 0, ({0: 1},))
    with pytest.raises(ValueError, match="zero entry"):
        Matrix(2, 3, ({1: 1}, {0: 0, 2: 1}))
    assert Matrix(3, 0, ({},) * 3).rows == 3


def test_rref_identity():
    m = identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = _matrix([[0] * 4] * 2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


def test_rref_rank_one():
    m = _matrix([[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == _matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent():
    rng = Lcg(5)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        m = _matrix(rows)
        red, _ = rref(m)
        again, _ = rref(red)
        assert red == again


def test_kernel_one_equation():
    k = kernel_basis([sparse([1, 1])], 2)
    assert k == ({0: -1, 1: 1},)


def test_kernel_identity_empty():
    assert kernel_basis(identity(4).data, 4) == ()


def test_kernel_rank_one_canonical():
    k = kernel_basis([sparse([1, 2]), sparse([2, 4])], 2)
    assert k == ({0: -2, 1: 1},)


def test_rank_examples():
    assert rank([sparse([0] * 5)] * 3) == 0
    assert rank(identity(6).data) == 6
    assert rank([sparse([1, 2]), sparse([2, 4])]) == 1
    assert rank([{0: Fraction(1, 2), 1: Fraction(1, 3)}, {0: Fraction(1, 4), 1: Fraction(2, 3)}]) == 2


def _column_echelon_rank(m: list) -> int:
    # independent oracle: plain forward elimination on columns of the transpose
    cols = [[Fraction(x) for x in column] for column in zip(*m)]
    r = 0
    for pos in range(len(m)):
        pivot = None
        for idx in range(r, len(cols)):
            if cols[idx][pos]:
                pivot = idx
                break
        if pivot is None:
            continue
        cols[r], cols[pivot] = cols[pivot], cols[r]
        for idx in range(r + 1, len(cols)):
            if cols[idx][pos]:
                f = cols[idx][pos] / cols[r][pos]
                for i in range(len(m)):
                    cols[idx][i] -= f * cols[r][i]
        r += 1
    return r


def test_rank_nullity_and_second_path():
    rng = Lcg(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        dense = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        rows = [sparse(row) for row in dense]
        r = rank(rows)
        assert r + len(kernel_basis(rows, ncols)) == ncols
        assert r == _column_echelon_rank(dense)


# n rows with a column outside 0..n-1; past the first, no row has more than n entries, so a length check passes them
_NOT_SQUARE = ([{0: 1, 1: 2}], [{0: 1}, {1: 1, 2: 5}], [{0: 1}, {3: 1}], [{1: 1}, {-1: 1}])


def test_inverse_roundtrip():
    m = _matrix([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    assert m @ Matrix(3, 3, inverse(m.data)) == identity(3)
    # zeros in the inverse, and a first row that needs a swap
    swap = _matrix([[0, 2, 0], [Fraction(1, 3), 0, 0], [0, 0, -1]])
    assert inverse(swap.data) == ({1: 3}, {0: Fraction(1, 2)}, {2: -1})
    assert Matrix(3, 3, inverse(swap.data)) @ swap == identity(3)
    assert inverse([]) == ()
    with pytest.raises(ValueError, match="singular"):
        inverse([sparse([1, 2]), sparse([2, 4])])
    for rows in _NOT_SQUARE:
        with pytest.raises(ValueError, match="non-square"):
            inverse(rows)


def test_det_matches_elimination():
    assert det([sparse(row) for row in [[2, 1], [7, 4]]]) == 1
    assert det([sparse(row) for row in [[1, 2], [2, 4]]]) == 0


def _gram_shaped(rng, n, few) -> list[list[int]]:
    """An n x n integer matrix shaped like a Gram minor of kappa.

    Each row holds one entry on a shuffled diagonal, as a root factor's row
    does; the first ``few`` rows also meet one another's diagonal columns, as
    Cartan factors do.
    """
    cols = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randint(0, i)
        cols[i], cols[j] = cols[j], cols[i]
    rows = [[0] * n for _ in range(n)]
    for i, c in enumerate(cols):
        rows[i][c] = rng.randint_nonzero(-3, 3)
    for i in range(few):
        for c in cols[:few]:
            if rng.randint(0, 1):
                rows[i][c] = rng.randint(-3, 3)
    return rows


def test_det_matches_gaussian_oracle():
    # the expansion along sparse rows against Gaussian elimination over Fraction
    half, third = Fraction(1, 2), Fraction(-1, 3)
    cases = [
        [],
        [[-7]],
        [[Fraction(5, 6)]],
        [[0, 2, 1], [3, 1, 0], [1, 0, 4]],  # a zero leading pivot: the first step swaps rows
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # zero pivots in two steps
        [[1, 2, 3], [2, 4, 6], [0, 1, 5]],  # singular: a zero column after the first step
        [[half, third, 1], [0, 0, 2], [Fraction(3, 4), half, third]],
        [[half, third], [Fraction(3, 2), -1]],  # singular over rationals
    ]
    rng = Lcg(5)
    for n in range(2, 6):
        cases.append([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        cases.append([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
    gram = [_gram_shaped(rng, n, 3) for n in (9, 9, 12, 12)]
    assert all(sum(map(bool, row)) <= 3 for rows in gram for row in rows)
    assert all(sum(sum(map(bool, row)) == 1 for row in rows) >= len(rows) - 3 for rows in gram)
    assert any(dense_oracles.det(rows) for rows in gram)
    cases += gram
    cases.append([[rng.randint_nonzero(-3, 3) for _ in range(8)] for _ in range(8)])  # dense: every column set
    for rows in cases:
        got, want = det(_as_given(rows)), dense_oracles.det(rows)
        assert got == want, rows
        if all(isinstance(x, int) for row in rows for x in row):
            assert type(got) is int
    assert [det(_as_given(rows)) for rows in cases[:6]] == [1, -7, Fraction(5, 6), -25, -1, 0]
    assert det(_as_given(cases[7])) == 0 and det(_as_given(cases[6])) != 0
    for rows in _NOT_SQUARE:
        with pytest.raises(ValueError, match="non-square"):
            det(rows)


def test_matrix_json_roundtrip(a1):
    # a subspace writes its echelon rows as a grid of rationals in lowest terms
    S = Subspace(a1, [{0: 3, 2: 1}, {1: Fraction(2, 7)}])
    data = S.to_json()
    assert data == {"rows": 2, "cols": 3, "entries": [["1", "0", "1/3"], ["0", "1", "0"]], "dim": 2}
    assert Subspace.from_json(a1, data) == S


@pytest.mark.parametrize("text", ["1e3", "1E3", "2.5e-1", "-3e0"])
def test_exponent_entries_are_refused(text, a1):
    with pytest.raises(ValueError, match="exponent"):
        parse_rational(text)
    with pytest.raises(ValueError, match="exponent"):
        Subspace.from_json(a1, {"rows": 1, "cols": 3, "entries": [[text, 1, 0]]})


def test_rational_strings_are_read_exactly(a1):
    assert [parse_rational(x) for x in ("3/4", "-2", "0.5", " 7 ")] == [Fraction(3, 4), -2, Fraction(1, 2), 7]
    S = Subspace.from_json(a1, {"rows": 1, "cols": 3, "entries": [["3/4", "0.5", -2]]})
    assert S.rows == ({0: 1, 1: Fraction(2, 3), 2: Fraction(-8, 3)},)


def _fraction_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    # oracle: the Gauss-Jordan elimination over Fraction that rref ran before it used ints
    work, pivots = dense_oracles.rref(_dense(m), m.cols)
    return Matrix(m.rows, m.cols, tuple({j: x for j, x in enumerate(row) if x} for row in work)), pivots


def _assert_matches_oracle(m: Matrix):
    red, pivots = rref(m)
    assert (red, pivots) == _fraction_rref(m)
    assert all(type(x) is Fraction for row in red.data for x in row.values())
    # the same rows, each scaled to integers, given sparse
    ints = _scaled(m.data)
    assert all(type(x) is int for row in ints for x in row.values())
    rows, sparse_pivots = echelon_rows(ints)
    assert sparse_pivots == pivots and all(0 not in row.values() for row in rows)
    assert list(rows) == list(red.data[: len(pivots)]) and not any(red.data[len(pivots) :])
    kernel = kernel_basis(ints, m.cols)
    assert len(kernel) == m.cols - len(pivots)
    assert all(not sum(x * row.get(j, 0) for j, x in v.items()) for v in kernel for row in m.data)
    # rank skips the canonical form but counts the same pivots
    assert rank(ints) == len(pivots)
    # the Fraction rows, taken as they are, eliminate to the same results
    _assert_same_elimination(m.data, ints, m.cols)


def _assert_same_elimination(fractions, ints, cols):
    assert rank(fractions) == rank(ints)
    assert echelon_rows(fractions) == echelon_rows(ints)
    assert kernel_basis(fractions, cols) == kernel_basis(ints, cols)


@pytest.mark.parametrize("name", ["a2", "c2"])
def test_rref_matches_fraction_oracle_on_weight_blocks(name, monkeypatch):
    # a fresh algebra: blocked_rank is cached per algebra, and a shared fixture's
    # cache would answer the delta and delta_star ranks without eliminating
    L = build_algebra(build_root_datum(name[0].upper(), int(name[1:])))
    blocks = []
    graded_matrix = exterior.graded_matrix

    def checked_block(L, fn, k, keys, tkeys):
        rows, den = graded_matrix(L, fn, k, keys, tkeys)
        assert all(type(x) is int and x for row in rows for x in row.values())
        block = Matrix(len(rows), len(tkeys), tuple(rows))
        _assert_matches_oracle(block)
        assert rank(rows) == len(rref(block)[1])
        # the block divided by 3, as Fraction rows with entries off the integers
        _assert_same_elimination([{j: Fraction(x, 3) for j, x in row.items()} for row in rows], rows, len(tkeys))
        blocks.append(block)
        return rows, den

    monkeypatch.setattr(exterior, "graded_matrix", checked_block)
    for k in range(L.g + 1):
        exterior.blocked_rank(L, "delta", k)
    rectangular = [m for m in blocks if m.rows != m.cols]
    assert rectangular  # the delta blocks reached the oracle, not a cache
    seen = len(blocks)
    exterior.blocked_rank(L, "delta_star", L.d)
    assert any(m.rows != m.cols for m in blocks[seen:])
    seen = len(blocks)
    # the square blocks of casimir minus a scalar, ranked for eigenspace dimensions
    exterior.blocked_eigenspace_dim(L, L.d, 1)
    assert len(blocks) > seen
    assert len(blocks) > L.g
    assert any(rank(m.data) < m.rows for m in blocks)  # dependent rows get eliminated too


def test_rref_matches_fraction_oracle_on_seeded_matrices():
    rng = Lcg(23)
    negative_pivot = mixed_denominators = 0
    for _ in range(150):
        nrows, ncols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
        # rank at most r: a product of random nrows x r and r x ncols factors
        left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(r)] for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(r)]
        m = _matrix(left) @ _matrix(right)
        assert _dense(m) == dense_oracles.matmul(left, right)
        _assert_matches_oracle(m)
        pivots = rref(m)[1]
        negative_pivot += any(row[min(row)] < 0 for row in m.data if row)
        mixed_denominators += len({x.denominator for row in m.data for x in row.values()}) > 1
        assert len(pivots) <= r
    assert negative_pivot > 50 and mixed_denominators > 50


def test_rref_keeps_pivot_signs():
    m = _matrix([[0, -3, 6, 1], [-2, 4, 1, 0], [0, 0, 0, -5]])
    red, pivots = rref(m)
    assert pivots == (0, 1, 3)
    assert red == _matrix([[1, 0, Fraction(-9, 2), 0], [0, 1, -2, 0], [0, 0, 0, 1]])
    assert (red, pivots) == _fraction_rref(m)


def test_rref_edge_shapes_and_reduced_input():
    reduced = _matrix([[1, 0, 5, 0], [0, 1, Fraction(2, 7), 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert rref(reduced) == (reduced, (0, 1, 3))
    for m in (
        reduced,
        Matrix(0, 4, ()),
        Matrix(3, 0, ({},) * 3),
        _matrix([[0] * 4] * 3),
        _matrix([[0, 0, 0], [0, Fraction(-1, 3), 2], [0, 0, 0], [0, 1, Fraction(1, 2)]]),
        _matrix([[Fraction(7, 5)]]),
    ):
        _assert_matches_oracle(m)
