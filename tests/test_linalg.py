"""Exact matrix engine: echelon form, rank, kernels."""

from fractions import Fraction

import pytest

from nullvar import exterior
from nullvar.algebra import build_algebra
from nullvar.linalg import (
    Matrix,
    SparseMatrix,
    det,
    echelon_rows,
    integer_terms,
    inverse,
    kernel_basis,
    matrix_from_json,
    matrix_to_json,
    rank,
    rref,
)
from nullvar.roots import build_root_datum
from nullvar.seeds import Lcg

from dense_oracles import identity


def test_rref_identity():
    m = identity(3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zeros(2, 4)
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent():
    rng = Lcg(5)
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        m = Matrix.from_rows(rows)
        red, _ = rref(m)
        again, _ = rref(red)
        assert red == again


def test_kernel_one_equation():
    k = kernel_basis(Matrix.from_rows([[1, 1]]))
    assert k == ({0: -1, 1: 1},)


def test_kernel_identity_empty():
    assert kernel_basis(identity(4)) == ()


def test_kernel_rank_one_canonical():
    k = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert k == ({0: -2, 1: 1},)


def test_rank_examples():
    assert rank(Matrix.zeros(3, 5)) == 0
    assert rank(identity(6)) == 6
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def _column_echelon_rank(m: Matrix) -> int:
    # independent oracle: plain forward elimination on columns of the transpose
    cols = [[m[i, j] for i in range(m.rows)] for j in range(m.cols)]
    r = 0
    for pos in range(m.rows):
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
                for i in range(m.rows):
                    cols[idx][i] -= f * cols[r][i]
        r += 1
    return r


def test_rank_nullity_and_second_path():
    rng = Lcg(11)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])
        r = rank(m)
        assert r + len(kernel_basis(m)) == ncols
        assert r == _column_echelon_rank(m)


def test_inverse_roundtrip():
    m = Matrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 1]])
    assert m @ inverse(m) == identity(3)


def test_det_matches_elimination():
    m = Matrix.from_rows([[2, 1], [7, 4]])
    assert det(m) == 1
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert det(singular) == 0


def test_matrix_json_roundtrip():
    m = Matrix.from_rows([[Fraction(1, 3), 2], [0, Fraction(-5, 7)]])
    data = matrix_to_json(m)
    assert data["entries"][0][0] == "1/3"
    assert matrix_from_json(data) == m


def _fraction_rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    # oracle: the Gauss-Jordan elimination over Fraction that rref ran before it used ints
    work = m.row_lists()
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((k for k in range(r, m.rows) if work[k][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for k in range(m.rows):
            f = work[k][c]
            if k != r and f:
                work[k] = [x - f * y for x, y in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.rows, m.cols, tuple(x for row in work for x in row)), tuple(pivots)


def _assert_matches_oracle(m: Matrix):
    red, pivots = rref(m)
    assert (red, pivots) == _fraction_rref(m)
    assert all(type(x) is Fraction for x in red.entries)
    # the same rows, each scaled to integers, given sparse
    rows = [integer_terms({j: x for j, x in enumerate(m.row(i)) if x})[1] for i in range(m.rows)]
    sparse = SparseMatrix(m.cols, tuple(rows))
    assert sparse.rows == m.rows
    assert rref(sparse) == (red, pivots)
    rows, sparse_pivots = echelon_rows(sparse)
    assert sparse_pivots == pivots and all(0 not in row.values() for row in rows)
    assert [tuple(row.get(j, 0) for j in range(m.cols)) for row in rows] == [red.row(i) for i in range(len(pivots))]
    assert kernel_basis(sparse) == kernel_basis(m)
    # rank skips the canonical form but counts the same pivots
    assert rank(m) == rank(sparse) == len(pivots)


@pytest.mark.parametrize("name", ["a2", "c2"])
def test_rref_matches_fraction_oracle_on_weight_blocks(name, monkeypatch):
    # a fresh algebra: blocked_rank is cached per algebra, and a shared fixture's
    # cache would answer the delta and delta_star ranks without eliminating
    L = build_algebra(build_root_datum(name[0].upper(), int(name[1:])))
    blocks = []

    def checked_rank(m):
        assert isinstance(m, SparseMatrix)
        assert all(type(x) is int and x for row in m.entries for x in row.values())
        dense = Matrix.from_rows([[row.get(j, 0) for j in range(m.cols)] for row in m.entries])
        _assert_matches_oracle(dense)
        assert rref(m) == rref(dense)
        assert rank(m) == len(rref(m)[1])
        blocks.append(dense)
        return rank(m)

    monkeypatch.setattr(exterior, "rank", checked_rank)
    for k in range(L.g + 1):
        exterior.blocked_rank(L, "delta", k)
    rectangular = [m for m in blocks if m.rows != m.cols]
    assert rectangular  # the delta blocks reached the oracle, not a cache
    seen = len(blocks)
    exterior.blocked_rank(L, "delta_star", L.d)
    assert any(m.rows != m.cols for m in blocks[seen:])
    seen = len(blocks)
    # the square blocks of casimir minus a scalar, ranked for eigenspace dimensions
    exterior.blocked_eigenspace_dim(L, "casimir", L.d, 1)
    assert len(blocks) > seen
    assert len(blocks) > L.g
    assert any(rank(m) < m.rows for m in blocks)  # dependent rows get eliminated too


def test_rref_matches_fraction_oracle_on_seeded_matrices():
    rng = Lcg(23)
    negative_pivot = mixed_denominators = 0
    for _ in range(150):
        nrows, ncols, r = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 4)
        # rank at most r: a product of random nrows x r and r x ncols factors
        left = [[Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(r)] for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(ncols)] for _ in range(r)]
        m = Matrix.from_rows(left) @ Matrix.from_rows(right)
        _assert_matches_oracle(m)
        pivots = rref(m)[1]
        first_nonzero = [next((x for x in m.row(i) if x), 0) for i in range(m.rows)]
        negative_pivot += any(x < 0 for x in first_nonzero)
        mixed_denominators += len({x.denominator for x in m.entries if x}) > 1
        assert len(pivots) <= r
    assert negative_pivot > 50 and mixed_denominators > 50


def test_rref_keeps_pivot_signs():
    m = Matrix.from_rows([[0, -3, 6, 1], [-2, 4, 1, 0], [0, 0, 0, -5]])
    red, pivots = rref(m)
    assert pivots == (0, 1, 3)
    assert red == Matrix.from_rows([[1, 0, Fraction(-9, 2), 0], [0, 1, -2, 0], [0, 0, 0, 1]])
    assert (red, pivots) == _fraction_rref(m)


def test_rref_edge_shapes_and_reduced_input():
    reduced = Matrix.from_rows([[1, 0, 5, 0], [0, 1, Fraction(2, 7), 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    assert rref(reduced) == (reduced, (0, 1, 3))
    for m in (
        reduced,
        Matrix(0, 4, ()),
        Matrix(3, 0, ()),
        Matrix.zeros(3, 4),
        Matrix.from_rows([[0, 0, 0], [0, Fraction(-1, 3), 2], [0, 0, 0], [0, 1, Fraction(1, 2)]]),
        Matrix.from_rows([[Fraction(7, 5)]]),
    ):
        _assert_matches_oracle(m)
