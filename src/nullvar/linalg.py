"""Exact rational linear algebra: sparse rows, reduced echelon form, rank, kernels.

Every value is exact; no rounding ever occurs.  A vector is a sparse row: a
dict from each coordinate index to its nonzero ``fractions.Fraction``.
Elimination runs on sparse integer rows that keep only their nonzero
entries, as subspace bases, weight blocks of the exterior operators and the
Jacobian of the cubic local equations are mostly zeros; ``integer_rows``
scales rational rows to them.  Dense ``Matrix`` entries serve the inversion
of the Killing form, the operator and pairing matrices of the transpose
relation and the JSON encoding.

The reduced row echelon form is the canonical representative used for
subspace equality throughout the package.  ``_echelon`` eliminates on sparse
Python ``int`` rows.  ``echelon_rows`` divides its rows by their pivots into
canonical sparse rows; ``rref``, the one entry point for a dense matrix,
scales its rows to integers and lays the result out densely for ``inverse``;
``kernel_basis`` reads the kernel off the same rows, and ``rank`` only counts
their pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def frac(value) -> Fraction:
    """Coerce ints, rationals and strings like '3/4' to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


@dataclass(frozen=True)
class Matrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        rows = list(rows)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(frac(x) for x in row)
        return Matrix(nrows, ncols, tuple(flat))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def sparse_rows(self) -> tuple[dict[int, Fraction], ...]:
        """Each row as a dict from column to its nonzero entry."""
        return tuple({j: x for j, x in enumerate(self.row(i)) if x} for i in range(self.rows))

    def row_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = [Fraction(0)] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if not a:
                    continue
                obase = k * other.cols
                rbase = i * other.cols
                for j in range(other.cols):
                    b = other.entries[obase + j]
                    if b:
                        out[rbase + j] += a * b
        return Matrix(self.rows, other.cols, tuple(out))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * x for x in self.entries))


def combine(terms) -> dict:
    """The sum of c * v over the (c, v) pairs, v sparse rows over any keys, without zero entries."""
    acc: dict = {}
    for c, v in terms:
        for key, x in v.items():
            acc[key] = acc.get(key, 0) + c * x
    return {key: x for key, x in acc.items() if x}


def integer_terms(terms: dict) -> tuple[int, dict]:
    """``(den, ints)``: the rational ``terms`` are ``ints`` over their common denominator."""
    den = lcm(1, *[c.denominator for c in terms.values()])
    return den, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def integer_rows(rows) -> list[dict]:
    """Each sparse rational row times the lcm of its denominators: same row space and kernel."""
    return [integer_terms(row)[1] for row in rows]


def _reduce(row: dict[int, int], pivot_row: dict[int, int], c: int) -> None:
    """Clear column c of ``row`` in place with ``pivot_row``, whose pivot is at c.

    ``row`` becomes a*row - b*pivot_row with a/b = p/f, g = gcd(p, f) and
    a > 0, so only the pivot row's nonzero columns are touched.
    """
    p, f = pivot_row[c], row[c]
    g = gcd(p, f) if p > 0 else -gcd(p, f)
    a, b = p // g, f // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, x in pivot_row.items():
        v = row.get(j, 0) - b * x
        if v:
            row[j] = v
        else:
            del row[j]
    if a != 1 and row:
        # the scaling inflated the row; dividing by its content keeps entries small
        h = gcd(*row.values())
        if h > 1:
            for j in row:
                row[j] //= h


def _echelon(rows: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced integer rows of the row space of ``rows``, keyed by pivot column.

    Gauss-Jordan elimination on sparse integer rows, one row at a time.  The
    rows kept so far form a reduced basis: each pivots at its first nonzero
    column and is zero at every other kept pivot.  A new row is cleared at the
    kept pivots it meets, which puts nothing into another pivot column; a
    nonzero remainder pivots at its first column and is cleared from the kept
    rows.  Rows are taken by descending first column, so a new pivot mostly
    lies left of the kept rows and seldom needs clearing from them.  A row is
    only ever replaced by a nonzero multiple of itself minus a multiple of a
    pivot row, so the row space and the pivots are those of ``rows``.
    """
    work = [dict(row) for row in rows]  # elimination edits rows in place
    basis: dict[int, dict[int, int]] = {}
    for row in sorted((row for row in work if row), key=min, reverse=True):
        for c in [c for c in row if c in basis]:
            _reduce(row, basis[c], c)
        if not row:
            continue
        c = min(row)
        for kept in basis.values():
            if c in kept:
                _reduce(kept, row, c)
        basis[c] = row
    return basis


def echelon_rows(rows: Sequence[dict[int, int]]) -> tuple[tuple[dict[int, Fraction], ...], tuple[int, ...]]:
    """The unique reduced row echelon form of the integer ``rows`` as sparse rows, with its pivot columns.

    Each row of ``_echelon`` is divided by its pivot, so it is 1 there.
    """
    basis = _echelon(rows)
    pivots = tuple(sorted(basis))
    return tuple({j: Fraction(x, basis[c][c]) for j, x in basis[c].items()} for c in pivots), pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row echelon form of ``m`` as a dense matrix, with its pivot columns."""
    rows, pivots = echelon_rows(integer_rows(m.sparse_rows()))
    flat = [Fraction(0)] * (m.rows * m.cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            flat[i * m.cols + j] = x
    return Matrix(m.rows, m.cols, tuple(flat)), pivots


def rank(rows: Sequence[dict[int, int]]) -> int:
    """Rank over the rationals of the integer ``rows``: the pivot count of ``_echelon``, without the canonical form."""
    return len(_echelon(rows))


def kernel_basis(rows: Sequence[dict[int, int]], cols: int) -> tuple[dict[int, Fraction], ...]:
    """Basis of the right kernel of the integer ``rows`` over ``cols`` columns, one sparse row per non-pivot column f.

    Row f is e_f minus, at each pivot, the entry at f of the reduced row of
    that pivot, so there are cols - rank rows.  The reduced rows depend only
    on the row space, which the kernel determines, so equal kernels give
    equal bases.
    """
    basis = _echelon(rows)
    return tuple(
        {f: Fraction(1)} | {c: Fraction(-row[f], row[c]) for c, row in basis.items() if f in row}
        for f in range(cols)
        if f not in basis
    )


def inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square matrix; raise ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    aug_rows = [list(m.row(i)) + [Fraction(1) if j == i else Fraction(0) for j in range(n)] for i in range(n)]
    red, pivots = rref(Matrix.from_rows(aug_rows))
    if tuple(pivots[:n]) != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix.from_rows([list(red.row(i))[n:] for i in range(n)])


def det(m: Matrix) -> Fraction:
    """Determinant by exact Gaussian elimination (intended for small matrices)."""
    if m.rows != m.cols:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    work = m.row_lists()
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for k in range(c, n):
            if work[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            result = -result
        result *= work[c][c]
        inv = 1 / work[c][c]
        for k in range(c + 1, n):
            f = work[k][c]
            if f:
                fk = f * inv
                for j in range(c, n):
                    work[k][j] -= fk * work[c][j]
    return result


def matrix_to_json(m: Matrix) -> dict:
    """Repo-wide JSON encoding: rationals as strings in lowest terms."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)],
    }


def matrix_from_json(data: dict) -> Matrix:
    """The matrix of ``matrix_to_json``; ValueError on any other shape or entry type."""
    if not isinstance(data, dict):
        raise ValueError("a matrix is a JSON object")
    rows, cols, entries = data["rows"], data["cols"], data["entries"]
    if not (type(rows) is int and type(cols) is int and isinstance(entries, list)):
        raise ValueError("rows and cols must be integers and entries a list of rows")
    if len(entries) != rows or any(not isinstance(r, list) or len(r) != cols for r in entries):
        raise ValueError("entry grid does not match declared shape")
    if any(isinstance(x, bool) or not isinstance(x, (int, str)) for row in entries for x in row):
        raise ValueError("matrix entries must be integers or rational strings")
    try:
        return Matrix(rows, cols, tuple(Fraction(x) for row in entries for x in row))
    except ZeroDivisionError as exc:
        raise ValueError(f"matrix entry {exc}") from None
