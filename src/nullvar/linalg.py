"""Exact rational linear algebra: sparse rows, reduced echelon form, rank, kernels.

Every value is exact; no rounding ever occurs.  A vector is a sparse row: a
dict from each coordinate index to its nonzero ``fractions.Fraction``.
Elimination, ``det`` and ``inverse`` take sparse rows of ``int`` or
``Fraction`` entries that keep only their nonzero entries, as subspace
bases, weight blocks of the exterior operators, the Jacobian of the local
equations, kappa and its Gram minors are mostly zeros.  A ``Matrix``
is such rows with a shape.  It holds the weight-block operator and pairing
matrices of the transpose relation as integer numerators, their one
denominator kept beside the matrix, and the [m | I] rows that ``inverse``
reduces through ``rref``.

The reduced row echelon form is the canonical representative used for
subspace equality throughout the package.  ``_echelon`` scales each row by
the lcm of its denominators and eliminates on these sparse Python ``int``
rows; it is the one elimination, and ``det`` expands along sparse rows.
``echelon_rows`` divides its rows by their pivots into canonical sparse
rows; ``rref`` gives them the shape of its ``Matrix`` for ``inverse``;
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


def parse_rational(text: str) -> Fraction:
    """The rational that ``text`` writes, as '3/4', '-2' or '0.5' do; ValueError or ZeroDivisionError otherwise.

    ``Fraction`` also reads an exponent, and Fraction('1e9') builds a
    billion-digit integer before any size could be checked, so a string with
    an exponent is refused.  It also reads non-ASCII digits, and '1_0' as 10
    from Python 3.11 on but not before, so those are refused too.
    """
    if "e" in text or "E" in text:
        raise ValueError(f"exponents are not accepted: {text!r}")
    if "_" in text or not text.isascii():
        raise ValueError(f"only ASCII digits without '_' are accepted: {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class Matrix:
    """An exact ``rows`` x ``cols`` matrix held as its sparse rows.

    ``data`` has one dict per row, from column to nonzero ``int`` or
    ``Fraction`` entry.
    """

    rows: int
    cols: int
    data: tuple[dict, ...]

    def __post_init__(self):
        if len(self.data) != self.rows:
            raise ValueError(f"{self.rows}x{self.cols} matrix needs {self.rows} rows, got {len(self.data)}")
        if any(row and (min(row) < 0 or max(row) >= self.cols) for row in self.data):
            raise ValueError(f"{self.rows}x{self.cols} matrix has a column key outside 0..{self.cols - 1}")
        # elimination pivots at a row's least key, so a stored zero would be taken for a pivot
        if not all(all(row.values()) for row in self.data):
            raise ValueError(f"{self.rows}x{self.cols} matrix stores a zero entry")

    def transpose(self) -> "Matrix":
        columns: list[dict] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, x in row.items():
                columns[j][i] = x
        return Matrix(self.cols, self.rows, tuple(columns))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, each row the ``combine`` of ``other``'s rows by this row's entries; ints stay ints."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other.data
        return Matrix(self.rows, other.cols, tuple(combine((x, right[k]) for k, x in row.items()) for row in self.data))


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


def _echelon(rows: Sequence[dict]) -> dict[int, dict[int, int]]:
    """The reduced integer rows of the row space of the ``int`` or ``Fraction`` ``rows``, keyed by pivot column.

    Each row is copied times the lcm of its denominators, which keeps its row
    space and kernel, and Gauss-Jordan elimination runs on these sparse
    integer rows, one row at a time.  The rows kept so far form a reduced
    basis: each pivots at its first nonzero column and is zero at every other
    kept pivot.  A new row is cleared at the kept pivots it meets, which puts
    nothing into another pivot column; a nonzero remainder pivots at its first
    column and is cleared from the kept rows.  Rows are taken by descending
    first column, so a new pivot mostly lies left of the kept rows and seldom
    needs clearing from them.  A row is only ever replaced by a nonzero
    multiple of itself minus a multiple of a pivot row, so the row space and
    the pivots are those of ``rows``.
    """
    work = [integer_terms(row)[1] for row in rows]  # elimination edits its integer copies in place
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


def echelon_rows(rows: Sequence[dict]) -> tuple[tuple[dict[int, Fraction], ...], tuple[int, ...]]:
    """The unique reduced row echelon form of the ``int`` or ``Fraction`` ``rows`` as sparse rows, with its pivot columns.

    Each row of ``_echelon`` is divided by its pivot, so it is 1 there.
    """
    basis = _echelon(rows)
    pivots = tuple(sorted(basis))
    return tuple({j: Fraction(x, basis[c][c]) for j, x in basis[c].items()} for c in pivots), pivots


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row echelon form of ``m``, the rows of ``echelon_rows`` over empty rows, with its pivot columns."""
    rows, pivots = echelon_rows(m.data)
    return Matrix(m.rows, m.cols, rows + ({},) * (m.rows - len(rows))), pivots


def rank(rows: Sequence[dict]) -> int:
    """Rank over the rationals of the ``int`` or ``Fraction`` ``rows``: the pivot count of ``_echelon``, without the canonical form."""
    return len(_echelon(rows))


def kernel_basis(rows: Sequence[dict], cols: int) -> tuple[dict[int, Fraction], ...]:
    """Basis of the right kernel of the ``int`` or ``Fraction`` ``rows`` over ``cols`` columns, one sparse row per non-pivot column f.

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


def _square(rows: Sequence[dict], what: str) -> int:
    """n, for n sparse ``rows`` over the columns 0..n-1; ValueError if a row has a column outside them."""
    n = len(rows)
    if not set().union(*rows) <= set(range(n)):
        raise ValueError(f"{what} of non-square matrix: {n} rows with a column outside 0..{n - 1}")
    return n


def inverse(rows: Sequence[dict]) -> tuple[dict, ...]:
    """The sparse rows of the exact inverse of the n sparse ``rows`` over columns 0..n-1; ValueError if singular.

    Row i of [m | I] reduces to e_i followed by row i of the inverse.
    """
    n = _square(rows, "inverse")
    red, pivots = rref(Matrix(n, 2 * n, tuple(row | {n + i: 1} for i, row in enumerate(rows))))
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return tuple({j - n: x for j, x in row.items() if j >= n} for row in red.data[:n])


def det(rows: Sequence[dict]):
    """Exact determinant of the n sparse ``rows`` over columns 0..n-1, by Laplace expansion along the rows in turn.

    An ``int`` for ``int`` entries.  After each row, every set of columns
    the rows so far can take (a bitmask) maps to the signed sum of the
    products that take it; a row meets only its nonzero entries, and placing
    column j after the set ``used`` adds the ``(used >> j).bit_count()``
    inversions of the earlier rows' larger columns.  The cost is the number
    of column sets reached: at most 2^n for a dense n x n matrix, one path
    through each one-entry row, as in the Gram minors of a Chevalley kappa.
    """
    n = _square(rows, "determinant")
    partial = {0: 1}
    for row in rows:
        step: dict = {}
        for used, v in partial.items():
            for j, x in row.items():
                if not used >> j & 1:
                    key = used | 1 << j
                    step[key] = step.get(key, 0) + (-v if (used >> j).bit_count() & 1 else v) * x
        partial = {used: v for used, v in step.items() if v}
    return partial.get((1 << n) - 1, 0)
