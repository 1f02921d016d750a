"""Exact rational linear algebra: dense matrices, reduced echelon form, rank, kernels.

Every value is a ``fractions.Fraction``; no rounding ever occurs.  The reduced
row echelon form is the canonical representative used for subspace equality
throughout the package.  ``rref`` clears each row's denominators and
eliminates on Python ``int`` rows, building ``Fraction`` entries only for its
canonical output; ``rank``, ``kernel_basis``, ``inverse`` and ``solve_in_span``
all go through it.
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
    def identity(n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return Matrix(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (Fraction(0),) * (rows * cols))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

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

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = Fraction(0)
            for j, x in enumerate(v):
                if x:
                    acc += self.entries[base + j] * x
            out.append(acc)
        return tuple(out)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def add(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other.scale(-1))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)


def _integer_row(row: Sequence[Fraction]) -> list[int]:
    """``row`` times the lcm of its denominators: the same line, as ints."""
    out = [0] * len(row)
    nonzero = [(j, x) for j, x in enumerate(row) if x]
    if nonzero:
        den = lcm(*[x.denominator for _, x in nonzero])
        for j, x in nonzero:
            out[j] = x.numerator * (den // x.denominator)
    return out


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Unique reduced row echelon form of ``m`` together with its pivot columns.

    Gauss-Jordan elimination on integer rows: a row is only ever replaced by
    a nonzero multiple of itself plus a multiple of a pivot row, so the row
    space and the pivots are those of ``m``.  Dividing each pivot row by its
    pivot at the end gives the canonical ``Fraction`` form.
    """
    nrows, ncols = m.rows, m.cols
    work = [_integer_row(m.row(i)) for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # any nonzero entry can pivot; a unit one spares scaling the other rows
        pivot_row = None
        for k in range(r, nrows):
            x = work[k][c]
            if x:
                if pivot_row is None:
                    pivot_row = k
                if x == 1 or x == -1:
                    pivot_row = k
                    break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        row_r = work[r]
        p = row_r[c]
        support = [(j, row_r[j]) for j in range(c, ncols) if row_r[j]]
        for k in range(nrows):
            row_k = work[k]
            f = row_k[c]
            if not f or k == r:
                continue
            # row_k <- a*row_k - b*row_r with a/b = p/f and a > 0
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                row_k = [a * x for x in row_k]
            for j, x in support:
                row_k[j] -= b * x
            if a != 1:
                # the scaling inflated the row; dividing by its content keeps entries small
                h = gcd(*row_k)
                work[k] = [x // h for x in row_k] if h > 1 else row_k
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = Fraction(0)
    flat = [zero] * (nrows * ncols)
    for i, c in enumerate(pivots):
        row, p = work[i], work[i][c]
        base = i * ncols
        for j in range(c, ncols):
            if row[j]:
                flat[base + j] = Fraction(row[j], p)
    return Matrix(nrows, ncols, tuple(flat)), tuple(pivots)


def rank(m: Matrix) -> int:
    """Rank over the rationals."""
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of the right kernel, one vector per row, in reduced echelon form.

    The row count is cols(m) - rank(m); equal kernels compare equal as matrices.
    """
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    rows = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        rows.append(v)
    if not rows:
        return Matrix(0, m.cols, ())
    canon, _ = rref(Matrix.from_rows(rows))
    return canon


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


def solve_in_span(basis_rows: Matrix, target: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Coefficients c with c . basis_rows == target, or None if target lies outside the span."""
    k, n = basis_rows.rows, basis_rows.cols
    if len(target) != n:
        raise ValueError("target length mismatch")
    aug_rows = [[basis_rows[i, j] for i in range(k)] + [frac(target[j])] for j in range(n)]
    red, pivots = rref(Matrix.from_rows(aug_rows))
    if any(p == k for p in pivots):
        return None
    sol = [Fraction(0)] * k
    for r, p in enumerate(pivots):
        sol[p] = red[r, k]
    for j in range(n):
        acc = Fraction(0)
        for i in range(k):
            if sol[i]:
                acc += sol[i] * basis_rows[i, j]
        if acc != frac(target[j]):
            return None
    return tuple(sol)


def matrix_to_json(m: Matrix) -> dict:
    """Repo-wide JSON encoding: rationals as strings in lowest terms."""
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)],
    }


def matrix_from_json(data: dict) -> Matrix:
    rows = int(data["rows"])
    cols = int(data["cols"])
    entries = data["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entry grid does not match declared shape")
    return Matrix(rows, cols, tuple(Fraction(x) for row in entries for x in row))
