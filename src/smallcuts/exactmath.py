"""Exact integer matrices with fraction-free elimination.

One Bareiss elimination loop serves both kernels: it returns the rank and
the determinant of a matrix together, and `rank` and `det_bareiss` each
read one of the two.

Every quantity that feeds a certification verdict is an exact integer or a
`fractions.Fraction`; there is no floating point in this module.  The
elimination holds its matrix as a numpy array of dtype int64 while a
per-block bound shows that no product overflows, and of dtype `object`
(Python ints) from the first block where it might; never a float dtype.
`Rat` is the rational scalar type used for coverage sums and solution
coordinates (stdlib Fraction already guarantees a positive, gcd-reduced
denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Rat = Fraction

_INT64_MAX = 2**63 - 1
_BLOCK = 32  # rows per array update, so no step makes a full-size temporary


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major storage."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[int]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def with_row(self, i: int, new_row: Sequence[int]) -> "IntMatrix":
        if len(new_row) != self.cols:
            raise ValueError("row length mismatch")
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        ent = list(self.entries)
        ent[i * self.cols : (i + 1) * self.cols] = [int(x) for x in new_row]
        return IntMatrix(self.rows, self.cols, tuple(ent))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "IntMatrix":
        """Submatrix of rows [r0, r1) and columns [c0, c1)."""
        if not (0 <= r0 <= r1 <= self.rows and 0 <= c0 <= c1 <= self.cols):
            raise IndexError("block out of range")
        flat = tuple(
            self.entries[i * self.cols + j] for i in range(r0, r1) for j in range(c0, c1)
        )
        return IntMatrix(r1 - r0, c1 - c0, flat)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


def _abs_max(v: np.ndarray) -> int:
    return max(int(v.max(initial=0)), -int(v.min(initial=0)))


def _eliminate(m: IntMatrix) -> tuple[int, int]:
    """Fraction-free (one-step Bareiss) elimination with column scan.

    Returns ``(rank, det)``; ``det`` is 0 unless the matrix is square and of
    full rank.  Intermediate entries are minors of the input, so every
    division below is exact over the integers; nothing is rounded.  The last
    pivot is the determinant of the row-permuted matrix, hence the sign of
    the swaps.

    The rows below the pivot are updated by array statements, ``_BLOCK``
    rows at a time, on an int64 array (``dtype=object`` from the start when
    an input entry does not fit).  Before each block's update, the bound
    ``max|x|*|pivot| + max|f|*max|y|`` on every product and difference the
    update forms is computed in Python ints over that block; the first time
    it exceeds ``_INT64_MAX``, the array becomes ``dtype=object`` and the
    same statements carry on with Python ints.  Columns at or left of the
    pivot column are never read again, so they are left as they are.
    """
    nrows, ncols = m.rows, m.cols
    try:
        a = np.array(m.entries, dtype=np.int64).reshape(nrows, ncols)
    except OverflowError:
        a = np.array(m.entries, dtype=object).reshape(nrows, ncols)
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nonzero = r + np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        piv = int(nonzero[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
            sign = -sign
        pivot = int(a[r, c])
        # A row with f == 0 is left as it is when pivot == prev.  After the
        # swap, row piv holds the old row r, which was 0 in this column.
        rows = nonzero[1:] if pivot == prev else np.arange(r + 1, nrows)
        y = a[r, c + 1 :]
        ymax = _abs_max(y)
        for start in range(0, rows.size, _BLOCK):
            block = rows[start : start + _BLOCK]
            rest = a[block, c:]
            x, f = rest[:, 1:], rest[:, :1]
            if a.dtype != object and (
                _abs_max(x) * abs(pivot) + _abs_max(f) * ymax > _INT64_MAX
            ):
                a = a.astype(object)
                x, f, y = x.astype(object), f.astype(object), a[r, c + 1 :]
            a[block, c + 1 :] = (x * pivot - f * y) // prev
        prev = pivot
        r += 1
    return r, (sign * prev if r == nrows == ncols else 0)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant, by the shared fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return _eliminate(m)[1]


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, by the shared fraction-free elimination."""
    return _eliminate(m)[0]
