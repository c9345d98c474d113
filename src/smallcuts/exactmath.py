"""Exact integer matrices with fraction-free elimination.

One Bareiss elimination loop serves both kernels: it returns the rank and
the determinant of a matrix together, and `rank` and `det_bareiss` each
read one of the two.  A matrix is eliminated at most once: an `IntMatrix`
keeps the pair on the object itself, so `rank(m)` followed by
`det_bareiss(m)` eliminates `m` once.  Nothing is kept beyond the object;
an equal matrix built anew is eliminated anew.

Every quantity that feeds a certification verdict is an exact integer or a
`fractions.Fraction`; there is no floating point in this module.  An
`IntMatrix` refuses any entry that is not a Python `int`, and the
elimination works on lists of Python ints, so nothing is truncated or
overflows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence


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
        for i, x in enumerate(self.entries):
            if type(x) is not int:
                raise TypeError(f"entry {i} is {x!r}, not an int")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(map(operator.index, r))
        return cls(nrows, ncols, tuple(flat))

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

    @cached_property
    def _rank_det(self) -> tuple[int, int]:
        """``(rank, det)`` by ``_eliminate``, computed once per object: the
        entries are frozen, so the pair cannot go stale."""
        return _eliminate(self)


def _eliminate(m: IntMatrix) -> tuple[int, int]:
    """Fraction-free (one-step Bareiss) elimination with column scan.

    Returns ``(rank, det)``; ``det`` is 0 unless the matrix is square and of
    full rank.  Intermediate entries are minors of the input, so every
    division below is exact over the integers; nothing is rounded.  The last
    pivot is the determinant of the row-permuted matrix, hence the sign of
    the swaps.  Rows are lists of Python ints, which have no word size, so
    no entry can overflow.  Columns at or left of the pivot column are never
    read again, so they are left as they are.
    """
    a = m.to_rows()
    nrows, ncols = m.rows, m.cols
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        row_r = a[r]
        pivot = row_r[c]
        for i in range(r + 1, nrows):
            row_i = a[i]
            f = row_i[c]
            if f == 0 and pivot == prev:
                continue  # the update below would leave this row as it is
            for j in range(c + 1, ncols):
                row_i[j] = (row_i[j] * pivot - f * row_r[j]) // prev
        prev = pivot
        r += 1
    return r, (sign * prev if r == nrows == ncols else 0)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant, by the shared fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    return m._rank_det[1]


def rank(m: IntMatrix) -> int:
    """Rank over the rationals, by the shared fraction-free elimination."""
    return m._rank_det[0]
