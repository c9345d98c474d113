from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcuts.exactmath import IntMatrix, det_bareiss, rank, row_combine

from oracles import cofactor_det, rational_rank


def square_matrices(max_n=5, lo=-9, hi=9):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(lo, hi), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def rect_matrices(max_n=5, lo=-6, hi=6):
    return st.tuples(
        st.integers(1, max_n), st.integers(1, max_n)
    ).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(lo, hi), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


class TestDetBareiss:
    def test_three_by_three_circulant(self):
        m = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert det_bareiss(m) == 2

    def test_identity(self):
        assert det_bareiss(IntMatrix.identity(3)) == 1

    def test_repeated_rows(self):
        assert det_bareiss(IntMatrix.from_rows([[1, 1], [1, 1]])) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_bareiss(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_empty_matrix(self):
        assert det_bareiss(IntMatrix(0, 0, ())) == 1

    # Entries in {-1, 0, 1} make singular matrices common, so the
    # zero-determinant path of the shared elimination is drawn too.
    @given(st.one_of(square_matrices(), square_matrices(lo=-1, hi=1)))
    @settings(max_examples=200)
    def test_agrees_with_cofactor_expansion(self, rows):
        m = IntMatrix.from_rows(rows)
        det = det_bareiss(m)
        assert det == cofactor_det(rows)
        assert (det != 0) == (rank(m) == m.rows)

    @given(st.integers(2, 6))
    def test_lower_triangular_is_diagonal_product(self, n):
        rows = [[(i * 7 + j + 1) if j < i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = i + 2
        prod = 1
        for i in range(n):
            prod *= rows[i][i]
        assert det_bareiss(IntMatrix.from_rows(rows)) == prod

    def test_big_entries_stay_exact(self):
        big = 10**30
        m = IntMatrix.from_rows([[big, 1], [1, big]])
        assert det_bareiss(m) == big * big - 1


class TestRank:
    def test_zero_matrix(self):
        assert rank(IntMatrix(3, 3, (0,) * 9)) == 0

    def test_full_rank_identity(self):
        assert rank(IntMatrix.identity(4)) == 4

    @given(rect_matrices())
    @settings(max_examples=200)
    def test_agrees_with_rational_elimination(self, rows):
        assert rank(IntMatrix.from_rows(rows)) == rational_rank(rows)

    @given(rect_matrices())
    @settings(max_examples=100)
    def test_transpose_invariant(self, rows):
        m = IntMatrix.from_rows(rows)
        assert rank(m) == rank(m.transpose())

    @given(square_matrices(max_n=4), st.data())
    @settings(max_examples=100)
    def test_invariant_under_unit_row_combine(self, rows, data):
        m = IntMatrix.from_rows(rows)
        target = data.draw(st.integers(0, m.rows - 1))
        src = data.draw(st.integers(0, m.rows - 1))
        coeff = data.draw(st.sampled_from([-1, 1]))
        if src == target and coeff == -1:
            return  # cancels the row; rank may legitimately drop
        assert rank(row_combine(m, target, [(coeff, src)])) == rank(m)


class TestRowCombine:
    def test_subtract_row(self):
        m = IntMatrix.from_rows([[1, 1], [1, 0]])
        assert row_combine(m, 0, [(-1, 1)]) == IntMatrix.from_rows([[0, 1], [1, 0]])

    def test_empty_add_is_identity(self):
        m = IntMatrix.from_rows([[3, 4], [5, 6]])
        assert row_combine(m, 0, []) == m

    def test_original_unchanged(self):
        m = IntMatrix.from_rows([[1, 1], [1, 0]])
        row_combine(m, 0, [(-1, 1)])
        assert m == IntMatrix.from_rows([[1, 1], [1, 0]])

    def test_index_out_of_range(self):
        m = IntMatrix.identity(2)
        with pytest.raises(IndexError):
            row_combine(m, 5, [])
        with pytest.raises(IndexError):
            row_combine(m, 0, [(1, 7)])

    def test_multiple_sources(self):
        m = IntMatrix.from_rows([[0, 0], [1, 2], [10, 20]])
        out = row_combine(m, 0, [(2, 1), (-1, 2)])
        assert out.row(0) == [-8, -16]


class TestIntMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_block(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.block(1, 3, 0, 2) == IntMatrix.from_rows([[4, 5], [7, 8]])

    def test_transpose_roundtrip(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m


def test_rat_is_reduced_exact():
    x = Fraction(2, 8)
    assert x.numerator == 1 and x.denominator == 4
    assert Fraction(1, 6) + Fraction(1, 3) == Fraction(1, 2)
