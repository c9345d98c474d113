from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcuts import exactmath
from smallcuts.construction import build_incidence_matrix, build_instance
from smallcuts.exactmath import IntMatrix, det_bareiss, rank

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


def identity(n):
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


class TestDetBareiss:
    def test_three_by_three_circulant(self):
        m = IntMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert det_bareiss(m) == 2

    def test_identity(self):
        assert det_bareiss(identity(3)) == 1

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
        assert rank(identity(4)) == 4

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
        combined = [list(r) for r in rows]
        combined[target] = [t + coeff * s for t, s in zip(rows[target], rows[src])]
        assert rank(IntMatrix.from_rows(combined)) == rank(m)


def wide_matrices(bits, square, max_n=8):
    """Matrices up to ``max_n`` x ``max_n`` whose entries mix {-1, 0, 1} with
    values up to +-2**bits.  Some get a last row that is the sum of two
    others, so singular matrices with large entries are drawn too."""
    entries = st.one_of(st.integers(-1, 1), st.integers(-(2**bits), 2**bits))
    shapes = (
        st.integers(1, max_n).map(lambda n: (n, n))
        if square
        else st.tuples(st.integers(1, max_n), st.integers(1, max_n))
    )

    def draw(shape, dependent):
        nrows, ncols = shape
        summed = dependent and nrows >= 3
        head = st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows - summed,
            max_size=nrows - summed,
        )
        if not summed:
            return head
        return head.map(lambda rows: rows + [[a + b for a, b in zip(rows[0], rows[1])]])

    return st.tuples(shapes, st.booleans()).flatmap(lambda args: draw(*args))


class TestMachineWordBound:
    """Entries and minors past a machine word stay exact.  Entries up to
    2**40 make products past 2**63 within a step or two; entries up to 2**70
    are past it from the start."""

    @given(st.one_of(wide_matrices(40, square=True), wide_matrices(70, square=True)))
    @settings(max_examples=100, deadline=None)
    def test_det_agrees_with_cofactor_expansion(self, rows):
        assert det_bareiss(IntMatrix.from_rows(rows)) == cofactor_det(rows)

    @given(st.one_of(wide_matrices(40, square=False), wide_matrices(70, square=False)))
    @settings(max_examples=200, deadline=None)
    def test_rank_agrees_with_rational_elimination(self, rows):
        assert rank(IntMatrix.from_rows(rows)) == rational_rank(rows)

    def test_switch_to_python_ints_mid_elimination(self):
        # Unit lower triangular times upper triangular with diagonal 2**8:
        # the determinant is 2**64, past any 64-bit word, while every entry
        # is below 2**9, so the first step's products are small.  The
        # products pass 2**63 partway through the eight steps.
        n = 8
        lower = [[1 if j <= i else 0 for j in range(n)] for i in range(n)]
        upper = [[2**8 if i == j else (j - i if j > i else 0) for j in range(n)] for i in range(n)]
        rows = [
            [sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert max(abs(x) for r in rows for x in r) < 2**9
        m = IntMatrix.from_rows(rows)
        assert det_bareiss(m) == 2**64 == cofactor_det(rows)
        assert rank(m) == n
        singular = IntMatrix.from_rows(rows[:-1] + [[a - b for a, b in zip(rows[0], rows[1])]])
        assert det_bareiss(singular) == 0
        assert rank(singular) == n - 1

    @pytest.mark.parametrize("k", [12, 16, 20, 24])
    def test_incidence_matrix_closed_form(self, k):
        # m = n + k - 2 links on n = 2 + k(k-1)/2 nodes; det A = k * 2**(k-2)
        a = build_incidence_matrix(build_instance(k))
        m = 2 + k * (k - 1) // 2 + k - 2
        assert a.rows == a.cols == m
        assert det_bareiss(a) == k * 2 ** (k - 2)
        assert rank(a) == m


class TestIntMatrix:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_non_integers_refused(self):
        # a float must not reach the elimination, truncated or not
        with pytest.raises(TypeError, match=r"entry 0 is 1\.5"):
            IntMatrix(1, 1, (1.5,))
        with pytest.raises(TypeError, match="entry 2 is 0.5"):
            IntMatrix(2, 2, (1, 0, 0.5, 1))
        with pytest.raises(TypeError):
            IntMatrix(1, 1, (np.int64(1),))
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, 2], [3, 4.0]])
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[Fraction(1, 2)]])

    def test_numpy_integers_accepted(self):
        m = IntMatrix.from_rows(np.array([[2, 1], [1, 3]], dtype=np.int64))
        assert all(type(x) is int for x in m.entries)
        assert det_bareiss(m) == 5

    def test_block(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.block(1, 3, 0, 2) == IntMatrix.from_rows([[4, 5], [7, 8]])

    def test_transpose_roundtrip(self):
        m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.transpose().transpose() == m


def test_elimination_kept_per_object_only(monkeypatch):
    # rank and then det_bareiss of one matrix eliminate it once; an equal
    # but distinct matrix is eliminated again, and the kept pair changes
    # neither equality, hash nor repr
    calls = []
    eliminate = exactmath._eliminate
    monkeypatch.setattr(exactmath, "_eliminate", lambda m: calls.append(m) or eliminate(m))
    rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    m = IntMatrix.from_rows(rows)
    assert (rank(m), det_bareiss(m), rank(m)) == (3, 18, 3)
    assert len(calls) == 1 and calls[0] is m
    twin = IntMatrix.from_rows(rows)
    assert (det_bareiss(twin), rank(twin)) == (18, 3)
    assert len(calls) == 2 and calls[1] is twin
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)


def test_rat_is_reduced_exact():
    x = Fraction(2, 8)
    assert x.numerator == 1 and x.denominator == 4
    assert Fraction(1, 6) + Fraction(1, 3) == Fraction(1, 2)
