import random

import pytest

from rendezvous import BoolMatrix, MatrixSet, DimensionError, cpr_set, example_set
from rendezvous.boolmat import max_column_weight
from helpers import random_nz_matrix, random_nz_set, naive_product, as_lists


def mat(rows):
    return BoolMatrix.from_rows(rows)


class TestProduct:
    def test_identity_is_neutral(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 6)
            a = random_nz_matrix(rng, n)
            eye = BoolMatrix.identity(n)
            assert eye @ a == a
            assert a @ eye == a

    def test_zero_annihilates(self):
        a = mat([[1, 1], [0, 1]])
        z = BoolMatrix(2, (0, 0))
        assert a @ z == z
        assert z @ a == z

    def test_b2_squared_has_all_ones_column(self):
        # b2 maps 1->2, 2->3, 3->3; its square sends everything into column 3.
        b2 = mat([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
        sq = b2 @ b2
        assert sq.col(2) == 0b111
        assert sq == mat([[0, 0, 1], [0, 0, 1], [0, 0, 1]])

    def test_matches_naive_product(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(1, 5)
            a, b = random_nz_matrix(rng, n), random_nz_matrix(rng, n)
            expected = naive_product(as_lists(a), as_lists(b))
            assert as_lists(a @ b) == expected

    def test_associative_on_random_triples(self):
        rng = random.Random(3)
        for _ in range(1000):
            n = rng.randint(1, 8)
            a = random_nz_matrix(rng, n)
            b = random_nz_matrix(rng, n)
            c = random_nz_matrix(rng, n)
            assert (a @ b) @ c == a @ (b @ c)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            BoolMatrix.identity(2) @ BoolMatrix.identity(3)

    def test_nz_closed_under_product(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 6)
            a, b = random_nz_matrix(rng, n), random_nz_matrix(rng, n)
            assert (a @ b).nz_defect() is None

    def test_column_support_monotonicity(self):
        # If b(i, j) = 1 then column j of a@b absorbs column i of a.
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 6)
            a, b = random_nz_matrix(rng, n), random_nz_matrix(rng, n)
            prod = a @ b
            for i in range(n):
                for j in range(n):
                    if b.entry(i, j):
                        assert a.col(i) & ~prod.col(j) == 0


class TestPredicates:
    def test_identity_is_nz(self):
        assert BoolMatrix.identity(4).nz_defect() is None

    def test_zero_row_is_not_nz(self):
        assert mat([[1, 0], [0, 0]]).nz_defect() == ("row", 1)

    def test_zero_column_is_not_nz(self):
        assert mat([[1, 0], [1, 0]]).nz_defect() == ("column", 1)

    def test_cpr_generators_are_nz(self):
        for g in cpr_set().generators:
            assert g.nz_defect() is None

    def test_single_cycle_is_irreducible(self):
        cycle = mat([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert MatrixSet.of([cycle]).reducibility_witness() is None

    def test_identity_alone_is_reducible(self):
        for n in range(2, 6):
            assert MatrixSet.of([BoolMatrix.identity(n)]).reducibility_witness() is not None

    def test_example_set_is_irreducible(self):
        assert example_set().reducibility_witness() is None

    def test_reducibility_witness_has_no_path(self):
        upper = mat([[1, 1], [0, 1]])
        witness = MatrixSet.of([upper]).reducibility_witness()
        assert witness == (1, 0)


def max_weight(a):
    """Largest row or column weight: the column count on the transpose and
    on ``a`` itself."""
    return max(max_column_weight(a.n, a.transpose().rows), max_column_weight(a.n, a.rows))


def weights(a):
    """Per-row and per-column weights of ``a``, the columns read off one
    transpose and checked against ``col``."""
    per_column = tuple(col.bit_count() for col in a.transpose().rows)
    assert per_column == tuple(a.col(j).bit_count() for j in range(a.n))
    return tuple(row.bit_count() for row in a.rows), per_column


class TestWeightProfile:
    def test_identity_profile(self):
        a = BoolMatrix.identity(4)
        assert weights(a) == ((1, 1, 1, 1), (1, 1, 1, 1))
        assert max_weight(a) == 1

    def test_escape_example_matrix_columns(self):
        a = mat([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert weights(a)[1] == (2, 1, 2, 1)
        assert max_weight(a) == 2

    def test_all_ones_profile(self):
        assert weights(BoolMatrix.ones(3)) == ((3, 3, 3), (3, 3, 3))
        assert max_weight(BoolMatrix.ones(3)) == 3

    def test_transpose_swaps_profiles(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randint(1, 6)
            a = random_nz_matrix(rng, n)
            (rows, cols), (t_rows, t_cols) = weights(a), weights(a.transpose())
            assert rows == t_cols
            assert cols == t_rows
            assert max_column_weight(n, a.rows) == max(cols) == max(t_rows)
            assert max_column_weight(n, a.transpose().rows) == max(rows) == max(t_cols)


class TestTranspose:
    def test_involution_including_labels(self):
        rng = random.Random(7)
        for _ in range(30):
            s = random_nz_set(rng, rng.randint(1, 5), rng.randint(1, 3))
            assert s.transposed().transposed() == s

    def test_symmetric_generators_fixed(self):
        sym = mat([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        s = MatrixSet.of([sym])
        assert s.transposed().generators == s.generators

    def test_labels_get_prime(self):
        s = example_set()
        assert s.transposed().labels == ("a'", "b'")


class TestConstruction:
    def test_from_rows_normalizes_magnitudes(self):
        a = BoolMatrix.from_rows([[0, 3], [2, 0]])
        assert a == mat([[0, 1], [1, 0]])

    def test_row_shape_validated(self):
        with pytest.raises(DimensionError):
            BoolMatrix(2, (1,))
        with pytest.raises(DimensionError):
            BoolMatrix(2, (1, 4))

    def test_set_requires_matching_dimensions(self):
        with pytest.raises(DimensionError):
            MatrixSet(2, (BoolMatrix.identity(3),), ("a",))
        with pytest.raises(DimensionError):
            MatrixSet.of([])

    def test_to_lines_roundtrip(self):
        a = mat([[1, 0, 1], [0, 1, 0], [1, 1, 1]])
        assert a.to_lines() == ["101", "010", "111"]
