import math
import random
from fractions import Fraction

import pytest

from rendezvous import (
    BoolMatrix,
    bound_b_closed,
    bound_b_recursive,
    bound_f,
    bound_f_table,
    build_witness,
    conjectured_equality_onset,
    escape_lower,
    escape_lower_refined,
    evaluate_escape,
    lift_bound,
    scan_conjectures,
    szykula_bound,
)
from rendezvous.bounds import _B_TABLES, _LIFT_GRIDS, _b_table, _lift_columns, _lift_grid
from helpers import bound_f_oracle, lift_table_oracle

# Matrices from the worked escape-count example at n=4, k=2.
ESCAPE_A = BoolMatrix.from_rows(
    [[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)
ESCAPE_B = BoolMatrix.from_rows(
    [[1, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)
ESCAPE_C = BoolMatrix.from_rows(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
)
ESCAPE_A_HAT = BoolMatrix.from_rows(
    [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 0]]
)


class TestEscapeBounds:
    def test_lower_examples(self):
        assert escape_lower(4, 2) == 1
        assert escape_lower(10, 3) == 3  # max{3, ceil(7/3)=3, 1}
        assert escape_lower(9, 2) == 6  # max{6, ceil(7/2)=4, 1}

    def test_upper_examples(self):
        # The witness's escape count is the upper end of the pinch.
        for (n, k), value in {(4, 2): 1, (10, 4): 2, (10, 3): 3}.items():
            assert evaluate_escape(build_witness(n, k).matrix, k).value == value

    def test_range_validation(self):
        for bad in [(1, 2), (4, 1), (4, 4), (5, 5)]:
            with pytest.raises(ValueError):
                escape_lower(*bad)
            with pytest.raises(ValueError):
                build_witness(*bad)

    def test_refined_examples(self):
        assert escape_lower_refined(10, 2, 1) == 8  # max{7, 8, 1}
        assert escape_lower_refined(10, 2, 2) == 7  # max{7, 4, 1}

    def test_refined_at_p_equals_k_matches_plain_lower(self):
        for n in range(4, 25):
            for k in range(2, n - 1):
                p = min(k, n - k)
                if p == k:
                    assert escape_lower_refined(n, k, k) == escape_lower(n, k)

    def test_refined_nonincreasing_in_p(self):
        for n in range(3, 25):
            for k in range(2, n):
                values = [
                    escape_lower_refined(n, k, p)
                    for p in range(1, min(k, n - k) + 1)
                ]
                assert values == sorted(values, reverse=True)

    def test_refined_validation(self):
        with pytest.raises(ValueError):
            escape_lower_refined(2, 2, 1)
        with pytest.raises(ValueError):
            escape_lower_refined(10, 2, 3)  # p > min(k, n-k)


class TestEvaluate:
    def test_example_member_value_two(self):
        result = evaluate_escape(ESCAPE_A, 2)
        assert result.member
        assert result.columns == (0, 2)  # columns 1 and 3, 1-indexed
        assert result.value == 2

    def test_heavy_row_rejected(self):
        result = evaluate_escape(ESCAPE_B, 2)
        assert not result.member
        assert result.reason == "row 0 has weight 3 > 2"

    def test_no_weight_k_column_rejected(self):
        result = evaluate_escape(ESCAPE_C, 2)
        assert not result.member
        assert result.reason == "no column of weight 2"

    def test_hat_witness_value_one(self):
        result = evaluate_escape(ESCAPE_A_HAT, 2)
        assert result.member
        assert result.columns == (0, 1)
        assert result.value == 1

    def test_refinement_fields(self):
        result = evaluate_escape(ESCAPE_A, 2)
        # Column 3 ({1,4} as sets) escapes column 1's support {1,2} by one
        # element, likewise every other escape: p = 1 here.
        assert result.p == 1
        assert result.refined_columns == (0, 2)
        assert result.refined_value == 2

    def test_refinement_can_raise_the_value(self):
        # Column 2 escapes least (3 columns, each by one element); only
        # column 1 is escaped by p = 2 elements (column 4 by {2, 4}).
        result = evaluate_escape(
            BoolMatrix.from_rows(
                [[0, 1, 0, 0, 0], [1, 1, 1, 0, 0], [0, 0, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 1]]
            ),
            3,
        )
        assert (result.value, result.columns) == (3, (0, 1, 2))
        assert (result.p, result.refined_columns, result.refined_value) == (2, (1,), 4)

    def test_non_nz_not_member(self):
        zero_col = BoolMatrix.from_rows([[1, 0], [1, 0]])
        result = evaluate_escape(zero_col, 1)
        assert not result.member
        assert "zero column" in result.reason

    def test_permutation_at_k1(self):
        result = evaluate_escape(BoolMatrix.identity(5), 1)
        assert result.member
        assert result.value == 4

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_escape(ESCAPE_A, 4)


class TestWitness:
    def test_4_2_attains_one(self):
        witness = build_witness(4, 2)
        assert witness.kind == "hat"
        assert witness.claimed == 1
        result = evaluate_escape(witness.matrix, 2)
        assert result.member and result.value == 1

    def test_10_3_attains_three(self):
        witness = build_witness(10, 3)
        result = evaluate_escape(witness.matrix, 3)
        assert result.member
        assert result.value == escape_lower(10, 3) == 3

    def test_6_2_hat_branch_value_three(self):
        witness = build_witness(6, 2)
        assert witness.kind == "hat"
        result = evaluate_escape(witness.matrix, 2)
        assert result.member and result.value == 3

    def test_tilde_branch_small_cases(self):
        # (5, 3) forces the ceiling branch with fewer filler columns than
        # the generic layout.
        witness = build_witness(5, 3)
        assert witness.kind == "tilde"
        result = evaluate_escape(witness.matrix, 3)
        assert result.member and result.value == witness.claimed == 1

    def test_sandwich_pinch_small_grid(self):
        for n in range(3, 13):
            for k in range(2, n):
                witness = build_witness(n, k)
                value = evaluate_escape(witness.matrix, k).value
                assert value == witness.claimed == escape_lower(n, k)

    def test_witness_is_nz(self):
        for n in range(3, 16):
            for k in range(2, n):
                assert build_witness(n, k).matrix.nz_defect() is None


def hand_unrolled_lift_10_3() -> int:
    """Independent evaluation of the 10-state lift cost from weight 2 to 3.

    One level only (weight-3 targets cost nothing), so each p term is a
    plain min; frozen arithmetic, no shared code with the production DP.
    """
    refined_p1 = max(10 - 2 - 1, -(-8 // 1), 1)  # 8
    refined_p2 = max(10 - 2 - 1, -(-8 // 2), 1)  # 7
    term_p1 = min(0 + 10 * 9 // 2, 0 + 10 * (11 - refined_p1) // 2)  # min(45, 15)
    term_p2 = min(0 + 10 * 9 // 2, 0 + 10 * (11 - refined_p2) // 2)  # min(45, 20)
    return max(term_p1, term_p2)


class TestBoundB:
    def test_base_case_is_one(self):
        for n in (2, 3, 10, 57, 200):
            assert bound_b_recursive(n, 2) == 1
            assert bound_b_closed(n, 2) == 1

    def test_b3_100(self):
        assert bound_b_recursive(100, 3) == 201
        assert bound_b_closed(100, 3) == 201

    def test_b4_10_midrange_is_fractional(self):
        assert bound_b_recursive(10, 4) == Fraction(193, 3)
        assert bound_b_closed(10, 4) == Fraction(193, 3)

    def test_b5_25_first_branch(self):
        assert bound_b_closed(25, 5) == 326
        assert bound_b_recursive(25, 5) == 326

    def test_recursive_equals_closed_sample(self):
        for n in range(2, 61):
            for k in range(2, n + 1):
                assert bound_b_recursive(n, k) == bound_b_closed(n, k), (n, k)

    def test_affine_in_n_for_fixed_small_k(self):
        # For n >= k^2 the value is linear in n with slope
        # (k^3 - 3k^2 + 8k - 12)/6: second differences vanish.
        for k in range(2, 7):
            values = [bound_b_closed(n, k) for n in range(k * k, k * k + 12)]
            diffs = [b - a for a, b in zip(values, values[1:])]
            assert len(set(diffs)) == 1
            assert diffs[0] == Fraction(k**3 - 3 * k**2 + 8 * k - 12, 6)

    def test_ceil_variant_never_larger(self):
        for n in range(2, 41):
            for k in range(2, n + 1):
                assert bound_b_recursive(n, k, ceil_variant=True) <= bound_b_recursive(n, k)

    def test_ceil_variant_matches_its_sum(self):
        # 1 + sum over s in [2, k-1] of n(1+n-a_s)/2, with a_s the exact
        # escape lower bound max(n-s(s-1)-1, ceil((n-s)/s), 1).
        for n in range(2, 81):
            total = Fraction(1)
            for k in range(2, n + 1):
                if k > 2:
                    s = k - 1
                    a = max(n - s * (s - 1) - 1, -(-(n - s) // s), 1)
                    total += Fraction(n * (1 + n - a), 2)
                assert bound_b_recursive(n, k, ceil_variant=True) == total, (n, k)

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_recursive_equals_closed_at_the_regime_edges(self, n):
        s, half = math.isqrt(n), n // 2
        for k in (2, 3, s, s + 1, s + 2, half - 1, half, half + 1, half + 2, n):
            assert bound_b_recursive(n, k) == bound_b_closed(n, k), (n, k)

    @pytest.mark.parametrize("first", [3, 25, 120])
    def test_table_grown_past_the_middle_regime_equals_a_fresh_one(self, first):
        # D covers only the steps built so far, so growing further into the
        # middle regime, k in (isqrt(n), n//2], rescales both variants: the
        # default one step at a time here, the ceiled one in one jump.
        n = 400
        _B_TABLES.clear()
        _b_table(n, first, True)
        grown = [bound_b_recursive(n, k) for k in range(2, n + 1)]
        _b_table(n, n, True)
        state = [list(part) if isinstance(part, list) else part for part in _B_TABLES[n]]
        _B_TABLES.clear()
        _b_table(n, n, False)
        _b_table(n, n, True)
        assert _B_TABLES[n] == state
        assert grown == [bound_b_closed(n, k) for k in range(2, n + 1)]

    def test_out_of_range(self):
        for bad in [(1, 2), (5, 1), (5, 6)]:
            with pytest.raises(ValueError):
                bound_b_recursive(*bad)
            with pytest.raises(ValueError):
                bound_b_closed(*bad)


class TestLiftBound:
    def test_zero_at_or_above_k(self):
        for h in (3, 4, 7, 50):
            assert lift_bound(20, 3, h) == 0

    def test_hand_unrolled_10_3(self):
        assert lift_bound(10, 3, 2) == hand_unrolled_lift_10_3() == 20

    def test_half_integral_values_only(self):
        for n in range(3, 21):
            for k in range(2, n + 1):
                for h in range(2, k + 1):
                    value = lift_bound(n, k, h)
                    assert (2 * value).denominator == 1

    def test_grid_matches_per_cell(self):
        rng = random.Random(41)
        for _ in range(80):
            n = rng.randint(3, 60)
            k = rng.randint(2, n)
            grid = _lift_grid(n, k)
            oracle = lift_table_oracle(n, k)
            for h in range(2, k + 1):
                assert grid[k][h] == oracle[h - 2], (n, k, h)
                assert lift_bound(n, k, h) == Fraction(oracle[h - 2], 2), (n, k, h)

    def test_grid_column_independent_of_k_max(self):
        n = 37
        for first, second in ((30, 12), (12, 30)):
            _LIFT_GRIDS.pop(n, None)
            a = list(_lift_grid(n, first))
            _LIFT_GRIDS.pop(n, None)
            b = _lift_grid(n, second)
            for k in range(2, min(first, second) + 1):
                assert a[k] == b[k], (first, second, k)
                assert a[k] == [0, 0] + lift_table_oracle(n, k)

    def test_cache_holds_one_grid_for_the_last_n(self):
        # The one cached grid is replaced when n changes and must never
        # serve another n, even for a smaller k_max.
        for n, k_max in ((40, 30), (41, 35), (40, 20)):
            grid = _lift_grid(n, k_max)
            assert list(_LIFT_GRIDS) == [n]
            for k in range(2, k_max + 1):
                assert grid[k] == [0, 0] + lift_table_oracle(n, k), (n, k_max, k)

    def test_every_column_and_split_grid_match_scalar_oracle(self):
        # The blocks of each h are built lazily and shared by the columns of
        # one call, so check every single column and a grid built in two calls.
        for n in range(3, 61):
            expected = [[0, 0] + lift_table_oracle(n, k) for k in range(2, n + 1)]
            for k in range(2, n + 1):
                assert _lift_columns(n, k, k)[0] == expected[k - 2], (n, k)
            j = 2 + n * 13 % (n - 2)  # a split in [2, n-1] that varies with n
            assert _lift_columns(n, 2, j) + _lift_columns(n, j + 1, n) == expected, (n, j)

    def test_fig8_shaped_grids_match_scalar_oracle(self):
        # fig8 builds grids with n far above k_max, where block 0 never
        # crosses; one call and a call split at first = 26.
        for n in (120, 200, 1000):
            expected = [[0, 0] + lift_table_oracle(n, k) for k in range(2, 51)]
            assert _lift_columns(n, 2, 50) == expected, n
            assert _lift_columns(n, 2, 25) + _lift_columns(n, 26, 50) == expected, n

    def test_validation(self):
        with pytest.raises(ValueError):
            lift_bound(10, 3, 1)
        with pytest.raises(ValueError):
            lift_bound(10, 11, 2)


class TestBoundF:
    def test_f2_is_one(self):
        for n in (2, 5, 40):
            assert bound_f(n, 2) == (Fraction(1), 2)

    def test_f3_10_ties_resolve_to_h2(self):
        value, argmin = bound_f(10, 3)
        assert value == 21
        assert argmin == 2  # 1 + 20 ties with 21 + 0; smallest h wins

    def test_never_exceeds_bound_b(self):
        for n in range(2, 41):
            table = bound_f_table(n, n)
            for k in range(2, n + 1):
                assert table[k][0] <= bound_b_recursive(n, k)

    def test_diagonal_matches_oracle_at_500(self):
        assert bound_f(500, 500) == bound_f_oracle(500, 500)

    def test_table_matches_per_cell(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(2, 80)
            table = bound_f_table(n, min(n, 25))
            k = rng.randint(2, min(n, 25))
            assert table[k] == bound_f(n, k) == bound_f_oracle(n, k), (n, k)


class TestSzykula:
    def test_value_at_100(self):
        assert szykula_bound(100) == 167391

    def test_value_at_5(self):
        assert szykula_bound(5) == Fraction(
            15617 * 125 + 7500 * 25 + 9375 * 5 - 31250, 93750
        )

    def test_monotone_increasing(self):
        previous = szykula_bound(2)
        for n in range(3, 1001):
            current = szykula_bound(n)
            assert current > previous
            previous = current

    def test_validation(self):
        with pytest.raises(ValueError):
            szykula_bound(0)


class TestScan:
    def test_equality_onset_formula(self):
        assert conjectured_equality_onset(10) == 132
        assert conjectured_equality_onset(7) == 54

    def test_k4_window_all_equal(self):
        report = scan_conjectures(range(21, 31), [4])
        assert len(report.cells) == 10
        assert all(cell.f_eq_b for cell in report.cells.values())
        assert report.thresholds[4] == 21

    def test_threshold_k7(self):
        report = scan_conjectures(range(2, 121), [7])
        assert report.thresholds[7] == 54
        assert conjectured_equality_onset(7) == 54

    def test_threshold_none_when_unstable_at_top(self):
        # At k=7 the bounds still differ at n=40 < 54, so no threshold fits.
        report = scan_conjectures(range(2, 41), [7])
        assert report.thresholds[7] is None

    def test_argmin_tracking(self):
        report = scan_conjectures(range(21, 31), [4])
        assert [cell.argmin_h for cell in report.cells.values()] == [2] * 10

    def test_cells_match_oracles_when_the_b_denominator_widens(self):
        # A B table for n = 100 cached at D = 2 widens when the scan reaches
        # k = 40, past isqrt(100); every cell reads B from the scan's tables.
        _B_TABLES.clear()
        assert _b_table(100, 5, False)[0] == 2
        report = scan_conjectures(range(100, 116), (3, 8, 13, 40))
        assert _B_TABLES[115][0] > 2
        assert len(report.cells) == 64
        for (n, k), cell in report.cells.items():
            assert cell.b_value == bound_b_closed(n, k), (n, k)
            assert (cell.f_value, cell.argmin_h) == bound_f_oracle(n, k), (n, k)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            scan_conjectures([], [3])
