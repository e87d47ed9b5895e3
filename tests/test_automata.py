import random

import pytest

from rendezvous import (
    Automaton,
    BoolMatrix,
    LetterCapError,
    MatrixSet,
    NotPrimitiveError,
    associated_automaton,
    cpr_set,
    example_set,
    kari_set,
    raw_letter_count,
    set_profile,
    subset_bfs,
    verify_krt_equality,
    verify_sandwich,
    witness_replay,
)
from helpers import (
    entry_max_weight,
    forward_reset_threshold,
    letter_set,
    random_automaton,
    random_nz_set,
    random_primitive_set,
    undeduplicated_profile,
)


def rows_set(matrices):
    return {m.rows for m in matrices}


# Letters printed for the builtin example set and its transpose.
EXAMPLE_LETTERS = [
    [[0, 1, 0], [0, 0, 1], [1, 0, 0]],  # a
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],  # b1
    [[0, 1, 0], [0, 0, 1], [0, 0, 1]],  # b2
]
EXAMPLE_T_LETTERS = [
    [[0, 0, 1], [1, 0, 0], [0, 1, 0]],  # a'
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],  # b1
    [[0, 1, 0], [1, 0, 0], [0, 1, 0]],  # b2'
]


class TestAssociatedAutomaton:
    def test_example_letters_match_exactly(self):
        aut = associated_automaton(example_set())
        expected = rows_set(BoolMatrix.from_rows(m) for m in EXAMPLE_LETTERS)
        assert rows_set(aut.letters) == expected
        assert aut.m == 3

    def test_example_transpose_letters_match_exactly(self):
        aut = associated_automaton(example_set().transposed())
        expected = rows_set(BoolMatrix.from_rows(m) for m in EXAMPLE_T_LETTERS)
        assert rows_set(aut.letters) == expected
        assert aut.m == 3

    def test_permutation_set_maps_to_itself(self):
        rng = random.Random(31)
        perm_rows = list(range(5))
        rng.shuffle(perm_rows)
        perm = BoolMatrix(5, tuple(1 << j for j in perm_rows))
        aut = associated_automaton(MatrixSet.of([perm]))
        assert aut.letters == (perm,)

    def test_cpr_has_three_letters(self):
        aut = associated_automaton(cpr_set())
        assert aut.m == 3

    def test_letters_below_some_generator(self):
        rng = random.Random(32)
        for _ in range(30):
            mset = random_nz_set(rng, rng.randint(2, 4), rng.randint(1, 2))
            if raw_letter_count(mset) > 4096:
                continue
            aut = associated_automaton(mset)
            for letter in aut.letters:
                assert any(
                    all(
                        letter.rows[i] & ~g.rows[i] == 0
                        for i in range(mset.n)
                    )
                    for g in mset.generators
                )

    def test_cap_error_reports_would_be_count(self):
        with pytest.raises(LetterCapError) as err:
            associated_automaton(example_set(), cap=2)
        assert err.value.would_be == 3
        assert err.value.cap == 2

    def test_raw_count_is_product_of_row_weights(self):
        ones = MatrixSet.of([BoolMatrix.ones(3)])
        assert raw_letter_count(ones) == 27

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            Automaton(2, (BoolMatrix.from_rows([[1, 1], [0, 1]]),), ("x",))


class TestSubsetBfs:
    def test_example_reset_threshold_two(self):
        aut = associated_automaton(example_set())
        result = subset_bfs(aut.n, aut.letters)
        assert result.reset.length == 2
        # Replaying the reset word must produce an all-ones column.
        prod = witness_replay(letter_set(aut), result.reset.word)
        assert any(prod.col(j) == 0b111 for j in range(3))

    def test_example_transpose_reset_threshold_three(self):
        aut = associated_automaton(example_set().transposed())
        result = subset_bfs(aut.n, aut.letters)
        assert result.reset.length == 3
        prod = witness_replay(letter_set(aut), result.reset.word)
        assert any(prod.col(j) == 0b111 for j in range(3))

    def test_identity_automaton_not_synchronizing(self):
        aut = Automaton(3, (BoolMatrix.identity(3),), ("e",))
        result = subset_bfs(aut.n, aut.letters)
        assert result.reset is None
        assert result.reset is None
        assert result.krt == {}

    def test_krt_nondecreasing_and_matches_reset(self):
        for mset in (example_set(), cpr_set()):
            aut = associated_automaton(mset)
            result = subset_bfs(aut.n, aut.letters)
            lengths = [result.krt[k].length for k in range(2, mset.n + 1)]
            assert lengths == sorted(lengths)
            assert result.krt[mset.n].length == result.reset.length

    def test_krt_witnesses_merge_k_states(self):
        aut = associated_automaton(cpr_set())
        result = subset_bfs(aut.n, aut.letters)
        mats = letter_set(aut)
        for k, entry in result.krt.items():
            prod = witness_replay(mats, entry.word)
            assert max(prod.col(j).bit_count() for j in range(aut.n)) >= k

    def test_agrees_with_forward_product_oracle(self):
        rng = random.Random(33)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 6)
            aut = random_automaton(rng, n, rng.randint(1, 3))
            reset = subset_bfs(aut.n, aut.letters).reset
            assert (reset and reset.length) == forward_reset_threshold(aut)
            checked += 1


class TestSetProfile:
    def test_row_side_words_are_in_product_order(self):
        # rt_4 = 2 is met only on the row side (the column side needs 3), and
        # only the word (1, 0) reaches a weight-4 line; (0, 1) does not.
        mset = MatrixSet.of([
            BoolMatrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 0], [1, 1, 1, 0], [0, 0, 0, 1]]),
            BoolMatrix.from_rows([[0, 0, 1, 1], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]),
        ])
        assert subset_bfs(4, mset.generators).krt[4].length == 3
        entry = set_profile(mset).krt[4]
        assert (entry.length, entry.word) == (2, (1, 0))
        assert entry_max_weight(witness_replay(mset, entry.word).rows) == 4
        assert entry_max_weight(witness_replay(mset, (0, 1)).rows) < 4

    def test_state_cap_leaves_out_lengths_the_cut_side_could_beat(self):
        # At a cap of 12 the column side reaches the full set at length 2,
        # while the row side stops inside level 1 before its weight-6 row
        # at length 1: rt_6 = 1, so the column side's 2 must not be taken.
        mset = MatrixSet.of([
            BoolMatrix(7, (33, 61, 98, 10, 105, 2, 80)),
            BoolMatrix(7, (99, 88, 58, 27, 112, 6, 95)),
        ])
        limited = set_profile(mset, max_states=12)
        assert limited.limit == "states"
        assert {k: e.length for k, e in limited.krt.items()} == {2: 1, 3: 1, 4: 1, 5: 1}
        assert undeduplicated_profile(mset, max_depth=2)[0] == {
            2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 2
        }


class TestVerificationReports:
    def test_example_sandwich_tight(self):
        report = verify_sandwich(example_set())
        assert (report.rt_aut, report.exponent, report.rt_aut_transpose) == (2, 7, 3)
        assert report.lower_ok and report.upper_ok
        assert report.upper == 7
        assert report.tight

    def test_cpr_sandwich_holds(self):
        report = verify_sandwich(cpr_set())
        assert report.lower_ok and report.upper_ok

    def test_kari_sandwich_holds(self):
        # The exponent sits at depth 28; the search stores 45,223 maximal
        # products on the way (832,573 distinct products without pruning).
        report = verify_sandwich(kari_set())
        assert report.lower_ok and report.upper_ok
        assert (report.rt_aut, report.exponent, report.rt_aut_transpose) == (16, 28, 10)

    def test_example_krt_equality_k3(self):
        report = verify_krt_equality(example_set(), 3)
        assert report.equal
        assert report.rt_set == min(report.rt_aut, report.rt_aut_transpose)

    def test_cpr_krt_equality_all_k(self):
        for k in range(2, 5):
            report = verify_krt_equality(cpr_set(), k)
            assert report.equal, f"k={k}: {report}"

    def test_krt_equality_when_rendezvous_is_row_attained(self):
        # The transposed set reaches weight k through rows first, so the
        # minimum comes from the other automaton; equality must still hold.
        for k in range(2, 5):
            report = verify_krt_equality(cpr_set().transposed(), k)
            assert report.equal, f"k={k}: {report}"

    def test_k2_both_sides_one(self):
        rng = random.Random(34)
        for _ in range(10):
            mset = random_primitive_set(rng, rng.randint(2, 4), 2)
            if all(
                all(row.bit_count() == 1 for row in g.rows)
                for g in mset.generators
            ):
                continue  # permutation sets are never primitive anyway
            report = verify_krt_equality(mset, 2)
            assert report.rt_set == 1
            assert min(report.rt_aut, report.rt_aut_transpose) == 1

    def test_not_primitive_rejected(self):
        cycle = BoolMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitiveError):
            verify_sandwich(MatrixSet.of([cycle]))
        with pytest.raises(NotPrimitiveError):
            verify_krt_equality(MatrixSet.of([cycle]), 2)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            verify_krt_equality(example_set(), 4)

    def test_aut_synchronizing_for_primitive_sets(self):
        rng = random.Random(35)
        for _ in range(25):
            mset = random_primitive_set(rng, rng.randint(2, 4), 2)
            assert subset_bfs(mset.n, associated_automaton(mset).letters).reset is not None
            assert subset_bfs(
                mset.n, associated_automaton(mset.transposed()).letters
            ).reset is not None

    def test_krt_equality_on_random_primitive_sets(self):
        rng = random.Random(36)
        for _ in range(40):
            n = rng.randint(2, 4)
            mset = random_primitive_set(rng, n, rng.randint(1, 2))
            for k in range(2, n + 1):
                assert verify_krt_equality(mset, k).equal
