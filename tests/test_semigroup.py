import random

import pytest

from rendezvous import (
    BoolMatrix,
    DimensionError,
    MatrixSet,
    NonNZError,
    cpr_set,
    default_max_depth,
    example_set,
    explore,
    kari_set,
    set_profile,
    witness_replay,
)
from helpers import (
    entry_max_weight,
    random_nz_set,
    random_primitive_set,
    undeduplicated_profile,
)


def profile_lengths(result):
    return {k: entry.length for k, entry in result.krt.items()}


class TestExplore:
    def test_example_exponent_is_seven(self):
        result = explore(example_set())
        assert result.exponent.length == 7
        replay = witness_replay(example_set(), result.exponent.word)
        assert replay == BoolMatrix.ones(3)

    def test_rt2_is_one_on_primitive_non_permutation_sets(self):
        rng = random.Random(21)
        for _ in range(30):
            mset = random_primitive_set(rng, rng.randint(2, 4), 2)
            result = set_profile(mset)
            assert result.krt[2].length == 1

    def test_cpr_rt2_witness_is_first_generator(self):
        # Generator a of the cpr set already has a weight-2 column.
        result = set_profile(cpr_set())
        assert result.krt[2].length == 1
        assert result.krt[2].word == (0,)

    def test_profile_nondecreasing_and_first_reach(self):
        for mset in (example_set(), cpr_set()):
            result = set_profile(mset)
            lengths = [result.krt[k].length for k in range(2, mset.n + 1)]
            assert lengths == sorted(lengths)
            for k in range(2, mset.n + 1):
                entry = result.krt[k]
                mat = witness_replay(mset, entry.word)
                assert entry_max_weight(mat.rows) >= k
                # no shorter prefix reaches weight k
                for cut in range(len(entry.word)):
                    prefix = witness_replay(mset, entry.word[:cut])
                    if cut == 0:
                        continue  # empty word is the identity
                    assert entry_max_weight(prefix.rows) < k

    def test_rt_n_at_most_exponent(self):
        rng = random.Random(22)
        for _ in range(20):
            mset = random_primitive_set(rng, rng.randint(2, 4), 2)
            profile = set_profile(mset)
            assert profile.krt[mset.n].length <= explore(mset).exponent.length

    def test_non_primitive_reports_exhaustion(self):
        cycle = BoolMatrix.from_rows([[0, 1], [1, 0]])
        result = explore(MatrixSet.of([cycle]))
        assert result.exponent is None
        assert result.exhausted
        assert result.limit is None
        profile = set_profile(MatrixSet.of([cycle]))
        assert profile.exhausted and profile.limit is None
        assert 2 not in profile.krt

    def test_depth_limit_flags_partial_result(self):
        result = explore(example_set(), max_depth=2)
        assert result.exponent is None
        assert result.limit == "depth"
        assert result.depth_reached == 2

    def test_state_limit_flags_partial_result(self):
        result = explore(example_set(), max_states=3)
        assert result.limit == "states"
        assert result.exponent is None

    def test_stop_after_profile(self):
        # The profile alone comes from the subset searches, which stop at
        # the full set, far shallower than the exponent.
        result = set_profile(example_set())
        assert profile_lengths(result) == {2: 1, 3: 2}
        assert result.depth_reached < explore(example_set()).exponent.length

    def test_dedup_soundness(self):
        rng = random.Random(23)
        for _ in range(30):
            mset = random_nz_set(rng, rng.randint(2, 4), rng.randint(1, 3))
            fast = explore(mset, max_depth=4)
            profile, exponent = undeduplicated_profile(mset, max_depth=4)
            assert profile_lengths(set_profile(mset, max_depth=4)) == profile
            assert (fast.exponent.length if fast.exponent else None) == exponent

    def test_default_depth_covers_sandwich(self):
        assert default_max_depth(3) == 11
        assert default_max_depth(10) == 172

    def test_dimension_cap(self):
        big = MatrixSet.of([BoolMatrix.identity(65)])
        with pytest.raises(DimensionError):
            explore(big)

    def test_non_nz_rejected(self):
        bad = MatrixSet.of([BoolMatrix.from_rows([[1, 0], [0, 0]])])
        with pytest.raises(NonNZError):
            explore(bad)

    def test_deterministic_across_runs(self):
        a = explore(cpr_set())
        b = explore(cpr_set())
        assert a.exponent == b.exponent
        assert set_profile(cpr_set()).krt == set_profile(cpr_set()).krt

    def test_cpr_quantities_frozen(self):
        assert profile_lengths(set_profile(cpr_set())) == {2: 1, 3: 2, 4: 5}
        result = explore(cpr_set())
        assert result.exponent.length == 15
        assert witness_replay(cpr_set(), result.exponent.word) == BoolMatrix.ones(4)

    def test_kari_work_counters_frozen(self):
        # The domination index is exact, so a kernel that moves these
        # counts stores a different antichain.
        result = explore(kari_set())
        assert (result.explored, result.pruned, result.depth_reached) == (45_223, 31_504, 28)
        assert result.exponent.length == 28

    def test_kari_profile_frozen_and_cross_checked(self):
        # Frozen regression values, re-derived on every run through the
        # independent automata route (backward subset BFS on both sides).
        from rendezvous import associated_automaton, subset_bfs

        kari = kari_set()
        result = set_profile(kari)
        assert profile_lengths(result) == {2: 1, 3: 2, 4: 5, 5: 6, 6: 10}
        aut = subset_bfs(kari.n, associated_automaton(kari).letters)
        aut_t = subset_bfs(kari.n, associated_automaton(kari.transposed()).letters)
        for k in range(2, 7):
            assert result.krt[k].length == min(
                aut.krt[k].length, aut_t.krt[k].length
            )


class TestWitnessReplay:
    def test_empty_word_is_identity(self):
        assert witness_replay(example_set(), ()) == BoolMatrix.identity(3)

    def test_left_to_right_order(self):
        ex = example_set()
        a, b = ex.generators
        assert witness_replay(ex, (0, 1)) == a @ b
        assert witness_replay(ex, (1, 0)) == b @ a

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            witness_replay(example_set(), (0, 2))


class TestSandwichInvariant:
    def test_exponent_between_reset_thresholds(self):
        # Checked exactly on the builtin example: 2 <= 7 <= 2 + 3 + 3 - 1.
        from rendezvous import associated_automaton, subset_bfs

        ex = example_set()
        exp = explore(ex).exponent.length
        rt = subset_bfs(ex.n, associated_automaton(ex).letters).reset.length
        rt_t = subset_bfs(ex.n, associated_automaton(ex.transposed()).letters).reset.length
        assert rt <= exp <= rt + rt_t + ex.n - 1
        assert (rt, exp, rt_t) == (2, 7, 3)

    def test_sandwich_on_random_primitive_sets(self):
        from rendezvous import associated_automaton, subset_bfs

        rng = random.Random(24)
        for _ in range(25):
            mset = random_primitive_set(rng, rng.randint(2, 4), 2)
            exp = explore(mset).exponent.length
            rt = subset_bfs(mset.n, associated_automaton(mset).letters).reset.length
            rt_t = subset_bfs(
                mset.n, associated_automaton(mset.transposed()).letters
            ).reset.length
            assert rt <= exp <= rt + rt_t + mset.n - 1
