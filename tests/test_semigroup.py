import collections
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
    associated_automaton,
    kari_set,
    set_profile,
    subset_bfs,
    witness_replay,
)
from helpers import (
    entry_max_weight,
    exponent_search,
    product_distance,
    random_nz_set,
    random_primitive_set,
    recorded_searches,
    shift_plus_one,
    subset_distance,
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

    def test_explore_starts_one_search_per_call(self):
        for mset in (example_set(), cpr_set(), kari_set(), shift_plus_one(14)):
            with recorded_searches() as searches:
                result = explore(mset)
            assert len(searches) == 1 and result.exponent is not None
            assert result.explored == len(searches[0].keys)

    def test_non_primitive_reports_exhaustion(self):
        # At n <= 13 some row set {i} that no word takes to every state
        # proves the set is not primitive, so no search starts.
        cycle = BoolMatrix.from_rows([[0, 1], [1, 0]])
        with recorded_searches() as searches:
            result = explore(MatrixSet.of([cycle]))
        assert searches == []
        assert result.exponent is None
        assert result.exhausted
        assert result.limit is None
        assert (result.explored, result.depth_reached) == (0, 0)
        profile = set_profile(MatrixSet.of([cycle]))
        assert profile.exhausted and profile.limit is None
        assert 2 not in profile.krt

    def test_depth_limit_flags_partial_result(self):
        # L = max_i delta({i}) = 5 on the example, and every product P has
        # d(P) + h(P) >= 6, so at a depth limit of 2 nothing is stored and
        # the least f cut, 6, is the lower bound.
        example = example_set()
        assert max(subset_distance(example, 1 << i) for i in range(3)) == 5
        assert exponent_search(example, 2) == ({}, None, 6)
        result = explore(example, max_depth=2)
        assert result.exponent is None
        assert result.limit == "depth"
        assert (result.explored, result.depth_reached, result.lower_bound) == (0, 0, 6)

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
        with pytest.raises(DimensionError):
            explore(MatrixSet.of([BoolMatrix.identity(65)]))
        # Every exact search refuses n > 64 before it starts.
        big = shift_plus_one(65)
        letters = associated_automaton(big).letters
        with recorded_searches() as searches:
            for search in (
                lambda: explore(big),
                lambda: set_profile(big),
                lambda: subset_bfs(big.n, letters),
            ):
                with pytest.raises(DimensionError) as exc:
                    search()
                assert str(exc.value) == "exact search supports n <= 64, got 65"
        assert searches == []
        # A set that is not NZ fails as such before its size is looked at.
        not_nz = MatrixSet.of([BoolMatrix(65, (1,) * 65)])
        for search in (explore, set_profile):
            with pytest.raises(NonNZError):
                search(not_nz)
        # n = 64 is searched.
        with recorded_searches() as searches:
            assert explore(shift_plus_one(64), max_states=1).limit == "states"
        assert len(searches) == 1

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
        # The distance bound is exact, so a change that moves these counts
        # stores different keys.  The search stores every product P with
        # d(P) + h(P) <= 28, the exponent, each at its shortest length, and
        # tests no domination.
        kari = kari_set()
        stored, exponent, _ = exponent_search(kari, 28)
        assert (len(stored), exponent) == (7_606, 28)
        result = explore(kari)
        assert (result.explored, result.pruned, result.depth_reached) == (7_606, 0, 28)
        assert result.exponent.length == result.lower_bound == 28
        assert witness_replay(kari, result.exponent.word) == BoolMatrix.ones(6)

    def test_kari_lower_bound_under_a_state_cap(self):
        # Products are stored in rising f = d + h, so the cap cuts the least
        # f whose products, with those of every smaller f, reach the cap;
        # every smaller f is complete, which proves exponent >= f.
        kari, cap = kari_set(), 2000
        stored, _, _ = exponent_search(kari, 28)
        h = product_distance(kari)
        counts = collections.Counter(d + h(rows) for rows, d in stored.items())
        bound = next(f for f in sorted(counts) if sum(counts[g] for g in counts if g <= f) >= cap)
        result = explore(kari, max_states=cap)
        assert (result.limit, result.exponent) == ("states", None)
        assert result.explored == cap
        assert result.lower_bound == bound < 28

    def test_builtin_exponents_match_the_unpruned_oracle_under_every_depth(self):
        for mset in (example_set(), cpr_set()):
            _, exponent = undeduplicated_profile(mset, max_depth=15)
            for depth in range(1, exponent + 2):
                result = explore(mset, max_depth=depth)
                if depth < exponent:
                    assert result.exponent is None and result.limit == "depth"
                    assert depth < result.lower_bound <= exponent
                else:
                    assert result.exponent.length == result.lower_bound == exponent
                    replay = witness_replay(mset, result.exponent.word)
                    assert replay == BoolMatrix.ones(mset.n)
        result = explore(kari_set(), max_depth=27)
        assert (result.exponent, result.limit, result.lower_bound) == (None, "depth", 28)

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
