import functools
import random
from pathlib import Path

import pytest

from rendezvous import (
    BoolMatrix,
    MatrixSet,
    NotPrimitiveError,
    cpr_set,
    example_set,
    kari_set,
    run_heuristic,
    set_profile,
    witness_replay,
)
from rendezvous import heuristic, pairgraph, parse_set_file
from helpers import entry_max_weight, random_primitive_set

DATA = Path(__file__).parent / "data"


def count_calls(monkeypatch, name):
    """Record the arguments of every call to ``pairgraph.<name>``, wherever
    it is bound."""
    real = getattr(pairgraph, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (pairgraph, heuristic):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def exact_profile(mset):
    result = set_profile(mset)
    return {k: result.krt[k].length for k in range(2, mset.n + 1)}


class TestTrace:
    def test_final_has_all_ones_column(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            trace = run_heuristic(mset)
            full = (1 << mset.n) - 1
            assert trace.final.col(trace.column_index) == full

    def test_word_replays_to_final(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            trace = run_heuristic(mset)
            assert witness_replay(mset, trace.word) == trace.final

    def test_per_k_nondecreasing_and_complete(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            trace = run_heuristic(mset)
            ks = list(range(2, mset.n + 1))
            assert sorted(trace.per_k_length) == ks
            lengths = [trace.per_k_length[k] for k in ks]
            assert lengths == sorted(lengths)
            assert max(lengths) <= trace.length

    def test_per_k_matches_prefix_weights(self):
        mset = cpr_set()
        trace = run_heuristic(mset)
        for k, length in trace.per_k_length.items():
            reached = witness_replay(mset, trace.word[:length])
            assert entry_max_weight(reached.rows) >= k
            if length > 1:
                earlier = witness_replay(mset, trace.word[: length - 1])
                assert entry_max_weight(earlier.rows) < k

    def test_word_length_at_least_exact_rt_n(self):
        mset = example_set()
        trace = run_heuristic(mset)
        assert trace.length >= exact_profile(mset)[mset.n]

    def test_iterations_bounded_by_n(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            trace = run_heuristic(mset)
            assert trace.iterations <= mset.n - 1


    def test_heuristic_builds_no_pair_digraph(self, monkeypatch):
        # Both the primitivity test and the routing tables read the pair
        # digraph's edges straight off the generators' columns.
        calls = count_calls(monkeypatch, "build_pair_digraph")
        for mode in ("specific", "any"):
            run_heuristic(kari_set(), mode=mode)
        assert calls == []

    def test_one_pair_bfs_in_each_mode(self, monkeypatch):
        # The primitivity test's BFS is the routing table: to the nearest
        # singleton in ``any`` mode, to the grown column's singleton in
        # ``specific`` mode, where reaching one singleton proves primitivity.
        for mode in ("any", "specific"):
            calls = count_calls(monkeypatch, "singleton_distances")
            trace = run_heuristic(kari_set(), mode=mode)
            target = (trace.column_index,) * 2 if mode == "specific" else None
            assert [args[1:] for args in calls] == [(target,)], mode

    def test_only_letters_with_excess_trigger_a_row_count(self, monkeypatch):
        # A permutation letter (nnz(G) = n) leaves the bound on the row
        # weights where it was, so only the seed and letters with a
        # remainder are followed by an exact row count.
        mset = parse_set_file(DATA / "perm70.set")
        last_rest = [None]
        after = []
        real_times, real_count = heuristic._times, heuristic.max_column_weight

        def times(cols, plan):
            last_rest[0] = plan[1]
            return real_times(cols, plan)

        def count(n, rows):
            after.append(last_rest[0])
            return real_count(n, rows)

        monkeypatch.setattr(heuristic, "_times", times)
        monkeypatch.setattr(heuristic, "max_column_weight", count)
        for mode in ("specific", "any"):
            after.clear()
            last_rest[0] = None
            trace = run_heuristic(mset, mode=mode)
            assert after[0] is None  # the seed
            assert all(after[1:]), mode
            # b is the pure permutation; a, with one more 1, has excess 1.
            assert trace.word.count(1) > 100 and len(after) < trace.word.count(0)


class TestLargeFixture:
    """A primitive permutation-plus-one pair at n = 70, past one machine word
    of rows and columns alike."""

    mset = parse_set_file(DATA / "perm70.set")

    @pytest.mark.parametrize("mode", ["specific", "any"])
    def test_final_is_the_replayed_word(self, mode):
        trace = run_heuristic(self.mset, mode=mode)
        assert trace.final == witness_replay(self.mset, trace.word)
        assert trace.final.col(trace.column_index) == (1 << self.mset.n) - 1

    def test_per_k_first_reaches_match_prefix_weights(self):
        trace = run_heuristic(self.mset)
        # Prefixes by the row-major product, not the heuristic's column one.
        prefixes = [BoolMatrix.identity(self.mset.n)]
        for g_idx in trace.word:
            prefixes.append(prefixes[-1] @ self.mset.generators[g_idx])
        weights = functools.cache(lambda length: entry_max_weight(prefixes[length].rows))
        assert sorted(trace.per_k_length) == list(range(2, self.mset.n + 1))
        for k, length in trace.per_k_length.items():
            assert weights(length) >= k
            assert length == 1 or weights(length - 1) < k


class TestDominance:
    def test_builtin_sets(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            trace = run_heuristic(mset)
            exact = exact_profile(mset)
            for k in range(2, mset.n + 1):
                assert trace.per_k_length[k] >= exact[k], (mset.labels, k)

    def test_random_primitive_sets(self):
        rng = random.Random(51)
        for _ in range(30):
            mset = random_primitive_set(rng, rng.randint(2, 5), 2)
            exact = exact_profile(mset)
            for mode in ("specific", "any"):
                trace = run_heuristic(mset, mode=mode)
                for k in range(2, mset.n + 1):
                    assert trace.per_k_length[k] >= exact[k]


class TestSeedCases:
    def test_all_ones_column_generator_skips_loop(self):
        heavy = BoolMatrix.from_rows([[1, 1, 0], [1, 0, 1], [1, 1, 0]])
        cycle = BoolMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        mset = MatrixSet.of([heavy, cycle])
        trace = run_heuristic(mset)
        assert trace.iterations == 0
        assert trace.word == (0,)
        assert trace.column_index == 0
        assert all(trace.per_k_length[k] == 1 for k in (2, 3))

    def test_seed_picks_heaviest_column(self):
        trace = run_heuristic(cpr_set())
        # cpr generator a holds the only weight-2 column (column 0).
        assert trace.word[0] == 0
        assert trace.column_index == 0


class TestModes:
    def test_both_modes_valid_on_builtins(self):
        for mset in (example_set(), cpr_set(), kari_set()):
            specific = run_heuristic(mset, mode="specific")
            anymode = run_heuristic(mset, mode="any")
            full = (1 << mset.n) - 1
            assert specific.final.col(specific.column_index) == full
            assert anymode.final.col(anymode.column_index) == full

    def test_modes_coincide_on_single_heavy_column_sets(self):
        # Among all generator columns of these sets exactly one has two
        # positive entries; empirically the two modes then agree.
        observations = {}
        for name, mset in (("cpr", cpr_set()), ("kari", kari_set())):
            heavy = [
                (g_idx, j)
                for g_idx, g in enumerate(mset.generators)
                for j in range(mset.n)
                if g.col(j).bit_count() >= 2
            ]
            assert len(heavy) == 1
            specific = run_heuristic(mset, mode="specific")
            anymode = run_heuristic(mset, mode="any")
            observations[name] = specific.word == anymode.word
        # Reported, not asserted as a guarantee; record what we saw.
        print(f"mode agreement on single-heavy-column sets: {observations}")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_heuristic(example_set(), mode="fastest")


class TestPreconditions:
    def test_non_primitive_rejected_with_certificate(self):
        cycle = BoolMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(NotPrimitiveError) as err:
            run_heuristic(MatrixSet.of([cycle]))
        assert err.value.certificate is not None
        assert not err.value.certificate.primitive

    @pytest.mark.parametrize("mode", ["specific", "any"])
    def test_reducible_set_whose_pairs_reach_the_target(self, mode):
        # Every pair of [[1,0],[1,1]] reaches (0,0), the seed's singleton,
        # but state 1 is not reachable from state 0.
        mset = MatrixSet.of([BoolMatrix.from_rows([[1, 0], [1, 1]])])
        with pytest.raises(NotPrimitiveError) as err:
            run_heuristic(mset, mode=mode)
        assert str(err.value) == "reducible: no path from state 0 to state 1"
        assert err.value.certificate == pairgraph.check_primitivity(mset)

    @pytest.mark.parametrize("mode", ["specific", "any"])
    def test_irreducible_non_primitive_set_gets_the_check_certificate(self, mode):
        mset = parse_set_file(DATA / "swap.set")
        with pytest.raises(NotPrimitiveError) as err:
            run_heuristic(mset, mode=mode)
        report = pairgraph.check_primitivity(mset)
        assert err.value.certificate == report
        assert str(err.value) == report.describe() == "pair (0,1) reaches no singleton"
