"""Property tests for n in [1, 5]: the weight kernel, the semigroup search
and the subset BFS against the independent oracles in ``helpers``."""

import pytest
from hypothesis import given, settings, strategies as st

from rendezvous import Automaton, BoolMatrix, MatrixSet, Reach, explore, subset_bfs
from rendezvous.boolmat import max_weight
from helpers import entry_max_weight, forward_reset_threshold, undeduplicated_profile

# Fixed example sequences and no example database: the suite stays
# deterministic and leaves no files behind.
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def matrices(draw, n, nz=False):
    """n x n bit-row matrices; with ``nz``, no zero row or column."""
    rows = draw(st.lists(st.integers(1 if nz else 0, (1 << n) - 1), min_size=n, max_size=n))
    if nz:
        covered = 0
        for row in rows:
            covered |= row
        for j in range(n):
            if not (covered >> j) & 1:
                rows[draw(st.integers(0, n - 1))] |= 1 << j
    return BoolMatrix(n, tuple(rows))


@st.composite
def nz_sets(draw, max_n=5, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    return MatrixSet.of([draw(matrices(n, nz=True)) for _ in range(m)])


@st.composite
def automata(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 3))
    letters = tuple(
        BoolMatrix(n, tuple(1 << draw(st.integers(0, n - 1)) for _ in range(n)))
        for _ in range(m)
    )
    return Automaton(n, letters, tuple(f"x{i}" for i in range(m)))


def profile_lengths(result):
    return {k: entry.length for k, entry in result.krt.items()}


@PROPERTY
@given(st.integers(1, 5).flatmap(matrices))
def test_max_weight_matches_entry_oracle(mat):
    assert max_weight(mat.n, mat.rows) == entry_max_weight(mat.rows)


@PROPERTY
@given(st.integers(1, 5).flatmap(matrices))
def test_weight_profile_columns_match_col(mat):
    profile = mat.weight_profile()
    per_column = tuple(mat.col(j).bit_count() for j in range(mat.n))
    assert profile.per_column == per_column
    assert profile.max_col_weight == max(per_column)
    assert profile.argmax_col == per_column.index(max(per_column))


@PROPERTY
@given(nz_sets(max_m=2), st.integers(1, 4))
def test_explore_profile_and_exponent_match_oracle(mset, depth):
    result = explore(mset, max_depth=depth)
    profile, exponent = undeduplicated_profile(mset, max_depth=depth)
    assert profile_lengths(result) == profile
    assert (result.exponent.length if result.exponent else None) == exponent


@PROPERTY
@given(nz_sets(), st.integers(1, 30))
def test_explore_never_stores_more_than_max_states(mset, cap):
    result = explore(mset, max_states=cap)
    assert result.explored <= cap
    if result.limit == "states":
        assert result.explored == cap


@PROPERTY
@given(automata())
def test_subset_bfs_matches_forward_oracle(aut):
    assert subset_bfs(aut).reset_threshold == forward_reset_threshold(aut)


def test_subset_bfs_one_state_is_reset_by_empty_word():
    aut = Automaton(1, (BoolMatrix.identity(1),), ("a",))
    result = subset_bfs(aut)
    assert result.synchronizing
    assert result.reset == Reach(0, ())
    assert result.krt == {}


@pytest.mark.parametrize("limits", [{"max_states": 0}, {"max_depth": 0}, {"max_states": -1}])
def test_explore_rejects_limits_below_one(limits):
    with pytest.raises(ValueError):
        explore(MatrixSet.of([BoolMatrix.ones(2)]), **limits)
