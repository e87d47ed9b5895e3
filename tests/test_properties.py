"""Property tests, mostly for n in [1, 5]: the weight kernel (up to n = 130,
past one machine word) and the row-image kernel and its 16-bit lane
table (n up to 16), the one search behind
``explore`` and ``subset_bfs`` (its stored levels are the maximal levels
of a pairwise oracle, its level order is its A* with distance 0, and on a
consistent distance it stores the keys of a breadth-first oracle within
the depth cut, on the distance table and past it on the union-digraph
spread), the set profile and the sandwich
built on them, the pair-digraph BFS and the primitivity certificate (n up
to 9), primitivity decided by the BFS to one singleton, the heuristic's
per-k prefix lengths (n up to 8, transposes included), the set-file round
trip, the B and lift tables and the escape count (n up to 10), against
the independent oracles in ``helpers``."""

import functools
import io
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rendezvous import (
    Automaton,
    BoolMatrix,
    MatrixSet,
    NotPrimitiveError,
    Reach,
    UnreachableVertexError,
    associated_automaton,
    bound_b_closed,
    bound_b_recursive,
    check_primitivity,
    cpr_set,
    evaluate_escape,
    example_set,
    default_max_depth,
    explore,
    kari_set,
    parse_set_file,
    parse_set_text,
    raw_letter_count,
    run_heuristic,
    serialize_set,
    set_profile,
    singleton_distances,
    subset_bfs,
    verify_sandwich,
    witness_replay,
)
from rendezvous.cli import _not_found, main
from rendezvous.pairgraph import pair_vertices
from rendezvous.boolmat import max_column_weight, row_image, row_image_table
from rendezvous.bounds import _LIFT_GRIDS, _lift_columns, _lift_grid
from rendezvous.semigroup import (
    DISTANCE_TABLE_DIMENSION_CAP,
    UNREACHED,
    LevelResult,
    LevelSearch,
    SubsetSpread,
    _maximal,
    subset_distances,
)
from helpers import (
    brute_force_primitive,
    entry_leq,
    entry_max_weight,
    escape_oracle,
    forward_reset_threshold,
    letter_set,
    lift_table_oracle,
    maximal,
    oracle_path,
    pair_distances_oracle,
    plain_subset_levels,
    product_distance,
    exponent_search,
    product_levels,
    reached,
    recorded_searches,
    row_tuple_product,
    semigroup_closure,
    stored_levels,
    subset_distance,
    subset_levels,
    undeduplicated_profile,
    union_spread,
)

DATA = Path(__file__).parent / "data"

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
def nz_sets(draw, min_n=1, max_n=5, max_m=3):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, max_m))
    return MatrixSet.of([draw(matrices(n, nz=True)) for _ in range(m)])


@st.composite
def automata(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, 3))
    letters = tuple(
        BoolMatrix(n, tuple(1 << draw(st.integers(0, n - 1)) for _ in range(n)))
        for _ in range(m)
    )
    return Automaton(n, letters, tuple(f"x{i}" for i in range(m)))


@st.composite
def sparse_nz_sets(draw, min_n=1, max_n=8):
    """Permutation matrices plus a few drawn ones: NZ sets with long
    heuristic words and letters of every small excess."""
    n = draw(st.integers(min_n, max_n))
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [1 << p for p in draw(st.permutations(range(n)))]
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(cells, max_size=3)):
            rows[i] |= 1 << j
        generators.append(BoolMatrix(n, tuple(rows)))
    return MatrixSet.of(generators)


@st.composite
def thin_nz_sets(draw, min_n, max_n):
    """NZ sets of two or three letters with one or two ones a row: their
    products stay thin for a few letters, so many lie below others."""
    n = draw(st.integers(min_n, max_n))
    entry = st.integers(0, n - 1)
    generators = []
    for _ in range(draw(st.integers(2, 3))):
        rows = [1 << draw(entry) | 1 << draw(entry) for _ in range(n)]
        covered = 0
        for row in rows:
            covered |= row
        for j in range(n):
            if not (covered >> j) & 1:
                rows[draw(entry)] |= 1 << j
        generators.append(BoolMatrix(n, tuple(rows)))
    return MatrixSet.of(generators)


def profile_lengths(result):
    return {k: entry.length for k, entry in result.krt.items()}


@PROPERTY
@given(st.one_of(st.integers(1, 5), st.integers(6, 130)).flatmap(matrices))
def test_max_weight_matches_entry_oracle(mat):
    row_side = max_column_weight(mat.n, mat.transpose().rows)
    assert max(max_column_weight(mat.n, mat.rows), row_side) == entry_max_weight(mat.rows)
    columns = [sum((row >> j) & 1 for row in mat.rows) for j in range(mat.n)]
    assert max_column_weight(mat.n, mat.rows) == max(columns)


@pytest.mark.parametrize("count", [63, 64, 65, 127, 128, 129])
def test_max_weight_counts_past_one_word(count):
    # The column counters gain a plane at 64 and 128; column 0 holds
    # ``count`` ones, the next columns one and two fewer, and the last row
    # is all zero, so no row is heavier than three.
    n = 130
    rows = tuple(
        sum(1 << j for j in range(3) if i < count - j) for i in range(n - 1)
    ) + (0,)
    row_side = max_column_weight(n, BoolMatrix(n, rows).transpose().rows)
    assert max(max_column_weight(n, rows), row_side) == entry_max_weight(rows) == count


@PROPERTY
@given(st.integers(1, 5).flatmap(matrices))
def test_weight_profile_columns_match_col(mat):
    assert mat.transpose().rows == tuple(mat.col(j) for j in range(mat.n))


@PROPERTY
@given(st.integers(1, 5).flatmap(matrices), st.integers(0, 31))
def test_row_image_matches_entry_oracle(mat, mask):
    mask &= (1 << mat.n) - 1
    entries = [
        any((mask >> s) & 1 and mat.entry(s, j) for s in range(mat.n)) for j in range(mat.n)
    ]
    assert row_image(mat.rows, mask) == sum(1 << j for j, e in enumerate(entries) if e)


@settings(PROPERTY, max_examples=8)
@pytest.mark.parametrize("n", [*range(14), 16])
@given(data=st.data())
def test_row_image_table_matches_row_image_on_every_mask(n, data):
    # The table packs each entry in a 16-bit lane: rows holding the top bit
    # of the lane's width and all-ones rows pin the lane width and show any
    # carry from one lane into the next.
    ones = (1 << n) - 1
    row = st.integers(0, ones).map(lambda r: r | 1 << n >> 1) | st.just(ones)
    rows = tuple(data.draw(st.lists(row, min_size=n, max_size=n)))
    assert row_image_table(rows) == [row_image(rows, mask) for mask in range(1 << n)]


@PROPERTY
@given(nz_sets(max_m=2), st.integers(1, 4))
def test_explore_profile_and_exponent_match_oracle(mset, depth):
    result = explore(mset, max_depth=depth)
    profile, exponent = undeduplicated_profile(mset, max_depth=depth)
    assert profile_lengths(set_profile(mset, max_depth=depth)) == profile
    assert (result.exponent.length if result.exponent else None) == exponent
    if result.exponent:
        assert len(result.exponent.word) == exponent
        assert witness_replay(mset, result.exponent.word) == BoolMatrix.ones(mset.n)


@PROPERTY
@given(nz_sets(max_n=6))
def test_distance_table_matches_the_forward_oracle(mset):
    n = mset.n
    table = subset_distances(mset)
    oracle = [subset_distance(mset, subset) for subset in range(1 << n)]
    assert list(table) == [UNREACHED if d is None else d for d in oracle]
    # Some singleton never reaches every state exactly on a set that is not
    # primitive.
    singles = [oracle[1 << i] for i in range(n)]
    assert (None in singles) == (not brute_force_primitive(mset))
    gens = [g.rows for g in mset.generators]
    for s in range(1 << n):
        # Antimonotone: a superset is no farther from every state.
        assert all(table[s | t] <= table[s] for t in range(1 << n))
        # Consistent: one letter brings a set at most one step closer.
        assert all(table[s] <= 1 + table[row_tuple_product((s,), g)[0]] for g in gens)


@PROPERTY
@given(nz_sets(max_n=6))
def test_spread_matches_the_union_digraph_oracle(mset):
    n = mset.n
    spread = SubsetSpread(mset)
    table = subset_distances(mset)
    oracle = map(union_spread(mset), range(1 << n))
    assert [spread[s] for s in range(1 << n)] == [UNREACHED if d is None else d for d in oracle]
    # Some singleton never spreads to every state exactly on a reducible set.
    singles = [spread[1 << i] for i in range(n)]
    assert (UNREACHED in singles) == (mset.reducibility_witness() is not None)
    gens = [g.rows for g in mset.generators]
    for s in range(1 << n):
        # Admissible: no word takes a set to every state in fewer steps.
        assert spread[s] <= table[s]
        # Antimonotone and consistent, as the table is.
        assert all(spread[s | t] <= spread[s] for t in range(1 << n))
        assert all(spread[s] <= 1 + spread[row_tuple_product((s,), g)[0]] for g in gens)


@PROPERTY
@given(nz_sets(), st.integers(1, 4))
def test_set_profile_matches_unpruned_oracle_and_replays(mset, depth):
    oracle, _ = undeduplicated_profile(mset, max_depth=depth)
    limited = set_profile(mset, max_depth=depth)
    full = set_profile(mset)
    assert profile_lengths(limited) == oracle
    assert {k: length for k, length in profile_lengths(full).items() if length <= depth} == oracle
    assert full.limit is None
    for result in (limited, full):
        for k, entry in result.krt.items():
            assert len(entry.word) == entry.length
            assert entry_max_weight(witness_replay(mset, entry.word).rows) >= k


def stored_lengths(search) -> dict:
    """A ``LevelSearch``'s stored keys, each with the length of its word."""
    return {key: len(search.word(node)) for node, key in enumerate(search.keys)}


@PROPERTY
@given(nz_sets(), st.integers(1, 30))
@example(cpr_set(), 30)
def test_explore_never_stores_more_than_max_states(mset, cap):
    # The one search stores the oracle's products in rising f = d + h, each
    # at its shortest length d, and stops once it holds the cap unless the
    # cap-th is the all-ones matrix, the last product it stores.  Every f
    # below the last one stored is complete, which proves exponent >= f.
    with recorded_searches() as searches:
        result = explore(mset, max_states=cap)
    assert result.explored == sum(len(search.keys) for search in searches) <= cap
    if not searches:
        assert result.exhausted and result.explored == 0
        return
    (search,) = searches
    stored, exponent, _ = exponent_search(mset, default_max_depth(mset.n))
    h = product_distance(mset)
    lengths = stored_lengths(search)
    assert all(stored[rows] == d for rows, d in lengths.items())
    top = max(d + h(rows) for rows, d in lengths.items())
    assert all(rows in lengths for rows, d in stored.items() if d + h(rows) < top)
    assert (result.limit == "states") == (len(stored) > cap)
    if result.limit == "states":
        assert result.explored == cap and result.lower_bound == top
    else:
        assert result.exponent.length == exponent and result.explored == len(stored)


@PROPERTY
@given(nz_sets(), st.integers(-2, 2))
@example(cpr_set(), 0)
@example(cpr_set(), -1)
def test_explore_finds_the_exponent_iff_the_cap_holds_the_uncapped_search(mset, slack):
    # The all-ones matrix is the last product the search stores, so a cap
    # finds the exponent iff it holds all the uncapped search stores; below
    # that, the limit line names the state cap.
    full = explore(mset)
    if full.exponent is None:
        assert full.exhausted and full.explored == 0
        return
    cap = max(1, full.explored + slack)
    result = explore(mset, max_states=cap)
    if cap >= full.explored:
        assert (result.exponent, result.explored) == (full.exponent, full.explored)
    else:
        assert result.exponent is None
        assert _not_found(result) == (
            f"not-found (states; explored={cap}, depth={result.depth_reached})")


@PROPERTY
@given(nz_sets(), st.integers(-2, 2))
@example(cpr_set(), 0)
def test_explore_finds_every_exponent_one_unbounded_pass_finds_under_the_cap(mset, slack):
    # One unbounded pass stores the oracle's levels up to the one that holds
    # the all-ones matrix.  The one search finds that exponent, under every
    # cap that holds its own uncapped count; it tests no domination, so that
    # count may pass the pass's, and under a cap of the pass's count it may
    # stop at the state cap with a lower bound not past the exponent.
    levels, _ = product_levels(mset)
    ones = ((1 << mset.n) - 1,) * mset.n
    found = ones in levels[-1]
    full = explore(mset)
    assert (full.exponent is not None) == found
    cap = max(1, sum(map(len, levels)) + slack)
    with recorded_searches() as searches:
        result = explore(mset, max_states=cap)
    assert all(len(search.keys) <= cap for search in searches)
    if found and cap >= full.explored:
        assert result.exponent is not None
    if result.exponent is not None:
        assert found and result.exponent.length == result.lower_bound == len(levels)
        assert witness_replay(mset, result.exponent.word) == BoolMatrix.ones(mset.n)
    elif found:
        assert result.limit == "states" and result.lower_bound <= len(levels)


@PROPERTY
@given(nz_sets(max_n=4, max_m=2))
def test_explore_stores_a_dominating_part_of_the_closure(mset):
    with recorded_searches() as searches:
        result = explore(mset)
    closure = semigroup_closure(mset)
    ones = ((1 << mset.n) - 1,) * mset.n
    h = product_distance(mset)
    for search in searches:
        # The search stores products of the closure, and every product that
        # a word of length d spells with d + h up to the exponent lies
        # below (here: is) one of them.
        stored = set(search.keys)
        assert stored <= closure.keys()
        within = [
            rows for rows, length in closure.items()
            if length + h(rows) <= result.exponent.length
        ]
        assert all(any(entry_leq(rows, key) for key in stored) for rows in within)
    if result.exhausted:
        assert searches == [] and result.explored == 0
        assert result.exponent is None and ones not in closure
    else:
        assert result.exponent is not None and ones in closure


def assert_search_matches_the_oracle(mset, searches, result, max_depth):
    """``explore`` starts one search, a bucketed A*, when every singleton
    row set has a distance and none otherwise, and it stores what
    ``helpers.exponent_search`` says: every product P with d(P) + h(P)
    within the exponent, or within ``max_depth`` when the exponent lies
    past it, at its shortest length d(P), in rising d + h, with no key
    pruned, h read off the forward subset distance up to the table cap
    and off the union-digraph spread past it.  A depth cut proves the
    least d + h past ``max_depth``."""
    if mset.n <= DISTANCE_TABLE_DIMENSION_CAP:
        row_distance = functools.partial(subset_distance, mset)
    else:
        row_distance = union_spread(mset)
    singles = [row_distance(1 << i) for i in range(mset.n)]
    if None in singles:
        assert searches == []
        assert (result.exhausted, result.limit, result.exponent) == (True, None, None)
        assert result.explored == result.depth_reached == 0
        return
    (search,) = searches
    assert search.distance is not None and search.max_depth == max_depth
    h = product_distance(mset, row_distance)
    stored, exponent, cut = exponent_search(mset, max_depth, h)
    lengths = stored_lengths(search)
    assert lengths == stored and len(search.keys) == len(stored)
    f = [lengths[rows] + h(rows) for rows in search.keys]
    assert f == sorted(f)
    assert (result.explored, result.pruned) == (len(stored), 0)
    assert result.depth_reached == max(stored.values(), default=0)
    assert result.lower_bound >= max(1, *singles)
    if exponent is None:
        assert (result.exponent, result.limit, result.lower_bound) == (None, "depth", cut)
    else:
        assert result.limit is None
        assert result.exponent.length == result.lower_bound == exponent
        assert witness_replay(mset, result.exponent.word) == BoolMatrix.ones(mset.n)


@PROPERTY
@given(nz_sets())
def test_explore_stores_the_oracle_products(mset):
    with recorded_searches() as searches:
        result = explore(mset)
    assert_search_matches_the_oracle(mset, searches, result, default_max_depth(mset.n))


# A depth limit below L = max_i delta({i}) leaves no product to store.
@PROPERTY
@given(nz_sets(), st.integers(1, 8))
def test_explore_under_a_depth_limit_matches_the_oracle(mset, depth):
    with recorded_searches() as searches:
        result = explore(mset, max_depth=depth)
    assert_search_matches_the_oracle(mset, searches, result, depth)


@st.composite
def level_searches(draw):
    """What a ``LevelSearch`` over subsets needs: n, the letters as bit-row
    matrices, and the roots, drawn with repeats and letter -1 among them."""
    n = draw(st.integers(1, 8))
    letters = draw(st.lists(matrices(n), min_size=1, max_size=3))
    root = st.tuples(st.integers(0, (1 << n) - 1), st.integers(-1, len(letters) - 1))
    return n, letters, draw(st.lists(root, min_size=1, max_size=4))


def run_level_search(case, depth, max_depth, max_states, digits, distance):
    """A ``LevelSearch`` over the subsets of ``case``, iterated to its end.
    Each yield is the first node of a level: where the level before it
    ended, and every key stored from there on lies as many letters below
    its root."""
    n, letters, roots = case
    search = LevelSearch(
        LevelResult(n=n), len(letters),
        lambda level: [row_image(g.rows, mask) for mask in level for g in letters],
        digits, roots, depth, max_depth, max_states, distance,
    )
    steps = []
    for start in search:
        assert start == len(steps) < len(search.keys)
        steps += [0 if parent < 0 else steps[parent] + 1 for parent in search.parents[start:]]
        assert len(set(steps[start:])) == 1
    assert len(steps) == len(search.keys)
    return search


@PROPERTY
@given(
    level_searches(),
    st.integers(0, 2),
    st.none() | st.integers(1, 6),
    st.none() | st.integers(1, 60),
    st.booleans(),
)
def test_level_order_is_the_search_with_distance_zero(
    case, depth, max_depth, max_states, dominate
):
    # Without a distance the search is the A* with f = d: both store the
    # same keys, parents and letters in the same order and stop alike.
    # Without a depth limit the search stores the same keys first, and more
    # exactly when a depth cut was reported, not an exhaustion.
    size = (case[0] + 7) // 8
    digits = (lambda mask: mask.to_bytes(size, "little")) if dominate else None

    def run(distance, max_depth):
        search = run_level_search(case, depth, max_depth, max_states, digits, distance)
        r = search.result
        return (search.keys, search.parents, search.letters, r.explored, r.pruned,
                r.depth_reached, r.exhausted, r.limit, search.bound)

    level_order = run(None, max_depth)
    assert run(lambda mask: 0, max_depth) == level_order
    _, _, _, explored, _, _, exhausted, limit, _ = level_order
    deeper = run(None, None)
    assert all(stored[:explored] == part for stored, part in zip(deeper, level_order[:3]))
    if limit != "states":
        assert exhausted == (limit is None)
        assert exhausted == (len(deeper[0]) == explored)


REMET = (6, [BoolMatrix(6, (0, 0, 0, 0, 0, 1))] * 2, [(2, 0), (32, 0)])


@PROPERTY
@given(level_searches(), st.integers(0, 255), st.none() | st.integers(1, 8))
# With target {0}, the empty subset first waits at level 2 (f = 4), as the
# image of {0}, then at level 1 (f = 3), as the image of the root {1},
# whose f is larger than {0}'s.  Under max_depth 3 the stale entry is all
# that waits past the cut.
@example(REMET, 1, None)
@example(REMET, 1, 3)
def test_search_with_a_distance_stores_each_key_once_at_its_shortest_length(
    case, target, max_depth
):
    # The distance to a target subset is consistent, yet a key may first
    # wait at a longer level than its shortest and be met shorter later.
    # The search stores exactly the keys of f = d + h within max_depth,
    # each once at its shortest length d, in rising f; a depth cut names
    # the least f of the keys past it.
    n, letters, roots = case
    subsets = range(1 << n)
    target %= 1 << n
    image = [[row_image(g.rows, mask) for g in letters] for mask in subsets]
    to_target, d = {target: 0}, 0
    while more := [mask for mask in subsets if mask not in to_target
                   and any(c in to_target for c in image[mask])]:
        d += 1
        to_target.update(dict.fromkeys(more, d))
    far = d + 1
    h = lambda mask: to_target.get(mask, far)
    shortest, level, d = {}, {mask for mask, _ in roots}, 0
    while level:
        shortest.update(dict.fromkeys(level, d))
        level, d = {c for mask in level for c in image[mask] if c not in shortest}, d + 1
    f_of = {key: length + h(key) for key, length in shortest.items()}
    cap = max(f_of.values()) if max_depth is None else max_depth
    search = run_level_search(case, 0, max_depth, None, None, h)
    lengths = []
    for parent in search.parents:
        lengths.append(0 if parent < 0 else lengths[parent] + 1)
    assert sorted(search.keys) == sorted(key for key, f in f_of.items() if f <= cap)
    assert lengths == [shortest[key] for key in search.keys]
    f = [f_of[key] for key in search.keys]
    assert f == sorted(f)
    past = [f for f in f_of.values() if f > cap]
    assert search.result.exhausted == (not past)
    assert search.result.limit == ("depth" if past else None)
    if past:
        assert search.bound == min(past)


def first_reaches(levels) -> dict[int, int]:
    """k -> the first of the subset levels holding k or more states."""
    out: dict[int, int] = {}
    for d, level in enumerate(levels):
        for k in range(1, max(mask.bit_count() for (mask,) in level) + 1):
            out.setdefault(k, d)
    return out


# Letter a maps states 0, 1 to 0 and 2 to 1, letter b is the cycle
# 0 -> 1 -> 2 -> 0; the full set is the second-to-last preimage of length 2.
STOP_INSIDE = Automaton(3, (BoolMatrix(3, (1, 1, 2)), BoolMatrix(3, (2, 4, 1))), ("a", "b"))


@PROPERTY
@given(automata())
@example(STOP_INSIDE)
def test_subset_bfs_levels_are_the_maximal_levels_of_the_oracle(aut):
    # Up to 5 states and 3 letters the search is tabulated: it stores every
    # preimage at its shortest length, prunes none, and so holds k or more
    # states first at the level where the maximal-levels oracle does.  A
    # reset ends the search at the first full set, whose word it is.
    with recorded_searches() as searches:
        result = subset_bfs(aut.n, aut.letters)
    (search,) = searches
    assert search.digits is None and result.pruned == 0
    levels = stored_levels(search)
    assert_levels_match(
        levels, plain_subset_levels(aut.n, aut.letters), result.reset is not None)
    oracle, _ = subset_levels(aut.n, aut.letters)
    assert first_reaches(levels) == first_reaches(oracle)
    assert len(search.keys) == result.explored
    if result.reset is not None:
        node = search.keys.index((1 << aut.n) - 1)
        assert node == result.explored - 1
        assert search.word(node)[::-1] == result.reset.word


def test_subset_bfs_stops_inside_the_reset_level():
    # The whole level of length 2 is stored before it is read; the stop
    # keeps it only up to the full set, so one stored preimage is dropped.
    with recorded_searches() as searches:
        result = subset_bfs(STOP_INSIDE.n, STOP_INSIDE.letters)
    (search,) = searches
    levels = plain_subset_levels(STOP_INSIDE.n, STOP_INSIDE.letters)
    assert result.reset.length == 2
    assert sum(map(len, levels[:2])) < result.explored < sum(map(len, levels[:3]))
    assert search.keys[-1] == 0b111 and len(search.keys) == result.explored
    assert search.word(result.explored - 1) == result.reset.word[::-1] == (0, 0)


def assert_levels_match(levels, oracle, stopped_at_target):
    """Stored levels equal the oracle's; a search that broke off at its
    target stores only part of its last level."""
    if stopped_at_target:
        *full, last = levels
        assert full == oracle[: len(full)] and last <= oracle[len(full)]
    else:
        assert levels == oracle


# Past 8 states a row spans more than one byte; the bounded search reads
# whole rows.  The depth limit lies a few steps past L, so it stores keys.
@settings(PROPERTY, max_examples=60)
@given(thin_nz_sets(9, 12), st.integers(1, 5))
def test_explore_levels_past_one_byte_match_the_oracle(mset, extra):
    singles = [subset_distance(mset, 1 << i) for i in range(mset.n)]
    assume(None not in singles)
    depth = max(singles) + extra
    with recorded_searches() as searches:
        result = explore(mset, max_depth=depth)
    assert_search_matches_the_oracle(mset, searches, result, depth)


# Past the distance table's cap the search is the same A*, on the spread
# in the union digraph; the depth limit lies a few steps past L.
@settings(PROPERTY, max_examples=30)
@given(thin_nz_sets(DISTANCE_TABLE_DIMENSION_CAP + 1, 20), st.integers(1, 4))
def test_explore_levels_past_the_table_cap_match_the_oracle(mset, extra):
    spread = union_spread(mset)
    singles = [d for d in map(spread, (1 << i for i in range(mset.n))) if d is not None]
    depth = max(singles, default=0) + extra
    with recorded_searches() as searches:
        result = explore(mset, max_depth=depth)
    assert_search_matches_the_oracle(mset, searches, result, depth)


# Up to 3 letters the search is tabulated at n <= 13 and stores the plain
# levels; past n = 13 it keeps the maximal ones, read from the mask bytes.
@settings(PROPERTY, max_examples=30)
@given(automata(min_n=9, max_n=17), st.integers(1, 3))
def test_subset_bfs_levels_past_one_byte_match_the_oracle(aut, depth):
    with recorded_searches() as searches:
        result = subset_bfs(aut.n, aut.letters, max_depth=depth)
    (search,) = searches
    levels = stored_levels(search)
    stopped = result.reset is not None
    if aut.n <= DISTANCE_TABLE_DIMENSION_CAP:
        assert search.digits is None and result.pruned == 0
        assert_levels_match(levels, plain_subset_levels(aut.n, aut.letters, depth + 1), stopped)
    else:
        assert search.digits is not None
        oracle, met = subset_levels(aut.n, aut.letters, depth + 1)
        assert_levels_match(levels, oracle, stopped)
        if not stopped:
            assert result.pruned == met - result.explored


@st.composite
def index_cases(draw):
    """A digit view and distinct keys in drawn order: one-row keys of
    widths around the byte and word edges, or n-row keys of width n.  Each
    key ORs some of a few sparse atoms, so keys often lie below others."""
    if draw(st.booleans()):
        rows, width = 1, draw(st.sampled_from([1, 7, 8, 9, 16, 17, 64, 65, 70]))
    else:
        rows = width = draw(st.integers(1, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    atoms = [
        [(rng.randrange(rows), rng.randrange(width)) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(3, 8))
    ]
    keys = {}
    for _ in range(rng.randint(5, 40)):
        key = [0] * rows
        for atom in [atom for atom in atoms if rng.random() < 0.5] or atoms[:1]:
            for i, j in atom:
                key[i] |= 1 << j
        keys[tuple(key)] = None
    size = (width + 7) // 8

    def digits(key):
        return key if width <= 8 else b"".join(row.to_bytes(size, "little") for row in key)

    return digits, list(keys)


@PROPERTY
@given(index_cases())
def test_maximal_keeps_the_oracle_maximal_keys_in_order(case):
    digits, keys = case
    expected = maximal(keys)
    assert _maximal(keys, digits) == [key in expected for key in keys]


@PROPERTY
@given(automata(min_n=2), st.integers(1, 4))
def test_subset_bfs_profile_matches_forward_oracle(aut, depth):
    oracle, _ = undeduplicated_profile(letter_set(aut), max_depth=depth)
    full = profile_lengths(subset_bfs(aut.n, aut.letters))
    assert {k: length for k, length in full.items() if length <= depth} == oracle
    assert profile_lengths(subset_bfs(aut.n, aut.letters, max_depth=depth)) == oracle


@PROPERTY
@given(nz_sets(max_n=7), st.integers(1, 40))
def test_set_profile_under_a_state_cap_reports_only_exact_lengths(mset, cap):
    # A side cut short may hide a shorter length than the other side found.
    limited = set_profile(mset, max_states=cap)
    full = profile_lengths(set_profile(mset))
    assert {k: full[k] for k in limited.krt} == profile_lengths(limited)
    if limited.limit is None:
        assert profile_lengths(limited) == full


@PROPERTY
@given(nz_sets(max_n=4, max_m=2))
def test_set_krt_is_min_over_the_two_automata(mset):
    assume(mset.n >= 2 and check_primitivity(mset).primitive)
    aut = subset_bfs(mset.n, associated_automaton(mset).letters)
    aut_t = subset_bfs(mset.n, associated_automaton(mset.transposed()).letters)
    theorem = {k: min(aut.krt[k].length, aut_t.krt[k].length) for k in range(2, mset.n + 1)}
    exact, _ = undeduplicated_profile(mset, max_depth=max(theorem.values()))
    assert exact == theorem


@PROPERTY
@given(nz_sets(max_n=4, max_m=2))
def test_sandwich_fields_match_independent_oracles(mset):
    assume(mset.n >= 2 and check_primitivity(mset).primitive)
    report = verify_sandwich(mset)
    assert report.rt_aut == forward_reset_threshold(associated_automaton(mset))
    assert report.rt_aut_transpose == forward_reset_threshold(
        associated_automaton(mset.transposed())
    )
    _, exponent = undeduplicated_profile(mset, max_depth=report.exponent)
    assert report.exponent == exponent
    assert report.lower_ok and report.upper_ok
    assert report.tight == (report.exponent == report.upper)


@PROPERTY
@given(nz_sets(max_n=5))
@example(example_set())
@example(cpr_set())
@example(kari_set())
def test_automata_rt_words_are_resets_of_the_automaton_by_label(mset):
    # automata rt searches the generators and spells each reset word in the
    # letters of the associated automaton, by their labels.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "drawn.set"
        path.write_text(serialize_set(mset))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["automata", "rt", "--file", str(path)]) == 0
    lines = out.getvalue().splitlines()
    for title, source, line in zip(("aut", "aut_T"), (mset, mset.transposed()), lines, strict=True):
        aut = associated_automaton(source, raw_letter_count(source))
        reset = subset_bfs(aut.n, aut.letters).reset
        if line == f"{title}: not-synchronizing":
            assert reset is None
            continue
        head, length, word = line.split(" ")
        letters = dict(zip(aut.labels, aut.letters))
        word = word.removeprefix("word=")
        word = [] if word == "-" else [letters[label] for label in word.split(",")]
        assert head == f"{title}:"
        assert int(length.removeprefix("rt=")) == len(word) == reset.length
        states = set(range(mset.n))
        for letter in word:
            states = {letter.rows[s].bit_length() - 1 for s in states}
        assert len(states) == 1


@PROPERTY
@given(automata(), st.integers(1, 30))
def test_subset_bfs_never_stores_more_than_max_states(aut, cap):
    result = subset_bfs(aut.n, aut.letters, max_states=cap)
    assert result.explored <= cap
    if result.limit == "states":
        assert result.explored == cap
    else:
        assert result == subset_bfs(aut.n, aut.letters)


@PROPERTY
@given(automata(min_n=2))
def test_subset_bfs_matches_forward_oracle(aut):
    reset = subset_bfs(aut.n, aut.letters).reset
    assert (reset and reset.length) == forward_reset_threshold(aut)


def test_subset_bfs_one_state_is_reset_by_empty_word():
    aut = Automaton(1, (BoolMatrix.identity(1),), ("a",))
    result = subset_bfs(aut.n, aut.letters)
    assert result.reset == Reach(0, ())
    assert result.krt == {}


@pytest.mark.parametrize("limits", [{"max_states": 0}, {"max_depth": 0}, {"max_states": -1}])
def test_explore_rejects_limits_below_one(limits):
    with pytest.raises(ValueError):
        explore(MatrixSet.of([BoolMatrix.ones(2)]), **limits)
    with pytest.raises(ValueError):
        subset_bfs(1, (BoolMatrix.identity(1),), **limits)
    with pytest.raises(ValueError):
        set_profile(MatrixSet.of([BoolMatrix.ones(2)]), **limits)


@PROPERTY
@given(st.one_of(nz_sets(max_n=8), sparse_nz_sets()).filter(lambda m: check_primitivity(m).primitive), st.booleans())
def test_heuristic_per_k_matches_prefix_replays(mset, transpose):
    # Transposed sets swap rows and columns, so the rows, which the
    # heuristic only bounds between exact counts, carry the max weight too.
    if transpose:
        mset = mset.transposed()
    gens = [g.rows for g in mset.generators]
    for mode in ("specific", "any"):
        trace = run_heuristic(mset, mode=mode)
        expected: dict[int, int] = {}
        rows = tuple(1 << i for i in range(mset.n))
        for length, g_idx in enumerate(trace.word, start=1):
            rows = row_tuple_product(rows, gens[g_idx])
            for k in range(2, entry_max_weight(rows) + 1):
                expected.setdefault(k, length)
        assert trace.per_k_length == expected, mode


# A label is one stripped comment line, so it holds no control, space or
# line-break characters.
LABELS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=6
)


@PROPERTY
@given(nz_sets(max_n=8, max_m=4), st.data())
def test_set_file_round_trip(mset, data):
    labels = data.draw(st.lists(LABELS, min_size=mset.m, max_size=mset.m))
    labelled = MatrixSet.of(mset.generators, labels)
    assert parse_set_text(serialize_set(labelled)) == labelled


@PROPERTY
@given(st.integers(2, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
def test_b_closed_form_equals_recursion(nk):
    assert bound_b_closed(*nk) == bound_b_recursive(*nk)


@PROPERTY
@given(st.integers(2, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))))
def test_lift_grid_column_matches_scalar_oracle(nk):
    # Column k from the cached grid and built alone, as ``bound_f`` does.
    n, k = nk
    expected = [0, 0] + lift_table_oracle(n, k)
    assert _lift_grid(n, k)[k] == expected
    assert _lift_columns(n, k, k) == [expected]


@settings(PROPERTY, max_examples=20)  # the oracle costs about k_max^3/6 steps
@given(
    st.integers(2, 400).flatmap(
        # k_max = 2 + (n-2)u^3 for u in [0, 1]: most draws land below n/2,
        # as fig8's min(n, 50) does, where jumps from high rows reach past k_max.
        lambda n: st.tuples(
            st.just(n), st.integers(0, 64).map(lambda u: 2 + (n - 2) * u**3 // 64**3)
        )
    )
)
def test_fresh_lift_grid_every_column_matches_scalar_oracle(nk):
    n, k_max = nk
    _LIFT_GRIDS.clear()
    grid = _lift_grid(n, k_max)
    for k in range(2, k_max + 1):
        assert grid[k] == [0, 0] + lift_table_oracle(n, k), k


@st.composite
def escape_inputs(draw):
    """(matrix, k), n <= 10: a permutation plus drawn cells that keep every
    row and column weight <= k, so the matrix is NZ and in scope unless no
    column reaches weight k."""
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, n - 1))
    rows = [1 << p for p in draw(st.permutations(range(n)))]
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cells, max_size=3 * n)):
        if rows[i].bit_count() < k and sum((row >> j) & 1 for row in rows) < k:
            rows[i] |= 1 << j
    return BoolMatrix(n, tuple(rows)), k


@settings(PROPERTY, max_examples=300)
@given(escape_inputs())
def test_evaluate_escape_matches_oracle(case):
    mat, k = case
    expected = escape_oracle(mat, k)
    result = evaluate_escape(mat, k)
    assert {name: getattr(result, name) for name in expected} == expected


def assert_pair_bfs_matches_oracle(mset, targets):
    for target in targets:
        table = singleton_distances(mset, target)
        dist, next_hop = pair_distances_oracle(mset, target)
        assert reached(table) == dist
        for v in pair_vertices(mset.n):
            if v in dist:
                assert table.path_from(v) == oracle_path(next_hop, v)
            else:
                with pytest.raises(UnreachableVertexError):
                    table.path_from(v)


@PROPERTY
@given(nz_sets(max_n=9))
def test_pair_bfs_matches_dict_oracle(mset):
    # Every distance, shortest-path word and endpoint, for the all-singleton
    # table and every singleton target; non-primitive sets included.
    assert_pair_bfs_matches_oracle(mset, [None] + [(s, s) for s in range(mset.n)])


@pytest.mark.parametrize(
    "mset, targets",
    [
        (example_set(), None),
        (cpr_set(), None),
        (kari_set(), None),
        (parse_set_file(DATA / "perm70.set"), [None, (0, 0), (35, 35), (69, 69)]),
    ],
    ids=["example", "cpr", "kari", "perm70"],
)
def test_pair_bfs_matches_dict_oracle_on_fixed_sets(mset, targets):
    if targets is None:
        targets = [None] + [(s, s) for s in range(mset.n)]
    assert_pair_bfs_matches_oracle(mset, targets)


@st.composite
def cyclic_block_sets(draw):
    """Irreducible, non-primitive NZ sets: states in b >= 2 blocks (state k in
    block k mod b, relabelled by a drawn permutation), every generator a
    bijection of each block onto the next plus drawn ones inside the next
    block.  The first generator's bijection is the n-cycle k -> k + 1."""
    b = draw(st.integers(2, 3))
    n = b * draw(st.integers(1, 3))
    relabel = draw(st.permutations(range(n)))
    generators = []
    for g_idx in range(draw(st.integers(1, 3))):
        rows = [0] * n
        for t in range(b):
            sources = list(range(t, n, b))
            block = list(range((t + 1) % b, n, b))
            if t == b - 1:
                block = block[1:] + block[:1]
            images = block if g_idx == 0 else draw(st.permutations(block))
            for k, image in zip(sources, images):
                extra = draw(st.lists(st.sampled_from(block), max_size=2))
                for col in [image, *extra]:
                    rows[relabel[k]] |= 1 << relabel[col]
        generators.append(BoolMatrix(n, tuple(rows)))
    return MatrixSet.of(generators)


@PROPERTY
@given(cyclic_block_sets())
def test_check_certificate_is_the_first_unreached_pair(mset):
    dist, _ = pair_distances_oracle(mset)
    i, j = next(v for v in pair_vertices(mset.n) if v not in dist)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cyclic.set"
        path.write_text(serialize_set(mset))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["check", "--file", str(path)]) == 0
    assert out.getvalue().splitlines() == [
        "nz: true",
        "irreducible: true",
        "primitive: false",
        f"certificate: pair ({i},{j}) reaches no singleton",
    ]


@PROPERTY
@given(st.one_of(nz_sets(max_n=6), cyclic_block_sets()).filter(lambda m: not check_primitivity(m).primitive))
def test_heuristic_rejects_non_primitive_sets_with_the_check_certificate(mset):
    report = check_primitivity(mset)
    for mode in ("specific", "any"):
        with pytest.raises(NotPrimitiveError) as err:
            run_heuristic(mset, mode=mode)
        assert err.value.certificate == report
        assert str(err.value) == report.describe()


@PROPERTY
@given(st.one_of(nz_sets(max_n=7), cyclic_block_sets()))
def test_primitivity_to_one_singleton_is_primitivity(mset):
    # In an irreducible set a pair that reaches one singleton reaches them
    # all, so the BFS to any one singleton decides primitivity, with the
    # same certificate.
    report = check_primitivity(mset)
    for s in range(mset.n):
        to_s = check_primitivity(mset, (s, s))
        assert to_s == report
        if to_s.primitive:
            assert to_s.distances == singleton_distances(mset, (s, s))
