"""Property tests, mostly for n in [1, 5]: the weight kernel (up to n = 130,
past one machine word) and the row-image kernel, the shared level-order
search behind ``explore`` and ``subset_bfs`` (its stored levels are the
maximal levels of a pairwise oracle), the set profile and the sandwich
built on them, the pair-digraph BFS and the primitivity certificate (n up
to 9), primitivity decided by the BFS to one singleton, the heuristic's
per-k prefix lengths (n up to 8, transposes included), the set-file round
trip, the B and lift tables and the escape count (n up to 10), against
the independent oracles in ``helpers``."""

import io
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    explore,
    kari_set,
    parse_set_file,
    parse_set_text,
    run_heuristic,
    serialize_set,
    set_profile,
    singleton_distances,
    subset_bfs,
    verify_sandwich,
    witness_replay,
)
from rendezvous.cli import main
from rendezvous.pairgraph import pair_vertices
from rendezvous.boolmat import max_column_weight, row_image
from rendezvous.bounds import _LIFT_GRIDS, _lift_columns, _lift_grid
from rendezvous.semigroup import _maximal
from helpers import (
    entry_leq,
    entry_max_weight,
    escape_oracle,
    forward_reset_threshold,
    letter_set,
    lift_table_oracle,
    maximal,
    oracle_path,
    pair_distances_oracle,
    product_levels,
    reached,
    recorded_searches,
    row_tuple_product,
    semigroup_closure,
    stored_levels,
    subset_levels,
    undeduplicated_profile,
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


@PROPERTY
@given(nz_sets(max_m=2), st.integers(1, 4))
def test_explore_profile_and_exponent_match_oracle(mset, depth):
    result = explore(mset, max_depth=depth)
    profile, exponent = undeduplicated_profile(mset, max_depth=depth)
    assert profile_lengths(set_profile(mset, max_depth=depth)) == profile
    assert (result.exponent.length if result.exponent else None) == exponent


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


@PROPERTY
@given(nz_sets(), st.integers(1, 30))
def test_explore_never_stores_more_than_max_states(mset, cap):
    result = explore(mset, max_states=cap)
    assert result.explored <= cap
    if result.limit == "states":
        assert result.explored == cap


@PROPERTY
@given(nz_sets(max_n=4, max_m=2))
def test_explore_stores_a_dominating_part_of_the_closure(mset):
    with recorded_searches() as searches:
        result = explore(mset)
    stored = set(searches[0].keys)
    closure = semigroup_closure(mset)
    ones = ((1 << mset.n) - 1,) * mset.n
    assert stored <= closure
    assert all(any(entry_leq(rows, key) for key in stored) for rows in closure)
    if result.exhausted:
        assert result.explored == sum(map(len, product_levels(mset)[0]))
        assert result.exponent is None and ones not in closure
    else:
        assert result.exponent is not None and ones in closure


def assert_antichains(levels):
    for level in levels:
        for a in level:
            assert not any(b != a and entry_leq(a, b) for b in level)


@PROPERTY
@given(nz_sets())
def test_explore_levels_are_the_maximal_levels_of_the_oracle(mset):
    with recorded_searches() as searches:
        result = explore(mset)
    levels = stored_levels(searches[0])
    assert_antichains(levels)
    oracle, met = product_levels(mset)
    if result.limit is None:
        assert levels == oracle
        assert result.pruned == met - result.explored
    else:
        assert result.limit == "depth" and levels == oracle[: len(levels)]


@PROPERTY
@given(automata())
def test_subset_bfs_levels_are_the_maximal_levels_of_the_oracle(aut):
    with recorded_searches() as searches:
        result = subset_bfs(aut.n, aut.letters)
    levels = stored_levels(searches[0])
    assert_antichains(levels)
    oracle, met = subset_levels(aut.n, aut.letters)
    assert levels == oracle
    assert result.pruned == met - result.explored


def assert_levels_match(levels, oracle, stopped_at_target):
    """Stored levels equal the oracle's; a search that broke off at its
    target stores only part of its last level."""
    if stopped_at_target:
        *full, last = levels
        assert full == oracle[: len(full)] and last <= oracle[len(full)]
    else:
        assert levels == oracle


# Past 8 states a row, or a subset's mask, spans more than one byte-sized
# digit of the domination index.
@settings(PROPERTY, max_examples=30)
@given(thin_nz_sets(9, 12), st.integers(1, 5))
def test_explore_levels_past_one_byte_match_the_oracle(mset, depth):
    with recorded_searches() as searches:
        result = explore(mset, max_depth=depth)
    oracle, met = product_levels(mset, depth)
    assert_levels_match(stored_levels(searches[0]), oracle, result.exponent is not None)
    if result.exponent is None:
        assert result.pruned == met - result.explored


@settings(PROPERTY, max_examples=30)
@given(automata(min_n=9, max_n=17), st.integers(1, 3))
def test_subset_bfs_levels_past_one_byte_match_the_oracle(aut, depth):
    with recorded_searches() as searches:
        result = subset_bfs(aut.n, aut.letters, max_depth=depth)
    oracle, met = subset_levels(aut.n, aut.letters, depth + 1)
    assert_levels_match(stored_levels(searches[0]), oracle, result.reset is not None)
    if result.reset is None:
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
    candidates = [(key, c, 0) for c, key in enumerate(keys)]
    expected = maximal(keys)
    assert _maximal(candidates, digits) == [cand for cand in candidates if cand[0] in expected]


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
