import random

import pytest

from rendezvous import (
    BoolMatrix,
    MatrixSet,
    NonNZError,
    UnreachableVertexError,
    check_primitivity,
    cpr_set,
    example_set,
    kari_set,
    PrimitivityReport,
    pair_id,
    singleton_distances,
    witness_replay,
)
from rendezvous.pairgraph import build_pair_digraph, pair_vertices
from helpers import (
    brute_force_primitive,
    random_nz_set,
    random_primitive_set,
    reached,
    reverse_bfs,
)


def cycle_set(n):
    rows = tuple(1 << ((i + 1) % n) for i in range(n))
    return MatrixSet.of([BoolMatrix(n, rows)])


def oracle_edges(mset):
    """Edge set straight from the defining entry condition."""
    n = mset.n
    edges = set()
    for i in range(n):
        for j in range(i, n):
            for g_idx, g in enumerate(mset.generators):
                for a in range(n):
                    for b in range(a, n):
                        fwd = g.entry(i, a) and g.entry(j, b)
                        crossed = g.entry(i, b) and g.entry(j, a)
                        if fwd or crossed:
                            edges.add(((i, j), (a, b), g_idx))
    return edges


def bfs_oracle_distances(edges, n, targets):
    """Textbook BFS on the oracle edge set, reversed."""
    rev = {}
    for (u, v, _g) in edges:
        rev.setdefault(v, set()).add(u)
    dist = {t: 0 for t in targets}
    queue = list(targets)
    while queue:
        v = queue.pop(0)
        for u in sorted(rev.get(v, ())):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


class TestBuild:
    def test_vertex_count(self):
        for n in range(1, 13):
            pd = build_pair_digraph(cycle_set(n))
            assert len(pair_vertices(n)) == n * (n + 1) // 2
            assert set(pd.adjacency) == set(pair_vertices(n))

    def test_example_edges_match_entry_condition(self):
        ex = example_set()
        pd = build_pair_digraph(ex)
        got = {
            (u, v, g) for u, succs in pd.adjacency.items() for (v, g) in succs
        }
        assert got == oracle_edges(ex)

    def test_singleton_under_permutation_has_unique_successor(self):
        pd = build_pair_digraph(cycle_set(4))
        for s in range(4):
            succs = pd.adjacency[(s, s)]
            assert len(succs) == 1
            target = ((s + 1) % 4, (s + 1) % 4)
            assert succs[0] == (target, 0)

    def test_bfs_follows_the_reversal_of_adjacency(self):
        # The BFS reads predecessors off the generators' columns; they must be
        # the explicit digraph's edges reversed, in (pair, generator) order.
        rng = random.Random(15)
        sets = [example_set(), cpr_set(), kari_set(), cycle_set(5)]
        sets += [random_nz_set(rng, rng.randint(1, 7), rng.randint(1, 3)) for _ in range(30)]
        for mset in sets:
            pd = build_pair_digraph(mset)
            reversal = {v: [] for v in pair_vertices(mset.n)}
            for u, succs in pd.adjacency.items():
                for v, g_idx in succs:
                    reversal[v].append((u, g_idx))
            dist, next_hop = reverse_bfs(reversal, [(s, s) for s in range(mset.n)])
            table = singleton_distances(mset)
            assert reached(table) == dist
            for (i, j), (label, (a, b)) in next_hop.items():
                v = pair_id(mset.n, i, j)
                assert (table.label[v], table.succ[v]) == (label, pair_id(mset.n, a, b))

    def test_non_nz_rejected_with_generator_name(self):
        bad = MatrixSet.of(
            [BoolMatrix.identity(2), BoolMatrix.from_rows([[1, 0], [1, 0]])],
            labels=("good", "bad"),
        )
        with pytest.raises(NonNZError) as err:
            build_pair_digraph(bad)
        assert err.value.label == "bad"
        assert (err.value.kind, err.value.index) == ("column", 1)


class TestDistances:
    def test_singletons_at_distance_zero(self):
        dist = reached(singleton_distances(example_set()))
        for s in range(3):
            assert dist[(s, s)] == 0

    def test_permutation_pairs_unreachable(self):
        for n in range(2, 6):
            dist = reached(singleton_distances(cycle_set(n)))
            for (i, j) in pair_vertices(n):
                assert ((i, j) in dist) == (i == j)

    def test_example_distances_match_oracle(self):
        ex = example_set()
        table = singleton_distances(ex)
        oracle = bfs_oracle_distances(
            oracle_edges(ex), 3, [(s, s) for s in range(3)]
        )
        assert reached(table) == oracle
        assert set(oracle) == set(pair_vertices(3))

    def test_targeted_distances_match_oracle(self):
        ex = example_set()
        for s in range(3):
            table = singleton_distances(ex, target=(s, s))
            oracle = bfs_oracle_distances(oracle_edges(ex), 3, [(s, s)])
            assert reached(table) == oracle

    def test_non_singleton_target_rejected(self):
        with pytest.raises(ValueError):
            singleton_distances(example_set(), target=(0, 1))


class TestMergingWord:
    # A merging word is the path of a distance table from a pair to the
    # singleton it reaches.
    def test_singleton_source_gives_empty_word(self):
        assert singleton_distances(example_set()).path_from((1, 1)) == ([], (1, 1))

    def test_example_word_length_is_bfs_distance(self):
        table = singleton_distances(example_set())
        word, _ = table.path_from((0, 1))
        assert len(word) == reached(table)[(0, 1)]

    def test_word_walks_real_edges(self):
        rng = random.Random(11)
        for _ in range(20):
            mset = random_primitive_set(rng, rng.randint(2, 5), 2)
            pd = build_pair_digraph(mset)
            table = singleton_distances(mset)
            dist = reached(table)
            for source in pair_vertices(mset.n):
                word, end = table.path_from(source)
                assert len(word) == dist[source]
                v = source
                for g in word:
                    hop = pair_id(mset.n, *v)
                    succ = divmod(table.succ[hop], mset.n)
                    assert table.label[hop] == g
                    assert (succ, g) in pd.adjacency[v]
                    v = succ
                assert v == end
                assert v[0] == v[1]

    def test_support_union_property(self):
        # Replaying a merging word after any generator collects both source
        # columns inside the target column.
        rng = random.Random(12)
        for _ in range(15):
            mset = random_primitive_set(rng, rng.randint(2, 5), 2)
            table = singleton_distances(mset)
            for (i, j) in pair_vertices(mset.n):
                word, (k, _) = table.path_from((i, j))
                tail = witness_replay(mset, word)
                for a in mset.generators:
                    prod = a @ tail
                    union = a.col(i) | a.col(j)
                    assert union & ~prod.col(k) == 0

    def test_targeted_word_reaches_requested_singleton(self):
        ex = example_set()
        for s in range(3):
            table = singleton_distances(ex, target=(s, s))
            dist = reached(table)
            for source in pair_vertices(3):
                word, end = table.path_from(source)
                assert end == (s, s)
                assert len(word) == dist[source]

    def test_unreachable_raises_with_source(self):
        with pytest.raises(UnreachableVertexError) as err:
            singleton_distances(cycle_set(3)).path_from((0, 1))
        assert err.value.source == (0, 1)


class TestPrimitivity:
    def test_example_is_primitive(self):
        assert check_primitivity(example_set()).primitive

    def test_cpr_and_kari_are_primitive(self):
        assert check_primitivity(cpr_set()).primitive
        assert check_primitivity(kari_set()).primitive

    def test_cycle_is_irreducible_but_not_primitive(self):
        report = check_primitivity(cycle_set(4))
        assert not report.primitive
        assert report.irreducible
        assert report.unmergeable_pair is not None

    def test_report_carries_distances_outside_comparison(self):
        report = check_primitivity(cpr_set())
        assert report.distances == singleton_distances(cpr_set())
        assert report.distances.target is None
        assert not hasattr(report, "pair_digraph")
        assert report == PrimitivityReport(primitive=True, irreducible=True)
        assert "distances" not in repr(report)

    def test_reducible_reports_witness(self):
        upper = BoolMatrix.from_rows([[1, 1], [0, 1]])
        report = check_primitivity(MatrixSet.of([upper]))
        assert not report.primitive
        assert not report.irreducible
        assert report.reducibility_witness == (1, 0)

    def test_non_nz_rejected(self):
        bad = MatrixSet.of([BoolMatrix.from_rows([[1, 1], [0, 0]])])
        with pytest.raises(NonNZError):
            check_primitivity(bad)

    def test_agrees_with_semigroup_oracle(self):
        rng = random.Random(13)
        checked = 0
        while checked < 500:
            n = rng.randint(2, 4)
            m = rng.randint(1, 3)
            mset = random_nz_set(rng, n, m)
            assert check_primitivity(mset).primitive == brute_force_primitive(mset)
            checked += 1

    def test_max_singleton_distance_bound(self):
        # A shortest merging path repeats no vertex and passes no
        # intermediate singleton, so its length is at most |V| - n.
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(2, 6)
            mset = random_primitive_set(rng, n, 2)
            table = singleton_distances(mset)
            bound = n * (n + 1) // 2 - n
            assert max(reached(table).values()) <= bound
