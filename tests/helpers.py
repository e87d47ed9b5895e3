"""Shared generators and independent oracles for the test suite.

The oracles here deliberately use their own straightforward algorithms
(naive closures, entry-level checks) so production code is checked against
an independent route, not against itself.
"""

from __future__ import annotations

import random
from collections import deque
from contextlib import contextmanager
from fractions import Fraction
from unittest.mock import patch

from rendezvous import (
    BoolMatrix,
    MatrixSet,
    automata,
    bound_b_closed,
    check_primitivity,
    semigroup,
)
from rendezvous.automata import Automaton


def random_nz_matrix(rng: random.Random, n: int) -> BoolMatrix:
    rows = []
    for _ in range(n):
        row = rng.getrandbits(n) & ((1 << n) - 1)
        if row == 0:
            row = 1 << rng.randrange(n)
        rows.append(row)
    covered = 0
    for row in rows:
        covered |= row
    for j in range(n):
        if not (covered >> j) & 1:
            rows[rng.randrange(n)] |= 1 << j
    return BoolMatrix(n, tuple(rows))


def random_nz_set(rng: random.Random, n: int, m: int) -> MatrixSet:
    return MatrixSet.of([random_nz_matrix(rng, n) for _ in range(m)])


def random_primitive_set(
    rng: random.Random, n: int, m: int, attempts: int = 20000
) -> MatrixSet:
    for _ in range(attempts):
        candidate = random_nz_set(rng, n, m)
        if check_primitivity(candidate).primitive:
            return candidate
    raise RuntimeError(f"no primitive set found for n={n}, m={m}")


def random_automaton(rng: random.Random, n: int, m: int) -> Automaton:
    letters = tuple(
        BoolMatrix(n, tuple(1 << rng.randrange(n) for _ in range(n)))
        for _ in range(m)
    )
    return Automaton(n, letters, tuple(f"x{i}" for i in range(m)))


def letter_set(aut: Automaton) -> MatrixSet:
    """An automaton's letters as a matrix set, for replaying its words."""
    return MatrixSet(aut.n, aut.letters, aut.labels)


def naive_product(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Triple-loop boolean product on 0/1 nested lists (oracle route)."""
    n = len(a)
    return [
        [1 if any(a[i][s] and b[s][j] for s in range(n)) else 0 for j in range(n)]
        for i in range(n)
    ]


def as_lists(mat: BoolMatrix) -> list[list[int]]:
    return [[mat.entry(i, j) for j in range(mat.n)] for i in range(mat.n)]


def row_tuple_product(rows: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean product of two matrices given as bit-row tuples: row i is the
    OR of g's rows over the support of rows[i]."""
    out = []
    for mask in rows:
        acc = 0
        for s in range(len(g)):
            if (mask >> s) & 1:
                acc |= g[s]
        out.append(acc)
    return tuple(out)


def semigroup_closure(mset: MatrixSet, cap: int = 500_000) -> set[tuple[int, ...]]:
    """Full forward closure of the generated semigroup, as row-tuple keys."""
    gens = [g.rows for g in mset.generators]
    seen = set(gens)
    frontier = list(dict.fromkeys(gens))
    while frontier:
        nxt = []
        for rows in frontier:
            for g in gens:
                child = row_tuple_product(rows, g)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    if len(seen) > cap:
                        raise RuntimeError("closure cap exceeded")
        frontier = nxt
    return seen


def entry_leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Whether bit-row matrix ``a`` lies entrywise below ``b``: no row of
    ``a`` has a bit its row of ``b`` lacks."""
    return all(row_a & ~row_b == 0 for row_a, row_b in zip(a, b))


def maximal(cands) -> set:
    """The keys of ``cands`` (bit-row tuples) that no other key lies below,
    compared pairwise with ``entry_leq``."""
    return {a for a in cands if not any(b != a and entry_leq(a, b) for b in cands)}


def maximal_levels(
    roots, children, cap: int = 200_000, depth: int | None = None
) -> tuple[list[set], int]:
    """The stored levels of a search that keeps each level's maximal new
    keys, and the number of distinct keys it met (kept or not).

    Level 0 is the maximal roots; the next level is every child of the
    current level not seen before (every candidate, kept or not, counts as
    seen), filtered pairwise by ``maximal``.  Stops at the first level with
    no candidate, or once it holds ``depth`` levels.
    """
    seen = set(roots)
    level = maximal(seen)
    levels = []
    while level:
        levels.append(level)
        if len(levels) == depth:
            break
        cands = {c for key in level for c in children(key)} - seen
        seen |= cands
        if len(seen) > cap:
            raise RuntimeError("maximal-levels cap exceeded")
        level = maximal(cands)
    return levels, len(seen)


def product_levels(
    mset: MatrixSet, depth: int | None = None
) -> tuple[list[set[tuple[int, ...]]], int]:
    """``maximal_levels`` of the forward products, level 0 holding the
    generators (products of length 1)."""
    gens = [g.rows for g in mset.generators]
    return maximal_levels(
        gens, lambda rows: [row_tuple_product(rows, g) for g in gens], depth=depth
    )


def subset_levels(
    n: int, letters, depth: int | None = None
) -> tuple[list[set[tuple[int]]], int]:
    """``maximal_levels`` of the letter preimages of single states, as
    1-row keys ``(mask,)``; level d holds subsets of length-d words.  The
    preimage of S under a letter is the set of states whose row meets S,
    read entry by entry."""

    def preimages(key):
        (mask,) = key
        return [
            (sum(1 << i for i in range(n) if any(
                letter.entry(i, q) for q in range(n) if (mask >> q) & 1)),)
            for letter in letters
        ]

    return maximal_levels([(1 << q,) for q in range(n)], preimages, depth=depth)


def stored_levels(search) -> list[set]:
    """A ``LevelSearch``'s stored keys, viewed as bit-row tuples, grouped
    by word length: a product is its tuple of rows, a subset the 1-row
    tuple ``(mask,)``."""
    levels: dict[int, set] = {}
    for node, key in enumerate(search.keys):
        rows = key if isinstance(key, tuple) else (key,)
        levels.setdefault(len(search.word(node)), set()).add(rows)
    return [levels[d] for d in sorted(levels)]


@contextmanager
def recorded_searches():
    """The list of every ``LevelSearch`` that ``explore`` and ``subset_bfs``
    start inside the block, in order."""
    searches = []

    class Recorded(semigroup.LevelSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    with patch.object(semigroup, "LevelSearch", Recorded), patch.object(
        automata, "LevelSearch", Recorded
    ):
        yield searches


def entry_max_weight(rows: tuple[int, ...]) -> int:
    """Largest row or column weight of a square bit-row matrix, counted
    entry by entry."""
    n = len(rows)
    entries = [[(rows[i] >> j) & 1 for j in range(n)] for i in range(n)]
    row_weights = [sum(row) for row in entries]
    col_weights = [sum(entries[i][j] for i in range(n)) for j in range(n)]
    return max(row_weights + col_weights)


def undeduplicated_profile(
    mset: MatrixSet, max_depth: int
) -> tuple[dict[int, int], int | None]:
    """(rt_k for every k reached, exponent or None) over products of length
    at most ``max_depth``, expanding every word, equal products included.

    Products are plain row-tuple products and weights are counted entry by
    entry, so nothing is shared with the deduplicated production search.
    """
    n = mset.n
    gens = [g.rows for g in mset.generators]
    full = tuple((1 << n) - 1 for _ in range(n))
    profile: dict[int, int] = {}
    level = list(gens)
    for depth in range(1, max_depth + 1):
        for rows in level:
            for k in range(2, entry_max_weight(rows) + 1):
                profile.setdefault(k, depth)
        if full in level:
            return profile, depth
        level = [row_tuple_product(rows, g) for rows in level for g in gens]
    return profile, None


def lift_table_oracle(n: int, k: int) -> list[int]:
    """Doubled lift costs for h in [2, k], index h-2, by the scalar DP.

    Entry h is the max over p in [1, min(h, n-h)] of the cheaper route:
    jump to weight h+p at cost n(n-1)/2, or step to h+1 at cost
    n(n+1-a)/2 with a = max{n-h(h-1)-1, ceil((n-h)/p), 1}.  Weights at or
    above k cost nothing.
    """
    doubled = [0] * (k + 1)  # index by h; h >= k stays 0
    for h in range(k - 1, 1, -1):
        best = 0
        for p in range(1, min(h, n - h) + 1):
            a = max(n - h * (h - 1) - 1, -(-(n - h) // p), 1)
            via_jump = (doubled[h + p] if h + p <= k else 0) + n * (n - 1)
            via_step = doubled[h + 1] + n * (n + 1 - a)
            best = max(best, min(via_jump, via_step))
        doubled[h] = best
    return doubled[2:]


def bound_f_oracle(n: int, k: int) -> tuple[Fraction, int]:
    """min over h of B_h(n) (closed form) + lift(n, k, h) (scalar DP) in
    Fractions, with its smallest achieving h."""
    lifts = lift_table_oracle(n, k)
    best, arg = None, None
    for h in range(2, k + 1):
        cand = bound_b_closed(n, h) + Fraction(lifts[h - 2], 2)
        if best is None or cand < best:
            best, arg = cand, h
    return best, arg


def brute_force_primitive(mset: MatrixSet, cap: int = 500_000) -> bool:
    """Primitivity oracle: the all-ones matrix lies in the semigroup closure."""
    full = (1 << mset.n) - 1
    target = tuple(full for _ in range(mset.n))
    return target in semigroup_closure(mset, cap)


def reverse_bfs(reverse, sources):
    """Dict-based BFS over reversed pair-digraph edges from ``sources``, in
    the program's queue order: sources as given, each vertex's predecessor
    list as given.  Returns ``dist`` (vertex -> distance) and ``next_hop``
    (vertex -> (label, successor))."""
    dist = {s: 0 for s in sources}
    next_hop = {}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        for u, label in reverse[v]:
            if u not in dist:
                dist[u] = dist[v] + 1
                next_hop[u] = (label, v)
                queue.append(u)
    return dist, next_hop


def pair_distances_oracle(mset: MatrixSet, target=None):
    """Distances to the singletons (or to ``target``) over the pair digraph,
    whose reverse adjacency is built from the entry condition: (i, j) -> (a, b)
    under g iff g(i,a) g(j,b) or g(i,b) g(j,a).  Predecessor lists come out in
    (row-major pair, generator) order."""
    n = mset.n
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    reverse = {v: [] for v in pairs}
    for i, j in pairs:
        for g_idx, g in enumerate(mset.generators):
            row_i = [a for a in range(n) if g.entry(i, a)]
            row_j = [b for b in range(n) if g.entry(j, b)]
            for v in sorted({(min(a, b), max(a, b)) for a in row_i for b in row_j}):
                reverse[v].append(((i, j), g_idx))
    sources = [target] if target is not None else [(s, s) for s in range(n)]
    return reverse_bfs(reverse, sources)


def reached(table) -> dict[tuple[int, int], int]:
    """A flat ``DistanceTable``'s distances as vertex -> distance, reached
    pairs only."""
    return {divmod(v, table.n): d for v, d in enumerate(table.dist) if d is not None}


def oracle_path(next_hop, source):
    """Labels and endpoint of the oracle's shortest path from ``source``."""
    word, v = [], source
    while v in next_hop:
        label, v = next_hop[v]
        word.append(label)
    return word, v


def forward_reset_threshold(aut: Automaton, max_depth: int = 200) -> int | None:
    """Reset threshold by forward BFS over letter products looking for an
    all-ones column (independent of the backward subset BFS)."""
    n = aut.n
    gens = [as_lists(letter) for letter in aut.letters]
    current = [g for g in gens]
    seen = {tuple(tuple(r) for r in g) for g in current}

    def has_ones_column(mat: list[list[int]]) -> bool:
        return any(all(mat[i][j] for i in range(n)) for j in range(n))

    depth = 1
    while current and depth <= max_depth:
        for mat in current:
            if has_ones_column(mat):
                return depth
        nxt = []
        for mat in current:
            for g in gens:
                child = naive_product(mat, g)
                key = tuple(tuple(r) for r in child)
                if key not in seen:
                    seen.add(key)
                    nxt.append(child)
        current = nxt
        depth += 1
    return None


def escape_oracle(mat: BoolMatrix, k: int) -> dict:
    """``evaluate_escape``'s fields from the definition, with column
    supports as sets of row indices.

    A matrix is in scope when it has no zero row or column, every row and
    column weight is at most k, and some column has weight exactly k.  The
    escape count of such a column c is the number of columns whose support
    is not inside supp(c); ``value`` is its min over those c.  ``p`` is the
    largest |supp(j) - supp(c)| over those c and every other column j, and
    the refined fields repeat the min over the c where some j attains p.
    """
    n = mat.n
    entries = as_lists(mat)
    rows = [{j for j in range(n) if entries[i][j]} for i in range(n)]
    supports = [{i for i in range(n) if entries[i][j]} for j in range(n)]
    for kind, lines in (("row", rows), ("column", supports)):
        for i, line in enumerate(lines):
            if not line:
                return {"member": False, "reason": f"zero {kind} {i}"}
    for kind, lines in (("row", rows), ("column", supports)):
        for i, line in enumerate(lines):
            if len(line) > k:
                return {"member": False, "reason": f"{kind} {i} has weight {len(line)} > {k}"}
    heavy = [c for c in range(n) if len(supports[c]) == k]
    if not heavy:
        return {"member": False, "reason": f"no column of weight {k}"}

    def escaping(c):
        return [j for j in range(n) if not supports[j] <= supports[c]]

    p = max(len(supports[j] - supports[c]) for c in heavy for j in range(n) if j != c)
    refined = [
        c for c in heavy if any(len(supports[j] - supports[c]) == p for j in range(n) if j != c)
    ]
    return {
        "member": True,
        "reason": None,
        "value": min(len(escaping(c)) for c in heavy),
        "columns": tuple(heavy),
        "p": p,
        "refined_value": min(len(escaping(c)) for c in refined),
        "refined_columns": tuple(refined),
    }
