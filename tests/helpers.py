"""Shared generators and independent oracles for the test suite.

The oracles here deliberately use their own straightforward algorithms
(naive closures, entry-level checks) so production code is checked against
an independent route, not against itself.
"""

from __future__ import annotations

import functools
import random
import unicodedata
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


def shift_plus_one(n: int) -> MatrixSet:
    """The cyclic shift i -> i+1 (mod n) with one extra 1 at (0, 0): one
    NZ generator, primitive at every n (an n-cycle and a loop)."""
    rows = [1 << (i + 1) % n for i in range(n)]
    rows[0] |= 1
    return MatrixSet.of([BoolMatrix(n, tuple(rows))])


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


def digit_row_mask(row: str) -> int:
    """A set-file row read character by character: bit j is set when
    character j is a digit of nonzero value, in whatever script."""
    return sum(1 << j for j, ch in enumerate(row) if unicodedata.digit(ch))


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


def semigroup_closure(
    mset: MatrixSet, cap: int = 500_000, bound: int | None = None, h=None
) -> dict[tuple[int, ...], int]:
    """Full forward closure of the generated semigroup: each product, as a
    row-tuple key, with the length d of its shortest word.  With ``bound``
    U, only the products with d + h <= U, h being ``product_distance``
    unless given: h drops by at most one per letter, so every prefix of a
    shortest word of such a product is one too, and the breadth-first
    search that drops the others still meets each at its shortest
    length."""
    gens = [g.rows for g in mset.generators]
    h = h or product_distance(mset)
    within = lambda rows, length: bound is None or (
        h(rows) is not None and length + h(rows) <= bound)
    seen = {rows: 1 for rows in gens if within(rows, 1)}
    frontier = list(seen)
    length = 1
    while frontier:
        length += 1
        nxt = []
        for rows in frontier:
            for g in gens:
                child = row_tuple_product(rows, g)
                if child not in seen and within(child, length):
                    seen[child] = length
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
        cands = {c for key in level for c in children(key) if c not in seen}
        seen |= cands
        if len(seen) > cap:
            raise RuntimeError("maximal-levels cap exceeded")
        level = maximal(cands)
    return levels, len(seen)


@functools.lru_cache(maxsize=4)
def entry_rows(mset: MatrixSet) -> list[list[int]]:
    """Each generator's rows as bit masks, read entry by entry."""
    n = mset.n
    return [
        [sum(1 << j for j in range(n) if g.entry(s, j)) for s in range(n)]
        for g in mset.generators
    ]


def subset_distance(mset: MatrixSet, subset: int) -> int | None:
    """The length of the shortest word whose forward image of the row set
    ``subset`` (a mask) is every state, by a breadth-first search forward
    from it; None if no word does.  The image of S under g is the set of
    columns j with some entry g(s, j), s in S, read entry by entry."""
    n = mset.n
    full = (1 << n) - 1
    rows = entry_rows(mset)
    dist = {subset: 0}
    queue = deque([subset])
    while queue:
        current = queue.popleft()
        if current == full:
            return dist[current]
        for g_rows in rows:
            image = 0
            for s in range(n):
                if (current >> s) & 1:
                    image |= g_rows[s]
            if image not in dist:
                dist[image] = dist[current] + 1
                queue.append(image)
    return None


def union_spread(mset: MatrixSet):
    """The spread of a row set S (a mask) in the union digraph, which has
    an edge s -> t when some generator has entry (s, t): the largest, over
    the states t, of the least distance d(s, t) over s in S, d read off one
    breadth-first search per state, entry by entry; None when some state
    lies at no distance from S."""
    n = mset.n
    rows = entry_rows(mset)
    dist = []
    for source in range(n):
        reach = {source: 0}
        queue = deque([source])
        while queue:
            s = queue.popleft()
            for t in range(n):
                if t not in reach and any((g_rows[s] >> t) & 1 for g_rows in rows):
                    reach[t] = reach[s] + 1
                    queue.append(t)
        dist.append(reach)

    def spread(subset):
        worst = 0
        for t in range(n):
            near = [dist[s][t] for s in range(n) if (subset >> s) & 1 and t in dist[s]]
            if not near:
                return None
            worst = max(worst, min(near))
        return worst

    return spread


def product_distance(mset: MatrixSet, row_distance=None):
    """h(P) = max over the rows of P of ``row_distance`` (by default
    ``subset_distance``), for row-tuple products P: a lower bound on how
    many more letters P needs to become the all-ones matrix; None where
    some row's distance is None.  Row distances are cached per call."""
    row_distance = row_distance or functools.partial(subset_distance, mset)
    cache: dict[int, int | None] = {}

    def h(rows):
        worst = 0
        for row in rows:
            if row not in cache:
                cache[row] = row_distance(row)
            if cache[row] is None:
                return None
            worst = max(worst, cache[row])
        return worst

    return h


def product_levels(
    mset: MatrixSet, depth: int | None = None
) -> tuple[list[set[tuple[int, ...]]], int]:
    """``maximal_levels`` of the forward products, level 0 holding the
    generators (products of length 1)."""
    gens = [g.rows for g in mset.generators]
    return maximal_levels(
        gens, lambda rows: [row_tuple_product(rows, g) for g in gens], depth=depth
    )


def exponent_search(mset: MatrixSet, max_depth: int, h=None):
    """What ``explore``'s bounded search on a primitive set stores under
    ``max_depth`` D, as ``(stored, exponent, cut)``, with f(P) = d(P) + h(P)
    for d the shortest length and h ``product_distance`` unless given.

    ``exponent`` is E when E <= D, else None: the least bound U whose
    ``semigroup_closure`` holds the all-ones matrix.  ``stored`` maps every
    product P with f(P) <= E (with f(P) <= D when E is None) to d(P).
    ``cut`` is None when E <= D, else the least f above D of a product:
    every such product's shortest word has a first prefix past D, whose
    parent is stored (or which is a generator), so it is the least
    d(P) + 1 + h(P g) above D over the stored P and generators g whose
    product is not stored, and 1 + h(g) over the generators not stored.
    """
    ones = ((1 << mset.n) - 1,) * mset.n
    h = h or product_distance(mset)
    for bound in range(1, max_depth + 1):
        stored = semigroup_closure(mset, bound=bound, h=h)
        if ones in stored:
            return stored, bound, None
    gens = [g.rows for g in mset.generators]
    met = [(0, g) for g in gens]
    met += [(d, row_tuple_product(P, g)) for P, d in stored.items() for g in gens]
    cut = min(d + 1 + h(child) for d, child in met if child not in stored)
    return stored, None, cut


def entry_preimages(n: int, letters):
    """The preimages of a 1-row key ``(mask,)`` under each letter, as 1-row
    keys: the states whose row of the letter meets the mask, read entry by
    entry."""

    def preimages(key):
        (mask,) = key
        return [
            (sum(1 << i for i in range(n) if any(
                letter.entry(i, q) for q in range(n) if (mask >> q) & 1)),)
            for letter in letters
        ]

    return preimages


def subset_levels(
    n: int, letters, depth: int | None = None
) -> tuple[list[set[tuple[int]]], int]:
    """``maximal_levels`` of the letter preimages of single states, as
    1-row keys ``(mask,)``; level d holds subsets of length-d words."""
    roots = [(1 << q,) for q in range(n)]
    return maximal_levels(roots, entry_preimages(n, letters), depth=depth)


def plain_subset_levels(
    n: int, letters, depth: int | None = None
) -> list[set[tuple[int]]]:
    """The letter preimages of single states by a plain breadth-first
    search, as 1-row keys ``(mask,)``: level 0 holds the singletons and
    level d every distinct preimage first met at length d, none dropped
    for lying inside another.  Stops at the first empty level, or once it
    holds ``depth`` levels."""
    preimages = entry_preimages(n, letters)
    level = {(1 << q,) for q in range(n)}
    seen = set(level)
    levels = []
    while level and len(levels) != depth:
        levels.append(level)
        level = {c for key in level for c in preimages(key) if c not in seen}
        seen |= level
    return levels


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
    start inside the block, in order; one refused by its constructor is
    not in it."""
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


def distinct_product_profile(mset: MatrixSet) -> tuple[dict[int, int], int | None]:
    """(rt_k for every k reached, exponent or None) by a plain breadth-first
    search over distinct products: level d holds the products of length d
    not met at a shorter length, and none is dropped for lying below
    another.  Stops at the all-ones matrix or once a level is empty.

    Products are plain row-tuple products and weights are counted entry by
    entry, so nothing is shared with the pruned production searches.
    """
    n = mset.n
    gens = [g.rows for g in mset.generators]
    full = tuple((1 << n) - 1 for _ in range(n))
    profile: dict[int, int] = {}
    level = list(dict.fromkeys(gens))
    seen = set(level)
    depth = 1
    while level:
        for rows in level:
            for k in range(2, entry_max_weight(rows) + 1):
                profile.setdefault(k, depth)
        if full in level:
            return profile, depth
        level = list(dict.fromkeys(
            child for rows in level for g in gens
            if (child := row_tuple_product(rows, g)) not in seen
        ))
        seen.update(level)
        depth += 1
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
