"""Exact search of the boolean semigroup of a matrix set.

``LevelSearch`` is the one search of the workbench: it owns the stored
keys, their origins (parent and letter in one int), the witness words,
the dimension, depth and state limits and the exhaustion test.  Both
exact searches run on it: ``explore`` here, the exponent search with
boolean products as keys, and ``automata.subset_bfs``, the k-rendezvous
and reset search with state subsets as keys.  Its one loop is a bucketed
A* on the length plus a distance, ``met`` holding each key's shortest
level; with distance 0 it is level-order.  It stores and expands a whole
level at a time: the caller's ``expand`` returns every child of a level
in one list, iteration yields the first node of each level stored, and a
caller that finds its target inside a level ends the search there with
``stop``.  ``explore`` is the A* at every n, its distance a table over
row sets at n <= 13 (on kari it stores 7,606 products; the semigroup has
832,573 of length up to the exponent) and a spread in the union digraph,
filled on demand, past it.  The subset search is level-order: at
n <= 13 it stores every new subset of a level, its children read off
per-letter preimage tables; past that each level keeps its maximal keys,
found with the byte-digit index ``_maximal``.  A product's child row is
the ``row_image`` of the parent row under the generator, memoized per
generator.
``note_first_reach`` is the one first-reach recorder, shared by the subset
search and the heuristic.  Keys are collected in discovery order with
children in generator order, so the witness words are reproducible.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from operator import and_, getitem
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .boolmat import BoolMatrix, MatrixSet, bits, row_image, row_image_table
from .errors import DimensionError

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)

DEFAULT_MAX_STATES = 10_000_000
# Keys are Python ints of any width, so the cap guards memory, not word
# size: past n = 64 a search under the default state cap can store
# millions of keys at about 210 B per stored subset.
EXACT_SEARCH_DIMENSION_CAP = 64
# The exponent search's distance table has 2^n one-byte entries; past this
# n the search reads the table-free ``SubsetSpread`` instead.  Every call
# up to it builds the table first: at n = 13 that adds about 2.5 ms to a
# search the bound does not help, at n = 16 about 25-35 ms (one random
# pair, 2-vCPU shared host).  Past it the subset search builds no
# preimage tables either.
DISTANCE_TABLE_DIMENSION_CAP = 13
# A distance no word reaches; reached distances are clamped below it.
UNREACHED = 255


def default_max_depth(n: int) -> int:
    """Depth safely beyond the exponent of any conjecture-respecting set."""
    return 2 * (n - 1) ** 2 + n


@dataclass(frozen=True)
class Reach:
    """A quantity first attained at ``length`` by the product spelled by ``word``."""

    length: int
    word: tuple[int, ...]


def note_first_reach(
    profile: dict[int, T], weight: int, value: Callable[[], T]
) -> None:
    """Record ``value()`` as the first reach of every k in [2, weight] that
    ``profile`` lacks; callers visit candidates in nondecreasing length.

    Each call fills all of [2, weight], so a profile holds k = 2..len+1
    without gaps: the largest weight reached is ``len(profile) + 1``, and
    an n x n profile is complete at ``len(profile) == n - 1``.  ``value``
    (a witness word costs a walk) is called only when some k is new.
    """
    start = len(profile) + 2
    if weight >= start:
        reach = value()
        for k in range(start, weight + 1):
            profile[k] = reach


@dataclass
class LevelResult:
    """What a ``LevelSearch`` did and why it stopped: the nodes stored,
    the dominated candidates dropped (``pruned``, 0 on a search that tests
    no domination), the deepest level stored, and either ``exhausted`` (no
    new node at the last level) or the ``limit`` that cut it short ("depth"
    or "states")."""

    n: int
    explored: int = 0
    pruned: int = 0
    depth_reached: int = 0
    exhausted: bool = False
    limit: str | None = None


@dataclass
class SearchResult(LevelResult):
    """``explore``'s result: the counts of its one search, which stores at
    most ``max_states`` keys, and ``lower_bound``, a length no shorter word
    reaches the all-ones matrix at (the exponent's length once found)."""

    exponent: Reach | None = None
    lower_bound: int = 1


_BYTE_BITS = tuple(tuple(bits(value)) for value in range(256))


class _Meets(dict):
    """Digit value -> AND of one digit position's slots over the value's set
    bits, filled on demand; 0 maps to -1, the empty AND."""

    def __init__(self, slot: list[int]):
        super().__init__({0: -1})
        self.slot = slot

    def __missing__(self, value: int) -> int:
        low = value & -value
        meet = self[value ^ low] & self.slot[low.bit_length() - 1]
        self[value] = meet
        return meet


def _maximal(keys: list[K], digits: Callable[[K], Sequence[int]]) -> list[bool]:
    """Which of the distinct ``keys`` (at least one) no other key dominates,
    one flag per key.

    A strict dominator has more set bits, so keys are taken in classes of
    equal weight, heaviest first, and each is tested only against the kept
    keys of heavier classes.  Slot b of digit position p is a bitset over
    those with bit b of digit p set; a key is dominated iff the AND of the
    slots of its set bits is nonzero.  That AND is one table lookup per
    digit: per class, ``_Meets`` memoises the AND of a digit value's slots,
    valid until the class's kept keys join the slots together, once per
    distinct digit value.
    """
    views = [digits(key) for key in keys]
    weights = [sum(map(int.bit_count, view)) for view in views]
    slots = [[0] * 8 for _ in views[0]]
    keep = [False] * len(views)
    kept = 0
    order = sorted(range(len(views)), key=weights.__getitem__, reverse=True)
    for _, group in itertools.groupby(order, weights.__getitem__):
        start = kept
        heavier = (1 << start) - 1
        meets = [_Meets(slot) for slot in slots]
        fresh = [collections.defaultdict(int) for _ in slots]
        for c in group:
            view = views[c]
            if heavier and functools.reduce(and_, map(getitem, meets, view), heavier):
                continue
            keep[c] = True
            bit = 1 << (kept - start)
            kept += 1
            for values, value in zip(fresh, view):
                values[value] |= bit
        for slot, values in zip(slots, fresh):
            for value, extra in values.items():
                extra <<= start
                for b in _BYTE_BITS[value]:
                    slot[b] |= extra
    return keep


class LevelSearch:
    """The one search over hashable keys, for products and for subsets.

    The roots, ``(key, letter)`` pairs with letter -1 for none, form level
    ``depth``; a key at level d has m children at level d + 1, one per
    letter.  ``expand(keys)`` returns the children of a list of keys, all
    m of each key in turn, in letter order.  The search stores one level
    at a time: a level is the entries of one bucket (f, d), see below, and
    iterating yields the node of the first key of each level stored, after
    the level is stored.  Node i is the i-th stored key, ``keys[i]``,
    reached by a shortest word; its ``origins[i]`` is parent * m + letter,
    a root's parent being -1 (so a root's origin is negative, and -m - 1
    for one without a letter), and ``word``, ``parents`` and ``letters``
    read the origins back.  A caller that finds its target at a node calls
    ``stop(node)`` and breaks: the search then holds the keys, the count
    and the word that a search yielding node by node would hold there.
    ``result`` records the nodes stored, the deepest level stored and why
    the search stopped by itself: no key was left to store (``exhausted``,
    at ``max_depth`` too when no key waits past it), or a key waits past
    ``max_depth`` or ``max_states`` keys are stored (``limit``; a level
    that would pass the cap is stored up to it).  ``bound`` then bounds f
    from below over the keys not stored: the f being taken at a state cut,
    the least f past ``max_depth`` at a depth cut, f = d + distance(key)
    at the key's shortest length d.

    The search is a bucketed A*; ``distance`` must be consistent
    (distance(A) <= 1 + distance(B) for every child B of A), and without
    one it is 0, so f = d and the search is level-order.  A key met at
    level d waits in bucket f at level d, and ``met`` maps it to the
    shortest level it has waited at: a child waits only when it beats that
    level.  Buckets are taken in rising f, each in rising level; an entry
    whose key has since been met shorter is skipped, the others are stored
    and their children wait.  f never falls along a word, and a prefix of
    a shortest word is one, so every key of f <= F is stored at its
    shortest length before bucket F + 1 is taken.  In level order no key
    is met shorter once met, so level d holds every key first met at
    length d, in discovery order.

    With ``digits`` only the maximal keys of a level are stored, and
    ``result.pruned`` counts the rest; callers pass it in level order
    only.  ``digits(key)`` views a key as byte-sized digits, as many for
    every key (a subset's mask bytes); A is dominated by B when every set
    bit of A's digits is set in B's.  This is exact for every monotone
    target (a subset of size k, the full subset): A <= B gives AW <= BW
    for every word W, so by induction on d every key of length d lies
    below a stored key of length <= d (the same letter's child of the key
    above its parent is a root or a met key of a level <= d, and lies
    below a stored one), and the top key dominates every other one.

    Every exact search obeys the limits set here before any key is stored:
    ``result.n`` at most ``EXACT_SEARCH_DIMENSION_CAP`` (else
    ``DimensionError``), ``max_states`` (the most keys this search stores)
    ``DEFAULT_MAX_STATES`` when None, and ``max_depth`` unbounded when
    None; a given limit must be at least 1.
    """

    def __init__(
        self,
        result: LevelResult,
        m: int,
        expand: Callable[[list[K]], list[K]],
        digits: Callable[[K], Sequence[int]] | None,
        roots: Iterable[tuple[K, int]],
        depth: int,
        max_depth: int | None,
        max_states: int | None,
        distance: Callable[[K], int] | None = None,
    ):
        self.check_limits(result.n, max_depth, max_states)
        self.result = result
        self.m = m
        self.expand = expand
        self.digits = digits
        self.roots = roots
        self.depth = depth
        self.max_depth = math.inf if max_depth is None else max_depth
        self.max_states = DEFAULT_MAX_STATES if max_states is None else max_states
        self.distance = distance
        self.keys: list[K] = []
        self.origins: list[int] = []
        self.met: dict[K, int] = {}
        self.bound = depth

    @staticmethod
    def check_limits(n: int, max_depth: int | None, max_states: int | None) -> None:
        if n > EXACT_SEARCH_DIMENSION_CAP:
            raise DimensionError(
                f"exact search supports n <= {EXACT_SEARCH_DIMENSION_CAP}, got {n}"
            )
        if any(limit is not None and limit < 1 for limit in (max_depth, max_states)):
            raise ValueError(
                f"need max_depth >= 1 and max_states >= 1, got {max_depth} and {max_states}"
            )

    @property
    def parents(self) -> list[int]:
        return [origin // self.m if origin >= 0 else -1 for origin in self.origins]

    @property
    def letters(self) -> list[int]:
        return [origin % self.m if origin >= -self.m else -1 for origin in self.origins]

    def word(self, node: int) -> tuple[int, ...]:
        """Letters on the path from the node's root to the node, root first."""
        m, origins = self.m, self.origins
        out = []
        while node >= 0 and origins[node] >= -m:
            node, letter = divmod(origins[node], m)
            out.append(letter)
        return tuple(reversed(out))

    def stop(self, node: int) -> None:
        """End the search at ``node`` of the level last yielded: the nodes
        after it are dropped, as if it were the last node stored."""
        del self.keys[node + 1 :], self.origins[node + 1 :]
        self.result.explored = node + 1

    def __iter__(self) -> Iterator[int]:
        keys, origins, met = self.keys, self.origins, self.met
        expand, distance, digits, result = self.expand, self.distance, self.digits, self.result
        m, max_depth, max_states = self.m, self.max_depth, self.max_states
        # (f, d) -> the keys waiting in bucket f at level d, in the order
        # they were met, and their origins; ``order`` heaps the pairs.
        waiting: dict[tuple[int, int], tuple[list[K], list[int]]] = {}
        order: list[tuple[int, int]] = []
        depth = self.depth
        # The (origin, key) pairs met at ``depth``.
        candidates: Iterable[tuple[int, K]] = [(letter - m, key) for key, letter in self.roots]
        while True:
            if distance is None:
                # Level order: a key met once is never met shorter.
                level: list[K] = []
                level_origins: list[int] = []
                for origin, key in candidates:
                    if key not in met:
                        met[key] = depth
                        level.append(key)
                        level_origins.append(origin)
                if level:
                    waiting[depth, depth] = level, level_origins
                    heapq.heappush(order, (depth, depth))
            else:
                later = depth + 1
                for origin, key in candidates:
                    if met.get(key, later) > depth:
                        met[key] = depth
                        pair = (depth + distance(key), depth)
                        bucket = waiting.get(pair)
                        if bucket is None:
                            bucket = waiting[pair] = [], []
                            heapq.heappush(order, pair)
                        bucket[0].append(key)
                        bucket[1].append(origin)
            if not order or order[0][0] > max_depth:
                break
            f, depth = heapq.heappop(order)
            self.bound = f
            level, level_origins = waiting.pop((f, depth))
            if distance is not None:
                # Skip the entries whose keys were met shorter since;
                # without a distance no key is.
                live = [met[key] == depth for key in level]
                if not all(live):
                    level = list(itertools.compress(level, live))
                    if not level:
                        candidates = ()
                        continue
                    level_origins = list(itertools.compress(level_origins, live))
            if digits is not None:
                keep = _maximal(level, digits)
                survivors = list(itertools.compress(level, keep))
                result.pruned += len(level) - len(survivors)
                level = survivors
                level_origins = list(itertools.compress(level_origins, keep))
            start = len(keys)
            if depth > result.depth_reached:
                result.depth_reached = depth
            capped = len(level) >= max_states - start
            if capped:
                del level[max_states - start :], level_origins[max_states - start :]
            keys += level
            origins += level_origins
            result.explored = len(keys)
            yield start
            if capped:
                result.limit = "states"
                return
            candidates = enumerate(expand(level), start * m)
            depth += 1
        # Every entry left waits past max_depth; the least f of one whose key
        # was not met shorter since bounds the target's.
        cut = [f for (f, d), (level, _) in waiting.items() if any(met[key] == d for key in level)]
        if cut:
            result.limit = "depth"
            self.bound = min(cut)
        else:
            result.exhausted = True


def witness_replay(mset: MatrixSet, word: tuple[int, ...] | list[int]) -> BoolMatrix:
    """Left-to-right boolean product of the named generators; empty word -> identity."""
    out = BoolMatrix.identity(mset.n)
    for idx in word:
        if not 0 <= idx < mset.m:
            raise ValueError(f"generator index {idx} out of range 0..{mset.m - 1}")
        out = out @ mset.generators[idx]
    return out


class SubsetSpread(dict):
    """Row set mask S -> the least L whose L-step ball around S in the
    union digraph (s -> t when some generator has entry (s, t)) holds every
    state, filled on demand; ``UNREACHED`` where the ball stops short.  A
    word of length L takes S within L steps of it, so this is at most
    delta(S), and each state of S's image under a generator has a
    predecessor in S, so it is consistent."""

    def __init__(self, mset: MatrixSet):
        super().__init__({(1 << mset.n) - 1: 0})
        # A loop at every state makes a ball's image the next ball.
        self.rows = tuple(row | 1 << i for i, row in enumerate(mset.union_rows()))

    def __missing__(self, subset: int) -> int:
        ball = row_image(self.rows, subset)
        spread = UNREACHED if ball == subset else min(self[ball] + 1, UNREACHED)
        self[subset] = spread
        return spread


def subset_distances(mset: MatrixSet) -> bytearray | SubsetSpread:
    """A consistent, antimonotone lower bound on delta(S) for every row set
    S, indexed by its mask: delta(S) is the length of the shortest word
    whose forward image of S (under g, ``row_image(g.rows, S)``) is every
    state, ``UNREACHED`` where no word does (always the empty set).

    Up to ``DISTANCE_TABLE_DIMENSION_CAP`` it is delta itself, clamped to
    ``UNREACHED - 1``: one backward breadth-first search from the full set
    over all 2^n subsets, its preimage lists read off each generator's
    ``row_image_table``.  Past the cap it is the ``SubsetSpread``.
    """
    n = mset.n
    if n > DISTANCE_TABLE_DIMENSION_CAP:
        return SubsetSpread(mset)
    full = (1 << n) - 1
    preimages: list[list[int]] = [[] for _ in range(full + 1)]
    for g in mset.generators:
        for subset, target in enumerate(row_image_table(g.rows)):
            preimages[target].append(subset)
    dist = bytearray([UNREACHED]) * (full + 1)
    dist[full] = 0
    frontier = [full]
    length = 0
    while frontier:
        length = min(length + 1, UNREACHED - 1)
        reached = []
        for target in frontier:
            for subset in preimages[target]:
                if dist[subset] == UNREACHED:
                    dist[subset] = length
                    reached.append(subset)
        frontier = reached
    return dist


def explore(
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> SearchResult:
    """Search of the generated semigroup for the exponent.

    Row i of P*W is the forward image of row i of P under W, so a product P
    of length d reaches the all-ones matrix no sooner than d + h(P), with
    h(P) the largest ``subset_distances`` entry of a row of P.  h is
    consistent (h(P) <= 1 + h(P*g)), so ``LevelSearch`` with this
    ``distance`` stores every product P with d(P) + h(P) <= E at its
    shortest length d(P), E being the exponent, in rising d + h; the
    all-ones matrix (h = 0) is the last of them.  ``explored`` is their
    count once the exponent is found, and a ``max_states`` below it finds
    no exponent.  ``max_depth`` defaults to ``default_max_depth(n)``.  A
    set with a singleton row set at ``UNREACHED`` is not primitive (at
    n <= 13 that is exactly the sets that are not, past it the reducible
    ones), and is ``exhausted`` at once: no search runs, and the exponent
    stays None.

    Stops as soon as the all-ones matrix appears, or when a limit is hit;
    the result is then flagged partial via ``limit``.  ``lower_bound`` is
    what the search proved: at least L = max(1, max_i h({i})), the bucket
    cut by the state cap, the least d + h cut by the depth limit, the
    exponent once found.
    """
    mset.require_nz()
    n = mset.n
    if max_depth is None:
        max_depth = default_max_depth(n)
    LevelSearch.check_limits(n, max_depth, max_states)
    result = SearchResult(n=n)
    dist = subset_distances(mset)
    singles = [dist[1 << i] for i in range(n)]
    if UNREACHED in singles:
        result.exhausted = True
        result.lower_bound = max_depth + 1
        return result
    # Every product has length at least 1, even at n = 1 where
    # h({0}) = 0.
    result.lower_bound = max(1, *singles)
    ones = ((1 << n) - 1,) * n
    images = [functools.cache(functools.partial(row_image, g.rows)) for g in mset.generators]
    search = LevelSearch(
        result,
        mset.m,
        lambda level: [tuple(map(image, key)) for key in level for image in images],
        None,
        [(g.rows, g_idx) for g_idx, g in enumerate(mset.generators)],
        1,
        max_depth,
        max_states,
        lambda key: max(map(dist.__getitem__, key)),
    )
    keys = search.keys
    for start in search:
        if ones in keys[start:]:
            node = keys.index(ones, start)
            search.stop(node)
            word = search.word(node)
            result.exponent = Reach(len(word), word)
            result.lower_bound = len(word)
            return result
    if result.exhausted:
        result.lower_bound = max_depth + 1
    else:
        result.lower_bound = max(result.lower_bound, search.bound)
    return result
