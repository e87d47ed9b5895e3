"""Exact breadth-first exploration of the boolean semigroup of a matrix set.

``LevelSearch`` is the one level-order search of the workbench: it owns
the stored keys, parent pointers and letters, the witness words, the
depth and state limits and the exhaustion test.  Both exact searches run
on it: ``explore`` here, the exponent search with boolean products as
keys, and ``automata.subset_bfs``, the k-rendezvous and reset search with
state subsets as keys.

``explore`` enumerates products level by level (level d = products of
length d), the generators at level 1, until the all-ones matrix appears;
the empty product is never a key, so the identity is counted only when
some product equals it.  Identical matrices are deduplicated, and each
level keeps only its maximal new products, those no other new product of
the level lies entrywise below: if A <= B then AW <= BW for every word W,
so a dominated product never reaches the all-ones matrix first (the
induction is in ``LevelSearch``).  The dominated ones are found with a
level-local index over the kept products, heaviest first: one bitset per
bit of each byte-sized digit of the key, and one memoised AND of those
bitsets per digit value, so a candidate's test is one lookup per digit.
On kari this stores 45,223 products instead of the 832,573 distinct
products up to the exponent.  A child row is the ``row_image`` of the
parent row under the generator, memoized per generator.
``note_first_reach`` is the one first-reach recorder, shared by the subset
search and the heuristic.

Everything is deterministic given generator order: each level is collected
in discovery order with children in generator order, and its maximal keys
are kept in that order, so the stored witness words are reproducible.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from operator import and_, getitem
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

from .boolmat import BoolMatrix, MatrixSet, bits, row_image
from .errors import DimensionError

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)

DEFAULT_MAX_STATES = 10_000_000
# Keys are Python ints of any width (the automata searches already run at
# n = 70); the cap guards memory: past n = 64 a search under the default
# state cap can store millions of keys at about 210 B per stored subset.
EXACT_SEARCH_DIMENSION_CAP = 64


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
    """What a level-order search did and why it stopped: the nodes stored,
    the dominated candidates dropped (``pruned``), the deepest level
    stored, and either ``exhausted`` (no new node at the last level) or the
    ``limit`` that cut it short ("depth" or "states")."""

    n: int
    explored: int = 0
    pruned: int = 0
    depth_reached: int = 0
    exhausted: bool = False
    limit: str | None = None


@dataclass
class SearchResult(LevelResult):
    exponent: Reach | None = None


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


def _maximal(
    candidates: list[tuple[K, int, int]], digits: Callable[[K], Sequence[int]]
) -> list[tuple[K, int, int]]:
    """The distinct ``(key, parent, letter)`` candidates (at least one)
    whose key no other candidate's key dominates, in their given order.

    A strict dominator has more set bits, so candidates are taken in
    classes of equal weight, heaviest first, and each is tested only
    against the kept candidates of heavier classes.  Slot b of digit
    position p is a bitset over those with bit b of digit p set; a
    candidate is dominated iff the AND of the slots of its set bits is
    nonzero.  That AND is one table lookup per digit: per class, ``_Meets``
    memoises the AND of a digit value's slots, valid until the class's kept
    candidates join the slots together, once per distinct digit value.
    """
    views = [digits(key) for key, _, _ in candidates]
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
    return list(itertools.compress(candidates, keep))


class LevelSearch:
    """Level-order search over hashable keys that stores only the maximal
    new keys of each level; it runs the semigroup search and the subset
    search.

    The roots, ``(key, letter)`` pairs with letter -1 for none, form level
    ``depth``; a key at level d has children ``child(key, a)`` at level
    d + 1 for letters a in 0..m-1.  ``digits(key)`` views a key as a
    sequence of byte-sized digits (ints below 256), of the same length for
    every key of the search; key A is dominated by key B when every set bit
    of A's digits is set in B's.  A product's digits are its bit rows cut
    into bytes (at n <= 8, its rows themselves), a subset's the bytes of
    its mask.  A level's candidates are the keys not seen before,
    collected by expanding the previous level in discovery order and the
    letters in index order.  Every candidate joins ``seen``, but only the
    maximal ones (no other candidate of the level dominates them) are
    stored, in discovery order; ``result.pruned`` counts the rest.  Every
    stored key is reached by a shortest word, reproducibly.

    Why this is exact for every monotone target (the all-ones matrix, a
    subset of size k, the full subset): if A <= B entrywise then
    AW <= BW for every word W.  By induction on d, every key of length d is
    dominated by some stored key of length <= d: a key of length d + 1 is
    a child of a key of length d, which lies below a stored key K; the same
    letter's child of K is a root or a candidate of some level <= d + 1,
    and every candidate lies below a stored candidate of its level.  So
    every target is first reached at the same length as without pruning.
    The top key (the all-ones matrix, the full subset) dominates every
    other key, so it is always kept.

    Iterating yields each stored node, roots first; the caller breaks to
    stop.  The search records on ``result`` the nodes stored, the deepest
    level stored and why it stopped by itself: a level had no candidate
    (``exhausted``), or it would pass ``max_depth`` or has stored
    ``max_states`` keys (``limit``).  A None limit never stops it.
    """

    def __init__(
        self,
        result: LevelResult,
        m: int,
        child: Callable[[K, int], K],
        digits: Callable[[K], Sequence[int]],
        roots: Iterable[tuple[K, int]],
        depth: int,
        max_depth: int | None,
        max_states: int | None,
    ):
        if any(limit is not None and limit < 1 for limit in (max_depth, max_states)):
            raise ValueError(
                f"need max_depth >= 1 and max_states >= 1, got {max_depth} and {max_states}"
            )
        self.result = result
        self.m = m
        self.child = child
        self.digits = digits
        self.roots = roots
        self.depth = depth
        self.max_depth = math.inf if max_depth is None else max_depth
        self.max_states = math.inf if max_states is None else max_states
        self.keys: list[K] = []
        self.parents: list[int] = []
        self.letters: list[int] = []
        self.seen: set[K] = set()

    def word(self, node: int) -> tuple[int, ...]:
        """Letters on the path from the node's root to the node, root first."""
        out = []
        while node >= 0 and self.letters[node] >= 0:
            out.append(self.letters[node])
            node = self.parents[node]
        return tuple(reversed(out))

    def _fresh(self, candidates: Iterable[tuple[K, int, int]]) -> list[tuple[K, int, int]]:
        """The candidates whose key is new, in order; every key joins ``seen``."""
        seen = self.seen
        out = []
        for cand in candidates:
            if cand[0] not in seen:
                seen.add(cand[0])
                out.append(cand)
        return out

    def __iter__(self) -> Iterator[int]:
        keys, child, result, m = self.keys, self.child, self.result, self.m
        depth = self.depth
        level = self._fresh((key, -1, letter) for key, letter in self.roots)
        while True:
            if not level:
                result.exhausted = True
                return
            survivors = _maximal(level, self.digits)
            result.pruned += len(level) - len(survivors)
            start = len(keys)
            for key, parent, letter in survivors:
                node = len(keys)
                keys.append(key)
                self.parents.append(parent)
                self.letters.append(letter)
                result.explored = node + 1
                result.depth_reached = depth
                yield node
                if result.explored >= self.max_states:
                    result.limit = "states"
                    return
            if depth >= self.max_depth:
                result.limit = "depth"
                return
            depth += 1
            level = self._fresh(
                (child(keys[parent], letter), parent, letter)
                for parent in range(start, len(keys))
                for letter in range(m)
            )


def require_exact_search(mset: MatrixSet) -> None:
    """Reject what no exact search of a set takes: a generator with a zero
    row or column, or more than ``EXACT_SEARCH_DIMENSION_CAP`` states."""
    mset.require_nz()
    if mset.n > EXACT_SEARCH_DIMENSION_CAP:
        raise DimensionError(
            f"exact search supports n <= {EXACT_SEARCH_DIMENSION_CAP}, got {mset.n}"
        )


def witness_replay(mset: MatrixSet, word: tuple[int, ...] | list[int]) -> BoolMatrix:
    """Left-to-right boolean product of the named generators; empty word -> identity."""
    out = BoolMatrix.identity(mset.n)
    for idx in word:
        if not 0 <= idx < mset.m:
            raise ValueError(f"generator index {idx} out of range 0..{mset.m - 1}")
        out = out @ mset.generators[idx]
    return out


def explore(
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> SearchResult:
    """Level-order search of the generated semigroup for the exponent.

    Stops as soon as the all-ones matrix appears, when the semigroup is
    closed (no new products), or when a limit is hit; in the latter case
    the result is flagged partial via ``limit``.  Non-primitive input is
    fine: the exponent simply stays None.  ``max_depth`` defaults to
    ``default_max_depth(n)`` and ``max_states`` (the most products ever
    stored, so ``explored <= max_states``) to ``DEFAULT_MAX_STATES``; both
    must be at least 1.
    """
    require_exact_search(mset)
    n = mset.n
    result = SearchResult(n=n)
    ones = ((1 << n) - 1,) * n
    images = [functools.cache(functools.partial(row_image, g.rows)) for g in mset.generators]
    # Digits are bytes, so at n <= 8 a key (a tuple of rows) is its own digits.
    row_bytes = (n + 7) // 8
    search = LevelSearch(
        result,
        mset.m,
        lambda key, g: tuple(map(images[g], key)),
        (lambda key: key) if n <= 8 else lambda key: b"".join(
            [row.to_bytes(row_bytes, "little") for row in key]
        ),
        [(g.rows, g_idx) for g_idx, g in enumerate(mset.generators)],
        1,
        default_max_depth(n) if max_depth is None else max_depth,
        DEFAULT_MAX_STATES if max_states is None else max_states,
    )
    keys = search.keys
    for node in search:
        if keys[node] == ones:
            result.exponent = Reach(result.depth_reached, search.word(node))
            break
    return result
