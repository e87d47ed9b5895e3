"""Exact breadth-first exploration of the boolean semigroup of a matrix set.

``LevelSearch`` is the one deduplicated level-order search of the
workbench: it owns the stored keys, parent pointers and letters, the
witness words, the depth and state limits and the exhaustion test, and
both exact searches run on it -- ``explore`` here, with boolean products
as keys, and the automaton subset search (``automata.subset_bfs``), with
state subsets as keys.

Products are enumerated level by level (level d = products of length d),
deduplicating identical matrices: two equal products have equal extensions,
so only the first is ever expanded.  The generators are the roots, at
level 1; the empty product is never a key, so the identity is counted only
when some product equals it.  A child row is the ``row_image`` of the
parent row under the generator, memoized per generator: at most 2^n
distinct rows exist.  The search records, for each k, the first level at
which any product has a row or column of weight >= k (the exact
k-rendezvous profile) and the first level producing the all-ones matrix
(the exponent).  Products are weighed only until the profile is complete
(every k up to n reached); after that each new product is only tested for
being all-ones.  ``note_first_reach`` is the one first-reach recorder,
shared with the subset BFS and the heuristic.

Everything is deterministic given generator order: the frontier is expanded
in discovery order and children are generated in generator order, so the
stored witness words are reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, TypeVar

from .boolmat import BoolMatrix, MatrixSet, max_weight, row_image
from .errors import DimensionError

T = TypeVar("T")
K = TypeVar("K", bound=Hashable)

DEFAULT_MAX_STATES = 10_000_000
EXACT_SEARCH_DIMENSION_CAP = 64  # one machine word per bit row


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
    """What a level-order search found and why it stopped: the first reach
    of each k, the nodes stored, the deepest level stored, and either
    ``exhausted`` (no new node at the last level) or the ``limit`` that cut
    it short ("depth", "states" or "profile")."""

    n: int
    krt: dict[int, Reach] = field(default_factory=dict)  # k in [2, n] -> first reach
    explored: int = 0
    depth_reached: int = 0
    exhausted: bool = False
    limit: str | None = None

    def krt_length(self, k: int) -> int | None:
        entry = self.krt.get(k)
        return entry.length if entry else None


@dataclass
class SearchResult(LevelResult):
    exponent: Reach | None = None


class LevelSearch:
    """Deduplicated breadth-first search over hashable keys, shared by the
    semigroup search and the automaton subset search.

    The roots, ``(key, letter)`` pairs with letter -1 for none, form level
    ``depth``; a key at level d has children ``child(key, a)`` at level
    d + 1 for letters a in 0..m-1.  Parents are expanded in discovery order
    and letters in index order, and a key seen before is dropped, so every
    stored key is reached by a shortest word, reproducibly.  Iterating
    yields each new node, roots first; the caller breaks to stop.  The
    search records on ``result`` the nodes stored, the deepest level stored
    and why it stopped by itself: a level added nothing (``exhausted``), or
    it would pass ``max_depth`` or has stored ``max_states`` keys
    (``limit``).  A None limit never stops it.
    """

    def __init__(
        self,
        result: LevelResult,
        m: int,
        child: Callable[[K, int], K],
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

    def _store(self, key: K, parent: int, letter: int, depth: int) -> int:
        node = len(self.keys)
        self.seen.add(key)
        self.keys.append(key)
        self.parents.append(parent)
        self.letters.append(letter)
        self.result.explored = node + 1
        self.result.depth_reached = depth
        return node

    def __iter__(self) -> Iterator[int]:
        keys, seen, child, result = self.keys, self.seen, self.child, self.result
        depth = self.depth
        for key, letter in self.roots:
            if key not in seen:
                yield self._store(key, -1, letter, depth)
                if result.explored >= self.max_states:
                    result.limit = "states"
                    return
        start = 0
        while True:
            end = len(keys)
            if start == end:
                result.exhausted = True
                return
            if depth >= self.max_depth:
                result.limit = "depth"
                return
            depth += 1
            for parent in range(start, end):
                key = keys[parent]
                for letter in range(self.m):
                    new = child(key, letter)
                    if new not in seen:
                        yield self._store(new, parent, letter, depth)
                        if result.explored >= self.max_states:
                            result.limit = "states"
                            return
            start = end


def witness_replay(mset: MatrixSet, word: tuple[int, ...] | list[int]) -> BoolMatrix:
    """Left-to-right boolean product of the named generators; empty word -> identity."""
    out = BoolMatrix.identity(mset.n)
    for idx in word:
        if not 0 <= idx < mset.m:
            raise ValueError(f"generator index {idx} out of range 0..{mset.m - 1}")
        out = out @ mset.generators[idx]
    return out


def explore(
    mset: MatrixSet,
    max_depth: int | None = None,
    max_states: int | None = None,
    stop_after_profile: bool = False,
) -> SearchResult:
    """Exhaustive level-order search of the generated semigroup.

    Stops as soon as the all-ones matrix appears (every k-RT entry is fixed
    by then), when the semigroup is closed (no new products), or when a
    limit is hit; in the latter case the result is flagged partial via
    ``limit``.  Non-primitive input is fine: the exponent simply stays None.
    ``max_depth`` defaults to ``default_max_depth(n)`` and ``max_states``
    (the most products ever stored, so ``explored <= max_states``) to
    ``DEFAULT_MAX_STATES``; both must be at least 1.

    ``stop_after_profile`` ends the search once every k-RT entry up to n is
    known, which can be far shallower than the exponent; the result is then
    flagged ``limit="profile"`` since the exponent may be missing.
    """
    mset.require_nz()
    n = mset.n
    if n > EXACT_SEARCH_DIMENSION_CAP:
        raise DimensionError(
            f"exact search supports n <= {EXACT_SEARCH_DIMENSION_CAP}, got {n}"
        )
    result = SearchResult(n=n)
    krt = result.krt
    ones = ((1 << n) - 1,) * n
    images = [functools.cache(functools.partial(row_image, g.rows)) for g in mset.generators]
    search = LevelSearch(
        result,
        mset.m,
        lambda key, g: tuple(map(images[g], key)),
        [(g.rows, g_idx) for g_idx, g in enumerate(mset.generators)],
        1,
        default_max_depth(n) if max_depth is None else max_depth,
        DEFAULT_MAX_STATES if max_states is None else max_states,
    )
    keys = search.keys
    # Stop at the all-ones matrix (every k-RT entry is fixed by then) or, in
    # profile-only mode, once every k-RT entry is known.  Once the profile
    # is complete a product is only tested for all-ones.
    for node in search:
        rows = keys[node]
        if rows == ones:
            result.exponent = Reach(result.depth_reached, search.word(node))
            note_first_reach(krt, n, lambda: result.exponent)
            break
        if len(krt) < n - 1:
            note_first_reach(
                krt, max_weight(n, rows), lambda: Reach(result.depth_reached, search.word(node))
            )
            if stop_after_profile and len(krt) == n - 1:
                result.limit = "profile"
                break
    return result
