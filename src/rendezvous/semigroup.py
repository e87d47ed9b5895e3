"""Exact breadth-first exploration of the boolean semigroup of a matrix set.

Products are enumerated level by level (level d = products of length d),
deduplicating identical matrices: two equal products have equal extensions,
so only the first is ever expanded.  The search records, for each k, the
first level at which any product has a row or column of weight >= k (the
exact k-rendezvous profile) and the first level producing the all-ones
matrix (the exponent).  Products are weighed only until the profile is
complete (every k up to n reached); after that each new product is only
tested for being all-ones.  ``note_first_reach`` is the one first-reach
recorder, shared with the subset BFS and the heuristic.

Everything is deterministic given generator order: the frontier is expanded
in discovery order and children are generated in generator order, so the
stored witness words are reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from .boolmat import BoolMatrix, MatrixSet, max_weight
from .errors import DimensionError

T = TypeVar("T")

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
class SearchResult:
    n: int
    exponent: Reach | None
    krt: dict[int, Reach] = field(default_factory=dict)  # k in [2, n] -> first reach
    explored: int = 0
    depth_reached: int = 0
    exhausted: bool = False
    limit: str | None = None  # "depth" | "states" | None

    def krt_length(self, k: int) -> int | None:
        entry = self.krt.get(k)
        return entry.length if entry else None


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
    if max_depth is None:
        max_depth = default_max_depth(n)
    if max_states is None:
        max_states = DEFAULT_MAX_STATES
    if max_depth < 1 or max_states < 1:
        raise ValueError(
            f"need max_depth >= 1 and max_states >= 1, got {max_depth} and {max_states}"
        )

    result = SearchResult(n=n, exponent=None)
    krt = result.krt
    ones = ((1 << n) - 1,) * n
    # Node 0 is the empty product, whose children are the generators.
    # Parent/generator chains back to it spell each node's witness word.
    keys: list[tuple[int, ...]] = [BoolMatrix.identity(n).rows]
    parents: list[int] = [-1]
    genidx: list[int] = [-1]
    seen: dict[tuple[int, ...], int] = {}

    def word_of(idx: int) -> tuple[int, ...]:
        out = []
        while idx > 0:
            out.append(genidx[idx])
            idx = parents[idx]
        return tuple(reversed(out))

    def note(idx: int, depth: int) -> bool:
        """Record first-reach entries for the matrix at node ``idx``.

        Returns True when the search may stop: the all-ones matrix was
        found, or (in profile-only mode) every k-RT entry is known.  Once
        the profile is complete a product is only tested for all-ones.
        """
        rows = keys[idx]
        if rows == ones:
            result.exponent = Reach(depth, word_of(idx))
            note_first_reach(krt, n, lambda: result.exponent)
            return True
        if len(krt) < n - 1:
            note_first_reach(krt, max_weight(n, rows), lambda: Reach(depth, word_of(idx)))
            if stop_after_profile and len(krt) == n - 1:
                result.limit = "profile"
                return True
        return False

    # Memoized row images: a child row is the OR of a generator's rows over
    # the parent row's support, and only 2^n distinct parent rows exist.
    gen_rows = [g.rows for g in mset.generators]
    row_image: list[dict[int, int]] = [{} for _ in range(mset.m)]

    def image(g_idx: int, mask: int) -> int:
        table = row_image[g_idx]
        cached = table.get(mask)
        if cached is not None:
            return cached
        rows = gen_rows[g_idx]
        acc = 0
        m = mask
        while m:
            low = m & -m
            acc |= rows[low.bit_length() - 1]
            m ^= low
        table[mask] = acc
        return acc

    frontier = [0]
    depth = 0
    stop = False
    while not stop:
        if not frontier:
            result.exhausted = True
            break
        if depth >= max_depth:
            result.limit = "depth"
            break
        depth += 1
        next_frontier: list[int] = []
        for idx, g_idx in itertools.product(frontier, range(mset.m)):
            key = tuple(image(g_idx, row) for row in keys[idx])
            if key in seen:
                continue
            node = len(keys)
            seen[key] = node
            keys.append(key)
            parents.append(idx)
            genidx.append(g_idx)
            next_frontier.append(node)
            result.depth_reached = depth
            stop = note(node, depth)
            if not stop and len(seen) >= max_states:
                result.limit = "states"
                stop = True
            if stop:
                break
        frontier = next_frontier

    result.explored = len(seen)
    return result
