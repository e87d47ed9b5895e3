"""Exact breadth-first exploration of the boolean semigroup of a matrix set.

Products are enumerated level by level (level d = products of length d),
deduplicating identical matrices: two equal products have equal extensions,
so only the first is ever expanded.  The search records, for each k, the
first level at which any product has a row or column of weight >= k (the
exact k-rendezvous profile) and the first level producing the all-ones
matrix (the exponent).

Everything is deterministic given generator order: the frontier is expanded
in discovery order and children are generated in generator order, so the
stored witness words are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .boolmat import BoolMatrix, MatrixSet
from .errors import DimensionError

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


def _max_weight(n: int, rows: tuple[int, ...]) -> int:
    best = max(row.bit_count() for row in rows)
    counts = [0] * n
    for row in rows:
        mask = row
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    return max(best, max(counts))


def explore(
    mset: MatrixSet,
    max_depth: int | None = None,
    max_states: int = DEFAULT_MAX_STATES,
    stop_after_profile: bool = False,
) -> SearchResult:
    """Exhaustive level-order search of the generated semigroup.

    Stops as soon as the all-ones matrix appears (every k-RT entry is fixed
    by then), when the semigroup is closed (no new products), or when a
    limit is hit; in the latter case the result is flagged partial via
    ``limit``.  Non-primitive input is fine: the exponent simply stays None.

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

    result = SearchResult(n=n, exponent=None)
    # Discovery bookkeeping: parent/generator chains reconstruct witness words.
    keys: list[tuple[int, ...]] = []
    parents: list[int] = []
    genidx: list[int] = []
    seen: dict[tuple[int, ...], int] = {}

    def word_of(idx: int) -> tuple[int, ...]:
        out = []
        while idx >= 0:
            out.append(genidx[idx])
            idx = parents[idx]
        return tuple(reversed(out))

    best_k = 1
    full = (1 << n) - 1

    def note(idx: int, depth: int) -> bool:
        """Record first-reach entries for the matrix at node ``idx``.

        Returns True when the search may stop: the all-ones matrix was
        found, or (in profile-only mode) every k-RT entry is known.
        """
        nonlocal best_k
        rows = keys[idx]
        if all(r == full for r in rows):
            word = word_of(idx)
            for k in range(best_k + 1, n + 1):
                result.krt[k] = Reach(depth, word)
            best_k = n
            result.exponent = Reach(depth, word)
            return True
        w = _max_weight(n, rows)
        if w > best_k:
            word = word_of(idx)
            for k in range(max(2, best_k + 1), w + 1):
                result.krt[k] = Reach(depth, word)
            best_k = max(best_k, w)
            if stop_after_profile and best_k == n:
                result.limit = "profile"
                return True
        return False

    frontier: list[int] = []
    states_exceeded = False
    for g_idx, g in enumerate(mset.generators):
        if g.rows in seen:
            continue
        seen[g.rows] = len(keys)
        keys.append(g.rows)
        parents.append(-1)
        genidx.append(g_idx)
        frontier.append(len(keys) - 1)

    depth = 1
    result.depth_reached = 1
    done = False
    for idx in frontier:
        if note(idx, depth):
            done = True
            break

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

    while not done and frontier:
        if depth >= max_depth:
            result.limit = "depth"
            break
        depth += 1
        next_frontier: list[int] = []
        for idx in frontier:
            mat_rows = keys[idx]
            for g_idx in range(mset.m):
                key = tuple(image(g_idx, row) for row in mat_rows)
                if key in seen:
                    continue
                node = len(keys)
                seen[key] = node
                keys.append(key)
                parents.append(idx)
                genidx.append(g_idx)
                next_frontier.append(node)
                result.depth_reached = depth
                if note(node, depth):
                    done = True
                    break
                if len(keys) >= max_states:
                    states_exceeded = True
                    break
            if done or states_exceeded:
                break
        if states_exceeded and not done:
            result.limit = "states"
            break
        if not next_frontier and not done:
            result.exhausted = True
            break
        frontier = next_frontier

    result.explored = len(keys)
    return result
