"""Associated automata of a matrix set and the subset search over states.

The automaton associated to an NZ set collects every binary row-stochastic
matrix lying entrywise below some generator: independently picking one 1
per row from each generator's rows and deduplicating the results.

``subset_bfs`` is the one search for reset thresholds and k-rendezvous
times, on any boolean letters.  pre_a(S), the states whose row of letter a
meets S, is the ``row_image`` of S's mask under a's transpose, and column
j of A_{w1}...A_{wd} is pre_{w1}(...pre_{wd}({j})).  So the first level of
preimages of singletons holding a subset of size k is the length of the
shortest product with a weight-k column; on an automaton's letters, of the
shortest word mapping k states onto one.  ``set_profile`` runs the search
on a set's generators and on their transposes and takes the minimum: the
paper's rt_k(M) = min(rt_k(Aut M), rt_k(Aut M^T)), without building Aut.
The search is ``semigroup.LevelSearch`` with subsets as keys, each viewed
as the bytes of its mask; each level keeps only its maximal new subsets,
which is exact since S within T implies pre_a(S) within pre_a(T).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .boolmat import BoolMatrix, MatrixSet, bits, row_image
from .errors import LetterCapError, NotPrimitiveError, SearchLimitError
from .pairgraph import require_primitive
from .semigroup import (
    DEFAULT_MAX_STATES,
    LevelResult,
    LevelSearch,
    Reach,
    explore,
    note_first_reach,
    require_exact_search,
)

DEFAULT_LETTER_CAP = 4096


@dataclass(frozen=True)
class Automaton:
    """Deterministic complete automaton in matrix form.

    Every letter is binary and row-stochastic: exactly one 1 per row, the
    destination of that state under the letter.
    """

    n: int
    letters: tuple[BoolMatrix, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        for lbl, letter in zip(self.labels, self.letters):
            if letter.n != self.n:
                raise ValueError(f"letter {lbl} has dimension {letter.n}, expected {self.n}")
            for i, row in enumerate(letter.rows):
                if row.bit_count() != 1:
                    raise ValueError(
                        f"letter {lbl} row {i} is not row-stochastic"
                    )

    @property
    def m(self) -> int:
        return len(self.letters)


def raw_letter_count(mset: MatrixSet) -> int:
    """Number of per-row selections before deduplication: the sum over
    generators of the product of their row weights."""
    total = 0
    for g in mset.generators:
        count = 1
        for row in g.rows:
            count *= row.bit_count()
        total += count
    return total


def associated_automaton(mset: MatrixSet, cap: int = DEFAULT_LETTER_CAP) -> Automaton:
    """All distinct binary row-stochastic minorants of the set's generators.

    The raw selection count is checked against ``cap`` before enumerating;
    a generator with heavy rows can blow up as the product of its row
    weights.
    """
    mset.require_nz()
    raw = raw_letter_count(mset)
    if raw > cap:
        raise LetterCapError(raw, cap)
    letters: list[BoolMatrix] = []
    labels: list[str] = []
    seen: dict[tuple[int, ...], int] = {}
    for g_label, g in zip(mset.labels, mset.generators):
        choices = [tuple(1 << j for j in bits(row)) for row in g.rows]
        single = all(len(c) == 1 for c in choices)
        for pick_idx, pick in enumerate(itertools.product(*choices)):
            if pick in seen:
                continue
            seen[pick] = len(letters)
            letters.append(BoolMatrix(mset.n, pick))
            labels.append(g_label if single else f"{g_label}{pick_idx + 1}")
    return Automaton(mset.n, tuple(letters), tuple(labels))


@dataclass
class ProfileResult(LevelResult):
    krt: dict[int, Reach] = field(default_factory=dict)  # k in [2, n] -> first reach


@dataclass
class SubsetBfsResult(ProfileResult):
    reset: Reach | None = None  # None: not synchronizing, or cut short


def subset_bfs(
    n: int,
    letters: tuple[BoolMatrix, ...],
    max_depth: int | None = None,
    max_states: int | None = None,
) -> SubsetBfsResult:
    """Backward subset BFS from the singletons over n x n boolean letters.

    Level d holds the maximal new preimages of single states under words
    of length d; a subset of size k there is a column of weight k of the
    word's product, and the full set is a reset.  Words are reported in
    application order (leftmost letter applied first), which is product
    order.  The 1-state search is reset by the empty word.  ``max_depth``
    bounds the word length (None leaves it unbounded) and ``max_states``
    the subsets stored, ``DEFAULT_MAX_STATES`` when None, as in ``explore``.
    """
    full = (1 << n) - 1
    result = SubsetBfsResult(n=n)
    columns = [letter.transpose().rows for letter in letters]
    mask_bytes = (n + 7) // 8
    search = LevelSearch(
        result,
        len(columns),
        lambda mask, a: row_image(columns[a], mask),
        lambda mask: mask.to_bytes(mask_bytes, "little"),
        [(1 << q, -1) for q in range(n)],
        0,
        max_depth,
        DEFAULT_MAX_STATES if max_states is None else max_states,
    )
    masks = search.keys
    # A preimage's letter is applied before its parent's word, so a word
    # read root first is in reverse application order.
    for node in search:
        mask = masks[node]
        word = lambda: Reach(result.depth_reached, search.word(node)[::-1])
        note_first_reach(result.krt, mask.bit_count(), word)
        if mask == full:
            result.reset = word()
            break
    return result


def set_profile(
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> ProfileResult:
    """Exact rt_k of a matrix set for each k it reaches: the min of the
    column side (``subset_bfs`` on the generators) and the row side (on
    their transposes, whose words read root first are in product order).

    Both sides run under the same limits; the record sums ``explored`` and
    ``pruned`` and keeps the deeper ``depth_reached`` and a side's
    ``limit``.  A side cut short at depth D without k has no k below D
    only, so a longer length is left out, with every larger k.
    """
    require_exact_search(mset)
    sides = [
        subset_bfs(mset.n, source.generators, max_depth, max_states)
        for source in (mset, mset.transposed())
    ]
    result = ProfileResult(
        n=mset.n,
        explored=sum(side.explored for side in sides),
        pruned=sum(side.pruned for side in sides),
        depth_reached=max(side.depth_reached for side in sides),
        exhausted=all(side.exhausted for side in sides),
        limit=next((side.limit for side in sides if side.limit), None),
    )
    for k in range(2, mset.n + 1):
        found = [(side.krt[k].length, s) for s, side in enumerate(sides) if k in side.krt]
        if not found:
            break
        length, s = min(found)
        if any(side.limit and k not in side.krt and side.depth_reached < length for side in sides):
            break
        word = sides[s].krt[k].word
        result.krt[k] = Reach(length, word[::-1] if s else word)
    return result


def automata_searches(
    mset: MatrixSet, cap: int, max_depth: int | None, max_states: int | None
) -> tuple[SubsetBfsResult, SubsetBfsResult]:
    """Subset searches of Aut(M) and Aut(M^T) under the same limits."""
    return tuple(
        subset_bfs(mset.n, associated_automaton(source, cap).letters, max_depth, max_states)
        for source in (mset, mset.transposed())
    )


def reached_length(result: LevelResult, entry: Reach | None, what: str) -> int:
    """Length of a needed ``entry`` of ``result``.  A missing one is a limit
    error naming the limit that cut the search short; if none did, the
    search ran out of candidates, which proves the set is not primitive: a
    primitive set reaches every k, and both of its automata synchronize."""
    if entry is not None:
        return entry.length
    if result.limit is None:
        raise NotPrimitiveError(
            f"{what} not reached: the search exhausted, so the set is not primitive"
        )
    raise SearchLimitError(
        f"{what} not found within limits (limit={result.limit}, "
        f"explored={result.explored}, depth={result.depth_reached})"
    )


@dataclass(frozen=True)
class SandwichReport:
    """Exponent of a primitive set bracketed by its automata reset thresholds."""

    n: int
    rt_aut: int
    rt_aut_transpose: int
    exponent: int
    lower_ok: bool
    upper_ok: bool
    tight: bool

    @property
    def upper(self) -> int:
        return self.rt_aut + self.rt_aut_transpose + self.n - 1


def verify_sandwich(
    mset: MatrixSet,
    cap: int = DEFAULT_LETTER_CAP,
    max_depth: int | None = None,
    max_states: int | None = None,
) -> SandwichReport:
    """Check rt(Aut) <= exponent <= rt(Aut) + rt(Aut^T) + n - 1 on a primitive set.

    Needs n >= 2: at n = 1 the empty word resets both automata, so the upper
    end is 0 while every product, the exponent included, has length >= 1.
    """
    if mset.n < 2:
        raise ValueError(f"the sandwich needs n >= 2, got n={mset.n}")
    require_primitive(mset)
    rt, rt_t = (
        reached_length(res, res.reset, "automaton reset threshold")
        for res in automata_searches(mset, cap, max_depth, max_states)
    )
    res = explore(mset, max_depth, max_states)
    exp = reached_length(res, res.exponent, "exponent")
    upper = rt + rt_t + mset.n - 1
    return SandwichReport(
        n=mset.n,
        rt_aut=rt,
        rt_aut_transpose=rt_t,
        exponent=exp,
        lower_ok=rt <= exp,
        upper_ok=exp <= upper,
        tight=exp == upper,
    )


@dataclass(frozen=True)
class KrtEqualityReport:
    """Set k-RT against the minimum of the two automaton k-RTs."""

    k: int
    rt_set: int
    rt_aut: int
    rt_aut_transpose: int

    @property
    def equal(self) -> bool:
        return self.rt_set == min(self.rt_aut, self.rt_aut_transpose)


def verify_krt_equality(
    mset: MatrixSet,
    k: int,
    cap: int = DEFAULT_LETTER_CAP,
    max_depth: int | None = None,
    max_states: int | None = None,
) -> KrtEqualityReport:
    """Compare the set's exact k-RT with min over the two associated automata."""
    if not 2 <= k <= mset.n:
        raise ValueError(f"k must be in [2, {mset.n}], got {k}")
    require_primitive(mset)
    res = set_profile(mset, max_depth, max_states)
    rt_set = reached_length(res, res.krt.get(k), f"rt_{k}")
    rt_a, rt_at = (
        reached_length(res, res.krt.get(k), f"automaton rt_{k}")
        for res in automata_searches(mset, cap, max_depth, max_states)
    )
    return KrtEqualityReport(k=k, rt_set=rt_set, rt_aut=rt_a, rt_aut_transpose=rt_at)
