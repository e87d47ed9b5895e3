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
shortest word mapping k states onto one.  The search is
``semigroup.LevelSearch`` with subsets as keys.  At n <= 13, when the
letters' preimage tables (``row_image_table`` of each transpose) hold at
most ``SUBSET_TABLE_ENTRIES_CAP`` entries in all, a child is one table
entry and every new subset is stored.  Otherwise a child is a
``row_image`` and each level keeps only its maximal new subsets, viewed as
the bytes of their masks, which is exact since S within T implies
pre_a(S) within pre_a(T).

``side_searches`` runs it on a set's generators and on their transposes,
and every rt_k and reset threshold of the set and of its two automata comes
from there, without building an automaton.  For a letter f below a
generator g, pre_f(S) lies within pre_g(S), and some such f attains
pre_g(S) (row i of f picks a state of S where row i of g meets S).  So by
induction on d every subset the generators reach by a word of length d
one of Aut's letter words reaches too, and every subset the letters reach
lies within one the generators reach at the same length: the generators
reach every subset size, and the full set, at the same length as Aut's
letters, with or without domination.
``set_profile`` takes the minimum of the two sides: the paper's
rt_k(M) = min(rt_k(Aut M), rt_k(Aut M^T)).  ``spell_reset`` writes a reset
word over the generators in Aut's letters, labelled by ``letter_label``.
``associated_automaton`` builds the letters themselves, under a cap on
their raw count, for printing them and for checking that theorem against
them (``verify_krt_equality``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .boolmat import BoolMatrix, MatrixSet, bits, row_image, row_image_table
from .errors import LetterCapError, NotPrimitiveError, SearchLimitError
from .pairgraph import require_primitive
from .semigroup import (
    DISTANCE_TABLE_DIMENSION_CAP,
    LevelResult,
    LevelSearch,
    Reach,
    explore,
    note_first_reach,
)

DEFAULT_LETTER_CAP = 4096
# The most entries, m * 2^n over m letters at n states, that the subset
# search tabulates preimages in: 8 letters at n = 13, where a pair of
# generators takes 16,384.  An entry is a list slot and an int, about 36 B,
# so the tables stay near 2.4 MB.  Past it, or past n = 13, each preimage
# is a ``row_image`` and each level keeps its maximal new subsets.
SUBSET_TABLE_ENTRIES_CAP = 1 << 16


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
    seen: set[tuple[int, ...]] = set()
    for g in mset.generators:
        choices = [tuple(1 << j for j in bits(row)) for row in g.rows]
        for pick in itertools.product(*choices):
            if pick in seen:
                continue
            seen.add(pick)
            letters.append(BoolMatrix(mset.n, pick))
            labels.append(letter_label(mset, pick))
    return Automaton(mset.n, tuple(letters), tuple(labels))


def letter_label(mset: MatrixSet, pick: tuple[int, ...]) -> str:
    """Label of the letter of Aut(mset) whose row i is ``pick[i]``: the label
    of the first generator whose rows contain the letter's, followed by the
    letter's 1-based index among that generator's per-row choices in
    ``itertools.product`` order, unless every row of it has weight 1."""
    g_label, g = next(
        (g_label, g)
        for g_label, g in zip(mset.labels, mset.generators)
        if all(p & ~row == 0 for p, row in zip(pick, g.rows))
    )
    index, count = 0, 1
    for p, row in zip(pick, g.rows):
        weight = row.bit_count()
        index = index * weight + (row & (p - 1)).bit_count()
        count *= weight
    return g_label if count == 1 else f"{g_label}{index + 1}"


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

    Level d holds the new preimages of single states under words of
    length d: all of them when the search is tabulated (n <= 13 and m * 2^n
    at most ``SUBSET_TABLE_ENTRIES_CAP``, so ``pruned`` stays 0), else the
    maximal ones.  A subset of size k there is a column of weight k of the
    word's product, and the full set is a reset.  Words are reported in
    application order (leftmost letter applied first), which is product
    order.  The 1-state search is reset by the empty word.  ``max_depth``
    bounds the word length and ``max_states`` the subsets stored; the
    limits are ``LevelSearch``'s.
    """
    full = (1 << n) - 1
    result = SubsetBfsResult(n=n)
    columns = [letter.transpose().rows for letter in letters]
    if n <= DISTANCE_TABLE_DIMENSION_CAP and len(columns) << n <= SUBSET_TABLE_ENTRIES_CAP:
        tables = [row_image_table(rows) for rows in columns]
        child = lambda mask, a: tables[a][mask]
        digits = None
    else:
        mask_bytes = (n + 7) // 8
        child = lambda mask, a: row_image(columns[a], mask)
        digits = lambda mask: mask.to_bytes(mask_bytes, "little")
    search = LevelSearch(
        result, len(columns), child, digits, [(1 << q, -1) for q in range(n)], 0,
        max_depth, max_states,
    )
    masks, krt = search.keys, result.krt
    # A preimage's letter is applied before its parent's word, so a word
    # read root first is in reverse application order.  Only a subset
    # heavier than every one before it, or the full set, has a word to
    # record.
    for node in search:
        mask = masks[node]
        if mask.bit_count() > len(krt) + 1 or mask == full:
            word = Reach(result.depth_reached, search.word(node)[::-1])
            note_first_reach(krt, mask.bit_count(), lambda: word)
            if mask == full:
                result.reset = word
                break
    return result


def side_searches(
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> tuple[SubsetBfsResult, SubsetBfsResult]:
    """``subset_bfs`` on the generators of the NZ set M and on those of M^T,
    under the same limits: the column and row sides of M's products, and
    the rt_k and reset searches of Aut(M) and Aut(M^T).  Each side's words
    are over its own generators, in application order."""
    mset.require_nz()
    return tuple(
        subset_bfs(mset.n, source.generators, max_depth, max_states)
        for source in (mset, mset.transposed())
    )


def spell_reset(mset: MatrixSet, word: tuple[int, ...]) -> tuple[str, ...]:
    """A reset ``word`` over the generators of ``mset``, as the labels of
    letters of Aut(mset).  S_t is the preimage under the rest of the word
    of the lowest state whose preimage under all of it is every state; the
    t-th letter sends state i to the lowest state of row i of the t-th
    generator within S_{t+1}, or of the whole row when they do not meet,
    so the letters map S_t into S_{t+1}, and every state to one."""
    n, full = mset.n, (1 << mset.n) - 1
    columns = [g.transpose().rows for g in mset.generators]

    def chain(state: int) -> list[int]:
        subsets = [1 << state]
        for a in reversed(word):
            subsets.append(row_image(columns[a], subsets[-1]))
        return subsets[::-1]

    subsets = next(c for c in map(chain, range(n)) if c[0] == full)
    labels = []
    for a, target in zip(word, subsets[1:]):
        choices = [row & target or row for row in mset.generators[a].rows]
        labels.append(letter_label(mset, tuple(c & -c for c in choices)))
    return tuple(labels)


def set_profile(
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> ProfileResult:
    """Exact rt_k of a matrix set for each k it reaches: the min of the
    column side and the row side, the two searches of ``side_searches``
    (the row side's words read root first are in product order).

    Both sides run under the same limits, ``LevelSearch``'s, except that
    once the column side resets at length R it holds every k at a length
    <= R, so the row side runs to depth R at most; that cut is not a limit.
    The record sums ``explored`` and ``pruned`` and keeps the deeper
    ``depth_reached`` and a side's ``limit``.  A side cut short at depth D
    without k has no k below D only, so a longer length is left out, with
    every larger k.
    """
    mset.require_nz()
    column = subset_bfs(mset.n, mset.generators, max_depth, max_states)
    row_depth = max_depth
    if column.reset is not None and (max_depth is None or column.reset.length < max_depth):
        row_depth = max(1, column.reset.length)
    row = subset_bfs(mset.n, mset.transposed().generators, row_depth, max_states)
    if row_depth != max_depth and row.limit == "depth":
        row.limit = None
    sides = (column, row)
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
    mset: MatrixSet, max_depth: int | None = None, max_states: int | None = None
) -> SandwichReport:
    """Check rt(Aut) <= exponent <= rt(Aut) + rt(Aut^T) + n - 1 on a primitive
    set, with the reset thresholds from ``side_searches``.

    Needs n >= 2: at n = 1 the empty word resets both automata, so the upper
    end is 0 while every product, the exponent included, has length >= 1.
    """
    if mset.n < 2:
        raise ValueError(f"the sandwich needs n >= 2, got n={mset.n}")
    require_primitive(mset)
    rt, rt_t = (
        reached_length(res, res.reset, "automaton reset threshold")
        for res in side_searches(mset, max_depth, max_states)
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
    """Compare the set's exact k-RT with min over the two associated automata,
    each searched on its own letters, built under ``cap``."""
    if not 2 <= k <= mset.n:
        raise ValueError(f"k must be in [2, {mset.n}], got {k}")
    require_primitive(mset)
    res = set_profile(mset, max_depth, max_states)
    rt_set = reached_length(res, res.krt.get(k), f"rt_{k}")
    rt_aut = []
    for source in (mset, mset.transposed()):
        res = subset_bfs(mset.n, associated_automaton(source, cap).letters, max_depth, max_states)
        rt_aut.append(reached_length(res, res.krt.get(k), f"automaton rt_{k}"))
    return KrtEqualityReport(k=k, rt_set=rt_set, rt_aut=rt_aut[0], rt_aut_transpose=rt_aut[1])
