"""Associated automata of a matrix set and subset-BFS reset analysis.

The automaton associated to an NZ set collects every binary row-stochastic
matrix lying entrywise below some generator: independently picking one 1
per row from each generator's rows and deduplicating the results.  Reset
thresholds and automaton k-rendezvous times come from a backward BFS over
state subsets: starting from the singletons, repeatedly take full letter
preimages; the first level whose subset has size k is the length of the
shortest word mapping k states onto one.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .boolmat import BoolMatrix, MatrixSet, bits
from .errors import LetterCapError, NotPrimitiveError, SearchLimitError
from .pairgraph import check_primitivity
from .semigroup import Reach, SearchResult, explore, note_first_reach

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

    def delta(self) -> list[list[int]]:
        """Transition table: delta()[letter][state] = next state."""
        return [
            [row.bit_length() - 1 for row in letter.rows] for letter in self.letters
        ]

    def as_matrix_set(self) -> MatrixSet:
        return MatrixSet(self.n, self.letters, self.labels)


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
class SubsetBfsResult:
    n: int
    synchronizing: bool
    reset: Reach | None
    krt: dict[int, Reach] = field(default_factory=dict)  # k in [2, n] -> first reach
    explored: int = 0

    @property
    def reset_threshold(self) -> int | None:
        return self.reset.length if self.reset else None

    def krt_length(self, k: int) -> int | None:
        entry = self.krt.get(k)
        return entry.length if entry else None


def subset_bfs(aut: Automaton) -> SubsetBfsResult:
    """Backward subset BFS from the singletons.

    Level d holds the preimage sets of single states under words of length
    d; a subset of size >= k at level d means some word of length d maps k
    states onto one.  Words are reported in application order (leftmost
    letter applied first).  A 1-state automaton is reset by the empty word.
    """
    n = aut.n
    delta = aut.delta()
    result = SubsetBfsResult(n=n, synchronizing=False, reset=None)
    full = (1 << n) - 1

    masks: list[int] = []
    parents: list[int] = []
    letter_used: list[int] = []
    dist: dict[int, int] = {}

    def word_of(idx: int) -> tuple[int, ...]:
        out = []
        while parents[idx] >= 0:
            out.append(letter_used[idx])
            idx = parents[idx]
        return tuple(out)

    if n == 1:
        result.synchronizing = True
        result.reset = Reach(0, ())
    queue: deque[int] = deque()
    for q in range(n):
        mask = 1 << q
        dist[mask] = 0
        masks.append(mask)
        parents.append(-1)
        letter_used.append(-1)
        queue.append(len(masks) - 1)

    preimage_bits = [
        [sum(1 << s for s in range(n) if table[s] == q) for q in range(n)]
        for table in delta
    ]

    while queue:
        idx = queue.popleft()
        mask = masks[idx]
        d = dist[mask] + 1
        for a in range(aut.m):
            pre = 0
            table = preimage_bits[a]
            for q in bits(mask):
                pre |= table[q]
            if pre in dist:
                continue
            dist[pre] = d
            masks.append(pre)
            parents.append(idx)
            letter_used.append(a)
            node = len(masks) - 1
            note_first_reach(result.krt, pre.bit_count(), lambda: Reach(d, word_of(node)))
            if pre == full:
                result.synchronizing = True
                result.reset = Reach(d, word_of(node))
                queue.clear()
                break
            queue.append(node)
        else:
            continue
        break

    result.explored = len(masks)
    return result


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


def _require_exponent(res: SearchResult) -> int:
    if res.exponent is None:
        raise SearchLimitError(
            f"exponent not found within limits (limit={res.limit}, "
            f"explored={res.explored}, depth={res.depth_reached})"
        )
    return res.exponent.length


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
    report = check_primitivity(mset)
    if not report.primitive:
        raise NotPrimitiveError(report.describe(), report)
    aut = associated_automaton(mset, cap)
    aut_t = associated_automaton(mset.transposed(), cap)
    rt = subset_bfs(aut).reset_threshold
    rt_t = subset_bfs(aut_t).reset_threshold
    exp = _require_exponent(explore(mset, max_depth, max_states))
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
    report = check_primitivity(mset)
    if not report.primitive:
        raise NotPrimitiveError(report.describe(), report)
    res = explore(mset, max_depth, max_states)
    rt_set = res.krt_length(k)
    if rt_set is None:
        raise SearchLimitError(f"rt_{k} not found within limits (limit={res.limit})")
    aut = associated_automaton(mset, cap)
    aut_t = associated_automaton(mset.transposed(), cap)
    rt_a = subset_bfs(aut).krt_length(k)
    rt_at = subset_bfs(aut_t).krt_length(k)
    if rt_a is None or rt_at is None:
        raise SearchLimitError(f"automaton rt_{k} undefined (not synchronizing?)")
    return KrtEqualityReport(k=k, rt_set=rt_set, rt_aut=rt_a, rt_aut_transpose=rt_at)
