"""Bound tables for the k-rendezvous time of primitive NZ sets.

Two bound families are computed, both exact rationals:

* ``bound_b``: solves the one-step growth recursion in which a product with
  a weight-k column is extended, within n(1+n-a)/2 further letters, to one
  with a weight-(k+1) column; ``a`` is the analytic lower bound on the
  number of columns escaping a weight-k column's support.  Available as a
  recursion and in closed form, which agree exactly.

* ``bound_f``: refines ``bound_b`` by letting one merge step raise the
  weight by p at once.  The lift cost ``lift_bound(n, k, h)`` (steps needed
  to grow weight h to weight k) solves a max-over-p / min-of-two-routes
  dynamic program and has no closed form; ``bound_f`` takes the best
  splitting point h.

Each recurrence has one implementation.  The lift DP (``_lift_columns``)
is one loop over h that fills a call's columns, one per k, from the
crossing of their two routes (column h+1 in closed form), building the
blocks of p of each h only as far as a crossing needs; a column reads no
other column.  ``bound_f`` builds only the column it reads.  Tables over
many k read the lift grid, cached for the last n only (``_lift_grid``),
and the B recursion is one table per variant of integers over one
denominator D, grown on demand for the last n only (``_b_table``); so a
table builds each column once.
D = 2 lcm(isqrt(n), ..., min(k_max, n//2) - 1) for the largest k_max
asked of n so far, so a table that stays below the middle regime computes
no lcm at all.

The escape count ``a``: for a matrix with all row/column weights <= k and a
column c of weight exactly k, count the columns whose support is not inside
supp(column c); minimizing over c gives ``evaluate_escape``.  Over all
such matrices the minimum is ``_escape_rate`` when no column escapes by
more than p elements, so at least ``escape_lower`` (p = k), and
``build_witness`` attains that value: it is the exact minimum.

Everything here is pure arithmetic on (n, k, h, p); no dimension cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .boolmat import BoolMatrix


def _ceildiv(a: int, b: int) -> int:
    return -(-a // b)


def _validate_nk(n: int, k: int, below_n: bool = False) -> None:
    if not 2 <= k <= n - below_n:
        top = "n-1" if below_n else "n"
        raise ValueError(f"need n >= 2 and 2 <= k <= {top}, got n={n}, k={k}")


def _escape_rate(n: int, k: int, p: int) -> int:
    """max{n-k(k-1)-1, ceil((n-k)/p), 1}: the least number of columns
    escaping a weight-k column when none escapes it by more than p
    elements.  Callers validate their own ranges."""
    return max(n - k * (k - 1) - 1, _ceildiv(n - k, p), 1)


def escape_lower(n: int, k: int) -> int:
    """Lower bound max{n-k(k-1)-1, ceil((n-k)/k), 1} on the escape count."""
    _validate_nk(n, k, below_n=True)
    return _escape_rate(n, k, k)


def escape_lower_refined(n: int, k: int, p: int) -> int:
    """Escape lower bound max{n-k(k-1)-1, ceil((n-k)/p), 1} under the extra
    constraint that no column escapes a weight-k column by more than p
    elements."""
    if n < 3 or not 2 <= k < n or not 1 <= p <= min(k, n - k):
        raise ValueError(
            f"need n >= 3, 2 <= k < n, 1 <= p <= min(k, n-k); got n={n}, k={k}, p={p}"
        )
    return _escape_rate(n, k, p)


@dataclass(frozen=True)
class EscapeWitness:
    matrix: BoolMatrix
    claimed: int
    kind: str  # "hat" (linear term) or "tilde" (ceiling term)


def build_witness(n: int, k: int) -> EscapeWitness:
    """Block matrix attaining the escape lower bound.

    Layout: a width-v band, v = ceil((n-k)/k) + 1, gives row r the bit
    min(r // k, v-1), so column 0, the weight-k column, covers the first k
    rows.  The other n-v columns are weight 1: up to k(k-1) fillers in the
    first k rows, k-1 per row, then a shifted identity from row k on.  So
    the other v-1 band columns and max(n-k(k-1)-1 - (v-1), 0) identity
    columns escape column 0: the linear term ("hat") when it is at least
    v-1 = ceil((n-k)/k), the ceiling term ("tilde") otherwise.
    """
    _validate_nk(n, k, below_n=True)
    v = _ceildiv(n - k, k) + 1
    rows = [1 << min(r // k, v - 1) for r in range(n)]
    fillers = min(n - v, k * (k - 1))
    for f in range(fillers):
        rows[f // (k - 1)] |= 1 << (v + f)
    for t in range(n - v - fillers):
        rows[k + t] |= 1 << (v + fillers + t)
    matrix = BoolMatrix(n, tuple(rows))
    if (defect := matrix.nz_defect()) is not None:
        raise RuntimeError(f"witness fill left {defect[0]} {defect[1]} empty")
    linear = n - k * (k - 1) - 1
    kind = "hat" if linear >= v - 1 else "tilde"
    return EscapeWitness(matrix, max(linear, v - 1), kind)


@dataclass(frozen=True)
class EscapeEvaluation:
    """Escape count of a concrete matrix, or the reason it is out of scope.

    ``columns`` lists the weight-k columns; ``p`` is the largest number of
    support elements by which any column escapes a weight-k column, and
    ``refined_value`` restricts the minimum to the weight-k columns
    witnessing that maximum.
    """

    member: bool
    reason: str | None = None
    value: int | None = None
    columns: tuple[int, ...] = ()
    p: int | None = None
    refined_value: int | None = None
    refined_columns: tuple[int, ...] = ()


def evaluate_escape(mat: BoolMatrix, k: int) -> EscapeEvaluation:
    """Check membership (NZ, all weights <= k, some column weight exactly k)
    and evaluate the escape count with its p-refinement."""
    n = mat.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k} for n={n}")
    defect = mat.nz_defect()
    if defect is not None:
        return EscapeEvaluation(member=False, reason=f"zero {defect[0]} {defect[1]}")
    cols = mat.transpose().rows
    for kind, lines in (("row", mat.rows), ("column", cols)):
        for i, line in enumerate(lines):
            if (w := line.bit_count()) > k:
                return EscapeEvaluation(member=False, reason=f"{kind} {i} has weight {w} > {k}")
    weight_k = tuple(j for j, col in enumerate(cols) if col.bit_count() == k)
    if not weight_k:
        return EscapeEvaluation(member=False, reason=f"no column of weight {k}")

    # Per weight-k column c: how many columns escape it, and by how much at
    # most.  Column c escapes itself by nothing, and some column escapes it
    # (a row outside its support is nonzero), so p >= 1.
    counts, largest = [], []
    for c in weight_k:
        outside = ~cols[c]
        escapes = [(col & outside).bit_count() for col in cols]
        counts.append(n - escapes.count(0))
        largest.append(max(escapes))
    p = max(largest)
    refined = [i for i, top in enumerate(largest) if top == p]
    return EscapeEvaluation(
        member=True,
        value=min(counts),
        columns=weight_k,
        p=p,
        refined_value=min(counts[i] for i in refined),
        refined_columns=tuple(weight_k[i] for i in refined),
    )


_HARMONIC: list[Fraction] = [Fraction(0)]


def _harmonic(m: int) -> Fraction:
    """Sum of 1/i for i in [1, m], cached incrementally."""
    while len(_HARMONIC) <= m:
        i = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, i))
    return _HARMONIC[m]


def _b_poly(n: int, k: int) -> Fraction:
    return Fraction(n * (k**3 - 3 * k**2 + 8 * k - 12), 6) + 1


def _b_increment(n: int, target: int, ceil_variant: bool, denom: int) -> int:
    """Growth-step cost from weight target-1 to weight target, times
    ``denom``, which every step's denominator divides (see ``_b_table``).

    The default variant drops the ceiling on the (n-k)/k term, matching the
    closed form exactly; branch selection goes by the target weight.  The
    ceiled variant keeps the exact escape lower bound in every step and has
    no closed form.
    """
    step = target - 1
    if ceil_variant:
        return n * (1 + n - _escape_rate(n, step, step)) * denom // 2
    if target <= math.isqrt(n):
        return n * (2 + step * (step - 1)) * denom // 2
    if target <= n // 2:
        return n * denom + n * n * (step - 1) * (denom // (2 * step))
    return n * n * denom // 2


_B_TABLES: dict[int, list] = {}


def _b_table(n: int, k_max: int, ceil_variant: bool) -> tuple[int, list[int]]:
    """(D, cumulative bound values times D) for k in [2, k_max] and possibly
    beyond, index k-2.  D = 2 lcm(isqrt(n), ..., min(k_top, n//2) - 1), with
    k_top the largest k_max asked for so far, is a multiple of the
    denominator of every step held: 2 step in the middle regime, 2
    otherwise.  One table per variant over the one D, grown on demand, kept
    for the last n only; a call reaching further into the middle regime
    multiplies D and both tables by the same factor."""
    table = _B_TABLES.get(n)
    if table is None:
        _B_TABLES.clear()
        # [D, end of D's lcm range, B values, ceiled-B values]
        table = _B_TABLES[n] = [2, math.isqrt(n), [2], [2]]
    end = min(k_max, n // 2)
    if end > table[1]:
        denom = 2 * math.lcm(table[0] // 2, *range(table[1], end))
        factor = denom // table[0]
        for values in table[2:]:
            values[:] = [value * factor for value in values]
        table[:2] = denom, end
    denom, values = table[0], table[2 + ceil_variant]
    while len(values) < k_max - 1:
        values.append(values[-1] + _b_increment(n, len(values) + 2, ceil_variant, denom))
    return denom, values


def bound_b_recursive(n: int, k: int, ceil_variant: bool = False) -> Fraction:
    """Recursively accumulated growth bound on the k-rendezvous time."""
    _validate_nk(n, k)
    denom, values = _b_table(n, k, ceil_variant)
    return Fraction(values[k - 2], denom)


def bound_b_closed(n: int, k: int) -> Fraction:
    """Closed form of the growth bound; equals ``bound_b_recursive`` exactly.

    Three regimes: a cubic polynomial in k while k <= isqrt(n), a harmonic
    correction up to n/2, and n^2/2 per step beyond.
    """
    _validate_nk(n, k)
    if k == 2:
        return Fraction(1)
    s = math.isqrt(n)
    half = n // 2
    if k <= s:
        return _b_poly(n, k)
    if k <= half:
        return (
            _b_poly(n, s)
            + Fraction(n * (n + 2) * (k - s), 2)
            - Fraction(n * n, 2) * (_harmonic(k - 1) - _harmonic(s - 1))
        )
    anchor = max(half, 2)
    return bound_b_closed(n, anchor) + Fraction((k - anchor) * n * n, 2)


def _lift_columns(n: int, first: int, k_max: int) -> list[list[int]]:
    """Doubled lift costs by column, for k in [first, k_max]: entry [h] of
    column k is twice ``lift_bound(n, k, h)`` for 2 <= h <= k (zero at
    h = k; entries 0 and 1 are zero placeholders).

    Write G(h) for column k.  G(h) = 0 for h >= k, and below k G(h) is the
    max over p in [1, min(h, n-h)] of the cheaper of two routes: merge p
    extra support elements at once, J_p = G(h+p) + n(n-1), or gain one
    weight level at the refined escape rate, S_p = G(h+1) + n(n+1-a_p) with
    a_p = max(n-h(h-1)-1, ceil((n-h)/p), 1).  Doubling keeps every entry
    integral.  The max needs only a few p, exactly:

    1. G(h) > G(h+1): at p = 1 both routes cost more than G(h+1).  So G
       decreases in h up to k, and J_p is nonincreasing in p.
    2. a_p is nonincreasing in p, so S_p is nondecreasing in p.
    3. a_p is constant on blocks of p, O(sqrt(n-h)) of them: after a block
       with value v > max(n-h(h-1)-1, 1) the next one starts at
       p = ceil((n-h)/(v-1)), and the block where a_p reaches that floor is
       the last.  S_p is constant on a block and J_p largest at its first
       p, so only block starts matter.
    4. The max of the min of a nonincreasing and a nondecreasing sequence
       sits at their crossing.  With j the first block whose start has
       J <= S, G(h) = max(J_j, S_{j-1}); if no block crosses, G(h) is S at
       the last block.

    A column reads only its own entries and the blocks of h, never another
    column, so columns are independent.  One loop runs h down from
    k_max - 1 over every column k > h of the call, with two shortcuts:

    5. Column h + 1 is closed: G(h+p) = 0 for every p, so J_p = n(n-1)
       and, by 2, G(h) = min(n(n-1), S_top) with top = min(h, n-h).
    6. Every walk starts at block 1.  Block 0 (p = 1) lands on h + 1 with
       a_1 = n - h, so it crosses (G(h+1) <= G(h+1) + n(2 - a_1)) only
       when a_1 <= 2; a walked column has k >= h + 2, so a_1 >= 2.  At
       a_1 = 2, J = S at block 0 and every later block crosses, so the
       walk from block 1 gives max(J_1, S_0) = S_0 = G(h).

    The blocks of h are built on demand, when some other column's walk
    passes the last one built, and shared by those columns.  Each walk
    searches its crossing forward, and over those columns the crossing's
    mean block index is 1.1 to 1.2 on whole grids at n = 120, 200 and 1000
    and 1.5 on fig8's grids.  So an h builds a few of its O(sqrt(n-h))
    blocks and a column costs O(k) steps: fig8's 194 grids at n_max = 200
    (k_max = min(50, n)) build 20,822 blocks in 274,308 walk steps (passes
    of the walk loop), against 94,826 and 562,632 without 5 and 6.
    """
    e2 = n * (n - 1)
    columns = [[0] * (2 * k) for k in range(first, k_max + 1)]  # h + p <= 2h reads zeros past k
    for h in range(k_max - 1, 1, -1):
        rest, floor = n - h, max(n - h * (h - 1) - 1, 1)
        top = min(h, rest)
        if h + 1 >= first:
            columns[h + 1 - first][h] = min(e2, n * (n + 1 - _escape_rate(n, h, top)))
        # Per block: h + p at its start (where its jump lands) and n(2 - a_p),
        # so that J <= S reads G(h+p) <= G(h+1) + n(2 - a_p); a is the last's a_p.
        a = rest  # a_1
        lands, gaps = [h + 1], [n * (2 - a)]
        for col in columns[max(h + 2 - first, 0) :]:
            base, j = col[h + 1], 1
            while True:
                if j == len(lands):
                    if a == floor or (p := _ceildiv(rest, a - 1)) > top:
                        break
                    a = max(floor, _ceildiv(rest, p))  # _escape_rate(n, h, p)
                    lands.append(h + p)
                    gaps.append(n * (2 - a))
                if col[lands[j]] <= base + gaps[j]:
                    break
                j += 1
            if j < len(lands) and col[lands[j]] >= base + gaps[j - 1]:
                col[h] = col[lands[j]] + e2
            else:
                col[h] = base + gaps[j - 1] + e2
    for k, col in enumerate(columns, first):
        del col[k + 1 :]
    return columns


_LIFT_GRIDS: dict[int, list[list[int]]] = {}


def _lift_grid(n: int, k_max: int) -> list[list[int]]:
    """Lift columns 0 to at least k_max for n, from ``_lift_columns``
    (columns 0 and 1 are zero placeholders).  One grid is cached, for the
    last n asked for: it serves every smaller k_max and grows by columns
    for a larger one, so a table reading many columns builds each once."""
    grid = _LIFT_GRIDS.get(n)
    if grid is None:
        _LIFT_GRIDS.clear()
        grid = _LIFT_GRIDS[n] = [[0], [0, 0]]
    if len(grid) <= k_max:
        grid.extend(_lift_columns(n, len(grid), k_max))
    return grid


def lift_bound(n: int, k: int, h: int) -> Fraction:
    """Bound on the extra product length needed to grow a weight-h row or
    column into a weight-k one; zero once h >= k."""
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    _validate_nk(n, k)
    if h >= k:
        return Fraction(0)
    return Fraction(_lift_grid(n, k)[k][h], 2)


def _f_min(denom: int, b_values: list[int], lifts: list[int], k: int) -> tuple[Fraction, int]:
    """min over h in [2, k] of B(n, h) + lift(n, k, h), smallest h on ties;
    ``b_values`` and ``denom`` come from ``_b_table``, and ``lifts[h]`` is
    the doubled lift cost from lift column k."""
    half = denom // 2
    totals = [b + lift * half for b, lift in zip(b_values, lifts[2 : k + 1])]
    best = min(totals)
    return Fraction(best, denom), totals.index(best) + 2


def bound_f(n: int, k: int) -> tuple[Fraction, int]:
    """Best split of the growth bound: min over h of bound_b(n, h) plus the
    lift cost from h to k.  Returns (value, achieving h); ties go to the
    smallest h.  Never exceeds bound_b_recursive(n, k)."""
    _validate_nk(n, k)
    return _f_min(*_b_table(n, k, False), _lift_columns(n, k, k)[0], k)


def bound_f_table(n: int, k_max: int) -> dict[int, tuple[Fraction, int]]:
    """``bound_f`` for every k in [2, k_max] from one lift grid and one B table."""
    _validate_nk(n, k_max)
    lifts = _lift_grid(n, k_max)
    denom, b_values = _b_table(n, k_max, False)
    return {k: _f_min(denom, b_values, lifts[k], k) for k in range(2, k_max + 1)}


def szykula_bound(n: int) -> Fraction:
    """Cubic reset-threshold bound (15617n^3 + 7500n^2 + 9375n - 31250)/93750."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Fraction(15617 * n**3 + 7500 * n**2 + 9375 * n - 31250, 93750)


def conjectured_equality_onset(k: int) -> int:
    """Dimension 2k^2 - 8k + 12 past which the two bounds are conjectured
    to coincide for fixed k > 6."""
    return 2 * k * k - 8 * k + 12


@dataclass(frozen=True)
class ScanCell:
    f_value: Fraction
    b_value: Fraction
    argmin_h: int

    @property
    def f_eq_b(self) -> bool:
        return self.f_value == self.b_value


@dataclass
class ScanReport:
    """Observed evidence for the two bound conjectures; reports, never asserts.

    ``thresholds[k]`` is the smallest scanned n such that the bounds agree
    at every strictly larger scanned n (None when they still differ at the
    top of the range).
    """

    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    cells: dict[tuple[int, int], ScanCell]
    thresholds: dict[int, int | None]


def scan_conjectures(n_values, k_values) -> ScanReport:
    ns = tuple(sorted(set(int(n) for n in n_values)))
    ks = tuple(sorted(set(int(k) for k in k_values)))
    if not ns or not ks:
        raise ValueError("scan ranges must be nonempty")
    cells: dict[tuple[int, int], ScanCell] = {}
    for n in ns:
        usable = [k for k in ks if 2 <= k <= n]
        if not usable:
            continue
        table = bound_f_table(n, max(usable))
        denom, b_values = _b_table(n, max(usable), False)  # built by bound_f_table
        for k in usable:
            f_value, arg = table[k]
            cells[(n, k)] = ScanCell(f_value, Fraction(b_values[k - 2], denom), arg)
    thresholds: dict[int, int | None] = {}
    for k in ks:
        scanned = [n for n in ns if (n, k) in cells]
        if not scanned:
            thresholds[k] = None
            continue
        failures = [n for n in scanned if not cells[(n, k)].f_eq_b]
        if not failures:
            thresholds[k] = scanned[0]
        elif failures[-1] == scanned[-1]:
            thresholds[k] = None
        else:
            thresholds[k] = failures[-1]
    return ScanReport(ns, ks, cells, thresholds)
