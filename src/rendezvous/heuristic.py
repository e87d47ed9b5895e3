"""Greedy column-growing heuristic for short positive-column products.

Seeded with the generator holding the heaviest column, the algorithm
repeatedly picks the column whose support escapes the grown column's
support at the smallest pair-digraph distance, appends the labels of that
shortest merging path, and multiplies them in.  Each round strictly
enlarges the grown column's support, so at most n - 1 rounds produce a
product with an all-ones column.

The product is kept as its columns only, since every step reads columns:
growing one column, scanning the escaping columns, seeding by column
weight.  By (PG)^T = G^T P^T, column j of P·G is the ``row_image`` of the
columns under column j of G, so a letter costs nnz(G), not nnz(P), and
``final`` is one transpose at the end.  Each generator has a plan: one
``operator.itemgetter`` picking, for every column j, the product column at
the lowest one of column j of G, plus the remaining ones of the columns of
G with more than one.  A letter is then one C-level gather and a
``row_image`` per such column; permutation-plus-one letters are almost
pure gathers.

The routing table is the primitivity report's ``pairgraph`` BFS table,
and neither mode builds the pair digraph.  ``any`` mode routes by the
all-singleton table.  ``specific`` mode runs the one BFS to the grown
column's singleton: in a primitive set every pair reaches every singleton,
so that table alone proves primitivity and routes the rounds.

Prefix weights (rows and columns both; the max weight of P is that of its
transpose) are tracked letter by letter until some line reaches weight n,
giving an upper bound on the k-rendezvous time for every k at once.  A
prefix is weighed only where its letter can raise the largest weight
reached so far, ``len(per_k) + 1``.  On the column side that is exact and
cheap: the columns outside the plan's remainders are copies of columns of
P, so only the recomputed ones are counted.  On the row side, for NZ G,
|row_i(PG)| <= |row_i(P)| + nnz(G) - n, so an upper bound on P's max row
weight grows by the letter's excess nnz(G) - n; the rows are counted
(``max_column_weight`` over the columns) only when that bound passes the
largest weight, which resets the bound to the exact count.  Permutation
letters have no excess and never trigger a row count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .boolmat import BoolMatrix, MatrixSet, max_column_weight, row_image
from .pairgraph import pair_id, require_primitive
from .semigroup import note_first_reach

MODES = ("specific", "any")


@dataclass
class HeuristicTrace:
    """Word produced by the heuristic (seed generator first), its product,
    the grown column, and per-k first-reach prefix lengths."""

    word: tuple[int, ...]
    final: BoolMatrix
    column_index: int
    per_k_length: dict[int, int]
    mode: str
    iterations: int

    @property
    def length(self) -> int:
        return len(self.word)


def _letter_plan(g_cols: tuple[int, ...]):
    """Gather of each column's lowest source, and the columns with more."""
    lowest = itemgetter(*[(c & -c).bit_length() - 1 for c in g_cols])
    return lowest, [(j, c & (c - 1)) for j, c in enumerate(g_cols) if c & (c - 1)]


def _times(cols, plan):
    """Columns of P·G from the columns of P and G's plan."""
    lowest, rest = plan
    out = lowest(cols)
    if not rest:
        return out
    out = list(out)
    for j, mask in rest:
        out[j] |= row_image(cols, mask)
    return out


def run_heuristic(mset: MatrixSet, mode: str = "specific") -> HeuristicTrace:
    """Run the greedy growth loop on a primitive set.

    ``specific`` keeps growing one fixed column i, always routing pairs to
    the singleton (i, i); ``any`` routes each pair to its nearest singleton
    and relabels the grown column to the singleton reached.  Ties always
    break toward the lowest generator index, then the lowest column index.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    n = mset.n
    full = (1 << n) - 1
    gen_cols = [g.transpose().rows for g in mset.generators]

    # Seed: the generator holding the heaviest column, grown at that column.
    seed_weights = [[c.bit_count() for c in g_cols] for g_cols in gen_cols]
    seed_idx = max(range(mset.m), key=lambda g_idx: max(seed_weights[g_idx]))
    grown = seed_weights[seed_idx].index(max(seed_weights[seed_idx]))
    cols = gen_cols[seed_idx]

    distances = require_primitive(mset, (grown, grown) if mode == "specific" else None).distances
    # At n = 1 the seed column is already full (the one NZ matrix is [1]),
    # so no plan runs; a one-item itemgetter would return a bare int.
    plans = [_letter_plan(g_cols) for g_cols in gen_cols]
    # nnz(G) - n: the ones of G's columns past their lowest.
    excess = [sum(mask.bit_count() for _, mask in rest) for _, rest in plans]

    word: list[int] = [seed_idx]
    per_k: dict[int, int] = {}
    row_bound = max_column_weight(n, cols)  # >= the max row weight of P
    note_first_reach(per_k, max(row_bound, max(map(int.bit_count, cols))), lambda: 1)

    def note(g_idx: int) -> None:
        nonlocal row_bound
        if len(per_k) == n - 1:
            return
        weight = max([cols[j].bit_count() for j, _ in plans[g_idx][1]], default=0)
        row_bound += excess[g_idx]
        if row_bound > len(per_k) + 1:
            row_bound = max_column_weight(n, cols)
            weight = max(weight, row_bound)
        note_first_reach(per_k, weight, lambda: len(word))

    iterations = 0
    while cols[grown] != full:
        iterations += 1
        support = cols[grown]
        # Primitivity guarantees every pair reaches every singleton, so some
        # column escapes the support at a known distance; ties go to the lowest j.
        _, best_j = min(
            (distances.dist[pair_id(n, grown, j)], j)
            for j, col in enumerate(cols)
            if col & ~support
        )
        labels, endpoint = distances.path_from((grown, best_j))
        for g_idx in labels:
            cols = _times(cols, plans[g_idx])
            word.append(g_idx)
            note(g_idx)
        if mode == "any":
            grown = endpoint[0]
        # Merging paths absorb the escaping column, so growth is strict and
        # the loop ends within n rounds.
        if support & ~cols[grown] or cols[grown] == support:
            raise RuntimeError(f"column {grown} did not grow past its support {support:#x}")

    return HeuristicTrace(
        word=tuple(word),
        final=BoolMatrix(n, tuple(cols)).transpose(),
        column_index=grown,
        per_k_length=per_k,
        mode=mode,
        iterations=iterations,
    )
