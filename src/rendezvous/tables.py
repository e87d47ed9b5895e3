"""Deterministic CSV tables behind the workbench's comparison figures.

Most tables share one long schema: ``n,k,quantity,value,ceil`` with exact
rationals serialized as ``p/q`` (bare integers when the denominator is 1).
The n-RT comparison table (fig9) is wide, one column per curve.  Builders
are pure functions of their arguments, so repeated runs emit byte-identical
output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .automata import reached_length, set_profile, side_searches
from .boolmat import MatrixSet
from .bounds import (
    ScanReport,
    bound_b_recursive,
    bound_f,
    bound_f_table,
    conjectured_equality_onset,
    escape_lower_refined,
    lift_bound,
    scan_conjectures,
    szykula_bound,
)
from .heuristic import run_heuristic

LONG_HEADER = "n,k,quantity,value,ceil"
FIG9_HEADER = "n,F_n,B_n,szykula,n3_over_3"


def format_value(value: Fraction | int) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def long_row(n: int, k: int, quantity: str, value: Fraction | int) -> str:
    return f"{n},{k},{quantity},{format_value(value)},{math.ceil(value)}"


def to_csv(header: str, rows: Iterable[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _measured_vs_bounds_rows(n: int, quantity: str, lengths, include_f: bool) -> list[str]:
    """Per (k, length) of a measured quantity: its row, then F (if asked) and B."""
    f_table = bound_f_table(n, n) if include_f and n >= 2 else None
    rows = []
    for k, length in lengths:
        rows.append(long_row(n, k, quantity, length))
        if include_f:
            rows.append(long_row(n, k, "F", f_table[k][0]))
        rows.append(long_row(n, k, "B", bound_b_recursive(n, k)))
    return rows


def rt_vs_bounds_rows(
    mset: MatrixSet,
    include_f: bool,
    max_depth=None,
    max_states=None,
) -> list[str]:
    """Exact k-RT of one set next to the generic bounds, k in [2, n]; a
    k not reached is an error (see ``reached_length``)."""
    n = mset.n
    result = set_profile(mset, max_depth, max_states)
    lengths = [
        (k, reached_length(result, result.krt.get(k), f"exact rt_{k}")) for k in range(2, n + 1)
    ]
    return _measured_vs_bounds_rows(n, "rt", lengths, include_f)


def heuristic_vs_bounds_rows(
    mset: MatrixSet,
    include_f: bool,
    mode: str = "specific",
    only_k: int | None = None,
) -> list[str]:
    """Heuristic per-k lengths next to the bounds for one set, at every k
    or at ``only_k`` alone, which the caller checks lies in [2, n]."""
    n = mset.n
    trace = run_heuristic(mset, mode=mode)
    ks = [only_k] if only_k is not None else range(2, n + 1)
    lengths = [(k, trace.per_k_length[k]) for k in ks]
    return _measured_vs_bounds_rows(n, "heuristic", lengths, include_f)


def bounds_rows(n: int, ks: Sequence[int], ceil_variant: bool = False) -> list[str]:
    """B, F (with achieving h) and the h=2 lift cost per k, plus one cubic
    reference row; single-k requests also tabulate the refined escape
    bound over p."""
    rows = []
    f_table = bound_f_table(n, max(ks))
    b_name = "B_ceil" if ceil_variant else "B"
    for k in ks:
        f_value, arg = f_table[k]
        rows.append(long_row(n, k, b_name, bound_b_recursive(n, k, ceil_variant)))
        rows.append(long_row(n, k, "F", f_value))
        rows.append(long_row(n, k, "F_argmin_h", arg))
        rows.append(long_row(n, k, "U2", lift_bound(n, k, 2)))
    if len(ks) == 1:
        k = ks[0]
        if k <= n - 1:
            for p in range(1, min(k, n - k) + 1):
                rows.append(long_row(n, k, f"ahat_p{p}", escape_lower_refined(n, k, p)))
    rows.append(long_row(n, n, "szykula", szykula_bound(n)))
    return rows


def automata_krt_rows(mset: MatrixSet, max_depth=None, max_states=None) -> list[str]:
    """k-RT of both associated automata, from ``side_searches``, plus their
    minimum."""
    n = mset.n
    searches = side_searches(mset, max_depth, max_states)
    rows = []
    for k in range(2, n + 1):
        a, b = (reached_length(res, res.krt.get(k), f"automaton rt_{k}") for res in searches)
        rows.append(long_row(n, k, "rt_aut", a))
        rows.append(long_row(n, k, "rt_aut_T", b))
        rows.append(long_row(n, k, "rt_min", min(a, b)))
    return rows


def fixed_k_bound_rows(k: int, n_max: int) -> list[str]:
    """F and B for one k across n; the fixed-k comparison curve."""
    if n_max < k:
        raise ValueError(f"need n_max >= k, got n_max={n_max} < k={k}")
    rows = []
    for n in range(max(2, k), n_max + 1):
        rows.append(long_row(n, k, "F", bound_f(n, k)[0]))
        rows.append(long_row(n, k, "B", bound_b_recursive(n, k)))
    return rows


def scan_rows(n_values, k_values) -> list[str]:
    """Per-cell equality/argmin evidence plus per-k stabilization thresholds."""
    report = scan_conjectures(n_values, k_values)
    rows = []
    for (n, k) in sorted(report.cells):
        cell = report.cells[(n, k)]
        rows.append(long_row(n, k, "F_eq_B", int(cell.f_eq_b)))
        rows.append(long_row(n, k, "argmin_h", cell.argmin_h))
    return rows + _threshold_rows(report)


def threshold_rows(k_min: int, k_max: int, n_max: int) -> list[str]:
    """Stabilization threshold per k against the conjectured onset curve."""
    return _threshold_rows(scan_conjectures(range(2, n_max + 1), range(k_min, k_max + 1)))


def _threshold_rows(report: ScanReport) -> list[str]:
    """Per k, the conjectured onset and the observed threshold (when one
    fits), both on the row of the largest scanned n."""
    n_top = report.n_values[-1]
    rows = []
    for k in report.k_values:
        rows.append(long_row(n_top, k, "conjectured_n_k", conjectured_equality_onset(k)))
        threshold = report.thresholds[k]
        if threshold is not None:
            rows.append(long_row(n_top, k, "threshold_n", threshold))
    return rows


def nrt_comparison_rows(n_max: int) -> list[str]:
    """Wide rows n, F_n(n), B_n(n), cubic automaton bound, n^3/3 reference."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    rows = []
    for n in range(2, n_max + 1):
        f_value, _ = bound_f(n, n)
        b_value = bound_b_recursive(n, n)
        rows.append(
            ",".join(
                [
                    str(n),
                    format_value(f_value),
                    format_value(b_value),
                    format_value(szykula_bound(n)),
                    format_value(Fraction(n**3, 3)),
                ]
            )
        )
    return rows
