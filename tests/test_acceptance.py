"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as derived were computed by the independent
oracles embedded here (exhaustive enumeration, hand-unrolled DP, naive
closures), never by the code under test.
"""

import itertools
import random
import time
from fractions import Fraction

from rendezvous import (
    BoolMatrix,
    associated_automaton,
    bound_b_closed,
    bound_b_recursive,
    bound_f,
    bound_f_table,
    build_witness,
    conjectured_equality_onset,
    cpr_set,
    escape_lower,
    evaluate_escape,
    example_set,
    kari_set,
    lift_bound,
    run_heuristic,
    scan_conjectures,
    set_profile,
    szykula_bound,
    verify_krt_equality,
    verify_sandwich,
)
from rendezvous.cli import main as cli_main
from helpers import random_primitive_set


def ok(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_example_triple():
    started = time.monotonic()
    report = verify_sandwich(example_set())
    elapsed = time.monotonic() - started
    assert report.exponent == 7
    assert report.rt_aut == 2
    assert report.rt_aut_transpose == 3
    assert report.lower_ok and report.upper_ok
    assert report.upper == 7 and report.tight
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(1, f"exponent 7, resets (2, 3), sandwich tight, {elapsed * 1000:.0f} ms")


def test_criterion_02_automaton_reconstruction():
    printed = {
        BoolMatrix.from_rows(m).rows
        for m in (
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [0, 0, 1]],
        )
    }
    printed_t = {
        BoolMatrix.from_rows(m).rows
        for m in (
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 1, 0], [1, 0, 0], [0, 1, 0]],
        )
    }
    aut = associated_automaton(example_set())
    aut_t = associated_automaton(example_set().transposed())
    assert {letter.rows for letter in aut.letters} == printed
    assert {letter.rows for letter in aut_t.letters} == printed_t
    ok(2, "both associated automata match the printed letters exactly")


def test_criterion_03_escape_evaluator():
    a = BoolMatrix.from_rows([[1, 0, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    b = BoolMatrix.from_rows([[1, 1, 1, 0], [1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    c = BoolMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    a_hat = BoolMatrix.from_rows(
        [[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 0]]
    )
    eval_a = evaluate_escape(a, 2)
    assert eval_a.member and eval_a.value == 2
    assert eval_a.columns == (0, 2)  # columns {1, 3} 1-indexed
    eval_b = evaluate_escape(b, 2)
    assert not eval_b.member and "weight 3" in eval_b.reason
    eval_c = evaluate_escape(c, 2)
    assert not eval_c.member and eval_c.reason == "no column of weight 2"
    eval_hat = evaluate_escape(a_hat, 2)
    assert eval_hat.member and eval_hat.value == 1
    ok(3, "worked 4x4 example: values 2 and 1, both rejections with reasons")


def test_criterion_04_bound_equality_grid():
    started = time.monotonic()
    cells = 0
    for n in range(2, 201):
        for k in range(2, n + 1):
            assert bound_b_recursive(n, k) == bound_b_closed(n, k), (n, k)
            cells += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    ok(4, f"recursion == closed form on {cells} cells in {elapsed:.2f}s")


def hand_unrolled_lift_10_3() -> int:
    # Weight 2 -> 3 at n = 10, one DP level, unrolled by hand:
    # p=1: refined bound max{7, 8, 1} = 8, routes min{0+45, 0+15} = 15
    # p=2: refined bound max{7, 4, 1} = 7, routes min{0+45, 0+20} = 20
    return max(min(45, 15), min(45, 20))


def test_criterion_05_dominance_and_lift_oracle():
    assert hand_unrolled_lift_10_3() == 20
    assert lift_bound(10, 3, 2) == 20
    value, argmin_h = bound_f(10, 3)
    assert value == 21 and argmin_h == 2
    for n in range(2, 201):
        table = bound_f_table(n, n)
        for k in range(2, n + 1):
            assert table[k][0] <= bound_b_recursive(n, k), (n, k)
    ok(5, "F <= B on the full [2,200] grid; lift(10,3,2)=20 vs hand DP")


def exhaustive_min_escape_4_2() -> int:
    """Enumerate every 4x4 candidate and minimize the escape count.

    Membership and counting are done with plain set arithmetic, sharing
    nothing with the production evaluator.
    """
    best = None
    for rows in itertools.product(range(16), repeat=4):
        if any(r == 0 for r in rows):
            continue
        if any(bin(r).count("1") > 2 for r in rows):
            continue
        col_sets = [
            {i for i in range(4) if (rows[i] >> j) & 1} for j in range(4)
        ]
        if any(not col for col in col_sets):
            continue
        if any(len(col) > 2 for col in col_sets):
            continue
        heavy = [j for j in range(4) if len(col_sets[j]) == 2]
        if not heavy:
            continue
        value = min(
            sum(1 for i in range(4) if not col_sets[i] <= col_sets[c])
            for c in heavy
        )
        if best is None or value < best:
            best = value
    return best


def test_criterion_06_sandwich_pinch():
    for n in range(3, 31):
        for k in range(2, n):
            witness = build_witness(n, k)
            evaluation = evaluate_escape(witness.matrix, k)
            assert evaluation.member, (n, k)
            assert evaluation.value == witness.claimed == escape_lower(n, k), (n, k)
    assert exhaustive_min_escape_4_2() == 1
    ok(6, "lower <= witness value == upper on [3,30]; exhaustive n=4,k=2 min is 1")


def test_criterion_07_krt_equality_and_exact_curves():
    rng = random.Random(20260811)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        m = rng.randint(1, 2)
        mset = random_primitive_set(rng, n, m)
        for k in range(2, n + 1):
            report = verify_krt_equality(mset, k)
            assert report.equal, (mset, k, report)
        checked += 1
    for mset in (example_set(), cpr_set()):
        for k in range(2, mset.n + 1):
            assert verify_krt_equality(mset, k).equal

    # Exact k-RT curves of the two builtin comparison sets, regenerated by
    # subset search on the generators, sit below both bound curves pointwise.
    for mset in (cpr_set(), kari_set()):
        n = mset.n
        result = set_profile(mset)
        f_table = bound_f_table(n, n)
        for k in range(2, n + 1):
            rt = result.krt[k].length
            f_value = f_table[k][0]
            b_value = bound_b_recursive(n, k)
            assert rt <= f_value <= b_value, (mset.n, k, rt, f_value, b_value)
    ok(7, "equality on 200 random primitive sets + builtins; rt <= F <= B curves")


def test_criterion_08_heuristic_dominance():
    suite = [cpr_set(), kari_set()]
    rng = random.Random(81)
    for _ in range(20):
        n = rng.randint(2, 6)
        suite.append(random_primitive_set(rng, n, 2))
    for _ in range(5):
        suite.append(random_primitive_set(rng, rng.randint(2, 5), 3))
    for mset in suite:
        exact = set_profile(mset)
        assert all(k in exact.krt for k in range(2, mset.n + 1))
        trace = run_heuristic(mset)
        full = (1 << mset.n) - 1
        assert trace.final.col(trace.column_index) == full
        for k in range(2, mset.n + 1):
            assert trace.per_k_length[k] >= exact.krt[k].length, (mset.labels, k)
    ok(8, f"per-k heuristic lengths dominate exact k-RT on {len(suite)} sets")


def test_criterion_09_conjecture_scans():
    window = scan_conjectures(range(21, 31), [4])
    assert all(cell.f_eq_b for cell in window.cells.values())

    report = scan_conjectures(range(2, 1001), range(7, 21))
    hits = 0
    misses = []
    for k in range(7, 21):
        threshold = report.thresholds[k]
        onset = conjectured_equality_onset(k)
        if threshold is not None and threshold <= onset:
            hits += 1
        else:
            misses.append((k, threshold, onset))
    for k, threshold, onset in misses:
        print(f"criterion 9 miss: k={k} threshold={threshold} conjectured={onset}")
    assert hits >= 0.9 * 14, f"only {hits}/14 within the conjectured onset"
    ok(9, f"k=4 window all F=B; thresholds within onset for {hits}/14 k values")


def test_criterion_10_szykula_reference(capsys):
    assert szykula_bound(100) == 167391
    code = cli_main(["figure", "fig9", "--n-max", "150"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,F_n,B_n,szykula,n3_over_3"

    def fraction(cell: str) -> Fraction:
        if "/" in cell:
            num, den = cell.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(cell))

    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(2, 151))
    by_n = {int(r[0]): r for r in rows}
    assert fraction(by_n[100][3]) == 167391
    # The refined bound stays above the cubic automaton bound from n=4 on
    # (n = 2, 3 are the only exceptions), so no improvement on the n-RT.
    for n, row in by_n.items():
        if n >= 4:
            assert fraction(row[1]) >= fraction(row[3]), n
    with capsys.disabled():
        ok(10, "szykula(100)=167391; fig9 rows keep F_n(n) >= szykula for n >= 4")
