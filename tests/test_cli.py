import hashlib
import importlib.util
import io
import itertools
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rendezvous import (
    BoolMatrix, MatrixSet, associated_automaton, cpr_set, example_set,
    explore, kari_set, parse_set_file, parse_set_text, semigroup, serialize_set, set_profile,
    subset_bfs, witness_replay,
)
from rendezvous.bounds import _B_TABLES, _LIFT_GRIDS
from rendezvous.cli import FLAGS_READ, _cmd_witness, build_parser, main
from helpers import letter_set, plain_subset_levels, semigroup_closure, shift_plus_one

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_fraction(text):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def long_rows(out):
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,quantity,value,ceil"
    rows = []
    for line in lines[1:]:
        n, k, quantity, value, ceiling = line.split(",")
        rows.append((int(n), int(k), quantity, parse_fraction(value), int(ceiling)))
    return rows


class TestScalarCommands:
    def test_exponent_example(self, capsys):
        code, out, err = run(capsys, "exponent", "--builtin", "example")
        assert code == 0
        assert out == "7\n"

    def test_exponent_depth_limited(self, capsys):
        code, out, _ = run(
            capsys, "exponent", "--builtin", "example", "--max-depth", "2"
        )
        assert code == 0
        assert out.startswith("not-found (depth")

    def test_check_primitive(self, capsys):
        code, out, _ = run(capsys, "check", "--builtin", "example")
        assert code == 0
        assert "nz: true" in out
        assert "irreducible: true" in out
        assert "primitive: true" in out

    def test_check_non_primitive_certificate(self, capsys, tmp_path):
        path = tmp_path / "cycle.set"
        path.write_text("2 1\n\n01\n10\n")
        code, out, _ = run(capsys, "check", "--file", str(path))
        assert code == 0
        assert "primitive: false" in out
        assert "certificate:" in out

    def test_krt_profile(self, capsys):
        code, out, _ = run(capsys, "krt", "--builtin", "example")
        assert code == 0
        assert "k=2 rt=1" in out
        assert "k=3 rt=2" in out
        assert "exponent=7" in out

    def test_krt_states_limit_named(self, capsys):
        code, out, _ = run(capsys, "krt", "--builtin", "example", "--max-states", "1")
        assert code == 0
        # The cap holds during the first level too.  The profile's two subset
        # searches store one singleton each (length 0), then stop; the
        # exponent search stores one generator (length 1, in the bucket
        # d + h = 6) and stops there.
        assert out.splitlines() == [
            "k=2 rt=not-found (states; explored=2, depth=0)",
            "k=3 rt=not-found (states; explored=2, depth=0)",
            "exponent=not-found (states; explored=1, depth=1)",
        ]

    def test_cpr_exponent_found_under_a_cap_the_passes_outgrow(self, capsys):
        # Passes restarted for each bound U would store each bounded closure
        # again, more in all on cpr than the one search, which resumes and
        # finds the exponent once the cap holds what it stores.  One product
        # fewer ends it at the state cap.
        cpr = cpr_set()
        full = explore(cpr)
        exponent = full.exponent.length
        passes = sum(len(semigroup_closure(cpr, bound=u)) for u in range(1, exponent + 1))
        assert passes > full.explored
        args = ("--builtin", "cpr", "--max-states", str(full.explored))
        assert run(capsys, "exponent", *args) == (0, f"{exponent}\n", "")
        code, out, err = run(capsys, "automata", "sandwich", *args)
        assert (code, err) == (0, "")
        assert f"exponent={exponent}" in out.splitlines()
        cap = full.explored - 1
        depth = explore(cpr, max_states=cap).depth_reached
        out = run(capsys, "exponent", "--builtin", "cpr", "--max-states", str(cap))
        assert out == (0, f"not-found (states; explored={cap}, depth={depth})\n", "")

    def test_krt_single_k_depth_limit_named(self, capsys):
        code, out, _ = run(
            capsys, "krt", "--builtin", "example", "--k", "3", "--max-depth", "1"
        )
        assert code == 0
        # explored= is derived in test_set_profile_explored_counts_follow_the_oracle.
        assert out == "k=3 rt=not-found (depth; explored=8, depth=1)\n"

    def test_witness_verifies(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "10", "--k", "3")
        assert code == 0
        assert "verified=true" in out
        assert "evaluated=3" in out

    def test_heuristic_trace(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--builtin", "cpr", "--mode", "any")
        assert code == 0
        assert "k=4 length=" in out
        assert out.startswith("mode=any")

    @pytest.mark.parametrize("mode", ["specific", "any"])
    def test_heuristic_past_one_word_prints_the_recorded_trace(self, capsys, mode):
        # perm70.<mode>.out is the stdout recorded before the heuristic kept
        # its product as columns; word, column and every k line must match.
        expected = (DATA / f"perm70.{mode}.out").read_text()
        assert run(capsys, "heuristic", "--mode", mode, "--file", str(DATA / "perm70.set")) == (
            0, expected, "")


class TestAutomataCommands:
    def test_construct_lists_letters(self, capsys):
        code, out, _ = run(capsys, "automata", "construct", "--builtin", "example")
        assert code == 0
        assert "aut: 3 letters" in out
        assert "aut_T: 3 letters" in out

    def test_rt(self, capsys):
        code, out, _ = run(capsys, "automata", "rt", "--builtin", "example")
        assert code == 0
        assert "aut: rt=2" in out
        assert "aut_T: rt=3" in out

    def test_sandwich(self, capsys):
        code, out, _ = run(capsys, "automata", "sandwich", "--builtin", "example")
        assert code == 0
        assert "rt_aut=2" in out
        assert "exponent=7" in out
        assert "tight=true" in out

    def test_krt_equality(self, capsys):
        code, out, _ = run(
            capsys, "automata", "krt-equality", "--builtin", "example", "--k", "3"
        )
        assert code == 0
        assert "equal=true" in out

    def test_krt_table(self, capsys):
        code, out, _ = run(capsys, "automata", "krt", "--builtin", "cpr")
        assert code == 0
        rows = long_rows(out)
        mins = {k: v for (_, k, q, v, _c) in rows if q == "rt_min"}
        assert mins[2] == 1

    def test_subset_search_stops_at_the_default_state_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(semigroup, "DEFAULT_MAX_STATES", 7)
        aut = associated_automaton(cpr_set())
        assert subset_bfs(aut.n, aut.letters).limit == "states"
        for result in (explore(cpr_set()), set_profile(cpr_set())):
            assert result.limit == "states"
        code, out, err = run(capsys, "automata", "rt", "--builtin", "cpr")
        assert (code, err) == (0, "")
        assert out.startswith("aut: rt=not-found (states; explored=7, depth=")
        assert run(capsys, "automata", "rt", "--builtin", "cpr", "--max-states", "7") == (
            code, out, err)

    def test_every_exact_search_refuses_n_above_64(self, capsys, tmp_path):
        path = tmp_path / "shift65.set"
        path.write_text(serialize_set(shift_plus_one(65)))
        refused = (1, "", "dimension: exact search supports n <= 64, got 65\n")
        for argv in (
            ("automata", "rt"),
            ("automata", "krt"),
            ("automata", "sandwich"),
            ("automata", "krt-equality", "--k", "2"),
            ("exponent",),
            ("krt",),
        ):
            assert run(capsys, *argv, "--file", str(path)) == refused, argv
        # Building the automata is not a search.
        code, out, err = run(capsys, "automata", "construct", "--file", str(path))
        assert (code, err) == (0, "")
        assert "aut: 2 letters" in out and "aut_T: 2 letters" in out

    def test_sparse08_exponent_lies_in_the_sandwich(self, capsys):
        # A primitive pair at n = 8 (two permutations plus three ones) whose
        # exponent 29 the unbounded level search did not reach within
        # 300,000 stored products; the bounded search stores a few thousand.
        mset = parse_set_file(SPARSE08)
        cap = ("--file", SPARSE08, "--max-states", "100000")
        assert run(capsys, "exponent", *cap) == (0, "29\n", "")
        code, out, err = run(capsys, "krt", *cap)
        assert (code, err) == (0, "")
        labels = out.splitlines()[-1].removeprefix("exponent=29 word=").split(",")
        word = [mset.labels.index(label) for label in labels]
        assert len(word) == 29
        assert witness_replay(mset, word) == BoolMatrix.ones(8)
        code, out, err = run(capsys, "automata", "sandwich", *cap)
        assert (code, err) == (0, "")
        fields = dict(line.split("=") for line in out.splitlines())
        assert fields["exponent"] == "29"
        assert int(fields["rt_aut"]) <= 29 <= int(fields["upper"])
        assert fields["lower_ok"] == fields["upper_ok"] == "true"

    def test_letter_cap_error(self, capsys):
        code, out, err = run(
            capsys, "automata", "construct", "--builtin", "example",
            "--letter-cap", "2",
        )
        assert code == 1
        assert err.startswith("letter-cap:")
        assert "3 letters" in err


class TestBoundsCommand:
    def test_f_below_b_in_every_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10", "--k-max", "10")
        assert code == 0
        rows = long_rows(out)
        b = {k: v for (_, k, q, v, _c) in rows if q == "B"}
        f = {k: v for (_, k, q, v, _c) in rows if q == "F"}
        assert set(b) == set(f) == set(range(2, 11))
        for k in range(2, 11):
            assert f[k] <= b[k]

    def test_single_k_includes_refined_escape(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10", "--k", "3")
        assert code == 0
        rows = long_rows(out)
        quantities = {q for (_, _, q, _, _) in rows}
        assert "ahat_p1" in quantities
        assert "szykula" in quantities

    def test_ceil_variant_renames_quantity(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "10", "--k", "4", "--ceil-variant")
        assert code == 0
        assert "B_ceil" in out

    def test_dimension_below_two_rejected(self, capsys):
        code, out, err = run(capsys, "bounds", "--n", "1")
        assert code == 1
        assert out == ""
        assert err == "domain: need --n >= 2, got 1\n"

    def test_empty_k_range_rejected(self, capsys):
        for k_max in ("1", "0"):
            code, out, err = run(capsys, "bounds", "--n", "10", "--k-max", k_max)
            assert code == 1
            assert out == ""
            assert err == f"domain: need --k-max >= 2, got {k_max}\n"

    @pytest.mark.parametrize("command, top", [("bounds", "--n"), ("scan", "--n-max")])
    @pytest.mark.parametrize(
        "flags, err",
        [
            (("--k", "9"), "domain: --k must be in [2, 5], got 9\n"),
            (("--k", "1"), "domain: --k must be in [2, 5], got 1\n"),
            (("--k-max", "9"), "domain: --k-max must be in [2, 5], got 9\n"),
            (("--k", "3", "--k-max", "4"), "domain: give either --k or --k-max, not both\n"),
        ],
    )
    def test_k_flags_checked_like_scan(self, capsys, command, top, flags, err):
        # One check serves both commands, so each names the flag out of range.
        assert run(capsys, command, top, "5", *flags) == (1, "", err)


class TestFigures:
    def test_fig2a_deterministic(self, capsys):
        _, first, _ = run(capsys, "figure", "fig2a")
        _, second, _ = run(capsys, "figure", "fig2a")
        assert first == second
        rows = long_rows(first)
        rt = {k: v for (_, k, q, v, _c) in rows if q == "rt"}
        assert rt[2] == 1

    def test_fig5_includes_f_column(self, capsys):
        code, out, _ = run(capsys, "figure", "fig5", "--builtin", "cpr")
        assert code == 0
        quantities = {q for (_, _, q, _, _) in long_rows(out)}
        assert quantities == {"rt", "F", "B"}

    def test_fig3_requires_file(self, capsys):
        code, _, err = run(capsys, "figure", "fig3")
        assert code == 1
        assert err.startswith("domain:")

    def test_fig3_with_file(self, capsys):
        code, out, _ = run(capsys, "figure", "fig3", "--file", str(DATA / "cpr.set"))
        assert code == 0
        quantities = {q for (_, _, q, _, _) in long_rows(out)}
        assert quantities == {"heuristic", "B"}

    def test_fig4_accepts_multiple_files(self, capsys):
        code, out, _ = run(
            capsys,
            "figure", "fig4",
            "--file", str(DATA / "cpr.set"),
            "--file", str(DATA / "kari.set"),
            "--k", "3",
        )
        assert code == 0
        rows = long_rows(out)
        assert {n for (n, _, _, _, _) in rows} == {4, 6}
        assert all(k == 3 for (_, k, _, _, _) in rows)

    def test_multiple_files_rejected_elsewhere(self, capsys):
        code, _, err = run(
            capsys,
            "figure", "fig3",
            "--file", str(DATA / "cpr.set"),
            "--file", str(DATA / "kari.set"),
        )
        assert code == 1
        assert "fig4" in err

    def test_fig7_fixed_k(self, capsys):
        code, out, _ = run(capsys, "figure", "fig7", "--k", "5", "--n-max", "30")
        assert code == 0
        rows = long_rows(out)
        assert {n for (n, _, _, _, _) in rows} == set(range(5, 31))

    def test_fig8_threshold_table(self, capsys):
        code, out, _ = run(
            capsys, "figure", "fig8", "--k-max", "8", "--n-max", "100"
        )
        assert code == 0
        rows = long_rows(out)
        thresholds = {k: v for (_, k, q, v, _c) in rows if q == "threshold_n"}
        conjectured = {k: v for (_, k, q, v, _c) in rows if q == "conjectured_n_k"}
        assert conjectured == {7: 54, 8: 76}
        assert thresholds == {7: 54, 8: 76}

    def test_fig9_wide_format(self, capsys):
        code, out, _ = run(capsys, "figure", "fig9", "--n-max", "20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,F_n,B_n,szykula,n3_over_3"
        assert len(lines) == 20  # header + n in [2, 20]
        n, f, b, szy, ref = lines[9].split(",")
        assert n == "10"
        assert parse_fraction(f) <= parse_fraction(b)
        assert parse_fraction(szy) == Fraction(15617 * 1000 + 7500 * 100 + 93750 - 31250, 93750)
        assert parse_fraction(ref) == Fraction(1000, 3)


class TestScanCommand:
    def test_scan_reports_cells_and_thresholds(self, capsys):
        code, out, _ = run(capsys, "scan", "--n-max", "30", "--k", "4")
        assert code == 0
        rows = long_rows(out)
        eq = [(n, v) for (n, _, q, v, _c) in rows if q == "F_eq_B"]
        assert all(v == 1 for (n, v) in eq if n >= 21)
        quantities = {q for (_, _, q, _, _) in rows}
        assert "conjectured_n_k" in quantities


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--file", "/nonexistent.set")
        assert code == 1
        assert err.startswith("set-file:")

    def test_domain_error_category(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "3", "--k", "3")
        assert code == 1
        assert err.startswith("domain:")

    def test_parse_error_category(self, capsys, tmp_path):
        path = tmp_path / "bad.set"
        path.write_text("2 1\n\n1x\n01\n")
        code, _, err = run(capsys, "check", "--file", str(path))
        assert code == 1
        assert err.startswith("set-file: line 3")


ONE = str(DATA / "one.set")
KARI = str(DATA / "kari.set")
SPARSE08 = str(DATA / "sparse08.set")
SWAP = str(DATA / "swap.set")  # a permutation: no automaton search ever resets it
# Reducible, yet every pair reaches (0, 0), the heuristic's seed singleton.
LOWER = str(DATA / "lower.set")
# One generator whose state 2 has an edge to itself only: a reducible set.
REDUCIBLE3 = str(DATA / "reducible3.set")
# Two 8-cycles joined by one edge: a reducible set past the distance table.
REDUCIBLE16 = str(DATA / "reducible16.set")
# One generator a = I + P at n = 13, P the cyclic shift: rows of weight 2, so
# 2^13 = 8,192 raw letters on each side, and rt_k = k - 1 for every k.
HEAVY = str(DATA / "heavy13.set")
HEAVY_KRT = "n,k,quantity,value,ceil\n" + "".join(
    f"13,{k},{quantity},{k - 1},{k - 1}\n"
    for k in range(2, 14)
    for quantity in ("rt_aut", "rt_aut_T", "rt_min")
)


def shift_automaton_text(title: str, label: str, step: int, n: int = 13) -> str:
    """What construct prints for one side of HEAVY: its generator's row i is
    {i, i + step mod n}, so each pick of one state per row, in
    itertools.product order, is a letter of its own, labelled by its index."""
    lines = [f"{title}: {2**n} letters"]
    rows = [sorted({i, (i + step) % n}) for i in range(n)]
    for index, pick in enumerate(itertools.product(*rows)):
        lines.append(f"# {label}{index + 1}")
        lines.extend("".join("1" if j == state else "0" for j in range(n)) for state in pick)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (("exponent", "--builtin", "cpr", "--max-states", "0"), 1, "",
         "domain: need --max-states >= 1, got 0\n"),
        (("exponent", "--builtin", "cpr", "--max-states", "-1"), 1, "",
         "domain: need --max-states >= 1, got -1\n"),
        (("krt", "--builtin", "cpr", "--max-depth", "-3"), 1, "",
         "domain: need --max-depth >= 1, got -3\n"),
        (("figure", "fig2a", "--max-depth", "0"), 1, "",
         "domain: need --max-depth >= 1, got 0\n"),
        (("automata", "rt", "--builtin", "cpr", "--letter-cap", "0"), 1, "",
         "domain: need --letter-cap >= 1, got 0\n"),
        (("scan", "--n-max", "5", "--k-max", "0"), 1, "",
         "domain: need --k-max >= 2, got 0\n"),
        (("scan", "--n-max", "0"), 1, "", "domain: need --n-max >= 2, got 0\n"),
        (("figure", "fig7", "--k", "3", "--n-max", "0"), 1, "",
         "domain: need --n-max >= 3, got 0\n"),
        (("figure", "fig8", "--n-max", "0"), 1, "", "domain: need --n-max >= 2, got 0\n"),
        (("figure", "fig8", "--k-max", "0"), 1, "", "domain: need --k-max >= 7, got 0\n"),
        (("figure", "fig9", "--n-max", "0"), 1, "", "domain: need --n-max >= 2, got 0\n"),
        (("automata", "sandwich", "--file", ONE), 1, "",
         "domain: the sandwich needs n >= 2, got n=1\n"),
        (("automata", "rt", "--file", ONE), 0, "aut: rt=0 word=-\naut_T: rt=0 word=-\n", ""),
        (("exponent", "--file", ONE), 0, "1\n", ""),
        (("automata", "rt", "--builtin", "kari", "--max-states", "1"), 0,
         "aut: rt=not-found (states; explored=1, depth=0)\n"
         "aut_T: rt=not-found (states; explored=1, depth=0)\n", ""),
        # Each explored= under a depth limit is the number of subsets in the
        # first levels of the plain-levels oracle; see
        # test_depth_limited_explored_counts_follow_the_oracle.
        (("automata", "rt", "--builtin", "cpr", "--max-depth", "3"), 0,
         "aut: rt=not-found (depth; explored=9, depth=3)\n"
         "aut_T: rt=not-found (depth; explored=9, depth=3)\n", ""),
        (("automata", "krt", "--builtin", "cpr", "--max-depth", "1"), 1, "",
         "limit: automaton rt_3 not found within limits (limit=depth, explored=5, depth=1)\n"),
        (("automata", "sandwich", "--builtin", "cpr", "--max-states", "7"), 1, "",
         "limit: automaton reset threshold not found within limits "
         "(limit=states, explored=7, depth=2)\n"),
        (("automata", "krt-equality", "--builtin", "kari", "--k", "3", "--max-depth", "3"), 1, "",
         "limit: automaton rt_3 not found within limits (limit=depth, explored=12, depth=3)\n"),
        (("scan", "--n-max", "5", "--k", "1"), 1, "", "domain: --k must be in [2, 5], got 1\n"),
        (("scan", "--n-max", "5", "--k", "9"), 1, "", "domain: --k must be in [2, 5], got 9\n"),
        (("automata", "rt", "--file", SWAP, "--max-depth", "1"), 0,
         "aut: not-synchronizing\naut_T: not-synchronizing\n", ""),
        (("scan", "--n-max", "5", "--k-max", "9"), 1, "",
         "domain: --k-max must be in [2, 5], got 9\n"),
        # Each side of the profile stores 5 of kari's 6 singletons, so no
        # subset of size 2 is met.
        (("figure", "fig5", "--builtin", "kari", "--max-states", "5"), 1, "",
         "limit: exact rt_2 not found within limits (limit=states, explored=10, depth=0)\n"),
        (("heuristic", "--mode", "specific", "--file", SWAP), 1, "",
         "not-primitive: pair (0,1) reaches no singleton\n"),
        (("heuristic", "--mode", "any", "--file", SWAP), 1, "",
         "not-primitive: pair (0,1) reaches no singleton\n"),
        (("heuristic", "--mode", "specific", "--file", LOWER), 1, "",
         "not-primitive: reducible: no path from state 0 to state 1\n"),
        (("heuristic", "--mode", "any", "--file", LOWER), 1, "",
         "not-primitive: reducible: no path from state 0 to state 1\n"),
        (("figure", "fig5", "--file", ONE), 0, "n,k,quantity,value,ceil\n", ""),
        (("figure", "fig6", "--file", ONE), 0, "n,k,quantity,value,ceil\n", ""),
        # A figure fails on a flag it does not read.
        (("figure", "fig6", "--file", KARI, "--k", "99"), 1, "",
         "domain: figure fig6 does not read --k\n"),
        (("figure", "fig2a", "--file", KARI), 1, "",
         "domain: figure fig2a does not read --file\n"),
        (("figure", "fig9", "--n-max", "5", "--mode", "any", "--builtin", "kari"), 1, "",
         "domain: figure fig9 does not read --builtin\n"),
        # fig4 checks --k against every set before any heuristic runs.
        (("figure", "fig4", "--file", SWAP, "--k", "99"), 1, "",
         "domain: k=99 out of range [2, 2]\n"),
        # A search that runs out of candidates without its target, with no
        # limit hit, proves the set is not primitive.
        (("figure", "fig5", "--file", SWAP), 1, "",
         "not-primitive: exact rt_2 not reached: the search exhausted, "
         "so the set is not primitive\n"),
        (("automata", "krt", "--file", SWAP), 1, "",
         "not-primitive: automaton rt_2 not reached: the search exhausted, "
         "so the set is not primitive\n"),
        # An automata action fails on a flag it does not read, as a figure does.
        (("automata", "rt", "--builtin", "cpr", "--k", "3"), 1, "",
         "domain: automata rt does not read --k\n"),
        (("automata", "sandwich", "--builtin", "cpr", "--k", "3"), 1, "",
         "domain: automata sandwich does not read --k\n"),
        (("automata", "construct", "--builtin", "cpr", "--max-depth", "3"), 1, "",
         "domain: automata construct does not read --max-depth\n"),
        (("automata", "construct", "--builtin", "cpr", "--max-states", "3"), 1, "",
         "domain: automata construct does not read --max-states\n"),
        # rt, krt and sandwich search the generators, so a set whose
        # automaton has more raw letters than the letter cap (13 rows of
        # weight 2: 8,192) still answers; they read no --letter-cap.
        (("automata", "rt", "--file", HEAVY), 0,
         "aut: rt=12 word=a2049,a1025,a513,a257,a129,a65,a33,a17,a9,a5,a3,a1\n"
         "aut_T: rt=12 word=a'1,a'1,a'1,a'1,a'1,a'1,a'1,a'1,a'1,a'1,a'1,a'1\n", ""),
        (("automata", "krt", "--file", HEAVY), 0, HEAVY_KRT, ""),
        (("automata", "sandwich", "--file", HEAVY), 0,
         "rt_aut=12\nexponent=12\nrt_aut_T=12\nupper=36\nlower_ok=true\nupper_ok=true\n"
         "tight=false\n", ""),
        (("automata", "construct", "--file", HEAVY), 1, "",
         "letter-cap: associated automaton would have 8192 letters, cap is 4096\n"),
        pytest.param(
            ("automata", "construct", "--file", HEAVY, "--letter-cap", "8192"), 0,
            shift_automaton_text("aut", "a", 1) + shift_automaton_text("aut_T", "a'", -1), "",
            id="construct-heavy13-letter-cap-8192",
        ),
        (("automata", "rt", "--builtin", "cpr", "--letter-cap", "5"), 1, "",
         "domain: automata rt does not read --letter-cap\n"),
        # The exponent search stores 485 products on cpr, the all-ones
        # matrix last, so one fewer finds no exponent.
        (("exponent", "--builtin", "cpr", "--max-states", "485"), 0, "15\n", ""),
        (("exponent", "--builtin", "cpr", "--max-states", "484"), 0,
         "not-found (states; explored=484, depth=14)\n", ""),
        (("automata", "sandwich", "--builtin", "cpr", "--max-states", "485"), 0,
         "rt_aut=7\nexponent=15\nrt_aut_T=5\nupper=15\nlower_ok=true\nupper_ok=true\n"
         "tight=true\n", ""),
        (("automata", "sandwich", "--builtin", "cpr", "--max-states", "484"), 1, "",
         "limit: exponent not found within limits (limit=states, explored=484, depth=14)\n"),
        # A set that is not primitive has some singleton row set that no
        # word takes to every state; the exponent search then stores nothing.
        (("exponent", "--file", SWAP), 0,
         "not-found (semigroup exhausted; explored=0, depth=0)\n", ""),
        (("exponent", "--file", LOWER), 0,
         "not-found (semigroup exhausted; explored=0, depth=0)\n", ""),
        # A depth cut whose next level holds no new subset is an exhaustion,
        # not a limit: the transpose side stores its last subset at length 2.
        (("automata", "rt", "--file", REDUCIBLE3, "--max-depth", "2"), 0,
         "aut: rt=2 word=M12,M12\naut_T: not-synchronizing\n", ""),
        (("automata", "krt", "--file", REDUCIBLE3, "--max-depth", "2"), 1, "",
         "not-primitive: automaton rt_3 not reached: the search exhausted, "
         "so the set is not primitive\n"),
        # Past the table the spread of some singleton never covers every
        # state exactly on a reducible set, which stores nothing either.
        (("exponent", "--file", REDUCIBLE16), 0,
         "not-found (semigroup exhausted; explored=0, depth=0)\n", ""),
        (("exponent", "--file", REDUCIBLE16, "--max-depth", "5"), 0,
         "not-found (semigroup exhausted; explored=0, depth=0)\n", ""),
    ],
)
def test_bad_or_edge_input_answers_or_fails_in_one_line(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "mset, transposed, depth, explored",
    [
        # automata rt and krt search the generators of the set and of its
        # transpose.
        (cpr_set(), False, 3, 9),  # automata rt --builtin cpr --max-depth 3
        (cpr_set(), True, 3, 9),
        (cpr_set(), False, 1, 5),  # automata krt --builtin cpr --max-depth 1
        # krt-equality searches the letters of the automaton it builds.
        (letter_set(associated_automaton(kari_set())), False, 3, 12),
        # automata krt-equality --builtin kari --k 3 --max-depth 3
    ],
)
def test_depth_limited_explored_counts_follow_the_oracle(mset, transposed, depth, explored):
    # These searches are tabulated (n <= 13, at most 3 letters), so each
    # level stores every new preimage.
    source = mset.transposed() if transposed else mset
    levels = plain_subset_levels(source.n, source.generators)
    assert sum(map(len, levels[: depth + 1])) == explored


@pytest.mark.parametrize(
    "mset, depth, explored",
    [
        (example_set(), 1, 8),  # krt --builtin example --k 3 --max-depth 1
    ],
)
def test_set_profile_explored_counts_follow_the_oracle(mset, depth, explored):
    # The profile sums the subsets stored on its two sides: the generators'
    # preimages and those of their transposes.
    assert explored == sum(
        sum(map(len, plain_subset_levels(mset.n, source.generators)[: depth + 1]))
        for source in (mset, mset.transposed())
    )


def checkout_env():
    """The environment of a fresh interpreter that imports the package from
    this checkout."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def run_python(*args):
    """A fresh interpreter that imports the package from this checkout."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=checkout_env(), timeout=120
    )


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # Ten rows of weight 2 give 1,024 letters, several pipe buffers of
    # output, so the reader closes the pipe long before the writer is done.
    rows = [0b11 << i for i in range(10)] + [1 << i for i in range(10, 16)]
    path = tmp_path / "many_letters.set"
    path.write_text(serialize_set(MatrixSet.of([BoolMatrix(16, tuple(rows))])))
    with subprocess.Popen(
        [sys.executable, "-m", "rendezvous", "automata", "construct", "--file", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
    ) as proc:
        assert proc.stdout.readline() == b"aut: 1024 letters\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert b"Traceback" not in err, err.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ("heuristic", "--builtin", "kari"),
        ("witness", "--n", "10", "--k", "3"),
        ("heuristic", "--mode", "any", "--file", str(DATA / "perm70.set")),
        ("heuristic", "--mode", "specific", "--file", str(DATA / "perm70.set")),
        ("check", "--file", str(DATA / "perm70.set")),
        ("krt", "--builtin", "kari", "--k", "4"),
        ("figure", "fig2b"),
    ],
)
def test_optimized_interpreter_prints_the_same(argv):
    # ``python -O`` strips assert statements; no check the output relies on
    # may be one.
    plain, optimized = (
        run_python(*flags, "-m", "rendezvous", *argv) for flags in ((), ("-O",))
    )
    assert plain.returncode == optimized.returncode == 0
    assert plain.stdout and optimized.stdout == plain.stdout


# sha256 of the stdout these commands gave with the earlier numpy lift grid
# (the last three: with the pure-Python grid before column h + 1 was closed):
# the tables must stay byte for byte what those implementations printed.
RECORDED_BOUND_TABLES = [
    (("bounds", "--n", "300"),
     "109bad3c898753d11013b832e097d36dc9eb8437b5e06366036032042fafe86e"),
    (("bounds", "--n", "300", "--ceil-variant"),
     "06c3b9459c4cc30d19cbdc7e97aae078fce7aa3bd399ff9d7e1bb217de7b7f8f"),
    (("figure", "fig8", "--n-max", "120"),
     "cc2152e475dfd3b1c0fbbaf68f052c7f8456f2a4162934de60e2281fc4921c52"),
    (("figure", "fig9", "--n-max", "150"),
     "36bf702a41f508f0151b0ee984c33e5f1753de397a14ae18fa68017093653ce7"),
    (("bounds", "--n", "57", "--k", "9"),  # with the ahat_p rows
     "57fc9df1ce303fe2734603f8a158e0119dbd5f8a477dbefaefdfd84a5052e72e"),
    (("bounds", "--n", "40", "--k", "20", "--ceil-variant"),
     "c1aff9506133ca2dae986d3e2f1c90908aceffffa96ffcf4c908296ed3aea83e"),
    (("figure", "fig7", "--k", "9", "--n-max", "150"),
     "30a51140ae4a6192f6bbb08577ebf87b21a9f6f318c6cd35b94c3c7359d6ce84"),
    (("figure", "fig8", "--n-max", "200"),
     "8450f83f4d88a8186a341561d8007d05b4bfa150853565650fae6b28e613aa1c"),
    (("bounds", "--n", "1000"),
     "8a2403b2d6ecc6537d8dbe88e6b17791cd2af29c2bdeddc7d82ea08c54ec7525"),
    (("scan", "--n-max", "300", "--k-max", "40"),
     "0f4eca1a806e1b14e7900a4c031be9a0ba4ee41978265c50344c19f62413dc7f"),
]


@pytest.mark.parametrize(
    "argv,digest", RECORDED_BOUND_TABLES, ids=[" ".join(a) for a, _ in RECORDED_BOUND_TABLES]
)
def test_bound_tables_match_recorded_output(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the measured-versus-bounds figures: per k, the measured row,
# then F when the figure has it, then B.
RECORDED_FIGURE_TABLES = [
    (("fig2a",), "122ba35eb05001fe873ea2ec6b9debf6cbfc684b0f282b3390fa2011e356ab7c"),
    (("fig2b",), "75a492223535d3996889dce0d2af2f91e79e139770caf6b0a425de52be03ecb7"),
    (("fig3", "--file", "perm70.set"),
     "b4c9d8dbaf92c662ae85b1d9e359ce4914b0f71c53b323c5077a631ef581a7ca"),
    (("fig5",), "a426f59c7757c1e5501af3273b6347dba02ce2c1000618d24305de9f1f0466b7"),
    (("fig5", "--file", "kari.set"),
     "b0eabc10eacabf1fcafd27a8c4542a3ad6470539746feb42b07544801dc0593d"),
    (("fig6", "--file", "perm70.set", "--mode", "any"),
     "6c5e70b07dcad5274a929fec868e4697c823e5090d2045531fb33bbbe19a12ad"),
    (("fig4", "--file", "cpr.set", "--file", "kari.set", "--k", "3"),
     "eb54ea8e2f3b96c2a5604121ac8f873b9763bc0a672c6e85c58503e2a1331799"),
]


@pytest.mark.parametrize(
    "argv,digest", RECORDED_FIGURE_TABLES, ids=[" ".join(a) for a, _ in RECORDED_FIGURE_TABLES]
)
def test_figure_tables_match_recorded_output(capsys, argv, digest):
    argv = [str(DATA / a) if a.endswith(".set") else a for a in argv]
    code, out, _ = run(capsys, "figure", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_witness_outputs_match_recorded_output():
    # Every witness for 3 <= n <= 60, 2 <= k <= n-1, through one parser:
    # building the parser per call would cost most of the test's time.
    parser = build_parser()
    out = io.StringIO()
    with redirect_stdout(out):
        for n in range(3, 61):
            for k in range(2, n):
                args = parser.parse_args(["witness", "--n", str(n), "--k", str(k)])
                assert _cmd_witness(args) == 0, (n, k)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == "af1c49b27ed4a1af8a8f0a21715316e28388262bd743bf5010fda1f780c10272"


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # ``main`` reuses one parser; what a call parsed (above all the
    # ``--file`` append list) must not reach the next call.
    cpr, kari = str(DATA / "cpr.set"), str(DATA / "kari.set")
    calls = [
        ("figure", "fig4", "--file", cpr, "--file", kari, "--k", "3"),
        ("figure", "fig4", "--file", kari, "--k", "3"),
        ("check", "--file", cpr, "--builtin", "kari"),  # argparse rejects it
        ("check", "--builtin", "kari"),
    ]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = run_python("-m", "rendezvous", *argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()
        ), argv
    assert code == 0 and "primitive: true" in captured.out
    assert build_parser() is build_parser()


def test_readme_quick_tour_runs_as_written(capsys):
    # A renamed or removed name fails here instead of leaving README stale.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert run(capsys, "exponent", "--builtin", "example") == (0, "7\n", "")


def test_readme_flag_table_matches_the_flags_read():
    # Each row names figures or automata actions and the flags they read;
    # a flag change that leaves README stale fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    head = "| figure or action | flags it reads |\n| --- | --- |\n"
    rows = []
    for line in readme.split(head, 1)[1].split("\n\n", 1)[0].splitlines():
        names, flags = re.split(r"(?<!\\)\|", line)[1:3]
        names = re.findall(r"`([^`]+)`", names)
        command = "automata" if names[0].startswith("automata ") else "figure"
        flags = sorted(flag.replace("-", "_") for flag in re.findall(r"`--([a-z-]+)", flags))
        rows.extend(((command, name.removeprefix("automata ")), flags) for name in names)
    assert sorted(rows) == sorted(
        ((command, name), sorted(flags))
        for command, table in FLAGS_READ.items()
        for name, flags in table.items()
    )


def test_readme_set_file_example_is_cpr():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Matrix set file format", 1)[1]
    example = section.split("```\n", 1)[1].split("```", 1)[0]
    assert parse_set_text(example) == cpr_set()


def test_every_benchmark_layer_resolves():
    # The benchmark's tracer wraps these names by (module, attribute), so
    # one that is gone would make a traced benchmark run fail.
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attribute, _, _ in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module), attribute, None)), attribute
    importlib.import_module(spans.ROWS_MODULE)


def test_bound_caches_keep_the_last_n_only(capsys):
    assert run(capsys, "figure", "fig8", "--n-max", "30", "--k-max", "9")[0] == 0
    assert list(_B_TABLES) == list(_LIFT_GRIDS) == [30]
    # fig9 builds one lift column per n and leaves the lift grid alone.
    before = {n: [col[:] for col in grid] for n, grid in _LIFT_GRIDS.items()}
    assert run(capsys, "figure", "fig9", "--n-max", "40")[0] == 0
    assert _LIFT_GRIDS == before


def test_runs_without_numpy(capsys):
    # numpy set to None in sys.modules makes any import of it fail.
    blocked = run_python(
        "-c",
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from rendezvous.cli import main\n"
        "sys.exit(main(['bounds', '--n', '40']) or main(['figure', 'fig9', '--n-max', '30']))\n",
    )
    assert blocked.returncode == 0, blocked.stderr
    expected = run(capsys, "bounds", "--n", "40")[1] + run(capsys, "figure", "fig9", "--n-max", "30")[1]
    assert blocked.stdout.decode() == expected
    plain = run_python("-c", "import sys, rendezvous.cli; print('numpy' in sys.modules)")
    assert plain.stdout == b"False\n", plain.stderr
