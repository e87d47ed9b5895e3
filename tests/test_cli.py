import hashlib
import importlib.util
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from rendezvous import (
    associated_automaton, automata, cpr_set, example_set, kari_set, subset_bfs,
)
from rendezvous.bounds import _B_TABLES, _LIFT_GRIDS
from rendezvous.cli import _cmd_witness, build_parser, main
from helpers import subset_levels

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
        # exponent search stores one product (length 1).
        assert out.splitlines() == [
            "k=2 rt=not-found (states; explored=2, depth=0)",
            "k=3 rt=not-found (states; explored=2, depth=0)",
            "exponent=not-found (states; explored=1, depth=1)",
        ]

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
        monkeypatch.setattr(automata, "DEFAULT_MAX_STATES", 7)
        aut = associated_automaton(cpr_set())
        assert subset_bfs(aut.n, aut.letters).limit == "states"
        code, out, err = run(capsys, "automata", "rt", "--builtin", "cpr")
        assert (code, err) == (0, "")
        assert out.startswith("aut: rt=not-found (states; explored=7, depth=")
        assert run(capsys, "automata", "rt", "--builtin", "cpr", "--max-states", "7") == (
            code, out, err)

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
SWAP = str(DATA / "swap.set")  # a permutation: no automaton search ever resets it
# Reducible, yet every pair reaches (0, 0), the heuristic's seed singleton.
LOWER = str(DATA / "lower.set")


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
        # first levels of the maximal-levels oracle; see
        # test_depth_limited_explored_counts_follow_the_oracle.
        (("automata", "rt", "--builtin", "cpr", "--max-depth", "3"), 0,
         "aut: rt=not-found (depth; explored=9, depth=3)\n"
         "aut_T: rt=not-found (depth; explored=7, depth=3)\n", ""),
        (("automata", "krt", "--builtin", "cpr", "--max-depth", "1"), 1, "",
         "limit: automaton rt_3 not found within limits (limit=depth, explored=5, depth=1)\n"),
        (("automata", "sandwich", "--builtin", "cpr", "--max-states", "7"), 1, "",
         "limit: automaton reset threshold not found within limits "
         "(limit=states, explored=7, depth=2)\n"),
        (("automata", "krt-equality", "--builtin", "kari", "--k", "3", "--max-depth", "3"), 1, "",
         "limit: automaton rt_3 not found within limits (limit=depth, explored=11, depth=3)\n"),
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
    ],
)
def test_bad_or_edge_input_answers_or_fails_in_one_line(capsys, argv, code, out, err):
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "mset, transposed, depth, explored",
    [
        (cpr_set(), False, 3, 9),  # automata rt --builtin cpr --max-depth 3
        (cpr_set(), True, 3, 7),
        (cpr_set(), False, 1, 5),  # automata krt --builtin cpr --max-depth 1
        (kari_set(), False, 3, 11),  # automata krt-equality --builtin kari --k 3 --max-depth 3
    ],
)
def test_depth_limited_explored_counts_follow_the_oracle(mset, transposed, depth, explored):
    aut = associated_automaton(mset.transposed() if transposed else mset)
    levels, _ = subset_levels(aut.n, aut.letters)
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
        sum(map(len, subset_levels(mset.n, source.generators)[0][: depth + 1]))
        for source in (mset, mset.transposed())
    )


def run_python(*args):
    """A fresh interpreter that imports the package from this checkout."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


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


# sha256 of the stdout these commands gave with the earlier numpy lift grid:
# the tables must stay byte for byte what that implementation printed.
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
