"""Command-line front door for the workbench.

Data goes to stdout, errors to stderr prefixed with a machine-readable
category.  All outputs are deterministic functions of the flags.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import tables
from .automata import (
    DEFAULT_LETTER_CAP,
    associated_automaton,
    set_profile,
    subset_bfs,
    verify_krt_equality,
    verify_sandwich,
)
from .boolmat import MatrixSet
from .bounds import build_witness, evaluate_escape, escape_lower
from .builtins import BUILTIN_NAMES, builtin_set
from .errors import WorkbenchError
from .heuristic import run_heuristic
from .pairgraph import check_primitivity
from .semigroup import explore
from .setfile import parse_set_file

# The flags each figure reads; giving it any other flag is a domain error.
FIGURE_FLAGS = {
    "fig2a": ("max_depth", "max_states"),
    "fig2b": ("max_depth", "max_states"),
    "fig3": ("file", "mode"),
    "fig4": ("file", "mode", "k"),
    "fig5": ("builtin", "file", "max_depth", "max_states"),
    "fig6": ("file", "mode"),
    "fig7": ("k", "n_max"),
    "fig8": ("k_max", "n_max"),
    "fig9": ("n_max",),
}
FIGURES = tuple(FIGURE_FLAGS)


def _add_set_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--builtin", choices=BUILTIN_NAMES, help="use a builtin set")
    group.add_argument(
        "--file",
        action="append",
        metavar="PATH",
        help="read a matrix set file (repeatable only for figure fig4)",
    )


def _add_limits(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-depth", type=int, default=None, help="BFS depth limit")
    parser.add_argument("--max-states", type=int, default=None, help="BFS state limit")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="rendezvous",
        description="Exponents, k-rendezvous times and bound tables for "
        "primitive sets of NZ boolean matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="NZ / irreducibility / primitivity with certificate")
    _add_set_source(p)

    p = sub.add_parser("exponent", help="exact exponent by semigroup BFS")
    _add_set_source(p)
    _add_limits(p)

    p = sub.add_parser("krt", help="exact k-rendezvous profile by subset BFS on the generators")
    _add_set_source(p)
    _add_limits(p)
    p.add_argument("--k", type=int, default=None, help="report only this k")

    p = sub.add_parser("automata", help="associated automata analyses")
    p.add_argument(
        "action",
        choices=("construct", "rt", "krt", "sandwich", "krt-equality"),
    )
    _add_set_source(p)
    _add_limits(p)
    p.add_argument("--letter-cap", type=int, default=DEFAULT_LETTER_CAP)
    p.add_argument("--k", type=int, default=None, help="k for krt-equality")

    p = sub.add_parser("bounds", help="B/F/lift/escape/szykula bound table (CSV)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="single k")
    p.add_argument("--k-max", type=int, default=None, help="k range 2..k-max (default n)")
    p.add_argument("--ceil-variant", action="store_true", help="keep the ceiling in the growth steps")

    p = sub.add_parser("witness", help="build and verify an escape-count witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("heuristic", help="greedy column-growing trace")
    _add_set_source(p)
    p.add_argument("--mode", choices=("specific", "any"), default="specific")

    p = sub.add_parser("scan", help="bound-equality conjecture report (CSV)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="single k")
    p.add_argument("--k-max", type=int, default=None, help="k range 2..k-max")

    p = sub.add_parser("figure", help="emit the CSV behind a named comparison table")
    p.add_argument("name", choices=FIGURES)
    _add_set_source(p)
    _add_limits(p)
    p.add_argument("--mode", choices=("specific", "any"), default=None, help="default specific")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)

    return parser


def _load_set(args, allow_multi: bool = False) -> MatrixSet | list[MatrixSet]:
    files = getattr(args, "file", None)
    name = getattr(args, "builtin", None)
    if files:
        sets = [parse_set_file(path) for path in files]
        if allow_multi:
            return sets
        if len(sets) > 1:
            raise ValueError("only figure fig4 accepts multiple --file arguments")
        return sets[0]
    return builtin_set(name or "example")


def _flag(args, name: str, default: int | None = None, minimum: int = 1) -> int | None:
    """Value of the integer flag ``name``, or ``default`` when it is not given;
    a value below ``minimum`` is a domain error naming the flag."""
    value = getattr(args, name, None)
    if value is None:
        return default
    if value < minimum:
        raise ValueError(f"need --{name.replace('_', '-')} >= {minimum}, got {value}")
    return value


def _word_labels(mset_or_labels, word) -> str:
    labels = getattr(mset_or_labels, "labels", mset_or_labels)
    return ",".join(labels[i] for i in word) if word else "-"


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cmd_check(args) -> int:
    mset = _load_set(args)
    defect = mset.first_non_nz()
    if defect is not None:
        g_idx, kind, index = defect
        print(f"nz: false (generator {mset.labels[g_idx]} has zero {kind} {index})")
        print(f"irreducible: {_bool(mset.reducibility_witness() is None)}")
        print("primitive: skipped (requires NZ generators)")
        return 0
    report = check_primitivity(mset)
    print("nz: true")
    print(f"irreducible: {_bool(report.irreducible)}")
    print(f"primitive: {_bool(report.primitive)}")
    if not report.primitive:
        print(f"certificate: {report.describe()}")
    return 0


def _not_found(result) -> str:
    """Why a search result lacks an entry: the limit that cut it short, or
    an exhausted semigroup."""
    reason = result.limit or "semigroup exhausted"
    return f"not-found ({reason}; explored={result.explored}, depth={result.depth_reached})"


def _reach(source, result, entry) -> str:
    """A found entry's length and word over the labels of ``source`` (a set
    or an automaton), or why ``result`` lacks it."""
    if entry is None:
        return _not_found(result)
    return f"{entry.length} word={_word_labels(source, entry.word)}"


def _cmd_exponent(args) -> int:
    mset = _load_set(args)
    result = explore(mset, max_depth=args.max_depth, max_states=args.max_states)
    if result.exponent is None:
        print(_not_found(result))
    else:
        print(result.exponent.length)
    return 0


def _cmd_krt(args) -> int:
    mset = _load_set(args)
    if args.k is not None and not 2 <= args.k <= mset.n:
        raise ValueError(f"--k must be in [2, {mset.n}], got {args.k}")
    profile = set_profile(mset, args.max_depth, args.max_states)
    for k in [args.k] if args.k is not None else range(2, mset.n + 1):
        print(f"k={k} rt={_reach(mset, profile, profile.krt.get(k))}")
    if args.k is None:
        result = explore(mset, max_depth=args.max_depth, max_states=args.max_states)
        print(f"exponent={_reach(mset, result, result.exponent)}")
    return 0


def _print_automaton(title: str, aut) -> None:
    print(f"{title}: {aut.m} letters")
    for label, letter in zip(aut.labels, aut.letters):
        print(f"# {label}")
        for line in letter.to_lines():
            print(line)


def _cmd_automata(args) -> int:
    mset = _load_set(args)
    cap = args.letter_cap
    if args.action == "construct":
        _print_automaton("aut", associated_automaton(mset, cap))
        _print_automaton("aut_T", associated_automaton(mset.transposed(), cap))
        return 0
    if args.action == "rt":
        for title, source in (("aut", mset), ("aut_T", mset.transposed())):
            aut = associated_automaton(source, cap)
            res = subset_bfs(aut.n, aut.letters, args.max_depth, args.max_states)
            if res.reset is None and res.exhausted:
                print(f"{title}: not-synchronizing")
            else:
                print(f"{title}: rt={_reach(aut, res, res.reset)}")
        return 0
    if args.action == "krt":
        rows = tables.automata_krt_rows(mset, cap, args.max_depth, args.max_states)
        print(tables.to_csv(tables.LONG_HEADER, rows), end="")
        return 0
    if args.action == "sandwich":
        report = verify_sandwich(
            mset, cap=cap, max_depth=args.max_depth, max_states=args.max_states
        )
        print(f"rt_aut={report.rt_aut}")
        print(f"exponent={report.exponent}")
        print(f"rt_aut_T={report.rt_aut_transpose}")
        print(f"upper={report.upper}")
        print(f"lower_ok={_bool(report.lower_ok)}")
        print(f"upper_ok={_bool(report.upper_ok)}")
        print(f"tight={_bool(report.tight)}")
        return 0
    if args.k is None:
        raise ValueError("krt-equality needs --k")
    report = verify_krt_equality(
        mset, args.k, cap=cap, max_depth=args.max_depth, max_states=args.max_states
    )
    print(f"k={report.k}")
    print(f"rt_set={report.rt_set}")
    print(f"rt_aut={report.rt_aut}")
    print(f"rt_aut_T={report.rt_aut_transpose}")
    print(f"equal={_bool(report.equal)}")
    return 0


def _cmd_bounds(args) -> int:
    if args.k is not None and args.k_max is not None:
        raise ValueError("give either --k or --k-max, not both")
    n = _flag(args, "n", minimum=2)
    if args.k is not None:
        ks = [args.k]
    else:
        ks = list(range(2, _flag(args, "k_max", n, 2) + 1))
    print(
        tables.to_csv(tables.LONG_HEADER, tables.bounds_rows(n, ks, args.ceil_variant)),
        end="",
    )
    return 0


def _cmd_witness(args) -> int:
    witness = build_witness(args.n, args.k)
    evaluation = evaluate_escape(witness.matrix, args.k)
    # The witness attains the lower bound, so the bound is the exact minimum
    # and the upper line repeats it.
    lower = escape_lower(args.n, args.k)
    verified = evaluation.member and evaluation.value == witness.claimed == lower
    print(f"n={args.n} k={args.k}")
    print(f"kind={witness.kind}")
    print(f"lower={lower}")
    print(f"upper={lower}")
    print(f"claimed={witness.claimed}")
    print(f"evaluated={evaluation.value}")
    print(f"member={_bool(evaluation.member)}")
    print(f"verified={_bool(verified)}")
    for line in witness.matrix.to_lines():
        print(line)
    return 0 if verified else 1


def _cmd_heuristic(args) -> int:
    mset = _load_set(args)
    trace = run_heuristic(mset, mode=args.mode)
    print(f"mode={trace.mode}")
    print(f"column={trace.column_index}")
    print(f"length={trace.length}")
    print(f"word={_word_labels(mset, trace.word)}")
    for k in range(2, mset.n + 1):
        print(f"k={k} length={trace.per_k_length[k]}")
    return 0


def _cmd_scan(args) -> int:
    if args.k is not None and args.k_max is not None:
        raise ValueError("give either --k or --k-max, not both")
    n_max = _flag(args, "n_max", minimum=2)
    if args.k is not None:
        if not 2 <= args.k <= n_max:
            raise ValueError(f"--k must be in [2, {n_max}], got {args.k}")
        ks = [args.k]
    else:
        k_max = _flag(args, "k_max", n_max, 2)
        if k_max > n_max:
            raise ValueError(f"--k-max must be in [2, {n_max}], got {k_max}")
        ks = list(range(2, k_max + 1))
    rows = tables.scan_rows(range(2, n_max + 1), ks)
    print(tables.to_csv(tables.LONG_HEADER, rows), end="")
    return 0


def _cmd_figure(args) -> int:
    name = args.name
    for flag, value in vars(args).items():
        if value is not None and flag not in ("command", "name", *FIGURE_FLAGS[name]):
            raise ValueError(f"figure {name} does not read --{flag.replace('_', '-')}")
    mode = args.mode or "specific"
    header = tables.LONG_HEADER
    if name == "fig2a":
        rows = tables.rt_vs_bounds_rows(
            builtin_set("cpr"), False, args.max_depth, args.max_states
        )
    elif name == "fig2b":
        rows = tables.rt_vs_bounds_rows(
            builtin_set("kari"), False, args.max_depth, args.max_states
        )
    elif name == "fig5":
        rows = tables.rt_vs_bounds_rows(
            _load_set(args), True, args.max_depth, args.max_states
        )
    elif name == "fig3":
        rows = tables.heuristic_vs_bounds_rows(_require_file(args), False, mode)
    elif name == "fig6":
        rows = tables.heuristic_vs_bounds_rows(_require_file(args), True, mode)
    elif name == "fig4":
        sets = _load_set(args, allow_multi=True)
        if not isinstance(sets, list):
            raise ValueError("figure fig4 needs at least one --file")
        k = args.k if args.k is not None else 4
        for mset in sets:  # before any heuristic runs
            if not 2 <= k <= mset.n:
                raise ValueError(f"k={k} out of range [2, {mset.n}]")
        rows = []
        for mset in sets:
            rows.extend(tables.heuristic_vs_bounds_rows(mset, False, mode, only_k=k))
    elif name == "fig7":
        if args.k is None:
            raise ValueError("figure fig7 needs --k")
        rows = tables.fixed_k_bound_rows(args.k, _flag(args, "n_max", 200, max(args.k, 2)))
    elif name == "fig8":
        rows = tables.threshold_rows(
            7, _flag(args, "k_max", 50, 7), _flag(args, "n_max", 300, 2)
        )
    else:  # fig9
        header = tables.FIG9_HEADER
        rows = tables.nrt_comparison_rows(_flag(args, "n_max", 100, 2))
    print(tables.to_csv(header, rows), end="")
    return 0


def _require_file(args) -> MatrixSet:
    if not getattr(args, "file", None):
        raise ValueError("this figure needs a matrix set via --file")
    return _load_set(args)


_COMMANDS = {
    "check": _cmd_check,
    "exponent": _cmd_exponent,
    "krt": _cmd_krt,
    "automata": _cmd_automata,
    "bounds": _cmd_bounds,
    "witness": _cmd_witness,
    "heuristic": _cmd_heuristic,
    "scan": _cmd_scan,
    "figure": _cmd_figure,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for limit in ("max_depth", "max_states", "letter_cap"):
            _flag(args, limit)
        return _COMMANDS[args.command](args)
    except WorkbenchError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"domain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
