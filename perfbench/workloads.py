"""The four workloads: seeded inputs and each workload's fixed job list.

A job is one CLI call, ``rendezvous.cli.main(argv)``.  Generated sets are
written to set files during set-up; the program sees only those files.
Every generated set is a fixed base set whose states the seed relabels, so
the seed changes every input file but hardly how much work they are.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from matrices import Rows, is_nz, is_primitive, product, to_text

WORKLOADS = ("exact-deep", "screen-sweep", "bound-grid", "heuristic-large")

# Why each workload exists; BENCHMARK.json carries the same one-liners.
WHY = {
    "exact-deep": "the one deep memory-bound exact search, the exponent of kari (832,573 "
    "products, depth 28); semigroup explore dominates, every other layer idle",
    "screen-sweep": "a seeded stream of short CLI calls on generated set files and the builtins; "
    "per-call cost, set files, pair digraph, automata and shallow searches dominate",
    "bound-grid": "one large B/F bound table beside many small tables, one per n; "
    "the bounds and tables modules do almost all the work",
    "heuristic-large": "greedy heuristic in both modes on permutation-plus-one-entry sets at "
    "n 96 and 128, the only tool past n=64; heuristic and boolean products dominate",
}


@dataclass(frozen=True)
class MatrixSetSpec:
    n: int
    gens: tuple[Rows, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``set_name`` names the generated set it reads, if any."""

    argv: tuple[str, ...]
    set_name: str | None = None


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _perm_plus(rng: random.Random, n: int, extra: int) -> Rows:
    """A permutation matrix with ``extra`` further ones in distinct rows."""
    perm = _permutation(rng, n)
    rows = [1 << perm[i] for i in range(n)]
    for i in rng.sample(range(n), extra):
        choices = [j for j in range(n) if j != perm[i]]
        rows[i] |= 1 << rng.choice(choices)
    return tuple(rows)


def _random_nz(rng: random.Random, n: int, density: float) -> Rows:
    """A permutation matrix plus independent ones at the given density."""
    perm = _permutation(rng, n)
    rows = []
    for i in range(n):
        row = 1 << perm[i]
        for j in range(n):
            if rng.random() < density:
                row |= 1 << j
        rows.append(row)
    return tuple(rows)


def _primitive(rng: random.Random, n: int, make) -> MatrixSetSpec:
    """Draw two-generator sets ``make(rng, n)`` until one is primitive."""
    while True:
        gens = make(rng, n)
        if is_primitive(n, list(gens)):
            return MatrixSetSpec(n, tuple(gens), ("a", "b"))


def _sparse_set(rng: random.Random, n: int) -> MatrixSetSpec:
    return _primitive(
        rng, n, lambda r, n: (_perm_plus(r, n, r.randint(0, 2)), _perm_plus(r, n, r.randint(1, 2)))
    )


def _small_set(rng: random.Random, n: int) -> MatrixSetSpec:
    return _primitive(
        rng, n, lambda r, n: (_random_nz(r, n, SMALL_DENSITY), _random_nz(r, n, SMALL_DENSITY))
    )


def _large_set(rng: random.Random, n: int) -> MatrixSetSpec:
    return _primitive(rng, n, lambda r, n: (_perm_plus(r, n, 1), _perm_plus(r, n, 0)))


def _dense_set(rng: random.Random, n: int) -> MatrixSetSpec:
    """A dense pair certified primitive by an all-ones product of a few letters,
    which is cheaper than the pair criterion at this size."""
    full = (1 << n) - 1
    while True:
        gens = (_random_nz(rng, n, DENSE_DENSITY), _random_nz(rng, n, DENSE_DENSITY))
        acc = gens[0]
        for step in range(1, 12):
            acc = product(acc, gens[step % 2])
            if all(row == full for row in acc):
                return MatrixSetSpec(n, gens, ("a", "b"))


def _base_sets(workload: str, n: int, count: int, draw) -> list[MatrixSetSpec]:
    """The first ``count`` sets ``draw`` makes from a fixed stream.

    Subset-search and heuristic costs differ by 2x or more between random
    sets of one size.  The benchmark relabels these fixed base sets by the
    seed instead: the work stays within a few percent from seed to seed,
    while every state index the program sees changes with the seed.
    """
    rng = random.Random(f"{workload}:base:{n}")
    return [draw(rng, n) for _ in range(count)]


def _relabel(spec: MatrixSetSpec, perm: list[int]) -> MatrixSetSpec:
    """The same set with state i renamed perm[i]."""
    gens = []
    for g in spec.gens:
        rows = [0] * spec.n
        for i, row in enumerate(g):
            for j in range(spec.n):
                if row >> j & 1:
                    rows[perm[i]] |= 1 << perm[j]
        gens.append(tuple(rows))
    return MatrixSetSpec(spec.n, tuple(gens), spec.labels)


# Sizes of the generated groups: (n values, sets per n).
SPARSE = ((8, 9, 10, 11, 12, 13), 8)
DENSE = ((24, 32, 40), 1)
DENSE_DENSITY = 0.2
SMALL = ((3, 4, 5), 12)
SMALL_DENSITY = 0.25
# (n, draw) of each heuristic base set: the words of these draws keep their
# length within 5% under relabelling, where other draws vary by up to 30%.
HEURISTIC_BASE = ((96, 0), (128, 2))

BOUND_JOBS = (
    ("bounds", "--n", "200"),
    ("figure", "fig8", "--n-max", "200"),
    ("figure", "fig9", "--n-max", "120"),
)

# The deep search runs alone: with two repetitions per run, cheap jobs beside
# it made the job percentiles swing by a quarter between runs, so the cheap
# exact jobs on the builtins run in screen-sweep instead.
EXACT_JOBS = (("exponent", "--builtin", "kari"),)

BUILTIN_JOBS = (
    ("krt", "--builtin", "example"),
    ("krt", "--builtin", "cpr"),
    ("exponent", "--builtin", "cpr"),
    ("automata", "sandwich", "--builtin", "example"),
    ("automata", "sandwich", "--builtin", "cpr"),
    ("automata", "krt-equality", "--builtin", "example", "--k", "2"),
    ("automata", "krt-equality", "--builtin", "cpr", "--k", "2"),
    ("automata", "krt-equality", "--builtin", "cpr", "--k", "3"),
    ("automata", "krt-equality", "--builtin", "cpr", "--k", "4"),
    ("figure", "fig2a"),
    ("figure", "fig2b"),
)


def generate(workload: str, seed: int) -> dict[str, MatrixSetSpec]:
    """All generated sets of a workload, by name; the same seed gives the same sets."""
    rng = random.Random(f"{workload}:{seed}")
    sets: dict[str, MatrixSetSpec] = {}
    if workload == "screen-sweep":
        for group, (sizes, per_n), draw in (
            ("sparse", SPARSE, _sparse_set),
            ("dense", DENSE, _dense_set),
            ("small", SMALL, _small_set),
        ):
            for n in sizes:
                for idx, base in enumerate(_base_sets(workload, n, per_n, draw)):
                    sets[f"{group}{n:02d}-{idx}"] = _relabel(base, _permutation(rng, n))
    elif workload == "heuristic-large":
        for n, draw in HEURISTIC_BASE:
            base = _base_sets(workload, n, draw + 1, _large_set)[draw]
            sets[f"large{n}"] = _relabel(base, _permutation(rng, n))
    return sets


def jobs_for(workload: str, sets: dict[str, MatrixSetSpec], set_dir: str) -> list[Job]:
    """The workload's fixed job list; set files live in ``set_dir``."""
    def path(name: str) -> str:
        return os.path.join(set_dir, f"{name}.set")

    if workload == "exact-deep":
        return [Job(argv) for argv in EXACT_JOBS]
    if workload == "bound-grid":
        return [Job(argv) for argv in BOUND_JOBS]
    jobs = [Job(argv) for argv in BUILTIN_JOBS] if workload == "screen-sweep" else []
    for name in sets:
        f = ("--file", path(name))
        if name.startswith("sparse"):
            jobs += [
                Job(("check", *f), name),
                Job(("automata", "rt", *f), name),
                Job(("automata", "krt", *f), name),
            ]
        elif name.startswith("dense"):
            jobs.append(Job(("check", *f), name))
        elif name.startswith("small"):
            jobs.append(Job(("krt", *f), name))
        else:
            jobs += [
                Job(("heuristic", "--mode", "specific", *f), name),
                Job(("heuristic", "--mode", "any", *f), name),
            ]
    return jobs


def write_sets(sets: dict[str, MatrixSetSpec], set_dir: str) -> None:
    os.makedirs(set_dir, exist_ok=True)
    for name, spec in sets.items():
        with open(os.path.join(set_dir, f"{name}.set"), "w", encoding="utf-8") as fh:
            fh.write(to_text(spec.n, list(spec.gens), list(spec.labels)))
