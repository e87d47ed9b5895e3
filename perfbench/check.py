"""Answer checker, built on routes that do not run the code under test.

* Exact lengths come from this file's own searches: a breadth-first search
  of the semigroup for n <= 6, and a subset search over the associated
  automata.  The identity rt_k(M) = min(rt_k(Aut M), rt_k(Aut M^T)) and the
  sandwich rt(Aut M) <= exp(M) <= rt(Aut M) + rt(Aut M^T) + n - 1 tie the
  two routes together.
* Every witness word, reset word and heuristic word is replayed by a naive
  product, and its length and weight are checked.
* Bound rows are checked against this file's closed form of B and F <= B;
  the bound CSVs must match pinned sha256 digests byte for byte.

Lengths are compared, never witness words: a pruned search may find other
words of the same length.  A failed check returns a message; it never
raises.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from matrices import Rows, max_line_weight, ones_positions, product, transpose
from workloads import Job, MatrixSetSpec

BUILTINS = {
    "example": MatrixSetSpec(
        3, ((0b010, 0b100, 0b001), (0b010, 0b101, 0b100)), ("a", "b")
    ),
    "cpr": MatrixSetSpec(
        4,
        ((0b0100, 0b0011, 0b0001, 0b1000), (0b0001, 0b0100, 0b1000, 0b0010)),
        ("a", "b"),
    ),
    "kari": MatrixSetSpec(
        6,
        (
            (0b001001, 0b000010, 0b000100, 0b010000, 0b001000, 0b100000),
            (0b010000, 0b000100, 0b001000, 0b000010, 0b100000, 0b000001),
        ),
        ("a", "b"),
    ),
}

# Published exponent of the Kari-derived set; too deep to re-search per run.
PINNED_EXPONENT = {"kari": 28}

# ROADMAP: bound CSVs stay byte-identical.  Digests of the seed code's output.
BOUND_DIGESTS = {
    ("bounds", "--n", "200"): "a8993e7dca8f9e65df62502904d246a33e06b1f532f99f6c36a96de5b2027ea3",
    ("figure", "fig8", "--n-max", "200"): "8450f83f4d88a8186a341561d8007d05b4bfa150853565650fae6b28e613aa1c",
    ("figure", "fig9", "--n-max", "120"): "4f00dacf359660c8ec509f7d9a32971d25e23993db2362067335aa7afb0730bf",
}

PRIMITIVE_REPORT = "nz: true\nirreducible: true\nprimitive: true\n"
SEMIGROUP_CAP = 300_000


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- searches


def automaton_letters(spec: MatrixSetSpec) -> dict[str, tuple[int, ...]]:
    """Letters of Aut(spec) by CLI label: one destination per state, picking
    one 1 per row; a generator with a heavier row yields labels g1, g2, ..."""
    letters = {}
    for label, g in zip(spec.labels, spec.gens):
        choices = [ones_positions(row) for row in g]
        single = all(len(c) == 1 for c in choices)
        for idx, pick in enumerate(itertools.product(*choices)):
            letters[label if single else f"{label}{idx + 1}"] = pick
    return letters


def transposed(spec: MatrixSetSpec) -> MatrixSetSpec:
    labels = tuple(lbl[:-1] if lbl.endswith("'") else lbl + "'" for lbl in spec.labels)
    return MatrixSetSpec(spec.n, tuple(transpose(spec.n, g) for g in spec.gens), labels)


def automaton_krt(n: int, letters) -> dict[int, int]:
    """rt_k of an automaton for k in [2, n]: level-by-level search over the
    preimages of the singletons."""
    pre_tables = []
    for pick in letters:
        pre = [0] * n
        for s, q in enumerate(pick):
            pre[q] |= 1 << s
        pre_tables.append(pre)
    seen = {1 << q for q in range(n)}
    frontier = list(seen)
    out: dict[int, int] = {}
    best, level = 1, 0
    while frontier and best < n:
        level += 1
        nxt = []
        for subset in frontier:
            states = ones_positions(subset)
            for pre in pre_tables:
                p = 0
                for q in states:
                    p |= pre[q]
                if p in seen:
                    continue
                seen.add(p)
                nxt.append(p)
                size = bin(p).count("1")
                if size > best:
                    for k in range(best + 1, size + 1):
                        out[k] = level
                    best = size
        frontier = nxt
    return out


def semigroup_profile(spec: MatrixSetSpec, want_exponent: bool) -> tuple[dict[int, int], int | None]:
    """(rt_k for k in [2, n], exponent) by a deduplicated level search over products."""
    n = spec.n
    full = (1 << n) - 1
    level = list(dict.fromkeys(spec.gens))
    seen = set(level)
    out: dict[int, int] = {}
    best, depth = 1, 1
    while level:
        for mat in level:
            if all(row == full for row in mat):
                for k in range(best + 1, n + 1):
                    out.setdefault(k, depth)
                return out, depth
            w = max_line_weight(n, mat)
            if w > best:
                for k in range(max(2, best + 1), w + 1):
                    out[k] = depth
                best = w
        if not want_exponent and best == n:
            return out, None
        depth += 1
        nxt = []
        for mat in level:
            for g in spec.gens:
                p = product(mat, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        _require(len(seen) <= SEMIGROUP_CAP, "checker: semigroup larger than its cap")
        level = nxt
    return out, None


# ---------------------------------------------------------------- bounds


@lru_cache(maxsize=None)
def _harmonic(m: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def b_closed(n: int, k: int) -> Fraction:
    """Closed form of the growth bound B_k(n)."""
    if k == 2:
        return Fraction(1)
    s, half = math.isqrt(n), n // 2

    def poly(kk: int) -> Fraction:
        return Fraction(n * (kk**3 - 3 * kk**2 + 8 * kk - 12), 6) + 1

    if k <= s:
        return poly(k)
    if k <= half:
        return (
            poly(s)
            + Fraction(n * (n + 2) * (k - s), 2)
            - Fraction(n * n, 2) * (_harmonic(k - 1) - _harmonic(s - 1))
        )
    anchor = max(half, 2)
    return b_closed(n, anchor) + Fraction((k - anchor) * n * n, 2)


def szykula(n: int) -> Fraction:
    return Fraction(15617 * n**3 + 7500 * n**2 + 9375 * n - 31250, 93750)


def _value(text: str) -> Fraction:
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


def _long_rows(out: str):
    lines = out.splitlines()
    _require(lines and lines[0] == "n,k,quantity,value,ceil", "bad CSV header")
    for line in lines[1:]:
        n, k, quantity, value, ceil = line.split(",")
        v = _value(value)
        _require(int(ceil) == math.ceil(v), f"ceil column wrong in {line!r}")
        yield int(n), int(k), quantity, v


def _check_b_row(n: int, k: int, v: Fraction) -> None:
    _require(v == b_closed(n, k), f"B({n},{k}) = {v}, closed form gives {b_closed(n, k)}")


def check_bounds_csv(out: str) -> None:
    b_values = {}
    for n, k, quantity, v in _long_rows(out):
        if quantity == "B":
            _check_b_row(n, k, v)
            b_values[k] = v
        elif quantity == "F":
            _require(v <= b_values[k], f"F({n},{k}) = {v} exceeds B")
        elif quantity == "F_argmin_h":
            _require(2 <= v <= k, f"argmin h {v} outside [2, {k}]")
        elif quantity == "U2":
            _require(v >= 0, f"negative lift cost at k={k}")
        elif quantity == "szykula":
            _require(v == szykula(n), "szykula row wrong")


def check_fig8_csv(out: str) -> None:
    for n, k, quantity, v in _long_rows(out):
        if quantity == "conjectured_n_k":
            _require(v == 2 * k * k - 8 * k + 12, f"conjectured onset wrong at k={k}")
        else:
            _require(quantity == "threshold_n" and 2 <= v <= n, f"bad row {quantity} at k={k}")


def check_fig9_csv(out: str) -> None:
    lines = out.splitlines()
    _require(lines[0] == "n,F_n,B_n,szykula,n3_over_3", "bad fig9 header")
    for line in lines[1:]:
        n_text, f, b, sz, cube = line.split(",")
        n = int(n_text)
        _check_b_row(n, n, _value(b))
        _require(_value(f) <= _value(b), f"F_n exceeds B_n at n={n}")
        _require(_value(sz) == szykula(n), f"szykula wrong at n={n}")
        _require(_value(cube) == Fraction(n**3, 3), f"n^3/3 wrong at n={n}")


# ---------------------------------------------------------------- replays


def _word(spec_labels, text: str) -> list[str]:
    if text == "-":
        return []
    word = text.split(",")
    for label in word:
        _require(label in spec_labels, f"unknown letter {label!r}")
    return word


def replay(spec: MatrixSetSpec, word: list[str]) -> Rows:
    """Left-to-right product of the named generators."""
    gen = dict(zip(spec.labels, spec.gens))
    acc = tuple(1 << i for i in range(spec.n))
    for label in word:
        acc = product(acc, gen[label])
    return acc


def replay_reset(n: int, letters: dict[str, tuple[int, ...]], word: list[str]) -> int:
    """Size of the image of the whole state set under ``word`` (application order)."""
    states = set(range(n))
    for label in word:
        pick = letters[label]
        states = {pick[s] for s in states}
    return len(states)


# ---------------------------------------------------------------- checker


class Checker:
    """Checks one workload's job outputs against independently derived answers.

    Derived answers are cached per set, so a run pays for them once however
    many repetitions it makes.
    """

    def __init__(self, sets: dict[str, MatrixSetSpec]):
        self.sets = sets
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def source(self, job: Job) -> tuple[str, MatrixSetSpec]:
        """Name and matrices of the set a job reads."""
        if job.set_name is not None:
            return job.set_name, self.sets[job.set_name]
        argv = job.argv
        if argv[0] == "figure":
            name = "cpr" if argv[1] == "fig2a" else "kari"
        else:
            name = argv[argv.index("--builtin") + 1]
        return name, BUILTINS[name]

    def aut(self, spec: MatrixSetSpec, name: str):
        """(letters, rt_k profile) of Aut(spec) and of Aut(spec^T)."""
        def build():
            out = []
            for side in (spec, transposed(spec)):
                letters = automaton_letters(side)
                out.append((letters, automaton_krt(side.n, list(letters.values()))))
            return out
        return self._memo(("aut", name), build)

    def exact(self, spec: MatrixSetSpec, name: str, want_exponent: bool):
        """Exact rt_k profile and (when asked) exponent of the set."""
        if want_exponent and name in PINNED_EXPONENT:
            profile, _ = self.exact(spec, name, False)
            return profile, PINNED_EXPONENT[name]
        return self._memo(
            ("exact", name, want_exponent), lambda: semigroup_profile(spec, want_exponent)
        )

    def check(self, job: Job, out: str) -> str | None:
        """None when ``out`` is a correct answer to ``job``, else why not."""
        try:
            self._check(job, out)
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return f"unparseable output ({type(exc).__name__}: {exc})"
        return None

    def _check(self, job: Job, out: str) -> None:
        argv = job.argv
        digest = BOUND_DIGESTS.get(argv)
        if digest is not None:
            _require(
                hashlib.sha256(out.encode()).hexdigest() == digest,
                "bound CSV differs from the pinned digest",
            )
            if argv[0] == "bounds":
                check_bounds_csv(out)
            elif argv[1] == "fig8":
                check_fig8_csv(out)
            else:
                check_fig9_csv(out)
            return
        name, spec = self.source(job)
        command = argv[0] if argv[0] != "automata" else f"automata {argv[1]}"
        handler = {
            "check": self._check_check,
            "exponent": self._check_exponent,
            "krt": self._check_krt,
            "automata rt": self._check_aut_rt,
            "automata krt": self._check_aut_krt,
            "automata sandwich": self._check_sandwich,
            "automata krt-equality": self._check_krt_equality,
            "figure": self._check_fig2,
            "heuristic": self._check_heuristic,
        }[command]
        handler(job, spec, name, out)

    def _theorem_profile(self, spec, name) -> dict[int, int]:
        (_, aut), (_, aut_t) = self.aut(spec, name)
        return {k: min(aut[k], aut_t[k]) for k in range(2, spec.n + 1)}

    def _check_check(self, job, spec, name, out):
        _require(out == PRIMITIVE_REPORT, f"expected a primitive report, got {out!r}")

    def _check_exponent(self, job, spec, name, out):
        _, exponent = self.exact(spec, name, True)
        _require(out.strip() == str(exponent), f"exponent {out.strip()}, expected {exponent}")

    def _check_krt(self, job, spec, name, out):
        n = spec.n
        profile, exponent = self.exact(spec, name, True)
        theorem = self._theorem_profile(spec, name)
        (_, aut), (_, aut_t) = self.aut(spec, name)
        lines = out.splitlines()
        _require(len(lines) == n, f"expected {n} lines, got {len(lines)}")
        for k, line in zip(range(2, n + 1), lines):
            head, rt_text, word_text = line.split(" ")
            _require(head == f"k={k}", f"line {line!r} out of order")
            length = int(rt_text.removeprefix("rt="))
            word = _word(spec.labels, word_text.removeprefix("word="))
            _require(length == profile[k], f"rt_{k} = {length}, expected {profile[k]}")
            _require(length == theorem[k], f"rt_{k} = {length} but automata give {theorem[k]}")
            _require(len(word) == length, f"rt_{k} word has length {len(word)}")
            _require(max_line_weight(n, replay(spec, word)) >= k, f"rt_{k} word reaches no weight {k}")
        exp_text, word_text = lines[-1].split(" ")
        length = int(exp_text.removeprefix("exponent="))
        word = _word(spec.labels, word_text.removeprefix("word="))
        _require(length == exponent, f"exponent {length}, expected {exponent}")
        _require(aut[n] <= length <= aut[n] + aut_t[n] + n - 1, "exponent outside the sandwich")
        _require(len(word) == length, "exponent word has the wrong length")
        _require(all(r == (1 << n) - 1 for r in replay(spec, word)), "exponent word is not positive")

    def _check_aut_rt(self, job, spec, name, out):
        lines = out.splitlines()
        _require(len(lines) == 2, "expected two lines")
        for (letters, krt), title, line in zip(self.aut(spec, name), ("aut", "aut_T"), lines):
            head, rt_text, word_text = line.split(" ")
            _require(head == f"{title}:", f"unexpected line {line!r}")
            length = int(rt_text.removeprefix("rt="))
            word = _word(letters, word_text.removeprefix("word="))
            _require(length == krt[spec.n], f"{title} rt {length}, expected {krt[spec.n]}")
            _require(len(word) == length, f"{title} reset word has length {len(word)}")
            _require(replay_reset(spec.n, letters, word) == 1, f"{title} word does not reset")

    def _check_aut_krt(self, job, spec, name, out):
        (_, aut), (_, aut_t) = self.aut(spec, name)
        expected = {"rt_aut": aut, "rt_aut_T": aut_t}
        seen = 0
        for n, k, quantity, v in _long_rows(out):
            want = min(aut[k], aut_t[k]) if quantity == "rt_min" else expected[quantity][k]
            _require(v == want, f"{quantity} at k={k} is {v}, expected {want}")
            seen += 1
        _require(seen == 3 * (spec.n - 1), "missing automata rows")

    def _fields(self, out: str) -> dict[str, str]:
        return dict(line.split("=", 1) for line in out.splitlines())

    def _check_sandwich(self, job, spec, name, out):
        n = spec.n
        (_, aut), (_, aut_t) = self.aut(spec, name)
        _, exponent = self.exact(spec, name, True)
        upper = aut[n] + aut_t[n] + n - 1
        want = {
            "rt_aut": str(aut[n]),
            "exponent": str(exponent),
            "rt_aut_T": str(aut_t[n]),
            "upper": str(upper),
            "lower_ok": "true" if aut[n] <= exponent else "false",
            "upper_ok": "true" if exponent <= upper else "false",
            "tight": "true" if exponent == upper else "false",
        }
        _require(self._fields(out) == want, f"sandwich report {out!r}, expected {want}")

    def _check_krt_equality(self, job, spec, name, out):
        k = int(job.argv[job.argv.index("--k") + 1])
        (_, aut), (_, aut_t) = self.aut(spec, name)
        profile, _ = self.exact(spec, name, False)
        want = {
            "k": str(k),
            "rt_set": str(profile[k]),
            "rt_aut": str(aut[k]),
            "rt_aut_T": str(aut_t[k]),
            "equal": "true" if profile[k] == min(aut[k], aut_t[k]) else "false",
        }
        _require(self._fields(out) == want, f"krt-equality report {out!r}, expected {want}")
        _require(want["equal"] == "true", "rt_k(M) != min over the associated automata")

    def _check_fig2(self, job, spec, name, out):
        profile, _ = self.exact(spec, name, False)
        theorem = self._theorem_profile(spec, name)
        ks = set()
        for n, k, quantity, v in _long_rows(out):
            _require(n == spec.n, "wrong n")
            if quantity == "rt":
                _require(v == profile[k] == theorem[k], f"rt_{k} = {v}, expected {profile[k]}")
                ks.add(k)
            else:
                _require(quantity == "B", f"unexpected quantity {quantity}")
                _check_b_row(n, k, v)
        _require(ks == set(range(2, spec.n + 1)), "missing rt rows")

    def _check_heuristic(self, job, spec, name, out):
        n = spec.n
        fields = out.splitlines()
        column = int(fields[1].removeprefix("column="))
        length = int(fields[2].removeprefix("length="))
        word = _word(spec.labels, fields[3].removeprefix("word="))
        per_k = {}
        for line in fields[4:]:
            k_text, len_text = line.split(" ")
            per_k[int(k_text.removeprefix("k="))] = int(len_text.removeprefix("length="))
        _require(fields[0] == f"mode={job.argv[job.argv.index('--mode') + 1]}", "wrong mode line")
        _require(len(word) == length, f"word has length {len(word)}, reported {length}")
        _require(sorted(per_k) == list(range(2, n + 1)), "missing per-k lines")
        ks = range(2, n + 1)
        _require(all(per_k[k] <= per_k[k + 1] for k in ks[:-1]), "per-k lengths not monotone")
        _require(1 <= per_k[2] and per_k[n] <= length, "per-k lengths out of range")
        # Replay by columns: column j of P·G is the OR of P's columns i with G(i, j) = 1.
        gen = dict(zip(spec.labels, spec.gens))
        sources = {
            label: [ones_positions(c) for c in transpose(n, g)] for label, g in gen.items()
        }
        cols = [1 << j for j in range(n)]
        checkpoints = {}  # prefix length -> largest k first reached there
        for k, at in per_k.items():
            checkpoints[at] = max(checkpoints.get(at, 0), k)
        for step, label in enumerate(word, start=1):
            new = []
            for src in sources[label]:
                acc = 0
                for i in src:
                    acc |= cols[i]
                new.append(acc)
            cols = new
            need = checkpoints.get(step)
            if need is not None:
                rows = transpose(n, tuple(cols))
                weight = max(max(bin(c).count("1") for c in cols), max(bin(r).count("1") for r in rows))
                _require(weight >= need, f"prefix of length {step} reaches no weight {need}")
        _require(0 <= column < n and cols[column] == (1 << n) - 1, "grown column is not all ones")
