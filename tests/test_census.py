"""Complete ground truth at n = 3: every unordered pair {A, B} of NZ 3 x 3
matrices, A = B allowed, one pair per class under simultaneous relabelling
of the states.  Primitivity is checked on every class against the
semigroup closure, and the exponent, rt_2 and rt_3 on every primitive
class against a plain breadth-first search over distinct products, with
the bounds rt_k <= F_k <= B_k; the per-quantity maxima are pinned.  On
every class, the subset searches on the generators of M and of M^T meet
the searches on the letters of Aut(M) and Aut(M^T)."""

import functools
import itertools
import operator
from fractions import Fraction

import pytest

from rendezvous import (
    BoolMatrix,
    MatrixSet,
    associated_automaton,
    bound_b_recursive,
    bound_f,
    check_primitivity,
    explore,
    set_profile,
    subset_bfs,
)
from rendezvous.automata import side_searches
from helpers import brute_force_primitive, distinct_product_profile

N = 3


def relabelled(rows, perm):
    """The matrix with state i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in range(len(rows)):
            if row >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


@pytest.fixture(scope="module")
def census():
    """The NZ matrices as bit-row tuples, and one set per class of pairs
    (a, b), a <= b: the least index pair over relabellings."""
    full = (1 << N) - 1
    mats = [
        rows for rows in itertools.product(range(1, full + 1), repeat=N)
        if functools.reduce(operator.or_, rows) == full
    ]
    index = {rows: i for i, rows in enumerate(mats)}
    actions = [
        [index[relabelled(rows, perm)] for rows in mats]
        for perm in itertools.permutations(range(N))
    ]
    classes = sorted({
        min((min(act[a], act[b]), max(act[a], act[b])) for act in actions)
        for a in range(len(mats)) for b in range(a, len(mats))
    })
    sets = [
        MatrixSet.of([BoolMatrix(N, mats[a]), BoolMatrix(N, mats[b])]) for a, b in classes
    ]
    return mats, sets


@pytest.fixture(scope="module")
def primitive(census):
    """Per class, whether the all-ones matrix lies in the semigroup closure."""
    return [brute_force_primitive(mset) for mset in census[1]]


def test_class_counts(census, primitive):
    mats, sets = census
    assert (len(mats), len(sets), sum(primitive)) == (265, 6022, 5519)


def test_primitivity_matches_the_semigroup_closure(census, primitive):
    for mset, expected in zip(census[1], primitive):
        assert check_primitivity(mset).primitive == expected, mset


def test_exact_quantities_match_a_plain_search_and_the_bounds(census, primitive):
    f = {k: bound_f(N, k)[0] for k in (2, 3)}
    b = {k: bound_b_recursive(N, k) for k in (2, 3)}
    assert all(f[k] <= b[k] for k in f)
    maxima = {"exponent": 0, 2: 0, 3: 0}
    for mset in itertools.compress(census[1], primitive):
        profile, exponent = distinct_product_profile(mset)
        assert explore(mset).exponent.length == exponent, mset
        krt = set_profile(mset).krt
        assert {k: reach.length for k, reach in krt.items()} == profile, mset
        for k, length in profile.items():
            assert length <= f[k], mset
            maxima[k] = max(maxima[k], length)
        maxima["exponent"] = max(maxima["exponent"], exponent)
    assert maxima == {"exponent": 9, 2: 1, 3: 4}
    assert f[3] == 4 and b[3] == Fraction(11, 2)


def test_generator_searches_match_the_automaton_searches(census):
    # automata rt, krt and sandwich search the generators: a letter f below
    # a generator g has pre_f(S) within pre_g(S), and some f attains it.
    def outcome(result):
        reset = result.reset and result.reset.length
        return reset, {k: reach.length for k, reach in result.krt.items()}, result.exhausted

    for mset in census[1]:
        for source, side in zip((mset, mset.transposed()), side_searches(mset)):
            letters = associated_automaton(source).letters
            assert outcome(side) == outcome(subset_bfs(N, letters)), (mset, source)
