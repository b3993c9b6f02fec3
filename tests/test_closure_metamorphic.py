"""The closures and ``approximate`` metamorphically, past the brute oracles' reach.

Two runs on related inputs must agree, so no oracle is needed and n runs
from 200 to 1024 (Chen, Cheung and Yiu, 1998).  For a seeded permutation P
and integer factors c, ``P d Pᵀ`` and ``c·d`` are built at denominator 1
with ``core._from_int_matrix``, and against ``d``:

- ``subdominant_ultrametric`` and ``metric_repair`` commute with P;
- on ``c·d`` they give ``c`` times their matrix on ``d``, exactly;
- ``approximate`` on ``d`` with new point labels gives the same ``scaled``
  D, plan and certificate table.  It does not commute with P, since the
  greedy partition reads index order, and does not scale, since r is a
  ratio.

Each c puts the peak just below or just above a switch of
``_path_closure``, which copies into ``_narrow`` of the longest path it
can meet (``peak`` for ``max``, ``2 * peak`` for ``+``), and of the 2^62
switch of ``scaled`` to Python ints.  An object closure at n = 200 takes a
third of a second, so each closure crosses into it once.
"""

from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest

from metric_forge import (
    approximate,
    cantor_approx,
    core,
    metric_repair,
    random_metric,
    subdominant_ultrametric,
)

# the greatest peak whose closure copy is int16, int32 and int64, and whose
# scaled matrix stays int64; a + closure's copy holds twice the peak
MAX_SWITCHES = (2**15 - 1, 2**31 - 1, 2**62 - 1, 2**63 - 1)
ADD_SWITCHES = (2**14 - 1, 2**30 - 1, 2**62 - 1)

CLOSURES = {"max": subdominant_ultrametric, "add": metric_repair}


def raw(n, seed):
    """Symmetric weights uniform in [1, 1024], zero diagonal: no metric."""
    arr = np.triu(np.random.default_rng(seed).integers(1, 1025, (n, n)), 1)
    return arr + arr.T


@cache
def generated(name):
    max_value = {"random-200": 10, "wide-200": F(10**25, 7)}[name]
    return random_metric(200, max_value, seed=1)


# name -> (scaled integers, {closure: the switches its factors straddle})
INPUTS = {
    # a path-repaired metric, peak 25/16: its subdominant ultrametric
    "random-200": (lambda: generated("random-200").scaled[0], {"max": MAX_SWITCHES}),
    # the same at 10^25/7, on Python ints, closed once per run
    "wide-200": (lambda: generated("wide-200").scaled[0], {"max": ()}),
    # raw weights, which metric_repair shortens along paths
    "raw-200": (lambda: raw(200, 1), {"add": ADD_SWITCHES, "max": MAX_SWITCHES[:3]}),
}


def factors(peak, switches):
    """Per switch, the greatest c with c * peak at most it and c + 1, past 1."""
    out = set()
    for top in switches:
        c = top // peak
        out |= {c, c + 1} - {0, 1}
    return sorted(out)


@cache
def matrix(name):
    return INPUTS[name][0]()


def closed(join, arr):
    """The closure's matrix on ``arr / 1``, checked to stay at denominator 1."""
    space = core._from_int_matrix([f"p{i}" for i in range(len(arr))], arr, 1)
    assert space.scaled[1] == 1
    out = CLOSURES[join](space)
    assert out.scaled[1] == 1 and out.points == space.points
    return out.scaled[0]


@cache
def base(name, join):
    return closed(join, matrix(name))


CASES = [
    (name, join, c)
    for name, (_, joins) in INPUTS.items()
    for join, switches in joins.items()
    for c in factors(int(matrix(name).max()), switches)
]


def copy_dtype(join, c, name):
    """The dtype ``_path_closure`` works in on ``c`` times the input."""
    return core._narrow((2 if join == "add" else 1) * c * int(matrix(name).max()))


def test_inputs_reach_each_path():
    assert matrix("random-200").dtype == np.int64
    assert int(matrix("random-200").max()) == 25
    assert matrix("wide-200").dtype == object
    assert int(matrix("raw-200").max()) == 1024
    # raw-200 is no metric, and its repair shortens some entries
    assert (base("raw-200", "add") < matrix("raw-200")).any()
    for join in CLOSURES:
        dtypes = {copy_dtype(j, c, n) for n, j, c in CASES if j == join}
        assert dtypes == {np.int16, np.int32, np.int64, object}
    peaks = {c * int(matrix(n).max()) for n, _, c in CASES}
    assert {2**14, 2**62} <= peaks  # exactly on a switch
    # both sides of the 2^62 switch of scaled, for each closure
    for join in CLOSURES:
        sides = {c * int(matrix(n).max()) >= 2**62 for n, j, c in CASES if j == join}
        assert sides == {False, True}


@pytest.mark.parametrize(
    "name, join, c", CASES, ids=[f"{n}-{j}-x{c}" for n, j, c in CASES]
)
def test_closures_scale_by_c(name, join, c):
    got, want = closed(join, core._rescale(matrix(name), c)), base(name, join)
    # a closure's peak may lie below its input's, and stores by its own
    assert got.dtype == (object if c * int(want.max()) >= 2**62 else np.int64)
    assert got.tolist() == [[c * v for v in row] for row in want.tolist()]


PERMUTED = [(name, join) for name, (_, joins) in INPUTS.items() for join in joins]


@pytest.mark.parametrize("name, join", PERMUTED, ids=[f"{n}-{j}" for n, j in PERMUTED])
def test_closures_commute_with_a_permutation(name, join):
    arr = matrix(name)
    perm = np.random.default_rng(7).permutation(len(arr))
    moved = closed(join, arr[np.ix_(perm, perm)])
    assert np.array_equal(moved, base(name, join)[np.ix_(perm, perm)])


def test_cantor_subdominant_commutes_with_a_permutation_at_n1024():
    # an ultrametric is its own subdominant ultrametric, so one closure at
    # n = 1024 checks the permuted run against the permuted input
    arr = cantor_approx(10).scaled[0]
    assert core._is_ultrametric(arr)
    perm = np.random.default_rng(7).permutation(len(arr))
    moved = arr[np.ix_(perm, perm)]
    assert np.array_equal(closed("max", moved), moved)


@pytest.mark.parametrize("name, epsilon", [("random-200", 5), ("wide-200", F(1, 2))])
def test_approximate_ignores_the_labels(name, epsilon):
    space = generated(name)
    arr, denom = space.scaled
    labels = [f"q{space.n - i}" for i in range(space.n)]
    renamed = core._from_int_matrix(labels, arr, denom)
    got, want = approximate(renamed, epsilon), approximate(space, epsilon)
    assert got.D.points == renamed.points
    (a, da), (b, db) = got.D.scaled, want.D.scaled
    assert da == db and a.dtype == b.dtype and np.array_equal(a, b)
    assert got.plan == want.plan and (got.eta, got.r) == (want.eta, want.r)
    assert got.table[0] == want.table[0]
    assert np.array_equal(got.table[1], want.table[1])
