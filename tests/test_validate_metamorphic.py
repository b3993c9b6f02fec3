"""``validate_metric`` metamorphically, past the brute oracles' reach.

Two runs on related inputs must agree, so no oracle is needed and n runs
from 200 to 1024, the raw matrices aside (Chen, Cheung and Yiu, 1998).  For a seeded permutation
P and integer factors c, ``P d Pᵀ`` and ``c·d`` are built at denominator
1 with ``core._from_int_matrix``, and against ``d``:

- the verdicts ``is_metric`` and ``is_ultrametric`` stay the same;
- P's violation witnesses, mapped back under P, are ``d``'s, as a set;
- ``c·d``'s witnesses are ``d``'s, in order, their sides times c exactly.

Each c puts the peak just below or just above a switch: the int16, int32
and int64 floors of ``_holds`` and its shift past 2^60 and 2^61, the
int16, int32 and int64 copies of ``_triangles`` and the 2^62 switch to
Python ints.  On a peak that is a power of two (the raw matrices and the
tight inputs), the factor above a switch lands exactly on it.
"""

from functools import cache

import numpy as np
import pytest

from metric_forge import cantor_approx, core, jsonio, random_metric, validate_metric

from support import raw_weights

# the greatest peak below each switch: _holds' floors are int16 below 2^13
# and int32 below 2^29, and its shift s is 1 from 2^60 and 2 from 2^61
HOLDS = (2**13 - 1, 2**29 - 1, 2**60 - 1, 2**61 - 1)
# _triangles' copies are int16 below 2^14, int32 below 2^30 and int64
# below 2^62, where scaled itself turns to Python ints
TRIANGLES = (2**14 - 1, 2**30 - 1)
OBJECT = (2**62 - 1,)


def bounded(n, seed, lo, hi):
    """A symmetric matrix with a zero diagonal, entries uniform in [lo, hi]."""
    rng = np.random.default_rng(seed)
    arr = np.triu(rng.integers(lo, hi + 1, (n, n)), 1)
    return arr + arr.T


def tight(push):
    """A metric in [520, 1000] but for d(0,2) = d(0,1) + d(1,2) = 1024.

    The legs 513 and 511 are odd, so past 2^60 an odd c makes floor
    sums one step short of d(0,2).  ``push`` lowers d(0,1) by one unit,
    which breaks that one triangle.  d(3,4) = d(4,5) = 1024, the peak, so
    a copy that holds only the peak overflows on their sum.
    """
    arr = bounded(200, 3, 520, 1000)
    for (i, j), v in {(0, 1): 513 - push, (1, 2): 511, (0, 2): 1024}.items():
        arr[i, j] = arr[j, i] = v
    arr[3, 4] = arr[4, 3] = arr[4, 5] = arr[5, 4] = 1024
    return arr


def wide():
    """``tight(0)`` times 2^50 - 4, with d(0,2) one unit past its legs' sum.

    The peak stays below 2^60, where ``_holds`` is exact.  Times 3, the
    legs are multiples of 4 and d(0,2) is 3 more than their sum, so past
    2^61 (a shift by 2) their floors add up to d(0,2)'s floor: only the
    floors' slack tells the violation apart.
    """
    arr = tight(0) * (2**50 - 4)
    arr[0, 2] += 1
    arr[2, 0] += 1
    return arr


def raw(n, seed):
    return jsonio.space_from_obj(raw_weights(n, seed)).scaled[0]


# name -> (scaled integers, the switches to straddle); an object closure
# or an object slab at n = 200 takes a third of a second, so the object
# switch is straddled where neither runs
INPUTS = {
    # the k-loop: a path-repaired metric, tight along its shortest paths
    "random-200": (lambda: random_metric(200, 10, seed=1).scaled[0], HOLDS),
    # an ultrametric, which _holds settles on Prim's tree at n = 1024
    "cantor-10": (lambda: cantor_approx(10).scaled[0], ()),
    # entries in [a, 2a]: the nearest-neighbour certificate settles it
    "bounded-300": (lambda: bounded(300, 1, 512, 1024), HOLDS + OBJECT),
    # one tight triangle with odd legs, one unit past it, and one unit past
    # it at 2^60 (the floors' slack)
    "tight-200": (lambda: tight(0), HOLDS),
    "tight-200-pushed": (lambda: tight(1), HOLDS + TRIANGLES),
    "tight-200-wide": (wide, HOLDS[2:]),
    # raw weights: about 168k witnesses in two slabs, through the bool view
    "raw-128": (lambda: raw(128, 1), TRIANGLES),
    # and through an object slab's bool verdicts
    "raw-64": (lambda: raw(64, 3), OBJECT),
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


@cache
def base(name):
    return matrix(name), report(matrix(name))


CASES = [
    (name, c)
    for name, (_, switches) in INPUTS.items()
    for c in factors(int(matrix(name).max()), switches)
]


def report(arr):
    space = core._from_int_matrix([f"p{i}" for i in range(len(arr))], arr, 1)
    assert space.scaled[1] == 1
    return space, validate_metric(space)


def triangles(space, rep):
    """The report's witnesses and sides, each witness checked against ``space``."""
    blocks, denom = list(rep._blocks()), rep.table[1]
    assert denom == 1 and {kind for kind, *_ in blocks} <= {"triangle"}
    if not blocks:
        return np.empty((0, 3), dtype=np.intp), [], []
    ikj = np.concatenate([w for _, w, *_ in blocks])
    lhs = [v for *_, side, _ in blocks for v in side.tolist()]
    rhs = [v for *_, side in blocks for v in side.tolist()]
    arr = space.scaled[0]
    i, k, j = ikj.T
    assert (i < j).all() and (k != i).all() and (k != j).all()
    assert lhs == arr[i, j].tolist()
    assert rhs == (arr[i, k] + arr[k, j]).tolist()
    assert all(a > b for a, b in zip(lhs, rhs))
    return ikj, lhs, rhs


def test_inputs_reach_each_path():
    assert base("random-200")[1][1].is_metric
    assert base("cantor-10")[1][1].is_ultrametric
    assert base("bounded-300")[1][1].is_metric
    assert base("tight-200")[1][1].is_metric
    pushed = base("tight-200-pushed")[1]
    assert triangles(*pushed)[0].tolist() == [[0, 1, 2]]
    for name in ("raw-128", "raw-64"):
        arr, (space, rep) = base(name)
        assert int(arr.max()) == 1024 and len(triangles(space, rep)[0]) > 20_000
    assert len(list(base("raw-128")[1][1]._blocks())) > 1  # two slabs
    dtypes = {
        (name, core._narrow(2 * c * int(base(name)[0].max())))
        for name, c in CASES
    }
    for name in ("tight-200-pushed", "raw-128"):
        assert {np.int16, np.int32, np.int64} <= {t for n, t in dtypes if n == name}
    peaks = {c * int(base(name)[0].max()) for name, c in CASES}
    assert {2**14, 2**30, 2**60, 2**61, 2**62} <= peaks  # on the switches
    # an odd c puts the odd legs of the tight triangle on odd ints past 2^60
    assert ("tight-200", 2**51 - 1) in CASES
    assert triangles(*base("tight-200-wide")[1])[0].tolist() == [[0, 1, 2]]
    assert ("tight-200-wide", 3) in CASES


@pytest.mark.parametrize("name, c", CASES, ids=[f"{n}-x{c}" for n, c in CASES])
def test_scaling_multiplies_the_sides(name, c):
    arr, (space, rep) = base(name)
    scaled_space, scaled = report(core._rescale(arr, c))
    assert (scaled.is_metric, scaled.is_ultrametric) == (rep.is_metric, rep.is_ultrametric)
    ikj, lhs, rhs = triangles(space, rep)
    got_ikj, got_lhs, got_rhs = triangles(scaled_space, scaled)
    assert np.array_equal(got_ikj, ikj)
    assert got_lhs == [c * v for v in lhs] and got_rhs == [c * v for v in rhs]


@pytest.mark.parametrize("name", INPUTS)
def test_permutation_maps_witnesses_back(name):
    arr, (space, rep) = base(name)
    perm = np.random.default_rng(7).permutation(len(arr))
    moved_space, moved = report(arr[np.ix_(perm, perm)])
    assert (moved.is_metric, moved.is_ultrametric) == (rep.is_metric, rep.is_ultrametric)
    ikj, lhs, rhs = triangles(space, rep)
    got_ikj, got_lhs, got_rhs = triangles(moved_space, moved)
    # d(i,j) > d(i,k) + d(k,j) is the same triangle as j, k, i
    i, k, j = perm[got_ikj].T
    back = np.stack([np.minimum(i, j), k, np.maximum(i, j)], axis=1)
    order = np.lexsort(back.T[::-1])
    assert np.array_equal(back[order], ikj)
    assert [got_lhs[a] for a in order] == lhs
    assert [got_rhs[a] for a in order] == rhs
