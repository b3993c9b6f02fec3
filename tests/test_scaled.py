"""``FiniteMetricSpace.scaled``: the one scaled-integer matrix the kernels read.

The property is checked against the Fraction rows it stands for, on the
int64 path and the object path, and the kernels are checked to read it
without writing to it and without converting a space twice.
"""

from __future__ import annotations

from fractions import Fraction as F
from functools import cached_property
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import (
    Embedding,
    FiniteMetricSpace,
    PartitionPlan,
    amalgamate,
    approximate,
    build_funiv_approx,
    find_isometric_embedding,
    metric_repair,
    quantize_discrete,
    random_metric,
    subdominant_ultrametric,
)

from support import (
    plain_max_value,
    plain_min_positive,
    plain_values,
    reference_approximate,
)

TINY = F(1, 2**64)
ONE_POINT = FiniteMetricSpace(("a",), ((F(0),),))


@st.composite
def raw_spaces(draw):
    # raw matrices: asymmetric, negative entries and nonzero diagonals are
    # all allowed; wide denominators push the lcm past 2^62
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        dens = st.integers(1, 64)
    else:
        dens = st.one_of(st.integers(1, 64), st.integers(2**40, 2**70))
    entry = st.builds(F, st.integers(-(2**65), 2**65), dens)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)


@given(raw_spaces())
@example(FiniteMetricSpace(("a", "b"), ((F(0), F(-3)), (F(1, 3), F(0)))))
@example(FiniteMetricSpace(("a", "b"), ((F(0), 1 + TINY), (F(5, 2**62), F(0)))))
def test_scaled_is_the_exact_matrix(space):
    arr, denom = space.scaled
    assert space.scaled is space.scaled
    entries = [v for row in space.dist for v in row]
    assert denom == lcm(*(v.denominator for v in entries))
    wide = max(abs(v) * denom for v in entries) >= 2**62
    assert arr.dtype == (object if wide else np.int64)
    for i in range(space.n):
        for j in range(space.n):
            assert F(int(arr[i, j]), denom) == space.dist[i][j]
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 0
    assert list(space.values()) == plain_values(space)
    assert space.max_value() == plain_max_value(space)
    assert space.min_positive() == plain_min_positive(space)


def test_scaled_leaves_equality_hash_and_repr_alone():
    space = random_metric(5, 10, seed=1)
    twin = FiniteMetricSpace(space.points, space.dist)
    text = repr(space)
    space.scaled
    assert space == twin and hash(space) == hash(twin)
    assert repr(space) == text and "scaled" not in text


WIDE_METRIC = FiniteMetricSpace.from_rows(
    "abc",
    [
        [F(0), 1 + TINY, F(2)],
        [1 + TINY, F(0), 1 + F(1, 3)],
        [F(2), 1 + F(1, 3), F(0)],
    ],
)


@pytest.mark.parametrize(
    "space",
    [random_metric(12, 10, seed=4), WIDE_METRIC],
    ids=["int64", "object"],
)
def test_kernels_leave_the_input_matrix_unchanged(space):
    arr, _ = space.scaled
    before = arr.copy()
    metric_repair(space)
    subdominant_ultrametric(space)
    approximate(space, F(1, 2))
    assert space.scaled[0] is arr
    assert (arr == before).all()


def test_all_zero_block_under_a_factor_past_2_63():
    # the one-point cluster and the one-point pattern scale an all-zero
    # matrix by 2^64; without a peak of at least 1 it stays int64 and
    # overflows
    pair = FiniteMetricSpace(("b", "c"), ((F(0), TINY), (TINY, F(0))))
    hub = FiniteMetricSpace(("a", "b"), ((F(0), F(1)), (F(1), F(0))))
    plan = PartitionPlan(((0,), (1, 2)), (0, 1), F(1))
    glued = amalgamate(plan, [ONE_POINT, pair], hub)
    far = 1 + TINY
    assert glued.dist == ((0, 1, far), (1, 0, TINY), (far, TINY, 0))
    found = find_isometric_embedding(ONE_POINT, ONE_POINT, TINY)
    assert found == Embedding((0,), False)
    assert find_isometric_embedding(ONE_POINT, pair) == Embedding((0,), True)


def test_one_point_grid_step_past_2_63():
    # eta = 2^-64 put 0 * 2^64 into int64 in quantize_discrete and approximate
    assert quantize_discrete(ONE_POINT, TINY) == ONE_POINT
    assert approximate(ONE_POINT, TINY) == reference_approximate(ONE_POINT, TINY)


@pytest.fixture
def conversions(monkeypatch):
    """Every space whose ``scaled`` is computed, in order."""
    seen = []
    convert = FiniteMetricSpace.scaled.func

    def counted(space):
        seen.append(space)
        return convert(space)

    prop = cached_property(counted)
    prop.__set_name__(FiniteMetricSpace, "scaled")
    monkeypatch.setattr(FiniteMetricSpace, "scaled", prop)
    return seen


def test_searches_convert_the_host_once(conversions):
    host = build_funiv_approx(2, F(1, 8)).space
    patterns = [host.restrict(range(k, 289, 50 + k)) for k in range(8)]
    conversions.clear()
    for k in range(40):
        assert find_isometric_embedding(patterns[k % 8], host) is not None
    assert conversions[0] is host
    # each pattern once, the host once: no space is converted twice
    assert len(conversions) == 9
    assert len({id(s) for s in conversions}) == 9


def test_approximate_converts_its_input_once(conversions):
    space = random_metric(20, 10, seed=2)
    conversions.clear()
    first = approximate(space, F(1, 2))
    assert approximate(space, F(1, 2)) == first
    assert len(conversions) == 1 and conversions[0] is space
