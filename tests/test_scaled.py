"""``FiniteMetricSpace.scaled``: the one scaled-integer matrix a space stores.

The matrix is checked against the Fraction rows it stands for, on the
int64 path and the object path, in the one canonical form whichever way
the space was built.  The kernels are checked to read it without writing
to it, and the readers, the writers, the kernels and the universal
builders to run without building the ``dist`` view.  The two helpers
over scaled ints, ``_factorize`` and ``_rational``, are checked against
``np.unique`` and ``str(Fraction)``.
"""

from __future__ import annotations

import json
from fractions import Fraction as F
from functools import cached_property
from math import gcd, lcm
from unittest.mock import patch

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
    build_pair_universal,
    cantor_approx,
    cover,
    find_isometric_embedding,
    jsonio,
    margin,
    metric_repair,
    quantize_discrete,
    random_metric,
    subdominant_ultrametric,
    validate_metric,
)
from metric_forge.cli import render_range_svg
from metric_forge.core import _COUNT_SPAN, _factorize, _from_int_matrix, _int_matrix
from metric_forge.core import _rational
from metric_forge.nebula import _covering_intervals

from support import (
    encoded,
    metric_1024,
    plain_max_value,
    plain_min_positive,
    plain_values,
    reference_approximate,
    reference_covering_intervals,
    reference_render_range_svg,
    reference_space_from_obj,
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
def views(monkeypatch):
    """Every space whose ``dist`` view is built, in order."""
    seen = []
    build = FiniteMetricSpace.dist.func

    def counted(space):
        seen.append(space)
        return build(space)

    prop = cached_property(counted)
    prop.__set_name__(FiniteMetricSpace, "dist")
    monkeypatch.setattr(FiniteMetricSpace, "dist", prop)
    return seen


def test_searches_never_build_dist(views):
    host = build_funiv_approx(2, F(1, 8)).space
    patterns = [host.restrict(range(k, 289, 50 + k)) for k in range(8)]
    for k in range(40):
        assert find_isometric_embedding(patterns[k % 8], host) is not None
    assert views == []


def test_approximate_never_builds_dist(views):
    space = random_metric(20, 10, seed=2)
    first = approximate(space, F(1, 2))
    assert approximate(space, F(1, 2)) == first
    assert views == []


def test_validate_metric_on_a_metric_never_builds_dist(views):
    text = encoded(jsonio.space_to_obj(WIDE_METRIC))
    wide = jsonio.space_from_obj(json.loads(text))
    assert wide.scaled[0].dtype == object
    for space in (random_metric(20, 10, seed=3), wide, cantor_approx(4)):
        assert validate_metric(space).is_metric
    assert views == []


def test_universal_builders_never_build_dist(views):
    funiv = build_funiv_approx(2, F(1, 4), copies=2)
    pairs = build_pair_universal([1, F(3, 2), F(7, 3)])
    assert funiv.space.n == 2 * 81 and pairs.n == 6
    assert views == []


def test_reader_and_writer_never_build_dist(views):
    for space in (random_metric(30, F(7, 3), seed=5), WIDE_METRIC):
        text = encoded(jsonio.space_to_obj(space))
        back = jsonio.space_from_obj(json.loads(text))
        assert back == space
        assert encoded(jsonio.space_to_obj(back)) == text
    assert views == []
    # the view is built on first read only, one Fraction per distinct value
    assert back.dist is back.dist and views == [back]
    assert back.dist == WIDE_METRIC.dist
    assert back.dist[0][1] is back.dist[1][0]


def test_dist_is_read_only():
    space = random_metric(3, 10, seed=1)
    with pytest.raises(AttributeError):
        space.dist = ()
    with pytest.raises(AttributeError):
        space.scaled = space.scaled


# --- canonical form -----------------------------------------------------------


@pytest.mark.parametrize(
    "arr, denom",
    [
        (np.array([[0, 6, 4], [6, 0, 10], [4, 10, 0]]), 8),  # common factor 2
        (np.array([[0, 3], [3, 0]], dtype=object), 2**70),  # fits int64
        (np.array([[0, 2**62], [2**63 - 1, 0]]), 3),  # past 2^62 in int64
        (np.array([[0, 2**80], [2**80, 0]], dtype=object), 2**80),  # all one
        (np.zeros((1, 1), dtype=np.int64), 2**80),  # one point, gcd past 2^63
    ],
    ids=["common-factor", "object-fits", "int64-wide", "object-unit", "zero"],
)
def test_from_int_matrix_is_canonical(arr, denom):
    labels = [f"p{i}" for i in range(len(arr))]
    space = _from_int_matrix(labels, arr, denom)
    twin = FiniteMetricSpace.from_rows(
        labels, [[F(int(v), denom) for v in row] for row in arr.tolist()]
    )
    (a, da), (b, db) = space.scaled, twin.scaled
    assert da == db and a.dtype == b.dtype and a.tolist() == b.tolist()
    assert not a.flags.writeable
    assert space == twin and hash(space) == hash(twin)
    assert space.dist == twin.dist and repr(space) == repr(twin)


# the reader's strings: unreduced ones, zeros over a denominator, and
# entries that share a factor with every denominator
RATIO_TEXTS = ["0", "0/5", "6/4", "2/6", "4/12", "12", "9/3", f"{2**64}", f"6/{2**70}"]


@given(
    st.lists(st.lists(st.sampled_from(RATIO_TEXTS), min_size=1, max_size=4), min_size=1)
)
@example([["0/5", "6/4"], ["12", "0"]])  # lcm 2, every entry even but one
@example([["0", f"{2**64}"], ["0", "0"]])  # denom 1, past 2^62
def test_int_matrix_is_already_reduced(rows):
    # _int_matrix leaves what _from_int_matrix would keep: the gcd of the
    # denominator and every entry is 1, and the dtype follows the 2^62 rule,
    # so the readers store its result as it is, and its table holds every
    # entry; on strings (the reader's batch parse) and on (p, q) pairs (the
    # constructor's, each pair its own ratio)
    for ratios, cells in (
        (jsonio._ratios, rows),
        (list, [[F(*jsonio._ratio(v)).as_integer_ratio() for v in r] for r in rows]),
    ):
        arr, denom, table = _int_matrix(cells, ratios)
        ints = arr.tolist()
        assert gcd(denom, *ints) == 1
        wide = max(map(abs, ints)) >= 2**62
        assert arr.dtype == (object if wide else np.int64)
        assert set(table) == set(ints)


# --- the space reader against its Fraction implementation ---------------------

VALID = st.sampled_from(
    ["0", "1", "1/2", "2/4", "3", "7/3", "0/5", f"{2**64}", f"1/{2**70}", f"3/{2**70}"]
)
ODD = st.one_of(
    st.sampled_from(["1.5", "-1", "", "1/0", " 2", "2\n", "3/-2"]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(0, 2**70),
    st.none(),
    st.just([1]),
)


@st.composite
def space_objs(draw):
    # a symmetric matrix of valid strings, then a few edits: an odd entry
    # (JSON integers included), an asymmetric one, a short row, a row too
    # many, repeated labels
    n = draw(st.integers(0, 5))
    points = [f"p{i}" for i in range(n)]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(VALID)
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(["odd", "asym", "short", "extra", "label"]))
        if edit == "extra":
            rows.append([draw(VALID) for _ in range(n)])
        elif edit == "label" and n:
            points[draw(st.integers(0, n - 1))] = points[0]
        elif n and rows[i := draw(st.integers(0, n - 1))]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            if edit == "short":
                del rows[i][j]
            else:
                rows[i][j] = draw(ODD if edit == "odd" else VALID)
    return {"points": points, "dist": rows}


def read(reader, obj):
    try:
        space = reader(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    (arr, denom), dist = space.scaled, space.dist
    return space.points, denom, arr.dtype, arr.tolist(), dist


@given(space_objs())
@example({"points": ["a", "b"], "dist": [["0", True], ["1", "0"]]})
@example({"points": ["a", "b"], "dist": [["0", 1], [1, "0"]]})
@example({"points": ["a", "b"], "dist": [["0", 2**70], [2**70, "0"]]})
@example({"points": ["a", "b"], "dist": [["0", [1]], ["1", "0"]]})
@example({"points": list("abc"), "dist": [["0", "1", "1"], ["1", "0", "1/2"], ["1", "1/3", "0"]]})
# True and 1 (and 1.0 and 1) hash alike, so they share one code whichever
# comes first; the per-entry check still refuses the bool and the float
@example({"points": ["a", "b"], "dist": [["0", True], [1, "0"]]})
@example({"points": ["a", "b"], "dist": [["0", 1], [True, "0"]]})
@example({"points": ["a", "b"], "dist": [["0", 1], [1.0, "0"]]})
@example({"points": ["a", "b"], "dist": [["0", {}], ["1", "0"]]})
# a ragged matrix that also holds a malformed string: the parse error wins
@example({"points": ["a", "b"], "dist": [["0", "1", "1"], ["1", "1.5"]]})
@example({"points": ["a", "b"], "dist": [["0", "2/4"], ["1/2", "0"]]})
@example({"points": ["a", "b"], "dist": [["0", f"{2**64}"], [2**64, "0"]]})
def test_space_reader_matches_the_fraction_build(obj):
    assert read(jsonio.space_from_obj, obj) == read(reference_space_from_obj, obj)


def test_space_reader_peaks_near_two_matrices():
    import gc
    import tracemalloc

    n = 512
    obj = json.loads(encoded(jsonio.space_to_obj(random_metric(n, 10, seed=1))))
    gc.collect()
    tracemalloc.start()
    try:
        space = jsonio.space_from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.scaled[0].dtype == np.int64
    # the codes and the matrix, 8 n^2 bytes each; a list of n^2 Python ints
    # would add 8 n^2 bytes of pointers plus the ints it points to
    assert peak < 3 * 8 * n * n


def test_space_reader_puts_each_string_in_lowest_terms():
    import random
    import tracemalloc

    # "k m/m" with a new m per pair: on the unreduced q's the lcm runs to
    # thousands of digits, and every value with it, until the final gcd
    n, rng = 64, random.Random(1)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = rng.randrange(2, 2**20)
            rows[i][j] = rows[j][i] = f"{rng.randrange(1, 10) * m}/{m}"
    obj = {"points": [f"p{i}" for i in range(n)], "dist": rows}
    tracemalloc.start()
    try:
        space = jsonio.space_from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.scaled[1] == 1 and space == reference_space_from_obj(obj)
    # 0.3 MB in lowest terms, 5.3 MB on the unreduced q's
    assert peak < 2**20


# --- levels: the sorted distinct ints of scaled ---------------------------------


def plain_levels(space) -> list[int]:
    return sorted(set(space.scaled[0].ravel().tolist()) | {0})


def assert_levels(space):
    assert list(space.levels) == plain_levels(space)
    assert all(type(v) is int for v in space.levels)
    assert list(space.values()) == plain_values(space)
    assert space.min_positive() == plain_min_positive(space)


# "1/2" and "2/4" are two strings of one value; a JSON int sends every
# entry through parse_scalar; 2^64 and 1/2^70 put the matrix on Python ints
LEVEL_FILES = {
    "strings": [["0", "1/2", "2/4"], ["2/4", "0", "3"], ["1/2", "3", "0"]],
    "json-ints": [[0, "1/2", "2/4"], ["2/4", "0", 3], ["1/2", "3", 0]],
    "object": [
        ["0", "1/2", f"{2**64}"],
        ["2/4", "0", f"1/{2**70}"],
        [f"{2**64}", f"1/{2**70}", "0"],
    ],
}


@pytest.mark.parametrize("rows", LEVEL_FILES.values(), ids=list(LEVEL_FILES))
def test_reader_seeds_levels(rows):
    obj = {"points": ["a", "b", "c"], "dist": rows}
    space = jsonio.space_from_obj(obj)
    assert "_table" in vars(space)  # kept for levels, so scaled is not rescanned
    assert_levels(space)
    assert "_table" not in vars(space)
    wide = rows is LEVEL_FILES["object"]
    assert space.scaled[0].dtype == (object if wide else np.int64)
    nebula = cover(plain_values(space), 2)
    want = reference_covering_intervals(nebula, plain_values(space))
    assert _covering_intervals(nebula, space) == want
    assert margin(space, nebula) == margin(reference_space_from_obj(obj), nebula)
    for drawn in (None, nebula):
        assert render_range_svg(space, drawn) == reference_render_range_svg(space, drawn)


@given(raw_spaces())
@example(ONE_POINT)
def test_levels_of_every_build(space):
    # the constructor keeps its table for levels; _from_int_matrix and
    # restrict read them off scaled
    assert "_table" in vars(space)
    assert_levels(space)
    arr, denom = space.scaled
    built = _from_int_matrix(space.points, arr * 3, denom * 3)
    assert "_table" not in vars(built)
    assert built.levels == space.levels
    assert_levels(built)
    sub = space.restrict(range(space.n - 1, -1, -2))
    assert "_table" not in vars(sub)
    assert_levels(sub)


def test_levels_of_a_computed_space_build_no_int_per_entry():
    # 10^6 entries above 256: set().union of the rows peaked at 40 MiB;
    # _factorize holds the offsets and the codes, one intp a cell each
    import tracemalloc

    arr, denom = metric_1024().scaled
    space = _from_int_matrix(metric_1024().points, arr, denom)  # levels unread
    assert "_table" not in vars(space) and int(arr.max()) > 256
    tracemalloc.start()
    try:
        levels = space.levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(levels) == plain_levels(space)
    assert peak < 2.5 * arr.nbytes


# --- factorizing and writing scaled ints --------------------------------------


@st.composite
def factor_inputs(draw):
    # int16 to int64 with spans on both sides of the counting rule, up to
    # the whole dtype, and Python ints past 2^64 in object arrays, some
    # repeated, for the hash pass
    size = draw(st.integers(0, 30))
    if draw(st.integers(0, 3)) == 0:
        entry = st.integers(-(2**80), 2**80) | st.sampled_from([0, 1, 2**64, -(2**70)])
        vals = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(vals, dtype=object)
    info = np.iinfo(draw(st.sampled_from([np.int16, np.int32, np.int64])))
    low, full = int(info.min), int(info.max) - int(info.min)
    spans = [0, size, _COUNT_SPAN * size, _COUNT_SPAN * size + 1, full]
    span = min(full, draw(st.sampled_from(spans)))
    lo = draw(st.sampled_from([low, low + full - span]) | st.integers(low, low + full - span))
    vals = draw(st.lists(st.integers(lo, lo + span), min_size=size, max_size=size))
    vals[:2] = [lo, lo + span][: len(vals)]  # the span exactly, from two entries
    return np.array(vals, dtype=info.dtype)


@given(factor_inputs())
# 64768 apart: offsets taken in int16 wrap, and three distinct values came
# back as -32768, -767 and 31233
@example(np.array([-32768, 32000, 0] * 10**4, dtype=np.int16))
@example(np.array([], dtype=np.int64))
@example(np.array([], dtype=object))
@example(np.array([-(2**63)], dtype=np.int64))
@example(np.array([-(2**63), 2**63 - 1, 0, 2**63 - 1], dtype=np.int64))
@example(np.array([2**63 - 1, 2**63 - 3, 2**63 - 1], dtype=np.int64))
@example(np.array([-(2**63) + 2, -(2**63), -(2**63) + 2], dtype=np.int64))
@example(np.array([2**64 + 1, -(2**65), 2**64 + 1, 0], dtype=object))
# the hash pass: repeated values, ints past 2^64, a single entry, all
# entries equal, and huge and small values mixed
@example(np.array([5, 3, 5, 3, 5, 9], dtype=object))
@example(np.array([2**64 + 3, 2**64, 2**65, 2**64, 2**64 + 3], dtype=object))
@example(np.array([2**70], dtype=object))
@example(np.array([2**66 + 1] * 20, dtype=object))
@example(np.array([2**90, 1, -(2**90), 0, 1, 2**90, -1, 2**62], dtype=object))
def test_factorize_matches_unique(flat):
    values, at = _factorize(flat)
    want, want_at = np.unique(flat, return_inverse=True)
    assert values.dtype == want.dtype and values.tolist() == want.tolist()
    assert at.dtype == np.intp and at.shape == flat.shape
    assert at.tolist() == want_at.reshape(-1).tolist()


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint64, object])
@pytest.mark.parametrize("past", [0, 1], ids=["at-rule", "past-rule"])
def test_factorize_counts_up_to_the_span_rule(dtype, past):
    # a span of _COUNT_SPAN * len counts, one more sorts; uint64, which intp
    # does not hold, always sorts, and object arrays take the hash pass
    m = 50
    lo = 0 if dtype is np.uint64 else -(2**15)
    flat = np.array([lo + 7] * (m - 2) + [lo, lo + _COUNT_SPAN * m + past], dtype=dtype)
    with patch.object(np, "unique", wraps=np.unique) as spy:
        values, at = _factorize(flat)
    assert spy.called == (dtype is np.uint64 or (bool(past) and dtype is not object))
    assert values.tolist() == [lo, lo + 7, lo + _COUNT_SPAN * m + past]
    assert at.tolist() == [1] * (m - 2) + [0, 2]


@pytest.mark.parametrize("span", [_COUNT_SPAN * 4096, 4096 // 2, 2**22])
def test_factorize_memory_is_linear_in_the_length(span):
    # the counting table has span + 1 slots, so the rule caps it at
    # _COUNT_SPAN slots per entry: about 66 bytes per entry at the cap,
    # against about 48 for the sort; a span of 2^22 on 4096 entries sorts,
    # where a table would take 36 MiB
    import tracemalloc

    m = 4096
    flat = np.random.default_rng(span).integers(0, span + 1, m)
    flat[:2] = 0, span
    tracemalloc.start()
    try:
        _factorize(flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 72 * m


@given(st.integers(1, 2**70), st.integers(-(2**70), 2**70), st.booleans())
@example(1, 0, False)
@example(7, 0, False)
@example(6, -4, False)
@example(6, -4, True)  # -24 / 6
@example(2**64 + 1, 3, True)  # a multiple of a denominator past 2^64
@example(3, 2**64 + 1, False)
def test_rational_matches_fraction(denom, v, multiple):
    if multiple:
        v *= denom
    assert _rational(v, denom) == str(F(v, denom))
