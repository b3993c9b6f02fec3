import operator
import random
import re
import tracemalloc
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_forge import (
    FiniteMetricSpace,
    PartitionPlan,
    Violation,
    amalgamate,
    approximate,
    cantor_approx,
    extend_metric,
    greedy_clopen_partition,
    metric_repair,
    pair_points,
    random_metric,
    subdominant_ultrametric,
    sup_distance,
    validate_metric,
)
from metric_forge import core, jsonio, quantize

from support import (
    SLAB_BUDGETS,
    all_kinds,
    brute_minimax_paths,
    brute_shortest_paths,
    brute_violations,
    core_calls,
    flat_blocks,
    grid_space,
    plain_extend,
    plain_repair_error,
    raw_weights,
    reference_cantor_approx,
    reference_random_metric,
    triple_loop_is_metric,
    triple_loop_is_ultrametric,
)


def space(labels, rows):
    return FiniteMetricSpace.from_rows(labels, [[F(v) for v in r] for r in rows])


def path_space(x, y):
    # d(a,b)=x, d(b,c)=y, d(a,c)=x+y
    return space(
        "abc", [[0, x, x + y], [x, 0, y], [x + y, y, 0]]
    )


# --- validation --------------------------------------------------------------


def test_validate_single_point():
    report = validate_metric(space(["a"], [[0]]))
    assert report.is_metric and report.is_ultrametric
    assert report.violations == ()


def test_validate_triangle_witness():
    bad = space("abc", [[0, 1, 1], [1, 0, 3], [1, 3, 0]])
    report = validate_metric(bad)
    assert not report.is_metric
    tri = [v for v in report.violations if v.kind == "triangle"]
    assert len(tri) == 1
    assert tri[0].witness == (1, 0, 2)
    assert tri[0].lhs == 3 and tri[0].rhs == 2


def test_validate_reports_all_kinds():
    cand = FiniteMetricSpace.from_rows(
        "ab", [[F(1), F(2)], [F(3), F(0)]]
    )
    kinds = {v.kind for v in validate_metric(cand).violations}
    assert kinds == {"diagonal", "symmetry"}
    cand = FiniteMetricSpace.from_rows("ab", [[F(0), F(0)], [F(0), F(0)]])
    kinds = {v.kind for v in validate_metric(cand).violations}
    assert kinds == {"positivity"}


def test_validate_shape_error():
    with pytest.raises(ValueError, match="shape"):
        FiniteMetricSpace.from_rows("ab", [[F(0), F(1), F(2)], [F(1), F(0)]])


def test_from_rows_converts_ints_and_keeps_fractions():
    half = F(1, 2)
    m = FiniteMetricSpace.from_rows("ab", [[0, half], [half, F(0)]])
    assert m.dist == ((0, half), (half, 0))
    assert all(type(v) is F for row in m.dist for v in row)
    # one Fraction per distinct value, as for every other space
    assert m.dist[0][1] is m.dist[1][0] == half


def test_constructor_converts_ints_like_from_rows():
    built = FiniteMetricSpace("ab", ((0, 1), (2, 0)))
    assert all(type(v) is F for row in built.dist for v in row)
    assert repr(built) == repr(FiniteMetricSpace.from_rows("ab", ((0, 1), (2, 0))))
    v = validate_metric(built).violations[0]
    assert (v.kind, type(v.lhs), type(v.rhs)) == ("symmetry", F, F)


@pytest.mark.parametrize("odd", [1.0, 0.5, True, False])
def test_from_rows_rejects_floats_and_bools(odd):
    with pytest.raises(TypeError):
        FiniteMetricSpace.from_rows("ab", [[F(0), odd], [odd, F(0)]])


def test_restrict_refuses_what_the_constructor_refuses():
    # with the constructor's messages (tests/test_input_checks.py)
    m = random_metric(4)
    assert m.restrict([2, 0]).points == ("p2", "p0")
    with pytest.raises(ValueError, match="^a space needs at least one point$"):
        m.restrict([])
    with pytest.raises(ValueError, match="^point labels must be distinct$"):
        m.restrict([0, 0])
    # integers in 0 .. n - 1 only: no negative index counts from the end,
    # and a bool or a float is not an index
    for bad, message in (
        ([-1], "point index -1 out of range for 4 points"),
        ([4], "point index 4 out of range for 4 points"),
        ([True, False], "point index must be an integer, got True"),
        ([1.0], "point index must be an integer, got 1.0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            m.restrict(bad)


ODD_ENTRIES = [F(-1), F(0), F(1, 3), F(1), F(5), F(7, 2**70), F(2**65 + 1, 3)]


@st.composite
def raw_matrices(draw, entries=ODD_ENTRIES):
    n = draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(entries)) for _ in range(n)] for _ in range(n)]
    return FiniteMetricSpace.from_rows([f"v{i}" for i in range(n)], rows)


@given(raw_matrices())
# -2^63 fits int64, so the triangle sums below wrapped around to 0
@example(space("abc", [[0, -(2**63), -1], [-(2**63), 0, -(2**63)], [-1, -(2**63), 0]]))
def test_validate_reports_what_plain_loops_find(cand):
    report = validate_metric(cand)
    got = [(v.kind, v.witness, v.lhs, v.rhs) for v in report.violations]
    assert got == brute_violations(cand)


def test_reports_read_no_fraction_view():
    # the sides come from the kernel, so no dist view is built
    rows = [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]
    cand = jsonio.space_from_obj({"points": ["a", "b", "c"], "dist": rows})
    assert not validate_metric(cand).is_metric
    assert "dist" not in cand.__dict__
    with pytest.raises(ValueError, match=r"^input is not a metric: triangle"):
        approximate(cand, F(1, 2))
    assert "dist" not in cand.__dict__


# the int64 and the object path, each with every kind and as a metric
REPORT_INPUTS = {
    "i64": all_kinds(1),
    "obj": all_kinds(F(1, 2**70)),
    "metric-i64": random_metric(6, 10, seed=6),
    "metric-obj": random_metric(9, F(2**65 + 1, 3), seed=4),
}


@pytest.mark.parametrize("cand", REPORT_INPUTS.values(), ids=list(REPORT_INPUTS))
def test_report_contract(cand):
    report = validate_metric(cand)
    arr, denom = cand.scaled
    kept, over = report.table
    assert kept is arr and over == denom  # the space's matrix, not a copy
    blocks = list(report._blocks())  # listed from the matrix when read
    sides = [side for *_, lhs, rhs in blocks for side in (lhs, rhs)]
    assert all(side.dtype == arr.dtype for side in sides)
    assert "violations" not in report.__dict__  # built on first read
    violations = report.violations
    assert violations is report.violations
    assert violations == tuple(Violation(*v) for v in brute_violations(cand))
    for v in violations:
        assert type(v.lhs) is F and type(v.rhs) is F
        assert type(v.witness) is tuple and all(type(i) is int for i in v.witness)
    assert (report.is_metric, report.is_ultrametric) == (
        triple_loop_is_metric(cand),
        triple_loop_is_ultrametric(cand),
    )
    # the same as a plain frozen dataclass of the two verdicts and the view
    twin = validate_metric(FiniteMetricSpace.from_rows(cand.points, cand.dist))
    assert twin == report and hash(twin) == hash(report)
    assert twin != validate_metric(all_kinds(5)) and report != violations
    assert repr(report) == (
        f"ValidationReport(is_metric={report.is_metric}, is_ultrametric="
        f"{report.is_ultrametric}, violations={violations!r})"
    )
    for name in ("is_metric", "violations", "table"):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, getattr(report, name))


def test_report_keeps_no_violation_at_n320():
    # about 2.7 million triangle rows, listed only when read: the report
    # holds the verdicts and the space's own matrix, where a report that
    # stored its blocks kept 102.8 MiB
    space = jsonio.space_from_obj(raw_weights(320, 1))
    tracemalloc.start()
    try:
        report = validate_metric(space)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not report.is_metric and report.table[0] is space.scaled[0]
    assert kept < 2**20


# --- triangle kernel: closure verdict, slabs on a "no" -----------------------

INT64_ENTRIES = [F(-1), F(0), F(1, 3), F(1), F(5)]
POSITIVE_ENTRIES = [F(1, 3), F(1), F(2), F(5), F(7, 2**70), F(2**65 + 1, 3)]


@st.composite
def symmetric_weights(draw, entries=POSITIVE_ENTRIES):
    # zero diagonal, symmetric, positive: the closure gives the verdict
    n = draw(st.integers(1, 6))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(entries))
    return FiniteMetricSpace.from_rows([f"w{i}" for i in range(n)], rows)


@pytest.mark.parametrize("cells", SLAB_BUDGETS)
@given(
    st.one_of(
        raw_matrices(),
        raw_matrices(INT64_ENTRIES),
        symmetric_weights(),
        symmetric_weights(POSITIVE_ENTRIES[:4]),
    )
)
@example(space("abc", [[0, -(2**63), -1], [-(2**63), 0, -(2**63)], [-1, -(2**63), 0]]))
@settings(max_examples=200)  # four strategies share the examples
def test_witnesses_in_slabs_match_plain_loops(cells, cand):
    arr, denom = cand.scaled
    with patch.object(core, "_SLAB_CELLS", cells):
        report = validate_metric(cand)
        found = flat_blocks(core._witnesses(arr))
        triangles = flat_blocks(core._triangles(arr))
    want = brute_violations(cand)
    assert [(v.kind, v.witness, v.lhs, v.rhs) for v in report.violations] == want
    # the kernel's sides are the brute sides on the scaled matrix, as ints
    scaled = [(kind, w, lhs * denom, rhs * denom) for kind, w, lhs, rhs in want]
    assert found == scaled
    assert all(type(side) is int for *_, lhs, rhs in found for side in (lhs, rhs))
    # the slab scan alone finds the same triangles, with or without cheap ones
    assert triangles == [v for v in scaled if v[0] == "triangle"]


def test_kernel_inputs_take_both_paths():
    assert space("abcde", [INT64_ENTRIES] * 5).scaled[0].dtype == np.int64
    assert space("abcdef", [POSITIVE_ENTRIES] * 6).scaled[0].dtype == object


def tight_metrics():
    wide = random_metric(9, F(2**65 + 1, 3), seed=4)
    assert wide.scaled[0].dtype == object
    return [random_metric(n, 10, seed=n) for n in (2, 5, 12)] + [
        wide,
        cantor_approx(1),
        cantor_approx(3),
    ]


@pytest.mark.parametrize("cells", SLAB_BUDGETS)
@pytest.mark.parametrize("m", tight_metrics(), ids=lambda m: f"n{m.n}")
def test_tight_metrics_have_no_witness(cells, m):
    arr = m.scaled[0]
    with patch.object(core, "_SLAB_CELLS", cells):
        assert list(core._witnesses(arr)) == []
        assert list(core._triangles(arr)) == []
    assert validate_metric(m).is_metric


def test_repaired_random_metrics_are_tight():
    # many triangles hold with equality, so a strict comparison is tested
    arr = random_metric(12, 10, seed=12).scaled[0]
    n = len(arr)
    equal = sum(
        arr[i, j] == arr[i, k] + arr[k, j]
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if k not in (i, j)
    )
    assert equal > n


@pytest.mark.parametrize("cells", SLAB_BUDGETS)
def test_negative_diagonal_only_gives_no_triangle(cells):
    # the closure would change through a negative self-distance, so the
    # slabs decide, and no triangle (i, k, j) with k outside {i, j} breaks
    cand = space("abcd", [[-1, 1, 2, 1], [1, 0, 1, 2], [2, 1, -3, 1], [1, 2, 1, 0]])
    arr, denom = cand.scaled
    with patch.object(core, "_SLAB_CELLS", cells):
        found = flat_blocks(core._witnesses(arr))
        assert list(core._triangles(arr)) == []
    assert found == [("diagonal", (0,), -1, 0), ("diagonal", (2,), -3, 0)]
    want = brute_violations(cand)
    assert [(kind, w, lhs * denom, rhs * denom) for kind, w, lhs, rhs in want] == found


def test_approximate_failure_stops_at_the_first_witness(monkeypatch):
    # a star of unit legs under long edges: every pair of leaves breaks one
    n = 8
    rows = [[0 if i == j else 1 if 0 in (i, j) else 100 for j in range(n)] for i in range(n)]
    cand = space([f"x{i}" for i in range(n)], rows)
    assert len(brute_violations(cand)) == 21
    pulled = []

    def counting(arr):
        pulled.append(0)
        for item in core._witnesses(arr):
            pulled[-1] += 1
            yield item

    monkeypatch.setattr(core, "_SLAB_CELLS", 1)
    monkeypatch.setattr(quantize, "_witnesses", counting)
    with pytest.raises(ValueError, match=r"^input is not a metric: triangle"):
        approximate(cand, F(1, 2))
    assert pulled and all(count == 1 for count in pulled)


def test_cheap_witnesses_keep_the_floor_verdict_out(monkeypatch):
    # _holds needs the symmetry, zero diagonal and positive entries the
    # cheap checks establish, so beside a cheap witness it never runs and
    # the triangles are enumerated in full: on -2^63, which fits int64 and
    # would wrap a floor verdict's sums around to 0, and on a negative entry

    def holds(arr):
        raise AssertionError("_holds ran beside a cheap witness")

    monkeypatch.setattr(core, "_holds", holds)
    for rows in (
        [[0, -(2**63), -1], [-(2**63), 0, -(2**63)], [-1, -(2**63), 0]],
        [[0, -5, 3], [-5, 0, 3], [3, 3, 0]],
    ):
        cand = space("abc", rows)
        arr, denom = cand.scaled
        found = flat_blocks(core._witnesses(arr))
        assert {kind for kind, *_ in found} == {"positivity", "triangle"}
        want = brute_violations(cand)
        assert found == [
            (kind, w, lhs * denom, rhs * denom) for kind, w, lhs, rhs in want
        ]


# --- the verdicts: _holds on floors, _is_ultrametric on Prim's tree ---------


@st.composite
def wide_weights(draw):
    # entries k + t/b with b of `bits` bits and |t| <= 2: triangles such as
    # 2 against 1 + 1 are decided by the t's, far below one floor step, and
    # the lcm grows by about `bits` per pair, up to 15 * 1200 bits
    n = draw(st.integers(1, 6))
    bits = draw(st.sampled_from([63, 64, 200, 1200]))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = draw(st.integers(2 ** (bits - 1), 2**bits - 1))
            t = F(draw(st.integers(-2, 2)), b)
            rows[i][j] = rows[j][i] = draw(st.integers(1, 3)) + t
    return FiniteMetricSpace.from_rows([f"w{i}" for i in range(n)], rows)


def widest_weights():
    # wide_weights at its widest: six points, every t = +-1 over 1200 bits
    rng = random.Random(3)
    rows = [[F(0)] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            t = F(rng.choice((-1, 1)), rng.randrange(2**1199, 2**1200))
            rows[i][j] = rows[j][i] = rng.randint(1, 3) + t
    return FiniteMetricSpace.from_rows("abcdef", rows)


# c * 2^60 + d: int64 entries whose floors take a shift s of 1 or 2, with
# sides one apart on either side of a floor step
NEAR_STEPS = [F(c * 2**60 + d) for c in (1, 2, 3) for d in (-1, 0, 1)]


@st.composite
def bounded_ratio_weights(draw):
    # entries in [a, 2a], a on the scale of every HOLDS_PEAKS switch (s > 0
    # and Python ints included): each pair is at most near_i + near_j, the
    # nearest-neighbour certificate; one pair may be pushed past it
    n = draw(st.integers(1, 6))
    a = draw(st.sampled_from([1, 2, 3, *(peak // 2 for peak in HOLDS_PEAKS)]))
    entry = st.one_of(st.sampled_from([a, a + 1, 2 * a - 1, 2 * a]), st.integers(a, 2 * a))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(entry)
    if n >= 3 and draw(st.booleans()):
        # d(i,j) one unit past near_i + near_j, each the least entry of its
        # row outside the pair, so neither near moves: the certificate fails
        # at (i, j) by exactly one unit and the k-loop decides
        i, j = draw(st.permutations(range(n)))[:2]
        near = [min(rows[x][k] for k in range(n) if k not in (i, j)) for x in (i, j)]
        rows[i][j] = rows[j][i] = sum(near) + 1
    return int_space(rows)


@given(
    st.one_of(
        wide_weights(),
        symmetric_weights(NEAR_STEPS),
        symmetric_weights(),
        symmetric_weights(POSITIVE_ENTRIES[:4]),
        bounded_ratio_weights(),
    )
)
# with n <= 2 no k lies outside {i, j}, so only the masked diagonal joins
@example(space("a", [[0]]))
@example(space("ab", [[0, 1], [1, 0]]))
@settings(max_examples=250)  # five strategies share the examples
def test_holds_matches_the_triple_loops(m):
    # on a symmetric matrix with a zero diagonal and positive entries the
    # triple loops decide the triangles alone; k in {i, j} always holds
    arr = m.scaled[0]
    assert core._holds(arr) == triple_loop_is_metric(m)
    assert core._is_ultrametric(arr) == triple_loop_is_ultrametric(m)


def test_holds_at_the_widths_the_strategies_reach():
    # an lcm past 16,000 bits (its entries print past Python's default
    # digit limit, so it is no hypothesis example), and int64 with s = 2
    widest = widest_weights()
    arr, denom = widest.scaled
    assert denom.bit_length() > 16_000 and arr.dtype == object
    lo, mid, hi = NEAR_STEPS[0], NEAR_STEPS[-2], NEAR_STEPS[-1]
    near = space("abc", [[0, mid, hi], [mid, 0, lo], [hi, lo, 0]])
    assert near.scaled[0].dtype == np.int64
    assert int(near.scaled[0].max()).bit_length() == 62
    for m in (widest, near):
        arr = m.scaled[0]
        assert core._holds(arr) == triple_loop_is_metric(m)
        assert core._is_ultrametric(arr) == triple_loop_is_ultrametric(m)


def tight_triangle(rows, join):
    n = len(rows)
    return next(
        (i, k, j)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if k not in (i, j) and rows[i][j] == join(rows[i][k], rows[k][j])
    )


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize(
    "m",
    [
        random_metric(12, F(10**25, 7), seed=3),
        random_metric(12, F(2**61, 33), seed=3),
        random_metric(12, 10, seed=3),
    ],
    ids=["object", "near-2^62", "int64"],
)
def test_holds_one_unit_off_a_tight_triangle(m, delta):
    # d(i,j) moved one unit of the scaled matrix off d(i,k) + d(k,j), and,
    # on the subdominant ultrametric, off max(d(i,k), d(k,j))
    ultra = subdominant_ultrametric(m)
    for verdict, plain, oracle, base in (
        (core._holds, operator.add, triple_loop_is_metric, m),
        (core._is_ultrametric, max, triple_loop_is_ultrametric, ultra),
    ):
        arr, denom = base.scaled
        rows = arr.tolist()
        i, k, j = tight_triangle(rows, plain)
        rows[i][j] = rows[j][i] = rows[i][j] + delta
        moved = FiniteMetricSpace(m.points, [[F(v, denom) for v in r] for r in rows])
        assert verdict(moved.scaled[0]) == oracle(moved)
        if delta == 1:
            assert not oracle(moved)


def scaled_up(m: FiniteMetricSpace) -> FiniteMetricSpace:
    # every distance times (2^70 + 1) / 3: the same verdicts, on Python ints
    c = F(2**70 + 1, 3)
    out = FiniteMetricSpace(m.points, [[v * c for v in row] for row in m.dist])
    assert out.scaled[0].dtype == object
    return out


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("k", range(1, 7))
def test_is_ultrametric_on_cantor_ties(k, wide):
    # 2^k points on k distances: Prim's picks tie at every step
    m = scaled_up(cantor_approx(k)) if wide else cantor_approx(k)
    assert core._is_ultrametric(m.scaled[0]) is triple_loop_is_ultrametric(m) is True
    assert validate_metric(m).is_ultrametric


@pytest.mark.parametrize(
    "m",
    [
        space("a", [[0]]),
        space("ab", [[0, 3], [3, 0]]),
        space("ab", [[0, 2**70], [2**70, 0]]),
    ],
    ids=["n1", "n2-int64", "n2-object"],
)
def test_is_ultrametric_below_three_points(m):
    # no third point, so no triangle: Prim's tree is the pair's one edge
    assert core._is_ultrametric(m.scaled[0]) is triple_loop_is_ultrametric(m) is True
    assert validate_metric(m).is_ultrametric


@pytest.mark.parametrize("delta", [-1, 0, 1])
@pytest.mark.parametrize(
    "m",
    [
        cantor_approx(3),
        subdominant_ultrametric(random_metric(8, 10, seed=5)),
        subdominant_ultrametric(random_metric(8, F(10**25, 7), seed=5)),
    ],
    ids=["cantor", "int64", "object"],
)
def test_is_ultrametric_one_unit_off_the_subdominant(m, delta):
    # each pair in turn moved one unit of the scaled matrix; a move to 0
    # fails positivity, which validate_metric reports first
    arr, denom = m.scaled
    for i in range(m.n):
        for j in range(i + 1, m.n):
            rows = arr.tolist()
            rows[i][j] = rows[j][i] = rows[i][j] + delta
            moved = FiniteMetricSpace(m.points, [[F(v, denom) for v in r] for r in rows])
            want = triple_loop_is_ultrametric(moved)
            assert validate_metric(moved).is_ultrametric == want
            if delta == 0:
                assert want


@pytest.mark.parametrize(
    "m",
    [
        space("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]]),
        scaled_up(space("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]])),
        # an ultrametric on points 0..3 whose last point breaks a triangle
        space(
            "abcde",
            [[0, 1, 2, 2, 9], [1, 0, 2, 2, 9], [2, 2, 0, 1, 9], [2, 2, 1, 0, 1],
             [9, 9, 9, 1, 0]],
        ),
        jsonio.space_from_obj(raw_weights(96, 1)),
    ],
    ids=["int64", "object", "late-row", "raw96"],
)
def test_is_ultrametric_on_symmetric_non_metrics(m):
    # symmetric, zero diagonal, positive: a failed triangle is a failed
    # max-triangle, so the tree verdict reads no without the axiom pass
    assert not triple_loop_is_metric(m)
    assert core._is_ultrametric(m.scaled[0]) is False


def test_ultrametric_verdict_memory_at_n1024():
    # validate_metric in O(n^2), its tree verdict in O(n): no n x n buffer
    m = cantor_approx(10)
    arr = m.scaled[0]
    tracemalloc.start()
    try:
        report = validate_metric(m)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert core._is_ultrametric(arr)
        tree_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_metric and report.is_ultrametric
    assert peak < 3 * arr.nbytes
    assert tree_peak < 128 * len(arr)


def test_witnesses_hold_no_matrix_of_zeros_at_n1024():
    # the cheap checks' zero sides come from one broadcast zero; a zeros_like
    # held an 8 MiB matrix while _holds ran, a peak of 2.6 times the matrix
    m = cantor_approx(10)
    arr = m.scaled[0]
    tracemalloc.start()
    try:
        report = validate_metric(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_metric and arr.dtype == np.int64
    assert peak < 2 * arr.nbytes


def test_closure_runs_only_near_a_tight_triangle(monkeypatch):
    # entries 1 + a/b with b <= 64, on the object path, like the wide
    # metrics validate_metric meets most: every triangle holds with room
    rng = random.Random(5)
    rows = [[F(0)] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            b = rng.randint(1, 64)
            rows[i][j] = rows[j][i] = 1 + F(rng.randrange(b), b)
    wide = FiniteMetricSpace.from_rows([f"p{i}" for i in range(24)], rows)
    assert wide.scaled[0].dtype == object
    plain = [random_metric(24, 10, seed=1), cantor_approx(5)]
    # path repair leaves triangles tight to the unit, below one floor step
    tight = random_metric(24, F(10**25, 7), seed=1)
    assert tight.scaled[0].dtype == object
    calls = []

    def counting(arr, join):
        calls.append(join)
        return closure(arr, join)

    closure = core._path_closure
    monkeypatch.setattr(core, "_path_closure", counting)
    for m in (wide, *plain):
        assert validate_metric(m).is_metric
    assert calls == []
    assert validate_metric(tight).is_metric
    assert np.add in calls


# --- the narrowed working copies: _narrow ------------------------------------


@contextmanager
def narrowed():
    """Yields the list of dtypes ``core._narrow`` hands out, in call order."""
    seen, real = [], core._narrow

    def spy(bound):
        seen.append(real(bound))
        return seen[-1]

    with patch.object(core, "_narrow", spy):
        yield seen


def int_space(rows) -> FiniteMetricSpace:
    return FiniteMetricSpace([f"x{i}" for i in range(len(rows))], rows)


def near(peak: int) -> list[int]:
    # halves and quarters of the peak, one apart: tight and near-tight
    # triangles whose sums reach twice the peak
    half, quarter = peak // 2, peak // 4
    return [peak, peak - 1, half, half + 1, peak - half, peak - half - 1, quarter, 1]


# peak floor -> the dtype of _holds' floors: the mask is the least power of
# two above the peak floor, and the dtype holds 2 * mask + 1; past 2^60 the
# floors are shifted (s > 0) below 2^60, so int64, Python ints included
HOLDS_PEAKS = {
    8191: np.int16,
    8192: np.int32,
    2**15 + 3: np.int32,  # two entries add past int16
    2**29 - 1: np.int32,
    2**29: np.int64,
    2**31 + 5: np.int64,  # two entries add past int32
    2**61 + 1: np.int64,  # s = 1
    3 * 2**60 - 1: np.int64,  # s = 2
    2**70 + 1: np.int64,  # Python ints, s = 11
}


@pytest.mark.parametrize("peak", HOLDS_PEAKS, ids=lambda p: f"peak{p}")
@given(st.data())
@settings(max_examples=40)
def test_holds_at_the_dtype_switches(peak, data):
    # symmetric, zero diagonal, positive, one entry at the peak: the floor
    # verdict in its narrowed dtype, and the tree verdict, against the
    # triple loops
    n = data.draw(st.integers(2, 5))
    # or entries in [a, peak], a = ceil(peak / 2): certified on floors
    # unless s > 0 takes a step, and with d(0,1) = peak optionally one unit
    # past the nearest entries x, y of its rows (x + y = peak - 1, both
    # at most a), at one k or at two
    a = peak - peak // 2
    bounded = data.draw(st.booleans())
    entry = st.integers(a, peak) if bounded else st.sampled_from(near(peak))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(entry)
    rows[0][1] = rows[1][0] = peak
    if bounded and n >= 3 and data.draw(st.booleans()):
        hop = st.integers(2, n - 1)
        k0, k1 = data.draw(hop), data.draw(hop)
        x = (peak - 1) // 2
        rows[0][k0] = rows[k0][0] = x
        rows[1][k1] = rows[k1][1] = peak - 1 - x
    m = int_space(rows)
    with narrowed() as seen:
        assert core._holds(m.scaled[0]) == triple_loop_is_metric(m)
        assert core._is_ultrametric(m.scaled[0]) == triple_loop_is_ultrametric(m)
    # a fallback closure may narrow its own copy after the verdict
    assert seen[:1] == [HOLDS_PEAKS[peak]]


class CountingNumpy:
    """numpy, with the calls of ``minimum`` counted."""

    def __init__(self):
        self.minimum_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def minimum(self, *args, **kwargs):
        self.minimum_calls += 1
        return np.minimum(*args, **kwargs)


@pytest.mark.parametrize("late", [False, True], ids=["k0", "k3"])
@pytest.mark.parametrize("peak", HOLDS_PEAKS, ids=lambda p: f"peak{p}")
def test_holds_says_no_after_the_first_step(peak, late, monkeypatch):
    # d(i,j) = peak against d(i,0) + d(0,j) = 2, or only against
    # d(i,3) + d(3,j) = 2: more than a floor step apart either way, so no
    # fallback closure runs, and a "no" at k = 0 skips the other steps
    n = 6
    hop = 3 if late else 0
    rows = [[0 if i == j else peak for j in range(n)] for i in range(n)]
    for j in range(n):
        if j != hop:
            rows[hop][j] = rows[j][hop] = 1
    m = int_space(rows)
    arr = m.scaled[0]

    def closure(arr, join):
        raise AssertionError("the fallback closure ran")

    spy = CountingNumpy()
    monkeypatch.setattr(core, "_path_closure", closure)
    monkeypatch.setattr(core, "np", spy)
    with narrowed() as seen:
        assert core._holds(arr) is triple_loop_is_metric(m) is False
    assert spy.minimum_calls == (n if late else 1)
    assert seen == [HOLDS_PEAKS[peak]]


# --- the nearest-neighbour certificate of _holds -----------------------------


@contextmanager
def kernel_calls():
    """Yields a ``CountingNumpy`` patched into core that counts closures too."""
    spy, closure = CountingNumpy(), core._path_closure
    spy.closures = 0

    def counting(arr, join):
        spy.closures += 1
        return closure(arr, join)

    with patch.object(core, "np", spy), patch.object(core, "_path_closure", counting):
        yield spy


# floors of d(0,2) and d(1,2), the nearest entries of rows 0 and 1, on a
# shift of S = 11 bits: d(0,1) is about 2^70, so its floors are shifted
L1, L2, S = 2**58 + 3, 2**58 + 5, 11


def floors_apart(step, r01):
    # object entries past 2^62 whose d(0,1) sits `step` floors past
    # L1 + L2 - 1, the last floor the certificate accepts; below the floor
    # d(0,1) holds against d(0,2) + d(1,2) exactly when r01 <= 300
    d02, d12 = (L1 << S) + 100, (L2 << S) + 200
    d01 = ((L1 + L2 - 1 + step) << S) + r01
    return [[0, d01, d02], [d01, 0, d12], [d02, d12, 0]]


@pytest.mark.parametrize(
    "rows, verdict, loop, closures",
    [
        # d(0,2) = 2 = near_0 + near_2: at the bound, exact on s = 0
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], True, False, 0),
        # d(0,1) = 5, one past near_0 + near_1 = 2 + 2, which sit at two
        # different k: every two-hop path through a third point is 5
        ([[0, 5, 2, 3], [5, 0, 3, 2], [2, 3, 0, 3], [3, 2, 3, 0]], True, True, 0),
        # the same one unit past, but near_0 and near_1 sit at the same k
        ([[0, 5, 2], [5, 0, 2], [2, 2, 0]], False, True, 0),
        # near_0 and near_1 attained at the pair (0, 1) itself
        ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], True, False, 0),
        # the same past 2^62: near_0's floor is 0 there, one step short, but
        # the matrix is an ultrametric, which Prim's tree settles
        ([[0, 1, 2**70], [1, 0, 2**70], [2**70, 2**70, 0]], True, False, 0),
        # its twin, d(1,2) one more, is no ultrametric: the loop runs, and d(1,2)
        # within a floor step of d(1,0) + d(0,2) sends it on to the closure
        ([[0, 1, 2**70], [1, 0, 2**70 + 1], [2**70, 2**70 + 1, 0]], True, True, 1),
        # no third point: every pair holds
        ([[0]], True, False, 0),
        ([[0, 3], [3, 0]], True, False, 0),
        ([[0, 2**70], [2**70, 0]], True, False, 0),
        # one floor step from the bound, on Python ints: the last floor
        # certified, then the first floor past it, tight and one unit over
        (floors_apart(0, 2**S - 1), True, False, 0),
        (floors_apart(1, 300), True, True, 1),
        (floors_apart(1, 301), False, True, 1),
    ],
    ids=[
        "at-the-bound", "one-past-held", "one-past-broken", "near-at-j",
        "near-at-j-zero-floor", "near-at-j-zero-floor-twin", "n1", "n2",
        "n2-object", "last-floor", "floor-past-tight", "floor-past-broken",
    ],
)
def test_holds_at_the_nearest_neighbour_bound(rows, verdict, loop, closures):
    # the certificate decides alone, or the k-loop (np.minimum calls) and
    # the closure run after it, always agreeing with the triple loop
    m = int_space(rows)
    with kernel_calls() as spy:
        assert core._holds(m.scaled[0]) is triple_loop_is_metric(m) is verdict
    assert (spy.minimum_calls > 0, spy.closures) == (loop, closures)


def approx_fine_d(n=32):
    # approximate's D on a 10/32 grid with every entry in [5, 10], which
    # needs no repair: the metric approximate's self-check validates
    rng = random.Random(2)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = F(10, 32) * rng.randint(16, 32)
    points = [f"p{i}" for i in range(n)]
    return approximate(FiniteMetricSpace.from_rows(points, rows), F(1, 2)).D


def one_plus_fractions():
    # the wide 1 + a/b metric of test_closure_runs_only_near_a_tight_triangle
    rng = random.Random(5)
    rows = [[F(0)] * 24 for _ in range(24)]
    for i in range(24):
        for j in range(i + 1, 24):
            b = rng.randint(1, 64)
            rows[i][j] = rows[j][i] = 1 + F(rng.randrange(b), b)
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(24)], rows)


def test_certified_metrics_run_no_loop():
    # entries within a factor of two of each row's least: the certificate
    # settles every pair, so no min-plus step and no closure runs
    wide = one_plus_fractions()
    assert wide.scaled[0].dtype == object
    for m in (approx_fine_d(), wide):
        with kernel_calls() as spy:
            assert validate_metric(m).is_metric
        assert (spy.minimum_calls, spy.closures) == (0, 0)


def cantor_twin():
    # cantor_approx(5) with d(0,2) = 3/32 > max(d(0,1), d(1,2)) = 2/32: a
    # metric (3/32 = d(0,1) + d(1,2)) that is no ultrametric
    arr = cantor_approx(5).scaled[0].copy()
    arr[0, 2] = arr[2, 0] = 3
    return core._from_int_matrix(cantor_approx(5).points, arr, 32)


@pytest.mark.parametrize(
    "m, steps",
    [(cantor_approx(5), 0), (cantor_twin(), 32), (random_metric(24, 10), 24)],
    ids=["cantor5", "cantor5-twin", "random24"],
)
def test_uncertified_metrics_run_every_step(m, steps):
    # ratios past two leave pairs uncertified: Prim's tree settles an
    # ultrametric, and elsewhere the loop's n steps decide
    with kernel_calls() as spy:
        assert core._holds(m.scaled[0])
    assert (spy.minimum_calls, spy.closures) == (steps, 0)


def test_certified_verdict_memory_at_n1024():
    # entries in [4000, 8000] on int16 floors, every pair certified: the
    # verdict holds the floors and one matrix of sums, under 2.5 int16
    # matrices; the k-loop's two and via, beside the floors and a bool
    # verdict, would take 3.5 (and an int64 shift of the input 5)
    n = 1024
    w = np.triu(np.random.default_rng(7).integers(4000, 8001, size=(n, n)), 1)
    arr = w + w.T
    tracemalloc.start()
    try:
        assert core._holds(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * np.dtype(np.int16).itemsize


@pytest.mark.parametrize("name", ["cantor10", "certified"])
def test_validate_metric_runs_the_tree_once(name):
    # Prim's tree runs once per call: its yes settles cantor_approx(10),
    # which the certificate leaves open, with no floor verdict, and its no
    # is passed on to _holds, which the certificate settles at entries in
    # [5, 10]
    m = {
        "cantor10": cantor_approx(10),
        "certified": grid_space(64, lambda gap: 5 + gap % 6),
    }[name]
    with core_calls("_holds", "_is_ultrametric") as calls, kernel_calls() as spy:
        report = validate_metric(m)
    assert report.is_metric and report.is_ultrametric == (name == "cantor10")
    assert calls == {"_holds": int(name == "certified"), "_is_ultrametric": 1}
    assert spy.minimum_calls == spy.closures == 0


# 2 * peak -> the dtype _triangles compares slabs in
TRIANGLE_PEAKS = {
    2**14 - 1: np.int16,
    2**14: np.int32,
    2**30 - 1: np.int32,
    2**30: np.int64,
}


@pytest.mark.parametrize("cells", SLAB_BUDGETS)
@pytest.mark.parametrize("peak", TRIANGLE_PEAKS, ids=lambda p: f"peak{p}")
@given(st.data())
@settings(max_examples=40)
def test_triangles_at_the_dtype_switches(cells, peak, data):
    # raw matrices, negative entries and diagonals included, one entry at
    # -peak or peak: the slab scan against the plain loops
    n = data.draw(st.integers(2, 5))
    entries = near(peak) + [-v for v in near(peak)] + [0]
    rows = [[data.draw(st.sampled_from(entries)) for _ in range(n)] for _ in range(n)]
    rows[0][1] = data.draw(st.sampled_from([peak, -peak]))
    cand = int_space(rows)
    with narrowed() as seen, patch.object(core, "_SLAB_CELLS", cells):
        found = flat_blocks(core._triangles(cand.scaled[0]))
    assert found == [v for v in brute_violations(cand) if v[0] == "triangle"]
    assert seen == [TRIANGLE_PEAKS[peak]]


def test_triangles_slab_memory_at_n96():
    # n = 96 in one slab: at the parent an int64 sum and a bool verdict per
    # cell, 9 * 96^3 bytes; the int16 copy's sums take the verdicts in place
    arr = random_metric(96, 10, seed=2).scaled[0].copy()
    arr[0, 1] = arr[1, 0] = 2 * int(arr.max()) + 1
    assert core._narrow(2 * core._peak(arr)) is np.int16
    tracemalloc.start()
    try:
        found = flat_blocks(core._triangles(arr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 94
    assert peak < 9 * 96**3 // 4


def test_triangles_index_memory_at_n96():
    # the benchmark's raw input, about 70k witnesses in one int16 slab: the
    # slab plus eight int64 per witness, where flatnonzero, two divmods and
    # column_stack held every witness index about ten times over
    arr = jsonio.space_from_obj(raw_weights(96, 1)).scaled[0]
    assert core._narrow(2 * core._peak(arr)) is np.int16
    tracemalloc.start()
    try:
        m = sum(len(witness) for _, witness, *_ in core._triangles(arr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m > 60_000
    assert peak < 2 * 96**3 + 64 * m


def plain_floyd_warshall(rows, join) -> list[list[int]]:
    out = [list(row) for row in rows]
    n = len(out)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[i][j] = min(out[i][j], join(out[i][k], out[k][j]))
    return out


# join, peak -> the dtype _path_closure closes in: 2 * peak for +, peak for max
CLOSURE_PEAKS = {
    (np.add, 2**14 - 1): np.int16,
    (np.add, 2**14): np.int32,
    (np.add, 2**30 - 1): np.int32,
    (np.add, 2**30): np.int64,
    (np.maximum, 2**15 - 1): np.int16,
    (np.maximum, 2**15): np.int32,
    (np.maximum, 2**31 - 1): np.int32,
    (np.maximum, 2**31): np.int64,
}


@pytest.mark.parametrize(
    "join, peak", CLOSURE_PEAKS, ids=lambda v: getattr(v, "__name__", str(v))
)
@given(st.data())
@settings(max_examples=40)
def test_path_closure_at_the_dtype_switches(join, peak, data):
    n = data.draw(st.integers(2, 6))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = data.draw(st.sampled_from(near(peak)))
    rows[0][1] = rows[1][0] = peak
    arr = np.array(rows, dtype=np.int64)
    arr.flags.writeable = False  # only read: a write into it raises
    with narrowed() as seen:
        closed = core._path_closure(arr, join)
    # a new array, in the caller's dtype; the input is left as it was
    assert closed is not arr and closed.dtype == np.int64
    assert arr.tolist() == rows
    plain = {np.add: operator.add, np.maximum: max}[join]
    assert closed.tolist() == plain_floyd_warshall(rows, plain)
    assert seen == [CLOSURE_PEAKS[join, peak]]


@given(
    raw_matrices([F(k, den) for k in (0, 1, 2**40) for den in (1, 3, 2**61 - 1)]),
    st.data(),
)
def test_sup_distance_matches_plain_loop(d, data):
    # scales up to 2^122 force the gap itself off int64
    dens = st.sampled_from([1, 7, 2**31 - 1, 2**61 - 1])
    rows = [
        [F(data.draw(st.integers(0, 2**40)), data.draw(dens)) for _ in range(d.n)]
        for _ in range(d.n)
    ]
    e = FiniteMetricSpace.from_rows(d.points, rows)
    # every ordered pair, the diagonal included, as the docstring says
    pairs = [(i, j) for i in range(d.n) for j in range(d.n)]
    want = max(abs(d.dist[i][j] - e.dist[i][j]) for i, j in pairs)
    assert sup_distance(d, e) == want


def test_cantor_is_ultrametric_against_oracle():
    c = cantor_approx(2)
    report = validate_metric(c)
    assert report.is_metric and report.is_ultrametric
    assert triple_loop_is_ultrametric(c)


@st.composite
def level_metrics(draw):
    # few distinct weights, so ultrametrics turn up by chance; an offset of
    # 2^-64 puts the scaled entries past 2^62, onto the object path
    n = draw(st.integers(1, 6))
    offset = draw(st.sampled_from([F(0), F(1, 2**64)]))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(1, 3)) + offset
    return metric_repair(FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows))


@given(level_metrics())
def test_is_ultrametric_matches_triple_loop(m):
    assert validate_metric(m).is_ultrametric == triple_loop_is_ultrametric(m)
    u = subdominant_ultrametric(m)
    assert validate_metric(u).is_ultrametric and triple_loop_is_ultrametric(u)


@given(raw_matrices())
def test_is_ultrametric_on_raw_matrices(cand):
    assert validate_metric(cand).is_ultrametric == triple_loop_is_ultrametric(cand)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cantor_is_ultrametric_on_both_paths(k):
    c = cantor_approx(k)
    # 2^-k + 2^-70 has a 2^70 denominator: the same order, on the object path
    wide = FiniteMetricSpace.from_rows(
        c.points, [[v + F(1, 2**70) if v else v for v in row] for row in c.dist]
    )
    assert wide.scaled[0].dtype == object
    for m in (c, wide):
        assert validate_metric(m).is_ultrametric and triple_loop_is_ultrametric(m)
    # raising the closest pair past its neighbours keeps the metric axioms
    # but breaks ultrametricity wherever it has neighbours (k >= 2)
    rows = [list(row) for row in wide.dist]
    rows[0][1] = rows[1][0] = 2 * c.dist[0][1] + F(1, 2**69)
    high = FiniteMetricSpace.from_rows(c.points, rows)
    report = validate_metric(high)
    assert report.is_metric
    assert report.is_ultrametric == triple_loop_is_ultrametric(high) == (k == 1)


def test_validate_huge_denominators_use_exact_fallback():
    # scaled entries overflow int64, forcing the object-dtype path
    rng = random.Random(8)
    for trial in range(6):
        n = rng.randint(2, 5)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(1, 10**18), rng.randint(10**15, 10**18))
                rows[i][j] = v
                rows[j][i] = v
        cand = FiniteMetricSpace(
            tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in rows)
        )
        assert validate_metric(cand).is_metric == triple_loop_is_metric(cand)
        fixed = metric_repair(cand)
        assert [list(r) for r in fixed.dist] == brute_shortest_paths(cand)


def test_validate_agrees_with_triple_loop_on_randoms():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(1, 12), rng.randint(1, 4))
                rows[i][j] = v
                rows[j][i] = v
        cand = FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in rows))
        assert validate_metric(cand).is_metric == triple_loop_is_metric(cand)


# --- sup distance ------------------------------------------------------------


def test_sup_distance_identity():
    m = random_metric(5, 10, seed=1)
    assert sup_distance(m, m) == 0


def test_sup_distance_two_point():
    d = space("ab", [[0, 1], [1, 0]])
    e = space("ab", [[0, F(3, 2)], [F(3, 2), 0]])
    assert sup_distance(d, e) == F(1, 2)


def test_sup_distance_reads_below_the_diagonal():
    d = FiniteMetricSpace.from_rows("ab", [[0, 1], [1, 0]])
    e = FiniteMetricSpace.from_rows("ab", [[0, 1], [3, 0]])
    assert sup_distance(d, e) == sup_distance(e, d) == 2


def test_sup_distance_mismatched_points():
    d = space("ab", [[0, 1], [1, 0]])
    e = space("ax", [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        sup_distance(d, e)


# --- amalgamation ------------------------------------------------------------


def two_cluster_fixture():
    plan = PartitionPlan(clusters=((0, 1), (2, 3)), reps=(0, 2), radius=F(3))
    e0 = space(["a0", "b0"], [[0, F(1, 2)], [F(1, 2), 0]])
    e1 = space(["a1", "b1"], [[0, 3], [3, 0]])
    hub = space(["a0", "a1"], [[0, 1], [1, 0]])
    return plan, [e0, e1], hub


def test_amalgamate_hand_run():
    plan, mets, hub = two_cluster_fixture()
    D = amalgamate(plan, mets, hub)
    assert D.points == ("a0", "b0", "a1", "b1")
    assert D.dist[1][3] == F(9, 2)  # b0 -> a0 -> a1 -> b1
    assert D.dist[0][3] == 4
    # equality case of the triangle through the hub
    assert D.dist[0][3] == D.dist[0][2] + D.dist[2][3]
    assert validate_metric(D).is_metric


def test_amalgamate_single_cluster_is_identity():
    e0 = space("xyz", [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    plan = PartitionPlan(clusters=((0, 1, 2),), reps=(1,), radius=F(5))
    hub = space(["y"], [[0]])
    D = amalgamate(plan, [e0], hub)
    assert D.dist == e0.dist


def test_amalgamate_restriction_is_exact():
    plan, mets, hub = two_cluster_fixture()
    D = amalgamate(plan, mets, hub)
    assert D.restrict([0, 1]).dist == mets[0].dist
    assert D.restrict([2, 3]).dist == mets[1].dist


def test_amalgamate_reads_legs_row_then_column():
    # D(x, y) = e_i(x, p_i) + h(p_i, p_j) + e_j(p_j, y) for x before y, so an
    # asymmetric cluster metric shows which entry each leg reads
    plan = PartitionPlan(clusters=((0, 1), (2, 3)), reps=(0, 2), radius=F(3))
    e0 = space(["a0", "b0"], [[0, 1], [2, 0]])
    e1 = space(["a1", "b1"], [[0, 3], [5, 0]])
    hub = space(["a0", "a1"], [[0, 10], [20, 0]])
    D = amalgamate(plan, [e0, e1], hub)
    assert D.dist == (
        (0, 1, 10, 13),
        (1, 0, 12, 15),
        (10, 12, 0, 3),
        (13, 15, 3, 0),
    )


def test_amalgamate_refuses_colliding_labels(monkeypatch):
    # every hub label matches its representative, yet the glued points
    # would read a, b, b, a; refused from the labels, before any glue
    plan = PartitionPlan(clusters=((0, 1), (2, 3)), reps=(0, 2), radius=F(1))
    pieces = [space("ab", [[0, 1], [1, 0]]), space("ba", [[0, 1], [1, 0]])]
    hub = space("ab", [[0, 1], [1, 0]])

    def glue(*args):
        raise AssertionError("a colliding glue was built")

    monkeypatch.setattr(core, "_glue", glue)
    with pytest.raises(ValueError, match="^point labels must be distinct$"):
        amalgamate(plan, pieces, hub)


def test_amalgamate_rejects_zero_hub():
    plan, mets, _ = two_cluster_fixture()
    hub = space(["a0", "a1"], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="discrete"):
        amalgamate(plan, mets, hub)


def glue_of_pairs(bits: int):
    # 500 pairs and their hub all at 1/2^(bits - 1): 1000 points on a
    # denominator of `bits` bits, whose glued entries still fit int64
    denom, labels = 2 ** (bits - 1), pair_points(500)
    reps, pair = range(0, 1000, 2), np.array([[0, 1], [1, 0]])
    pieces = [core._from_int_matrix(labels[i : i + 2], pair, denom) for i in reps]
    plan = PartitionPlan(tuple((i, i + 1) for i in reps), tuple(reps), F(1))
    hub = core._from_int_matrix(labels[::2], 1 - np.eye(500, dtype=np.int64), denom)
    return plan, pieces, hub


def test_amalgamate_refuses_past_its_bit_cap():
    # n^2 * bits(denom): 1000^2 * 536 is under 2^29, 1000^2 * 537 over it
    D = amalgamate(*glue_of_pairs(536))
    assert D.n == 1000 and D.scaled[1].bit_length() == 536
    assert D.scaled[0].dtype == np.int64 and D.scaled[0][1, 3] == 3  # b0 to b1
    args = glue_of_pairs(537)
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match=r"^1000 x 1000 entries on a 537-bit denominator exceed the cap"
            r" of 536870912 bits$",
        ):
            amalgamate(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 1000 x 1000 int64 matrix alone would take 8 MB
    assert peak < 2**16


def test_amalgamate_sup_bound():
    # clusters of diameter <= eps under both metrics keep the glued space
    # within 4*eps + hub drift of the source
    rng = random.Random(11)
    for seed in range(8):
        src = random_metric(10, 8, seed=seed)
        r = F(rng.randint(1, 8), 8)
        plan = greedy_clopen_partition(src, r)
        eps = F(0)
        mets = []
        for cluster in plan.clusters:
            sub = src.restrict(cluster)
            mets.append(sub)
            for a in range(sub.n):
                for b in range(sub.n):
                    eps = max(eps, sub.dist[a][b])
        hub_src = src.restrict(plan.reps)
        drift = F(1, 3)
        hub = FiniteMetricSpace(
            hub_src.points,
            tuple(
                tuple(v + drift if i != j else F(0) for j, v in enumerate(row))
                for i, row in enumerate(hub_src.dist)
            ),
        )
        D = amalgamate(plan, mets, hub)
        assert sup_distance(D, src) <= 4 * eps + sup_distance(hub_src, hub)
        assert validate_metric(D).is_metric


# --- partitioning ------------------------------------------------------------


def line_space():
    pts = [F(0), F(1, 10), F(1), F(11, 10)]
    rows = [[abs(a - b) for b in pts] for a in pts]
    return FiniteMetricSpace(("x0", "x1", "x2", "x3"), tuple(tuple(r) for r in rows))


def test_partition_one_cluster_when_radius_huge():
    m = line_space()
    plan = greedy_clopen_partition(m, F(2))
    assert plan.clusters == ((0, 1, 2, 3),)
    assert plan.reps == (0,)


def test_partition_singletons_when_radius_tiny():
    m = line_space()
    plan = greedy_clopen_partition(m, F(1, 100))
    assert plan.clusters == ((0,), (1,), (2,), (3,))


def test_partition_line_hand_run():
    m = line_space()
    plan = greedy_clopen_partition(m, F(1, 5))
    assert plan.clusters == ((0, 1), (2, 3))
    assert plan.reps == (0, 2)
    for cluster in plan.clusters:
        sub = m.restrict(cluster)
        assert sub.max_value() <= 2 * plan.radius


def test_partition_covers_and_bounds_diameter():
    for seed in range(6):
        m = random_metric(12, 6, seed=seed)
        for r in (F(1, 4), F(1), F(3)):
            plan = greedy_clopen_partition(m, r)
            flat = sorted(i for c in plan.clusters for i in c)
            assert flat == list(range(m.n))
            for cluster, rep in zip(plan.clusters, plan.reps):
                assert rep in cluster
                sub = m.restrict(cluster)
                assert sub.max_value() <= 2 * r


def test_partition_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        greedy_clopen_partition(line_space(), F(0))


# --- extension ---------------------------------------------------------------


def test_extend_identity_when_same_points():
    d = space("ab", [[0, 2], [2, 0]])
    assert extend_metric(d, ["a", "b"]).dist == d.dist


def test_extend_hand_run():
    d = space("ab", [[0, 2], [2, 0]])
    D = extend_metric(d, ["a", "b", "c"])
    assert D.dist[0][2] == 3 and D.dist[1][2] == 3
    assert D.dist[0][1] == 2
    assert validate_metric(D).is_metric


def test_extend_restriction_exact_and_valid():
    d = random_metric(4, 5, seed=9)
    D = extend_metric(d, list(d.points) + ["q1", "q2"])
    assert D.restrict(range(4)).dist == d.dist
    assert validate_metric(D).is_metric


def test_extend_requires_subset():
    d = space("ab", [[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        extend_metric(d, ["a", "c"])


def test_extend_names_missing_labels_in_order():
    d = space("cab", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError) as err:
        extend_metric(d, ["a", "x"])
    assert str(err.value) == "extension must contain the original points: ['c', 'b']"


@given(raw_matrices(), st.data())
def test_extend_matches_plain_loop(d, data):
    points = list(d.points)
    for label in data.draw(st.lists(st.sampled_from(["q0", "q1", "q2"]), unique=True)):
        points.insert(data.draw(st.integers(0, len(points))), label)
    got = extend_metric(d, points)
    assert got.points == tuple(points)
    assert got.dist == plain_extend(d, points)
    # the stored form too: a zeroed diagonal may free a common factor
    assert got == FiniteMetricSpace.from_rows(points, plain_extend(d, points))


def test_extend_far_value_past_int64():
    # d's entries fit int64, but its far value 1 + max reaches 2^62
    d = space("ab", [[0, 2**62 - 1], [2**62 - 1, 0]])
    assert d.scaled[0].dtype == np.int64
    points = ["q", "a", "b"]
    D = extend_metric(d, points)
    assert D.dist == plain_extend(d, points)
    assert D.dist[0][1] == 2**62
    assert validate_metric(D).is_metric


# --- repair ------------------------------------------------------------------


def test_repair_fixed_point_on_metric():
    m = random_metric(6, 10, seed=2)
    assert metric_repair(m).dist == m.dist


def test_repair_hand_run_against_oracle():
    w = space("abc", [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    out = metric_repair(w)
    assert out.dist[0][2] == 2
    assert [list(r) for r in out.dist] == brute_shortest_paths(w)


def test_repair_only_lowers_and_validates():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 6)
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(1, 40), rng.randint(1, 6))
                rows[i][j] = v
                rows[j][i] = v
        w = FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in rows))
        out = metric_repair(w)
        assert validate_metric(out).is_metric
        for i in range(n):
            for j in range(n):
                assert out.dist[i][j] <= w.dist[i][j]
        assert [list(r) for r in out.dist] == brute_shortest_paths(w)
        # unchanged exactly when the input already was a metric
        assert (out.dist == w.dist) == triple_loop_is_metric(w)


@given(raw_matrices())
def test_repair_refuses_the_first_bad_entry(cand):
    want = plain_repair_error(cand)
    if want is None:
        assert [list(r) for r in metric_repair(cand).dist] == brute_shortest_paths(cand)
    else:
        with pytest.raises(ValueError) as err:
            metric_repair(cand)
        assert str(err.value) == want


def test_repair_rejects_zero_off_diagonal():
    w = FiniteMetricSpace.from_rows("ab", [[F(0), F(0)], [F(0), F(0)]])
    with pytest.raises(ValueError, match="positive"):
        metric_repair(w)


# --- subdominant ultrametric ---------------------------------------------------


def test_subdominant_fixes_ultrametrics():
    c = cantor_approx(3)
    assert subdominant_ultrametric(c).dist == c.dist


def test_subdominant_path_hand_run():
    m = path_space(F(1), F(2))
    u = subdominant_ultrametric(m)
    assert u.dist[0][2] == 2
    assert [list(r) for r in u.dist] == brute_minimax_paths(m)


def test_subdominant_two_point_unchanged():
    m = space("ab", [[0, 7], [7, 0]])
    assert subdominant_ultrametric(m).dist == m.dist


def test_subdominant_properties():
    for seed in range(8):
        m = random_metric(7, 9, seed=seed)
        u = subdominant_ultrametric(m)
        assert triple_loop_is_ultrametric(u)
        for i in range(m.n):
            for j in range(m.n):
                assert u.dist[i][j] <= m.dist[i][j]
        assert subdominant_ultrametric(u).dist == u.dist
        assert [list(r) for r in u.dist] == brute_minimax_paths(m)


@given(st.integers(2, 6), st.data())
def test_closures_match_brute_force_on_the_object_path(n, data):
    # entries between 1 and 4 over a 2^65 denominator: scaled past 2^62
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            odd = 2 * data.draw(st.integers(2**64, 2**66)) + 1
            rows[i][j] = rows[j][i] = F(odd, 2**65)
    w = FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)
    assert w.scaled[0].dtype == object
    m = metric_repair(w)
    assert [list(r) for r in m.dist] == brute_shortest_paths(w)
    assert [list(r) for r in subdominant_ultrametric(m).dist] == brute_minimax_paths(m)
    assert [list(r) for r in subdominant_ultrametric(w).dist] == brute_minimax_paths(w)


# --- generators ----------------------------------------------------------------


def test_cantor_small_values():
    c1 = cantor_approx(1)
    assert c1.n == 2 and c1.dist[0][1] == F(1, 2)
    c2 = cantor_approx(2)
    assert c2.n == 4
    offdiag = {c2.dist[i][j] for i in range(4) for j in range(4) if i != j}
    assert offdiag == {F(1, 2), F(1, 4)}


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_cantor_matches_first_differing_position(k):
    c = cantor_approx(k)
    assert c.points == tuple(format(i, f"0{k}b") for i in range(2**k))
    for x, row in zip(c.points, c.dist):
        for y, v in zip(c.points, row):
            first = next((t for t in range(k) if x[t] != y[t]), None)
            assert v == (0 if first is None else F(1, 2 ** (first + 1)))


@pytest.mark.parametrize("k", range(1, 11))
def test_cantor_matches_the_fraction_build(k):
    got, want = cantor_approx(k), reference_cantor_approx(k)
    assert got.points == want.points
    assert got.scaled[1] == want.scaled[1] == 2**k
    assert got.scaled[0].dtype == want.scaled[0].dtype
    assert (got.scaled[0] == want.scaled[0]).all()
    # stored as built: the reduction and the dtype rule leave it unchanged
    again = core._from_int_matrix(got.points, got.scaled[0].copy(), 2**k)
    assert got == again and got.scaled[0].dtype == again.scaled[0].dtype == np.int64


def test_random_metric_deterministic_and_valid():
    a = random_metric(9, 10, seed=42)
    b = random_metric(9, 10, seed=42)
    assert a.dist == b.dist
    assert a.dist != random_metric(9, 10, seed=43).dist
    assert validate_metric(a).is_metric


def test_generator_domain_errors():
    with pytest.raises(ValueError):
        random_metric(0, 10, seed=1)
    with pytest.raises(ValueError):
        cantor_approx(0)
    with pytest.raises(ValueError):
        pair_points(0)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=50))
def test_random_metric_always_validates(n, seed):
    assert validate_metric(random_metric(n, 10, seed=seed)).is_metric


@pytest.mark.parametrize(
    "n, seed, max_value",
    [
        (1, 0, 10),
        (2, 5, 10),
        (7, 3, F(7, 3)),
        (40, 1, 10),
        (40, 2, F(1, 1000)),
        (64, 11, F(5, 2**40)),
        # 32 * max_value reaches 2^62, so the weights go to Python ints
        (25, 4, 2**57),
        (12, 6, 4611686018427387905),
        (9, 7, F(2**70 + 1, 3)),
        # a wide max value: the closure runs on the int64 steps
        (48, 5, F(10**21, 7)),
    ],
)
def test_random_metric_matches_the_fraction_build(n, seed, max_value):
    got = random_metric(n, max_value, seed)
    want = reference_random_metric(n, max_value, seed)
    assert got.points == want.points
    assert got.dist == want.dist

