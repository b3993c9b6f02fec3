"""Differential tests: ``approximate`` against its Fraction implementation.

``support.reference_approximate`` is the construction as it ran on
``Fraction`` entries before ``approximate`` moved to scaled integers.  Both
must return the same D, plan, certificates, eta and r, or raise the same
exception class.  The one deliberate difference: where the reference ends
in an internal error on an input that is not a metric, ``approximate`` now
raises a ValueError naming the input's first violation.  The reference
keeps its per-pair certificate loop; ``approximate``'s table must hold one
read-only index per pair into distinct rows, each of them used.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import FiniteMetricSpace, approximate, jsonio, random_metric
from metric_forge.core import _from_int_matrix

from support import encoded, reference_approximate, triple_loop_is_metric

EPSILONS = [F(1, 2), F(5), F(1), F(3, 7), F(1, 10), F(20)]
RATIOS = [None, F(1, 4), F(1, 8), F(1, 3), F(2, 7), F(1, 40)]


def line_space(positions) -> FiniteMetricSpace:
    labels = [f"x{i}" for i in range(len(positions))]
    return FiniteMetricSpace.from_rows(
        labels, [[abs(a - b) for b in positions] for a in positions]
    )


def assert_same(space, eps, r=None) -> None:
    try:
        want = reference_approximate(space, eps, r)
    except Exception as exc:
        internal = isinstance(exc, (RuntimeError, KeyError))
        if internal and not triple_loop_is_metric(space):
            expected = ValueError
        else:
            expected = type(exc)
        with pytest.raises(expected):
            approximate(space, eps, r)
        return
    got = approximate(space, eps, r)
    # one index per pair into distinct rows, each row used, none writable
    rows, index = got.table
    assert len(set(rows)) == len(rows)
    assert index.shape == (space.n * (space.n - 1) // 2,)
    assert sorted(set(index.tolist())) == list(range(len(rows)))
    assert not index.flags.writeable
    assert got.D.points == want.D.points
    assert got.D.dist == want.D.dist
    assert got.plan == want.plan
    assert got.certificates == want.certificates
    assert got.eta == want.eta
    assert got.r == want.r


@st.composite
def random_metrics(draw):
    # multiples of max_value/32: small denominators, the int64 path
    n = draw(st.integers(1, 12))
    max_value = draw(st.sampled_from([1, 3, 10, F(7, 3)]))
    return random_metric(n, max_value, seed=draw(st.integers(0, 10**6)))


@given(random_metrics(), st.sampled_from(EPSILONS), st.sampled_from(RATIOS))
@example(random_metric(1, 10, seed=0), F(1, 2), None)
@example(random_metric(2, 10, seed=0), F(5), None)
@example(random_metric(2, 10, seed=1), F(5), F(1, 4))
def test_int64_path_matches_reference(space, eps, r):
    assert_same(space, eps, r)


@st.composite
def wide_lcm_metrics(draw):
    # entries 1 + a/b lie in [1, 2), so every triangle closes; the first
    # has a denominator of 2^62 or more, the others up to 2^40
    n = draw(st.integers(2, 8))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = draw(st.integers(2**30, 2**40))
            rows[i][j] = rows[j][i] = 1 + F(draw(st.integers(0, b - 1)), b)
    rows[0][1] = rows[1][0] = 1 + F(1, draw(st.integers(2**62, 2**70)))
    return FiniteMetricSpace.from_rows([f"w{i}" for i in range(n)], rows)


@given(wide_lcm_metrics(), st.sampled_from(EPSILONS), st.sampled_from(RATIOS))
def test_object_path_matches_reference(space, eps, r):
    assert space.scaled[0].dtype == object
    assert_same(space, eps, r)


@st.composite
def clustered_lines(draw):
    # clusters 20 apart; inside one, offsets num/2^e with e >= 5 give level
    # exponents of 5 or more at eps = 5, and e near 80 puts D past 2^62
    positions = []
    for c in range(draw(st.integers(1, 4))):
        offsets = {F(0)}
        for _ in range(draw(st.integers(0, 4))):
            e = draw(st.integers(5, 80))
            offsets.add(F(draw(st.integers(1, 3)), 2**e))
        positions += [20 * c + o for o in sorted(offsets)]
    return line_space(positions)


def around(level, unit) -> FiniteMetricSpace:
    """A line whose closure values are level - unit, level and level + unit."""
    return line_space([0, level - unit, 2 * level - unit, 3 * level])


@given(clustered_lines(), st.sampled_from([F(5), F(10), F(1)]), st.sampled_from(RATIOS))
@example(line_space([F(0), F(1, 2**80)]), F(5), None)
# closure values at a level eta * r^k and one scale unit either side: the
# level and the value just below it round to level k, the one above to k - 1
@example(around(F(4, 49), F(1, 147)), F(5), F(2, 7))
@example(around(F(1, 16), F(1, 80)), F(5), None)
@example(line_space([0, F(3, 2**6), F(1, 2**9), 20, 20 + F(1, 2**70)]), F(5), None)
def test_clustered_inputs_match_reference(space, eps, r):
    assert_same(space, eps, r)


# the 10^21/7 space of the installed-script check: its hub steps pass 2^62
WIDE = random_metric(24, F(10**21, 7))


@pytest.mark.parametrize("eps", [F(1, 2), F(5)])
def test_hub_steps_past_int64_match_reference(eps):
    assert WIDE.scaled[0].dtype == object
    assert approximate(WIDE, eps).D.scaled[0].dtype == object
    assert_same(WIDE, eps)


def test_deepest_level_under_the_cap_matches_reference():
    f = F(1, 5 * 10**4299)  # eta * r^4299 at epsilon 1
    space = FiniteMetricSpace.from_rows("abc", [[0, f, 1], [f, 0, 1], [1, 1, 0]])
    assert_same(space, F(1))
    assert approximate(space, F(1)).certificate(0, 1).n == 4299


@pytest.mark.parametrize(
    "r, depth",
    [
        # eta = 1: the level scale is 7^k, and 7^5088 is the last power of
        # 7 with 4300 digits
        (F(2, 7), 5088),
        # the scale 10^k is exactly 10^4300 one level deeper, already over
        (F(1, 10), 4299),
    ],
)
def test_deepest_level_under_the_cap_with_an_overridden_ratio(r, depth):
    f = r**depth
    space = FiniteMetricSpace.from_rows("abc", [[0, f, 1], [f, 0, 1], [1, 1, 0]])
    assert_same(space, F(5), r)
    assert approximate(space, F(5), r).certificate(0, 1).n == depth
    g = f * r
    deeper = FiniteMetricSpace.from_rows("abc", [[0, g, 1], [g, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError) as err:
        approximate(deeper, F(5), r)
    assert str(err.value) == (
        f"level depth {depth + 1} or more needed, past the cap:"
        f" den(eta) * den(r)^{depth + 1} has over 4300 digits"
    )


def test_one_point_has_an_empty_table():
    space = random_metric(1, 10, seed=0)
    got = approximate(space, F(1, 2))
    rows, index = got.table
    assert rows == () and index.shape == (0,)
    text = encoded(jsonio.approximation_to_obj(got))
    assert '\n  "certificates": [],\n' in text
    assert json.loads(text)["certificates"] == []
    assert got.certificates == reference_approximate(space, F(1, 2)).certificates == ()


@pytest.mark.parametrize("eps", [F(1, 2), F(5)])
def test_certificate_reads_the_table(eps):
    got = approximate(WIDE, eps)
    n = WIDE.n
    found = {
        (i, j): got.certificate(i, j) for i in range(n) for j in range(n) if i != j
    }
    assert "certificates" not in vars(got)  # looked up without the view
    for i, j, cert in got.certificates:
        assert found[i, j] is cert and found[j, i] is cert
    for i, j in ((3, 3), (0, n), (n, 0), (n, n + 1), (-1, 2), (2, -1), (-2, -1)):
        with pytest.raises(KeyError) as err:
            got.certificate(i, j)
        assert err.value.args == ((min(i, j), max(i, j)),)


TRIANGLE = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]


@pytest.mark.parametrize(
    "rows, eps, message",
    [
        (TRIANGLE, F(1, 2), "triangle violation at (0, 1, 2) (5 against 2)"),
        (TRIANGLE, F(5), "triangle violation at (0, 1, 2) (5 against 2)"),
        (
            [[0, 1, 2, 9], [1, 0, 1, 2], [2, 1, 0, 1], [9, 2, 1, 0]],
            F(1, 2),
            "triangle violation at (0, 1, 3) (9 against 3)",
        ),
        # the reference ends in a certificate mismatch at (1, 2)
        (
            [[0, F(1, 3), 5], [F(1, 10), 0, 5], [5, 5, 0]],
            F(5),
            "symmetry violation at (0, 1) (1/3 against 1/10)",
        ),
        # the reference ends in the level rounding
        (
            [[0, F(1, 100), F(1, 100)], [5, 0, F(1, 100)], [5, F(1, 100), 0]],
            F(1),
            "symmetry violation at (0, 1) (1/100 against 5)",
        ),
        # the reference ends in the hub ceiling
        ([[0, 5], [-1, 0]], F(1), "symmetry violation at (0, 1) (5 against -1)"),
        # both end in "moved too far": D keeps d(c, b) = 3 where the input has 4
        (
            [[0, 2, 3], [2, 0, 3], [3, 4, 0]],
            F(1, 2),
            "symmetry violation at (1, 2) (3 against 4)",
        ),
        # the level-rounding case's cluster, and a second cluster whose tiny
        # distance is past the depth cap: the value above eta in the first
        # is refused first
        (
            [
                [0, F(1, 100), F(1, 100), 20, 20],
                [5, 0, F(1, 100), 20, 20],
                [5, F(1, 100), 0, 20, 20],
                [20, 20, 20, 0, F(1, 5 * 10**4300)],
                [20, 20, 20, F(1, 5 * 10**4300), 0],
            ],
            F(1),
            "symmetry violation at (0, 1) (1/100 against 5)",
        ),
    ],
)
def test_non_metric_inputs_match_reference_with_their_messages(rows, eps, message):
    space = FiniteMetricSpace.from_rows([f"p{i}" for i in range(len(rows))], rows)
    assert_same(space, eps)
    with pytest.raises(ValueError) as err:
        approximate(space, eps)
    assert str(err.value) == f"input is not a metric: {message}"


ENTRIES = [F(-1), F(0), F(1, 3), F(1), F(2), F(5), F(9)]


@st.composite
def raw_matrices(draw):
    # arbitrary matrices: asymmetric, zero, negative, triangle-breaking
    n = draw(st.integers(2, 6))
    rows = [
        [
            draw(st.sampled_from([F(0), F(0), F(0), F(1, 5), F(-1)]))
            if i == j
            else draw(st.sampled_from(ENTRIES))
            for j in range(n)
        ]
        for i in range(n)
    ]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return FiniteMetricSpace.from_rows([f"m{i}" for i in range(n)], rows)


@given(raw_matrices(), st.sampled_from([F(1, 2), F(5), F(20)]))
@example(
    FiniteMetricSpace.from_rows("abc", [[0, 1, 5], [1, 0, 1], [5, 1, 0]]), F(1, 2)
)
# b's cluster distance to its representative a rounds to level 1 read as
# (a, b) and to level 3 read as (b, a): the leg of pair (b, c) in D reads
# (b, a), its certificate (a, b), so the reference fails on the mismatch
@example(
    FiniteMetricSpace.from_rows(
        "abc", [[0, F(1, 3), 5], [F(1, 10), 0, 5], [5, 5, 0]]
    ),
    F(5),
)
# a zero inside a cluster has no level: D keeps it, and the self-check
# names the input's identity violation
@example(
    FiniteMetricSpace.from_rows(
        "abc", [[0, 0, F(1, 100)], [0, 0, F(1, 100)], [F(1, 100), F(1, 100), 0]]
    ),
    F(1),
)
def test_non_metric_inputs_match_reference(space, eps):
    assert_same(space, eps)


def test_depth_refusal_comes_before_a_value_above_eta():
    # the closure of this asymmetric cluster holds 5 > eta = 1/5, which the
    # reference fails to round up, and tiny, a level past the depth cap
    tiny = F(1, 5 * 10**4300)
    rows = [[0, F(1, 100), F(1, 100)], [5, 0, tiny], [5, tiny, 0]]
    space = FiniteMetricSpace.from_rows("abc", rows)
    assert_same(space, F(1))
    with pytest.raises(ValueError) as err:
        approximate(space, F(1))
    assert str(err.value) == (
        "level depth 4300 or more needed, past the cap:"
        " den(eta) * den(r)^4300 has over 4300 digits"
    )


def test_non_metric_input_names_its_first_violation():
    space = FiniteMetricSpace.from_rows("abc", [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    for eps in (F(1, 2), F(5)):
        with pytest.raises(ValueError, match=r"triangle violation at \(0, 1, 2\)"):
            approximate(space, eps)


@pytest.mark.parametrize(
    "values",
    [
        [[0, 3, -7], [3, 0, 2**40], [-7, 2**40, 0]],
        [[0, 2**70, 5], [2**70, 0, -(2**65)], [5, -(2**65), 0]],
    ],
)
def test_from_int_matrix_matches_plain_fraction_rows(values):
    for dtype in (np.int64, object):
        if dtype is np.int64 and max(abs(v) for row in values for v in row) >= 2**62:
            continue
        arr = np.array(values, dtype=dtype)
        for denom in (1, 6, 2**64 + 1):
            got = _from_int_matrix(("a", "b", "c"), arr, denom)
            want = tuple(tuple(F(v, denom) for v in row) for row in values)
            assert got.points == ("a", "b", "c")
            assert got.dist == want
