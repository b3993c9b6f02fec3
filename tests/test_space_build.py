"""The constructor and the JSON scalar rule, against the builds they replaced.

A space holds one copy of its distances, ``scaled``.  The constructor
runs differentially against ``support.reference_from_rows``, the build
that also kept its ``Fraction`` rows: the same points, ``scaled`` values,
dtype, denominator, ``levels``, ``dist`` and ``repr``, or the same
exception with the same message.  ``parse_scalar``, ``values_from_obj``
and ``space_from_obj`` run against ``support.reference_parse_scalar``,
which dispatches on int and str by itself.  The readers' batch parse,
``jsonio._ratios``, runs against ``_ratio`` on each text, and a valid
space, values or nebula file is read without a per-text ``_ratio`` call.
``tracemalloc`` tests show that construction keeps no second copy, and
that the reader and the constructor code a matrix once.
"""

import gc
import json
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metric_forge import FiniteMetricSpace, cover, jsonio, random_metric

from support import reference_from_rows, reference_parse_scalar, reference_space_from_obj


def outcome(build):
    """What a build gives: the space's every view, or its exception."""
    try:
        space = build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    arr, denom = space.scaled
    return (
        space.points,
        arr.tolist(),
        arr.dtype,
        denom,
        space.levels,
        space.dist,
        repr(space),
    )


def same_build(points, rows, shape=list):
    """Both constructors on fresh copies of ``rows``, each row made by ``shape``."""
    got = outcome(lambda: FiniteMetricSpace(points, [shape(r) for r in rows]))
    want = outcome(lambda: reference_from_rows(points, [shape(r) for r in rows]))
    assert got == want
    return got


EXACT = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(0, 40),
    st.sampled_from([2**62 - 1, 2**62, -(2**62), 2**63]),
    st.fractions(max_denominator=2**40),
    st.fractions(min_value=0, max_value=10, max_denominator=12),
)
# a float or bool equal to an int hashes as that int does
BAD = st.sampled_from(
    [1.0, 0.5, True, False, "1", np.int64(1), np.int32(0), np.float64(2.0), None]
)


@st.composite
def square_rows(draw, entries=EXACT):
    n = draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]


@st.composite
def broken_rows(draw):
    """Rows with bad entries, and sometimes the wrong shape as well."""
    rows = draw(square_rows(st.one_of(EXACT, BAD)))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif draw(st.booleans()):
        rows.append(list(rows[0]))
    return rows


def labels(n):
    return [f"p{i}" for i in range(n)]


@given(square_rows())
@example([[0]])
@example([[F(5, 2)]])
@example([[0, F(1, 2)], [F(2, 4), 0]])
@example([[0, -1, 2], [3, 0, -F(1, 3)], [2, 1, 0]])
@example([[0, 2**62], [2**62, 0]])
@example([[0, 2**62 - 1], [2**62 - 1, 0]])
@example([[0, F(2**64 + 1, 3)], [F(1, 2**70), 0]])
def test_constructor_matches_the_fraction_build(rows):
    got = same_build(labels(len(rows)), rows)
    assert type(got[0]) is tuple
    same_build(labels(len(rows)), rows, shape=tuple)
    same_build(labels(len(rows)), rows, shape=iter)  # generator rows


@given(broken_rows())
@example([[0, 1.5], [True, 0]])
@example([[0, 1], [True, 0]])  # True behind 1 still fails
@example([[0, 1], [1.0, 0]])
@example([[0, 1], [np.int64(1), 0]])
@example([[0, "1"], [1, 0]])
@example([[0, 1.5, 2], [1, 0]])  # the shape error wins
@example([[0, 1], [1, 0], [1, 1]])
def test_constructor_refuses_as_the_fraction_build(rows):
    n = len(rows[0])
    same_build(labels(n), rows)
    same_build(labels(n), rows, shape=iter)


@pytest.mark.parametrize(
    "points, rows",
    [
        ([], []),
        (["a", "a"], [[0, 1.5], [1, 0]]),  # labels before entries
        (["a", "b"], [[0, 1.5]]),
        (["a"], [[True]]),
        (["a"], [[np.int64(0)]]),
        ("ab", ((0, F(1, 2)), (F(1, 2), 0))),
    ],
)
def test_constructor_edge_cases_match(points, rows):
    same_build(points, rows)


def test_generator_of_generator_rows():
    rows = [[0, 3, F(1, 2)], [3, 0, 2], [F(1, 2), 2, 0]]
    got = FiniteMetricSpace("abc", (iter(r) for r in rows))
    assert got == reference_from_rows("abc", rows)
    assert got.dist == reference_from_rows("abc", rows).dist


def test_constructor_keeps_one_copy_of_its_distances():
    # at 512 points a tuple of Fraction rows beside scaled kept 16.1 MiB
    # against scaled's 2.0 MiB
    n = 512
    rows = np.random.default_rng(1).integers(0, 161, (n, n)).tolist()
    points = labels(n)
    gc.collect()
    tracemalloc.start()
    try:
        space = FiniteMetricSpace(points, rows)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arr = space.scaled[0]
    assert arr.dtype == np.int64 and "dist" not in vars(space)
    assert kept < 1.25 * arr.nbytes


# --- the JSON scalar rule ----------------------------------------------------


def result(parse, value):
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference_values(obj):
    if not isinstance(obj, list):
        raise ValueError("values file must hold a JSON array of rationals")
    return [reference_parse_scalar(v).as_integer_ratio() for v in obj]


JSON_SCALARS = st.one_of(
    st.integers(-3, 2**70),
    st.builds("{}/{}".format, st.integers(0, 999), st.integers(0, 99)),
    st.integers(0, 2**70).map(str),
    st.sampled_from(
        ["0", "2/4", "13/10", "1/0", "-1", "1.5", " 1", "1\n", "", "01/02", "٣"]
    ),
    st.sampled_from([True, False, 1.0, 0.5, None, [1], [[1]], {}]),
)
ODD_SCALARS = [-1, -(2**70), True, False, 1.0, None, [1], [["1"]], {}, "1/0", "x"]


@given(JSON_SCALARS)
def test_parse_scalar_matches_its_reference(value):
    assert result(jsonio.parse_scalar, value) == result(reference_parse_scalar, value)


@pytest.mark.parametrize("value", ODD_SCALARS, ids=repr)
def test_parse_scalar_refuses_as_its_reference(value):
    want = result(reference_parse_scalar, value)
    assert isinstance(want, tuple) and result(jsonio.parse_scalar, value) == want


@given(st.lists(JSON_SCALARS, max_size=6))
@example([1, True])  # true after 1
@example([True, 1])  # and before it
@example(["1", 1, 2, 1.0])
@example([0, None, [1]])
@example(["3/6", -2])
def test_values_reader_matches_its_reference(obj):
    for wrapped in (obj, {"values": obj}):
        got = result(jsonio.values_from_obj, wrapped)
        assert got == result(reference_values, wrapped)


@st.composite
def json_spaces(draw):
    """Symmetric space objects over strings, JSON ints and odd entries."""
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(["0", 0, 0, False, "1"]))
        for j in range(i + 1, n):
            rows[i][j] = draw(JSON_SCALARS)
            same = draw(st.booleans())
            rows[j][i] = rows[i][j] if same else draw(JSON_SCALARS)
    return {"points": labels(n), "dist": rows}


def read(reader, obj):
    try:
        space = reader(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    (arr, denom), dist = space.scaled, space.dist
    return space.points, denom, arr.dtype, arr.tolist(), dist, space.levels


def two(a, b):
    return {"points": ["a", "b"], "dist": [[0, a], [b, 0]]}


@given(json_spaces())
@example(two("3", 3))  # strings and JSON ints
@example(two(2**70, f"{2**70}"))
@example(two(-1, -1))  # negative ints
@example(two(1, True))  # true after 1
@example(two(True, 1))  # and before it
@example(two(1, 1.0))
@example(two(None, None))
@example(two([1], [1]))  # nested arrays
@example(two([[1]], "1"))
@example({"points": ["a", "b"], "dist": [[0, 1.5, 2], [1, 0]]})  # parse error first
def test_space_reader_matches_its_reference(obj):
    assert read(jsonio.space_from_obj, obj) == read(reference_space_from_obj, obj)


def three(a, b, c):
    return {"points": ["a", "b", "c"], "dist": [["0", a, b], [a, "0", c], [b, c, "0"]]}


# one bad entry before the JSON ints 1 and 2 or after them, on a diagonal of
# strings, and a malformed string beside a negative int, each one first
BAD_AMONG_INTS = [
    case
    for bad in ["x", "1/0", -1, True, 1.0, None]
    for case in (three(bad, 1, 2), three(1, 2, bad))
] + [three("x", -1, 2), three(-1, "x", 2), three(1, "1.5", -2), three(1, -2, "1.5")]


@pytest.mark.parametrize(
    "obj", BAD_AMONG_INTS, ids=lambda o: repr([*o["dist"][0][1:], o["dist"][1][2]])
)
def test_space_reader_names_the_first_bad_entry_among_json_ints(obj):
    want = read(reference_space_from_obj, obj)
    assert want[0] is ValueError and read(jsonio.space_from_obj, obj) == want


def test_space_reader_parses_json_ints_once_each(monkeypatch):
    # strings and JSON ints only: each distinct entry goes through _pair
    # once, with no per-entry pass first
    n, calls, pair = 40, [], jsonio._pair
    rows = [[0 if i == j else 1 + (i + j) % 3 for j in range(n)] for i in range(n)]
    rows[0][1] = rows[1][0] = "2/2"
    monkeypatch.setattr(jsonio, "_pair", lambda v: calls.append(v) or pair(v))
    space = jsonio.space_from_obj({"points": labels(n), "dist": rows})
    assert len(calls) == 5 and set(calls) == {0, 1, 2, 3, "2/2"}
    assert space == reference_space_from_obj({"points": labels(n), "dist": rows})



# unhashable entries, which no key dict can hold, among strings and JSON ints
UNHASHABLE = [
    case
    for bad in ([1], {})
    for case in (three(bad, "1", "2"), three("1", "2", bad), three(1, bad, 2))
]


@pytest.mark.parametrize("obj", UNHASHABLE, ids=lambda o: repr(o["dist"][0][1:]))
def test_space_reader_refuses_an_unhashable_entry_as_its_reference(obj):
    want = read(reference_space_from_obj, obj)
    assert want[0] is ValueError and want[1].startswith("expected a rational string")
    assert read(jsonio.space_from_obj, obj) == want


SPY_FILES = {
    "strings": [["0", "1/2"], ["1/2", "0"]],
    "json-ints": [[0, 3], [3, 0]],
    "mixed": [[0, "3"], ["3", 0]],
}


@pytest.mark.parametrize("rows", SPY_FILES.values(), ids=list(SPY_FILES))
def test_space_reader_codes_its_entries_once(monkeypatch, rows):
    calls, first_seen = [], jsonio._first_seen
    monkeypatch.setattr(
        jsonio, "_first_seen", lambda *a: calls.append(a) or first_seen(*a)
    )
    obj = {"points": ["a", "b"], "dist": rows}
    assert jsonio.space_from_obj(obj) == reference_space_from_obj(obj)
    assert len(calls) == 1


def test_space_reader_holds_two_arrays_on_json_ints():
    # the codes and the gathered matrix, one n^2 array each; coding the
    # entries a second time, with the first codes alive, peaked at 3.0
    n = 1000
    upper = np.triu(np.random.default_rng(4).integers(1, 10, (n, n)), 1)
    obj = {"points": labels(n), "dist": (upper + upper.T).tolist()}
    gc.collect()
    tracemalloc.start()
    try:
        space = jsonio.space_from_obj(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.scaled[0].dtype == np.int64
    assert peak < 2.2 * n * n * 8


def test_constructor_peak_from_fraction_rows():
    # the n^2 row tuples, the codes and the matrix; a list of n^2 (p, q)
    # tuples built first peaked at 88.7 MiB
    n = 1024
    ends = [F(k, 7) for k in range(161)]
    picks = np.random.default_rng(5).integers(0, 161, (n, n)).tolist()
    rows = [[ends[k] for k in row] for row in picks]
    gc.collect()
    tracemalloc.start()
    try:
        space = FiniteMetricSpace(labels(n), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.scaled[1] == 7
    assert peak < 4 * n * n * 8


# a well-formed text past Python's 4300-digit limit on int(): int's own error
LONG = "9" * 5000


@pytest.mark.parametrize(
    "reader, obj",
    [
        (jsonio.space_from_obj, two(LONG, LONG)),
        (jsonio.values_from_obj, ["1/2", LONG]),
        (jsonio.nebula_from_obj, {"q": 1, "bounded": [["0", LONG]], "tail_start": "2"}),
    ],
    ids=["space", "values", "nebula"],
)
def test_a_long_text_keeps_ints_own_error(reader, obj):
    with pytest.raises(ValueError, match=r"Exceeds the limit \(4300 digits\)"):
        reader(obj)


# --- the batch parse ----------------------------------------------------------


def each(texts):
    """``_ratio`` on each text in order: the pairs, or the first error."""
    return result(lambda ts: list(map(jsonio._ratio, ts)), texts)


# texts the batch check must refuse: an empty side, a second "/", a
# denominator with a leading 0 or equal to 0, texts int() would take (" 1",
# "1_0", "+1", an Arabic-Indic digit) and texts that hold the join's ","
ODD_TEXTS = ["5/", "/5", "", "1//2", "1/2/3", "01/02", "1/05", "1/0", "/", " 1"]
ODD_TEXTS += ["1_0", "+1", "١", "1\n", "1,2", "1\x00", ",", "1/2,", 1, None]
TEXTS = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(1, 10**30)),
    st.integers(0, 2**70).map(str),
    st.sampled_from(["0", "01", "00/7", "6/4", f"{2**64}/{2**70}", *ODD_TEXTS]),
    st.text("0123456789/, +_\n", max_size=5),
)


@settings(max_examples=30)
@given(st.lists(TEXTS, max_size=8))
def test_ratios_matches_ratio_on_each_text(texts):
    assert result(jsonio._ratios, texts) == each(texts)


@pytest.mark.parametrize("text", ODD_TEXTS, ids=repr)
def test_ratios_refuses_as_ratio_on_each_text(text):
    # the same first error wherever the odd text sits, and before a later one
    for texts in ([text], ["1/2", text, "0"], ["7/3", text, "x"], [text, 1]):
        want = each(texts)
        assert isinstance(want, tuple) and result(jsonio._ratios, texts) == want


def test_ratios_reports_a_bad_text_after_many_good_ones():
    texts = [f"{i}/{i % 7 + 1}" for i in range(10**5)] + ["1/05"]
    assert result(jsonio._ratios, texts) == each(texts)
    assert jsonio._ratios(texts[:-1]) == each(texts[:-1])


def test_valid_files_make_no_per_text_parse(monkeypatch):
    # a space, a values file and a nebula of strings parse in one batch
    # each; a fallback to _ratio on valid input would show here
    space = random_metric(24, F(10, 7), seed=3)
    values = space.values()
    texts = [str(v) for v in values]
    nebula = cover(values, 4)
    space_obj, nebula_obj = (
        json.loads("".join(jsonio.encode(obj)))
        for obj in (jsonio.space_to_obj(space), jsonio.nebula_to_obj(nebula))
    )
    assert any("/" in t for t in texts) and any("/" in t for t in nebula_obj["bounded"][1])
    calls, ratio = [], jsonio._ratio
    monkeypatch.setattr(jsonio, "_ratio", lambda t: calls.append(t) or ratio(t))
    assert jsonio.space_from_obj(space_obj) == space
    assert jsonio.values_from_obj(texts) == [v.as_integer_ratio() for v in values]
    assert jsonio.nebula_from_obj(nebula_obj) == nebula
    assert calls == []
