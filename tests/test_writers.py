"""The JSON writers against ``json.dumps`` of the dict builders.

The chunks of each writer must join to exactly ``json.dumps(obj,
indent=2, sort_keys=True) + "\\n"`` of the matching ``jsonio.*_to_obj`` builder,
the shared encoder must match ``json.dumps`` on any JSON tree, and the
CLI's outputs must keep the digests they had before the writers existed.
"""

import contextlib
import hashlib
import io
import json
import tracemalloc
from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import (
    FiniteMetricSpace,
    approximate,
    build_funiv_approx,
    cli,
    core,
    fragility_experiment,
    jsonio,
    validate_metric,
)
from metric_forge.core import ValidationReport

from support import SLAB_BUDGETS, all_kinds, raw_weights

# a symmetric matrix with diagonal, positivity and triangle violations; the
# reader refuses asymmetric input, so symmetry ones cannot come from a file
RAW = {
    "points": ["a", "b", "c", "d", "e", "f"],
    "dist": [
        ["1/2", "0", "5", "1", "7/3", "2"],
        ["0", "0", "1", "9", "1", "3"],
        ["5", "1", "0", "1", "1/4", "2"],
        ["1", "9", "1", "2", "6", "1"],
        ["7/3", "1", "1/4", "6", "0", "0"],
        ["2", "3", "2", "1", "0", "0"],
    ],
}

# labels every writer must escape exactly as json.dumps does
ODD_LABELS = {
    "points": ["plain", 'é"\\', "line\nbreak\t", "\ud800", "\x00\x1f\x7f"],
    "dist": [
        ["0", "1", "3/2", "2", "5/3"],
        ["1", "0", "1", "3/2", "2"],
        ["3/2", "1", "0", "1", "3/2"],
        ["2", "3/2", "1", "0", "1"],
        ["5/3", "2", "3/2", "1", "0"],
    ],
}


def _run(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def golden_digests(tmp_path):
    """sha256 of exit code, stdout, stderr and output file of each command."""
    digests = {}

    def f(name):
        return str(tmp_path / name)

    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")

    def step(name, *argv, out=None):
        code, stdout, stderr = _run(list(argv))
        h = hashlib.sha256(f"{code}\0".encode())
        for part in (stdout, stderr, (tmp_path / out).read_bytes() if out else b""):
            h.update(part + b"\0")
        digests[name] = h.hexdigest()

    step("gen-random", "gen", "random", "--n", "64", "-o", f("space.json"), out="space.json")
    for name, eps, res in (("approx-half", "1/2", "r1.json"), ("approx-five", "5", "r2.json")):
        step(name, "approximate", f("space.json"), "--epsilon", eps, "-o", f(res), out=res)
    write("d1.json", json.loads((tmp_path / "r1.json").read_text(encoding="utf-8"))["D"])
    write("d2.json", json.loads((tmp_path / "r2.json").read_text(encoding="utf-8"))["D"])
    write("raw.json", RAW)
    write("odd.json", ODD_LABELS)
    step("validate-space", "validate", f("space.json"))
    step("validate-d-half", "validate", f("d1.json"))
    step("validate-d-five", "validate", f("d2.json"))
    step("validate-raw", "validate", f("raw.json"))
    step("approx-odd", "approximate", f("odd.json"), "--epsilon", "1/3")
    step("gen-cantor", "gen", "cantor", "--k", "3")
    step("funiv", "universal", "funiv", "--n", "1", "--delta", "1/2", "--copies", "2")
    step("pairs", "universal", "pairs", "--values", "1/2,3,7/4")
    step("fragility", "fragility", "--values", "1/8,1/4,3/8,1/2", "--epsilon", "1/2")
    # the small outputs; odd labels reach the embedding's map keys
    write("values.json", ["0", "1", "3/2", "5/3", "2"])
    write("bad-cover.json", {"q": 1, "bounded": [["0", "0"], ["1/2", "5/4"]],
                             "tail_start": "1"})
    step("nebula-cover", "nebula", "cover", f("values.json"), "--q", "1", "-o", f("cover.json"),
         out="cover.json")
    step("nebula-check-valid", "nebula", "check", f("cover.json"))
    step("nebula-check-invalid", "nebula", "check", f("bad-cover.json"))
    step("nebula-margin", "nebula", "margin", f("odd.json"), f("cover.json"))
    step("embed-frechet", "embed", "frechet", f("odd.json"), "--n", "5")
    write("pattern.json", {
        "points": ["z", "\u00e9\u2028", 'A"b'],
        "dist": [["0", "1", "3/2"], ["1", "0", "1"], ["3/2", "1", "0"]],
    })
    write("far.json", {"points": ["x", "y"], "dist": [["0", "7/3"], ["7/3", "0"]]})
    step("embed-search-found", "embed", "search", f("pattern.json"), f("odd.json"))
    step("embed-search-missing", "embed", "search", f("far.json"), f("odd.json"))
    return digests


# digests of the outputs above, recorded before the direct writers existed
GOLDEN = {
    "gen-random": "ac23270651f3011fe2bb000192f3f2e9be4403a40a5b55fc8c367586a6f195b5",
    "approx-half": "ad07d20e72d4abe63be127d947ecf1e78c9e3fa92049985dbc47c732a3874401",
    "approx-five": "7867e6c6298bc5ff059f228f062bb46dddbfaf49006ef26a569f9ecfd52a0d6a",
    "validate-space": "b0df5a7a586812122564293368af37449c8f47cf7deae36dd963f88cbbbdc741",
    "validate-d-half": "b0df5a7a586812122564293368af37449c8f47cf7deae36dd963f88cbbbdc741",
    "validate-d-five": "b0df5a7a586812122564293368af37449c8f47cf7deae36dd963f88cbbbdc741",
    "validate-raw": "abdfacdf7abeff973f5c90e7b19b3d5e7200532b63e21056cd070f4ca3ff42e9",
    "approx-odd": "2baac74e659c5c2da788a510c83b4dc622e3950cece8c2281be4085fbecafb12",
    "gen-cantor": "0d24e8d692303cfc0706db2e4aefb9d76bcd7020ae481ab70c3674cbd989892c",
    "funiv": "68d82f37c5d7eb2a132e2900b67ffec2ee704971ab32c2f91e2e27301ba6f153",
    "pairs": "9c66d0240b2ef5d28ef41ac88cdaff8d9813da73c751411c416fdd47208b7b26",
    "fragility": "a841522b3dac928dffb62ab0278ed0f63fd35911dcd032fa5872d4d9c2a1fb77",
    # the small outputs, recorded while they were still written by json.dumps
    "nebula-cover": "af06aeaa8916b6de73a8e1294105d0c0cd94f4d0fd5f9b2de676d77c3637cbfe",
    "nebula-check-valid": "e990ffe54bcd2b8c1340698889fc62ca9fd498b67029fb46533090330b757465",
    "nebula-check-invalid": "5391079b64eb36a91029c509e8bad83991407100ae839dc8c964a0b3e456cdc9",
    "nebula-margin": "7423529605214ddcd4abb40d0f58460ebb80c6284bef7f97472665c47b923c1f",
    "embed-frechet": "1fb2c6aeecb828ec2050554e541e3f2cc45b0e7bc7d091504ab9282a826b02cb",
    "embed-search-found": "98a1e7d164a1f60e594202872868eb0b494b6405d9e0b95c8efc7e4e3ddee6e8",
    "embed-search-missing": "f67184aa4558dce766d003ed85ded9c72615ad58db85dfac49ea43275da35e37",
}


def test_cli_outputs_keep_their_digests(tmp_path):
    assert golden_digests(tmp_path) == GOLDEN


# --- each writer against json.dumps of its builder ------------------------------


def oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def written(writer, value) -> str:
    return "".join(writer(value))


# quotes, backslashes, control characters, non-ASCII and lone surrogates
ODD_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff"]
LABELS = st.text(st.one_of(st.characters(), st.sampled_from(ODD_CHARS)), max_size=6)


@st.composite
def metrics(draw):
    """Entries 1 + a/b, so every triangle closes; huge b puts the lcm past 2^62."""
    n = draw(st.integers(1, 7))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    dens = st.integers(2**62, 2**70) if draw(st.booleans()) else st.integers(1, 64)
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = draw(dens)
            rows[i][j] = rows[j][i] = 1 + F(draw(st.integers(0, b - 1)), b)
    return FiniteMetricSpace.from_rows(labels, rows)


ENTRIES = [F(-1), F(0), F(1, 3), F(1), F(2), F(5), F(9)]


@st.composite
def raw_matrices(draw):
    """Any square matrix: asymmetric, negative, nonzero diagonal, unshared."""
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
    # F(v) builds a new object per entry, so equal values need not share one
    rows = [[F(draw(st.sampled_from(ENTRIES))) for _ in range(n)] for _ in range(n)]
    return FiniteMetricSpace.from_rows(labels, rows)


ALL_KINDS = FiniteMetricSpace.from_rows(
    "abcd",
    [[1, 2, 9, 1], [3, 0, 1, 1], [9, 1, 0, 0], [1, 1, 0, 0]],
)


@given(st.one_of(metrics(), raw_matrices()))
def test_space_writer(space):
    assert written(jsonio.space_chunks, space) == oracle(jsonio.space_to_obj(space))


# ALL_KINDS on the object path, with negative sides
WIDE_KINDS = all_kinds(F(1, 2**70))
# one diagonal witness and nothing else: the report's one block has one column
ONE_DIAGONAL = FiniteMetricSpace.from_rows("ab", [[1, 1], [1, 0]])


# the default row group and groups of 1, 2 and 3 rows, which the small
# reports below cross several times
JOIN_ROWS = [jsonio._JOIN_ROWS, 1, 2, 3]


def written_in_groups(writer, value, rows: int, key: str) -> str:
    """The writer's text; no chunk holds more than ``rows`` rows of ``key``."""
    chunks = writer(value)
    assert max(chunk.count(key) for chunk in chunks) <= rows
    return "".join(chunks)


def validation_written(report: ValidationReport, rows: int) -> str:
    with patch.object(jsonio, "_JOIN_ROWS", rows):
        return written_in_groups(jsonio.validation_chunks, report, rows, '"kind": ')


@given(st.one_of(metrics(), raw_matrices()))
@example(ALL_KINDS)
@example(WIDE_KINDS)
@example(ONE_DIAGONAL)
def test_validation_writer(space):
    report = validate_metric(space)
    want = oracle(jsonio.validation_to_obj(report))
    for rows in JOIN_ROWS:
        assert validation_written(report, rows) == want, rows


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_validation_writer_at_a_group_boundary(extra):
    # R - 1, R and R + 1 triangle rows at the default R: one group, one
    # full group, and a full group plus a group of one row
    rows = jsonio._JOIN_ROWS
    m = rows + extra
    rng = np.random.default_rng(m)
    witness = rng.integers(0, 40, size=(m, 3))
    lhs = rng.integers(-5, 60, size=m)
    block = ("triangle", witness, lhs, lhs - rng.integers(1, 9, size=m))
    report = ValidationReport(False, False, ((block,), 3))
    groups = jsonio._violations(*report.table, "\n  ")
    assert [c.count('"kind": ') for c in groups] == ([rows, 1] if extra > 0 else [m])
    got = validation_written(report, rows)
    assert got == oracle(jsonio.validation_to_obj(report))


def many_blocks(corner) -> FiniteMetricSpace:
    """Eight points with every kind of violation and triangles in many rows.

    ``corner`` is d(a, a); 1/2^70 puts the matrix on the object path.
    """
    rows = [[F((3 * i + 5 * j) % 7) for j in range(8)] for i in range(8)]
    for i in range(8):
        rows[i][i] = F(0)
    rows[0][0], rows[1][2], rows[2][1], rows[3][4] = corner, F(9), F(1), F(-1)
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(8)], rows)


@pytest.mark.parametrize("rows", JOIN_ROWS)
@pytest.mark.parametrize("corner", [F(1), F(1, 2**70)], ids=["int64", "object"])
def test_validation_writer_over_many_blocks(rows, corner):
    # the cheap kinds, then one triangle block per slab of one row
    space = many_blocks(corner)
    with patch.object(core, "_SLAB_CELLS", 64):
        report = validate_metric(space)
    blocks, _ = report.table
    kinds = [kind for kind, *_ in blocks]
    assert kinds[:3] == ["diagonal", "symmetry", "positivity"]
    assert kinds.count("triangle") >= 4 and len({len(b[1]) for b in blocks}) > 2
    assert (space.scaled[0].dtype == object) == (corner != 1)
    got = validation_written(report, rows)
    assert got == oracle(jsonio.validation_to_obj(report))


def test_validation_writer_memory_at_n96():
    # the benchmark's raw input: about 70k triangle rows, 10 MiB of text;
    # row groups keep the writer's peak near the text it returns, where
    # one string per row held 1.77 times the text
    report = validate_metric(jsonio.space_from_obj(raw_weights(96, 1)))
    tracemalloc.start()
    try:
        chunks = jsonio.validation_chunks(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sum(map(len, chunks))
    assert len(report.violations) > 60_000 and text > 9 * 2**20
    assert peak < 1.3 * text


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("m", range(8))
def test_joined_groups_rows(rows, m):
    # m rows of three columns, in groups of at most ``rows`` rows
    tables = [np.array([f"{c}{v}," for v in range(5)], dtype=object) for c in "abc"]
    columns = [np.arange(m) % 5, (np.arange(m) * 2) % 5, np.full(m, 4)]
    want = [f"a{a % 5},b{2 * a % 5},c4," for a in range(m)]
    with patch.object(jsonio, "_JOIN_ROWS", rows):
        got = jsonio._joined(tables, columns)
    assert got == ["".join(want[a : a + rows]) for a in range(0, m, rows)]


def test_validation_example_has_every_kind():
    # on both paths; ONE_DIAGONAL gives a block of one one-column witness
    for space in (ALL_KINDS, WIDE_KINDS):
        report = validate_metric(space)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"diagonal", "symmetry", "positivity", "triangle"}
    assert WIDE_KINDS.scaled[0].dtype == object
    assert any(v.lhs < 0 or v.rhs < 0 for v in validate_metric(WIDE_KINDS).violations)
    (block,), _ = validate_metric(ONE_DIAGONAL).table
    assert block[0] == "diagonal" and block[1].shape == (1, 1)


@pytest.mark.parametrize("cells", SLAB_BUDGETS)
def test_validate_output_is_the_same_for_every_slab_budget(tmp_path, cells):
    # triangle blocks split across slabs still write as one array
    files = {"raw": RAW, "five": raw_weights(5, 2), "wide": raw_weights(24, 3)}
    for name, obj in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        report = validate_metric(jsonio.space_from_obj(obj))
        with patch.object(core, "_SLAB_CELLS", cells):
            got = _run(["validate", str(path)])
        assert got == (1, oracle(jsonio.validation_to_obj(report)).encode(), b""), name


def line_space(labels, positions) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_rows(
        labels, [[abs(a - b) for b in positions] for a in positions]
    )


# two clusters 20 apart at eps = 5: geometric certificates, some with a
# missing summand, and an object-path D (offsets down to 2^-70)
CLUSTERED = line_space("abcde", [0, F(3, 2**6), F(1, 2**9), 20, 20 + F(1, 2**70)])


def approximation_written(result, rows: int) -> str:
    with patch.object(jsonio, "_JOIN_ROWS", rows):
        return written_in_groups(jsonio.approximation_chunks, result, rows, '"i": ')


@given(
    metrics(),
    st.sampled_from([F(1, 2), F(5), F(1, 10), F(3, 7)]),
    # every ratio here keeps 2r <= eta = eps / 5
    st.sampled_from([None, F(1, 100), F(2, 301)]),
)
@example(CLUSTERED, F(5), None)
def test_approximation_writer(space, eps, r):
    result = approximate(space, eps, r=r)
    want = oracle(jsonio.approximation_to_obj(result))
    for rows in JOIN_ROWS:
        assert approximation_written(result, rows) == want, rows


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_certificates_at_a_group_boundary(extra):
    # CLUSTERED's 10 pairs in groups of 11, 10 and 9 rows
    result = approximate(CLUSTERED, F(5))
    with patch.object(jsonio, "_JOIN_ROWS", 10 - extra):
        chunks = jsonio._certificates(result, "\n  ")
    assert [c.count('"i": ') for c in chunks] == ([10] if extra < 1 else [9, 1])
    got = approximation_written(result, 10 - extra)
    assert got == oracle(jsonio.approximation_to_obj(result))


def test_approximation_writer_edges():
    # one point: no certificates; CLUSTERED: the object path, and every
    # combination of filled and null summand slots
    one = approximate(FiniteMetricSpace.from_rows(["é"], [[0]]), F(1, 2))
    assert one.certificates == ()
    clustered = approximate(CLUSTERED, F(5))
    assert clustered.D.scaled[0].dtype == object
    slots = {(c.n is None, c.m is None) for _, _, c in clustered.certificates}
    assert slots == {(True, True), (True, False), (False, True), (False, False)}
    odd = approximate(jsonio.space_from_obj(ODD_LABELS), F(1, 3))
    for result in (one, clustered, odd):
        got = written(jsonio.approximation_chunks, result)
        assert got == oracle(jsonio.approximation_to_obj(result))


@given(
    st.lists(st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64),
             min_size=1, max_size=6, unique=True),
    st.sampled_from([F(1, 2), F(1, 5), F(2)]),
)
def test_fragility_writer(values, eps):
    report = fragility_experiment(values, eps)
    got = written(jsonio.fragility_chunks, report)
    assert got == oracle(jsonio.fragility_to_obj(report))


@pytest.mark.parametrize(
    "n, delta, copies", [(1, F(1, 2), 2), (1, F(1), 1), (2, F(1), 3), (2, F(1, 2), 1)]
)
def test_funiv_writer(n, delta, copies):
    result = build_funiv_approx(n, delta, copies)
    assert written(jsonio.funiv_chunks, result) == oracle(jsonio.funiv_to_obj(result))


# --- the shared encoder against json.dumps on any JSON tree ----------------------


def _plain(value):
    """The oracle's side of a tree: each Fraction as its string."""
    if isinstance(value, F):
        return str(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    LABELS,
    st.fractions(),
)
TREES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(LABELS, kids, max_size=4),
    ),
    max_leaves=24,
)


@given(TREES)
@example({"": [], "b": {}, "a": [[], {}, [[{}]], ()], "\ud800": {"é": None}})
@example([-(2**64) - 1, 2**64, True, False, 0, F(-7, 3), F(5), "\x00 "])
def test_encoder_matches_json_dumps(tree):
    out = []
    jsonio._encode(tree, 0, out)
    assert "".join(out) == json.dumps(_plain(tree), indent=2, sort_keys=True)


def test_encoder_refuses_floats():
    with pytest.raises(TypeError, match="cannot encode float"):
        jsonio.encode({"x": [0.5]})
