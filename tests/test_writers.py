"""The JSON writers against ``json.dumps`` of the string builders.

``"".join(encode(X_to_obj(x)))`` for each ``jsonio.*_to_obj`` builder must
be exactly ``json.dumps(support.reference_X_obj(x), indent=2,
sort_keys=True) + "\\n"``, the shared encoder must match ``json.dumps`` on
any JSON tree, and the CLI's outputs must keep the digests they had before
the writers existed.
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
    cantor_approx,
    cli,
    core,
    fragility_experiment,
    jsonio,
    validate_metric,
)
from metric_forge.core import ValidationReport

from support import (
    SLAB_BUDGETS,
    all_kinds,
    brute_violations,
    core_calls,
    encoded,
    grid_space,
    metric_1024,
    raw_weights,
    reference_approximation_obj,
    reference_fragility_obj,
    reference_funiv_obj,
    reference_space_obj,
    reference_validation_obj,
)

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


def written(builder, value) -> str:
    return encoded(builder(value))


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
    assert written(jsonio.space_to_obj, space) == oracle(reference_space_obj(space))


# int64 entries up to 256 and past it (an int of its own each), Python
# ints past 2^62, one point, coprime denominators, and 200 rows, which
# the default block of cells gathers in three blocks
GATHERED = {
    "small-ints": grid_space(9, lambda k: 31 * k),
    "large-ints": grid_space(9, lambda k: 1000 * k + 7),
    "object": grid_space(9, lambda k: 2**62 + k),
    "one-point": grid_space(1, None),
    "coprime": grid_space(9, lambda k: 1 + F(1, [2, 3, 5, 7, 11, 13, 17, 19][k - 1])),
    "blocks": grid_space(200, lambda k: F(k % 37, 4)),
}


def test_gathered_examples_reach_each_case():
    peaks = {name: int(space.scaled[0].max()) for name, space in GATHERED.items()}
    assert peaks["small-ints"] <= 256 < peaks["large-ints"] < 2**62 <= peaks["object"]
    assert GATHERED["object"].scaled[0].dtype == object
    assert GATHERED["coprime"].scaled[1] == 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
    assert GATHERED["blocks"].n ** 2 > 2 * jsonio._GATHER_CELLS


@pytest.mark.parametrize("cells", [jsonio._GATHER_CELLS, 1, 5, 100])
@pytest.mark.parametrize("name", list(GATHERED))
def test_space_writer_gathers_rows(name, cells):
    # one chunk per row, whatever the block of cells; 1 and 5 cells give
    # one row per block, 100 several rows of 9 and a remainder
    space = GATHERED[name]
    with patch.object(jsonio, "_GATHER_CELLS", cells):
        assert len(jsonio._dist(space, "\n  ")) == space.n
        got = written(jsonio.space_to_obj, space)
    assert got == oracle(reference_space_obj(space))


def test_space_writer_memory_at_n1024():
    # 10^6 entries above 256: a list of the rows peaked at 3.7 times the
    # text; the gather holds the text and the codes, one intp a cell
    space = metric_1024()
    arr = space.scaled[0]
    assert arr.dtype == np.int64 and int(arr.max()) > 256
    tracemalloc.start()
    try:
        chunks = list(jsonio.encode(jsonio.space_to_obj(space)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = sum(map(len, chunks))
    assert len(chunks) > space.n and text > 14 * 2**20
    assert peak < text + 2 * arr.nbytes


@pytest.mark.parametrize("n", [1024, 3])
def test_space_writer_blocks_hold_at_most_the_cell_budget(n):
    # the quoted cells record the shape of each block of codes they gather
    # by; a block of a few rows stays under _GATHER_CELLS, one row past it
    shapes, real = [], jsonio._cells

    class Cells(np.ndarray):
        def __getitem__(self, index):
            shapes.append(np.shape(index))
            return super().__getitem__(index)

    def cells(values, denom):
        return real(values, denom).view(Cells)

    space = metric_1024() if n == 1024 else metric_1024().restrict(range(n))
    with patch.object(jsonio, "_cells", cells):
        chunks = jsonio._dist(space, "\n  ")
    assert len(chunks) == n and sum(rows for rows, _ in shapes) == n
    assert all(cols == n for _, cols in shapes)
    assert all(rows * n <= max(n, jsonio._GATHER_CELLS) for rows, _ in shapes)


# ALL_KINDS on the object path, with negative sides
WIDE_KINDS = all_kinds(F(1, 2**70))
# one diagonal witness and nothing else: the report's one block has one column
ONE_DIAGONAL = FiniteMetricSpace.from_rows("ab", [[1, 1], [1, 0]])


# the default row group and groups of 1, 2 and 3 rows, which the small
# reports below cross several times
JOIN_ROWS = [jsonio._JOIN_ROWS, 1, 2, 3]


def written_in_groups(builder, value, rows: int, key: str) -> str:
    """The written text; no chunk holds more than ``rows`` rows of ``key``."""
    chunks = list(jsonio.encode(builder(value)))
    assert max(chunk.count(key) for chunk in chunks) <= rows
    return "".join(chunks)


def validation_written(report: ValidationReport, rows: int) -> str:
    with patch.object(jsonio, "_JOIN_ROWS", rows):
        return written_in_groups(jsonio.validation_to_obj, report, rows, '"kind": ')


@given(st.one_of(metrics(), raw_matrices()))
@example(ALL_KINDS)
@example(WIDE_KINDS)
@example(ONE_DIAGONAL)
def test_validation_writer(space):
    report = validate_metric(space)
    want = oracle(reference_validation_obj(report))
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
    report = ValidationReport(False, False, (np.zeros((40, 40), dtype=np.int64), 3))
    groups = jsonio._violations((block,), 3, "\n  ")
    assert [c.count('"kind": ') for c in groups] == ([rows, 1] if extra > 0 else [m])
    # the report lists the synthetic block in place of its matrix's own
    with patch.object(ValidationReport, "_blocks", lambda self: (block,)):
        got = validation_written(report, rows)
        assert got == oracle(reference_validation_obj(report))


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
    with patch.object(core, "_SLAB_CELLS", 64):  # for the listing too
        report = validate_metric(space)
        blocks = list(report._blocks())
        kinds = [kind for kind, *_ in blocks]
        assert kinds[:3] == ["diagonal", "symmetry", "positivity"]
        assert kinds.count("triangle") >= 4 and len({len(b[1]) for b in blocks}) > 2
        assert (space.scaled[0].dtype == object) == (corner != 1)
        got = validation_written(report, rows)
    assert got == oracle(reference_validation_obj(report))


def test_validation_writer_memory_at_n96():
    # the benchmark's raw input: about 70k triangle rows, 10 MiB of text;
    # row groups keep the peak of validating and writing near the text:
    # 1.42 times it (14.2 MiB), the one listed block included, as when the
    # report stored it; one string per row held 1.77 times the text
    space = jsonio.space_from_obj(raw_weights(96, 1))
    tracemalloc.start()
    try:
        report = validate_metric(space)
        text = sum(map(len, jsonio.encode(jsonio.validation_to_obj(report))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.violations) > 60_000 and text > 9 * 2**20
    assert peak < 1.45 * text


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
    (block,) = validate_metric(ONE_DIAGONAL)._blocks()
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
        assert got == (1, oracle(reference_validation_obj(report)).encode(), b""), name


def kinds_file(n: int, seed: int) -> dict:
    """``raw_weights`` with three diagonal and two positivity witnesses."""
    obj = raw_weights(n, seed)
    rows = obj["dist"]
    for i in (0, 5, n - 1):
        rows[i][i] = "1/3"
    for i, j in ((1, 2), (3, n - 2)):
        rows[i][j] = rows[j][i] = "0"
    return obj


@pytest.mark.parametrize("name", ["raw-128", "kinds-40"])
def test_validate_writes_each_block_from_its_own_sides(tmp_path, name):
    # raw-128 has two triangle slabs; kinds-40, at one row per slab, has
    # two cheap blocks and then a triangle block for nearly every row:
    # each block is written from its own table of sides
    obj, cells = {
        "raw-128": (raw_weights(128, 2), core._SLAB_CELLS),
        "kinds-40": (kinds_file(40, 4), 40 * 40),
    }[name]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with patch.object(core, "_SLAB_CELLS", cells):
        report = validate_metric(jsonio.space_from_obj(obj))
        got = _run(["validate", str(path)])
        kinds = [kind for kind, *_ in report._blocks()]
    if name == "raw-128":
        assert kinds == ["triangle"] * 2
    else:
        assert kinds[:2] == ["diagonal", "positivity"] and len(kinds) > 30
    assert got == (1, oracle(reference_validation_obj(report)).encode(), b"")


def test_validation_writer_holds_one_block_at_a_time_at_n160():
    # four triangle slabs, 50 MB of text, the first slab's block 42% of it:
    # listed and written as it is taken, validating and writing hold that
    # block, its chunks and codes (0.62 of the text), where a report that
    # stored every block peaked at 0.76 (36.4 MiB), and the list of every
    # chunk and one table over every side at 1.12 times the text
    space = jsonio.space_from_obj(raw_weights(160, 1))
    tracemalloc.start()
    try:
        report = validate_metric(space)
        text = sum(map(len, jsonio.encode(jsonio.validation_to_obj(report))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(1 for _ in report._blocks()) == 4
    assert text > 40 * 2**20 and peak < 0.7 * text


def validated_and_written_peak(n: int) -> int:
    space = jsonio.space_from_obj(raw_weights(n, 1))
    tracemalloc.start()
    try:
        report = validate_metric(space)
        for _ in jsonio.encode(jsonio.validation_to_obj(report)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_validation_peak_stays_flat_as_the_report_grows():
    # eight times the violations (47.8 to 389.5 MiB of text), but one
    # slab's block at a time: 29.5 and 33.4 MiB, where a report that
    # stored every block peaked at 36.4 and 129.5 MiB
    assert validated_and_written_peak(320) <= 1.25 * validated_and_written_peak(160)


@pytest.mark.parametrize("name", ["raw", "metric", "ultrametric"])
def test_validate_command_decides_once(tmp_path, name):
    # validate_metric decides both verdicts; the writer lists a "no" from
    # the matrix without deciding it again, and on a metric lists nothing
    cand = {
        "raw": jsonio.space_from_obj(raw_weights(24, 3)),
        "metric": grid_space(24, lambda gap: 5 + gap % 6),  # certified
        "ultrametric": cantor_approx(4),
    }[name]
    path = tmp_path / "in.json"
    path.write_text("".join(jsonio.encode(jsonio.space_to_obj(cand))), encoding="utf-8")
    with core_calls("_holds", "_is_ultrametric", "_triangles") as calls:
        code, out, err = _run(["validate", str(path)])
    report = validate_metric(cand)
    assert (code, out, err) == (
        int(not report.is_metric),
        oracle(reference_validation_obj(report)).encode(),
        b"",
    )
    assert report.is_metric == (name != "raw")
    assert report.is_ultrametric == (name == "ultrametric")
    # Prim's tree settles an ultrametric, so no floor verdict runs on it
    assert calls == {
        "_holds": int(name != "ultrametric"),
        "_is_ultrametric": 1,
        "_triangles": int(name == "raw"),
    }


@pytest.mark.parametrize("first", ["writer", "violations"])
@pytest.mark.parametrize("name", ["i64", "obj", "one-diagonal", "metric"])
def test_listing_reads_agree_in_either_order(first, name):
    # each read lists the violations from the matrix anew: the writer and
    # the view agree in either order, and a metric lists nothing
    cand = {
        "i64": ALL_KINDS,
        "obj": WIDE_KINDS,
        "one-diagonal": ONE_DIAGONAL,
        "metric": grid_space(12, lambda gap: 5 + gap % 6),
    }[name]
    with core_calls("_holds", "_triangles") as calls:
        report = validate_metric(cand)
        decided = dict(calls)
        write = lambda: "".join(jsonio.encode(jsonio.validation_to_obj(report)))
        if first == "writer":
            text, violations = write(), report.violations
        else:
            violations, text = report.violations, write()
    want = brute_violations(cand)
    assert [(v.kind, v.witness, v.lhs, v.rhs) for v in violations] == want
    assert text == oracle(reference_validation_obj(report))
    assert report.is_metric == (want == []) == (name == "metric")
    assert decided["_triangles"] == 0 and calls["_holds"] == decided["_holds"] <= 1
    # the writer and the view each list a "no" once
    assert calls["_triangles"] == (0 if report.is_metric else 2)


def line_space(labels, positions) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_rows(
        labels, [[abs(a - b) for b in positions] for a in positions]
    )


# two clusters 20 apart at eps = 5: geometric certificates, some with a
# missing summand, and an object-path D (offsets down to 2^-70)
CLUSTERED = line_space("abcde", [0, F(3, 2**6), F(1, 2**9), 20, 20 + F(1, 2**70)])


def approximation_written(result, rows: int) -> str:
    with patch.object(jsonio, "_JOIN_ROWS", rows):
        return written_in_groups(jsonio.approximation_to_obj, result, rows, '"i": ')


@given(
    metrics(),
    st.sampled_from([F(1, 2), F(5), F(1, 10), F(3, 7)]),
    # every ratio here keeps 2r <= eta = eps / 5
    st.sampled_from([None, F(1, 100), F(2, 301)]),
)
@example(CLUSTERED, F(5), None)
def test_approximation_writer(space, eps, r):
    result = approximate(space, eps, r=r)
    want = oracle(reference_approximation_obj(result))
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
    assert got == oracle(reference_approximation_obj(result))


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
        got = written(jsonio.approximation_to_obj, result)
        assert got == oracle(reference_approximation_obj(result))


@given(
    st.lists(st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64),
             min_size=1, max_size=6, unique=True),
    st.sampled_from([F(1, 2), F(1, 5), F(2)]),
)
def test_fragility_writer(values, eps):
    report = fragility_experiment(values, eps)
    got = written(jsonio.fragility_to_obj, report)
    assert got == oracle(reference_fragility_obj(report))


@pytest.mark.parametrize(
    "n, delta, copies", [(1, F(1, 2), 2), (1, F(1), 1), (2, F(1), 3), (2, F(1, 2), 1)]
)
def test_funiv_writer(n, delta, copies):
    result = build_funiv_approx(n, delta, copies)
    assert written(jsonio.funiv_to_obj, result) == oracle(reference_funiv_obj(result))


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
