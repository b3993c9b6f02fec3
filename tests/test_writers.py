"""The direct JSON encoders against ``json.dumps`` of the dict builders.

The chunks of each encoder must join to exactly ``json.dumps(obj,
indent=2, sort_keys=True) + "\\n"`` of the matching ``jsonio.*_to_obj`` builder,
and the CLI's outputs must keep the digests they had before the writers
existed.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import (
    FiniteMetricSpace,
    approximate,
    build_funiv_approx,
    cli,
    fragility_experiment,
    jsonio,
    validate_metric,
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


@given(st.one_of(metrics(), raw_matrices()))
@example(ALL_KINDS)
def test_validation_writer(space):
    report = validate_metric(space)
    got = written(jsonio.validation_chunks, report)
    assert got == oracle(jsonio.validation_to_obj(report))


def test_validation_example_has_every_kind():
    report = validate_metric(ALL_KINDS)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"diagonal", "symmetry", "positivity", "triangle"}


def line_space(labels, positions) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_rows(
        labels, [[abs(a - b) for b in positions] for a in positions]
    )


# two clusters 20 apart at eps = 5: geometric certificates, some with a
# missing summand, and an object-path D (offsets down to 2^-70)
CLUSTERED = line_space("abcde", [0, F(3, 2**6), F(1, 2**9), 20, 20 + F(1, 2**70)])


@given(
    metrics(),
    st.sampled_from([F(1, 2), F(5), F(1, 10), F(3, 7)]),
    # every ratio here keeps 2r <= eta = eps / 5
    st.sampled_from([None, F(1, 100), F(2, 301)]),
)
@example(CLUSTERED, F(5), None)
def test_approximation_writer(space, eps, r):
    result = approximate(space, eps, r=r)
    got = written(jsonio.approximation_chunks, result)
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
