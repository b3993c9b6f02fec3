import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from metric_forge import (
    FiniteMetricSpace,
    Nebula,
    Violation,
    cantor_approx,
    cli,
    core,
    cover,
    jsonio,
    random_metric,
    validate_metric,
)

from support import raw_weights

EQUILATERAL = {
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}

TWO_POINT = {
    "points": ["x", "y"],
    "dist": [["0", "13/10"], ["13/10", "0"]],
}


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- scalar parsing -----------------------------------------------------------


def test_parse_scalar_strictness():
    assert jsonio.parse_scalar("13/10") == F(13, 10)
    assert jsonio.parse_scalar("2") == 2
    # "2\n" passed a $-anchored match and "\u0663" (Arabic-Indic three) passed \d
    for bad in ("1.5", "-3", "3/-2", "1/0", " 2", "2/4 ", "2\n", "\u0663", "1/1\u0663"):
        with pytest.raises(ValueError) as err:
            jsonio.parse_scalar(bad)
        # the space reader parses its strings with the same grammar
        with pytest.raises(ValueError) as in_space:
            jsonio.space_from_obj({"points": ["a"], "dist": [[bad]]})
        assert str(in_space.value) == str(err.value)


def test_space_reader_rejects_asymmetry():
    obj = {"points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
    with pytest.raises(ValueError, match="symmetric"):
        jsonio.space_from_obj(obj)


def test_space_reader_names_first_asymmetric_pair():
    obj = {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "1"], ["1", "0", "1/2"], ["1", "1/3", "0"]],
    }
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(b, c\)$"):
        jsonio.space_from_obj(obj)
    obj["dist"][2][1] = "2/4"  # equal to "1/2" as a rational
    assert jsonio.space_from_obj(obj).dist[2][1] == F(1, 2)


@pytest.mark.parametrize("odd", [True, 1.0])
def test_space_reader_rejects_bool_and_float_equal_to_an_int(odd):
    obj = {"points": ["a", "b"], "dist": [["0", 1], [odd, "0"]]}
    with pytest.raises(ValueError, match="expected a rational string"):
        jsonio.space_from_obj(obj)


def test_space_reader_shares_equal_strings():
    obj = {
        "points": ["a", "b", "c"],
        "dist": [["0", "3/2", "1"], ["3/2", "0", "1"], ["1", "1", "0"]],
    }
    space = jsonio.space_from_obj(obj)
    assert space.dist[0][1] is space.dist[1][0]
    assert space.dist[0][2] is space.dist[2][1]


def test_space_roundtrip():
    space = FiniteMetricSpace.from_rows(
        ["a", "b"], [[F(0), F(13, 10)], [F(13, 10), F(0)]]
    )
    assert jsonio.space_from_obj(jsonio.space_to_obj(space)) == space


def test_nebula_and_plan_roundtrip():
    from metric_forge import cover, greedy_clopen_partition, random_metric

    neb = cover([F(0), F(3, 10), F(17, 10)], 1)
    assert jsonio.nebula_from_obj(jsonio.nebula_to_obj(neb)) == neb
    plan = greedy_clopen_partition(random_metric(6, 10, seed=3), F(1, 2))
    assert jsonio.plan_from_obj(jsonio.plan_to_obj(plan)) == plan


def test_nebula_reader_rejects_non_integer_q():
    rest = {"bounded": [["0", "0"]], "tail_start": "2"}
    assert jsonio.nebula_from_obj({"q": 1, **rest}).q == 1
    for bad in (2.9, True, "1", None):
        with pytest.raises(ValueError, match="q must be an integer"):
            jsonio.nebula_from_obj({"q": bad, **rest})
        with pytest.raises(ValueError, match="q must be an integer"):
            Nebula.make(bad, [(0, 0)], 2)


def test_plan_reader_rejects_non_integer_indices():
    good = {"clusters": [[0, 1], [2]], "reps": [0, 2], "radius": "1/2"}
    plan = jsonio.plan_from_obj(good)
    assert plan.clusters == ((0, 1), (2,)) and plan.reps == (0, 2)
    for bad in (0.7, True, "0"):
        with pytest.raises(ValueError, match="must be an integer"):
            jsonio.plan_from_obj({**good, "clusters": [[bad, 1], [2]]})
        with pytest.raises(ValueError, match="must be an integer"):
            jsonio.plan_from_obj({**good, "reps": [bad, 2]})


def test_nebula_check_float_q_exit_two(tmp_path, capsys):
    path = write_json(
        tmp_path / "neb.json",
        {"q": 2.9, "bounded": [["0", "0"]], "tail_start": "3"},
    )
    code, out, err = run(capsys, "nebula", "check", path)
    assert code == 2 and out == ""
    assert "q must be an integer" in err


@pytest.mark.parametrize(
    "obj, field",
    [
        # a string is iterable, so "ab" read as the two labels a and b
        ({"points": "ab", "dist": [["0", "1"], ["1", "0"]]}, "points"),
        ({"points": [1, 2], "dist": [["0", "1"], ["1", "0"]]}, "points"),
        ({"points": [True, "x"], "dist": [["0", "1"], ["1", "0"]]}, "points"),
        # the row "01" read as the two distances 0 and 1
        ({"points": ["a", "b"], "dist": ["01", ["1", "0"]]}, "dist"),
    ],
    ids=["points-string", "points-ints", "points-bool", "dist-string-row"],
)
def test_space_reader_rejects_non_array_containers(tmp_path, capsys, obj, field):
    code, out, err = run(capsys, "validate", write_json(tmp_path / "sp.json", obj))
    assert code == 2 and out == ""
    assert f"'{field}' must be an array of" in err


def test_nebula_reader_rejects_non_pair_intervals(tmp_path, capsys):
    # "00" unpacked as the interval [0, 0], which nebula check called valid
    for bounded in (["00"], [["0"]], [["0", "0", "0"]], "00", {"0": "0"}):
        obj = {"q": 0, "bounded": bounded, "tail_start": "2"}
        path = write_json(tmp_path / "n.json", obj)
        code, out, err = run(capsys, "nebula", "check", path)
        assert code == 2 and out == ""
        assert "'bounded' must be an array of [lo, hi] arrays" in err
    with pytest.raises(ValueError, match="needs 'q', 'bounded' and 'tail_start'"):
        jsonio.nebula_from_obj({"q": 0, "bounded": [["0", "0"]]})


# --- validate -----------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_json(tmp_path / "sp.json", EQUILATERAL)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["is_metric"] is True


def test_validate_failure_exit_one(tmp_path, capsys):
    bad = {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "3"], ["1", "0", "1"], ["3", "1", "0"]],
    }
    path = write_json(tmp_path / "sp.json", bad)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["is_metric"] is False
    assert report["violations"][0]["kind"] == "triangle"


def test_validate_builds_no_violation_objects(tmp_path, capsys, monkeypatch):
    # the benchmark's raw input: 96 points, about 70k triangle violations,
    # written from the report's integer table
    obj = raw_weights(96, 1)
    path = write_json(tmp_path / "raw.json", obj)
    built = []

    def counting(*args):
        built.append(None)
        return Violation(*args)

    monkeypatch.setattr(core, "Violation", counting)
    code, out, _ = run(capsys, "validate", path)
    assert (code, len(built)) == (1, 0)
    report = validate_metric(jsonio.space_from_obj(obj))
    want = jsonio.validation_to_obj(report)
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"
    # the view is built once, on the first read
    assert len(built) == len(report.violations) > 60_000
    assert report.violations is report.violations
    assert len(built) == len(report.violations)


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"points": [,]}', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("command", [["validate"], ["nebula", "check"]])
def test_deeply_nested_json_exit_two(tmp_path, capsys, command):
    # the decoder's RecursionError is a RuntimeError, once mapped to exit 3
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: JSON in {path} is nested too deep\n"


def test_recursion_error_elsewhere_exit_three(tmp_path, capsys, monkeypatch):
    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "validate_metric", deep)
    sp = write_json(tmp_path / "s.json", EQUILATERAL)
    code, _, err = run(capsys, "validate", sp)
    assert code == 3
    assert err.startswith("internal error:")


def test_usage_error_exit_two(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


# --- one parser per process ---------------------------------------------------


def fresh_parse(capsys, argv):
    """Exit code, stdout and stderr of a new parser's parse, as main gives them."""
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["no-such-command"],
        ["approximate", "--help"],
        ["approximate", "sp.json"],
        ["approximate", "sp.json", "--epsilon", "1", "--bogus"],
        ["nebula"],
        ["nebula", "cover", "v.json", "--q", "x"],
        ["plot", "range", "sp.json"],
        ["gen", "random", "--help"],
    ],
)
def test_main_parses_like_a_new_parser(capsys, argv):
    cli.main(["--help"])  # the shared parser exists before the call
    capsys.readouterr()
    assert cli._parser() is cli._parser() is not cli.build_parser()
    assert run(capsys, *argv) == fresh_parse(capsys, argv)


def test_help_follows_columns_set_after_the_first_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    wide = run(capsys, "approximate", "--help")
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run(capsys, "approximate", "--help")
    assert narrow == fresh_parse(capsys, ["approximate", "--help"])
    assert narrow[1] != wide[1]
    assert max(map(len, narrow[1].splitlines())) <= 40 < max(map(len, wide[1].splitlines()))


def test_parses_in_a_row_share_no_defaults(tmp_path, capsys):
    sp = write_json(tmp_path / "two.json", TWO_POINT)
    sequence = [
        ["approximate", sp, "--epsilon", "5", "--r", "1/4"],
        ["approximate", sp, "--epsilon", "5"],
        ["nebula", "cover", sp, "--q", "3"],
        ["approximate", sp, "--epsilon", "5"],
    ]
    for argv in sequence:
        assert vars(cli._parser().parse_args(argv)) == vars(
            cli.build_parser().parse_args(argv)
        )
    assert cli._parser().parse_args(sequence[1]).r is None
    # end to end: the second run takes the default r = min(1/2, 5/10)
    rs = [json.loads(run(capsys, *argv)[1])["r"] for argv in sequence[:2]]
    assert rs == ["1/4", "1/2"]


# --- approximate --------------------------------------------------------------


def test_approximate_pipeline(tmp_path, capsys):
    sp = write_json(tmp_path / "two.json", TWO_POINT)
    out_path = tmp_path / "result.json"
    code, _, _ = run(capsys, "approximate", sp, "--epsilon", "5", "-o", str(out_path))
    assert code == 0
    result = json.loads(out_path.read_text())
    assert result["eta"] == "1" and result["r"] == "1/2"
    assert result["D"]["dist"][0][1] == "2"
    assert result["certificates"] == [
        {"i": 0, "j": 1, "l": 2, "m": None, "n": None}
    ]


def test_approximate_r_override(tmp_path, capsys):
    sp = write_json(tmp_path / "two.json", TWO_POINT)
    code, out, _ = run(capsys, "approximate", sp, "--epsilon", "5", "--r", "1/4")
    assert code == 0
    assert json.loads(out)["r"] == "1/4"
    code, _, err = run(capsys, "approximate", sp, "--epsilon", "5", "--r", "2/3")
    assert code == 2


def near_pair(tiny):
    """Points a, b at distance tiny, and c at distance 1 from both."""
    dist = [["0", tiny, "1"], [tiny, "0", "1"], ["1", "1", "0"]]
    return {"points": ["a", "b", "c"], "dist": dist}


def test_approximate_refuses_a_deep_level_quickly(tmp_path, capsys):
    # r = 999/1000 would need about 26,000 levels below eta = 200000 to
    # reach 1/10^6; the level walk stops at depth 1434, the first k whose
    # scale 1000^k reaches 10^4300, and builds no level past it
    sp = write_json(tmp_path / "sp.json", near_pair("1/1000000"))
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "approximate", sp, "--epsilon", "1000000", "--r", "999/1000"
    )
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err == (
        "error: level depth 1434 or more needed, past the cap:"
        " den(eta) * den(r)^1434 has over 4300 digits\n"
    )


def test_approximate_keeps_a_distance_of_ten_to_the_minus_4200(tmp_path, capsys):
    sp = write_json(tmp_path / "sp.json", near_pair(f"1/{10**4200}"))
    out_path = tmp_path / "result.json"
    code, _, err = run(capsys, "approximate", sp, "--epsilon", "1/2", "-o", str(out_path))
    assert (code, err) == (0, "")
    # rounded up to eta * r^3227 = 1/(10 * 20^3227), whose denominator has
    # 4200 digits
    got = json.loads(out_path.read_text())["D"]["dist"][0][1]
    assert got == f"1/{10 * 20**3227}"


# --- nebula -------------------------------------------------------------------


def test_nebula_cover_and_check(tmp_path, capsys):
    values = write_json(tmp_path / "vals.json", ["0", "3/10", "17/10"])
    neb_path = tmp_path / "neb.json"
    code, _, _ = run(capsys, "nebula", "cover", values, "--q", "1", "-o", str(neb_path))
    assert code == 0
    neb = json.loads(neb_path.read_text())
    assert neb == {
        "bounded": [["0", "0"], ["3/10", "3/10"], ["17/10", "17/10"]],
        "q": 1,
        "tail_start": "2",
    }
    code, out, _ = run(capsys, "nebula", "check", str(neb_path))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_nebula_check_invalid_exit_one(tmp_path, capsys):
    path = write_json(
        tmp_path / "neb.json",
        {"q": 1, "bounded": [["0", "0"]], "tail_start": "1"},
    )
    code, out, _ = run(capsys, "nebula", "check", path)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any("tail not in (1, oo)" in v for v in report["violations"])


def test_nebula_margin(tmp_path, capsys):
    sp = write_json(
        tmp_path / "sp.json",
        {"points": ["x", "y"], "dist": [["0", "3/10"], ["3/10", "0"]]},
    )
    neb = write_json(
        tmp_path / "neb.json",
        {"q": 1, "bounded": [["0", "0"], ["3/10", "3/10"]], "tail_start": "2"},
    )
    code, out, _ = run(capsys, "nebula", "margin", sp, neb)
    assert code == 0
    got = json.loads(out)
    assert got["epsilon"] == "3/80"
    assert got["fattened"]["tail_start"] == "157/80"


def test_nebula_refuses_q_past_the_cap(tmp_path, capsys):
    values = write_json(tmp_path / "vals.json", ["0", "3/10"])
    code, out, err = run(capsys, "nebula", "cover", values, "--q", "12901")
    assert (code, out, err) == (2, "", "error: q must be at most 12900\n")
    sp = write_json(
        tmp_path / "sp.json",
        {"points": ["x", "y"], "dist": [["0", "3/10"], ["3/10", "0"]]},
    )
    neb = write_json(
        tmp_path / "neb.json",
        {
            "q": 10**12,
            "bounded": [["0", "0"], ["3/10", "3/10"]],
            "tail_start": str(10**12 + 1),
        },
    )
    code, out, _ = run(capsys, "nebula", "check", neb)
    assert code == 1
    report = json.loads(out)
    assert report == {"valid": False, "violations": ["q must be at most 12900"]}
    code, out, err = run(capsys, "nebula", "margin", sp, neb)
    assert (code, out) == (2, "")
    assert err == "error: margin needs a valid nebula: ('q must be at most 12900',)\n"
    svg = tmp_path / "out.svg"
    code, out, err = run(capsys, "plot", "range", sp, "--nebula", neb, "-o", str(svg))
    assert (code, out) == (2, "")
    assert err == "error: plot needs a valid nebula: ('q must be at most 12900',)\n"
    assert not svg.exists()


def test_nebula_accepts_q_at_the_cap(tmp_path, capsys):
    values = write_json(tmp_path / "vals.json", ["0", "3/10"])
    sp = write_json(
        tmp_path / "sp.json",
        {"points": ["x", "y"], "dist": [["0", "3/10"], ["3/10", "0"]]},
    )
    neb = tmp_path / "neb.json"
    code, _, _ = run(capsys, "nebula", "cover", values, "--q", "12900", "-o", str(neb))
    assert code == 0
    assert json.loads(neb.read_text())["q"] == 12900
    code, out, _ = run(capsys, "nebula", "check", str(neb))
    assert (code, json.loads(out)["valid"]) == (0, True)
    code, out, _ = run(capsys, "nebula", "margin", sp, str(neb))
    assert code == 0
    assert F(json.loads(out)["epsilon"]) == F(1, 2**12902)


# --- embed --------------------------------------------------------------------


def test_embed_frechet(tmp_path, capsys):
    path = write_json(tmp_path / "sp.json", EQUILATERAL)
    code, out, _ = run(capsys, "embed", "frechet", path, "--n", "3")
    assert code == 0
    got = json.loads(out)
    assert got["coords"][0] == ["0", "1", "1"]


def test_embed_frechet_over_cap_exit_two(tmp_path, capsys):
    # refused before any of the k * n coordinates exist
    path = write_json(tmp_path / "sp.json", TWO_POINT)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "embed", "frechet", path, "--n", str(10**12))
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert err == f"error: 2 x {10**12} coordinates exceed the cap of 1048576\n"


def test_embed_search(tmp_path, capsys):
    pat = write_json(
        tmp_path / "pat.json",
        {"points": ["p", "q"], "dist": [["0", "1/2"], ["1/2", "0"]]},
    )
    host_obj = None
    code, out, _ = run(capsys, "universal", "pairs", "--values", "1/2,3")
    host_obj = json.loads(out)
    host = write_json(tmp_path / "host.json", host_obj)
    code, out, _ = run(capsys, "embed", "search", pat, host)
    assert code == 0
    got = json.loads(out)
    assert got["found"] is True and got["exact"] is True
    assert got["map"] == {"p": "a0", "q": "b0"}

    tri = write_json(tmp_path / "tri.json", EQUILATERAL)
    code, out, _ = run(capsys, "embed", "search", tri, host)
    assert code == 0
    assert json.loads(out) == {"found": False}


# --- universal / fragility ------------------------------------------------------


def test_universal_pairs_values(capsys):
    code, out, _ = run(capsys, "universal", "pairs", "--values", "1/2,3")
    assert code == 0
    got = json.loads(out)
    assert got["points"] == ["a0", "b0", "a1", "b1"]
    assert got["dist"][1][3] == "9/2"


@pytest.mark.parametrize(
    "argv", [["universal", "pairs"], ["fragility", "--epsilon", "1/2"]],
    ids=["pairs", "fragility"],
)
def test_pair_values_over_cap_exit_two(capsys, argv):
    values = ",".join(str(k) for k in range(1, 502))
    code, out, err = run(capsys, *argv, "--values", values)
    assert code == 2
    assert out == ""
    assert err == "error: 501 pair values exceed the cap of 500\n"


def test_universal_funiv(capsys):
    code, out, _ = run(
        capsys, "universal", "funiv", "--n", "1", "--delta", "1/2", "--copies", "2"
    )
    assert code == 0
    got = json.loads(out)
    assert got["net_points"] == [["0"], ["1/2"], ["1"]]
    assert len(got["space"]["points"]) == 6


def test_universal_funiv_copies_over_cap_exit_two(capsys):
    code, out, err = run(
        capsys, "universal", "funiv", "--n", "1", "--delta", "1/2",
        "--copies", "1000000000",
    )
    assert code == 2
    assert out == ""
    assert "1000000000 x 3^1 net points exceed the cap of 1000" in err


def test_universal_funiv_huge_dimension_exit_two(capsys):
    n = "100000000"  # 2^n points: refused without computing 2^n
    code, _, err = run(capsys, "universal", "funiv", "--n", n, "--delta", n)
    assert code == 2
    assert f"1 x 2^{n} net points exceed the cap of 1000" in err


def test_universal_funiv_zero_delta_exit_two(capsys):
    code, _, err = run(capsys, "universal", "funiv", "--n", "1", "--delta", "0")
    assert code == 2
    assert "delta must be positive" in err


@pytest.mark.parametrize("eps", ["1/2", "5"])
def test_approximate_non_metric_input_exit_two(tmp_path, capsys, eps):
    # d(a, c) = 5 > d(a, b) + d(b, c) = 2: once an internal error, exit 3
    obj = {
        "points": ["a", "b", "c"],
        "dist": [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
    }
    sp = write_json(tmp_path / "s.json", obj)
    code, out, err = run(capsys, "approximate", sp, "--epsilon", eps)
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: input is not a metric: triangle violation at (0, 1, 2)"
    )


@pytest.mark.parametrize(
    "exc",
    [
        RuntimeError("internal: approximation lost metricity"),
        MemoryError(),
        MemoryError("Unable to allocate 8.00 MiB"),
    ],
)
def test_internal_error_exit_three(tmp_path, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "approximate", broken)
    sp = write_json(tmp_path / "s.json", EQUILATERAL)
    code, out, err = run(capsys, "approximate", sp, "--epsilon", "1/2")
    assert code == 3
    assert out == ""
    # a MemoryError without a message is named; any other message is kept
    assert err == f"internal error: {str(exc) or 'out of memory'}\n"


def test_failed_encode_leaves_output_file(tmp_path, capsys, monkeypatch):
    # the output is built in full before its file is opened, so a failure
    # while encoding leaves an existing -o file as it was
    def broken(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(jsonio, "approximation_chunks", broken)
    sp = write_json(tmp_path / "s.json", EQUILATERAL)
    out_path = tmp_path / "out.json"
    out_path.write_text("previous\n", encoding="utf-8")
    code, out, err = run(
        capsys, "approximate", sp, "--epsilon", "1/2", "-o", str(out_path)
    )
    assert code == 3
    assert err.startswith("internal error:")
    assert out_path.read_text(encoding="utf-8") == "previous\n"


def test_fragility_command(capsys):
    code, out, _ = run(
        capsys, "fragility", "--values", "1/8,1/4,3/8,1/2", "--epsilon", "1/2"
    )
    assert code == 0
    got = json.loads(out)
    assert got["eta"] == "1/10"
    assert got["lost_values"]
    assert F(got["missed_interval"]["length"]) >= F(1, 20)


# --- gen / plot ------------------------------------------------------------------


def test_gen_commands(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "random", "--n", "4", "--seed", "7")
    assert code == 0
    first = out
    code, out, _ = run(capsys, "gen", "random", "--n", "4", "--seed", "7")
    assert out == first

    code, out, _ = run(capsys, "gen", "cantor", "--k", "2")
    assert code == 0
    got = json.loads(out)
    assert got["dist"][0][1] == "1/4" or got["dist"][0][1] == "1/2"


@pytest.mark.parametrize("k", [10**12, 11])
def test_gen_cantor_over_cap_exit_two(capsys, k):
    # refused before 2^k labels or a 4^k matrix exist; 2^k itself is never
    # computed, so k = 10^12 returns at once too
    code, out, err = run(capsys, "gen", "cantor", "--k", str(k))
    assert code == 2
    assert out == ""
    assert err == f"error: 2^{k} points exceed the cap of 1024\n"


@pytest.mark.parametrize("n", [10**12, 1025])
def test_gen_random_over_cap_exit_two(capsys, n):
    # refused before the RNG runs or any of the n^2 Fractions exist
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gen", "random", "--n", str(n))
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert err == f"error: {n} points exceed the cap of 1024\n"


def test_cantor_cap_is_inclusive():
    assert cantor_approx(10).n == 1024


def test_plot_range_svg(tmp_path, capsys):
    sp = write_json(tmp_path / "sp.json", TWO_POINT)
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "plot", "range", sp, "-o", str(svg_path))
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert 'data-exact="13/10"' in svg


def integer_ticks(svg):
    return [int(k) for k in re.findall(r'text-anchor="middle">(\d+)<', svg)]


@pytest.mark.parametrize(
    "top, step", [(1, 1), (1000, 1), (1001, 10), (10**4, 10), (10**9, 10**6)]
)
def test_plot_range_ticks_stay_bounded(tmp_path, capsys, top, step):
    sp = write_json(
        tmp_path / "sp.json", {"points": ["x", "y"], "dist": [[0, top], [top, 0]]}
    )
    svg_path = tmp_path / "out.svg"
    t0 = time.perf_counter()
    code, _, _ = run(capsys, "plot", "range", sp, "-o", str(svg_path))
    assert time.perf_counter() - t0 < 1
    assert code == 0
    ticks = integer_ticks(svg_path.read_text())
    assert len(ticks) <= 1001
    assert ticks == list(range(0, top + 1, step))


@given(st.integers(0, 2**130), st.integers(1, 2**130), st.integers(1, 10**6))
def test_plot_coordinates_divide_integers_as_the_fraction_did(num, den, T):
    # render_range_svg's px: int true division is correctly rounded
    v = F(num, den)
    assert v.numerator / (v.denominator * T) == float(v / T)


def wide_space():
    """Every 1 + a/b with b <= 64, then 7/3 and 22/7: lcm near 2^90."""
    vals = sorted({1 + F(a, b) for b in range(1, 65) for a in range(b)})
    vals += [F(7, 3), F(22, 7)]
    n = 1
    while n * (n - 1) // 2 < len(vals):
        n += 1
    rows = [[F(0)] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(it, vals[-1])
    return FiniteMetricSpace([f"p{i}" for i in range(n)], rows)


# sha256 of the range SVG of wide_space, bare and with its q = 3 cover,
# recorded while px still computed float(Fraction(v) / T)
WIDE_SVG_DIGESTS = [
    "de3c78344e296fde0cabeae9d7146329aaf939472ffa06884529fedee45d40e1",
    "0eed9fa12a6f473fa4e14beb9793ff1942c5771ef6ea27b81603e5af3a1379dc",
]


def test_plot_of_an_object_path_space_keeps_its_bytes():
    space = wide_space()
    assert space.scaled[0].dtype == object
    digests = [
        hashlib.sha256(cli.render_range_svg(space, nebula).encode()).hexdigest()
        for nebula in (None, cover(space.values(), 3))
    ]
    assert digests == WIDE_SVG_DIGESTS


def test_plot_with_nebula(tmp_path, capsys):
    sp = write_json(
        tmp_path / "sp.json",
        {"points": ["x", "y"], "dist": [["0", "3/10"], ["3/10", "0"]]},
    )
    neb = write_json(
        tmp_path / "neb.json",
        {"q": 1, "bounded": [["0", "0"], ["3/10", "3/10"]], "tail_start": "2"},
    )
    svg_path = tmp_path / "out.svg"
    code, _, _ = run(capsys, "plot", "range", sp, "--nebula", neb, "-o", str(svg_path))
    assert code == 0
    assert 'data-exact="[3/10,3/10]"' in svg_path.read_text()


def test_plot_refuses_an_invalid_nebula(tmp_path, capsys):
    # [0, 5] holds the value 3, but the nebula is invalid: it is refused
    # with the validator's list, as margin refuses it, and no SVG is written
    sp = write_json(
        tmp_path / "sp.json", {"points": ["x", "y"], "dist": [["0", "3"], ["3", "0"]]}
    )
    neb = write_json(
        tmp_path / "neb.json",
        {"q": 0, "bounded": [["0", "5"], ["1", "2"]], "tail_start": "7"},
    )
    svg_path = tmp_path / "out.svg"
    code, out, err = run(capsys, "plot", "range", sp, "--nebula", neb, "-o", str(svg_path))
    assert (code, out) == (2, "")
    assert err == (
        "error: plot needs a valid nebula: ('interval [0, 5] has width 5 >= 2^-0',"
        " 'interval [1, 2] has width 1 >= 2^-0',"
        " 'intervals [0, 5] and [1, 2] overlap or touch')\n"
    )
    assert not svg_path.exists()


def test_plot_with_a_valid_nebula_keeps_its_bytes(tmp_path, capsys):
    space = wide_space()
    sp, neb, svg = (tmp_path / name for name in ("sp.json", "neb.json", "out.svg"))
    sp.write_text("".join(jsonio.space_chunks(space)), encoding="utf-8")
    neb.write_text(
        "".join(jsonio.encode(jsonio.nebula_to_obj(cover(space.values(), 3)))),
        encoding="utf-8",
    )
    code, _, _ = run(capsys, "plot", "range", str(sp), "--nebula", str(neb), "-o", str(svg))
    assert code == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == WIDE_SVG_DIGESTS[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "random", "--n", "2", "-o", ""],
        ["gen", "cantor", "--k", "1", "-o", ""],
        ["approximate", "{sp}", "--epsilon", "1/2", "--r", ""],
        ["approximate", "{sp}", "--epsilon", "1/2", "-o", ""],
        ["embed", "search", "{sp}", "{sp}", "--distortion", ""],
        ["plot", "range", "{sp}", "--nebula", "", "-o", "{svg}"],
        ["plot", "range", "{sp}", "-o", ""],
    ],
    ids=[
        "random-o",
        "cantor-o",
        "approximate-r",
        "approximate-o",
        "search-distortion",
        "plot-nebula",
        "plot-o",
    ],
)
def test_empty_option_value_exit_two(tmp_path, capsys, monkeypatch, argv):
    # an empty string is a given value, never the option left out
    monkeypatch.chdir(tmp_path)
    sp = write_json(tmp_path / "sp.json", EQUILATERAL)
    svg = str(tmp_path / "out.svg")
    code, out, err = run(capsys, *(a.format(sp=sp, svg=svg) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["sp.json"]


def test_oversized_input_exit_two(tmp_path, capsys):
    # a sparse file: its size is over the cap, but no byte is ever written
    path = tmp_path / "huge.json"
    path.touch()
    os.truncate(path, cli._MAX_INPUT_BYTES + 1)
    for argv in (["validate", str(path)], ["nebula", "cover", str(path), "--q", "1"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: {path} has {cli._MAX_INPUT_BYTES + 1} bytes, over the cap"
            f" of {cli._MAX_INPUT_BYTES}\n"
        )


def test_input_cap_is_inclusive(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "sp.json", EQUILATERAL)
    size = os.stat(path).st_size
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size)
    assert run(capsys, "validate", path)[0] == 0
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size - 1)
    assert run(capsys, "validate", path)[0] == 2


def test_input_cap_holds_for_a_pipe(capsys, monkeypatch):
    # a pipe's size reads 0, so only a bounded read can refuse it
    text = json.dumps(EQUILATERAL).encode()
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", 10)
    r, w = os.pipe()
    try:
        os.write(w, text)
        os.close(w)
        code, out, err = run(capsys, "validate", f"/dev/fd/{r}")
    finally:
        os.close(r)
    assert (code, out) == (2, "")
    assert err == f"error: /dev/fd/{r} has more than 10 bytes, the cap\n"


def test_loading_a_small_space_allocates_about_its_size(tmp_path):
    # a read of the whole cap at once would allocate 32 MiB for any input
    import tracemalloc

    path = tmp_path / "sp.json"
    path.write_text("".join(jsonio.space_chunks(random_metric(300, seed=1))))
    assert 10**6 < os.stat(path).st_size < 2 * 10**6
    tracemalloc.start()
    try:
        space = jsonio.space_from_obj(cli._load_json(str(path)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n == 300
    assert peak < 2**24


@pytest.mark.parametrize(
    "argv", [["random", "--n", "8"], ["cantor", "--k", "3"]], ids=["random", "cantor"]
)
def test_gen_refuses_a_space_its_reader_would(tmp_path, capsys, monkeypatch, argv):
    out_path = tmp_path / "sp.json"
    code, out, _ = run(capsys, "gen", *argv, "-o", str(out_path))
    assert (code, out) == (0, "")
    size = os.stat(out_path).st_size
    out_path.unlink()
    # the reader takes exactly the cap, so the generator writes exactly it
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size)
    assert run(capsys, "gen", *argv, "-o", str(out_path))[0] == 0
    assert run(capsys, "validate", str(out_path))[0] == 0
    out_path.unlink()
    monkeypatch.setattr(cli, "_MAX_INPUT_BYTES", size - 1)
    for extra in (["-o", str(out_path)], []):
        code, out, err = run(capsys, "gen", *argv, *extra)
        assert (code, out) == (2, "")
        assert err == (
            f"error: the space would take {size} bytes, over the input cap of"
            f" {size - 1}\n"
        )
        assert not out_path.exists()


def test_largest_generated_space_checks_in_bounded_memory(tmp_path):
    # each command runs in its own child under a 1 GiB address-space limit;
    # an n x n x n check at n = 1024 would ask for 8 GiB and exit 3
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    space_path, result_path = tmp_path / "space.json", tmp_path / "result.json"
    outputs = []
    for argv in (
        ["gen", "random", "--n", "1024", "--seed", "1", "-o", space_path],
        ["validate", space_path],
        ["approximate", space_path, "--epsilon", "1/2", "-o", result_path],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "metric_forge.cli", *map(str, argv)],
            env=env,
            preexec_fn=limit,
            capture_output=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b""), argv
        outputs.append(done.stdout)
    report = json.loads(outputs[1])
    assert (report["is_metric"], report["violations"]) == (True, [])
    assert outputs[2] == b"" and result_path.stat().st_size > 0


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err
