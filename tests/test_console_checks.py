"""The checks that CI once ran as shell on the console script.

Each check writes its input file, runs ``metric-forge`` commands and
judges the exit codes and the outputs against a plain oracle: a triple
loop for a ``validate`` report, a ``Fraction`` rebuild for the
certificates of an ``approximate`` result.  A
command runs through ``cli.main`` in this process, unless the environment
variable ``METRIC_FORGE_EXE`` names an executable: then it runs that, in
a child process.  CI sets it to the installed ``metric-forge``:

    METRIC_FORGE_EXE=metric-forge python -m pytest tests/test_console_checks.py
"""

import io
import json
import os
import random
import subprocess
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

EXE = os.environ.get("METRIC_FORGE_EXE")


def run(*argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``metric-forge`` command."""
    argv = [str(a) for a in argv]
    if EXE:
        done = subprocess.run([EXE, *argv], capture_output=True, text=True, check=False)
        return done.returncode, done.stdout, done.stderr
    from metric_forge import cli  # only here, so the executable's checks import nothing

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write_space(path, points, rows):
    """A space file of ``points`` and integer ``rows``, each entry a string."""
    obj = {"points": list(points), "dist": [[str(v) for v in row] for row in rows]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def triple_loop(rows) -> list[tuple]:
    """Every (kind, witness, lhs, rhs) triangle row, in the report's order."""
    d = [[int(v) for v in row] for row in rows]
    n = len(d)
    return [
        ("triangle", [i, k, j], str(d[i][j]), str(d[i][k] + d[k][j]))
        for i in range(n)
        for k in range(n)
        for j in range(i + 1, n)
        if k not in (i, j) and d[i][j] > d[i][k] + d[k][j]
    ]


def reported(out: str) -> list[tuple]:
    rows = json.loads(out)["violations"]
    return [(v["kind"], v["witness"], v["lhs"], v["rhs"]) for v in rows]


def test_one_broken_triangle(tmp_path):
    # d(a,c) = 5 > 1 + 1: exit 1, and the report's one violation is the
    # triangle at (0, 1, 2)
    path = write_space(tmp_path / "bad.json", "abc", [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    code, out, _ = run("validate", path)
    assert code == 1
    violations = json.loads(out)["violations"]
    assert [(x["kind"], x["witness"]) for x in violations] == [("triangle", [0, 1, 2])]


def test_sums_past_int16_do_not_wrap(tmp_path):
    # entries at 16383 and 16384 put two-entry sums past int16, so the
    # kernels compare on int32: one triangle breaks, d(a,c) = 16383 > 1 + 1
    # through d, and 16384 + 16384 through b must not wrap into a second one
    rows = [
        [0, 16384, 16383, 1],
        [16384, 0, 16384, 16384],
        [16383, 16384, 0, 1],
        [1, 16384, 1, 0],
    ]
    path = write_space(tmp_path / "straddle.json", "abcd", rows)
    code, out, _ = run("validate", path)
    assert code == 1
    want = triple_loop(rows)
    assert reported(out) == want and len(want) == 1


def test_thousands_of_rows_over_several_row_groups(tmp_path):
    # 40 points of uniform integer weights in [1, 1024], no repair: about
    # one (i, k, j) triple in six breaks, so the report's thousands of
    # triangle rows are written over several row groups; the whole list,
    # in order, against the triple loop
    rng, n = random.Random(40), 40
    w = {(i, j): rng.randint(1, 1024) for i in range(n) for j in range(i + 1, n)}
    rows = [[0 if i == j else w[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    path = write_space(tmp_path / "raw40.json", [f"p{i}" for i in range(n)], rows)
    code, out, _ = run("validate", path)
    assert code == 1
    want = triple_loop(rows)
    assert reported(out) == want and len(want) > 3000


# a 10^21/7 scale puts gen random's entries past 2^62, onto Python ints
WIDE = ("gen", "random", "--n", 24, "--max-value", "1000000000000000000000/7")


def rebuild_problems(path) -> str | None:
    """None when every pair i < j has exactly one certificate and each rebuilds D.

    A certificate (i, j, l, n, m) rebuilds ``eta * (l + r^n + r^m)``, a
    ``null`` exponent adding nothing, which must be ``D[i][j]`` exactly.
    """
    res = json.loads(path.read_text(encoding="utf-8"))
    eta, r, dist = F(res["eta"]), F(res["r"]), res["D"]["dist"]
    certs = res["certificates"]
    pairs = sorted((c["i"], c["j"]) for c in certs)
    want = [(i, j) for i in range(len(dist)) for j in range(i + 1, len(dist))]
    bad = [
        c
        for c in certs
        if eta * (c["l"] + sum(r ** c[k] for k in "nm" if c[k] is not None))
        != F(dist[c["i"]][c["j"]])
    ]
    return None if pairs == want and not bad else f"{len(pairs)} pairs, {bad[:3]}"


def test_wide_random_space_validates(tmp_path):
    # its entries pass 2^62, so validate decides on shifted int64 floors;
    # path repair leaves triangles tight to the unit, so neither the
    # nearest-neighbour certificate nor the floors settle every pair, and
    # the exact closure decides: exit 0
    path = tmp_path / "w.json"
    assert run(*WIDE, "-o", path)[0] == 0
    code, out, _ = run("validate", path)
    assert code == 0 and json.loads(out)["is_metric"] is True


def test_certificates_rebuild_a_wide_approximation(tmp_path):
    # approximate on that space: its hub steps pass 2^62, the object path;
    # every pair i < j has exactly one certificate, and eta * (l + r^n +
    # r^m) is D[i][j] exactly
    space, result = tmp_path / "w.json", tmp_path / "wres.json"
    assert run(*WIDE, "-o", space)[0] == 0
    assert run("approximate", space, "--epsilon", "1/2", "-o", result)[0] == 0
    assert rebuild_problems(result) is None


def test_certificates_rebuild_a_distance_at_level_152(tmp_path):
    # a 1/10^200 distance rounds up to level 152, eta * r^152 =
    # 1/(10 * 20^152): a scale of 199 digits, under the walk's cap
    t = "1/1" + "0" * 200
    obj = {"points": ["a", "b", "c"], "dist": [["0", t, "1"], [t, "0", "1"], ["1", "1", "0"]]}
    space, result = tmp_path / "deep.json", tmp_path / "deepres.json"
    space.write_text(json.dumps(obj), encoding="utf-8")
    assert run("approximate", space, "--epsilon", "1/2", "-o", result)[0] == 0
    assert rebuild_problems(result) is None
