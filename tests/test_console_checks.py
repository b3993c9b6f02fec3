"""The ``validate`` report checks that CI once ran as shell on the console script.

Each check writes its input file, runs one ``metric-forge`` command and
judges the exit code and the report against a plain triple loop.  A
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
