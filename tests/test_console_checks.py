"""Checks of the ``metric-forge`` console script, each on its own input file.

Each check writes its input, runs ``metric-forge`` commands and judges the
exit codes and the outputs against a plain oracle.  They cover:

- ``validate``'s reports: one broken triangle, int16 sums past 16383, and
  40 raw points over several row groups, each against a triple loop; a
  10^21/7-scaled random space validated through the exact closure;
- the reader's per-entry path: JSON ints and "2/4" pass, a JSON ``true``
  is refused with exit 2;
- the certificate rebuilds of ``approximate`` on that wide space and on a
  1/10^200 distance, against a ``Fraction`` rebuild;
- ``nebula cover``'s separator picks (13/32, and 25/64 after a refinement),
  its cover of mixed JSON ints and strings on coprime denominators, and
  ``cover``, ``margin`` and ``plot`` on a space whose lcm passes 2^62,
  against the plot's ticks;
- bounded memory: ``margin`` and ``plot`` on a 20,000-end coprime nebula,
  ``validate``'s 725 MB report on 400 raw points, and the refusal of
  ``universal pairs`` on 500 coprime values, each in a child under a 1 GiB
  address-space limit (``run_limited``).

A command runs through ``cli.main`` in this process, unless the environment
variable ``METRIC_FORGE_EXE`` names an executable: then it runs that, in
a child process.  CI sets it to the installed ``metric-forge``:

    METRIC_FORGE_EXE=metric-forge python -m pytest tests/test_console_checks.py
"""

import io
import json
import math
import os
import random
import re
import subprocess
import sys
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


def run_limited(*argv, discard_stdout=False) -> tuple[int, str, str]:
    """``run`` in a child under a 1 GiB address-space limit.

    The child is ``METRIC_FORGE_EXE`` when it is set, else ``python -m
    metric_forge.cli`` on the package this process imports.  numpy's
    thread pools get one thread each, so their stacks stay out of the limit.
    With ``discard_stdout`` the child writes its stdout to ``os.devnull``,
    which this process never holds, and "" stands for it.
    """
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    if EXE:
        cmd = [EXE]
    else:
        import metric_forge

        src = os.path.dirname(os.path.dirname(os.path.abspath(metric_forge.__file__)))
        env["PYTHONPATH"] = src
        cmd = [sys.executable, "-m", "metric_forge.cli"]
    done = subprocess.run(
        [*cmd, *map(str, argv)],
        env=env,
        preexec_fn=limit,
        stdout=subprocess.DEVNULL if discard_stdout else subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        check=False,
    )
    return done.returncode, done.stdout or "", done.stderr


def write_json(path, obj):
    """``obj`` as ``json.dump`` writes it."""
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def write_space(path, points, rows):
    """A space file of ``points`` and integer ``rows``, each entry a string."""
    obj = {"points": list(points), "dist": [[str(v) for v in row] for row in rows]}
    return write_json(path, obj)


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
    space, result = write_json(tmp_path / "deep.json", obj), tmp_path / "deepres.json"
    assert run("approximate", space, "--epsilon", "1/2", "-o", result)[0] == 0
    assert rebuild_problems(result) is None


def test_validate_reads_json_ints_and_an_unreduced_string(tmp_path):
    # the reader's per-entry path, taken when an entry is not a string:
    # JSON integers pass and "2/4" equals "1/2"
    path = tmp_path / "half.json"
    path.write_text('{"points": ["a", "b"], "dist": [[0, "2/4"], ["1/2", 0]]}\n')
    assert run("validate", path)[0] == 0


def test_validate_refuses_a_json_true(tmp_path):
    # a JSON true, whose hash equals 1's, is refused with exit 2
    path = tmp_path / "bool.json"
    path.write_text('{"points": ["a", "b"], "dist": [[0, true], [true, 0]]}\n')
    code, _, err = run("validate", path)
    assert code == 2 and "expected a rational string" in err


def cover_of(tmp_path, values_path, q):
    """The ``nebula cover`` file of ``values_path`` at ``q``, as an object."""
    out = tmp_path / f"{values_path.stem}-cover.json"
    assert run("nebula", "cover", values_path, "--q", q, "-o", out)[0] == 0
    return json.loads(out.read_text(encoding="utf-8"))


def test_cover_picks_13_32_past_a_blocked_fallback(tmp_path):
    # at q = 0, 1/2 is a separator center and 3/8 blocks the fallback
    # 1/2 - 1/8, so the dyadic walk picks 13/32: 0 and 3/8 share an
    # interval, 1/2 has its own, and the tail starts at 1
    path = tmp_path / "vals.json"
    path.write_text('["0", "3/8", "1/2"]\n')
    c = cover_of(tmp_path, path, 0)
    assert (c["bounded"], c["tail_start"]) == ([["0", "3/8"], ["1/2", "1/2"]], "1")


def test_cover_refines_to_pitch_1_64_when_the_walk_is_full(tmp_path):
    # 3/8 .. 5/8 at pitch 1/32 fill the whole walk around the separator
    # 1/2 at q = 0, so the walk refines to pitch 1/64 and picks 25/64,
    # which splits 3/8 from 13/32
    fine = ["0"] + [str(F(12 + k, 32)) for k in range(9)]
    path = write_json(tmp_path / "fine.json", fine)
    c = cover_of(tmp_path, path, 0)
    assert (c["bounded"], c["tail_start"]) == ([["0", "3/8"], ["13/32", "5/8"]], "1")


# a red tick of the plot, one per distinct value of the space
TICK = re.compile(r'stroke="#d62728" stroke-width="1.5" data-exact="([^"]*)"')


def test_wide_space_covers_margins_and_plots(tmp_path):
    # a space whose lcm 6 (2^61 - 1) is past 2^62, all its values below
    # q + 1 = 2: margin and the plot scan the values as Python ints, and
    # the plot draws one tick per value
    v = ["0", "1/3", "1/2", str(F(2, 3) + F(1, 2**61 - 1))]
    values = write_json(tmp_path / "wvals.json", v)
    rows = [[v[0], v[1], v[3]], [v[1], v[0], v[2]], [v[3], v[2], v[0]]]
    space = write_json(tmp_path / "wide.json", {"points": ["a", "b", "c"], "dist": rows})
    cover, svg = tmp_path / "wcover.json", tmp_path / "wide.svg"
    assert run("nebula", "cover", values, "--q", 1, "-o", cover)[0] == 0
    assert run("nebula", "margin", space, cover, "-o", tmp_path / "wmargin.json")[0] == 0
    assert run("plot", "range", space, "--nebula", cover, "-o", svg)[0] == 0
    ticks = TICK.findall(svg.read_text(encoding="utf-8"))
    assert sorted(ticks) == sorted(v)
    # each tick's value is written from the space's scaled ints: in order,
    # every data-exact is str(Fraction) of a distinct value
    assert ticks == [str(x) for x in sorted({F(x) for row in rows for x in row})]


def test_cover_of_json_ints_and_strings_on_coprime_denominators(tmp_path):
    # cover reads JSON integers and strings straight to (p, q) pairs: with
    # 2 given as 2 and as "4/2", every value lies in exactly one interval
    # or in the tail, and every end is a value
    raw = [0, 3, "1/3", "2/5", "5/7", "1/2", 2, "7/3", "22/7", "1/11", "4/2", "3"]
    c = cover_of(tmp_path, write_json(tmp_path / "mixed.json", raw), 2)
    vals = {F(x) for x in raw}
    ivs = [(F(a), F(b)) for a, b in c["bounded"]]
    tail = F(c["tail_start"])
    hits = [sum(a <= x <= b for a, b in ivs) + (x >= tail) for x in vals]
    assert hits == [1] * len(vals)
    assert {x for iv in ivs for x in iv} <= vals


def odd_primes(count: int, below: int) -> list[int]:
    """The first ``count`` odd primes, all below ``below``, from a sieve."""
    sieve = bytearray([1]) * below
    for p in range(2, math.isqrt(below) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, below, p)))
    found = [p for p in range(3, below) if sieve[p]][:count]
    assert len(found) == count
    return found


def test_margin_and_plot_of_20000_coprime_ends_in_1_gib(tmp_path):
    # [0, 0] and [1/p, 1/p] for the first 20,000 odd primes (0.6 MB): the
    # lcm of the ends' denominators would have about 300,000 bits, and
    # 20,000 ends on it would take about 1.5 GiB; margin and the plot
    # round each end onto the space's scale 1/3 instead
    ends = [["0", "0"]] + [[f"1/{p}"] * 2 for p in reversed(odd_primes(20000, 230000))]
    nebula = write_json(
        tmp_path / "coprime.json", {"q": 1, "bounded": ends, "tail_start": "2"}
    )
    third = {"points": ["a", "b"], "dist": [["0", "1/3"], ["1/3", "0"]]}
    space = write_json(tmp_path / "third.json", third)
    for argv in (
        ["nebula", "margin", space, nebula, "-o", tmp_path / "coprime-margin.json"],
        ["plot", "range", space, "--nebula", nebula, "-o", tmp_path / "coprime.svg"],
    ):
        code, _, err = run_limited(*argv)
        assert code == 0, err


def test_validate_writes_a_725_mb_report_in_1_gib(tmp_path):
    # 400 raw points, weights 1..100 (631 KB): about five million triangle
    # rows, 725,546,236 bytes of report.  Written as it is made, stdout
    # holds one block at a time; held whole, the text ran out of memory
    rng = random.Random(400)
    rows = [[0] * 400 for _ in range(400)]
    for i in range(400):
        for j in range(i + 1, 400):
            rows[i][j] = rows[j][i] = rng.randint(1, 100)
    space = write_space(tmp_path / "raw400.json", [f"p{i}" for i in range(400)], rows)
    assert run_limited("validate", space, discard_stdout=True) == (1, "", "")


def test_500_coprime_pair_values_refused_in_1_gib():
    # 1/p for the first 500 odd primes: under the 500-value cap, but
    # gluing their pairs would hold a million 5060-bit ints (1.6 GB);
    # refused with exit 2 before any matrix is built
    values = ",".join(f"1/{p}" for p in odd_primes(500, 4000))
    code, _, err = run_limited("universal", "pairs", "--values", values)
    assert code == 2
    assert (
        "1000 x 1000 entries on a 5060-bit denominator exceed the cap of 536870912 bits"
        in err
    )
