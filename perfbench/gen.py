"""Seeded inputs for the benchmark workloads.

Only stdlib ``random`` and ``Fraction`` are used -- no ``random_metric`` and
no ``metric_repair`` -- so a library change cannot shift a workload's
inputs.  Each generator asserts the property its workload is named for;
the same seed always gives the same input bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import verify

ZERO = Fraction(0)

APPROX_Q = 3
FINE_N, FINE_EPS, FINE_CASES = 128, Fraction(1, 2), 2
CLUSTER_N, CLUSTER_K, CLUSTER_EPS, CLUSTER_CASES = 160, 8, Fraction(5), 2
INSPECT_N, INSPECT_Q, INSPECT_CASES = 96, 6, 4
FUNIV_DIM, FUNIV_DELTA, FUNIV_EPS = 2, Fraction(1, 8), Fraction(1, 2)
FRAGILITY_VALUES = 24
FUNIV_SEARCHES = 5  # 2 grid, 2 off-grid, 1 with no embedding


@dataclass
class Case:
    """One input of a workload: the files its op reads plus what checks need."""

    name: str
    files: dict[str, bytes]
    meta: dict = field(default_factory=dict)


def dumps(obj) -> bytes:
    """The CLI's own JSON layout."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _symmetric(n, entry) -> list[list[Fraction]]:
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = entry(i, j)
    return rows


def _space_case(name, rows, **meta) -> Case:
    points = [f"p{i}" for i in range(len(rows))]
    obj = {"points": points, "dist": [[str(v) for v in row] for row in rows]}
    return Case(name, {"space.json": dumps(obj)}, {"space": (points, rows), **meta})


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"generator property failed: {what}")


# --- approx-fine --------------------------------------------------------------


def approx_fine(rng: random.Random) -> list[Case]:
    """n=128 metrics on the 10/32 grid with every entry in [5, 10].

    Entries in [m, 2m] satisfy every triangle inequality, so no repair is
    needed; at epsilon 1/2 the greedy radius is 1/20 and every ball is a
    singleton, so the hub is the whole space.
    """
    cases = []
    step = Fraction(10, 32)
    _, r = verify.approx_params(FINE_EPS)
    for c in range(FINE_CASES):
        rows = _symmetric(FINE_N, lambda i, j: step * rng.randint(16, 32))
        _require(not verify.metric_problems(rows, "approx-fine"), "metric")
        _require(len(verify.greedy_clusters(rows, r)) == FINE_N, "singleton balls")
        _require(not verify.takes_object_path(rows), "int64 path")
        cases.append(_space_case(f"fine{c}", rows))
    return cases


# --- approx-clustered ---------------------------------------------------------


def approx_clustered(rng: random.Random) -> list[Case]:
    """n=160 points in 8 planted clusters of 20, shuffled over the indices.

    Each point sits at a position p in (0, 1/2]: inside a cluster
    d = |p_x - p_y|, across clusters d = h(A, B) + p_x + p_y with hub values
    h in [2, 4].  Both pieces are metrics and the cross term closes every
    mixed triangle, so the whole matrix is a metric with intra-cluster
    distances below 1/2 and inter-cluster distances >= 2.  Every cluster
    uses the same 20 positions, with gaps 1/1024 .. 19/1024, in a seeded
    order: the cluster ultrametrics then cost the same for every seed.
    """
    size = CLUSTER_N // CLUSTER_K
    slots = [Fraction(j * (j + 1) // 2 + 1, 1024) for j in range(size)]
    _, r = verify.approx_params(CLUSTER_EPS)
    cases = []
    for c in range(CLUSTER_CASES):
        home = [k for k in range(CLUSTER_K) for _ in range(size)]
        rng.shuffle(home)
        free = {k: rng.sample(slots, size) for k in range(CLUSTER_K)}
        pos = [free[k].pop() for k in home]
        hub = _symmetric(CLUSTER_K, lambda a, b: Fraction(rng.randint(16, 32), 8))

        def entry(i, j):
            if home[i] == home[j]:
                return abs(pos[i] - pos[j])
            return hub[home[i]][home[j]] + pos[i] + pos[j]

        rows = _symmetric(CLUSTER_N, entry)
        _require(not verify.metric_problems(rows, "approx-clustered"), "metric")
        clusters = verify.greedy_clusters(rows, r)
        _require(
            len(clusters) == CLUSTER_K and all(len(m) == size for m in clusters),
            "exactly 8 greedy clusters at epsilon 5",
        )
        _require(not verify.takes_object_path(rows), "int64 path")
        cases.append(_space_case(f"clustered{c}", rows))
    return cases


# --- inspect-wide -------------------------------------------------------------


def inspect_wide(rng: random.Random) -> list[Case]:
    """Three metrics with entries 1 + a/b (b <= 64), then one raw weight matrix.

    Entries in [1, 2) always form a metric; the denominators push the lcm
    past 2^62, onto validate_metric's object-array path.  The fourth input
    is an unrepaired uniform weight matrix on the 1/1024 grid, which
    breaks about one triangle in six.
    """
    cases = []
    for c in range(INSPECT_CASES - 1):

        def entry(i, j):
            b = rng.randint(1, 64)
            return 1 + Fraction(rng.randrange(b), b)

        rows = _symmetric(INSPECT_N, entry)
        off = [v for i, row in enumerate(rows) for j, v in enumerate(row) if i != j]
        _require(all(1 <= v < 2 for v in off), "entries in [1, 2): a metric")
        _require(verify.denominator_lcm(rows) > 2**62, "lcm > 2^62")
        values = verify.distinct_values(rows)
        _require(len(values) > 700, "about 1000 distinct values")
        case = _space_case(f"metric{c}", rows, is_metric=True)
        case.files["values.json"] = dumps([str(v) for v in values])
        cases.append(case)

    rows = _symmetric(INSPECT_N, lambda i, j: Fraction(rng.randint(1, 1024), 1024))
    bad = len(verify.triangle_violations(rows))
    _require(60_000 < bad < 85_000, "about 70k triangle violations")
    cases.append(_space_case("raw", rows, is_metric=False))
    _require(
        sum(not c.meta["is_metric"] for c in cases) * 4 == len(cases),
        "non-metric share of one in four",
    )
    return cases


# --- funiv --------------------------------------------------------------------


def _pattern_obj(pts: dict) -> bytes:
    labels = sorted(pts)
    dist = [[str(verify.linf(pts[x], pts[y])) for y in labels] for x in labels]
    return dumps({"points": labels, "dist": dist})


def funiv(rng: random.Random) -> list[Case]:
    """Patterns to search in the funiv host, plus a fragility value list.

    Each embeddable pattern has four points, the first (by label) at the
    origin, so an embedding starting at host point 0 exists and the
    search cost depends little on the seed.  Grid patterns are subsets of
    the delta-grid (exact embeddings exist).  Off-grid patterns sit on the
    1/64 grid and round half up to distinct grid points, an embedding
    within distortion delta.  A pair at distance 3 exceeds the host's
    diameter 2, so its search scans every host pair and finds nothing.
    """
    steps = int(FUNIV_DIM / FUNIV_DELTA)
    fine = steps * 8  # the 1/64 grid
    origin = (ZERO, ZERO)
    patterns = []
    for kind, den, distortion in (("grid", steps, ZERO), ("offgrid", fine, FUNIV_DELTA)):
        for t in range(2):
            while True:
                pts = {f"{kind[0]}{t}0": origin}
                for i in range(1, 4):
                    xy = (rng.randint(0, den), rng.randint(0, den))
                    label = f"{kind[0]}{t}{i}"
                    pts[label] = tuple(Fraction(c * FUNIV_DIM, den) for c in xy)
                snapped = {
                    tuple((c / FUNIV_DELTA + Fraction(1, 2)).__floor__() for c in p)
                    for p in pts.values()
                }
                coords = [c for p in pts.values() for c in p]
                on_grid = all((c / FUNIV_DELTA).denominator == 1 for c in coords)
                if len(snapped) == 4 and on_grid == (kind == "grid"):
                    break
            patterns.append((f"{kind}{t}", pts, distortion, True))
    patterns.append(("far-pair", None, ZERO, False))
    _require(len(patterns) == FUNIV_SEARCHES, "one output file per search")

    files = {}
    for k, (name, pts, _, _) in enumerate(patterns):
        if pts is None:
            far = {"points": ["x0", "x1"], "dist": [["0", "3"], ["3", "0"]]}
            files[f"pattern{k}.json"] = dumps(far)
            continue
        _require(
            all(verify.linf(pts[x], pts[y]) > 0 for x, y in combinations(pts, 2)),
            "pattern points are distinct",
        )
        files[f"pattern{k}.json"] = _pattern_obj(pts)

    values = sorted(rng.sample(range(1, 49), FRAGILITY_VALUES))
    values = [Fraction(v, 16) for v in values]
    meta = {
        "dim": FUNIV_DIM,
        "delta": FUNIV_DELTA,
        "patterns": patterns,
        "fragility_values": values,
        "fragility_eps": FUNIV_EPS,
    }
    return [Case("funiv", files, meta)]


GENERATORS = {
    "approx-fine": approx_fine,
    "approx-clustered": approx_clustered,
    "inspect-wide": inspect_wide,
    "funiv": funiv,
}


def generate(workload: str, seed: int) -> list[Case]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
