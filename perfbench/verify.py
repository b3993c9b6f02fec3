"""Exact checks of pipeline outputs, written independently of the library.

Nothing here imports metric_forge: the triangle check, the greedy
partition, the nebula conditions and the l-infinity host are re-derived
from the definitions, so a library defect cannot vouch for itself.  Every
checker returns a list of problems (empty means the output is correct)
plus the per-op counts the traced run reports.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np

ZERO = Fraction(0)
# the library's int64 guard: scaled values at or above this take the
# object-array path in validate_metric
INT64_SAFE = 2**62

COUNT_NAMES = (
    "pairs",
    "clusters",
    "max_cert_exponent",
    "violations",
    "lcm_bits",
    "object_path_inputs",
    "nebula_intervals",
    "json_bytes",
    "host_points",
    "search_found",
)


def new_counts() -> dict:
    return {name: 0 for name in COUNT_NAMES}


# --- exact matrix helpers ---------------------------------------------------


def parse_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def denominator_lcm(rows) -> int:
    den = 1
    for row in rows:
        for v in row:
            den = math.lcm(den, v.denominator)
    return den


def takes_object_path(rows) -> bool:
    """Would validate_metric's scaled matrix overflow its int64 guard?"""
    peak = max(abs(v) for row in rows for v in row)
    return peak * denominator_lcm(rows) >= INT64_SAFE


def _scaled(rows) -> np.ndarray:
    den = denominator_lcm(rows)
    ints = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    if max(abs(v) for row in ints for v in row) < INT64_SAFE:
        return np.array(ints, dtype=np.int64)
    return np.array(ints, dtype=object)


def triangle_violations(rows) -> list[tuple[int, int, int]]:
    """Every (i, k, j) with i < j, k outside {i, j} and d(i,j) > d(i,k) + d(k,j).

    One row slab at a time, so memory stays O(n^2); witnesses come out in
    lexicographic order.
    """
    a = _scaled(rows)
    n = len(rows)
    out = []
    for i in range(n):
        # bad[k, j] <=> d(i, j) > d(i, k) + d(k, j)
        bad = a[i][None, :] > a[i][:, None] + a
        bad[:, : i + 1] = False
        bad[i, :] = False
        ks, js = np.nonzero(bad)
        out.extend(
            (i, int(k), int(j)) for k, j in zip(ks, js) if k != j
        )
    out.sort()
    return out


def is_ultrametric(rows) -> bool:
    a = _scaled(rows)
    for i in range(len(rows)):
        if (a[i][None, :] > np.maximum(a[i][:, None], a)).any():
            return False
    return True


def metric_problems(rows, what: str) -> list[str]:
    n = len(rows)
    problems = []
    for i in range(n):
        if rows[i][i] != 0:
            problems.append(f"{what}: nonzero diagonal at {i}")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                problems.append(f"{what}: asymmetric at ({i}, {j})")
            if rows[i][j] <= 0:
                problems.append(f"{what}: nonpositive entry at ({i}, {j})")
    if problems:
        return problems[:5]
    bad = triangle_violations(rows)
    if bad:
        problems.append(f"{what}: {len(bad)} triangle violations, first {bad[0]}")
    return problems


def sup_distance(a, b) -> Fraction:
    return max(
        (abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb)),
        default=ZERO,
    )


def greedy_clusters(rows, r) -> list[list[int]]:
    """Closed balls of radius r peeled in point-index order."""
    n = len(rows)
    assigned = [False] * n
    clusters = []
    for c in range(n):
        if assigned[c]:
            continue
        members = [j for j in range(n) if not assigned[j] and rows[c][j] <= r]
        for j in members:
            assigned[j] = True
        clusters.append(members)
    return clusters


def distinct_values(rows) -> list[Fraction]:
    seen = {ZERO}
    for row in rows:
        seen.update(row)
    return sorted(seen)


def linf(u, v) -> Fraction:
    return max(abs(a - b) for a, b in zip(u, v))


def approx_params(eps: Fraction) -> tuple[Fraction, Fraction]:
    """(eta, r) that approximate() documents for a given epsilon."""
    return eps / 5, min(Fraction(1, 2), eps / 10)


# --- nebulae ------------------------------------------------------------------


def parse_nebula(obj):
    q = obj["q"]
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"nebula q is not an integer: {q!r}")
    bounded = [(Fraction(a), Fraction(b)) for a, b in obj["bounded"]]
    return q, bounded, Fraction(obj["tail_start"])


def nebula_problems(q, bounded, tail, what: str) -> list[str]:
    """The five defining conditions of a q-nebula."""
    problems = []
    if q < 0:
        return [f"{what}: negative q"]
    if not bounded or bounded[0][0] != 0:
        problems.append(f"{what}: first interval does not start at 0")
    for a, b in bounded:
        if a > b or a < 0 or b - a >= Fraction(1, 2**q):
            problems.append(f"{what}: bad interval [{a}, {b}]")
    for (_, b1), (a2, _) in zip(bounded, bounded[1:]):
        if a2 <= b1:
            problems.append(f"{what}: intervals touch at {b1}, {a2}")
    if tail <= q or (bounded and tail <= bounded[-1][1]):
        problems.append(f"{what}: bad tail start {tail}")
    return problems


def nebula_misses(bounded, tail, values) -> list[Fraction]:
    starts = [a for a, _ in bounded]
    missing = []
    for v in values:
        if v >= tail:
            continue
        k = bisect_right(starts, v) - 1
        if k < 0 or v > bounded[k][1]:
            missing.append(v)
    return missing


_TICK = re.compile(r'stroke="#d62728" stroke-width="1.5" data-exact="([^"]+)"')


def cover_margin_plot_problems(out: dict, values, q: int, counts: dict) -> list[str]:
    """cover.json, margin.json and plot.svg against the value set they cover."""
    problems = []
    cq, bounded, tail = parse_nebula(json.loads(out["cover.json"]))
    if cq != q:
        problems.append(f"cover: q is {cq}, expected {q}")
    problems += nebula_problems(cq, bounded, tail, "cover")
    missing = nebula_misses(bounded, tail, values)
    if missing:
        problems.append(f"cover misses {len(missing)} values, first {missing[0]}")
    counts["nebula_intervals"] += len(bounded)

    mobj = json.loads(out["margin.json"])
    eps = Fraction(mobj["epsilon"])
    if eps <= 0:
        problems.append(f"margin: epsilon {eps} is not positive")
    fq, fbounded, ftail = parse_nebula(mobj["fattened"])
    problems += nebula_problems(fq, fbounded, ftail, "fattened")
    if nebula_misses(fbounded, ftail, values):
        problems.append("fattened nebula misses a value")

    svg = out["plot.svg"].decode("utf-8")
    if not svg.startswith("<svg") or not svg.endswith("</svg>\n"):
        problems.append("plot: not a complete SVG document")
    top = max(values[-1], tail)
    T = max(1, math.ceil(top))
    ticks = sorted(Fraction(v) for v in _TICK.findall(svg))
    if ticks != [v for v in values if v <= T]:
        problems.append("plot: value ticks differ from the value set")
    return problems


# --- approximate pipeline -----------------------------------------------------


def approx_problems(out: dict, space, eps: Fraction, q: int) -> tuple[list[str], dict]:
    """Outputs of approximate -> cover -> margin -> plot on ``space``."""
    counts = new_counts()
    points, rows = space
    n = len(points)
    res = json.loads(out["result.json"])
    eta, r = approx_params(eps)
    problems = []
    if Fraction(res["eta"]) != eta or Fraction(res["r"]) != r:
        problems.append(f"eta/r are {res['eta']}/{res['r']}, expected {eta}/{r}")

    D = parse_matrix(res["D"]["dist"])
    if res["D"]["points"] != list(points) or len(D) != n:
        return problems + ["D has the wrong points"], counts
    problems += metric_problems(D, "D")
    moved = sup_distance(rows, D)
    if moved > eps:
        problems.append(f"D moved {moved} > epsilon {eps}")

    plan = res["plan"]
    members = sorted(i for c in plan["clusters"] for i in c)
    if members != list(range(n)):
        problems.append("plan clusters do not partition the points")
    for c, rep in zip(plan["clusters"], plan["reps"]):
        if rep not in c:
            problems.append(f"representative {rep} outside its cluster")
    counts["clusters"] = len(plan["clusters"])

    # every pair i<j carries exactly one certificate that rebuilds D[i][j]
    powers = {}

    def power(k):
        if k is None:
            return ZERO
        if k not in powers:
            powers[k] = r**k
        return powers[k]

    seen = set()
    deepest = 0
    for c in res["certificates"]:
        i, j = c["i"], c["j"]
        if not 0 <= i < j < n or (i, j) in seen:
            problems.append(f"certificate for ({i}, {j}) is out of range or repeated")
            continue
        seen.add((i, j))
        if eta * (c["l"] + power(c["n"]) + power(c["m"])) != D[i][j]:
            problems.append(f"certificate ({i}, {j}) does not rebuild D")
        deepest = max(deepest, c["n"] or 0, c["m"] or 0)
    if len(seen) != n * (n - 1) // 2:
        problems.append(f"{len(seen)} certificates for {n * (n - 1) // 2} pairs")
    counts["max_cert_exponent"] = deepest
    counts["pairs"] = n * (n - 1) // 2

    values = distinct_values(D)
    if sorted(Fraction(v) for v in json.loads(out["values.json"])) != values:
        problems.append("values.json is not D's value set")
    problems += cover_margin_plot_problems(out, values, q, counts)

    # approximate() validates D internally: that is the kernel input here
    counts["lcm_bits"] = denominator_lcm(D).bit_length()
    counts["object_path_inputs"] = int(takes_object_path(D))
    counts["json_bytes"] = sum(
        len(out[k]) for k in ("result.json", "cover.json", "margin.json")
    )
    return problems, counts


# --- validate pipeline --------------------------------------------------------


def inspect_problems(out: dict, codes, space, q: int) -> tuple[list[str], dict]:
    """Outputs of validate [-> cover -> margin -> plot] on ``space``."""
    counts = new_counts()
    points, rows = space
    n = len(points)
    counts["pairs"] = n * (n - 1) // 2
    counts["lcm_bits"] = denominator_lcm(rows).bit_length()
    counts["object_path_inputs"] = int(takes_object_path(rows))

    report = json.loads(out["stdout"])
    counts["violations"] = len(report["violations"])
    counts["json_bytes"] = len(out["stdout"])
    expected = [
        [i, k, j, str(rows[i][j]), str(rows[i][k] + rows[k][j])]
        for i, k, j in triangle_violations(rows)
    ]
    got = [
        [*v["witness"], v["lhs"], v["rhs"]]
        for v in report["violations"]
        if v["kind"] == "triangle"
    ]
    problems = []
    if len(got) != len(report["violations"]):
        problems.append("report lists non-triangle violations")
    if got != expected:
        problems.append(
            f"report lists {len(got)} triangle violations, expected {len(expected)}"
        )
    is_metric = not expected
    if report["is_metric"] != is_metric:
        problems.append(f"is_metric is {report['is_metric']}, expected {is_metric}")
    if codes[0] != (0 if is_metric else 1):
        problems.append(f"validate exited {codes[0]}")
    ultra = is_metric and is_ultrametric(rows)
    if report["is_ultrametric"] != ultra:
        problems.append(f"is_ultrametric is {report['is_ultrametric']}")
    if is_metric:
        problems += cover_margin_plot_problems(out, distinct_values(rows), q, counts)
        counts["json_bytes"] += len(out["cover.json"]) + len(out["margin.json"])
    return problems, counts


# --- universal pipeline -------------------------------------------------------


def _coords(label: str) -> tuple[Fraction, ...]:
    inner = label[label.index("(") + 1 : label.rindex(")")]
    return tuple(Fraction(c) for c in inner.split(","))


def funiv_problems(out: dict, meta: dict) -> tuple[list[str], dict]:
    """funiv host, embedding searches and the fragility report."""
    counts = new_counts()
    problems = []
    dim, delta = meta["dim"], meta["delta"]
    steps = int(dim / delta)
    grid = [
        (delta * a, delta * b) for a in range(steps + 1) for b in range(steps + 1)
    ]

    host = json.loads(out["funiv.json"])
    net = [tuple(Fraction(c) for c in p) for p in host["net_points"]]
    labels = host["space"]["points"]
    if net != grid or labels != [f"K0:({x},{y})" for x, y in grid]:
        problems.append("funiv net points are not the delta-grid in order")
    else:
        # with one copy the glued space is the grid's own l-infinity metric
        for i, row in enumerate(host["space"]["dist"]):
            if any(Fraction(v) != linf(grid[i], grid[j]) for j, v in enumerate(row)):
                problems.append(f"funiv row {i} is not the l-infinity metric")
                break
    counts["host_points"] = len(labels)
    counts["pairs"] = len(labels) * (len(labels) - 1) // 2
    counts["json_bytes"] = len(out["funiv.json"])

    where = {label: _coords(label) for label in labels}
    for k, (name, pts, distortion, embeddable) in enumerate(meta["patterns"]):
        key = f"found{k}.json"
        counts["json_bytes"] += len(out[key])
        found = json.loads(out[key])
        if found["found"] != embeddable:
            problems.append(f"{name}: found is {found['found']}")
            continue
        if not embeddable:
            continue
        counts["search_found"] += 1
        mapping = found["map"]
        if sorted(mapping) != sorted(pts) or len(set(mapping.values())) != len(pts):
            problems.append(f"{name}: map is not injective on the pattern")
            continue
        if found["exact"] != (distortion == 0):
            problems.append(f"{name}: exact flag is {found['exact']}")
        for x in pts:
            for y in pts:
                d_pat = linf(pts[x], pts[y])
                d_host = linf(where[mapping[x]], where[mapping[y]])
                if abs(d_host - d_pat) > distortion:
                    problems.append(f"{name}: ({x}, {y}) off by {d_host - d_pat}")
                    break

    problems += fragility_problems(out["fragility.json"], meta, counts)
    counts["json_bytes"] += len(out["fragility.json"])
    return problems, counts


def pair_space(values) -> list[list[Fraction]]:
    """Pair space a0 b0 a1 b1 ...: pairs at the values, a-sides at distance 1."""
    n = 2 * len(values)
    leg = [ZERO if p % 2 == 0 else values[p // 2] for p in range(n)]
    return [
        [
            ZERO
            if s == t
            else (values[s // 2] if s // 2 == t // 2 else leg[s] + 1 + leg[t])
            for t in range(n)
        ]
        for s in range(n)
    ]


def fragility_problems(text: bytes, meta: dict, counts: dict) -> list[str]:
    values, eps = meta["fragility_values"], meta["fragility_eps"]
    rep = json.loads(text)
    problems = []
    eta, r = approx_params(eps)
    if [Fraction(v) for v in rep["values"]] != values:
        problems.append("fragility: values differ from the input")
    if (Fraction(rep["epsilon"]), Fraction(rep["eta"]), Fraction(rep["r"])) != (
        eps,
        eta,
        r,
    ):
        problems.append("fragility: epsilon/eta/r differ from approximate()'s rule")
    D = parse_matrix(rep["D"]["dist"])
    before = pair_space(values)
    labels = [f"{side}{i}" for i in range(len(values)) for side in "ab"]
    if rep["D"]["points"] != labels or len(D) != len(before):
        return problems + ["fragility: D has the wrong points"]
    problems += metric_problems(D, "fragility D")
    moved = sup_distance(before, D)
    if moved > eps or Fraction(rep["sup_distance"]) != moved:
        problems.append(f"fragility: sup_distance {rep['sup_distance']} vs {moved}")
    rng = distinct_values(D)
    if Fraction(rep["max_value"]) != rng[-1]:
        problems.append("fragility: max_value is not D's maximum")
    widest = max(zip(rng, rng[1:]), key=lambda ab: ab[1] - ab[0])
    gap = rep["missed_interval"]
    if (Fraction(gap["lo"]), Fraction(gap["hi"])) != widest:
        problems.append("fragility: missed interval is not the widest gap")
    present = set(rng)
    if [Fraction(v) for v in rep["kept_values"]] != [v for v in values if v in present]:
        problems.append("fragility: kept values are wrong")
    if [Fraction(v) for v in rep["lost_values"]] != [
        v for v in values if v not in present
    ]:
        problems.append("fragility: lost values are wrong")
    counts["lcm_bits"] = denominator_lcm(D).bit_length()
    counts["object_path_inputs"] = int(takes_object_path(D))
    return problems
