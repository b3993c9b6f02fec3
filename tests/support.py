"""Shared generators and independent brute-force oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: triangle
checks are plain triple loops, shortest and minimax paths enumerate
permutations, embedding search enumerates injections.  Slow but obviously
correct on the small inputs the tests feed them.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from functools import cache
from itertools import chain, count, permutations, repeat, takewhile

import numpy as np

from metric_forge import (
    ApproximationResult,
    FiniteMetricSpace,
    FragilityReport,
    FUnivApprox,
    Nebula,
    PartitionPlan,
    RangeCertificate,
    RangeParams,
    RoundUpTo,
    Transform,
    UnsupportedTransformError,
    ValidationReport,
    amalgamate,
    as_scalar,
    geometric_levels,
    greedy_clopen_partition,
    make_net,
    metric_repair,
    pair_points,
    quantize_discrete,
    random_metric,
    subdominant_ultrametric,
    transform_metric,
    validate_metric,
)
from metric_forge import core, jsonio
from metric_forge.core import _GEN_MAX_POINTS
from metric_forge.nebula import MAX_Q, _Q_TOO_LARGE, NebulaValidation, _interval_index
from metric_forge.universal import _net_side


def triple_loop_is_metric(space) -> bool:
    n = space.n
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            return False
        for j in range(n):
            if d[i][j] != d[j][i]:
                return False
            if i != j and d[i][j] <= 0:
                return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if d[i][j] > d[i][k] + d[k][j]:
                    return False
    return True


def triple_loop_is_ultrametric(space) -> bool:
    if not triple_loop_is_metric(space):
        return False
    n = space.n
    d = space.dist
    return all(
        d[i][j] <= max(d[i][k], d[k][j])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def brute_violations(space) -> list[tuple]:
    """(kind, witness, lhs, rhs) of every axiom violation, by plain loops.

    The order is the report's: diagonal, symmetry, positivity, triangle,
    each by witness.  A pair below the diagonal is a positivity witness
    only where it differs from its mirror, which is already reported.
    """
    n = space.n
    d = space.dist
    out = [("diagonal", (i,), d[i][i], 0) for i in range(n) if d[i][i] != 0]
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                out.append(("symmetry", (i, j), d[i][j], d[j][i]))
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] <= 0 and (i < j or d[i][j] != d[j][i]):
                out.append(("positivity", (i, j), d[i][j], 0))
    for i in range(n):
        for k in range(n):
            for j in range(i + 1, n):
                if k not in (i, j) and d[i][j] > d[i][k] + d[k][j]:
                    out.append(("triangle", (i, k, j), d[i][j], d[i][k] + d[k][j]))
    return out


# the witness width of each violation kind
WITNESS_WIDTH = {"diagonal": 1, "symmetry": 2, "positivity": 2, "triangle": 3}


def flat_blocks(blocks) -> list[tuple]:
    """(kind, witness, lhs, rhs) of every row of the kernel's violation blocks.

    Each block is checked on the way: it is not empty, its witness has
    its kind's width, and it has one witness per side.
    """
    out = []
    for kind, witness, lhs, rhs in blocks:
        assert witness.shape == (len(lhs), WITNESS_WIDTH[kind]), (kind, witness.shape)
        assert len(lhs) == len(rhs) > 0
        witnesses = map(tuple, witness.tolist())
        out += zip(repeat(kind), witnesses, lhs.tolist(), rhs.tolist())
    return out


def all_kinds(corner) -> FiniteMetricSpace:
    """Four points with a violation of every kind, some sides negative.

    ``corner`` is d(a, a), the one diagonal witness; 1/2^70 puts the
    lcm past 2^62, onto the object path.
    """
    rows = [[corner, 2, 9, 1], [3, 0, 1, 1], [9, 1, 0, -1], [1, 1, -1, 0]]
    return FiniteMetricSpace.from_rows("abcd", rows)


# the default triangle slab budget, one row per slab and a few rows per
# slab (for n <= 5)
SLAB_BUDGETS = [core._SLAB_CELLS, 1, 50]


def raw_weights(n: int, seed: int) -> dict:
    """A space file's object: uniform symmetric weights on the 1/1024 grid.

    No path repair, so about one triangle in six breaks; at n = 96 that
    is the benchmark's raw input, about 70k triangle violations.
    """
    rng = random.Random(seed)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = str(Fraction(rng.randint(1, 1024), 1024))
    return {"points": [f"p{i}" for i in range(n)], "dist": rows}


def grid_space(n: int, entry) -> FiniteMetricSpace:
    """n points with d(i, j) = entry(|i - j|) off the diagonal."""
    rows = [[entry(abs(i - j)) if i != j else 0 for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)


@cache
def metric_1024() -> FiniteMetricSpace:
    """``random_metric(1024, 10**6)``: int64 entries up to 93750, past 256.

    So each entry read into a list would be a Python int of its own, 32
    MiB of them; built once for the memory tests that share it.
    """
    return random_metric(1024, 10**6)


def plain_repair_error(space) -> str | None:
    """The message ``metric_repair`` refuses with, by a row-major scan."""
    n = space.n
    d = space.dist
    for i in range(n):
        if d[i][i] != 0:
            return f"diagonal entry {i} must be zero"
        for j in range(n):
            if d[i][j] != d[j][i]:
                return f"matrix must be symmetric at ({i}, {j})"
            if i != j and d[i][j] <= 0:
                return f"off-diagonal entry ({i}, {j}) must be positive"
    return None


def brute_shortest_paths(space) -> list[list[Fraction]]:
    """All-pairs minimum over every simple path; exponential, n <= 7 only."""
    n = space.n
    d = space.dist
    out = [[d[i][j] for j in range(n)] for i in range(n)]
    middle = list(range(n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = d[i][j]
            others = [k for k in middle if k not in (i, j)]
            for size in range(1, len(others) + 1):
                for route in permutations(others, size):
                    chain = [i, *route, j]
                    total = sum(
                        d[a][b] for a, b in zip(chain, chain[1:])
                    )
                    if total < best:
                        best = total
            out[i][j] = best
    return out


def brute_minimax_paths(space) -> list[list[Fraction]]:
    """All-pairs minimum over paths of the largest edge; n <= 7 only."""
    n = space.n
    d = space.dist
    out = [[d[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = d[i][j]
            others = [k for k in range(n) if k not in (i, j)]
            for size in range(1, len(others) + 1):
                for route in permutations(others, size):
                    chain = [i, *route, j]
                    peak = max(d[a][b] for a, b in zip(chain, chain[1:]))
                    if peak < best:
                        best = peak
            out[i][j] = best
    return out


def brute_first_embedding(pattern, host, distortion=Fraction(0)):
    """The first injection in permutations order that fits, or None.

    permutations(range(h), k) runs in lexicographic order, so this is the
    lexicographically smallest map within the distortion on every pair.
    Each pair b < a compares pattern[a][b] with host[map a][map b].
    """
    k = pattern.n
    for assign in permutations(range(host.n), k):
        if all(
            abs(host.dist[assign[a]][assign[b]] - pattern.dist[a][b]) <= distortion
            for a in range(k)
            for b in range(a)
        ):
            return assign
    return None


def brute_range_member(t, eta, u, l_max=None, exp_max=40) -> bool:
    """Exhaustive grid search for t = eta*(l + [u^n] + [u^m]).

    Every sum of zero, one or two geometric terms up to exp_max is tabled
    once; the integer part never exceeds t/eta, so scanning l up to there
    with set lookups is genuinely exhaustive.
    """
    s = t / eta
    if l_max is None:
        l_max = int(s) + 1
    powers = [u**e for e in range(exp_max + 1)]
    sums = {Fraction(0)}
    sums.update(powers)
    sums.update(a + b for i, a in enumerate(powers) for b in powers[i:])
    for l in range(l_max + 1):
        base = s - l
        if base < 0:
            return False
        if base in sums:
            return True
    return False


def point_set_hausdorff(interval_set, points) -> Fraction:
    """sup over the interval set of the distance to a finite point set.

    Exact: inside a component the distance to the nearest point peaks at
    an endpoint or at the midpoint of a gap between consecutive points.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("need a nonempty point set")

    def dist_to_pts(x):
        return min(abs(x - p) for p in pts)

    worst = Fraction(0)
    for a, b in interval_set.bounded:
        candidates = [a, b]
        for p, q in zip(pts, pts[1:]):
            mid = (p + q) / 2
            if a <= mid <= b:
                candidates.append(mid)
        worst = max(worst, max(dist_to_pts(c) for c in candidates))
    return worst


def plain_values(space) -> list[Fraction]:
    """Sorted distinct entries with 0, straight from the Fraction rows."""
    return sorted({Fraction(0), *(v for row in space.dist for v in row)})


def plain_max_value(space) -> Fraction:
    return max((v for row in space.dist for v in row), default=Fraction(0))


def plain_min_positive(space) -> Fraction | None:
    return min((v for row in space.dist for v in row if v > 0), default=None)


def plain_extend(d, points) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of ``extend_metric(d, points)``, one Fraction entry at a time."""
    far = 1 + plain_max_value(d)
    pos = {label: i for i, label in enumerate(d.points)}
    rows = []
    for x in points:
        row = []
        for y in points:
            if x == y:
                row.append(Fraction(0))
            elif x in pos and y in pos:
                row.append(d.dist[pos[x]][pos[y]])
            else:
                row.append(far)
        rows.append(tuple(row))
    return tuple(rows)


def random_fractions(rng: random.Random, count, max_num=10, max_den=64):
    return [
        Fraction(rng.randint(0, max_num * max_den), rng.randint(1, max_den))
        for _ in range(count)
    ]


def random_cn_space(rng: random.Random, n: int) -> FiniteMetricSpace:
    """Random member of the card/diameter/separation class for n.

    Entries live in [A, 2A] for some A >= 1/n, which closes every triangle
    outright, and are multiples of 1/n.
    """
    k = rng.randint(1, n)
    a_steps = rng.randint(1, max(1, n * n // 2))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            steps = rng.randint(a_steps, min(2 * a_steps, n * n))
            v = Fraction(steps, n)
            rows[i][j] = v
            rows[j][i] = v
    labels = tuple(f"c{i}" for i in range(k))
    return FiniteMetricSpace(labels, tuple(tuple(r) for r in rows))


def reference_transform_metric(space: FiniteMetricSpace, f: Transform):
    """``transform_metric`` entry by entry, before it mapped each distinct value.

    Every off-diagonal entry of ``scaled`` becomes a Fraction and goes
    through ``f`` in row-major order; the constructor parses the rows.
    """
    if not isinstance(f, Transform):
        raise UnsupportedTransformError(
            "transform must come from the closed descriptor family"
        )
    arr, denom = space.scaled
    rows = [
        [0 if i == j else f.apply(Fraction(x, denom)) for j, x in enumerate(row)]
        for i, row in enumerate(arr.tolist())
    ]
    return FiniteMetricSpace(space.points, rows)


# The Fraction implementation of ``quantize.approximate`` from before it ran
# on scaled integers, kept verbatim as the oracle for the differential tests.


def reference_approximate(
    space: FiniteMetricSpace, epsilon, r=None
) -> ApproximationResult:
    """Move a metric by at most epsilon into the certified range.

    With eta = epsilon/5 and r = min(1/2, epsilon/10) the construction
    partitions the points into balls of radius r, rounds the hub metric on
    the representatives up to the eta-grid, replaces each cluster by its
    subdominant ultrametric rounded up onto the geometric levels
    {eta * r^k}, and glues.  Every guarantee is checked before returning:
    the output validates, sits within epsilon of the input, and each pair
    carries an exactly-reconstructing certificate.

    ``r`` may be overridden with any value in (0, 1) with 2r <= eta.
    """
    epsilon = as_scalar(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    eta = epsilon / 5
    if r is None:
        r = min(Fraction(1, 2), epsilon / 10)
    else:
        r = as_scalar(r)
        if not 0 < r < 1:
            raise ValueError("r must lie strictly between 0 and 1")
        if 2 * r > eta:
            raise ValueError("need 2r <= eta for the cluster diameter bound")

    plan = greedy_clopen_partition(space, r)
    hub = quantize_discrete(space.restrict(plan.reps), eta)

    cluster_metrics: list[FiniteMetricSpace] = []
    exponents: list[dict[tuple[int, int], int]] = []
    for cluster in plan.clusters:
        sub = subdominant_ultrametric(space.restrict(cluster))
        exps: dict[tuple[int, int], int] = {}
        positives = sorted({v for row in sub.dist for v in row if v > 0})
        if positives:
            level_map = geometric_levels(eta, r, positives[0])
            rounded = transform_metric(
                sub, RoundUpTo((Fraction(0), *level_map))
            )
            for a in range(sub.n):
                for b in range(a + 1, sub.n):
                    exps[(a, b)] = level_map[rounded.dist[a][b]]
        else:
            rounded = sub
        cluster_metrics.append(rounded)
        exponents.append(exps)

    D = amalgamate(plan, cluster_metrics, hub)

    home = {}
    for ci, cluster in enumerate(plan.clusters):
        for pos, idx in enumerate(cluster):
            home[idx] = (ci, pos)
    rep_pos = {ci: plan.clusters[ci].index(plan.reps[ci]) for ci in range(len(plan.clusters))}

    def leg_exponent(ci: int, pos: int) -> int | None:
        rp = rep_pos[ci]
        if pos == rp:
            return None
        key = (min(pos, rp), max(pos, rp))
        return exponents[ci][key]

    certs: list[tuple[int, int, RangeCertificate]] = []
    for i in range(space.n):
        ci, pi = home[i]
        for j in range(i + 1, space.n):
            cj, pj = home[j]
            if ci == cj:
                key = (min(pi, pj), max(pi, pj))
                cert = RangeCertificate(0, exponents[ci][key], None)
            else:
                step = hub.dist[ci][cj] / eta
                if step.denominator != 1:
                    raise RuntimeError("internal: hub value off the eta grid")
                cert = RangeCertificate(
                    int(step), leg_exponent(ci, pi), leg_exponent(cj, pj)
                )
            certs.append((i, j, cert))

    params = RangeParams(eta, r)
    for i, j, cert in certs:
        if cert.value(params) != D.dist[i][j]:
            raise RuntimeError(f"internal: certificate mismatch at ({i}, {j})")
    if not validate_metric(D).is_metric:
        raise RuntimeError("internal: approximation lost metricity")
    # every ordered pair, so an asymmetric input's lower triangle counts too
    pairs = zip(chain.from_iterable(space.dist), chain.from_iterable(D.dist))
    if max(abs(a - b) for a, b in pairs) > epsilon:
        raise RuntimeError("internal: approximation moved too far")

    shared: dict[RangeCertificate, int] = {}
    index = [shared.setdefault(cert, len(shared)) for _, _, cert in certs]
    table = tuple(shared), np.array(index, dtype=np.intp)
    return ApproximationResult(D, plan, table, eta, r)


# The Fraction implementations of ``random_metric``, ``pullback_universal``,
# ``build_pair_universal``, ``build_funiv_approx``, the space reader and
# ``cantor_approx`` from before they were built on scaled integers, kept
# verbatim as the oracles for the differential tests.


def reference_random_metric(n: int, max_value=10, seed: int = 0) -> FiniteMetricSpace:
    """Seeded random metric: random symmetric weights, then path repair.

    Entries are multiples of max_value/32, so denominators stay small and
    the repaired minimum positive distance is at least max_value/32.
    Identical seeds give identical matrices.  More than ``_GEN_MAX_POINTS``
    points are refused before anything is built.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if n > _GEN_MAX_POINTS:
        raise ValueError(f"{n} points exceed the cap of {_GEN_MAX_POINTS}")
    max_value = as_scalar(max_value)
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    rng = random.Random(seed)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = Fraction(rng.randint(1, 32), 32) * max_value
            rows[i][j] = w
            rows[j][i] = w
    labels = tuple(f"p{i}" for i in range(n))
    raw = FiniteMetricSpace(labels, tuple(tuple(r) for r in rows))
    return metric_repair(raw)


def reference_pullback_universal(
    dX: FiniteMetricSpace, eY: FiniteMetricSpace, f: dict, r
) -> FiniteMetricSpace:
    """max(min(dX, r), eY o f): universal for r-separated subsets of the image.

    ``f`` maps every point label of dX onto a point label of eY and must
    be surjective.  For pairs whose images are at least r apart the result
    reproduces eY exactly, so any r-separated subspace of eY embeds by
    choosing one preimage per point.
    """
    r = as_scalar(r)
    if r <= 0:
        raise ValueError("r must be positive")
    missing = [x for x in dX.points if x not in f]
    if missing:
        raise ValueError(f"map is not total: {missing}")
    targets = {f[x] for x in dX.points}
    if targets != set(eY.points):
        raise ValueError("map must be onto the target points")
    yindex = {label: i for i, label in enumerate(eY.points)}
    n = dX.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        fi = yindex[f[dX.points[i]]]
        for j in range(i + 1, n):
            fj = yindex[f[dX.points[j]]]
            v = max(min(dX.dist[i][j], r), eY.dist[fi][fj])
            rows[i][j] = v
            rows[j][i] = v
    return FiniteMetricSpace(dX.points, tuple(tuple(row) for row in rows))


def reference_build_pair_universal(values) -> FiniteMetricSpace:
    """Space containing a pair at every prescribed distance.

    Pair i sits at distance values[i]; the a-side points form a unit-
    distance hub, so any two-point space with a listed value embeds as
    (a_i, b_i) exactly.
    """
    vals = [as_scalar(v) for v in values]
    if not vals:
        raise ValueError("need at least one pair value")
    if any(v <= 0 for v in vals):
        raise ValueError("pair values must be positive")
    if len(set(vals)) != len(vals):
        raise ValueError("pair values must be distinct")
    count = len(vals)
    labels = pair_points(count)
    plan = PartitionPlan(
        clusters=tuple((2 * i, 2 * i + 1) for i in range(count)),
        reps=tuple(2 * i for i in range(count)),
        radius=max(vals),
    )
    cluster_metrics = [
        FiniteMetricSpace(
            (labels[2 * i], labels[2 * i + 1]),
            ((Fraction(0), vals[i]), (vals[i], Fraction(0))),
        )
        for i in range(count)
    ]
    one = Fraction(1)
    hub_rows = tuple(
        tuple(Fraction(0) if i == j else one for j in range(count))
        for i in range(count)
    )
    hub = FiniteMetricSpace(tuple(labels[2 * i] for i in range(count)), hub_rows)
    return amalgamate(plan, cluster_metrics, hub)


def reference_build_funiv_approx(n: int, delta, copies: int = 1) -> FUnivApprox:
    """Amalgamate ``copies`` plain l-infinity nets with hub distance 1 + n.

    Each piece is the delta-net of [0, n]^n under its own l-infinity
    metric, so members of the card/diameter/separation class with
    delta-grid values embed exactly and everything else lands within
    additive distortion delta.

    This equals the pullback max(min(u, 1/n), l-infinity) of the net's
    subdominant ultrametric u: neighbouring grid points are delta apart,
    so u is delta off the diagonal, and there l-infinity >= delta >=
    min(delta, 1/n).

    The glued space may hold at most ``_FUNIV_MAX_POINTS`` points; larger
    requests are refused before anything is built.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    _net_side(n, as_scalar(delta), copies)
    net = make_net(n, delta)
    m = len(net.points)
    pieces = [
        FiniteMetricSpace(
            tuple(f"K{c}:{label}" for label in net.space.points), net.space.dist
        )
        for c in range(copies)
    ]
    plan = PartitionPlan(
        clusters=tuple(tuple(range(c * m, (c + 1) * m)) for c in range(copies)),
        reps=tuple(c * m for c in range(copies)),
        radius=Fraction(n),
    )
    far = Fraction(1 + n)
    hub_rows = tuple(
        tuple(Fraction(0) if i == j else far for j in range(copies))
        for i in range(copies)
    )
    hub = FiniteMetricSpace(tuple(p.points[0] for p in pieces), hub_rows)
    glued = amalgamate(plan, pieces, hub)
    return FUnivApprox(glued, net, copies)


def reference_from_rows(points, dist) -> FiniteMetricSpace:
    """A reference constructor that also keeps its ``Fraction`` rows as ``dist``.

    The shape is checked first, then every entry goes through ``as_scalar``
    in row-major order.  ``scaled`` is computed apart from the library: the
    lcm of the reduced denominators, each entry times it, int64 below 2^62
    and Python ints from there.
    """
    points, rows = tuple(points), tuple(map(tuple, dist))
    core._check_shape(points, rows)
    rows = tuple(tuple(map(as_scalar, row)) for row in rows)
    denom = math.lcm(*(v.denominator for row in rows for v in row))
    ints = [[int(v * denom) for v in row] for row in rows]
    peak = max(abs(v) for row in ints for v in row)
    arr = np.array(ints, dtype=object if peak >= 2**62 else np.int64)
    space = core._store(points, arr, denom)
    space.__dict__["dist"] = rows
    return space


_SCALAR = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def reference_parse_scalar(text) -> Fraction:
    """``jsonio.parse_scalar`` with its own dispatch: a JSON int >= 0 or a
    "p/q" or integer string of ASCII digits, anything else refused."""
    if isinstance(text, int) and not isinstance(text, bool):
        if text < 0:
            raise ValueError(f"negative value: {text}")
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    if not (m := _SCALAR.fullmatch(text)):
        raise ValueError(f"malformed rational {text!r} (want \"p/q\" or \"n\")")
    return Fraction(int(m[1]), int(m[2] or 1))


def reference_space_from_obj(obj) -> FiniteMetricSpace:
    """Strict reader for a space; equal entry strings share one Fraction.

    Each distinct string is parsed once per call.  Other entries go through
    ``reference_parse_scalar`` one by one, so bools and floats are still
    rejected.
    """
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError("space JSON needs 'points' and 'dist'")
    points, dist = obj["points"], obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("space JSON 'points' must be an array of strings")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise ValueError("space JSON 'dist' must be an array of arrays")
    parsed: dict[str, Fraction] = {}

    def parse(v) -> Fraction:
        if not isinstance(v, str):
            return reference_parse_scalar(v)
        if v not in parsed:
            parsed[v] = reference_parse_scalar(v)
        return parsed[v]

    rows = [[parse(v) for v in row] for row in dist]
    space = reference_from_rows(points, rows)
    # a row equals its column unless some pair (i, j) differs; the first row
    # that differs has its first difference at some j > i
    for i, (row, col) in enumerate(zip(space.dist, zip(*space.dist))):
        if row != col:
            j = next(j for j in range(i + 1, space.n) if row[j] != col[j])
            raise ValueError(f"matrix not symmetric at ({points[i]}, {points[j]})")
    return space


# --- the JSON builders the writers are tested against -------------------------
#
# Plain dicts of strings and lists: ``json.dumps(obj, indent=2,
# sort_keys=True) + "\n"`` of each is the text ``jsonio.encode`` must write
# for the matching ``jsonio.*_to_obj``.


def encoded(obj) -> str:
    """The text ``jsonio.encode`` writes for a builder's object."""
    return "".join(jsonio.encode(obj))


def reference_space_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[str(v) for v in row] for row in space.dist],
    }


def reference_validation_obj(report: ValidationReport) -> dict:
    return {
        "is_metric": report.is_metric,
        "is_ultrametric": report.is_ultrametric,
        "violations": [
            {
                "kind": v.kind,
                "witness": list(v.witness),
                "lhs": str(v.lhs),
                "rhs": str(v.rhs),
            }
            for v in report.violations
        ],
    }


def reference_plan_obj(plan: PartitionPlan) -> dict:
    return {
        "clusters": [list(c) for c in plan.clusters],
        "reps": list(plan.reps),
        "radius": str(plan.radius),
    }


def reference_certificate_obj(i: int, j: int, cert: RangeCertificate) -> dict:
    return {"i": i, "j": j, "l": cert.l, "n": cert.n, "m": cert.m}


def reference_approximation_obj(result: ApproximationResult) -> dict:
    return {
        "eta": str(result.eta),
        "r": str(result.r),
        "plan": reference_plan_obj(result.plan),
        "certificates": [
            reference_certificate_obj(i, j, cert) for i, j, cert in result.certificates
        ],
        "D": reference_space_obj(result.D),
    }


def reference_fragility_obj(report: FragilityReport) -> dict:
    return {
        "values": [str(v) for v in report.values],
        "epsilon": str(report.epsilon),
        "eta": str(report.eta),
        "r": str(report.r),
        "sup_distance": str(report.sup_distance),
        "max_value": str(report.max_value),
        "missed_interval": {
            "lo": str(report.gap_lo),
            "hi": str(report.gap_hi),
            "length": str(report.gap_length),
        },
        "lost_values": [str(v) for v in report.lost_values],
        "kept_values": [str(v) for v in report.kept_values],
        "D": reference_space_obj(report.approximation.D),
    }


def reference_funiv_obj(result: FUnivApprox) -> dict:
    return {
        "space": reference_space_obj(result.space),
        "net_points": [[str(c) for c in p] for p in result.net.points],
        "copies": result.copies,
    }


def reference_cantor_approx(k: int) -> FiniteMetricSpace:
    """Ultrametric on the 2^k binary strings: 2^-(first differing position).

    More than ``_GEN_MAX_POINTS`` points are refused before anything is
    built.
    """
    if k < 1:
        raise ValueError("depth must be at least 1")
    # 2^k <= cap exactly when k < cap.bit_length(), so a huge k is refused
    # without computing 2^k
    if k >= _GEN_MAX_POINTS.bit_length():
        raise ValueError(f"2^{k} points exceed the cap of {_GEN_MAX_POINTS}")
    labels = [format(i, f"0{k}b") for i in range(2**k)]
    # strings i != j first differ at position k - b, b the bit length of
    # i ^ j; one shared Fraction per b
    level = [Fraction(0)] + [Fraction(1, 2 ** (k - b + 1)) for b in range(1, k + 1)]
    rows = tuple(
        tuple(level[(i ^ j).bit_length()] for j in range(2**k)) for i in range(2**k)
    )
    return FiniteMetricSpace(tuple(labels), rows)


# ``cover`` from before it counted the separators below each value: it
# searches the grid indices between every two consecutive values, and picks
# each separator by the plain scans of ``first_free_pick`` on Fractions.
# The oracle for the differential test.


def first_free_pick(center, eta, values, q):
    """A separator by plain scans: the center, then center - eta, then the
    first point center - eta + k/2^m off the set, for the least m >= q + 5."""
    if center not in values:
        return center
    if center - eta not in values:
        return center - eta
    for m in count(q + 5):
        for k in range(int(2 * eta * 2**m) + 1):
            if center - eta + Fraction(k, 2**m) not in values:
                return center - eta + Fraction(k, 2**m)


def reference_cover(values, q: int) -> Nebula:
    """Trap a finite value set (containing 0) inside a q-nebula.

    Separator points are chosen just off the set on a dyadic grid of pitch
    2^-(q+1); runs of set values with no separator between them become the
    bounded intervals, and everything past the last separator joins the
    tail.  Every bounded interval has its endpoints in the set.
    """
    if not isinstance(q, int) or q < 0:
        raise ValueError("q must be a nonnegative integer")
    svals = sorted({as_scalar(v) for v in values})
    if svals and svals[0] < 0:
        raise ValueError("values live in [0, oo)")
    if not svals or svals[0] != 0:
        raise ValueError("the value set must contain 0")

    step = Fraction(1, 2 ** (q + 1))
    eta = Fraction(1, 2 ** (q + 3))
    grid_count = (q + 1) * 2 ** (q + 1)

    members = set(svals)

    def t_of(m: int) -> Fraction:  # m >= 1
        return first_free_pick(m * step, eta, members, q)

    t_last = t_of(grid_count)

    def separator_between(a: Fraction, b: Fraction) -> bool:
        # is there a chosen t_m strictly inside (a, b)?
        m_lo = max(1, math.floor((a - eta) / step) + 1)
        m_hi = min(grid_count, math.ceil((b + eta) / step) - 1)
        for m in range(m_lo, m_hi + 1):
            center = m * step
            if center - eta > a and center + eta < b:
                return True  # whole window inside, any pick works
            t = t_of(m)
            if a < t < b:
                return True
        return False

    body = [s for s in svals if s < t_last]
    tail_vals = [s for s in svals if s > t_last]

    runs: list[list[Fraction]] = [[body[0]]]
    for prev, cur in zip(body, body[1:]):
        if separator_between(prev, cur):
            runs.append([cur])
        else:
            runs[-1].append(cur)

    bounded = tuple((run[0], run[-1]) for run in runs)
    tail_start = tail_vals[0] if tail_vals else t_last
    result = Nebula(q, bounded, tail_start)
    check = reference_validate_nebula(result)
    if not check.is_valid:
        raise RuntimeError(f"internal: cover built an invalid nebula: {check.violations}")
    return result


# ``nebula.validate_nebula`` from before it cross-multiplied the ends'
# numerators and denominators: every check is a Fraction comparison.  Kept
# verbatim as the oracle for the differential test.


def reference_validate_nebula(candidate: Nebula) -> NebulaValidation:
    """Check the five defining conditions, reporting each failure."""
    problems: list[str] = []
    q = candidate.q
    if q < 0:
        problems.append("q must be a nonnegative integer")
        return NebulaValidation(False, tuple(problems))
    if q > MAX_Q:
        problems.append(_Q_TOO_LARGE)
        return NebulaValidation(False, tuple(problems))
    width_cap = Fraction(1, 2**q)

    if not candidate.bounded:
        problems.append("no bounded interval contains 0")
    else:
        a0, b0 = candidate.bounded[0]
        if a0 != 0 or b0 < 0:
            problems.append("first interval must start at 0")
    for a, b in candidate.bounded:
        if a > b:
            problems.append(f"interval [{a}, {b}] is not a closed interval")
        if a < 0:
            problems.append(f"interval [{a}, {b}] leaves [0, oo)")
        if b - a >= width_cap:
            problems.append(
                f"interval [{a}, {b}] has width {b - a} >= 2^-{q}"
            )
    for (a1, b1), (a2, b2) in zip(candidate.bounded, candidate.bounded[1:]):
        if a2 <= b1:
            problems.append(
                f"intervals [{a1}, {b1}] and [{a2}, {b2}] overlap or touch"
            )
    if candidate.tail_start <= q:
        problems.append(f"tail not in ({q}, oo): starts at {candidate.tail_start}")
    if candidate.bounded and candidate.tail_start <= candidate.bounded[-1][1]:
        problems.append("tail overlaps the last bounded interval")
    return NebulaValidation(not problems, tuple(problems))


# ``cli.render_range_svg`` from before it drew the value ticks from
# ``space.scaled``: one Fraction per value, from ``space.values()``.  Kept
# verbatim as the oracle for the differential test.


def reference_render_range_svg(space, nebula=None) -> str:
    """Number line with the metric's range as ticks and nebula bars above.

    Pixel coordinates use fixed two-decimal formatting; the exact rational
    behind every mark is kept in a data-exact attribute.
    """
    vals = space.values()
    top = vals[-1]
    if nebula is not None:
        top = max(top, nebula.tail_start)
    T = max(1, math.ceil(top))
    # integer ticks at multiples of the least power of ten giving at most 1001
    step = 1
    while T // step > 1000:
        step *= 10
    width, height, mx = 880, 150, 40
    inner = width - 2 * mx

    def px(v) -> str:
        # int true division is correctly rounded, so this is float(Fraction(v) / T)
        return f"{mx + v.numerator / (v.denominator * T) * inner:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mx}" y1="100" x2="{width - mx}" y2="100" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k in range(0, T + 1, step):
        x = px(k)
        parts.append(
            f'<line x1="{x}" y1="96" x2="{x}" y2="104" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x}" y="120" font-size="11" text-anchor="middle">{k}</text>'
        )
    if nebula is not None:
        for a, b in nebula.bounded:
            xa, xb = px(a), px(b)
            w = max(1.5, float(xb) - float(xa))
            parts.append(
                f'<rect x="{xa}" y="62" width="{w:.2f}" height="16" '
                f'fill="#9ecae1" data-exact="[{a},{b}]"/>'
            )
        xt = px(min(nebula.tail_start, T))
        parts.append(
            f'<rect x="{xt}" y="62" width="{width - mx - float(xt):.2f}" '
            f'height="16" fill="#9ecae1" data-exact="[{nebula.tail_start},inf)"/>'
        )
    for v in vals:
        x = px(v)
        parts.append(
            f'<line x1="{x}" y1="88" x2="{x}" y2="100" stroke="#d62728" '
            f'stroke-width="1.5" data-exact="{v}"/>'
        )
    parts.append(
        f'<text x="{mx}" y="30" font-size="13">distance range, '
        f"{space.n} points</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ``nebula._covering_intervals`` from before it ran on ``space.scaled``: one
# Fraction bisection per value.  Kept verbatim as the oracle for the
# differential test.


def reference_covering_intervals(nebula: Nebula, values) -> list[int]:
    """Sorted positions of the bounded intervals that hold some value.

    Raises ValueError at the first value (in the given order) that the
    nebula does not contain.
    """
    used = set()
    for v in values:
        if v >= nebula.tail_start:
            continue
        i = _interval_index(nebula.bounded, v)
        if i < 0:
            raise ValueError(f"metric value {v} lies outside the nebula")
        used.add(i)
    return sorted(used)


def first_primes(k: int) -> list[int]:
    """The first k primes, by trial division."""
    found: list[int] = []
    n = 2
    while len(found) < k:
        if all(n % p for p in takewhile(lambda p: p * p <= n, found)):
            found.append(n)
        n += 1
    return found
