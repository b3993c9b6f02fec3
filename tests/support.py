"""Shared generators and independent brute-force oracles for the tests.

Oracles here deliberately avoid the library's own algorithms: triangle
checks are plain triple loops, shortest and minimax paths enumerate
permutations, embedding search enumerates injections.  Slow but obviously
correct on the small inputs the tests feed them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

from metric_forge import (
    ApproximationResult,
    FiniteMetricSpace,
    RangeCertificate,
    RangeParams,
    RoundUpTo,
    amalgamate,
    as_scalar,
    geometric_levels,
    greedy_clopen_partition,
    quantize_discrete,
    subdominant_ultrametric,
    sup_distance,
    transform_metric,
    validate_metric,
)


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
    if sup_distance(space, D) > epsilon:
        raise RuntimeError("internal: approximation moved too far")

    return ApproximationResult(D, plan, tuple(certs), eta, r)
