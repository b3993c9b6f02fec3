"""Exact-rational finite metric spaces and the constructions that glue them.

Every distance is a ``fractions.Fraction``; all comparisons are exact, so
inequalities such as ``diameter <= 2 * radius`` are zero-tolerance
assertions rather than floating-point approximations.  The heavy O(n^3)
loops (axiom validation, shortest-path closure, minimax closure) run on a
scaled-integer matrix via numpy when the values fit in int64, with an
exact pure-Python fallback otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

Scalar = Fraction

# one addition of two scaled entries must not overflow int64
_INT64_SAFE = 2**62


class SearchCapExceeded(ValueError):
    """Raised when a combinatorial search refuses to run (cap exceeded)."""


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to an exact scalar; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__!s}")


def _as_int(value, what: str) -> int:
    """Return value if it is an int (bools excluded); raise ValueError otherwise."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Ordered point labels plus a square matrix of exact distances.

    The matrix is stored as given and may violate the metric axioms;
    ``validate_metric`` is the exhaustive checker.  Instances are
    immutable and safe to share across threads.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, points, rows) -> "FiniteMetricSpace":
        points = tuple(points)
        if len(points) == 0:
            raise ValueError("a space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("point labels must be distinct")
        if len(rows) != len(points):
            raise ValueError(
                f"shape error: {len(rows)} rows for {len(points)} points"
            )
        dist = []
        for row in rows:
            if len(row) != len(points):
                raise ValueError("shape error: distance matrix must be square")
            dist.append(tuple(as_scalar(v) for v in row))
        return cls(points, tuple(dist))

    @property
    def n(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index(self, label: str) -> int:
        return self.points.index(label)

    def restrict(self, indices) -> "FiniteMetricSpace":
        """Subspace on the given point indices, in the given order."""
        indices = tuple(indices)
        pts = tuple(self.points[i] for i in indices)
        rows = tuple(tuple(self.dist[i][j] for j in indices) for i in indices)
        return FiniteMetricSpace(pts, rows)

    def values(self) -> tuple[Fraction, ...]:
        """Sorted distinct distance values, always including 0."""
        seen = {Fraction(0)}
        for i in range(self.n):
            seen.update(self.dist[i])
        return tuple(sorted(seen))

    def max_value(self) -> Fraction:
        return max((v for row in self.dist for v in row), default=Fraction(0))

    def min_positive(self) -> Fraction | None:
        pos = [v for row in self.dist for v in row if v > 0]
        return min(pos) if pos else None


@dataclass(frozen=True)
class Violation:
    kind: str  # diagonal | symmetry | positivity | triangle
    witness: tuple[int, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ValidationReport:
    is_metric: bool
    is_ultrametric: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class PartitionPlan:
    """Ordered disjoint clusters of point indices with one representative each.

    Clusters produced by ``greedy_clopen_partition`` have diameter at most
    ``2 * radius`` under the source metric.
    """

    clusters: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    radius: Fraction


# ---------------------------------------------------------------------------
# scaled-integer helpers


def _int_matrix(rows, denom: int | None = None) -> tuple[np.ndarray, int]:
    """Entries times a common denominator, plus that denominator.

    The denominator defaults to the lcm of the entries' denominators; a
    given one must be a multiple of each of them.  The array is int64 when
    every scaled entry stays below 2^62, and an object array of Python ints
    otherwise.
    """
    if denom is None:
        denom = lcm(*{v.denominator for row in rows for v in row})
    scaled = [[v.numerator * (denom // v.denominator) for v in row] for row in rows]
    peak = max((abs(v) for row in scaled for v in row), default=0)
    return np.array(scaled, dtype=np.int64 if peak < _INT64_SAFE else object), denom


def _from_int_matrix(points, arr: np.ndarray, denom: int) -> FiniteMetricSpace:
    """Inverse of ``_int_matrix``: exact Fraction rows over the given points."""
    rows = tuple(tuple(Fraction(v, denom) for v in row) for row in arr.tolist())
    return FiniteMetricSpace(points, rows)


# ---------------------------------------------------------------------------
# validation


def validate_metric(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustively check the metric axioms; report every violation.

    Violation kinds are diagonal, symmetry, positivity and triangle; a
    triangle witness ``(i, k, j)`` means ``d(i,j) > d(i,k) + d(k,j)``.
    ``is_ultrametric`` (the max-triangle inequality) is only evaluated
    when all four axioms hold.
    """
    n = space.n
    dist = space.dist
    zero = Fraction(0)
    violations: list[Violation] = []

    for i in range(n):
        if dist[i][i] != 0:
            violations.append(Violation("diagonal", (i,), dist[i][i], zero))
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                violations.append(
                    Violation("symmetry", (i, j), dist[i][j], dist[j][i])
                )
            if dist[i][j] <= 0:
                violations.append(Violation("positivity", (i, j), dist[i][j], zero))
            if dist[j][i] <= 0 and dist[j][i] != dist[i][j]:
                violations.append(Violation("positivity", (j, i), dist[j][i], zero))

    arr, _ = _int_matrix(dist)
    # lhs[i,k,j] = d(i,j), rhs[i,k,j] = d(i,k) + d(k,j)
    bad = arr[:, None, :] > arr[:, :, None] + arr[None, :, :]
    for i, k, j in np.argwhere(bad):
        i, k, j = int(i), int(k), int(j)
        if i < j and k != i and k != j:
            violations.append(
                Violation(
                    "triangle", (i, k, j), dist[i][j], dist[i][k] + dist[k][j]
                )
            )

    is_metric = not violations
    is_ultrametric = False
    if is_metric:
        peak = np.maximum(arr[:, :, None], arr[None, :, :])
        is_ultrametric = not bool((arr[:, None, :] > peak).any())
    order = {"diagonal": 0, "symmetry": 1, "positivity": 2, "triangle": 3}
    violations.sort(key=lambda v: (order[v.kind], v.witness))
    return ValidationReport(is_metric, is_ultrametric, tuple(violations))


def sup_distance(d: FiniteMetricSpace, e: FiniteMetricSpace) -> Fraction:
    """Maximum of |d(x,y) - e(x,y)| over all pairs, exact."""
    if d.points != e.points:
        raise ValueError("sup_distance needs identical point lists")
    best = Fraction(0)
    for i in range(d.n):
        row_d, row_e = d.dist[i], e.dist[i]
        for j in range(i + 1, d.n):
            gap = abs(row_d[j] - row_e[j])
            if gap > best:
                best = gap
    return best


# ---------------------------------------------------------------------------
# gluing and partitioning


def amalgamate(
    plan: PartitionPlan,
    cluster_metrics: list[FiniteMetricSpace],
    hub: FiniteMetricSpace,
) -> FiniteMetricSpace:
    """Glue cluster metrics through their representatives and a hub metric.

    Within a cluster the cluster metric is kept exactly; across clusters
    ``D(x, y) = e_i(x, p_i) + h(p_i, p_j) + e_j(p_j, y)``.  The hub must
    have strictly positive off-diagonal entries, otherwise distinct points
    in different clusters could collapse to distance zero.
    """
    k = len(plan.clusters)
    if len(cluster_metrics) != k:
        raise ValueError("one cluster metric per cluster required")
    if hub.n != k:
        raise ValueError("hub must have one point per cluster")
    for i in range(k):
        for j in range(k):
            if i != j and hub.dist[i][j] <= 0:
                raise ValueError(
                    f"hub must be discrete: nonpositive entry at ({i}, {j})"
                )

    total = sum(len(c) for c in plan.clusters)
    flat = sorted(idx for c in plan.clusters for idx in c)
    if flat != list(range(total)):
        raise ValueError("clusters must partition the point indices")

    home = [(-1, -1)] * total  # ambient index -> (cluster, position)
    labels = [""] * total
    for ci, cluster in enumerate(plan.clusters):
        if len(cluster_metrics[ci].points) != len(cluster):
            raise ValueError(f"cluster metric {ci} has the wrong size")
        if plan.reps[ci] not in cluster:
            raise ValueError(f"representative of cluster {ci} is not a member")
        for pos, idx in enumerate(cluster):
            home[idx] = (ci, pos)
            labels[idx] = cluster_metrics[ci].points[pos]
        rep_pos = cluster.index(plan.reps[ci])
        if hub.points[ci] != cluster_metrics[ci].points[rep_pos]:
            raise ValueError(f"hub label {ci} does not match its representative")

    rep_pos = [plan.clusters[ci].index(plan.reps[ci]) for ci in range(k)]
    rows = [[Fraction(0)] * total for _ in range(total)]
    for s in range(total):
        ci, pi = home[s]
        e_i = cluster_metrics[ci].dist
        for t in range(s + 1, total):
            cj, pj = home[t]
            if ci == cj:
                v = e_i[pi][pj]
            else:
                v = (
                    e_i[pi][rep_pos[ci]]
                    + hub.dist[ci][cj]
                    + cluster_metrics[cj].dist[rep_pos[cj]][pj]
                )
            rows[s][t] = v
            rows[t][s] = v
    return FiniteMetricSpace(tuple(labels), tuple(tuple(r) for r in rows))


def greedy_clopen_partition(space: FiniteMetricSpace, r: Fraction) -> PartitionPlan:
    """Peel closed balls of radius r in point-index order.

    Scanning in index order is the single tie-breaker, so the result is a
    deterministic partition whose clusters have diameter <= 2r.
    """
    r = as_scalar(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    n = space.n
    assigned = [False] * n
    clusters: list[tuple[int, ...]] = []
    reps: list[int] = []
    for center in range(n):
        if assigned[center]:
            continue
        members = [
            j for j in range(n) if not assigned[j] and space.dist[center][j] <= r
        ]
        for j in members:
            assigned[j] = True
        clusters.append(tuple(members))
        reps.append(center)
    return PartitionPlan(tuple(clusters), tuple(reps), r)


def extend_metric(d: FiniteMetricSpace, points) -> FiniteMetricSpace:
    """Extend d to a superset of points; external pairs sit at 1 + max(d).

    The restriction to d's points is exact, and the constant is large
    enough that every triangle through a new point closes.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("point labels must be distinct")
    missing = set(d.points) - set(points)
    if missing:
        raise ValueError(f"extension must contain the original points: {missing}")
    far = 1 + d.max_value()
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
    return FiniteMetricSpace(points, tuple(rows))


def metric_repair(candidate: FiniteMetricSpace) -> FiniteMetricSpace:
    """Shortest-path closure of a symmetric weight matrix.

    Requires symmetry, a zero diagonal and strictly positive off-diagonal
    weights; the closure only ever lowers entries, and the result always
    satisfies the triangle inequality.
    """
    n = candidate.n
    dist = candidate.dist
    for i in range(n):
        if dist[i][i] != 0:
            raise ValueError(f"diagonal entry {i} must be zero")
        for j in range(n):
            if dist[i][j] != dist[j][i]:
                raise ValueError(f"matrix must be symmetric at ({i}, {j})")
            if i != j and dist[i][j] <= 0:
                raise ValueError(
                    f"off-diagonal entry ({i}, {j}) must be positive"
                )
    arr, denom = _int_matrix(dist)
    for k in range(n):
        np.minimum(arr, arr[:, k, None] + arr[None, k, :], out=arr)
    return _from_int_matrix(candidate.points, arr, denom)


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Largest ultrametric below the metric (single-linkage / minimax paths)."""
    arr, denom = _int_matrix(space.dist)
    for k in range(space.n):
        np.minimum(arr, np.maximum(arr[:, k, None], arr[None, k, :]), out=arr)
    return _from_int_matrix(space.points, arr, denom)


# ---------------------------------------------------------------------------
# generators


def random_metric(n: int, max_value=10, seed: int = 0) -> FiniteMetricSpace:
    """Seeded random metric: random symmetric weights, then path repair.

    Entries are multiples of max_value/32, so denominators stay small and
    the repaired minimum positive distance is at least max_value/32.
    Identical seeds give identical matrices.
    """
    if n < 1:
        raise ValueError("need at least one point")
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


def cantor_approx(k: int) -> FiniteMetricSpace:
    """Ultrametric on the 2^k binary strings: 2^-(first differing position)."""
    if k < 1:
        raise ValueError("depth must be at least 1")
    labels = [format(i, f"0{k}b") for i in range(2**k)]
    rows = []
    for x in labels:
        row = []
        for y in labels:
            if x == y:
                row.append(Fraction(0))
            else:
                first = next(t for t in range(k) if x[t] != y[t])
                row.append(Fraction(1, 2 ** (first + 1)))
        rows.append(tuple(row))
    return FiniteMetricSpace(tuple(labels), tuple(rows))


def pair_points(count: int) -> tuple[str, ...]:
    """Labels a0, b0, a1, b1, ... for two-point cluster constructions."""
    if count < 1:
        raise ValueError("need at least one pair")
    out = []
    for i in range(count):
        out.append(f"a{i}")
        out.append(f"b{i}")
    return tuple(out)
