"""Exact-rational finite metric spaces and the constructions that glue them.

Every distance is exact, so inequalities such as ``diameter <= 2 * radius``
are zero-tolerance assertions rather than floating-point approximations.  A
space stores one matrix, ``FiniteMetricSpace.scaled``: its distances over a
common denominator, int64 when the values fit and Python ints otherwise.
Every kernel reads it; ``dist`` is the exact ``Fraction`` view, built on use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

import numpy as np

Scalar = Fraction

# one addition of two scaled entries must not overflow int64
_INT64_SAFE = 2**62


class SearchCapExceeded(ValueError):
    """Raised when a combinatorial search refuses to run (cap exceeded)."""


def as_scalar(value) -> Fraction:
    """Coerce an int or Fraction to an exact scalar; floats and bools are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__!s}")


def _as_int(value, what: str) -> int:
    """Return value if it is an int (bools excluded); raise ValueError otherwise."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_shape(points: tuple, rows) -> None:
    """Refuse no points, repeated labels and a matrix that is not n x n."""
    if len(points) == 0:
        raise ValueError("a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValueError("point labels must be distinct")
    if len(rows) != len(points):
        raise ValueError(f"shape error: {len(rows)} rows for {len(points)} points")
    if any(len(row) != len(points) for row in rows):
        raise ValueError("shape error: distance matrix must be square")


def _int_matrix(rows, ints) -> np.ndarray:
    """``ints(row)`` per row as int64, or Python ints on overflow; one row alive."""
    arr = np.empty((len(rows), len(rows)), dtype=np.int64)
    try:
        for i, row in enumerate(rows):
            arr[i] = ints(row)
    except OverflowError:  # an entry outside int64
        arr = np.array([ints(row) for row in rows], dtype=object)
    return arr


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FiniteMetricSpace:
    """Ordered point labels plus a square matrix of exact distances.

    The matrix is stored once, as ``scaled``, and may violate the metric
    axioms; ``validate_metric`` is the exhaustive checker.  ``dist`` is
    its exact Fraction view.  Instances are immutable and safe to share
    across threads.
    """

    points: tuple[str, ...]
    # (arr, denom), arr / denom == dist: denom the lcm of reduced denominators;
    # arr read-only (a kernel writes on a copy), int64 while below 2^62
    scaled: tuple[np.ndarray, int]

    def __init__(self, points, dist):
        """Converts the rows once; as tuples they are already the view."""
        points, rows = tuple(points), tuple(map(tuple, dist))
        _check_shape(points, rows)
        denom = lcm(*{v.denominator for row in rows for v in row})
        arr = _int_matrix(
            rows, lambda row: [v.numerator * (denom // v.denominator) for v in row]
        )
        self.__dict__.update(_from_int_matrix(points, arr, denom).__dict__, dist=rows)

    @classmethod
    def from_rows(cls, points, rows) -> "FiniteMetricSpace":
        points = tuple(points)
        _check_shape(points, rows)
        return cls(points, [map(as_scalar, row) for row in rows])

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """Fraction rows of ``scaled``, one Fraction per distinct value; built once."""
        arr, denom = self.scaled
        rows = arr.tolist()
        table = {v: Fraction(v, denom) for v in set().union(*rows)}
        return tuple(tuple(map(table.__getitem__, row)) for row in rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        (a, da), (b, db) = self.scaled, other.scaled
        return self.points == other.points and da == db and np.array_equal(a, b)

    def __hash__(self):
        arr, denom = self.scaled
        return hash((self.points, denom, *arr.ravel().tolist()))

    def __repr__(self):
        return f"{type(self).__qualname__}(points={self.points!r}, dist={self.dist!r})"

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        return self.points.index(label)

    def restrict(self, indices) -> "FiniteMetricSpace":
        """Subspace on the given point indices, in the given order."""
        indices = list(indices)
        arr, denom = self.scaled
        pts = tuple(self.points[i] for i in indices)
        return _from_int_matrix(pts, arr[np.ix_(indices, indices)], denom)

    def values(self) -> tuple[Fraction, ...]:
        """Sorted distinct distance values, always including 0."""
        arr, denom = self.scaled
        distinct = sorted(set().union(*arr.tolist(), [0]))
        return tuple(Fraction(v, denom) for v in distinct)

    def max_value(self) -> Fraction:
        arr, denom = self.scaled
        return Fraction(int(arr.max()) if arr.size else 0, denom)

    def min_positive(self) -> Fraction | None:
        return next((v for v in self.values() if v > 0), None)


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


def _from_int_matrix(points, arr: np.ndarray, denom: int) -> FiniteMetricSpace:
    """The space of ``arr / denom``, stored as ``scaled`` without a Fraction.

    ``arr`` and ``denom`` are divided by their gcd, and the dtype follows
    the 2^62 rule, so every space holds the one ``scaled`` its Fraction
    rows give.  ``arr`` is kept, read-only, when it needs no change.
    """
    g = gcd(denom, int(np.gcd.reduce(arr, axis=None)))
    if g > 1:
        arr, denom = _widen(arr, g) // g, denom // g  # g may pass int64
    arr = arr.astype(object if _peak(arr) >= _INT64_SAFE else np.int64, copy=False)
    arr.flags.writeable = False
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(points=tuple(points), scaled=(arr, denom))
    return space


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude, 0 when empty (np.abs would keep an int64 -2^63)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _widen(arr: np.ndarray, bound: int) -> np.ndarray:
    """``arr`` as Python ints when ``bound`` reaches 2^62, else unchanged.

    ``bound`` is the largest magnitude the caller's arithmetic on ``arr``
    can reach, so int64 is kept exactly where it cannot overflow.
    """
    return arr.astype(object, copy=False) if bound >= _INT64_SAFE else arr


def _rescale(arr: np.ndarray, factor: int) -> np.ndarray:
    """``arr * factor``, widened to Python ints where int64 could overflow."""
    if factor == 1:
        return arr
    # a peak of at least 1, so that zeros times a factor past 2^63 widen too
    return _widen(arr, max(_peak(arr), 1) * factor) * factor


# ---------------------------------------------------------------------------
# validation


def _witnesses(arr: np.ndarray) -> list[tuple[str, tuple[int, ...]]]:
    """Every axiom violation of a scaled-integer matrix, in report order.

    Each item is ``(kind, witness)``; see ``validate_metric`` for the kinds
    and witnesses.  The order is by kind, then by witness.  An empty list
    means the matrix is a metric.
    """
    n = len(arr)
    iu, ju = np.triu_indices(n, 1)
    upper, lower = arr[iu, ju], arr[ju, iu]
    asym = upper != lower
    found = [("diagonal", (i,)) for i in np.flatnonzero(np.diagonal(arr) != 0).tolist()]
    found += [("symmetry", w) for w in zip(iu[asym].tolist(), ju[asym].tolist())]
    low = (lower <= 0) & asym
    nonpositive = list(zip(iu[upper <= 0].tolist(), ju[upper <= 0].tolist()))
    nonpositive += zip(ju[low].tolist(), iu[low].tolist())
    found += [("positivity", w) for w in sorted(nonpositive)]
    # lhs[i,k,j] = d(i,j), rhs[i,k,j] = d(i,k) + d(k,j)
    bad = arr[:, None, :] > arr[:, :, None] + arr[None, :, :]
    if not bad.any():  # the common case; any() is cheaper than argwhere
        return found
    ikj = np.argwhere(bad)
    i, k, j = ikj.T
    keep = (i < j) & (k != i) & (k != j)
    found += [("triangle", w) for w in map(tuple, ikj[keep].tolist())]
    return found


def _violation(dist, kind: str, witness: tuple[int, ...]) -> Violation:
    """The report entry for one witness, with its exact sides."""
    i, j = witness[0], witness[-1]
    if kind == "triangle":
        k = witness[1]
        rhs = dist[i][k] + dist[k][j]
    elif kind == "symmetry":
        rhs = dist[j][i]
    else:
        rhs = Fraction(0)
    return Violation(kind, witness, dist[i][j], rhs)


def validate_metric(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustively check the metric axioms; report every violation.

    Violation kinds are diagonal, symmetry, positivity and triangle; a
    triangle witness ``(i, k, j)`` means ``d(i,j) > d(i,k) + d(k,j)``.
    ``is_ultrametric`` (the max-triangle inequality) is only evaluated
    when all four axioms hold.
    """
    arr, _ = space.scaled
    violations = tuple(_violation(space.dist, *v) for v in _witnesses(arr))
    # an ultrametric is exactly a metric equal to its subdominant ultrametric
    is_ultrametric = not violations and bool(
        (_path_closure(arr.copy(), np.maximum) == arr).all()
    )
    return ValidationReport(not violations, is_ultrametric, violations)


def _sup_gap(x: np.ndarray, dx: int, y: np.ndarray, dy: int) -> Fraction:
    """Max over pairs i < j of |x[i,j]/dx - y[i,j]/dy|, exact."""
    scale = lcm(dx, dy)
    iu, ju = np.triu_indices(len(x), 1)
    gap = np.abs(_rescale(x[iu, ju], scale // dx) - _rescale(y[iu, ju], scale // dy))
    return Fraction(int(gap.max()) if gap.size else 0, scale)


def sup_distance(d: FiniteMetricSpace, e: FiniteMetricSpace) -> Fraction:
    """Maximum of |d(x,y) - e(x,y)| over all pairs, exact."""
    if d.points != e.points:
        raise ValueError("sup_distance needs identical point lists")
    return _sup_gap(*d.scaled, *e.scaled)


# ---------------------------------------------------------------------------
# gluing and partitioning


def _check_hub(hub: np.ndarray) -> None:
    """Refuse a hub with a nonpositive off-diagonal entry (first row-major)."""
    bad = hub <= 0
    np.fill_diagonal(bad, False)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        raise ValueError(f"hub must be discrete: nonpositive entry at ({i}, {j})")


def _glue(
    home: np.ndarray, reps: np.ndarray, inner: np.ndarray, hub: np.ndarray
) -> np.ndarray:
    """Amalgamation on one integer scale.

    ``home[s]`` is the cluster of point s, ``reps[c]`` the point that
    represents cluster c, ``inner`` holds every cluster metric in its
    block, and ``hub`` is indexed by cluster.  For s < t in different
    clusters the result is ``inner[s, rep] + hub[c_s, c_t] + inner[rep', t]``,
    mirrored below the diagonal.  The caller picks a dtype wide enough for
    that sum.
    """
    points = np.arange(len(home))
    rep = reps[home]
    glued = hub[np.ix_(home, home)]
    glued += inner[points, rep][:, None]
    glued += inner[rep, points][None, :]
    np.copyto(glued, inner, where=home[:, None] == home[None, :])
    upper = np.triu(glued, 1)
    return upper + upper.T


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
    denom = lcm(*(m.scaled[1] for m in (hub, *cluster_metrics)))
    hub_arr = _rescale(hub.scaled[0], denom // hub.scaled[1])
    _check_hub(hub_arr)

    total = sum(len(c) for c in plan.clusters)
    flat = sorted(idx for c in plan.clusters for idx in c)
    if flat != list(range(total)):
        raise ValueError("clusters must partition the point indices")

    home = np.empty(total, dtype=np.intp)
    labels = [""] * total
    for ci, cluster in enumerate(plan.clusters):
        if len(cluster_metrics[ci].points) != len(cluster):
            raise ValueError(f"cluster metric {ci} has the wrong size")
        if plan.reps[ci] not in cluster:
            raise ValueError(f"representative of cluster {ci} is not a member")
        for pos, idx in enumerate(cluster):
            home[idx] = ci
            labels[idx] = cluster_metrics[ci].points[pos]
        rep_pos = cluster.index(plan.reps[ci])
        if hub.points[ci] != cluster_metrics[ci].points[rep_pos]:
            raise ValueError(f"hub label {ci} does not match its representative")

    blocks = [_rescale(m.scaled[0], denom // m.scaled[1]) for m in cluster_metrics]
    peak = 2 * max((_peak(b) for b in blocks), default=0) + _peak(hub_arr)
    dtype = object if peak >= _INT64_SAFE else np.int64
    inner = np.zeros((total, total), dtype=dtype)
    for cluster, block in zip(plan.clusters, blocks):
        inner[np.ix_(cluster, cluster)] = block
    glued = _glue(home, np.array(plan.reps), inner, hub_arr.astype(dtype))
    return _from_int_matrix(tuple(labels), glued, denom)


def _partition(arr: np.ndarray, denom: int, r: Fraction) -> PartitionPlan:
    """``greedy_clopen_partition`` on a scaled-integer matrix."""
    # x / denom <= r iff x <= floor(r * denom) for an integer x; int64
    # entries stay below 2^62, so clamping there keeps every verdict
    bound = r.numerator * denom // r.denominator
    if arr.dtype != object:
        bound = min(bound, _INT64_SAFE)
    free = np.ones(len(arr), dtype=bool)
    clusters: list[tuple[int, ...]] = []
    reps: list[int] = []
    for center in range(len(arr)):
        if free[center]:
            members = np.flatnonzero(free & (arr[center] <= bound))
            free[members] = False
            clusters.append(tuple(members.tolist()))
            reps.append(center)
    return PartitionPlan(tuple(clusters), tuple(reps), r)


def greedy_clopen_partition(space: FiniteMetricSpace, r: Fraction) -> PartitionPlan:
    """Peel closed balls of radius r in point-index order.

    Scanning in index order is the single tie-breaker, so the result is a
    deterministic partition whose clusters have diameter <= 2r.
    """
    r = as_scalar(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    return _partition(*space.scaled, r)


def extend_metric(d: FiniteMetricSpace, points) -> FiniteMetricSpace:
    """Extend d to a superset of points; external pairs sit at 1 + max(d).

    The restriction to d's points is exact, and the constant is large
    enough that every triangle through a new point closes.
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise ValueError("point labels must be distinct")
    at = {label: i for i, label in enumerate(points)}
    missing = [x for x in d.points if x not in at]
    if missing:
        raise ValueError(f"extension must contain the original points: {missing}")
    arr, denom = d.scaled
    far = denom + int(arr.max())  # 1 + max(d) on d's scale
    arr = _widen(arr, far)
    out = np.full((len(points), len(points)), far, dtype=arr.dtype)
    old = [at[x] for x in d.points]
    out[np.ix_(old, old)] = arr
    np.fill_diagonal(out, 0)
    return _from_int_matrix(points, out, denom)


def metric_repair(candidate: FiniteMetricSpace) -> FiniteMetricSpace:
    """Shortest-path closure of a symmetric weight matrix.

    Requires symmetry, a zero diagonal and strictly positive off-diagonal
    weights; the closure only ever lowers entries, and the result always
    satisfies the triangle inequality.
    """
    arr, denom = candidate.scaled
    # reported in row-major order: a bad entry below the diagonal has a bad
    # mirror in an earlier row, so the first one lies on or above it
    bad = (arr != arr.T) | (arr <= 0)
    np.fill_diagonal(bad, np.diagonal(arr) != 0)
    if bad.any():
        i, j = np.argwhere(bad)[0].tolist()
        if i == j:
            raise ValueError(f"diagonal entry {i} must be zero")
        if arr[i, j] != arr[j, i]:
            raise ValueError(f"matrix must be symmetric at ({i}, {j})")
        raise ValueError(f"off-diagonal entry ({i}, {j}) must be positive")
    return _from_int_matrix(candidate.points, _path_closure(arr.copy(), np.add), denom)


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Largest ultrametric below the metric (single-linkage / minimax paths)."""
    arr, denom = space.scaled
    return _from_int_matrix(space.points, _path_closure(arr.copy(), np.maximum), denom)


def _path_closure(arr: np.ndarray, join) -> np.ndarray:
    """Floyd-Warshall closure of a scaled-integer matrix, in place.

    A path's length is its edges combined by ``join``: ``np.add`` gives
    shortest paths, ``np.maximum`` minimax paths (single linkage).
    """
    for k in range(len(arr)):
        np.minimum(arr, join(arr[:, k, None], arr[None, k, :]), out=arr)
    return arr


# ---------------------------------------------------------------------------
# generators

# the most points a generator builds (2^10)
_GEN_MAX_POINTS = 1024


def random_metric(n: int, max_value=10, seed: int = 0) -> FiniteMetricSpace:
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
    # weights in steps of max_value/32, drawn row by row over the pairs i < j
    iu, ju = np.triu_indices(n, 1)
    arr = np.zeros((n, n), dtype=np.int64)
    arr[iu, ju] = [rng.randint(1, 32) for _ in range(len(iu))]
    arr = _path_closure(_rescale(arr + arr.T, max_value.numerator), np.add)
    labels = tuple(f"p{i}" for i in range(n))
    return _from_int_matrix(labels, arr, 32 * max_value.denominator)


def cantor_approx(k: int) -> FiniteMetricSpace:
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
    labels = tuple(format(i, f"0{k}b") for i in range(2**k))
    # strings i != j first differ at position k - b, b the bit length of
    # i ^ j, so their distance is top[i ^ j] / 2^k, top[x] the top bit of x
    top = np.array([0] + [1 << (x.bit_length() - 1) for x in range(1, 2**k)])
    ids = np.arange(2**k)
    return _from_int_matrix(labels, top[ids[:, None] ^ ids[None, :]], 2**k)


def pair_points(count: int) -> tuple[str, ...]:
    """Labels a0, b0, a1, b1, ... for two-point cluster constructions."""
    if count < 1:
        raise ValueError("need at least one pair")
    out = []
    for i in range(count):
        out.append(f"a{i}")
        out.append(f"b{i}")
    return tuple(out)
