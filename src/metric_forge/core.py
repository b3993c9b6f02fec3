"""Exact-rational finite metric spaces and the constructions that glue them.

Every distance is exact, so inequalities such as ``diameter <= 2 * radius``
are zero-tolerance assertions rather than floating-point approximations.  A
space stores one matrix, ``FiniteMetricSpace.scaled``: its distances over a
common denominator, int64 when the values fit and Python ints otherwise.
Every kernel reads it; ``dist`` is the exact ``Fraction`` view, built on use.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm

import numpy as np

Scalar = Fraction

# one addition of two scaled entries must not overflow int64
_INT64_SAFE = 2**62

# the most decimal digits a scale set by user parameters may have: Python's
# default limit on writing an int as text, so past it a result could not be
# written anyway.  approximate's level walk refuses a level scale
# den(eta) * den(r)^k at 10^_MAX_SCALE_DIGITS, and nebula.MAX_Q keeps 2^q
# of a cover's and a margin's dyadic scales under it
_MAX_SCALE_DIGITS = 4300


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


def _int_matrix(rows, ratio) -> tuple[np.ndarray, int]:
    """Flat ``rows`` on the lcm L of each distinct entry's ``ratio`` (p, q); and L."""
    seen = defaultdict(count().__next__)
    at = map(seen.__getitem__, chain.from_iterable(rows))
    codes = np.fromiter(at, np.intp, sum(map(len, rows)))
    ratios = list(map(ratio, seen))
    denom = lcm(*(q for _, q in ratios))
    ints = [p * (denom // q) for p, q in ratios]
    wide = max(map(abs, ints), default=0) >= _INT64_SAFE
    return np.array(ints, dtype=object if wide else np.int64)[codes], denom


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
        # as_scalar refuses floats and bools, and keeps a Fraction as it is
        rows = tuple(tuple(map(as_scalar, row)) for row in rows)
        # keyed by (p, q) pairs, which hash far faster than Fractions do
        pairs = [list(map(Fraction.as_integer_ratio, row)) for row in rows]
        arr, denom = _int_matrix(pairs, tuple)  # a pair is its own ratio
        arr = arr.reshape(len(rows), -1)
        self.__dict__.update(_store(points, arr, denom).__dict__, dist=rows)

    @classmethod
    def from_rows(cls, points, rows) -> "FiniteMetricSpace":
        return cls(points, rows)

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
        return tuple(Fraction(v, denom) for v in _distinct(arr))

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


@dataclass(frozen=True, eq=False, repr=False)
class ValidationReport:
    """The verdicts of ``validate_metric`` and every violation it found.

    The violations are stored once, as ``table``: the integer blocks of
    ``_witnesses`` and the denominator of their sides.  ``violations`` is
    their ``Violation`` view, built the first time it is read.  ``==``,
    ``hash`` and ``repr`` go through the view, as for a plain dataclass of
    the two verdicts and ``violations``.
    """

    is_metric: bool
    is_ultrametric: bool
    # (blocks, denom): the read-only (kind, witness, lhs, rhs) blocks of
    # _witnesses, in report order, their sides over denom
    table: tuple[tuple, int]

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """One Violation per table row, one Fraction per distinct side; built once."""
        blocks, denom = self.table
        rows = [
            (kind, witness.tolist(), lhs.tolist(), rhs.tolist())
            for kind, witness, lhs, rhs in blocks
        ]
        sides = {v: Fraction(v, denom) for *_, lhs, rhs in rows for v in {*lhs, *rhs}}
        return tuple(
            Violation(kind, tuple(w), sides[lhs], sides[rhs])
            for kind, ws, lhss, rhss in rows
            for w, lhs, rhs in zip(ws, lhss, rhss)
        )

    def _key(self):
        return self.is_metric, self.is_ultrametric, self.violations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(is_metric={self.is_metric!r}, "
            f"is_ultrametric={self.is_ultrametric!r}, violations={self.violations!r})"
        )


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
    return _store(points, arr, denom)


def _store(points, arr: np.ndarray, denom: int) -> FiniteMetricSpace:
    """The space of ``arr / denom``, reduced and on the 2^62 dtype rule; read-only.

    ``_int_matrix`` leaves it so from (p, q) in lowest terms: if r^e exactly
    divides L it exactly divides some q, and r divides neither p nor L / q.
    """
    arr.flags.writeable = False
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(points=tuple(points), scaled=(arr, denom))
    return space


def _distinct(arr: np.ndarray) -> list[int]:
    """Sorted distinct entries of a scaled matrix, 0 included, as Python ints."""
    return sorted(set().union(*arr.tolist(), [0]))


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude, 0 when empty (np.abs would keep an int64 -2^63)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _widen(arr: np.ndarray, bound: int) -> np.ndarray:
    """``arr`` as Python ints when ``bound`` reaches 2^62, else unchanged.

    ``bound`` is the largest magnitude the caller's arithmetic on ``arr``
    can reach, so int64 is kept exactly where it cannot overflow.
    """
    return arr.astype(object, copy=False) if bound >= _INT64_SAFE else arr


def _narrow(bound: int):
    """The narrowest of int16, int32 and int64 (else object) holding ``bound``."""
    fits = (t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    return next(fits, object)


def _rescale(arr: np.ndarray, factor: int) -> np.ndarray:
    """``arr * factor``, widened to Python ints where int64 could overflow."""
    if factor == 1:
        return arr
    # a peak of at least 1, so that zeros times a factor past 2^63 widen too
    return _widen(arr, max(_peak(arr), 1) * factor) * factor


# ---------------------------------------------------------------------------
# validation


# the most cells (rows x n x n) one slab of the triangle scan compares at
# once (2^20), which keeps an object-path slab near 50 MB
_SLAB_CELLS = 2**20


def _witnesses(arr: np.ndarray):
    """Every axiom violation of a scaled-integer matrix, as blocks in report order.

    Yields ``(kind, witness, lhs, rhs)`` blocks: ``witness`` an m x w
    integer array (w = 1 for diagonal, 2 for symmetry and positivity, 3
    for triangle), ``lhs`` and ``rhs`` length-m arrays of the sides on
    ``arr``'s scale and of its dtype (see ``validate_metric``).  Blocks
    come by kind, rows within a block by witness, and no block is empty,
    so nothing yielded means the matrix is a metric.  No per-violation
    object is built.  Memory stays O(n^2):

    - one block per cheap kind that has a witness (diagonal, symmetry,
      positivity) comes first, from O(n^2) masks read in row-major order;
    - if there are none, the triangle verdict is ``_holds(arr, np.add)``,
      which decides every d(i,j) <= d(i,k) + d(k,j) on integer floors
      of the entries.  It needs the zero diagonal and the nonnegative
      entries that the cheap checks have just established; on a matrix
      with a cheap witness its sums could wrap, so it never runs there;
    - only on a "no" (a failed triangle verdict or a failed cheap check)
      does ``_triangles`` enumerate the triangle blocks, slab by slab.
    """
    diag, zero = np.diagonal(arr), np.zeros_like(arr)
    above = ~np.tri(len(arr), dtype=bool)  # the pairs i < j
    asym = arr != arr.T
    cheap = False
    # a pair below the diagonal is a positivity witness only where it
    # differs from its mirror, which is already reported
    for kind, mask, lhs, rhs in (
        ("diagonal", diag != 0, diag, zero[0]),
        ("symmetry", asym & above, arr, arr.T),
        ("positivity", (arr <= 0) & (above | asym), arr, zero),
    ):
        if mask.any():
            cheap = True
            yield kind, np.argwhere(mask), lhs[mask], rhs[mask]
    if cheap or not _holds(arr, np.add):
        yield from _triangles(arr)


def _holds(arr: np.ndarray, join) -> bool:
    """Whether ``arr[i,j] <= join(arr[i,k], arr[k,j])`` for i != j, k not in {i, j}.

    ``arr`` is symmetric with a zero diagonal and nonnegative entries
    (int64 or Python ints); ``join`` is ``np.add`` (the triangle
    inequality) or ``np.maximum`` (the ultrametric one).  The verdict is
    decided on integer floors ``lo = arr >> s``, with ``s`` the least
    shift that puts the peak below 2^60 (0 on ordinary int64 input), and
    ``lo * 2^s <= a < (lo + 1) * 2^s`` for every entry a.  ``mask``, the
    least power of two above every floor, is held with them in
    ``_narrow(2 * mask + 1)``, past every join and ``two +- slack``:

    - ``two[i,j]`` is the least ``join(lo[i,k], lo[k,j])`` over k not in
      {i, j}; a diagonal of ``mask`` keeps k = i and k = j out of it;
    - yes when every ``lo[i,j] <= two[i,j] - slack``, ``slack`` 1 when
      s > 0 and else 0: ``a_ij < (lo_ij + 1) * 2^s <= two * 2^s``, which
      is at most every ``join(a_ik, a_kj)``;
    - no when some ``lo[i,j] > two[i,j] + slack``: at that pair's best k,
      ``a_ik + a_kj < (lo_ik + lo_kj + 2) * 2^s`` and
      ``max(a_ik, a_kj) < (max(lo_ik, lo_kj) + 1) * 2^s``, both at most
      ``lo_ij * 2^s <= a_ij``;
    - otherwise, which needs s > 0 and a near-tight triangle, the exact
      closure decides: its entries only fall, so an unchanged closure
      means every inequality held.

    With s = 0 the check is exact.  Python ints, and int64 with a negative
    entry (outside this contract), keep int64 floors.  ``two`` is built k
    by k in one reused n x n buffer, so memory stays O(n^2).
    """
    top = int(arr.max())
    s = max(0, top.bit_length() - 60)
    mask = 1 << (top >> s).bit_length()
    wide = arr.dtype == object or arr.min() < 0
    off = (arr >> s).astype(np.int64 if wide else _narrow(2 * mask + 1), copy=False)
    np.fill_diagonal(off, mask)
    two, via = np.full_like(off, 2 * mask), np.empty_like(off)
    for k in range(len(off)):
        join(off[:, k, None], off[None, k, :], out=via)
        np.minimum(two, via, out=two)
    # a diagonal above every entry of off reads as a yes and never as a no
    np.fill_diagonal(two, 2 * mask)
    slack = 1 if s else 0
    # via takes two -+ slack, so no n x n array is added past the loop's
    if (off <= np.subtract(two, slack, out=via)).all():
        return True
    if (off > np.add(two, slack, out=via)).any():
        return False
    return bool((_path_closure(arr.copy(), join) == arr).all())


def _triangles(arr: np.ndarray):
    """Every triangle violation, i < j and k not in {i, j}, in witness order.

    Yields one ``("triangle", ikj, d(i,j), d(i,k) + d(k,j))`` block per
    slab that has a violation: ``ikj`` the m x 3 array of witnesses
    ``(i, k, j)``, the sides length-m arrays on ``arr``'s scale and of its
    dtype.  Rows i are compared a slab at a time, at most ``_SLAB_CELLS``
    cells and at least one row, on a copy in ``_narrow(2 * peak)`` with a
    zero diagonal (which enters only k in {i, j}) and, where j <= i, a
    left side that no sum is below.  The verdicts overwrite the slab's sums;
    one ``argwhere`` per slab, row-major over (i, k, j) and slab by slab in
    i order, is the witness order and the block's only index array.
    """
    n = len(arr)
    work = arr.astype(_narrow(2 * _peak(arr)))
    np.fill_diagonal(work, 0)
    lhs = np.where(~np.tri(n, dtype=bool), work, 2 * work.min())
    rows = max(1, _SLAB_CELLS // max(n * n, 1))
    for start in range(0, n, rows):
        slab = work[start : start + rows]
        # lhs[i,k,j] = d(i,j) > rhs[i,k,j] = d(i,k) + d(k,j)
        rhs = np.add(slab[:, :, None], work[None, :, :])
        bad = np.greater(lhs[start : start + rows, None, :], rhs, out=rhs)
        if len(ikj := np.argwhere(bad)):
            ikj[:, 0] += start
            i, k, j = ikj.T
            yield "triangle", ikj, arr[i, j], arr[i, k] + arr[k, j]


def validate_metric(space: FiniteMetricSpace) -> ValidationReport:
    """Exhaustively check the metric axioms; report every violation.

    Violation kinds and their sides ``(lhs, rhs)`` are diagonal
    ``(d(i,i), 0)``, symmetry ``(d(i,j), d(j,i))``, positivity
    ``(d(i,j), 0)`` and triangle ``(d(i,j), d(i,k) + d(k,j))`` at witness
    ``(i, k, j)``: the kernel's integers on ``scaled`` over its
    denominator.  The report stores them as that integer table, the
    blocks of ``_witnesses``; its ``violations`` are built from it only
    when read.  ``is_ultrametric`` (the max-triangle inequality) is only
    evaluated when all four axioms hold.  Both verdicts come from
    ``_holds``, with ``+`` and with ``max``: an exact decision on integer
    floors of ``scaled`` (int16 to int64, as their sums need), which falls
    back to the path closure only where a triangle of a matrix past 2^60
    is tight to within one floor step.  Triangle witnesses are enumerated
    in slabs only on a "no", so memory stays O(n^2).
    """
    arr, denom = space.scaled
    blocks = tuple(_witnesses(arr))
    for block in blocks:
        for part in block[1:]:
            part.flags.writeable = False
    is_ultrametric = not blocks and _holds(arr, np.maximum)
    return ValidationReport(not blocks, is_ultrametric, (blocks, denom))


def _sup_gap(x: np.ndarray, dx: int, y: np.ndarray, dy: int) -> Fraction:
    """Max over all pairs of |x[i,j]/dx - y[i,j]/dy|, exact."""
    scale = lcm(dx, dy)
    gap = np.abs(_rescale(x, scale // dx) - _rescale(y, scale // dy))
    return Fraction(int(gap.max(initial=0)), scale)


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


# the most n^2 * bits(denom) amalgamate glues (2^29, 64 MiB of entries as
# wide as denom): the pairs of 1/p for the first 200 odd primes (2^28) glue
# in 130 MB, 300 (2^30) took 360 MB and 500 took 1.6 GB
_GLUE_MAX_BITS = 2**29


def amalgamate(
    plan: PartitionPlan,
    cluster_metrics: list[FiniteMetricSpace],
    hub: FiniteMetricSpace,
) -> FiniteMetricSpace:
    """Glue cluster metrics through their representatives and a hub metric.

    Within a cluster the cluster metric is kept exactly; across clusters
    ``D(x, y) = e_i(x, p_i) + h(p_i, p_j) + e_j(p_j, y)``.  The hub must
    have strictly positive off-diagonal entries, otherwise distinct points
    in different clusters could collapse to distance zero.  n points on a
    b-bit denominator with n^2 * b past ``_GLUE_MAX_BITS`` are refused.
    """
    k = len(plan.clusters)
    if len(cluster_metrics) != k:
        raise ValueError("one cluster metric per cluster required")
    if hub.n != k:
        raise ValueError("hub must have one point per cluster")
    denom = lcm(*(m.scaled[1] for m in (hub, *cluster_metrics)))
    total, bits = sum(len(c) for c in plan.clusters), denom.bit_length()
    if total * total * bits > _GLUE_MAX_BITS:
        msg = f"{total} x {total} entries on a {bits}-bit denominator exceed"
        raise ValueError(f"{msg} the cap of {_GLUE_MAX_BITS} bits")
    hub_arr = _rescale(hub.scaled[0], denom // hub.scaled[1])
    _check_hub(hub_arr)

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
    shortest paths over nonnegative entries, ``np.maximum`` minimax paths
    (single linkage), on a copy in ``_narrow`` of the longest candidate
    (``2 * peak``, ``peak``), written back.  One n x n buffer takes every
    k's candidate paths, so memory stays O(n^2) and none is made per k.
    """
    work = arr.astype(_narrow((2 if join is np.add else 1) * _peak(arr)))
    via = np.empty_like(work)
    for k in range(len(work)):
        join(work[:, k, None], work[None, k, :], out=via)
        np.minimum(work, via, out=work)
    arr[...] = work
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
    # shortest paths scale linearly, so close the int64 steps, then rescale
    arr = _rescale(_path_closure(arr + arr.T, np.add), max_value.numerator)
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
