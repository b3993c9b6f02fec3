"""Exact-rational finite metric spaces and the constructions that glue them.

Every distance is exact, so inequalities such as ``diameter <= 2 * radius``
are zero-tolerance assertions rather than floating-point approximations.  A
space holds only ``points`` and ``FiniteMetricSpace.scaled``, its distances
over a common denominator (int64 when they fit, else Python ints), which
every kernel reads; for every space, ``dist`` (the exact ``Fraction`` view,
gathered from ``_factorize`` codes) and ``levels`` are built on use.
Validation decides the triangle inequality on integer floors of that
matrix: in O(n^2) when each d(i,j) is at most the sum of the least
off-diagonal entries of rows i and j (the nearest-neighbour certificate,
which a metric with entries in some [a, 2a] meets, always below 2^60)
or an ultrametric, and otherwise by an O(n^3) min-plus loop.  The
ultrametric inequality is decided on Prim's tree, in O(n^2) comparisons.
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


def _check_labels(points) -> None:
    """Refuse no points and repeated labels, as every space does."""
    if len(points) == 0:
        raise ValueError("a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValueError("point labels must be distinct")


def _check_shape(points: tuple, rows) -> None:
    """Refuse no points, repeated labels and a matrix that is not n x n."""
    _check_labels(points)
    if len(rows) != len(points):
        raise ValueError(f"shape error: {len(rows)} rows for {len(points)} points")
    if any(len(row) != len(points) for row in rows):
        raise ValueError("shape error: distance matrix must be square")


def _int_matrix(rows, ratios) -> tuple[np.ndarray, int, list[int]]:
    """Flat ``rows`` on the lcm L of the distinct entries' (p, q); L; table.

    ``ratios`` maps the list of distinct entries, in first-seen order, to
    their (p, q) in one call.  L is the lcm of the distinct q, and the
    table holds each distinct entry's p * L / q, the ints the flat matrix
    is gathered from.
    """
    seen = defaultdict(count().__next__)
    at = map(seen.__getitem__, chain.from_iterable(rows))
    codes = np.fromiter(at, np.intp, sum(map(len, rows)))
    pairs = ratios(list(seen))
    denom = lcm(*{q for _, q in pairs})
    ints = [p * (denom // q) for p, q in pairs]
    dtype = _dtype_for(max(map(abs, ints), default=0))
    return np.array(ints, dtype=dtype)[codes], denom, ints


@dataclass(frozen=True, init=False, eq=False, repr=False)
class FiniteMetricSpace:
    """Ordered point labels plus a square matrix of exact distances.

    A space holds only ``points`` and ``scaled``, which may violate the
    metric axioms (``validate_metric`` checks them); ``dist``, gathered for
    every space, is its exact Fraction view, ``levels`` its distinct ints.
    Instances are immutable and safe to share across threads.
    """

    points: tuple[str, ...]
    # (arr, denom), arr / denom == dist: denom the lcm of reduced denominators;
    # arr read-only (a kernel writes on a copy), int64 while below 2^62
    scaled: tuple[np.ndarray, int]

    def __init__(self, points, dist):
        """Scales the rows straight into ``scaled``; no Fraction row is kept."""
        points, rows = tuple(points), tuple(map(tuple, dist))
        _check_shape(points, rows)
        # as_scalar refuses floats and bools; (p, q) hash faster than Fractions
        pairs = [list(map(Fraction.as_integer_ratio, map(as_scalar, r))) for r in rows]
        arr, denom, table = _int_matrix(pairs, list)  # a pair is its own ratio
        arr = arr.reshape(len(rows), -1)
        self.__dict__.update(_store(points, arr, denom, table).__dict__)

    @classmethod
    def from_rows(cls, points, rows) -> "FiniteMetricSpace":
        return cls(points, rows)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """Fraction rows of ``scaled``, gathered by ``_factorize`` codes; built once."""
        arr, denom = self.scaled
        values, at = _factorize(arr.ravel())
        table = np.array([Fraction(v, denom) for v in values.tolist()], dtype=object)
        return tuple(map(tuple, table[at.reshape(arr.shape)].tolist()))

    @cached_property
    def levels(self) -> tuple[int, ...]:
        """Sorted distinct entries of ``scaled``, 0 included, as Python ints.

        A space that ``_int_matrix`` scaled sorts its table, used once;
        any other reads them off ``scaled`` with one ``_factorize``.
        """
        table = self.__dict__.pop("_table", None)
        if table is None:
            table = _factorize(self.scaled[0].ravel())[0].tolist()
        return tuple(sorted({0, *table}))

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
        """Subspace on the given point indices, in order: some, none repeated."""
        n = self.n
        indices = [_as_int(i, "point index") for i in indices]
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"point index {i} out of range for {n} points")
        pts = tuple(self.points[i] for i in indices)
        _check_labels(pts)
        arr, denom = self.scaled
        return _from_int_matrix(pts, arr[np.ix_(indices, indices)], denom)

    def values(self) -> tuple[Fraction, ...]:
        """Sorted distinct distance values, always including 0."""
        denom = self.scaled[1]
        return tuple(Fraction(v, denom) for v in self.levels)

    def max_value(self) -> Fraction:
        arr, denom = self.scaled
        return Fraction(int(arr.max()), denom)

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
    arr = arr.astype(_dtype_for(_peak(arr)), copy=False)
    return _store(points, arr, denom)


def _store(points, arr: np.ndarray, denom: int, table=None) -> FiniteMetricSpace:
    """The space of ``arr / denom``, reduced and on the 2^62 dtype rule; read-only.

    ``_int_matrix`` leaves it so from (p, q) in lowest terms: if r^e exactly
    divides L it exactly divides some q, and r divides neither p nor L / q.
    Its ``table``, when given, is kept for ``FiniteMetricSpace.levels``.
    """
    arr.flags.writeable = False
    space = object.__new__(FiniteMetricSpace)
    space.__dict__.update(points=tuple(points), scaled=(arr, denom))
    if table is not None:
        space.__dict__["_table"] = table
    return space


def _peak(arr: np.ndarray) -> int:
    """Largest magnitude, 0 when empty (np.abs would keep an int64 -2^63)."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _dtype_for(bound: int):
    """object (Python ints) when ``bound`` reaches 2^62, else int64.

    This is the one storage rule: an array whose entries reach at most
    ``bound`` in magnitude stays int64 exactly while one addition of two
    entries cannot overflow.
    """
    return object if bound >= _INT64_SAFE else np.int64


def _widen(arr: np.ndarray, bound: int) -> np.ndarray:
    """``arr`` as Python ints when ``bound`` reaches 2^62, else unchanged.

    ``bound`` is the largest magnitude the caller's arithmetic on ``arr``
    can reach, so int64 is kept exactly where it cannot overflow.
    """
    return arr.astype(object, copy=False) if _dtype_for(bound) is object else arr


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


def _rational(v: int, denom: int) -> str:
    """``str(Fraction(v, denom))`` for ``denom >= 1``, from one gcd."""
    g = gcd(v, denom)
    return str(v // g) if g == denom else f"{v // g}/{denom // g}"


# the counting pass of _factorize scatters and gathers len entries and scans
# a table of span + 1 slots (a bool and an intp each, 9 bytes), where a
# sort takes O(len log len).  With numpy 2.4 on a 2-CPU x86_64 host, at len
# from 400 to 10^6, it beat the sort by 1.3-1.6x at a span of 8 len and by
# 1.8-3.8x up to 4 len; at 16 len it lost.  A span of at most 4 len keeps
# the table under 36 bytes per entry, so memory stays O(len): a peak of
# about 66 bytes per entry at the cap, against about 48 for the sort
_COUNT_SPAN = 4


def _factorize(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of the 1-D ``flat`` and each entry's index in them.

    The result of ``np.unique(flat, return_inverse=True)``, the index array
    1-D and of dtype intp, by one of three paths:

    - a counting pass, for an integer array that intp holds, nonempty, whose
      span max - min is at most ``_COUNT_SPAN`` times its length: it marks
      each entry's offset from the minimum in a bool table of span + 1
      entries, and the marked slots, in order, are the distinct values and
      number the entries, in O(len) time and memory with no sort.  The
      offsets are taken in intp: in the input's own dtype max - min can
      wrap (an int16 -32768 and 32000 are 64768 apart);
    - a hash pass, for a nonempty object array (Python ints, which index no
      table): one dict numbers each distinct value as it is first seen,
      then only the distinct values are sorted and the numbers remapped to
      their ranks, where ``np.unique`` would sort every entry by Python
      comparisons;
    - ``np.unique`` for everything else: sparse integer spans (a table that
      would outgrow the input) and empty arrays.  Its index array is
      raveled, since its shape has differed across numpy releases.
    """
    if flat.dtype.kind in "iu" and np.can_cast(flat.dtype, np.intp) and flat.size:
        lo, hi = int(flat.min()), int(flat.max())
        if hi - lo <= _COUNT_SPAN * flat.size:
            off = flat.astype(np.intp)
            off -= lo
            seen = np.zeros(hi - lo + 1, dtype=bool)
            seen[off] = True
            at = np.flatnonzero(seen)
            rank = np.empty(len(seen), dtype=np.intp)  # read only where seen
            rank[at] = np.arange(len(at))
            return (at + lo).astype(flat.dtype, copy=False), rank[off]
    if flat.dtype == object and flat.size:
        seen = defaultdict(count().__next__)
        first = np.fromiter(map(seen.__getitem__, flat), np.intp, flat.size)
        keys = list(seen)  # in order of first sight
        order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        return np.array(keys, dtype=object)[order], rank[first]
    values, inverse = np.unique(flat, return_inverse=True)
    return values, inverse.reshape(-1)


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
    - if there are none, the triangle verdict is ``_holds(arr)``,
      which decides every d(i,j) <= d(i,k) + d(k,j) on integer floors
      of the entries, in O(n^2) where each row's nearest neighbour
      certifies every pair and by the O(n^3) loop elsewhere.  It needs
      the symmetry, the zero diagonal and the nonnegative entries that
      the cheap checks have just established; on a matrix with a cheap
      witness its sums could wrap, so it never runs there;
    - only on a "no" (a failed triangle verdict or a failed cheap check)
      does ``_triangles`` enumerate the triangle blocks, slab by slab.
    """
    # one read-only zero of arr's dtype, broadcast: no n x n array of zeros
    diag, zero = np.diagonal(arr), np.broadcast_to(np.zeros((), arr.dtype), arr.shape)
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
    if cheap or not _holds(arr):
        yield from _triangles(arr)


def _holds(arr: np.ndarray) -> bool:
    """Whether ``arr[i,j] <= arr[i,k] + arr[k,j]`` for i != j, k not in {i, j}.

    ``arr`` is symmetric with a zero diagonal and nonnegative entries
    (int64 or Python ints).  The verdict is decided on integer floors
    ``lo = arr >> s``, with ``s`` the least shift that puts the peak below
    2^60 (0 on ordinary int64 input), and ``lo * 2^s <= a < (lo + 1) * 2^s``
    for every entry a; ``slack`` is 1 when s > 0 and else 0.  ``mask``,
    the least power of two above every floor, is held with them in
    ``_narrow(2 * mask + 1)``, past every sum and ``two +- slack``.

    First a certificate in O(n^2): ``near[i]``, the least ``lo[i,k]`` over
    k != i, has ``lo[i,k] + lo[k,j] >= near[i] + near[j]`` at every k not
    in {i, j} (``lo[k,j] = lo[j,k]``), so a pair with
    ``lo[i,j] <= near[i] + near[j] - slack`` holds at every k:
    ``a_ij < (lo_ij + 1) * 2^s <= (near_i + near_j) * 2^s <= a_ik + a_kj``
    when s > 0, and with s = 0 ``a_ij <= near_i + near_j`` is the same
    bound exactly.  If every pair passes, as every pair of entries in some
    [a, 2a] does when s = 0, the answer is yes with no k-loop and no
    closure, as on an ultrametric (``_is_ultrametric``, exact, O(n^2)),
    whose max never passes the sum.  Otherwise the k-loop decides:

    - ``two[i,j]`` is the least ``lo[i,k] + lo[k,j]`` over k not in
      {i, j}; a diagonal of ``mask`` keeps k = i and k = j out of it;
    - yes when every ``lo[i,j] <= two[i,j] - slack``: ``a_ij < (lo_ij +
      1) * 2^s <= two * 2^s``, which is at most every ``a_ik + a_kj``;
    - no when some ``lo[i,j] > two[i,j] + slack``: at that pair's k,
      ``a_ik + a_kj < (lo_ik + lo_kj + 2) * 2^s <= lo_ij * 2^s <= a_ij``.
      That holds at any k, and a partial minimum only falls, so the "no"
      is checked once after k = 0 too, and a matrix that fails there
      skips the other n - 1 steps;
    - otherwise, which needs s > 0 and a near-tight triangle, the exact
      closure decides: its entries only fall, so an unchanged closure
      means every inequality held.

    With s = 0 the check is exact.  The certificate's sums go into
    ``via``, one n x n buffer, which the loop reuses beside ``two``, built
    k by k, so memory stays O(n^2).
    """
    top = int(arr.max())
    s = max(0, top.bit_length() - 60)
    mask = 1 << (top >> s).bit_length()
    dtype = _narrow(2 * mask + 1)
    # unshifted, arr is cast straight into the copy, with no int64 shift first
    off = (arr >> s).astype(dtype, copy=False) if s else arr.astype(dtype)
    np.fill_diagonal(off, mask)
    slack = 1 if s else 0
    near = off.min(axis=1)  # the diagonal's mask is above every floor
    via = np.add(near[:, None], near)
    np.fill_diagonal(via, mask + slack)  # i = j is no pair
    if np.subtract(via, off, out=via).min() >= slack or _is_ultrametric(arr):
        return True
    two = np.full_like(off, 2 * mask)
    for k in range(len(off)):
        np.add(off[:, k, None], off[None, k, :], out=via)
        np.minimum(two, via, out=two)
        if k == 0:
            # a diagonal above every entry of off reads as a yes and never
            # as a no; via takes two + slack, so no n x n array is added
            np.fill_diagonal(two, 2 * mask)
            if (off > np.add(two, slack, out=via)).any():
                return False
    np.fill_diagonal(two, 2 * mask)
    if (off <= np.subtract(two, slack, out=via)).all():
        return True
    if (off > np.add(two, slack, out=via)).any():
        return False
    return bool((_path_closure(arr, np.add) == arr).all())


def _is_ultrametric(arr: np.ndarray) -> bool:
    """Whether ``arr[i,j] <= max(arr[i,k], arr[k,j])`` for all i, j, k.

    ``arr`` is symmetric with a zero diagonal and nonnegative entries (int64
    or Python ints), so it is an ultrametric exactly when it equals its
    subdominant ultrametric U, the minimax path lengths: the largest edge
    on each path of a minimum spanning tree (single linkage; Gower & Ross
    1969).  Prim's tree grows from point 0; a point v joining it at its
    parent p by an edge of weight w has ``U[v,x] = max(w, U[p,x])`` for
    every x already placed.  Each row is compared as it is placed, and the
    first that differs is a "no", so every earlier row of U is that row of
    ``arr`` and is read from ``arr``: no n x n buffer, O(n) per point,
    O(n^2) in all.  Comparisons only, so exact on either dtype.
    """
    n = len(arr)
    best = arr[0].copy()  # each point's lightest edge into the tree
    parent = np.zeros(n, dtype=np.intp)
    placed = np.zeros(n, dtype=bool)
    placed[0] = True
    far = int(arr.max()) + 1  # above every edge: a placed point is never picked
    best[0] = far
    for _ in range(n - 1):
        v = int(np.argmin(best))
        p, w = parent[v], best[v]
        if not (arr[v, placed] == np.maximum(arr[p, placed], w)).all():
            return False
        placed[v], best[v] = True, far
        closer = (arr[v] < best) & ~placed
        best[closer] = arr[v, closer]
        parent[closer] = v
    return True


def _triangles(arr: np.ndarray):
    """Every triangle violation, i < j and k not in {i, j}, in witness order.

    Yields one ``("triangle", ikj, d(i,j), d(i,k) + d(k,j))`` block per
    slab that has a violation: ``ikj`` the m x 3 array of witnesses
    ``(i, k, j)``, the sides length-m arrays on ``arr``'s scale and of its
    dtype.  Rows i are compared a slab at a time, at most ``_SLAB_CELLS``
    cells and at least one row, on a copy in ``_narrow(2 * peak)`` with a
    zero diagonal (which enters only k in {i, j}) and, where j <= i, a
    left side that no sum is below.  The verdicts overwrite the slab's sums
    (an object slab's are a new bool array); their nonzero bytes, row-major
    over (i, k, j) and slab by slab in i order, give the witness order.
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
        # int sums take their verdicts; Python ints compare into a new bool array
        out = None if rhs.dtype == object else rhs
        bad = np.greater(lhs[start : start + rows, None, :], rhs, out=out)
        # a verdict is 0 or 1: exactly one byte of a true cell is nonzero
        at = np.flatnonzero(bad.view(np.bool_)) // bad.itemsize
        ikj = np.stack(np.unravel_index(at, bad.shape), axis=1)
        if len(ikj):
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
    when read.  The triangle verdict comes from ``_holds``: an exact
    decision on integer floors of ``scaled`` (int16 to int64, as their
    sums need).  It returns yes in O(n^2) when every d(i,j) is at most
    the sum of the least entries of rows i and j (by one floor step, past
    2^60), as on entries in some [a, 2a], or on an ultrametric; otherwise
    an O(n^3) min-plus loop runs, which stops after its first step on a
    clear "no" and falls back to the path closure only where a triangle
    of a matrix past 2^60 is tight to within one floor step.  Triangle
    witnesses are enumerated in slabs only on a "no", so memory stays
    O(n^2).  ``is_ultrametric`` (the max-triangle inequality) is only
    evaluated when all four axioms hold, by ``_is_ultrametric``: Prim's
    tree in O(n^2) comparisons, with no floors and no closure.
    """
    arr, denom = space.scaled
    blocks = tuple(_witnesses(arr))
    for block in blocks:
        for part in block[1:]:
            part.flags.writeable = False
    is_ultrametric = not blocks and _is_ultrametric(arr)
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
    _check_labels(labels)  # labels only: no matrix is read or built before it

    blocks = [_rescale(m.scaled[0], denom // m.scaled[1]) for m in cluster_metrics]
    peak = 2 * max((_peak(b) for b in blocks), default=0) + _peak(hub_arr)
    dtype = _dtype_for(peak)
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
    return _from_int_matrix(candidate.points, _path_closure(arr, np.add), denom)


def subdominant_ultrametric(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Largest ultrametric below the metric (single-linkage / minimax paths)."""
    arr, denom = space.scaled
    return _from_int_matrix(space.points, _path_closure(arr, np.maximum), denom)


def _path_closure(arr: np.ndarray, join) -> np.ndarray:
    """Floyd-Warshall closure of a scaled-integer matrix, as a new array.

    A path's length is its edges combined by ``join``: ``np.add`` gives
    shortest paths over nonnegative entries, ``np.maximum`` minimax paths
    (single linkage), on a copy in ``_narrow`` of the longest candidate
    (``2 * peak``, ``peak``), cast back to ``arr``'s dtype.  One n x n buffer
    takes every k's candidate paths, so memory stays O(n^2) and none is made per k.
    """
    work = arr.astype(_narrow((2 if join is np.add else 1) * _peak(arr)))
    via = np.empty_like(work)
    for k in range(len(work)):
        join(work[:, k, None], work[None, k, :], out=via)
        np.minimum(work, via, out=work)
    return work.astype(arr.dtype, copy=False)


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
    # i ^ j, so their distance is top[i ^ j] / 2^k, top[x] the top bit of
    # x; reduced as built, since d(0, 1) is 1 / 2^k
    top = np.array([0] + [1 << (x.bit_length() - 1) for x in range(1, 2**k)], np.int64)
    ids = np.arange(2**k)
    return _store(labels, top[ids[:, None] ^ ids[None, :]], 2**k)


def pair_points(count: int) -> tuple[str, ...]:
    """Labels a0, b0, a1, b1, ... for two-point cluster constructions."""
    if count < 1:
        raise ValueError("need at least one pair")
    out = []
    for i in range(count):
        out.append(f"a{i}")
        out.append(f"b{i}")
    return tuple(out)
