"""q-nebulae: finite unions of short closed intervals plus an unbounded tail.

A q-nebula covers a value set with closed intervals of width below 2^-q
and one tail contained in (q, infinity).  They are the resolution-q
witnesses that a metric's range is far from filling any interval: the
``cover`` construction traps any finite value set, ``margin`` turns a
cover into an explicit stability radius, and intersections of covers
reconstruct the value set to resolution 2^-q.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from operator import itemgetter

from .core import _MAX_SCALE_DIGITS, FiniteMetricSpace, _as_int, _distinct, as_scalar

# the largest q accepted, checked before any 2^q is built: 2^3 < 10, so
# 2^MAX_Q has 3884 digits, and about 1380 bits are left under the cap for
# the few extra halvings of a cover's picks and of a margin and for the
# values' own denominators, so a margin at any accepted q can be written
MAX_Q = 3 * _MAX_SCALE_DIGITS
_Q_TOO_LARGE = f"q must be at most {MAX_Q}"


@dataclass(frozen=True)
class Nebula:
    """Candidate q-nebula: sorted closed intervals plus a tail [tail_start, oo)."""

    q: int
    bounded: tuple[tuple[Fraction, Fraction], ...]
    tail_start: Fraction

    @classmethod
    def make(cls, q, bounded, tail_start) -> "Nebula":
        ivs = tuple((as_scalar(a), as_scalar(b)) for a, b in bounded)
        return cls(_as_int(q, "q"), ivs, as_scalar(tail_start))


@dataclass(frozen=True)
class NebulaValidation:
    is_valid: bool
    violations: tuple[str, ...]


def validate_nebula(candidate: Nebula) -> NebulaValidation:
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


def _interval_index(bounded, t) -> int:
    """Position of the interval in sorted disjoint ``bounded`` holding t, or -1."""
    i = bisect_right(bounded, t, key=itemgetter(0)) - 1
    return i if i >= 0 and t <= bounded[i][1] else -1


def nebula_contains(nebula: Nebula, t) -> bool:
    t = as_scalar(t)
    if t < 0:
        raise ValueError("values live in [0, oo)")
    return t >= nebula.tail_start or _interval_index(nebula.bounded, t) >= 0


def _covering_intervals(nebula: Nebula, space: FiniteMetricSpace) -> list[int]:
    """Sorted positions of the bounded intervals that hold some value of space.

    The values come from ``space.scaled``, and they, the interval ends and
    the tail start are compared as integers on L, the lcm of their
    denominators.  Raises ValueError at the least value that the nebula
    does not contain.
    """
    arr, denom = space.scaled
    scale = lcm(
        denom,
        nebula.tail_start.denominator,
        *(x.denominator for iv in nebula.bounded for x in iv),
    )

    def on_scale(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    starts = [on_scale(a) for a, _ in nebula.bounded]
    stops = [on_scale(b) for _, b in nebula.bounded]
    tail, factor = on_scale(nebula.tail_start), scale // denom
    used = set()
    for v in _distinct(arr):
        v *= factor
        if v >= tail:
            break
        i = bisect_right(starts, v) - 1
        if i < 0 or v > stops[i]:
            raise ValueError(
                f"metric value {Fraction(v, scale)} lies outside the nebula"
            )
        used.add(i)
    return sorted(used)


# ---------------------------------------------------------------------------
# covering a finite value set


def _pick_off(center: Fraction, eta: Fraction, svals: list, q: int) -> Fraction:
    """Deterministic point in [center - eta, center + eta] avoiding the set."""

    def in_s(x):
        i = bisect_left(svals, x)
        return i < len(svals) and svals[i] == x

    if not in_s(center):
        return center
    if not in_s(center - eta):
        return center - eta
    # both standard picks collide: walk a dyadic grid, refining until free
    den = 2 ** (q + 5)
    while True:
        step = Fraction(1, den)
        t = center - eta
        while t <= center + eta:
            if not in_s(t):
                return t
            t += step
        den *= 2


def cover(values, q: int) -> Nebula:
    """Trap a finite value set (containing 0) inside a q-nebula.

    Separator points are chosen just off the set on a dyadic grid of pitch
    2^-(q+1); values with the same number of separators below them form a
    run, each run becomes a bounded interval, and everything past the last
    separator joins the tail.  Every bounded interval has its endpoints in
    the set.
    """
    if not isinstance(q, int) or q < 0:
        raise ValueError("q must be a nonnegative integer")
    if q > MAX_Q:
        raise ValueError(_Q_TOO_LARGE)
    svals = sorted(dict.fromkeys(map(as_scalar, values)))
    if svals and svals[0] < 0:
        raise ValueError("values live in [0, oo)")
    if not svals or svals[0] != 0:
        raise ValueError("the value set must contain 0")

    step = Fraction(1, 2 ** (q + 1))
    eta = Fraction(1, 2 ** (q + 3))
    picks: dict[int, Fraction] = {}  # t_m by grid index m, each picked once

    def pick(m: int) -> Fraction:
        if m not in picks:
            picks[m] = _pick_off(m * step, eta, svals, q)
        return picks[m]

    t_last = pick((q + 1) << (q + 1))

    def picks_below(x: Fraction) -> int:
        # separators t_m (m >= 1) below x: t_m lies within eta of m * step,
        # so only the m nearest x / step = u / d can fall on either side
        u, d = x.numerator << (q + 1), x.denominator
        m = (2 * u + d) // (2 * d)
        if m == 0 or 4 * abs(u - m * d) > d:
            return u // d
        return m - 1 + (pick(m) < x)

    cut = bisect_left(svals, t_last)
    runs = [list(run) for _, run in groupby(svals[:cut], picks_below)]
    bounded = tuple((run[0], run[-1]) for run in runs)
    tail_start = svals[cut] if cut < len(svals) else t_last
    result = Nebula(q, bounded, tail_start)
    check = validate_nebula(result)
    if not check.is_valid:
        raise RuntimeError(f"internal: cover built an invalid nebula: {check.violations}")
    return result


def cover_family(values, q_max: int) -> list[Nebula]:
    """Covers of the same value set for q = 0 .. q_max."""
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    if q_max > MAX_Q:
        raise ValueError(_Q_TOO_LARGE)
    return [cover(values, q) for q in range(q_max + 1)]


# ---------------------------------------------------------------------------
# interval sets and intersections


@dataclass(frozen=True)
class IntervalSet:
    """Canonical disjoint closed intervals, optionally with a tail [t, oo)."""

    bounded: tuple[tuple[Fraction, Fraction], ...]
    tail_start: Fraction | None

    @classmethod
    def make(cls, bounded, tail_start=None) -> "IntervalSet":
        ivs = sorted(
            (as_scalar(a), as_scalar(b)) for a, b in bounded if a <= b
        )
        tail = as_scalar(tail_start) if tail_start is not None else None
        merged: list[list[Fraction]] = []
        for a, b in ivs:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        if tail is not None:
            while merged and merged[-1][1] >= tail:
                tail = min(tail, merged[-1][0])
                merged.pop()
        return cls(tuple((a, b) for a, b in merged), tail)

    def contains(self, t) -> bool:
        t = as_scalar(t)
        if self.tail_start is not None and t >= self.tail_start:
            return True
        return _interval_index(self.bounded, t) >= 0

    def restrict(self, lo, hi) -> "IntervalSet":
        """Intersection with the closed interval [lo, hi]; tail becomes bounded."""
        lo, hi = as_scalar(lo), as_scalar(hi)
        pieces = []
        for a, b in self.bounded:
            if b >= lo and a <= hi:
                pieces.append((max(a, lo), min(b, hi)))
        if self.tail_start is not None and self.tail_start <= hi:
            pieces.append((max(self.tail_start, lo), hi))
        return IntervalSet.make(pieces, None)

    def largest_length_below(self, bound) -> Fraction:
        """Length of the longest component that starts below ``bound``."""
        bound = as_scalar(bound)
        best = Fraction(0)
        for a, b in self.bounded:
            if a < bound:
                best = max(best, b - a)
        return best


def nebula_to_intervals(nebula: Nebula) -> IntervalSet:
    return IntervalSet.make(nebula.bounded, nebula.tail_start)


def _intersect_two(x: IntervalSet, y: IntervalSet) -> IntervalSet:
    pieces = []
    for a1, b1 in x.bounded:
        for a2, b2 in y.bounded:
            lo, hi = max(a1, a2), min(b1, b2)
            if lo <= hi:
                pieces.append((lo, hi))
        if y.tail_start is not None and b1 >= y.tail_start:
            pieces.append((max(a1, y.tail_start), b1))
    if x.tail_start is not None:
        for a2, b2 in y.bounded:
            if b2 >= x.tail_start:
                pieces.append((max(a2, x.tail_start), b2))
    tail = None
    if x.tail_start is not None and y.tail_start is not None:
        tail = max(x.tail_start, y.tail_start)
    return IntervalSet.make(pieces, tail)


def intersect(nebulae) -> IntervalSet:
    """Exact intersection of a nonempty list of nebulae (or interval sets)."""
    items = list(nebulae)
    if not items:
        raise ValueError("need at least one nebula to intersect")
    sets = [
        n if isinstance(n, IntervalSet) else nebula_to_intervals(n) for n in items
    ]
    acc = sets[0]
    for nxt in sets[1:]:
        acc = _intersect_two(acc, nxt)
    return acc


# ---------------------------------------------------------------------------
# openness margin


@dataclass(frozen=True)
class MarginResult:
    epsilon: Fraction
    fattened: Nebula


def range_of_metric(space: FiniteMetricSpace) -> tuple[Fraction, ...]:
    """Alias of ``space.values()``: sorted distinct distance values, 0 included."""
    return space.values()


def gap_near_zero(space: FiniteMetricSpace) -> Fraction | None:
    """Alias of ``space.min_positive()``: the value-free gap just above 0.

    None for a single point.
    """
    return space.min_positive()


def margin(space: FiniteMetricSpace, nebula: Nebula) -> MarginResult:
    """Stability radius: metrics within epsilon keep their values in a nebula.

    Bounded intervals that carry no value of the metric are pruned, the
    minimum gap c between the surviving intervals is measured, and

        epsilon = (1/2) * min((2^-q - max width)/2, tail_start - q, c/4)

    The fattened nebula widens every kept interval by epsilon (the first
    one only to the right, the tail downward) and remains a valid
    q-nebula; any metric within sup-distance < epsilon of the input has
    all its values inside it.
    """
    check = validate_nebula(nebula)
    if not check.is_valid:
        raise ValueError(f"margin needs a valid nebula: {check.violations}")
    kept = [nebula.bounded[i] for i in _covering_intervals(nebula, space)]
    # 0 is always a value and lives in the first interval
    gaps = [a2 - b1 for (_, b1), (a2, _) in zip(kept, kept[1:])]
    gaps.append(nebula.tail_start - kept[-1][1])
    c = min(gaps)
    max_width = max(b - a for a, b in kept)
    width_room = (Fraction(1, 2**nebula.q) - max_width) / 2
    eps = Fraction(1, 2) * min(width_room, nebula.tail_start - nebula.q, c / 4)
    if eps <= 0:
        raise RuntimeError("internal: margin collapsed to zero")

    fattened_ivs = [(kept[0][0], kept[0][1] + eps)]
    fattened_ivs.extend((a - eps, b + eps) for a, b in kept[1:])
    fattened = Nebula(nebula.q, tuple(fattened_ivs), nebula.tail_start - eps)
    fat_check = validate_nebula(fattened)
    if not fat_check.is_valid:
        raise RuntimeError(
            f"internal: fattened nebula invalid: {fat_check.violations}"
        )
    return MarginResult(eps, fattened)
