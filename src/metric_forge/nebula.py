"""q-nebulae: finite unions of short closed intervals plus an unbounded tail.

A q-nebula covers a value set with closed intervals of width below 2^-q
and one tail contained in (q, infinity).  They are the resolution-q
witnesses that a metric's range is far from filling any interval: the
``cover`` construction traps any finite value set, ``margin`` turns a
cover into an explicit stability radius, and intersections of covers
reconstruct the value set to resolution 2^-q.

A nebula's ends are Fractions; the work per value and per comparison is on
Python ints, and no common denominator of the ends is ever built.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter

from .core import _MAX_SCALE_DIGITS, FiniteMetricSpace, _as_int, as_scalar

# the largest q accepted, checked before any 2^q is built: 2^3 < 10, so
# 2^MAX_Q has 3884 digits, and about 1380 bits are left under the cap for
# the values' own denominators and a few extra halvings, so a cover and a
# margin at any accepted q can be written.  A cover's picks are ints on
# 2^-(q+5+k), k <= 20 for any values file under the CLI's 2^25-byte input
# cap (2^23 + 1 distinct values need more than 2^25 bytes even as short
# JSON integers), so a pick written as the tail start fits under it too
MAX_Q = 3 * _MAX_SCALE_DIGITS
_Q_TOO_LARGE = f"q must be at most {MAX_Q}"


@dataclass(frozen=True)
class Nebula:
    """Candidate q-nebula: sorted closed intervals plus a tail [tail_start, oo).

    Construction coerces: each end goes through ``as_scalar`` (an int
    becomes a Fraction, a float or bool is a TypeError), then q through
    ``_as_int``, then the tail start, so every nebula holds Fraction ends.
    """

    q: int
    bounded: tuple[tuple[Fraction, Fraction], ...]
    tail_start: Fraction

    def __post_init__(self):
        ivs = tuple((as_scalar(a), as_scalar(b)) for a, b in self.bounded)
        object.__setattr__(self, "bounded", ivs)
        object.__setattr__(self, "q", _as_int(self.q, "q"))
        object.__setattr__(self, "tail_start", as_scalar(self.tail_start))


@dataclass(frozen=True)
class NebulaValidation:
    is_valid: bool
    violations: tuple[str, ...]


def validate_nebula(candidate: Nebula) -> NebulaValidation:
    """Check the five defining conditions, reporting each failure.

    Every comparison cross-multiplies the ends' numerators and (positive)
    denominators: b - a < 2^-q exactly when (bn ad - an bd) 2^q < ad bd.
    """
    problems: list[str] = []
    q = candidate.q
    if q < 0:
        problems.append("q must be a nonnegative integer")
        return NebulaValidation(False, tuple(problems))
    if q > MAX_Q:
        problems.append(_Q_TOO_LARGE)
        return NebulaValidation(False, tuple(problems))
    bounded = candidate.bounded
    ends = [(*a.as_integer_ratio(), *b.as_integer_ratio()) for a, b in bounded]

    if not bounded:
        problems.append("no bounded interval contains 0")
    elif ends[0][0] != 0 or ends[0][2] < 0:
        problems.append("first interval must start at 0")
    for (a, b), (an, ad, bn, bd) in zip(bounded, ends):
        if an * bd > bn * ad:
            problems.append(f"interval [{a}, {b}] is not a closed interval")
        if an < 0:
            problems.append(f"interval [{a}, {b}] leaves [0, oo)")
        if (bn * ad - an * bd) << q >= ad * bd:
            problems.append(
                f"interval [{a}, {b}] has width {b - a} >= 2^-{q}"
            )
    pairs = zip(bounded, bounded[1:], ends, ends[1:])
    for (a1, b1), (a2, b2), (_, _, bn, bd), (an, ad, _, _) in pairs:
        if an * bd <= bn * ad:
            problems.append(
                f"intervals [{a1}, {b1}] and [{a2}, {b2}] overlap or touch"
            )
    tn, td = candidate.tail_start.as_integer_ratio()
    if tn <= q * td:
        problems.append(f"tail not in ({q}, oo): starts at {candidate.tail_start}")
    if bounded and tn * ends[-1][3] <= ends[-1][2] * td:
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

    The values are the space's ``levels`` v, each v / denom.
    The ends go onto that scale rounded, a start and the tail start up and
    a stop down: for an int v, ``v < ceil(x * denom)`` exactly when
    ``v / denom < x``, and ``v > floor(x * denom)`` exactly when
    ``v / denom > x``.  So every comparison is the exact one, and no int is
    wider than an end's numerator times denom.  Raises ValueError at the
    least value that the nebula does not contain.
    """
    denom = space.scaled[1]
    starts = [-(-a.numerator * denom // a.denominator) for a, _ in nebula.bounded]
    stops = [b.numerator * denom // b.denominator for _, b in nebula.bounded]
    tail = -(-nebula.tail_start.numerator * denom // nebula.tail_start.denominator)
    used = set()
    for v in space.levels:
        if v >= tail:
            break
        i = bisect_right(starts, v) - 1
        if i < 0 or v > stops[i]:
            raise ValueError(
                f"metric value {Fraction(v, denom)} lies outside the nebula"
            )
        used.add(i)
    return sorted(used)


# ---------------------------------------------------------------------------
# covering a finite value set


def _check_q(q, negative: str = "q must be a nonnegative integer") -> None:
    """Refuse a q that is not an int (bools included), is negative or is past MAX_Q."""
    if isinstance(q, bool) or not isinstance(q, int):
        raise ValueError("q must be a nonnegative integer")
    if q < 0:
        raise ValueError(negative)
    if q > MAX_Q:
        raise ValueError(_Q_TOO_LARGE)


def cover(values, q: int) -> Nebula:
    """Trap a finite value set (containing 0) inside a q-nebula.

    Separator points are chosen just off the set on a dyadic grid of pitch
    2^-(q+1); values with the same number of separators below them form a
    run, each run becomes a bounded interval, and everything past the last
    separator joins the tail.  Every bounded interval has its endpoints in
    the set.

    Separator m is the first point off the set among c = m 2^-(q+1), then
    c - eta, then the walks over [c - eta, c + eta] at pitch 2^-(q+5),
    2^-(q+6), ..., 2^-E, with eta = 2^-(q+3).  No window holds 0, and the
    walk at pitch 2^-(q+5+k) tests 2^(k+3) + 1 points, more than the other
    N - 1 of N distinct values when k = max(0, bit_length(N - 1) - 3).  So
    with E = q + 5 + k every pick is an int on 2^-E, and only a value whose
    denominator divides 2^E can equal one.

    ``_cover`` sorts the reduced pairs (p, d) by floor(p 2^s / d), with s =
    2 bit_length(D) for the largest d, D.  Distinct values differ by at least
    1/D^2 > 2^-s, so their keys p 2^s / d differ by more than 1, in order.
    """
    # as_scalar on every value refuses a bool before True == 1 could dedup it
    return _cover(map(Fraction.as_integer_ratio, map(as_scalar, values)), q)


def _cover(ratios, q: int) -> Nebula:
    """``cover`` of reduced pairs (p, d), d >= 1; Fractions only for the ends."""
    _check_q(q)
    vals = list(dict.fromkeys(ratios))
    s = 2 * max((d for _, d in vals), default=1).bit_length()
    vals.sort(key=lambda r: (r[0] << s) // r[1])
    if vals and vals[0][0] < 0:
        raise ValueError("values live in [0, oo)")
    if not vals or vals[0][0] != 0:
        raise ValueError("the value set must contain 0")

    depth = q + 5 + max(0, (len(vals) - 1).bit_length() - 3)
    one = 1 << depth
    members = {n * (one // d) for n, d in vals if one % d == 0}
    step, eta = one >> (q + 1), one >> (q + 3)
    picks: dict[int, int] = {}  # t_m on 2^-depth by grid index m, each picked once

    def pick(m: int) -> int:
        if m not in picks:
            c = m * step
            lo, hi = c - eta, c + eta + 1
            walks = (range(lo, hi, one >> e) for e in range(q + 5, depth + 1))
            t = next((t for t in chain((c, lo), *walks) if t not in members), None)
            if t is None:
                raise RuntimeError(f"internal: no free separator near {Fraction(c, one)}")
            picks[m] = t
        return picks[m]

    t_last = pick((q + 1) << (q + 1))

    def picks_below(x: tuple[int, int]) -> int:
        # separators t_m (m >= 1) below x = n / d: t_m lies within eta of
        # m * step, so only the m nearest x / step = u / d can fall on either side
        n, d = x
        u = n << (q + 1)
        m = (2 * u + d) // (2 * d)
        if m == 0 or 4 * abs(u - m * d) > d:
            return u // d
        return m - 1 + (pick(m) * d < n << depth)

    # x >= t_last / one exactly when floor(x * one) >= t_last
    cut = bisect_left(vals, t_last, key=lambda r: (r[0] << depth) // r[1])
    runs = [list(run) for _, run in groupby(vals[:cut], picks_below)]
    # the runs are consecutive slices of vals[:cut] and vals[cut:] lie in
    # the tail, so this count confirms that the nebula holds every value
    if sum(map(len, runs)) != cut:
        raise RuntimeError("internal: cover's intervals left out a value")
    bounded = tuple((Fraction(*run[0]), Fraction(*run[-1])) for run in runs)
    tail_start = Fraction(*vals[cut]) if cut < len(vals) else Fraction(t_last, one)
    result = Nebula(q, bounded, tail_start)
    check = validate_nebula(result)
    if not check.is_valid:
        raise RuntimeError(f"internal: cover built an invalid nebula: {check.violations}")
    return result


def cover_family(values, q_max: int) -> list[Nebula]:
    """Covers of the same value set for q = 0 .. q_max."""
    _check_q(q_max, "q_max must be nonnegative")
    values = list(values)
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
        return _intersect_two(self, IntervalSet(((lo, hi),), None))

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
