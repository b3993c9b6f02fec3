"""Universal metric constructions and the embedding oracle that audits them.

A space is universal for a class when every member embeds isometrically.
This module builds the two desk-scale universal objects (the pair space,
which realizes any prescribed list of two-point distances, and the glued
l-infinity nets that capture every small well-separated space up to grid
distortion), plus the brute-force embedding search used to verify them,
and the fragility experiment showing how quantized approximation destroys
exact universality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np

from .core import (
    FiniteMetricSpace,
    PartitionPlan,
    SearchCapExceeded,
    _from_int_matrix,
    _peak,
    _rescale,
    _store,
    _widen,
    as_scalar,
    amalgamate,
    pair_points,
    sup_distance,
)
from .quantize import ApproximationResult, approximate


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern index -> host index; exact means zero distortion."""

    mapping: tuple[int, ...]
    exact: bool


def class_Cn_check(space: FiniteMetricSpace, n: int) -> bool:
    """At most n points, diameter <= n, positive distances >= 1/n."""
    if n < 1:
        raise ValueError("class parameter must be at least 1")
    if space.n > n:
        return False
    if space.max_value() > n:
        return False
    sep = space.min_positive()
    return sep is None or sep >= Fraction(1, n)


# the most coordinates (points times n) frechet_embed builds (2^20)
_FRECHET_MAX_COORDS = 2**20


def frechet_embed(space: FiniteMetricSpace, n: int):
    """Distance-vector coordinates in [0, n]^n, an exact l-infinity isometry.

    Row i is (d(p_1, p_i), ..., d(p_k, p_i), 0, ..., 0); the triangle
    inequality makes the max coordinate gap of two rows equal the original
    distance exactly.  More than ``_FRECHET_MAX_COORDS`` coordinates are
    refused before anything is built.
    """
    k, cap = space.n, _FRECHET_MAX_COORDS
    if k * n > cap:
        raise ValueError(f"{k} x {n} coordinates exceed the cap of {cap}")
    if not class_Cn_check(space, n):
        raise ValueError(f"space is outside the class for n={n}")
    return tuple(column + (Fraction(0),) * (n - k) for column in zip(*space.dist))


def linf_distance(u, v) -> Fraction:
    return max(abs(a - b) for a, b in zip(u, v))


def pullback_universal(
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
    image = [yindex[f[x]] for x in dX.points]
    (x, dx), (y, dy) = dX.scaled, eY.scaled
    denom = lcm(dx, dy, r.denominator)
    cap = r.numerator * (denom // r.denominator)  # r on this scale
    x = _widen(_rescale(x, denom // dx), cap)
    y = _rescale(y, denom // dy)
    # the pairs i < j, mirrored; the diagonal stays 0
    upper = np.triu(np.maximum(np.minimum(x, cap), y[np.ix_(image, image)]), 1)
    return _from_int_matrix(dX.points, upper + upper.T, denom)


def _glue_through_firsts(pieces, far: int) -> FiniteMetricSpace:
    """Amalgamate the pieces, in order, through their first points.

    Every two first points sit ``far`` apart in the hub.  A lone piece is
    returned as it is: gluing it through a 1 x 1 hub rebuilds its labels
    and its reduced, read-only matrix.
    """
    if len(pieces) == 1:
        return pieces[0]
    starts = np.cumsum([0] + [p.n for p in pieces]).tolist()
    plan = PartitionPlan(
        clusters=tuple(tuple(range(s, e)) for s, e in zip(starts, starts[1:])),
        reps=tuple(starts[:-1]),
        radius=max(p.max_value() for p in pieces),
    )
    # over 1, so reduced, and int64 while far stays below 2^62
    hub = far - far * np.eye(len(pieces), dtype=np.int64)
    hub = _store(tuple(p.points[0] for p in pieces), hub, 1)
    return amalgamate(plan, pieces, hub)


def build_pair_universal(values) -> FiniteMetricSpace:
    """Space containing a pair at every prescribed distance.

    Pair i sits at distance values[i]; the a-side points form a unit-
    distance hub, so any two-point space with a listed value embeds as
    (a_i, b_i) exactly.  More than ``_FUNIV_MAX_POINTS // 2`` values are
    refused before anything is built.
    """
    vals = [as_scalar(v) for v in values]
    if not vals:
        raise ValueError("need at least one pair value")
    cap = _FUNIV_MAX_POINTS // 2
    if len(vals) > cap:
        raise ValueError(f"{len(vals)} pair values exceed the cap of {cap}")
    if any(v <= 0 for v in vals):
        raise ValueError("pair values must be positive")
    if len(set(vals)) != len(vals):
        raise ValueError("pair values must be distinct")
    labels = pair_points(len(vals))
    pieces = [
        FiniteMetricSpace(
            (labels[2 * i], labels[2 * i + 1]), ((Fraction(0), v), (v, Fraction(0)))
        )
        for i, v in enumerate(vals)
    ]
    return _glue_through_firsts(pieces, 1)


# ---------------------------------------------------------------------------
# l-infinity nets


@dataclass(frozen=True, eq=False)
class NetSpace:
    """The delta-grid of [0, n]^n under the l-infinity metric."""

    n: int
    delta: Fraction
    points: tuple[tuple[Fraction, ...], ...]
    space: FiniteMetricSpace


def _coord_label(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


# the most points a glued space holds: net pieces, or pairs
_FUNIV_MAX_POINTS = 1000


def _net_side(n: int, delta: Fraction, copies: int = 1) -> int:
    """Grid points along one axis of the delta-net of [0, n]; delta = n / 2^t.

    Raises before anything is built when ``copies`` nets would hold more
    than ``_FUNIV_MAX_POINTS`` points in all.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    ratio = Fraction(n) / delta
    if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
        raise ValueError("delta must equal n / 2^t for some t >= 0")
    side = ratio.numerator + 1
    # side >= 2, so a net of dimension n has at least 2^n points; this test
    # comes first so that side**n is never a huge integer
    cap = _FUNIV_MAX_POINTS
    if n >= cap.bit_length() or copies * side**n > cap:
        raise ValueError(f"{copies} x {side}^{n} net points exceed the cap of {cap}")
    return side


def make_net(n: int, delta) -> NetSpace:
    """Build the delta-net of [0, n]^n; delta must be n / 2^t."""
    delta = as_scalar(delta)
    side = _net_side(n, delta)
    pts = tuple(product([k * delta for k in range(side)], repeat=n))
    labels = tuple(_coord_label(p) for p in pts)
    # the l-infinity distance of two points is their largest gap in grid steps
    steps = np.array(list(product(range(side), repeat=n)), dtype=np.int64)
    gaps = np.zeros((len(steps),) * 2, dtype=np.int64)
    for axis in steps.T:
        np.maximum(gaps, np.abs(np.subtract.outer(axis, axis)), out=gaps)
    gaps *= delta.numerator
    # the gaps hold 1 and delta is in lowest terms, so this is already reduced;
    # its peak n * delta.denominator is far below 2^62 under the point cap
    space = _store(labels, gaps, delta.denominator)
    return NetSpace(n, delta, pts, space)


@dataclass(frozen=True, eq=False)
class FUnivApprox:
    """Glued net copies: exact host for grid-valued patterns, delta otherwise."""

    space: FiniteMetricSpace
    net: NetSpace
    copies: int


def build_funiv_approx(n: int, delta, copies: int = 1) -> FUnivApprox:
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
    # every copy shares the net's matrix
    pieces = [
        _store(tuple(f"K{c}:{label}" for label in net.space.points), *net.space.scaled)
        for c in range(copies)
    ]
    glued = _glue_through_firsts(pieces, 1 + n)
    return FUnivApprox(glued, net, copies)


# ---------------------------------------------------------------------------
# embedding search

# the most pattern points the backtracking search accepts
_SEARCH_CAP = 7


def find_isometric_embedding(
    pattern: FiniteMetricSpace,
    host: FiniteMetricSpace,
    distortion=0,
) -> Embedding | None:
    """Backtracking search for an injective map within the given distortion.

    distortion 0 demands exact distance equality.  None means the search
    space was exhausted; patterns above ``_SEARCH_CAP`` points raise
    instead, so None stays a genuine non-existence verdict.  Candidates
    are tried in index order, so the result is the lexicographically
    smallest feasible map.
    The search compares ``scaled`` matrices, put on one denominator.
    """
    distortion = as_scalar(distortion)
    if distortion < 0:
        raise ValueError("distortion must be nonnegative")
    if pattern.n > _SEARCH_CAP:
        raise SearchCapExceeded(
            f"pattern has {pattern.n} points, above the search cap {_SEARCH_CAP}"
        )
    (H, dh), (P, dp) = host.scaled, pattern.scaled
    denom = lcm(distortion.denominator, dh, dp)
    H, P = _rescale(H, denom // dh), _rescale(P, denom // dp)
    tol = distortion.numerator * (denom // distortion.denominator)
    # a difference of two entries below 2^62 fits int64
    H = _widen(H, max(tol, _peak(P)))
    P = P.tolist()
    k = pattern.n
    mapping: list[int] = []
    free = np.ones(host.n, dtype=bool)

    def fits(idx: int):
        """The free host points that can take pattern point idx, in index order."""
        ok = free.copy()
        for prev in range(idx):
            ok &= np.abs(H[:, mapping[prev]] - P[idx][prev]) <= tol
        return iter(np.flatnonzero(ok).tolist())

    # depth-first with an explicit stack (a recursive closure would hold
    # itself, and H, until a cyclic collection): untried candidates of each
    # pattern point placed so far and of the next one
    untried = [fits(0)]
    while len(mapping) < k:
        cand = next(untried[-1], None)
        if cand is None:  # every candidate failed: undo the last placement
            untried.pop()
            if not mapping:
                return None
            free[mapping.pop()] = True
            continue
        free[cand] = False
        mapping.append(cand)
        if len(mapping) < k:
            untried.append(fits(len(mapping)))
    return Embedding(tuple(mapping), distortion == 0)


def range_density_gap(space: FiniteMetricSpace, T) -> Fraction:
    """Largest gap between consecutive range values within [0, T]."""
    T = as_scalar(T)
    if T <= 0:
        raise ValueError("T must be positive")
    vals = sorted({Fraction(0), T, *(v for v in space.values() if v <= T)})
    return max(b - a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# fragility of universality under approximation


@dataclass(frozen=True, eq=False)
class FragilityReport:
    values: tuple[Fraction, ...]
    epsilon: Fraction
    eta: Fraction
    r: Fraction
    sup_distance: Fraction
    max_value: Fraction
    gap_lo: Fraction
    gap_hi: Fraction
    lost_values: tuple[Fraction, ...]
    kept_values: tuple[Fraction, ...]
    approximation: ApproximationResult

    @property
    def gap_length(self) -> Fraction:
        return self.gap_hi - self.gap_lo


def fragility_experiment(values, epsilon) -> FragilityReport:
    """Approximate a pair-universal space and report what universality loses.

    The approximated metric keeps every distance within epsilon, but its
    range now lives in the certified sum range, which leaves open gaps; a
    prescribed pair value that falls into such a gap can no longer embed
    exactly.  The report names the largest missed interval and the lost
    values.
    """
    epsilon = as_scalar(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    vals = tuple(as_scalar(v) for v in values)
    before = build_pair_universal(vals)
    result = approximate(before, epsilon)
    after = result.D
    moved = sup_distance(before, after)

    rng = after.values()
    top = rng[-1]
    gap_lo, gap_hi = Fraction(0), Fraction(0)
    for a, b in zip(rng, rng[1:]):
        if b - a > gap_hi - gap_lo:
            gap_lo, gap_hi = a, b

    present = set(rng)
    lost = tuple(v for v in vals if v not in present)
    kept = tuple(v for v in vals if v in present)
    return FragilityReport(
        values=vals,
        epsilon=epsilon,
        eta=result.eta,
        r=result.r,
        sup_distance=moved,
        max_value=top,
        gap_lo=gap_lo,
        gap_hi=gap_hi,
        lost_values=lost,
        kept_values=kept,
        approximation=result,
    )
