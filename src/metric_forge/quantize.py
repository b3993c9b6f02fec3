"""Metric-preserving transforms, ceiling quantization and certified ranges.

The certified range for parameters (eta, u) is the set of values
``eta * (l + u^n + u^m)`` with integer l >= 0 and optional geometric
summands u^n, u^m.  ``approximate`` pushes any metric into that range
while moving no distance by more than the requested epsilon, and returns
a machine-checkable certificate per pair.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import (
    _MAX_SCALE_DIGITS,
    FiniteMetricSpace,
    PartitionPlan,
    _check_hub,
    _dtype_for,
    _factorize,
    _from_int_matrix,
    _glue,
    _int_matrix,
    _partition,
    _path_closure,
    _peak,
    _rescale,
    _store,
    _sup_gap,
    _witnesses,
    _widen,
    as_scalar,
)


class UnsupportedTransformError(TypeError):
    """Raised when something outside the closed transform family is used."""


def ceil_ratio(x, eta) -> int:
    """Smallest integer k with x <= k * eta, by exact integer division."""
    x, eta = as_scalar(x), as_scalar(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return -(-(x.numerator * eta.denominator) // (x.denominator * eta.numerator))


def quantize_discrete(space: FiniteMetricSpace, eta) -> FiniteMetricSpace:
    """Round every positive distance up to the grid eta * Z.

    This is ``transform_metric`` with the ``ScaledCeil(eta)`` transform.
    The result stays within eta of the input, every positive output is at
    least eta, and metricity is preserved because the scaled ceiling is
    increasing and subadditive.
    """
    return transform_metric(space, ScaledCeil(eta))


# ---------------------------------------------------------------------------
# the closed transform family
#
# Every member is increasing, maps 0 to 0 and positives to positives; the
# constructors validate their parameters so an instantiated descriptor is
# always a legal transform.  is_subadditive() is exact for atoms; for Sum
# and Compose it returns True exactly when all parts are certified
# subadditive (sums and compositions of increasing subadditive functions
# are subadditive), and a conservative False otherwise.


class Transform:
    def apply(self, s: Fraction) -> Fraction:
        raise NotImplementedError

    def is_subadditive(self) -> bool:
        raise NotImplementedError

    def _check(self, s) -> Fraction:
        s = as_scalar(s)
        if s < 0:
            raise ValueError("transforms are defined on nonnegative values")
        return s


@dataclass(frozen=True)
class Identity(Transform):
    def apply(self, s):
        return self._check(s)

    def is_subadditive(self):
        return True


@dataclass(frozen=True)
class Power(Transform):
    """s -> s^k for integer k >= 1; subadditive only for k = 1."""

    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 1:
            raise ValueError("exponent must be an integer >= 1")

    def apply(self, s):
        return self._check(s) ** self.exponent

    def is_subadditive(self):
        return self.exponent == 1


@dataclass(frozen=True)
class ScaledCeil(Transform):
    """s -> eta * ceil(s / eta), the grid round-up."""

    eta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eta", as_scalar(self.eta))
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    def apply(self, s):
        return self.eta * ceil_ratio(self._check(s), self.eta)

    def is_subadditive(self):
        return True


@dataclass(frozen=True)
class Truncate(Transform):
    """s -> min(s, cap)."""

    cap: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cap", as_scalar(self.cap))
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def apply(self, s):
        return min(self._check(s), self.cap)

    def is_subadditive(self):
        return True


@dataclass(frozen=True)
class RoundUpTo(Transform):
    """s -> smallest member of a finite value set that is >= s.

    The set must contain 0 and at least one positive value; inputs above
    the largest value are a domain error.  Subadditivity is decided
    exactly by a finite scan over the step boxes.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(sorted({as_scalar(v) for v in self.values}))
        object.__setattr__(self, "values", vals)
        if not vals or vals[0] != 0:
            raise ValueError("value set must contain 0 and stay nonnegative")
        if len(vals) < 2:
            raise ValueError("value set needs a positive member")

    def apply(self, s):
        s = self._check(s)
        if s > self.values[-1]:
            raise ValueError(f"{s} is above the top of the round-up set")
        return self.values[bisect_left(self.values, s)]

    def is_subadditive(self):
        # f is constant on (v_{i-1}, v_i]; on the box (v_{i-1},v_i] x
        # (v_{j-1},v_j] the worst case of f(x+y) - f(x) - f(y) is at the
        # top corner, clamped to the domain.
        v = self.values
        top = v[-1]
        for i in range(1, len(v)):
            for j in range(i, len(v)):
                if v[i - 1] + v[j - 1] >= top:
                    continue  # box entirely outside the domain
                reach = min(v[i] + v[j], top)
                if self.apply(reach) > v[i] + v[j]:
                    return False
        return True


@dataclass(frozen=True)
class AffineCapped(Transform):
    """s -> s + alpha * min(s, cap); increasing for alpha > -1."""

    alpha: Fraction
    cap: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_scalar(self.alpha))
        object.__setattr__(self, "cap", as_scalar(self.cap))
        if self.alpha <= -1:
            raise ValueError("alpha must exceed -1 to stay increasing")
        if self.cap <= 0:
            raise ValueError("cap must be positive")

    def apply(self, s):
        s = self._check(s)
        return s + self.alpha * min(s, self.cap)

    def is_subadditive(self):
        # alpha >= 0 adds a subadditive term; alpha < 0 fails at x = y = cap
        return self.alpha >= 0


@dataclass(frozen=True)
class Sum(Transform):
    parts: tuple[Transform, ...]

    def __post_init__(self):
        if not self.parts or not all(isinstance(p, Transform) for p in self.parts):
            raise UnsupportedTransformError("sum parts must be family members")

    def apply(self, s):
        s = self._check(s)
        total = Fraction(0)
        for p in self.parts:
            total += p.apply(s)
        return total

    def is_subadditive(self):
        return all(p.is_subadditive() for p in self.parts)


@dataclass(frozen=True)
class Compose(Transform):
    """outer(inner(s))."""

    outer: Transform
    inner: Transform

    def __post_init__(self):
        if not isinstance(self.outer, Transform) or not isinstance(
            self.inner, Transform
        ):
            raise UnsupportedTransformError("compose parts must be family members")

    def apply(self, s):
        return self.outer.apply(self.inner.apply(self._check(s)))

    def is_subadditive(self):
        return self.outer.is_subadditive() and self.inner.is_subadditive()


def transform_metric(space: FiniteMetricSpace, f: Transform) -> FiniteMetricSpace:
    """Apply a family transform to every off-diagonal distance.

    ``f`` runs once per distinct off-diagonal value, in increasing order,
    so a refusal names the least value refused (such as the least one
    above a ``RoundUpTo`` set's top); the images are gathered back from
    ``_factorize`` codes.  The diagonal is 0 and is never passed to ``f``.
    When ``f.is_subadditive()`` the output is again a metric; otherwise
    the returned candidate may fail validation, which is exactly what the
    counterexample construction exploits.
    """
    if not isinstance(f, Transform):
        raise UnsupportedTransformError(
            "transform must come from the closed descriptor family"
        )
    arr, denom = space.scaled
    off = ~np.eye(space.n, dtype=bool)
    values, at = _factorize(arr[off])
    # as_scalar refuses an image that is not an exact rational
    images, scale, table = _int_matrix(
        (values.tolist(),),
        lambda vs: [
            as_scalar(f.apply(Fraction(v, denom))).as_integer_ratio() for v in vs
        ],
    )
    out = np.zeros(arr.shape, dtype=images.dtype)
    out[off] = images[at]
    return _store(space.points, out, scale, table)


def subadditivity_counterexample(f: Transform, x, y) -> FiniteMetricSpace:
    """Three-point path space on which a non-subadditive f breaks the triangle.

    Requires an actual violation f(x+y) > f(x) + f(y); the returned space
    has d(a,b) = x, d(b,c) = y, d(a,c) = x + y, so applying f produces a
    triangle failure at the (a, c) pair.
    """
    if not isinstance(f, Transform):
        raise UnsupportedTransformError(
            "transform must come from the closed descriptor family"
        )
    x, y = as_scalar(x), as_scalar(y)
    if x <= 0 or y <= 0:
        raise ValueError("witness values must be positive")
    if f.apply(x + y) <= f.apply(x) + f.apply(y):
        raise ValueError(f"no subadditivity violation at ({x}, {y})")
    rows = (
        (Fraction(0), x, x + y),
        (x, Fraction(0), y),
        (x + y, y, Fraction(0)),
    )
    return FiniteMetricSpace(("a", "b", "c"), rows)


# ---------------------------------------------------------------------------
# certified range membership


@dataclass(frozen=True)
class RangeParams:
    eta: Fraction
    u: Fraction

    def __post_init__(self):
        object.__setattr__(self, "eta", as_scalar(self.eta))
        object.__setattr__(self, "u", as_scalar(self.u))
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0 < self.u < 1:
            raise ValueError("u must lie strictly between 0 and 1")


@dataclass(frozen=True)
class RangeCertificate:
    """Witness that a value equals eta * (l + u^n + u^m).

    ``None`` in the n or m slot encodes a missing geometric summand.
    """

    l: int
    n: int | None
    m: int | None

    def value(self, params: RangeParams) -> Fraction:
        total = Fraction(self.l)
        if self.n is not None:
            total += params.u**self.n
        if self.m is not None:
            total += params.u**self.m
        return params.eta * total


def _exponent_bound(residue_den: int, u: Fraction) -> int:
    # the residue u^n (+ u^m) shares the denominator of t / eta, and its
    # reduced denominator is at least den(u)^max(n, m) / 2, so no exponent
    # k with den(u)^k > 2 * residue_den can occur
    q = u.denominator
    k = 0
    power = 1
    while power <= 2 * residue_den:
        power *= q
        k += 1
    return k + 1


def range_membership(t, params: RangeParams) -> RangeCertificate | None:
    """Find (l, n, m) with t = eta * (l + u^n + u^m), or None.

    The exponent search is finite and exact: a geometric summand u^k can
    only contribute to a rational identity while den(u)^k stays within
    twice the residue's denominator.
    """
    t = as_scalar(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    s = t / params.eta
    if s.denominator == 1:
        return RangeCertificate(int(s), None, None)
    bound = _exponent_bound(s.denominator, params.u)
    powers = [params.u**e for e in range(bound + 1)]
    # powers shrink as the exponent grows, so the residue only increases;
    # a negative residue just means "try a larger exponent"
    for n in range(bound + 1):
        rest = s - powers[n]
        if rest >= 0 and rest.denominator == 1:
            return RangeCertificate(int(rest), n, None)
    for n in range(bound + 1):
        for m in range(n, bound + 1):
            rest = s - powers[n] - powers[m]
            if rest >= 0 and rest.denominator == 1:
                return RangeCertificate(int(rest), n, m)
    return None


# ---------------------------------------------------------------------------
# the dense-approximation construction


@dataclass(frozen=True, eq=False, repr=False)
class ApproximationResult:
    """Quantized metric D plus the plan and per-pair certificates.

    Every off-diagonal pair (i, j) with i < j has a RangeCertificate valid
    for RangeParams(eta, r).  They are stored once, as ``table``: the
    distinct certificates and one index into them per pair, in row-major
    order, which lets ``certificate`` find a pair by its position.
    ``certificates`` is their ``(i, j, cert)`` view, built the first time
    it is read.  ``==``, ``hash`` and ``repr`` go through the view, as for
    a plain dataclass of D, plan, ``certificates``, eta and r.
    """

    D: FiniteMetricSpace
    plan: PartitionPlan
    # (rows, index): the distinct certificates, and a read-only int array
    # holding the row of each pair i < j in row-major order
    table: tuple[tuple[RangeCertificate, ...], np.ndarray]
    eta: Fraction
    r: Fraction

    @cached_property
    def certificates(self) -> tuple[tuple[int, int, RangeCertificate], ...]:
        """One (i, j, cert) per pair i < j, in row-major order; built once."""
        rows, index = self.table
        iu, ju = np.triu_indices(self.D.n, 1)
        return tuple(
            zip(iu.tolist(), ju.tolist(), map(rows.__getitem__, index.tolist()))
        )

    def certificate(self, i: int, j: int) -> RangeCertificate:
        i, j = min(i, j), max(i, j)
        n = self.D.n
        if 0 <= i < j < n:
            rows, index = self.table
            return rows[index[i * (2 * n - i - 1) // 2 + j - i - 1]]
        raise KeyError((i, j))

    def _key(self):
        return self.D, self.plan, self.certificates, self.eta, self.r

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(D={self.D!r}, plan={self.plan!r}, "
            f"certificates={self.certificates!r}, eta={self.eta!r}, r={self.r!r})"
        )


def geometric_levels(eta: Fraction, u: Fraction, floor: Fraction) -> dict:
    """Levels {eta * u^k} down to the first one below ``floor``; value -> k."""
    levels = {}
    k = 0
    value = eta
    while True:
        levels[value] = k
        if value < floor:
            break
        k += 1
        value = eta * u**k
    return levels


def approximate(
    space: FiniteMetricSpace, epsilon, r=None
) -> ApproximationResult:
    """Move a metric by at most epsilon into the certified range.

    With eta = epsilon/5 and r = min(1/2, epsilon/10) the construction
    partitions the points into balls of radius r, rounds the hub metric on
    the representatives up to the eta-grid, replaces each cluster by its
    subdominant ultrametric rounded up onto the geometric levels
    {eta * r^k}, and glues.  Every guarantee is checked before returning:
    the output validates, sits within epsilon of the input, and each pair
    carries an exactly-reconstructing certificate.  When a check fails on
    an input that is not a metric, the ValueError names its first
    violation.

    ``r`` may be overridden with any value in (0, 1) with 2r <= eta.  Each
    cluster's distances find their levels in one exact integer walk from
    the largest down, which stops with a ValueError as soon as a needed
    level's scale den(eta) * b^k reaches 10^``_MAX_SCALE_DIGITS``, before
    any level on it is built.

    The whole construction runs on one scaled-integer matrix: with
    r = a/b and E the deepest level exponent, D * den(eta) * b^E is an
    integer matrix, so a level eta * r^k becomes num(eta) * a^k * b^(E-k).
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

    arr, den = space.scaled

    def failure(message: str) -> Exception:
        for kind, witness, lhs, rhs in _witnesses(arr):  # the first row, if any
            at, lhs, rhs = tuple(witness[0].tolist()), int(lhs[0]), int(rhs[0])
            return ValueError(
                f"input is not a metric: {kind} violation at {at}"
                f" ({Fraction(lhs, den)} against {Fraction(rhs, den)})"
            )
        return RuntimeError(message)

    n = space.n
    plan = _partition(arr, den, r)
    for rep, cluster in zip(plan.reps, plan.clusters):
        # a representative outside its own ball, or a singleton cluster whose
        # self-distance is negative, which no level rounding clears from its
        # legs; a metric has neither
        if rep not in cluster or len(cluster) == 1 < n and arr[rep, rep] < 0:
            raise failure("internal: a representative has a bad self-distance")
    reps = np.array(plan.reps)
    home = np.empty(n, dtype=np.intp)
    # level exponent of each pair inside a cluster, -1 everywhere else
    expo = np.full((n, n), -1, dtype=np.intp)
    # ceil(x / eta) per hub entry, as in ceil_ratio: _glue overwrites the
    # diagonal, and _check_hub refuses a negative entry's step
    div = den * eta.numerator
    steps = -(-_widen(_rescale(arr[np.ix_(reps, reps)], eta.denominator), div) // div)
    # on a metric neither the hub nor the level rounding refuses, so a
    # refusal there names the input's first violation
    try:
        _check_hub(steps)
    except ValueError as err:
        raise failure(str(err)) from None
    a, b = r.numerator, r.denominator
    limit = 10**_MAX_SCALE_DIGITS
    for ci, cluster in enumerate(plan.clusters):
        home[list(cluster)] = ci
        if len(cluster) == 1:
            continue
        block = np.ix_(cluster, cluster)
        sub = _path_closure(arr[block], np.maximum)
        off = ~np.eye(len(cluster), dtype=bool)
        values, inverse = _factorize(sub[off])
        values = values.tolist()
        if values[0] < 0 or values[-1] == 0:
            raise failure("internal: nonpositive distance inside a cluster")
        # v / den rounds up to level eta * r^E, E the largest k with
        # eta * r^k >= v / den.  Walking from the largest value down, level
        # k is num / scale = eta * r^k * den, on the scale den(eta) * b^k
        # that the digit cap bounds: E = k - 1 where the walk stops, and a
        # needed level past the cap is refused before it is built.  A zero
        # (not a metric) has no level: -1 reads as 0.
        k, num, scale = 0, eta.numerator * den, eta.denominator
        level = []
        for v in reversed(values):
            while v and num >= v * scale:
                if scale >= limit:
                    raise ValueError(
                        f"level depth {k} or more needed, past the cap:"
                        f" den(eta) * den(r)^{k} has over {_MAX_SCALE_DIGITS} digits"
                    )
                k, num, scale = k + 1, num * a, scale * b
            level.append(k - 1 if v else -1)
        if level[0] < 0:
            raise failure("internal: a cluster distance above eta")
        exps = np.full(sub.shape, -1, dtype=np.intp)
        exps[off] = np.array(level[::-1], dtype=np.intp)[inverse]
        expo[block] = exps

    top = max(int(expo.max()), 0)
    denom = eta.denominator * b**top
    unit = eta.numerator * b**top  # eta on this scale
    dtype = _dtype_for(unit * (_peak(steps) + 2))
    levels = np.array(
        [eta.numerator * a**k * b ** (top - k) for k in range(top + 1)] + [0],
        dtype=dtype,
    )
    D = _glue(home, reps, levels[expo], steps.astype(dtype) * unit)

    # certificates read each cluster's upper triangle; the legs of D read
    # row then column, so an asymmetric input shows up as a mismatch below
    points = np.arange(n)
    rep = reps[home]
    leg = expo[np.minimum(points, rep), np.maximum(points, rep)]
    iu, ju = np.triu_indices(n, 1)
    across = home[iu] != home[ju]
    # one (l, e, f) per pair, an exponent -1 being a missing summand; l is
    # factorized first, since the hub steps may be an object array, then
    # each pair gets one int64 key: under the depth cap e, f <= top and
    # top + 2 < 2^14, so keys stay below 2^61 while n < 2^17
    ls, at = _factorize(np.where(across, steps[home[iu], home[ju]], 0))
    w = top + 2
    e = np.where(across, leg[iu], expo[iu, ju])
    f = np.where(across, leg[ju], -1)
    keys, which = _factorize((at * w + (e + 1)) * w + (f + 1))
    which.flags.writeable = False
    ls = ls.tolist()

    def row(key: int) -> RangeCertificate:
        key, f1 = divmod(key, w)
        li, e1 = divmod(key, w)
        return RangeCertificate(
            ls[li], e1 - 1 if e1 else None, f1 - 1 if f1 else None
        )

    rows = tuple(map(row, keys.tolist()))

    params = RangeParams(eta, r)
    # a value off this scale or beyond int64 matches no entry of D (all >= 0)
    want = []
    for cert in rows:
        v = cert.value(params) * denom
        fits = v.denominator == 1 and (dtype is object or _dtype_for(v) is dtype)
        want.append(int(v) if fits else -1)
    wrong = np.flatnonzero(D[iu, ju] != np.array(want, dtype=dtype)[which])
    if wrong.size:
        i, j = int(iu[wrong[0]]), int(ju[wrong[0]])
        raise failure(f"internal: certificate mismatch at ({i}, {j})")
    if next(_witnesses(D), None) is not None:
        raise failure("internal: approximation lost metricity")
    if _sup_gap(arr, den, D, denom) > epsilon:
        raise failure("internal: approximation moved too far")

    return ApproximationResult(
        _from_int_matrix(space.points, D, denom), plan, (rows, which), eta, r
    )
