import random
from fractions import Fraction as F
from itertools import count

import pytest

from metric_forge import (
    AffineCapped,
    FiniteMetricSpace,
    IntervalSet,
    Nebula,
    cantor_approx,
    cover,
    cover_family,
    gap_near_zero,
    intersect,
    margin,
    nebula_contains,
    nebula_to_intervals,
    random_metric,
    range_of_metric,
    sup_distance,
    transform_metric,
    validate_nebula,
)

from metric_forge.nebula import _pick_off
from support import point_set_hausdorff, random_fractions


def neb(q, bounded, tail):
    return Nebula.make(q, bounded, tail)


EXAMPLE = neb(1, [(0, 0), (F(3, 10), F(3, 10)), (F(17, 10), F(17, 10))], 2)


# --- validation ----------------------------------------------------------------


def test_validate_example_nebula():
    check = validate_nebula(EXAMPLE)
    assert check.is_valid and check.violations == ()


def test_validate_tail_at_q_fails():
    bad = neb(1, [(0, 0)], 1)
    check = validate_nebula(bad)
    assert not check.is_valid
    assert any("tail not in (1, oo)" in v for v in check.violations)


def test_validate_overlap_fails():
    bad = neb(2, [(0, F(1, 8)), (F(1, 16), F(3, 16))], 3)
    assert not validate_nebula(bad).is_valid


def test_validate_width_and_zero_membership():
    assert not validate_nebula(neb(2, [(0, F(1, 2))], 3)).is_valid  # too wide
    assert not validate_nebula(neb(0, [(F(1, 4), F(1, 4))], 1)).is_valid  # no 0


# --- membership ----------------------------------------------------------------


def test_contains_examples():
    assert nebula_contains(EXAMPLE, F(3, 10))
    assert not nebula_contains(EXAMPLE, F(1, 2))
    assert nebula_contains(EXAMPLE, 100)
    assert nebula_contains(EXAMPLE, 0)
    assert not nebula_contains(EXAMPLE, F(17, 10) + F(1, 64))


def scan_contains(bounded, tail, t):
    """Linear-scan oracle for interval membership."""
    return (tail is not None and t >= tail) or any(a <= t <= b for a, b in bounded)


def probes(bounded, tail):
    """Endpoints, midpoints and points just beside every boundary."""
    tiny = F(1, 1024)
    pts = {F(0)}
    for a, b in bounded:
        pts.update((a, b, (a + b) / 2, a - tiny, b + tiny))
    if tail is not None:
        pts.update((tail, tail - tiny, tail + tiny))
    return sorted(p for p in pts if p >= 0)


def test_containment_matches_linear_scan():
    rng = random.Random(31)
    for trial in range(60):
        pieces = []
        for _ in range(rng.randint(0, 12)):
            a = F(rng.randint(0, 200), rng.randint(1, 16))
            pieces.append((a, a + F(rng.randint(0, 30), rng.randint(1, 16))))
        tail = F(rng.randint(0, 300), rng.randint(1, 8)) if trial % 3 else None
        iset = IntervalSet.make(pieces, tail)
        for t in probes(iset.bounded, iset.tail_start):
            want = scan_contains(iset.bounded, iset.tail_start, t)
            assert iset.contains(t) == want

        nebula = cover({F(0), *random_fractions(rng, rng.randint(1, 40))}, trial % 7)
        for t in probes(nebula.bounded, nebula.tail_start):
            want = scan_contains(nebula.bounded, nebula.tail_start, t)
            assert nebula_contains(nebula, t) == want


# --- covers ----------------------------------------------------------------------


def test_cover_hand_run_three_values():
    got = cover([0, F(3, 10), F(17, 10)], 1)
    assert got.bounded == ((0, 0), (F(3, 10), F(3, 10)), (F(17, 10), F(17, 10)))
    assert got.tail_start == 2


def test_cover_hand_run_origin_only():
    got = cover([0], 0)
    assert got.bounded == ((0, 0),)
    assert got.tail_start == 1


def test_cover_hand_run_value_beyond_grid():
    got = cover([0, F(13, 5)], 0)
    assert got.bounded == ((0, 0),)
    assert got.tail_start == F(13, 5)


def test_cover_tie_rule_walks_off_the_set():
    # 1/2 sits on the separator grid and 3/8 blocks the fallback, so the
    # dyadic walk picks 13/32 and the first two values share an interval
    got = cover([0, F(3, 8), F(1, 2)], 0)
    assert got.bounded == ((0, F(3, 8)), (F(1, 2), F(1, 2)))
    assert got.tail_start == 1


def test_cover_rejects_missing_zero():
    with pytest.raises(ValueError, match="contain 0"):
        cover([F(1, 2)], 1)


def test_cover_rejects_negative_values():
    for values in ([-1, 0, 1], [-1, 1]):
        with pytest.raises(ValueError, match="values live in"):
            cover(values, 2)


def test_cover_random_contract():
    rng = random.Random(23)
    for trial in range(40):
        svals = {F(0), *random_fractions(rng, rng.randint(1, 60))}
        q = rng.randint(0, 8)
        got = cover(svals, q)
        assert validate_nebula(got).is_valid
        for s in svals:
            assert nebula_contains(got, s)
        for a, b in got.bounded:
            assert any(a <= s <= b for s in svals)
            assert a in svals and b in svals


def test_cover_family_members_validate():
    family = cover_family([0, F(3, 10)], 4)
    assert len(family) == 5
    for q, member in enumerate(family):
        assert member.q == q
        assert validate_nebula(member).is_valid


def test_cover_family_intersection_recovers_values():
    svals = [F(0), F(3, 10)]
    big_q = 4
    family = cover_family(svals, big_q)
    meet = intersect(family)
    boxed = meet.restrict(0, big_q)
    assert point_set_hausdorff(boxed, svals) <= F(1, 2**big_q)
    for s in svals:
        assert meet.contains(s)


def test_cover_family_origin_always_covered():
    for q_max in (0, 3, 6):
        meet = intersect(cover_family([0], q_max))
        assert meet.contains(0)


def first_free_pick(center, eta, values, q):
    """``_pick_off`` by plain scans: the center, then center - eta, then the
    first point center - eta + k/2^m off the set, for the least m >= q + 5."""
    if center not in values:
        return center
    if center - eta not in values:
        return center - eta
    for m in count(q + 5):
        for k in range(int(2 * eta * 2**m) + 1):
            if center - eta + F(k, 2**m) not in values:
                return center - eta + F(k, 2**m)


def test_cover_walk_refines_the_grid():
    # 3/8 .. 5/8 in steps of 1/32 fill the whole 1/32 grid around the
    # separator 1/2, so the walk halves its pitch and picks 25/64, which
    # splits 3/8 from 13/32
    values = [F(0)] + [F(3, 8) + F(k, 32) for k in range(9)]
    pick = _pick_off(F(1, 2), F(1, 8), values, 0)
    assert pick == first_free_pick(F(1, 2), F(1, 8), set(values), 0) == F(25, 64)
    got = cover(values, 0)
    assert got.bounded == ((0, F(3, 8)), (F(13, 32), F(5, 8)))
    assert got.tail_start == 1
    assert validate_nebula(got).is_valid
    assert all(scan_contains(got.bounded, got.tail_start, v) for v in values)


def random_interval_set(rng, with_tail):
    pieces = []
    for _ in range(rng.randint(0, 8)):
        a = F(rng.randint(0, 200), rng.randint(1, 16))
        pieces.append((a, a + F(rng.randint(0, 30), rng.randint(1, 16))))
    tail = F(rng.randint(0, 300), rng.randint(1, 8)) if with_tail else None
    return IntervalSet.make(pieces, tail)


def test_restrict_keeps_a_tail_inside_the_window():
    iset = IntervalSet.make([(0, 0), (1, 2)], 5)
    assert iset.restrict(1, 7) == IntervalSet(((1, 2), (5, 7)), None)


def test_restrict_matches_membership_scan():
    rng = random.Random(12)
    for trial in range(80):
        iset = random_interval_set(rng, trial % 4 != 0)
        lo = F(rng.randint(0, 200), rng.randint(1, 8))
        hi = lo + F(rng.randint(0, 400), rng.randint(1, 8))
        got = iset.restrict(lo, hi)
        assert got.tail_start is None
        for t in probes(iset.bounded + got.bounded + ((lo, hi),), iset.tail_start):
            inside = lo <= t <= hi and scan_contains(iset.bounded, iset.tail_start, t)
            assert got.contains(t) == inside


def test_intersect_bounded_interval_reaching_the_other_tail():
    x = IntervalSet.make([(0, 0), (2, 6)])
    y = IntervalSet.make([(0, 1)], 5)
    want = IntervalSet(((0, 0), (5, 6)), None)
    assert intersect([x, y]) == intersect([y, x]) == want


def test_intersect_matches_membership_scan():
    rng = random.Random(13)
    for trial in range(80):
        x = random_interval_set(rng, trial % 2 == 0)
        y = random_interval_set(rng, trial % 3 != 0)
        got = intersect([x, y])
        pts = {*probes(x.bounded + y.bounded, x.tail_start), *probes((), y.tail_start)}
        for t in pts:
            in_x = scan_contains(x.bounded, x.tail_start, t)
            in_y = scan_contains(y.bounded, y.tail_start, t)
            assert got.contains(t) == (in_x and in_y)


# --- intersections ----------------------------------------------------------------


def test_intersect_single_is_identity():
    got = intersect([EXAMPLE])
    assert got == nebula_to_intervals(EXAMPLE)


def test_intersect_hand_run():
    a = IntervalSet.make([(0, 0)], 1)
    b = IntervalSet.make([(0, F(1, 4))], 2)
    got = intersect([a, b])
    assert got.bounded == ((0, 0),)
    assert got.tail_start == 2


def test_intersect_commutative_associative():
    rng = random.Random(5)
    nebs = []
    for q in range(3):
        svals = {F(0), *random_fractions(rng, 12)}
        nebs.append(cover(svals, q))
    a, b, c = nebs
    assert intersect([a, b]) == intersect([b, a])
    assert intersect([intersect([a, b]), c]) == intersect([a, intersect([b, c])])


def test_intersect_needs_input():
    with pytest.raises(ValueError):
        intersect([])


def test_intersection_components_shrink_with_q():
    # distinct q up to Q: every surviving component near the origin is
    # shorter than 2^-Q
    svals = {F(0), *random_fractions(random.Random(9), 30)}
    family = cover_family(svals, 6)
    meet = intersect(family)
    min_q, max_q = 0, 6
    assert meet.largest_length_below(min_q + 1) < F(1, 2**max_q)


# --- margin -----------------------------------------------------------------------


def two_point(v):
    return FiniteMetricSpace.from_rows("xy", [[F(0), F(v)], [F(v), F(0)]])


def test_margin_hand_run():
    m = two_point(F(3, 10))
    got = margin(m, neb(1, [(0, 0), (F(3, 10), F(3, 10))], 2))
    assert got.epsilon == F(3, 80)
    assert got.fattened.bounded == (
        (0, F(3, 80)),
        (F(3, 10) - F(3, 80), F(3, 10) + F(3, 80)),
    )
    assert got.fattened.tail_start == 2 - F(3, 80)
    assert validate_nebula(got.fattened).is_valid


def test_margin_perturbation_stays_inside():
    m = two_point(F(3, 10))
    got = margin(m, neb(1, [(0, 0), (F(3, 10), F(3, 10))], 2))
    wiggle = AffineCapped(F(1, 100), 1)
    e = transform_metric(m, wiggle)
    assert sup_distance(m, e) == F(3, 1000)
    assert sup_distance(m, e) < got.epsilon
    for v in range_of_metric(e):
        assert nebula_contains(got.fattened, v)


def test_margin_prunes_empty_intervals():
    # an interval with no metric value must not shrink epsilon
    m = two_point(F(3, 10))
    noisy = neb(
        1,
        [(0, 0), (F(3, 10), F(3, 10)), (F(17, 10), F(17, 10))],
        2,
    )
    got = margin(m, noisy)
    assert got.epsilon == F(3, 80)  # same as without the far interval
    assert len(got.fattened.bounded) == 2


def test_margin_keeps_exactly_the_occupied_intervals():
    rng = random.Random(41)
    for trial in range(20):
        m = random_metric(rng.randint(2, 12), rng.randint(1, 6), seed=trial)
        vals = range_of_metric(m)
        # cover extra values too, so some intervals carry no value of m
        extra = random_fractions(rng, rng.randint(0, 20), max_num=4)
        nebula = cover([*vals, *extra], trial % 6)
        got = margin(m, nebula)
        kept = [
            (a, b) for a, b in nebula.bounded if any(a <= v <= b for v in vals)
        ]
        eps = got.epsilon
        want = [(kept[0][0], kept[0][1] + eps)]
        want.extend((a - eps, b + eps) for a, b in kept[1:])
        assert got.fattened.bounded == tuple(want)


def test_margin_requires_containment():
    m = two_point(F(1, 2))
    with pytest.raises(ValueError, match="outside"):
        margin(m, EXAMPLE)


def test_margin_uniform_lift_guarantee():
    # the guarantee covers arbitrary metrics within epsilon, not just the
    # transform family: lift every off-diagonal entry by delta < epsilon
    rng = random.Random(17)
    for trial in range(20):
        m = random_metric(rng.randint(2, 8), 5, seed=trial)
        neb = cover(range_of_metric(m), rng.randint(0, 5))
        got = margin(m, neb)
        delta = got.epsilon * F(rng.randint(1, 99), 100)
        rows = tuple(
            tuple(v + delta if i != j else F(0) for j, v in enumerate(row))
            for i, row in enumerate(m.dist)
        )
        lifted = FiniteMetricSpace(m.points, rows)
        assert sup_distance(m, lifted) == delta
        for v in range_of_metric(lifted):
            assert nebula_contains(got.fattened, v)


def test_margin_openness_property():
    rng = random.Random(31)
    m = random_metric(8, 3, seed=2)
    nebula = cover(range_of_metric(m), 2)
    got = margin(m, nebula)
    assert got.epsilon > 0
    for trial in range(100):
        cap = F(rng.randint(1, 8), rng.randint(1, 4))
        alpha = got.epsilon * F(rng.randint(1, 50), 100) / cap
        e = transform_metric(m, AffineCapped(alpha, cap))
        assert sup_distance(m, e) < got.epsilon
        for v in range_of_metric(e):
            assert nebula_contains(got.fattened, v)
        assert validate_nebula(got.fattened).is_valid


# --- range helpers ------------------------------------------------------------------


def test_range_of_uniform_space():
    m = FiniteMetricSpace.from_rows("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert range_of_metric(m) == (0, 1)
    assert gap_near_zero(m) == 1


def test_range_of_cantor():
    c = cantor_approx(2)
    assert range_of_metric(c) == (0, F(1, 4), F(1, 2))
    assert gap_near_zero(c) == F(1, 4)


def test_range_of_single_point():
    m = FiniteMetricSpace.from_rows("a", [[0]])
    assert range_of_metric(m) == (0,)
    assert gap_near_zero(m) is None


def test_approximate_roundtrip_through_covers():
    from metric_forge import approximate

    m = random_metric(7, 10, seed=13)
    for eps in (F(1, 2), F(5)):
        D = approximate(m, eps).D
        for q in range(9):
            nebula = cover(range_of_metric(D), q)
            assert validate_nebula(nebula).is_valid
            got = margin(D, nebula)
            assert got.epsilon > 0
