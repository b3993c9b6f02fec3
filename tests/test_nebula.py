import random
from fractions import Fraction as F
from itertools import count

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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

from metric_forge.nebula import MAX_Q, _covering_intervals, _pick_off
from support import (
    point_set_hausdorff,
    random_fractions,
    reference_cover,
    reference_covering_intervals,
)


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


@st.composite
def cover_inputs(draw):
    # value sets that hit every branch of the separator choice: grid
    # centers m 2^-(q+1), the fallback picks center - 2^-(q+3), whole walk
    # grids of pitch 2^-(q+5) and 2^-(q+6) (one point sometimes left out),
    # values past the last separator and rationals on fine dyadic grids;
    # shuffled, with duplicates, ints mixed with Fractions, and now and
    # then without 0 or with a negative value
    q = draw(st.integers(0, 20))
    step, eta = F(1, 2 ** (q + 1)), F(1, 2 ** (q + 3))
    grid_count = (q + 1) * 2 ** (q + 1)
    ms = st.lists(
        st.one_of(
            st.integers(1, 4),
            st.integers(grid_count - 2, grid_count + 1),
            st.integers(1, grid_count + 2),
        ),
        max_size=4,
    )
    values = [F(m) * step for m in draw(ms)]
    values += [F(m) * step - eta for m in draw(ms)]
    for shift in (5, 6):
        for m in draw(ms):
            pitch = F(1, 2 ** (q + shift))
            walk = [m * step - eta + k * pitch for k in range(2 ** (shift - 2) + 1)]
            if draw(st.booleans()):
                del walk[draw(st.integers(0, len(walk) - 1))]
            values += walk
    for _ in range(draw(st.integers(0, 12))):
        den = 2 ** draw(st.integers(0, q + 7)) * draw(st.sampled_from([1, 3, 5]))
        values.append(F(draw(st.integers(0, (q + 3) * den)), den))
    values += draw(st.lists(st.sampled_from(values), max_size=4)) if values else []
    values += draw(st.sampled_from([[0], [F(0)], [0, F(0)], [0], [F(0)], [], [-eta, 0]]))
    values = [
        int(v) if v.denominator == 1 and draw(st.booleans()) else v
        for v in map(F, values)
    ]
    return draw(st.permutations(values)), q


def cover_outcome(build, values, q):
    try:
        return build(values, q)
    except ValueError as exc:
        return type(exc), str(exc)


@given(cover_inputs())
@example(([0, F(3, 8), F(1, 2)], 0))
@example(([F(0)] + [F(3, 8) + F(k, 32) for k in range(9)], 0))
@example(([0, F(1, 2), F(3, 8), 3, F(95, 32), F(7, 2)], 2))  # t_last walks
def test_cover_matches_the_pairwise_search(case):
    values, q = case
    assert cover_outcome(cover, values, q) == cover_outcome(reference_cover, values, q)


@pytest.mark.parametrize("q", [0, 3, 6, 9])
def test_cover_matches_the_pairwise_search_on_a_wide_value_set(q):
    # every 1 + a/b with b <= 64: the kind of value set whose lcm passes
    # 2^62, with about 1300 values, many close to the separator grid
    values = [0] + [1 + F(a, b) for b in range(1, 65) for a in range(b)]
    got = cover(values, q)
    assert got == reference_cover(values, q)
    assert validate_nebula(got).is_valid


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


def space_with_values(values):
    """A (not necessarily metric) space whose off-diagonal entries are values."""
    n = 2
    while n * (n - 1) // 2 < len(values):
        n += 1
    rows = [[F(0)] * n for _ in range(n)]
    pairs = ((i, j) for i in range(n) for j in range(i + 1, n))
    for (i, j), v in zip(pairs, [*values, *[values[-1]] * n * n]):
        rows[i][j] = rows[j][i] = v
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)


# value denominators: 7^23, 2^63 and 3^41 put the scale past 2^62 alone;
# the interval ends use denominators that divide none of them
SCAN_DENS = [1, 4, 6, 64, 7**23, 2**63, 3**41]
END_DENS = [1, 3, 5, 2**70, 11**20]


@st.composite
def scan_inputs(draw):
    dens = draw(st.lists(st.sampled_from(SCAN_DENS), min_size=1, max_size=3))
    values = [
        F(draw(st.integers(0, 3 * d)), d)
        for d in dens
        for _ in range(draw(st.integers(1, 4)))
    ]
    space = space_with_values(values)
    vals = space.values()

    def near():  # a value of the space, or any point of [0, 3]
        if draw(st.booleans()):
            return draw(st.sampled_from(vals))
        return F(draw(st.integers(0, 3 * 97)), 97)

    def nudge():
        return F(draw(st.integers(0, 3)), draw(st.sampled_from(END_DENS)))

    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        c = near()
        pieces.append((max(c - nudge(), F(0)), c + nudge()))
    # the plot reads a nebula it does not validate: unsorted or overlapping
    # intervals must be scanned the same way
    if draw(st.booleans()):
        pieces.sort()
    tail = near() + nudge()
    return space, Nebula.make(draw(st.integers(0, 3)), pieces, tail)


def scan_outcome(scan, nebula, values):
    try:
        return scan(nebula, values)
    except ValueError as exc:
        return str(exc)


@given(scan_inputs())
@example((two_point(F(1, 2)), neb(1, [(0, 0)], 1)))  # 1/2 lies outside
@example((two_point(F(1, 7**23)), neb(0, [(0, F(1, 2**70))], F(5, 3))))
@example((two_point(F(1, 2**63)), neb(0, [(0, 0), (F(1, 2**64), F(1, 3))], 4)))
def test_covering_scan_matches_the_fraction_scan(case):
    space, nebula = case
    got = scan_outcome(_covering_intervals, nebula, space)
    want = scan_outcome(reference_covering_intervals, nebula, space.values())
    assert got == want


@pytest.mark.parametrize("q", [2, 6])
def test_covering_scan_on_a_wide_value_set(q):
    # every 1 + a/b with b <= 64, as in a wide validate input: lcm near 2^90
    values = [1 + F(a, b) for b in range(1, 65) for a in range(b)]
    space = space_with_values(values)
    assert space.scaled[0].dtype == object
    nebula = cover(space.values(), q)
    got = _covering_intervals(nebula, space)
    assert got == reference_covering_intervals(nebula, space.values())
    assert got == list(range(len(nebula.bounded)))
    # without the interval of the 7th-least value, both name the same value
    i = next(k for k, (a, b) in enumerate(nebula.bounded) if b >= space.values()[7])
    holed = Nebula(q, nebula.bounded[:i] + nebula.bounded[i + 1 :], nebula.tail_start)
    with pytest.raises(ValueError) as err:
        _covering_intervals(holed, space)
    with pytest.raises(ValueError) as ref:
        reference_covering_intervals(holed, space.values())
    assert str(err.value) == str(ref.value)


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


def test_q_past_the_cap_is_refused_before_two_to_the_q_is_built():
    import tracemalloc

    space = two_point(F(1, 2))
    big = neb(10**12, [(0, 0), (F(1, 2), F(1, 2))], 10**12 + 1)
    tracemalloc.start()
    try:
        check = validate_nebula(big)
        with pytest.raises(ValueError) as cover_err:
            cover(space.values(), 10**12)
        with pytest.raises(ValueError) as margin_err:
            margin(space, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.violations == ("q must be at most 12900",)
    assert str(cover_err.value) == "q must be at most 12900"
    assert str(margin_err.value) == (
        "margin needs a valid nebula: ('q must be at most 12900',)"
    )
    # 2^(10^12) alone would take 125 GB
    assert peak < 2**17


def test_cover_and_margin_at_the_q_cap_can_be_written():
    # 3/8 blocks a separator's fallback at small q; at the cap every value
    # is its own interval, and the margin's denominators fit the digit cap
    space = FiniteMetricSpace.from_rows(
        "abc", [[0, F(3, 8), F(1, 2)], [F(3, 8), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]]
    )
    got = cover(space.values(), MAX_Q)
    assert validate_nebula(got).is_valid
    assert got.bounded == ((0, 0), (F(3, 8), F(3, 8)), (F(1, 2), F(1, 2)))
    res = margin(space, got)
    assert validate_nebula(res.fattened).is_valid
    assert res.epsilon == F(1, 2 ** (MAX_Q + 2))
    for x in (res.epsilon, res.fattened.tail_start, *res.fattened.bounded[-1]):
        str(x)  # under Python's 4300-digit limit on writing an int


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
