import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import (
    FiniteMetricSpace,
    RangeParams,
    SearchCapExceeded,
    build_funiv_approx,
    build_pair_universal,
    canonical_section,
    class_Cn_check,
    find_isometric_embedding,
    fragility_experiment,
    frechet_embed,
    linf_distance,
    make_net,
    pullback_universal,
    random_metric,
    range_density_gap,
    range_membership,
    subdominant_ultrametric,
    validate_metric,
)

from support import (
    brute_first_embedding,
    first_primes,
    random_cn_space,
    reference_build_funiv_approx,
    reference_build_pair_universal,
    reference_pullback_universal,
)


def space(labels, rows):
    return FiniteMetricSpace.from_rows(labels, [[F(v) for v in r] for r in rows])


def two_point(v, labels="xy"):
    return FiniteMetricSpace.from_rows(labels, [[F(0), F(v)], [F(v), F(0)]])


EQUILATERAL = space("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


# --- class membership ---------------------------------------------------------


def test_class_check_examples():
    assert class_Cn_check(EQUILATERAL, 3)
    assert not class_Cn_check(EQUILATERAL, 2)  # cardinality
    assert not class_Cn_check(two_point(F(1, 4)), 3)  # separation
    assert not class_Cn_check(two_point(5), 3)  # diameter
    assert class_Cn_check(two_point(5), 5)


# --- Frechet embedding ---------------------------------------------------------


def test_frechet_hand_run():
    m = space("pqr", [[0, 1, 2], [1, 0, F(3, 2)], [2, F(3, 2), 0]])
    rows = frechet_embed(m, 3)
    assert rows == (
        (0, 1, 2),
        (1, 0, F(3, 2)),
        (2, F(3, 2), 0),
    )
    for i in range(3):
        for j in range(3):
            assert linf_distance(rows[i], rows[j]) == m.dist[i][j]


def test_frechet_single_point():
    rows = frechet_embed(space("a", [[0]]), 1)
    assert rows == ((0,),)


def test_frechet_two_point_padded():
    rows = frechet_embed(two_point(5), 5)
    assert rows[0] == (0, 5, 0, 0, 0)
    assert rows[1] == (5, 0, 0, 0, 0)
    assert linf_distance(rows[0], rows[1]) == 5


def test_frechet_rejects_out_of_class():
    with pytest.raises(ValueError):
        frechet_embed(two_point(5), 3)


def test_frechet_refuses_past_the_coordinate_cap():
    # a 2-point space is in the class for every n >= 2, so n alone decides
    m = two_point(1)
    with pytest.raises(
        ValueError, match=r"^2 x 524289 coordinates exceed the cap of 1048576$"
    ):
        frechet_embed(m, 2**19 + 1)
    rows = frechet_embed(m, 2**19)  # exactly at the cap
    assert len(rows) == 2 and len(rows[0]) == 2**19


def test_frechet_exact_isometry_on_random_class_members():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 7)
        m = random_cn_space(rng, n)
        assert class_Cn_check(m, n)
        rows = frechet_embed(m, n)
        for i in range(m.n):
            for c in rows[i]:
                assert 0 <= c <= n
            for j in range(m.n):
                if i != j:
                    assert linf_distance(rows[i], rows[j]) == m.dist[i][j]


# --- pullback universality -------------------------------------------------------


def test_pullback_reduces_to_target_when_separated():
    e = space("abc", [[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    d = space("abc", [[0, 9, 9], [9, 0, 9], [9, 9, 0]])
    rho = pullback_universal(d, e, {p: p for p in "abc"}, 1)
    assert rho.dist == e.dist  # min(d, r) = r <= every e value


def test_pullback_reduces_to_source():
    d = space("ab", [[0, F(1, 2)], [F(1, 2), 0]])
    e = space("ab", [[0, F(1, 4)], [F(1, 4), 0]])
    rho = pullback_universal(d, e, {"a": "a", "b": "b"}, 10)
    assert rho.dist == d.dist


def test_pullback_double_cover_embeds_target():
    e = space("abc", [[0, 2, 3], [2, 0, 4], [3, 4, 0]])
    cover_pts = ["u0", "u1", "v0", "v1", "w0", "w1"]
    f = {"u0": "a", "u1": "a", "v0": "b", "v1": "b", "w0": "c", "w1": "c"}
    rows = [[F(0)] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            v = F(1, 2) if f[cover_pts[i]] == f[cover_pts[j]] else F(5)
            rows[i][j] = v
            rows[j][i] = v
    dX = FiniteMetricSpace(tuple(cover_pts), tuple(tuple(r) for r in rows))
    rho = pullback_universal(dX, e, f, 1)
    assert validate_metric(rho).is_metric

    section = canonical_section(f, set(e.points))
    chosen = [rho.index(section[y]) for y in e.points]
    for i in range(3):
        for j in range(3):
            assert rho.dist[chosen[i]][chosen[j]] == e.dist[i][j]
    assert find_isometric_embedding(e, rho) is not None


def test_pullback_requires_surjection():
    e = space("ab", [[0, 1], [1, 0]])
    d = space("xy", [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="onto"):
        pullback_universal(d, e, {"x": "a", "y": "a"}, 1)


def test_pullback_separated_subsets_embed_on_randoms():
    rng = random.Random(8)
    for trial in range(12):
        e = random_metric(5, 6, seed=trial)
        r = F(rng.randint(1, 4), 2)
        # a double cover with tiny fiber distances
        xs = [f"{p}.{c}" for p in e.points for c in (0, 1)]
        f = {x: x.split(".")[0] for x in xs}
        rows = [[F(0)] * len(xs) for _ in range(len(xs))]
        for i, x in enumerate(xs):
            for j in range(i + 1, len(xs)):
                y = xs[j]
                v = F(1, 100) if f[x] == f[y] else e.dist[e.index(f[x])][e.index(f[y])]
                rows[i][j] = v
                rows[j][i] = v
        dX = FiniteMetricSpace(tuple(xs), tuple(tuple(row) for row in rows))
        rho = pullback_universal(dX, e, f, r)
        assert validate_metric(rho).is_metric

        # greedy r-separated subset of the target
        chosen = []
        for i in range(e.n):
            if all(e.dist[i][j] >= r for j in chosen):
                chosen.append(i)
        if len(chosen) < 2:
            continue
        sub = e.restrict(chosen)
        section = canonical_section(f, set(sub.points))
        picked = [rho.index(section[y]) for y in sub.points]
        for a in range(sub.n):
            for b in range(sub.n):
                assert rho.dist[picked[a]][picked[b]] == sub.dist[a][b]
        assert find_isometric_embedding(sub, rho) is not None


# raw entries, on both sides of 0 and with denominators past 2^62
PULLBACK_ENTRIES = st.one_of(
    st.integers(-5, 50).map(F),
    st.fractions(min_value=-5, max_value=50, max_denominator=64),
    st.builds(F, st.integers(0, 2**70), st.integers(1, 2**70)),
)
PULLBACK_RADII = st.one_of(
    st.fractions(min_value=F(1, 64), max_value=50, max_denominator=64),
    st.builds(F, st.integers(1, 2**70), st.integers(1, 2**70)),
)


@st.composite
def pullback_cases(draw):
    """An asymmetric dX, a raw eY and a map of dX onto eY."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))

    def raw(labels):
        k = len(labels)
        row = st.lists(PULLBACK_ENTRIES, min_size=k, max_size=k)
        rows = draw(st.lists(row, min_size=k, max_size=k))
        return FiniteMetricSpace.from_rows(labels, rows)

    dX, eY = raw([f"x{i}" for i in range(n)]), raw([f"y{j}" for j in range(m)])
    extra = draw(st.lists(st.integers(0, m - 1), min_size=n - m, max_size=n - m))
    image = draw(st.permutations(list(range(m)) + extra))
    f = {x: eY.points[j] for x, j in zip(dX.points, image)}
    return dX, eY, f, draw(PULLBACK_RADII)


@given(pullback_cases())
# small integer matrices with r = (2^64 + 1)/3: r is past int64 on the
# common scale while dX still fits
@example(
    (
        space("ab", [[0, 5], [-1, 0]]),
        space("c", [[7]]),
        {"a": "c", "b": "c"},
        F(2**64 + 1, 3),
    )
)
def test_pullback_matches_the_fraction_build(case):
    dX, eY, f, r = case
    got = pullback_universal(dX, eY, f, r)
    want = reference_pullback_universal(dX, eY, f, r)
    assert got.points == want.points
    assert got.dist == want.dist


# --- pair-universal spaces --------------------------------------------------------


def test_pair_universal_hand_run():
    D = build_pair_universal([F(1, 2), 3])
    assert D.points == ("a0", "b0", "a1", "b1")
    assert D.dist[0][1] == F(1, 2)
    assert D.dist[0][2] == 1
    assert D.dist[1][3] == F(1, 2) + 1 + 3
    assert validate_metric(D).is_metric


def test_pair_universal_embeds_every_value():
    values = [F(1, 2), F(3), F(7, 4)]
    D = build_pair_universal(values)
    for v in values:
        found = find_isometric_embedding(two_point(v), D)
        assert found is not None and found.exact


def test_pair_universal_rejects_bad_values():
    with pytest.raises(ValueError):
        build_pair_universal([F(1, 2), 0])
    with pytest.raises(ValueError):
        build_pair_universal([1, 1])


def test_pair_universal_point_cap():
    # 500 values glue into the 1000 points of the net cap; one more is
    # refused before any piece or matrix is built (one 1000 x 1000 int64
    # matrix alone would take 8 MB)
    values = [F(k, 7) for k in range(1, 501)]
    D = build_pair_universal(values)
    assert D.n == 1000
    assert D.dist[998][999] == F(500, 7)
    values.append(F(1000))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^501 pair values exceed the cap of 500$"):
            build_pair_universal(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_pair_universal_refuses_coprime_values_before_gluing():
    # 1/p for the first 500 odd primes: 1000 points on a 5060-bit
    # denominator, which took 1.6 GB to glue; refused before any matrix
    values = [F(1, p) for p in first_primes(501)[1:]]
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError,
            match=r"^1000 x 1000 entries on a 5060-bit denominator exceed the cap"
            r" of 536870912 bits$",
        ):
            build_pair_universal(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 500 two-point pieces take about 4.6 MB; the glue took 1.6 GB
    assert peak < 2**23


# --- glued nets -------------------------------------------------------------------


def test_net_axis_and_size():
    net = make_net(1, F(1, 2))
    assert net.points == ((0,), (F(1, 2),), (1,))
    assert validate_metric(net.space).is_metric


def test_net_rejects_non_dyadic_delta():
    with pytest.raises(ValueError, match="2\\^t"):
        make_net(1, F(1, 3))


def test_net_cap():
    # 17^3 = 4913 points, above the fixed cap of 1000
    with pytest.raises(ValueError, match=r"^1 x 17\^3 net points exceed the cap of 1000$"):
        make_net(3, F(3, 16))


def small_nets():
    """Every (n, delta) with n <= 3 whose net has at most 125 points."""
    out = []
    for n in (1, 2, 3):
        t = 0
        while (2**t + 1) ** n <= 125:
            out.append(pytest.param(n, F(n, 2**t), id=f"n{n}-delta{n}_{2**t}"))
            t += 1
    return out


def assert_same_scaled(got, want):
    """Equal entries, denominator and dtype of two spaces' ``scaled``."""
    (arr, denom), (want_arr, want_denom) = got.scaled, want.scaled
    assert (denom, arr.dtype, arr.shape) == (want_denom, want_arr.dtype, want_arr.shape)
    assert (arr == want_arr).all()


@pytest.mark.parametrize("n, delta", small_nets())
def test_net_matches_linf_distance(n, delta):
    net = make_net(n, delta)
    for i, p in enumerate(net.points):
        for j, p2 in enumerate(net.points):
            assert net.space.dist[i][j] == linf_distance(p, p2)
    # stored without a reduction pass: the one the Fraction rows give
    assert_same_scaled(net.space, FiniteMetricSpace(net.space.points, net.space.dist))


def test_net_of_729_points_builds_in_a_few_matrices():
    # one 729 x 729 int64 matrix is 4 MiB; the gaps taken over an
    # N x N x 3 difference array peaked at 24.5 MiB
    tracemalloc.start()
    try:
        net = make_net(3, F(3, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net.points) == 729
    assert peak < 2**24
    assert net.space.dist[0][-1] == 3 and net.space.dist[0][1] == F(3, 8)


@pytest.mark.parametrize("n, delta", small_nets())
def test_net_index_of_matches_list_index(n, delta):
    net = make_net(n, delta)
    for p in net.points:
        assert net.index_of(p) == net.points.index(p)
    # between two grid points, before the first and past the last
    for off in ((delta / 2,) * n, (-delta,) * n, (n + delta,) * n):
        with pytest.raises(KeyError):
            net.index_of(off)


@pytest.mark.parametrize("n, delta", small_nets())
def test_funiv_pieces_equal_pullback_of_subdominant(n, delta):
    net = make_net(n, delta)
    identity = {p: p for p in net.space.points}
    want = pullback_universal(
        subdominant_ultrametric(net.space), net.space, identity, F(1, n)
    )
    result = build_funiv_approx(n, delta, copies=2)
    m = len(net.points)
    for c in range(2):
        piece = result.space.restrict(range(c * m, (c + 1) * m))
        assert piece.points == tuple(f"K{c}:{label}" for label in want.points)
        assert piece.dist == want.dist


def test_funiv_two_point_exact():
    result = build_funiv_approx(1, F(1, 2))
    found = find_isometric_embedding(two_point(1), result.space)
    assert found is not None and found.exact


def test_funiv_distortion_via_net_rounding():
    result = build_funiv_approx(1, F(1, 2))
    pattern = two_point(F(1, 3))
    # nearest-net oracle: the rounded coordinates stay within delta/2 each
    rounded = result.net.round_to_net((F(1, 3),))
    assert abs(rounded[0] - F(1, 3)) <= F(1, 4)
    found = find_isometric_embedding(pattern, result.space, distortion=F(1, 2))
    assert found is not None and not found.exact


def test_funiv_grid_valued_patterns_embed_exactly():
    rng = random.Random(3)
    result = build_funiv_approx(2, F(1, 2))
    for _ in range(10):
        m = random_cn_space(rng, 2)
        # snap values onto the delta grid while keeping the class bounds
        rows = [
            [F(0) if i == j else (v * 2).__ceil__() * F(1, 2) for j, v in enumerate(row)]
            for i, row in enumerate(m.dist)
        ]
        snapped = FiniteMetricSpace(m.points, tuple(tuple(r) for r in rows))
        if not (
            validate_metric(snapped).is_metric and class_Cn_check(snapped, 2)
        ):
            continue
        rows = frechet_embed(snapped, 2)
        hosts = [result.net.index_of(r) for r in rows]
        for i in range(snapped.n):
            for j in range(snapped.n):
                hi, hj = hosts[i], hosts[j]
                assert result.space.dist[hi][hj] == snapped.dist[i][j]
        assert find_isometric_embedding(snapped, result.space) is not None


def test_funiv_copies_are_far_apart():
    result = build_funiv_approx(1, F(1, 2), copies=2)
    m = len(result.net.points)
    assert result.space.n == 2 * m
    for i in range(m):
        for j in range(m, 2 * m):
            assert result.space.dist[i][j] >= 2  # hub distance 1 + n


@pytest.mark.parametrize(
    "values",
    [
        [F(1, 2)],
        [F(1, 2), 3, F(7, 4)],
        [F(k, 24) for k in range(1, 25)],
        [F(2**70 + 1, 3), F(1, 2**65), 9],
    ],
)
def test_pair_universal_matches_the_fraction_build(values):
    got, want = build_pair_universal(values), reference_build_pair_universal(values)
    assert got.points == want.points
    assert got.dist == want.dist


@pytest.mark.parametrize("copies", [1, 2, 3])
@pytest.mark.parametrize("n, delta", small_nets())
def test_funiv_matches_the_fraction_build(n, delta, copies):
    got = build_funiv_approx(n, delta, copies)
    want = reference_build_funiv_approx(n, delta, copies)
    assert got.copies == want.copies == copies
    assert got.net.points == want.net.points
    assert got.space.points == want.space.points
    assert got.space.dist == want.space.dist
    assert_same_scaled(got.space, want.space)


# --- embedding search ---------------------------------------------------------------


def test_search_identity():
    m = random_metric(5, 10, seed=6)
    found = find_isometric_embedding(m, m)
    assert found is not None
    assert found.mapping == (0, 1, 2, 3, 4)


def test_search_pair_in_pair_universal():
    D = build_pair_universal([F(1, 2), 3])
    found = find_isometric_embedding(two_point(F(1, 2)), D)
    assert found is not None
    assert found.mapping == (0, 1)


def test_search_none_is_exhaustive():
    D = build_pair_universal([F(1, 2), 3])
    assert find_isometric_embedding(EQUILATERAL, D) is None
    assert brute_first_embedding(EQUILATERAL, D) is None


@pytest.mark.parametrize("found", [True, False], ids=["found", "missing"])
def test_search_leaves_no_reference_cycle(found):
    # a recursive closure holds itself through its cell, so the host matrix
    # and the search state would wait for the cyclic collector
    import gc

    D = build_pair_universal([F(1, 2), 3])
    pattern = two_point(F(1, 2)) if found else EQUILATERAL
    gc.collect()
    gc.disable()
    try:
        got = find_isometric_embedding(pattern, D)
        freed = gc.collect()
    finally:
        gc.enable()
    assert (got is not None) == found
    assert freed == 0


def test_search_cap_refusal():
    big = random_metric(8, 10, seed=0)
    with pytest.raises(SearchCapExceeded):
        find_isometric_embedding(big, big)


def test_search_agrees_with_brute_force():
    rng = random.Random(77)
    cases = 0
    for trial in range(60):
        pat = random_metric(rng.randint(2, 4), 4, seed=trial)
        host = random_metric(rng.randint(4, 8), 4, seed=1000 + trial)
        for distortion in (F(0), F(1, 4)):
            got = find_isometric_embedding(pat, host, distortion)
            assert (got and got.mapping) == brute_first_embedding(pat, host, distortion)
            cases += 1
    assert cases >= 100


# Each kind picks values and distortions for one arithmetic path of the search:
#   int64:     small denominators, every scaled value below 2^62;
#   object:    denominators 2^61 - 1 and 2^89 - 1, so the lcm is above 2^62;
#   tolerance: integers below 2^62 in magnitude (negatives make gaps up to
#              2^63 - 2) and a distortion of at least 2^62, so only the
#              scaled tolerance is above 2^62.
SEARCH_KINDS = {
    "int64": (
        st.builds(F, st.integers(0, 40), st.integers(1, 8)),
        # denominators 9 to 12 are often not in the values' lcm
        st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 12), st.integers(1, 12))),
    ),
    "object": (
        st.builds(
            lambda a, b, p: F(a, 4) + F(b, p),
            st.integers(0, 40),
            st.integers(1, 3),
            st.sampled_from([2**61 - 1, 2**89 - 1]),
        ),
        st.sampled_from([F(0), F(1, 4), F(1, 2**61 - 1), F(1, 4) + F(1, 2**89 - 1)]),
    ),
    "tolerance": (
        st.sampled_from([-(2**62 - 1), -(2**60), 0, 2**61, 2**62 - 1]).map(F),
        st.sampled_from([2**62, 2**62 + 2**61, 2**63 - 3, 2**63 - 2]).map(F),
    ),
}


def symmetric_space(labels, upper):
    k = len(labels)
    rows = [[F(0)] * k for _ in range(k)]
    for (i, j), v in zip(((i, j) for i in range(k) for j in range(i + 1, k)), upper):
        rows[i][j] = rows[j][i] = v
    return FiniteMetricSpace(tuple(labels), tuple(map(tuple, rows)))


@st.composite
def search_cases(draw, kind):
    values, distortions = SEARCH_KINDS[kind]
    h = draw(st.integers(1, 7))
    host = symmetric_space(
        [f"h{i}" for i in range(h)],
        draw(st.lists(values, min_size=h * (h - 1) // 2, max_size=h * (h - 1) // 2)),
    )
    # a host subspace with some entries redrawn, so maps exist and fail
    picked = draw(st.lists(st.integers(0, h - 1), min_size=1, max_size=4, unique=True))
    upper = [
        draw(st.one_of(st.just(host.dist[a][b]), values))
        for i, a in enumerate(picked)
        for b in picked[i + 1:]
    ]
    pattern = symmetric_space([f"p{i}" for i in range(len(picked))], upper)
    return pattern, host, draw(distortions)


@pytest.mark.parametrize("kind", sorted(SEARCH_KINDS))
@given(data=st.data())
def test_search_returns_first_brute_force_map(kind, data):
    pattern, host, distortion = data.draw(search_cases(kind))
    found = find_isometric_embedding(pattern, host, distortion)
    want = brute_first_embedding(pattern, host, distortion)
    assert (found and found.mapping) == want
    if found is not None:
        assert found.exact == (distortion == 0)


def pair(v):
    return FiniteMetricSpace(("a", "b"), ((F(0), F(v)), (F(v), F(0))))


def test_search_leaves_int64_for_large_pattern_or_tolerance():
    # host values fit int64; only the pattern or only the tolerance does not
    assert find_isometric_embedding(pair(2**63), pair(1)) is None
    assert find_isometric_embedding(pair(2**63), pair(1), 2**63 - 1).mapping == (0, 1)
    # the scaled gap is 2^63 - 2
    assert find_isometric_embedding(pair(2**62 - 1), pair(1 - 2**62), 2**63 - 2)
    assert find_isometric_embedding(pair(2**62 - 1), pair(1 - 2**62), 2**63 - 3) is None


def test_search_scale_includes_the_distortion_denominator():
    # the gap 1/3 is within 2/5; neither host nor pattern has a 5 below
    assert find_isometric_embedding(pair(F(4, 3)), pair(1), F(2, 5)).mapping == (0, 1)
    assert find_isometric_embedding(pair(F(4, 3)), pair(1), F(1, 5)) is None


def test_search_reads_host_row_of_the_new_point():
    # like the pattern's dist[idx][prev], the host entry read is
    # dist[candidate][earlier image]; the two differ on an asymmetric host
    host = FiniteMetricSpace(("a", "b"), ((F(0), F(1)), (F(2), F(0))))
    assert find_isometric_embedding(pair(2), host).mapping == (0, 1)
    assert find_isometric_embedding(pair(1), host).mapping == (1, 0)


# --- range density and fragility ------------------------------------------------------


def test_range_density_gap_examples():
    m = space("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert range_density_gap(m, 2) == 1
    single = space("a", [[0]])
    assert range_density_gap(single, 1) == 1


def test_range_density_gap_pair_space():
    # prescribed values tile [1/4, 4] at step 1/4, so no larger hole remains
    values = [F(k, 4) for k in range(1, 17)]
    D = build_pair_universal(values)
    assert range_density_gap(D, 4) == F(1, 4)


def test_fragility_small_run():
    values = [F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    report = fragility_experiment(values, F(1, 2))
    assert report.sup_distance <= F(1, 2)
    assert report.eta == F(1, 10) and report.r == F(1, 20)
    assert report.gap_length >= F(1, 20)
    assert set(report.lost_values) | set(report.kept_values) == set(values)
    # a lost value really cannot embed exactly any more
    for v in report.lost_values:
        assert find_isometric_embedding(two_point(v), report.approximation.D) is None
    for v in report.kept_values:
        assert (
            find_isometric_embedding(two_point(v), report.approximation.D)
            is not None
        )
    # values outside the certified range are necessarily lost
    params = RangeParams(report.eta, report.r)
    for v in values:
        if range_membership(v, params) is None:
            assert v in report.lost_values


def test_fragility_huge_epsilon_still_consistent():
    values = [F(1, 2), F(5, 2)]
    report = fragility_experiment(values, 50)
    assert report.sup_distance <= 50
    assert report.max_value == max(report.approximation.D.values())
    assert report.gap_hi > report.gap_lo
