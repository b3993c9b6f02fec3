import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from metric_forge import (
    AffineCapped,
    Compose,
    FiniteMetricSpace,
    Identity,
    Power,
    RangeParams,
    RoundUpTo,
    ScaledCeil,
    Sum,
    Truncate,
    UnsupportedTransformError,
    approximate,
    cantor_approx,
    ceil_ratio,
    jsonio,
    quantize_discrete,
    random_metric,
    range_membership,
    subadditivity_counterexample,
    sup_distance,
    transform_metric,
    validate_metric,
)

from support import brute_range_member, triple_loop_is_ultrametric

nonneg_fractions = st.fractions(min_value=0, max_value=50)
pos_fractions = st.fractions(min_value=F(1, 100), max_value=50)
# numerators and denominators well past int64, as on the object-array path
wide_fractions = st.builds(F, st.integers(0, 2**90), st.integers(1, 2**90))


def two_point(v):
    return FiniteMetricSpace.from_rows("xy", [[F(0), F(v)], [F(v), F(0)]])


# --- ceiling quantization -----------------------------------------------------


def test_ceil_ratio_examples():
    assert ceil_ratio(F(26, 10), 1) == 3
    assert ceil_ratio(1, 1) == 1
    assert ceil_ratio(F(1, 2), 1) + ceil_ratio(F(1, 2), 1) >= ceil_ratio(1, 1)
    assert ceil_ratio(0, F(1, 3)) == 0


def test_ceil_ratio_domain_errors():
    with pytest.raises(ValueError):
        ceil_ratio(1, 0)
    with pytest.raises(ValueError):
        ceil_ratio(-1, 1)


@given(nonneg_fractions, nonneg_fractions, pos_fractions)
def test_ceil_ratio_subadditive(x, y, eta):
    assert ceil_ratio(x + y, eta) <= ceil_ratio(x, eta) + ceil_ratio(y, eta)


@given(nonneg_fractions, pos_fractions)
def test_ceil_ratio_is_smallest(x, eta):
    k = ceil_ratio(x, eta)
    assert x <= k * eta
    if k > 0:
        assert x > (k - 1) * eta


@given(
    st.one_of(nonneg_fractions, wide_fractions),
    st.one_of(pos_fractions, wide_fractions.filter(lambda f: f > 0)),
)
@example(F(2**63 + 1, 2**63 - 1), F(1, 2**64 + 3))
@example(F(3 * 2**70, 2**70 + 1), F(3, 2**70 + 1))
def test_ceil_ratio_matches_math_ceil(x, eta):
    assert ceil_ratio(x, eta) == math.ceil(x / eta)


def test_quantize_discrete_matches_entrywise_ceiling():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 6)
        # entries in [1, 2) close every triangle; denominators pass 2^62
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                den = rng.randint(1, 2**70)
                rows[i][j] = rows[j][i] = 1 + F(rng.randint(0, den - 1), den)
        m = FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)
        eta = F(rng.randint(1, 2**66), rng.randint(1, 2**66))
        got = quantize_discrete(m, eta)
        for i in range(n):
            for j in range(n):
                want = 0 if i == j else eta * math.ceil(m.dist[i][j] / eta)
                assert got.dist[i][j] == want


def test_quantize_discrete_examples():
    q = quantize_discrete(two_point(F(13, 10)), F(1, 2))
    assert q.dist[0][1] == F(3, 2)
    assert sup_distance(two_point(F(13, 10)), q) == F(1, 5)
    m = FiniteMetricSpace.from_rows(
        "abc", [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    )
    assert quantize_discrete(m, 1).dist == m.dist
    assert quantize_discrete(two_point(F(1, 10)), 1).dist[0][1] == 1


def test_quantize_discrete_contract():
    rng = random.Random(3)
    for _ in range(25):
        m = random_metric(rng.randint(2, 7), 8, seed=rng.randint(0, 999))
        eta = F(rng.randint(1, 8), rng.randint(1, 5))
        e = quantize_discrete(m, eta)
        assert sup_distance(m, e) <= eta
        assert e.min_positive() >= eta
        assert validate_metric(e).is_metric
        for i in range(m.n):
            for j in range(m.n):
                assert (e.dist[i][j] / eta).denominator == 1


# --- the transform family ------------------------------------------------------


def test_truncate_preserves_metricity():
    for seed in range(5):
        m = random_metric(6, 10, seed=seed)
        out = transform_metric(m, Truncate(F(3, 2)))
        assert validate_metric(out).is_metric
        assert out.max_value() <= F(3, 2)


def test_identity_is_noop():
    m = random_metric(5, 10, seed=8)
    assert transform_metric(m, Identity()).dist == m.dist


def test_square_breaks_triangle_on_path():
    m = FiniteMetricSpace.from_rows("abc", [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    out = transform_metric(m, Power(2))
    report = validate_metric(out)
    assert not report.is_metric
    tri = [v for v in report.violations if v.kind == "triangle"]
    assert tri and tri[0].lhs == 4 and tri[0].rhs == 2


def test_subadditivity_decisions():
    assert Identity().is_subadditive()
    assert Power(1).is_subadditive()
    assert not Power(2).is_subadditive()
    assert ScaledCeil(F(1, 3)).is_subadditive()
    assert Truncate(F(2)).is_subadditive()
    assert AffineCapped(F(1, 100), F(1)).is_subadditive()
    assert not AffineCapped(F(-1, 2), F(1)).is_subadditive()
    # dense grid behaves like a ceiling; a sparse set jumps too far
    assert RoundUpTo((0, F(1, 2), 1, F(3, 2), 2)).is_subadditive()
    assert not RoundUpTo((0, 1, 10)).is_subadditive()
    assert Sum((Truncate(1), Identity())).is_subadditive()
    assert Compose(ScaledCeil(1), Truncate(2)).is_subadditive()
    assert not Sum((Power(2), Identity())).is_subadditive()


def test_roundupto_decision_matches_sampling():
    # the finite decision must agree with dense random probing
    rng = random.Random(41)
    for _ in range(20):
        cuts = sorted(
            {F(0)}
            | {F(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))}
        )
        f = RoundUpTo(tuple(cuts))
        decided = f.is_subadditive()
        top = cuts[-1]
        violated = False
        for _ in range(400):
            x = F(rng.randint(0, top.numerator * 8), top.denominator * 8)
            y = F(rng.randint(0, top.numerator * 8), top.denominator * 8)
            if x + y > top:
                continue
            if f.apply(x + y) > f.apply(x) + f.apply(y):
                violated = True
                break
        if violated:
            assert not decided
        # no violation found is only evidence, so no assertion the other way


@given(
    st.lists(nonneg_fractions, min_size=1, max_size=8),
    nonneg_fractions,
    st.sampled_from(["hit", "between", "above", "free"]),
)
def test_roundupto_apply_matches_a_scan(members, s, where):
    f = RoundUpTo((F(0), F(1, 7), *members))
    values = f.values
    if where == "hit":
        s = values[int(s) % len(values)]
    elif where == "between":
        k = int(s) % (len(values) - 1)
        s = (values[k] + values[k + 1]) / 2
    elif where == "above":
        s = values[-1] + s + F(1, 3)
    if s > values[-1]:
        with pytest.raises(ValueError, match="above the top of the round-up set"):
            f.apply(s)
    else:
        assert f.apply(s) == min(v for v in values if v >= s)


def test_transform_family_validation():
    with pytest.raises(ValueError):
        Power(0)
    with pytest.raises(ValueError):
        ScaledCeil(0)
    with pytest.raises(ValueError):
        Truncate(-1)
    with pytest.raises(ValueError):
        RoundUpTo((F(1, 2), 1))  # missing 0
    with pytest.raises(ValueError):
        AffineCapped(-1, 1)
    with pytest.raises(UnsupportedTransformError):
        transform_metric(two_point(1), lambda s: s)


def test_subadditive_members_preserve_metricity():
    members = [
        Identity(),
        ScaledCeil(F(2, 3)),
        Truncate(F(5, 2)),
        AffineCapped(F(1, 4), F(2)),
        Sum((Truncate(1), AffineCapped(F(1, 8), F(3)))),
        Compose(Truncate(3), ScaledCeil(F(1, 2))),
    ]
    for f in members:
        assert f.is_subadditive()
    for seed in range(10):
        m = random_metric(6, 10, seed=seed)
        for f in members:
            assert validate_metric(transform_metric(m, f)).is_metric


# --- counterexample construction ------------------------------------------------


def test_counterexample_square_unit():
    cx = subadditivity_counterexample(Power(2), 1, 1)
    assert cx.dist[0][2] == 2
    out = transform_metric(cx, Power(2))
    assert not validate_metric(out).is_metric
    assert out.dist[0][2] == 4 and out.dist[0][1] + out.dist[1][2] == 2


def test_counterexample_square_one_two():
    cx = subadditivity_counterexample(Power(2), 1, 2)
    out = transform_metric(cx, Power(2))
    assert (out.dist[0][1], out.dist[1][2], out.dist[0][2]) == (1, 4, 9)
    assert not validate_metric(out).is_metric


def test_counterexample_requires_violation():
    with pytest.raises(ValueError, match="no subadditivity violation"):
        subadditivity_counterexample(Truncate(2), F(3), F(5))


# --- certified range membership ---------------------------------------------------


def test_range_membership_examples():
    p = RangeParams(1, F(1, 2))
    cert = range_membership(F(11, 4), p)
    assert (cert.l, cert.n, cert.m) == (2, 1, 2)
    assert cert.value(p) == F(11, 4)

    zero = range_membership(0, p)
    assert (zero.l, zero.n, zero.m) == (0, None, None)

    assert range_membership(F(3, 10), p) is None
    assert not brute_range_member(F(3, 10), F(1), F(1, 2))


def test_range_membership_finds_what_approximate_certifies():
    # the pair at 2^-80 is certified at exponent 80, past the old scan cap
    tiny = F(1, 2**80)
    m = FiniteMetricSpace.from_rows(
        "abc", [[0, tiny, 1], [tiny, 0, 1], [1, 1, 0]]
    )
    res = approximate(m, 5)
    assert (res.eta, res.r) == (1, F(1, 2))
    cert = res.certificate(0, 1)
    assert (cert.l, cert.n, cert.m) == (0, 80, None)
    p = RangeParams(1, F(1, 2))
    found = range_membership(tiny, p)
    assert found is not None
    assert (found.l, found.n, found.m) == (0, 80, None)
    assert found.value(p) == tiny


def test_range_membership_matches_brute_force():
    rng = random.Random(13)
    p = RangeParams(F(1, 5), F(1, 10))
    for _ in range(120):
        t = F(rng.randint(0, 400), rng.choice([1, 2, 5, 10, 25, 50, 100]))
        cert = range_membership(t, p)
        if cert is None:
            assert not brute_range_member(t, p.eta, p.u)
        else:
            assert cert.value(p) == t


def test_range_membership_single_summand():
    p = RangeParams(F(1, 5), F(1, 2))
    cert = range_membership(F(1, 40), p)  # eta * u^3
    assert (cert.l, cert.n, cert.m) == (0, 3, None)


def test_range_membership_composite_ratios():
    # ratios with numerator > 1 stress the exponent bound: constructed
    # members must always be found, probes must match the brute table
    rng = random.Random(55)
    for u in (F(2, 3), F(3, 5), F(9, 10)):
        for eta in (F(1), F(3, 7)):
            p = RangeParams(eta, u)
            for _ in range(15):
                t = eta * (rng.randint(0, 9) + u ** rng.randint(0, 8) + u ** rng.randint(0, 8))
                cert = range_membership(t, p)
                assert cert is not None and cert.value(p) == t
            for _ in range(15):
                t = F(rng.randint(0, 120), rng.randint(1, 60))
                cert = range_membership(t, p)
                assert (cert is not None) == brute_range_member(t, eta, u)


def test_range_params_validation():
    with pytest.raises(ValueError):
        RangeParams(0, F(1, 2))
    with pytest.raises(ValueError):
        RangeParams(1, F(3, 2))


# --- the approximation pipeline -----------------------------------------------------


def test_approximate_two_point_hand_run():
    res = approximate(two_point(F(13, 10)), 5)
    assert res.eta == 1 and res.r == F(1, 2)
    assert res.D.dist[0][1] == 2
    assert sup_distance(two_point(F(13, 10)), res.D) == F(7, 10)
    ((i, j, cert),) = res.certificates
    assert (i, j) == (0, 1)
    assert (cert.l, cert.n, cert.m) == (2, None, None)


def test_approximate_equilateral():
    m = FiniteMetricSpace.from_rows("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    res = approximate(m, 5)
    assert res.D.dist == m.dist
    assert sup_distance(m, res.D) == 0


def test_approximate_single_point():
    res = approximate(FiniteMetricSpace.from_rows("a", [[0]]), F(1, 2))
    assert res.certificates == ()
    assert res.D.n == 1


def test_approximate_holds_one_index_per_pair_not_a_tuple():
    import gc
    import tracemalloc

    space = random_metric(600, 10, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        result = approximate(space, F(1, 2))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # D's int64 matrix (2.9 MB) and the int index of 179,700 pairs (1.4 MB);
    # an (i, j, cert) tuple per pair held 21.4 MB
    assert held < 8 * 2**20
    assert len(result.table[0]) < 10
    jsonio.approximation_chunks(result)
    assert "certificates" not in vars(result)


def test_certificate_lookup_by_index():
    m = random_metric(9, 10, seed=5)
    res = approximate(m, 5)
    for i in range(m.n):
        for j in range(m.n):
            if i == j:
                with pytest.raises(KeyError):
                    res.certificate(i, j)
                continue
            key = (min(i, j), max(i, j))
            (want,) = [c for a, b, c in res.certificates if (a, b) == key]
            assert res.certificate(i, j) is want
    for i, j in ((-1, 2), (2, -1), (0, m.n), (m.n, m.n + 1), (-2, -1)):
        with pytest.raises(KeyError):
            res.certificate(i, j)


def test_approximate_intra_cluster_certificates():
    # two tight points far from a third: the pair shares a cluster, so its
    # certificate must be a pure geometric level (l = 0)
    m = FiniteMetricSpace.from_rows(
        "abc",
        [[0, F(1, 100), 5], [F(1, 100), 0, 5], [5, 5, 0]],
    )
    res = approximate(m, 5)
    cert01 = res.certificate(0, 1)
    assert cert01.l == 0 and cert01.n is not None and cert01.m is None
    assert cert01.value(RangeParams(res.eta, res.r)) == res.D.dist[0][1]


def test_approximate_grid_contract():
    grid = [F(1, 10), F(1, 2), F(1), F(5)]
    for seed in range(6):
        m = random_metric(9, 10, seed=seed)
        for eps in grid:
            res = approximate(m, eps)
            assert validate_metric(res.D).is_metric
            assert sup_distance(m, res.D) <= eps
            params = RangeParams(res.eta, res.r)
            for i, j, cert in res.certificates:
                assert cert.value(params) == res.D.dist[i][j]
                confirmed = range_membership(res.D.dist[i][j], params)
                assert confirmed is not None
                assert confirmed.value(params) == res.D.dist[i][j]


def test_approximate_cluster_rounding_keeps_ultrametric():
    # inside every cluster the rounded metric must still be an ultrametric
    from metric_forge import subdominant_ultrametric

    m = random_metric(12, 2, seed=17)
    eps = F(5)
    res = approximate(m, eps)
    for cluster in res.plan.clusters:
        block = res.D.restrict(cluster)
        assert triple_loop_is_ultrametric(block)
        sub = subdominant_ultrametric(m.restrict(cluster))
        for i in range(block.n):
            for j in range(block.n):
                assert block.dist[i][j] >= sub.dist[i][j]


def test_approximate_r_override():
    m = random_metric(6, 10, seed=4)
    res = approximate(m, 5, r=F(1, 4))
    assert res.r == F(1, 4)
    assert sup_distance(m, res.D) <= 5
    with pytest.raises(ValueError):
        approximate(m, 5, r=F(3, 4))  # violates 2r <= eta
    with pytest.raises(ValueError):
        approximate(m, 5, r=1)


def test_approximate_domain_error():
    with pytest.raises(ValueError):
        approximate(two_point(1), 0)


@pytest.mark.parametrize(
    "rows, message",
    [
        # the hub ceiling meets a negative entry
        ([[0, 5], [-1, 0]], "symmetry violation at (0, 1) (5 against -1)"),
        # the hub check meets a zero below the diagonal
        ([[0, 5], [0, 0]], "symmetry violation at (0, 1) (5 against 0)"),
        # the level rounding meets a closure value above eta
        (
            [[0, F(1, 100), F(1, 100)], [5, 0, F(1, 100)], [5, F(1, 100), 0]],
            "symmetry violation at (0, 1) (1/100 against 5)",
        ),
    ],
)
def test_approximate_names_the_first_violation_of_an_asymmetric_input(rows, message):
    labels = [f"p{i}" for i in range(len(rows))]
    asym = FiniteMetricSpace.from_rows(labels, [[F(v) for v in row] for row in rows])
    with pytest.raises(ValueError) as err:
        approximate(asym, 1)
    assert str(err.value) == f"input is not a metric: {message}"


def near_pair(f):
    """Points a, b at distance f, and c at distance 1 from both."""
    return FiniteMetricSpace.from_rows("abc", [[0, f, 1], [f, 0, 1], [1, 1, 0]])


def test_approximate_accepts_the_deepest_level_under_the_cap():
    # epsilon 1: eta = 1/5 and r = 1/10, so the level scale is 5 * 10^E;
    # f = eta * r^4299 is the deepest level with 4300 digits, the cap
    f = F(1, 5 * 10**4299)
    res = approximate(near_pair(f), 1)
    assert res.D.dist[0][1] == f
    assert res.certificate(0, 1).n == 4299
    assert len(str(res.D.scaled[1])) == 4300


def test_approximate_refuses_a_level_past_the_cap_before_building_it():
    import tracemalloc

    space = near_pair(F(1, 5 * 10**4300))  # at eta * r^4300: 4301 digits
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            approximate(space, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "level depth 4300 or more needed, past the cap:"
        " den(eta) * den(r)^4300 has over 4300 digits"
    )
    # approximate one level shallower peaks near 9 MB, this refusal near 12 kB
    assert peak < 2**17


def test_round_up_preserves_ultrametric_property():
    # increasing images of ultrametrics stay ultrametrics
    c = cantor_approx(3)
    levels = [F(1, 2**k) for k in range(6)]
    out = transform_metric(c, RoundUpTo((0, *levels)))
    assert triple_loop_is_ultrametric(out)
