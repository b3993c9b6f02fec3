"""Acceptance suite: one test per release criterion, zero-tolerance arithmetic.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(visible with ``pytest -s``); every bound below is exact, never a float
tolerance.
"""

import filecmp
import functools
import json
import random
import time
from fractions import Fraction as F

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
    approximate,
    ceil_ratio,
    cli,
    cover,
    cover_family,
    find_isometric_embedding,
    fragility_experiment,
    frechet_embed,
    intersect,
    linf_distance,
    margin,
    nebula_contains,
    quantize_discrete,
    random_metric,
    range_membership,
    subadditivity_counterexample,
    sup_distance,
    transform_metric,
    validate_metric,
    validate_nebula,
)

from support import (
    brute_first_embedding,
    point_set_hausdorff,
    random_cn_space,
    random_fractions,
)

SIZES = (4, 8, 16, 32, 64)
SEEDS_PER_SIZE = 40
EPS_GRID = (F(1, 10), F(1, 2), F(1), F(5))


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {number}: FAIL ({label})")
                raise
            print(f"[acceptance] criterion {number}: PASS ({label})")

        return run

    return wrap


# --- criterion 1: density half -------------------------------------------------

_density_cache = {}


def _density_runs():
    """200 seeded metrics x 4 epsilons, fully checked; cached for reuse."""
    if _density_cache:
        return _density_cache
    t0 = time.monotonic()
    small = []  # (space, eps, result) for n <= 16, reused by criterion 2
    checked = 0

    @functools.lru_cache(maxsize=None)
    def member(value, eta, r):
        return range_membership(value, RangeParams(eta, r))

    for n in SIZES:
        for seed in range(SEEDS_PER_SIZE):
            space = random_metric(n, 10, seed=seed)
            for eps in EPS_GRID:
                res = approximate(space, eps)
                assert validate_metric(res.D).is_metric
                assert sup_distance(space, res.D) <= eps
                assert res.eta == eps / 5
                assert res.r == min(F(1, 2), eps / 10)
                params = RangeParams(res.eta, res.r)
                for i, j, cert in res.certificates:
                    assert cert.value(params) == res.D.dist[i][j]
                for value in res.D.values():
                    confirmed = member(value, res.eta, res.r)
                    assert confirmed is not None
                    assert confirmed.value(params) == value
                checked += 1
                if n <= 16:
                    small.append((space, eps, res))
    _density_cache["elapsed"] = time.monotonic() - t0
    _density_cache["checked"] = checked
    _density_cache["small"] = small
    return _density_cache


@criterion(1, "density half: approximate certifies within epsilon")
def test_criterion_1_density():
    runs = _density_runs()
    assert runs["checked"] == len(SIZES) * SEEDS_PER_SIZE * len(EPS_GRID)
    print(f"[acceptance] criterion 1 runtime: {runs['elapsed']:.1f}s (budget 60s)")
    assert runs["elapsed"] < 60.0


# --- criterion 2: openness half --------------------------------------------------


@criterion(2, "openness half: covers, margins and perturbations")
def test_criterion_2_openness():
    rng = random.Random(2024)
    small = _density_runs()["small"]
    assert len(small) == 3 * SEEDS_PER_SIZE * len(EPS_GRID)
    for space, eps, res in small:
        values = res.D.values()
        per_q = []
        for q in range(9):
            nebula = cover(values, q)
            check = validate_nebula(nebula)
            assert check.is_valid, check.violations
            for v in values:
                assert nebula_contains(nebula, v)
            got = margin(res.D, nebula)
            assert got.epsilon > 0
            assert validate_nebula(got.fattened).is_valid
            per_q.append(got)

        floor = min(m.epsilon for m in per_q)
        positive = [v for v in values if v > 0]
        for trial in range(100):
            kind = trial % 10
            if kind == 8:
                grain = floor * F(rng.randint(1, 9), 10)
                shifted = [grain * ceil_ratio(v, grain) for v in positive]
            elif kind == 9:
                cap = res.D.max_value() - floor * F(rng.randint(1, 9), 20)
                if cap > 0:
                    shifted = [min(v, cap) for v in positive]
                else:
                    shifted = list(positive)  # degenerate scale: identity
            else:
                cap = F(rng.randint(1, 8), rng.randint(1, 4))
                alpha = floor * F(rng.randint(1, 40), 100) / cap
                shifted = [v + alpha * min(v, cap) for v in positive]
            assert all(abs(a - b) < floor for a, b in zip(shifted, positive))
            for got in per_q:
                fat = got.fattened
                for v in shifted:
                    assert nebula_contains(fat, v)
                assert nebula_contains(fat, F(0))


# --- criterion 3: quantization -----------------------------------------------------


@criterion(3, "quantization: grid round-up contract and ceiling subadditivity")
def test_criterion_3_quantization():
    rng = random.Random(3)
    for _ in range(1000):
        space = random_metric(rng.randint(2, 7), 8, seed=rng.randint(0, 10**6))
        eta = F(rng.randint(1, 12), rng.randint(1, 6))
        out = quantize_discrete(space, eta)
        assert sup_distance(space, out) <= eta
        assert out.min_positive() >= eta
        assert validate_metric(out).is_metric

    for _ in range(10**5):
        x = F(rng.randint(0, 4000), rng.randint(1, 64))
        y = F(rng.randint(0, 4000), rng.randint(1, 64))
        eta = F(rng.randint(1, 48), rng.randint(1, 16))
        assert ceil_ratio(x + y, eta) <= ceil_ratio(x, eta) + ceil_ratio(y, eta)


# --- criterion 4: subadditivity in both directions ------------------------------------


@criterion(4, "subadditive transforms preserve; violations break a 3-point space")
def test_criterion_4_subadditive():
    members = [
        Identity(),
        Power(1),
        ScaledCeil(F(1, 3)),
        Truncate(F(7, 4)),
        AffineCapped(F(1, 5), F(2)),
        RoundUpTo(tuple(F(k, 2) for k in range(7))),  # half-integer ceiling
        Sum((Truncate(1), AffineCapped(F(1, 8), F(3)))),
        Compose(Truncate(3), ScaledCeil(F(1, 2))),
    ]
    for f in members:
        assert f.is_subadditive()
    for seed in range(500):
        space = random_metric(seed % 5 + 2, 3, seed=seed)
        for f in members:
            assert validate_metric(transform_metric(space, f)).is_metric

    witnesses = [
        (Power(2), F(1), F(1)),
        (Power(2), F(1), F(2)),
        (Power(3), F(1, 2), F(1, 2)),
        (AffineCapped(F(-1, 2), F(1)), F(1), F(1)),
        (RoundUpTo((0, 1, 10)), F(1), F(1)),
        (Sum((Power(2), Power(2))), F(3), F(4)),
    ]
    for f, x, y in witnesses:
        assert f.apply(x + y) > f.apply(x) + f.apply(y)
        broken = subadditivity_counterexample(f, x, y)
        assert validate_metric(broken).is_metric
        assert not validate_metric(transform_metric(broken, f)).is_metric


# --- criterion 5: nebula families -----------------------------------------------------


@criterion(5, "cover families reconstruct value sets to resolution 2^-Q")
def test_criterion_5_families():
    rng = random.Random(55)
    big_q = 6
    for trial in range(100):
        svals = sorted({F(0), *random_fractions(rng, rng.randint(1, 199))})
        family = cover_family(svals, big_q)
        for q, member in enumerate(family):
            assert member.q == q
            assert validate_nebula(member).is_valid
            for s in svals:
                assert nebula_contains(member, s)
        meet = intersect(family)
        boxed = meet.restrict(0, big_q)
        inside = [s for s in svals if s <= big_q]
        assert point_set_hausdorff(boxed, inside) <= F(1, 2**big_q)
        for s in inside:
            assert boxed.contains(s)


# --- criterion 6: Frechet isometry ------------------------------------------------------


@criterion(6, "distance-vector embedding is an exact isometry")
def test_criterion_6_frechet():
    rng = random.Random(66)
    for _ in range(500):
        n = rng.randint(1, 7)
        space = random_cn_space(rng, n)
        rows = frechet_embed(space, n)
        for i in range(space.n):
            for j in range(space.n):
                if i == j:
                    continue
                assert linf_distance(rows[i], rows[j]) == space.dist[i][j]


# --- criterion 7: search oracle agreement --------------------------------------------------


@criterion(7, "embedding search agrees with brute force, NONE included")
def test_criterion_7_oracle():
    rng = random.Random(77)
    cases = 0
    nones = 0
    for trial in range(120):
        pattern = random_metric(rng.randint(2, 4), 4, seed=trial)
        host = random_metric(rng.randint(4, 8), 4, seed=5000 + trial)
        for distortion in (F(0), F(1, 8)):
            got = find_isometric_embedding(pattern, host, distortion)
            expect = brute_first_embedding(pattern, host, distortion)
            assert (got and got.mapping) == expect
            if got is None:
                nones += 1
            else:
                for a in range(pattern.n):
                    for b in range(pattern.n):
                        gap = abs(
                            host.dist[got.mapping[a]][got.mapping[b]]
                            - pattern.dist[a][b]
                        )
                        assert gap <= distortion
            cases += 1
        # restriction patterns are guaranteed hits: both sides must agree
        sub = host.restrict(sorted(rng.sample(range(host.n), 3)))
        got = find_isometric_embedding(sub, host)
        assert got is not None
        cases += 1
    assert cases >= 200
    assert nones >= 20


# --- criterion 8: fragility of pair-universal spaces -----------------------------------------


@criterion(8, "approximation expels the pair-universal space from dense range")
def test_criterion_8_fragility():
    values = [F(k, 8) for k in range(1, 33)]
    eps = F(1, 2)
    report = fragility_experiment(values, eps)
    assert report.sup_distance <= eps
    assert report.gap_length >= eps / 10
    assert F(0) <= report.gap_lo < report.gap_hi <= report.max_value
    after = report.approximation.D.values()
    for v in after:
        assert not (report.gap_lo < v < report.gap_hi)
    assert report.lost_values
    params = RangeParams(report.eta, report.r)
    for s in values:
        if range_membership(s, params) is None:
            assert s in report.lost_values
    for s in report.lost_values[:4]:
        pattern = FiniteMetricSpace.from_rows(
            "xy", [[F(0), s], [s, F(0)]]
        )
        assert find_isometric_embedding(pattern, report.approximation.D) is None


# --- criterion 9: CLI determinism --------------------------------------------------------------


@criterion(9, "CLI pipelines are byte-identical on rerun")
def test_criterion_9_determinism(tmp_path_factory=None):
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    def capture(base, name, argv, want=0):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        assert code == want, argv
        (base / name).write_text(buf.getvalue())

    def pipeline(base: "Path"):
        base.mkdir(parents=True, exist_ok=True)
        sp = base / "space.json"
        assert cli.main(["gen", "random", "--n", "6", "--seed", "11", "-o", str(sp)]) == 0
        capture(base, "validate.out", ["validate", str(sp)])
        approx = base / "approx.json"
        assert cli.main(
            ["approximate", str(sp), "--epsilon", "1/2", "-o", str(approx)]
        ) == 0
        vals = base / "values.json"
        space_obj = json.loads(sp.read_text())
        seen = sorted(
            {F(v) for row in space_obj["dist"] for v in row},
        )
        vals.write_text(json.dumps([str(v) for v in seen]))
        neb = base / "cover.json"
        assert cli.main(["nebula", "cover", str(vals), "--q", "2", "-o", str(neb)]) == 0
        capture(base, "check.out", ["nebula", "check", str(neb)])
        marg = base / "margin.json"
        assert cli.main(["nebula", "margin", str(sp), str(neb), "-o", str(marg)]) == 0
        pairs = base / "pairs.json"
        assert cli.main(
            ["universal", "pairs", "--values", "1/2,3,7/4", "-o", str(pairs)]
        ) == 0
        funiv = base / "funiv.json"
        assert cli.main(
            ["universal", "funiv", "--n", "1", "--delta", "1/2", "--copies", "2",
             "-o", str(funiv)]
        ) == 0
        frag = base / "fragility.json"
        assert cli.main(
            ["fragility", "--values", "1/8,1/4,3/8,1/2,5/8", "--epsilon", "1/2",
             "-o", str(frag)]
        ) == 0
        svg = base / "range.svg"
        assert cli.main(
            ["plot", "range", str(sp), "--nebula", str(neb), "-o", str(svg)]
        ) == 0
        pat = base / "pattern.json"
        pat.write_text(
            json.dumps(
                {"points": ["p", "q"], "dist": [["0", "1/2"], ["1/2", "0"]]}
            )
        )
        emb = base / "embedding.json"
        assert cli.main(
            ["embed", "search", str(pat), str(pairs), "-o", str(emb)]
        ) == 0
        return sorted(p.name for p in base.iterdir())

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        names_a = pipeline(root / "a")
        names_b = pipeline(root / "b")
        assert names_a == names_b
        for name in names_a:
            fa, fb = root / "a" / name, root / "b" / name
            assert fa.read_bytes() == fb.read_bytes(), name
            assert filecmp.cmp(fa, fb, shallow=False)
