"""Every refused input gets its exact message: one table per module."""

import json
from fractions import Fraction as F

import pytest

from metric_forge import (
    AffineCapped,
    Compose,
    FiniteMetricSpace,
    Identity,
    Nebula,
    PartitionPlan,
    Power,
    RangeParams,
    RoundUpTo,
    Sum,
    UnsupportedTransformError,
    amalgamate,
    build_funiv_approx,
    build_pair_universal,
    class_Cn_check,
    cli,
    cover,
    cover_family,
    extend_metric,
    find_isometric_embedding,
    fragility_experiment,
    jsonio,
    make_net,
    margin,
    nebula_contains,
    pullback_universal,
    random_metric,
    range_density_gap,
    range_membership,
    subadditivity_counterexample,
    validate_nebula,
)
from metric_forge.nebula import MAX_Q


def space(labels, rows):
    return FiniteMetricSpace.from_rows(labels, [[F(v) for v in r] for r in rows])


PAIR = space("ab", [[0, 1], [1, 0]])
SINGLE = space("c", [[0]])
HUB = space("ac", [[0, 2], [2, 0]])
EQUILATERAL = space("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def glue(clusters=((0, 1), (2,)), reps=(0, 2), metrics=(PAIR, SINGLE), hub=HUB):
    return amalgamate(PartitionPlan(clusters, reps, F(1)), list(metrics), hub)


def refused(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message


CORE = [
    (lambda: FiniteMetricSpace.from_rows([], []), "a space needs at least one point"),
    (lambda: space("aa", [[0, 1], [1, 0]]), "point labels must be distinct"),
    (lambda: space("ab", [[0, 1]]), "shape error: 1 rows for 2 points"),
    (lambda: space("ab", [[0, 1], [1]]), "shape error: distance matrix must be square"),
    (lambda: glue(metrics=[PAIR]), "one cluster metric per cluster required"),
    (lambda: glue(hub=EQUILATERAL), "hub must have one point per cluster"),
    (lambda: glue(((0, 1), (3,)), (0, 3)), "clusters must partition the point indices"),
    (lambda: glue(((0,), (1, 2)), (0, 1)), "cluster metric 0 has the wrong size"),
    (lambda: glue(reps=(2, 2)), "representative of cluster 0 is not a member"),
    (
        lambda: glue(hub=space("bc", [[0, 2], [2, 0]])),
        "hub label 0 does not match its representative",
    ),
    (lambda: extend_metric(PAIR, ["a", "b", "a"]), "point labels must be distinct"),
    (lambda: random_metric(3, 0), "max_value must be positive"),
    (lambda: random_metric(3, F(-1, 2)), "max_value must be positive"),
]


@pytest.mark.parametrize("call, message", CORE)
def test_core_input_checks(call, message):
    refused(call, ValueError, message)


SHAPES = [
    # the constructor checks the shape too: short rows used to end in an
    # IndexError, and a 2 x 2 matrix under 3 labels passed as a metric
    (
        lambda: FiniteMetricSpace("ab", ((F(0),), (F(1),))),
        "shape error: distance matrix must be square",
    ),
    (
        lambda: FiniteMetricSpace("abc", ((F(0), F(1)), (F(1), F(0)))),
        "shape error: 2 rows for 3 points",
    ),
    # from_rows checks the shape before any entry
    (
        lambda: FiniteMetricSpace.from_rows("ab", [[0, 0.5]]),
        "shape error: 1 rows for 2 points",
    ),
]


@pytest.mark.parametrize(
    "call, message", SHAPES, ids=["short-rows", "missing-row", "shape-before-entry"]
)
def test_space_shape_checks(call, message):
    refused(call, ValueError, message)


ENTRY_TYPES = [
    # the constructor refuses what as_scalar refuses: a float used to end in
    # an AttributeError, and bools passed as a metric (even an ultrametric)
    (lambda: FiniteMetricSpace("ab", ((0, 1.5), (1.5, 0))), "float"),
    (lambda: FiniteMetricSpace("ab", ((False, True), (True, False))), "bool"),
    (lambda: FiniteMetricSpace("ab", ((F(0), F(1)), (True, F(0)))), "bool"),
    (lambda: FiniteMetricSpace.from_rows("ab", [[0, 1.5], [1.5, 0]]), "float"),
    (lambda: FiniteMetricSpace.from_rows("ab", [[False, True], [True, False]]), "bool"),
]


@pytest.mark.parametrize(
    "call, name",
    ENTRY_TYPES,
    ids=["init-float", "init-bools", "init-one-bool", "rows-float", "rows-bools"],
)
def test_space_entry_types(call, name):
    refused(call, TypeError, f"expected an exact rational, got {name}")


NO_ZERO = "value set must contain 0 and stay nonnegative"
NOT_PARTS = "sum parts must be family members"

QUANTIZE = [
    (lambda: RoundUpTo(()), ValueError, NO_ZERO),
    (lambda: RoundUpTo((1, 2)), ValueError, NO_ZERO),
    (lambda: RoundUpTo((0,)), ValueError, "value set needs a positive member"),
    (lambda: AffineCapped(-1, 1), ValueError, "alpha must exceed -1 to stay increasing"),
    (lambda: AffineCapped(0, 0), ValueError, "cap must be positive"),
    (lambda: Sum(()), UnsupportedTransformError, NOT_PARTS),
    (lambda: Sum((Identity(), 1)), UnsupportedTransformError, NOT_PARTS),
    (
        lambda: Compose(Identity(), abs),
        UnsupportedTransformError,
        "compose parts must be family members",
    ),
    (
        lambda: subadditivity_counterexample(abs, 1, 1),
        UnsupportedTransformError,
        "transform must come from the closed descriptor family",
    ),
    (
        lambda: subadditivity_counterexample(Power(2), 0, 1),
        ValueError,
        "witness values must be positive",
    ),
    (
        lambda: subadditivity_counterexample(Identity(), 1, F(1, 2)),
        ValueError,
        "no subadditivity violation at (1, 1/2)",
    ),
    (
        lambda: range_membership(-1, RangeParams(1, F(1, 2))),
        ValueError,
        "t must be nonnegative",
    ),
]


@pytest.mark.parametrize("call, exc, message", QUANTIZE)
def test_quantize_input_checks(call, exc, message):
    refused(call, exc, message)


VALID_NEBULA = Nebula(1, [(0, 0)], 2)

NEBULA = [
    (lambda: nebula_contains(VALID_NEBULA, -1), "values live in [0, oo)"),
    (lambda: cover([0, 1], -1), "q must be a nonnegative integer"),
    (lambda: cover_family([0, 1], -1), "q_max must be nonnegative"),
    (
        lambda: margin(PAIR, Nebula(1, [(0, 0), (1, 1)], 1)),
        "margin needs a valid nebula: ('tail not in (1, oo): starts at 1',"
        " 'tail overlaps the last bounded interval')",
    ),
    (lambda: cover([0, 1], MAX_Q + 1), "q must be at most 12900"),
    (lambda: cover([0, 1], 10**12), "q must be at most 12900"),
    (lambda: cover_family([0, 1], MAX_Q + 1), "q must be at most 12900"),
    (
        lambda: margin(PAIR, Nebula(10**12, [(0, 0), (1, 1)], 10**12 + 1)),
        "margin needs a valid nebula: ('q must be at most 12900',)",
    ),
]


@pytest.mark.parametrize("call, message", NEBULA)
def test_nebula_input_checks(call, message):
    refused(call, ValueError, message)


@pytest.mark.parametrize(
    "q, bounded, tail, problems",
    [
        (-1, [(0, 0)], 1, ("q must be a nonnegative integer",)),
        (0, [], 1, ("no bounded interval contains 0",)),
        (
            0,
            [(0, 0), (F(1, 2), F(1, 4))],
            2,
            ("interval [1/2, 1/4] is not a closed interval",),
        ),
        (
            0,
            [(F(-1, 4), 0)],
            2,
            ("first interval must start at 0", "interval [-1/4, 0] leaves [0, oo)"),
        ),
        (
            1,
            [(0, 0), (F(3, 2), F(3, 2))],
            F(5, 4),
            ("tail overlaps the last bounded interval",),
        ),
        (MAX_Q + 1, [(0, 0)], MAX_Q + 2, ("q must be at most 12900",)),
        (10**12, [(0, 0)], 1, ("q must be at most 12900",)),
    ],
)
def test_validate_nebula_problems(q, bounded, tail, problems):
    check = validate_nebula(Nebula(q, bounded, tail))
    assert not check.is_valid
    assert check.violations == problems


IDENTITY = {"a": "a", "b": "b"}

UNIVERSAL = [
    (lambda: class_Cn_check(PAIR, 0), "class parameter must be at least 1"),
    (lambda: pullback_universal(PAIR, PAIR, IDENTITY, 0), "r must be positive"),
    (lambda: pullback_universal(PAIR, PAIR, {"a": "a"}, 1), "map is not total: ['b']"),
    (
        lambda: pullback_universal(PAIR, PAIR, {"a": "a", "b": "a"}, 1),
        "map must be onto the target points",
    ),
    (lambda: build_pair_universal([]), "need at least one pair value"),
    (lambda: build_pair_universal([F(1, 2), 0]), "pair values must be positive"),
    (lambda: build_pair_universal([1, 1]), "pair values must be distinct"),
    (lambda: make_net(0, 1), "n must be at least 1"),
    (lambda: make_net(1, 0), "delta must be positive"),
    (lambda: make_net(1, F(1, 3)), "delta must equal n / 2^t for some t >= 0"),
    (lambda: build_funiv_approx(1, F(1, 2), copies=0), "need at least one copy"),
    (lambda: find_isometric_embedding(PAIR, PAIR, -1), "distortion must be nonnegative"),
    (lambda: range_density_gap(PAIR, 0), "T must be positive"),
    (lambda: fragility_experiment([1], 0), "epsilon must be positive"),
]


@pytest.mark.parametrize("call, message", UNIVERSAL)
def test_universal_input_checks(call, message):
    refused(call, ValueError, message)


NO_KEYS = "space JSON needs 'points' and 'dist'"

JSONIO = [
    (lambda: jsonio.parse_scalar(-3), "negative value: -3"),
    (lambda: jsonio.space_from_obj([]), NO_KEYS),
    (lambda: jsonio.space_from_obj({"points": ["a"]}), NO_KEYS),
    (lambda: jsonio.space_from_obj({"dist": [["0"]]}), NO_KEYS),
]


@pytest.mark.parametrize("call, message", JSONIO)
def test_jsonio_input_checks(call, message):
    refused(call, ValueError, message)


@pytest.mark.parametrize("values", [{"a": "1"}, "1", 1])
def test_nebula_cover_refuses_values_that_are_not_an_array(tmp_path, capsys, values):
    path = tmp_path / "values.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    code = cli.main(["nebula", "cover", str(path), "--q", "1"])
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err == "error: values file must hold a JSON array of rationals\n"
