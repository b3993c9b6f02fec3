"""``transform_metric`` and the ``dist`` view, differentially and metamorphically.

The differential half runs ``transform_metric`` against
``support.reference_transform_metric``, the per-entry map it replaced, on
every family member and on int64, object-path, coprime-denominator,
non-metric and one-point inputs: the same points, ``scaled`` values,
dtype and denominator, or the same exception type.  The metamorphic half
needs no oracle, so it runs at n = 512, past the brute oracles' reach: a
seeded permutation P commutes with each rewritten map.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from metric_forge import (
    AffineCapped,
    Compose,
    FiniteMetricSpace,
    Identity,
    Power,
    RoundUpTo,
    ScaledCeil,
    Sum,
    Transform,
    Truncate,
    quantize_discrete,
    random_metric,
    transform_metric,
)

from support import grid_space, reference_transform_metric

FAMILY = {
    "identity": Identity(),
    "power-1": Power(1),
    "power-2": Power(2),
    "power-3": Power(3),
    "scaled-ceil": ScaledCeil(F(1, 3)),
    "truncate": Truncate(F(5, 2)),
    # a top of 7 that some inputs pass, and one above every input
    "round-up": RoundUpTo((0, F(1, 2), 2, 7)),
    "round-up-wide": RoundUpTo((0, 1, F(7, 2), 2**70)),
    "affine-negative": AffineCapped(F(-1, 2), 3),
    "affine-positive": AffineCapped(F(3, 4), F(5, 2)),
    "sum": Sum((Truncate(2), ScaledCeil(F(1, 2)), Power(2))),
    "compose": Compose(Truncate(3), ScaledCeil(F(1, 2))),
}


INPUTS = {
    "int64": random_metric(7, 10, seed=3),
    "object": grid_space(5, lambda k: 2**62 + k),
    "object-fractions": grid_space(5, lambda k: F(2**64 + k, 3)),
    "coprime": grid_space(6, lambda k: 1 + F(1, [2, 3, 5, 7, 11][k - 1])),
    # not metrics: asymmetric with a nonzero diagonal, and negative entries
    "asymmetric": FiniteMetricSpace.from_rows(
        "abc", [[F(1, 2), 3, 1], [2, 0, F(9, 4)], [1, 5, 7]]
    ),
    "negative": FiniteMetricSpace.from_rows(
        "abc", [[0, -1, 2], [3, 0, -F(1, 3)], [2, 1, 0]]
    ),
    "one-point": FiniteMetricSpace.from_rows("a", [[0]]),
    "one-point-nonzero-diagonal": FiniteMetricSpace.from_rows("a", [[F(5, 2)]]),
}


def test_inputs_reach_each_case():
    assert INPUTS["int64"].scaled[0].dtype == np.int64
    wide = INPUTS["object"].scaled[0]
    assert wide.dtype == object and int(wide.max()) >= 2**62
    assert INPUTS["object-fractions"].scaled[1] == 3
    assert INPUTS["coprime"].scaled[1] == 2 * 3 * 5 * 7 * 11
    assert any(v < 0 for row in INPUTS["negative"].dist for v in row)
    assert INPUTS["asymmetric"].dist[0][1] != INPUTS["asymmetric"].dist[1][0]


def same_or_same_error(space, f, run=transform_metric):
    """``run(space, f)`` gives the oracle's space, or raises its exception type."""
    try:
        want = reference_transform_metric(space, f)
    except Exception as err:
        with pytest.raises(type(err)):
            run(space, f)
        return
    got = run(space, f)
    (arr, denom), (ref, ref_denom) = got.scaled, want.scaled
    assert got.points == want.points
    assert denom == ref_denom and arr.dtype == ref.dtype
    assert arr.tolist() == ref.tolist()
    assert got.levels == want.levels and got.dist == want.dist


@pytest.mark.parametrize("f", list(FAMILY.values()), ids=list(FAMILY))
@pytest.mark.parametrize("name", list(INPUTS))
def test_transform_metric_matches_the_per_entry_map(name, f):
    same_or_same_error(INPUTS[name], f)


entries = st.one_of(
    st.fractions(min_value=-2, max_value=20, max_denominator=12),
    st.builds(F, st.integers(2**62, 2**90), st.integers(1, 5)),
)


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    return FiniteMetricSpace.from_rows([f"p{i}" for i in range(n)], rows)


@given(matrices(), st.sampled_from(list(FAMILY.values())))
def test_transform_metric_matches_the_per_entry_map_on_any_matrix(space, f):
    same_or_same_error(space, f)


class Floating(Transform):
    """Not a family member's contract: it returns a float."""

    def apply(self, s):
        return float(s)


def test_a_float_image_is_refused():
    space = random_metric(4, 10)
    with pytest.raises(TypeError):
        reference_transform_metric(space, Floating())
    with pytest.raises(TypeError, match="got float"):
        transform_metric(space, Floating())


def test_a_refusal_names_the_least_value_refused():
    # row-major, 9 comes first; in increasing order 8 is refused first
    space = FiniteMetricSpace.from_rows("abc", [[0, 9, 8], [9, 0, 1], [8, 1, 0]])
    with pytest.raises(ValueError, match="^8 is above the top"):
        transform_metric(space, RoundUpTo((0, 1, 7)))


@pytest.mark.parametrize("name", list(INPUTS))
def test_quantize_discrete_is_the_scaled_ceil_transform(name):
    def run(space, f):
        return quantize_discrete(space, f.eta)

    same_or_same_error(INPUTS[name], ScaledCeil(F(2, 3)), run)


# --- metamorphic relations at n = 512 -----------------------------------------

N = 512
PERM = np.random.default_rng(512).permutation(N).tolist()


@pytest.fixture(scope="module", params=["int64", "object"])
def big(request):
    """``random_metric(512, 10)``, on int64, or at 10^25 / 7, on Python ints."""
    space = random_metric(N, 10 if request.param == "int64" else F(10**25, 7))
    assert space.scaled[0].dtype == (np.int64 if request.param == "int64" else object)
    return space


def test_transforms_commute_with_a_permutation(big):
    values = big.values()
    for f in (
        Truncate(values[len(values) // 2]),
        ScaledCeil(big.max_value() / 7),
        AffineCapped(F(-1, 3), values[2]),
        RoundUpTo((0, *values[1::2], big.max_value() + 1)),
    ):
        got = transform_metric(big.restrict(PERM), f)
        want = transform_metric(big, f).restrict(PERM)
        assert got == want and got.scaled[0].dtype == want.scaled[0].dtype


def test_quantize_discrete_commutes_with_restriction(big):
    subset = PERM[: N // 3]
    eta = big.max_value() / 11
    assert quantize_discrete(big.restrict(subset), eta) == quantize_discrete(
        big, eta
    ).restrict(subset)


def test_dist_of_a_permuted_space_is_the_permuted_dist(big):
    rows = big.dist
    assert big.restrict(PERM).dist == tuple(
        tuple(rows[i][j] for j in PERM) for i in PERM
    )
