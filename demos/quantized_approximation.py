#!/usr/bin/env python3
"""Walkthrough: pushing a metric onto a certified totally-gapped range.

Builds a random 8-point metric, approximates it within epsilon = 1/2, and
shows that every output distance is an exact sum eta*(l + r^n + r^m) with
a machine-checkable certificate, while no distance moved more than epsilon.
"""

from fractions import Fraction as F

from metric_forge import (
    FiniteMetricSpace,
    RangeParams,
    approximate,
    random_metric,
    range_membership,
    sup_distance,
    validate_metric,
)


def main():
    space = random_metric(8, 10, seed=7)
    eps = F(1, 2)
    print(f"random metric on {space.n} points, values up to {space.max_value()}")
    print(f"approximating within epsilon = {eps}\n")

    result = approximate(space, eps)
    print(f"eta = {result.eta}, level ratio r = {result.r}")
    print(f"clusters: {[list(c) for c in result.plan.clusters]}")
    print(f"sup distance moved: {sup_distance(space, result.D)} (<= {eps})")
    print(f"output is a metric: {validate_metric(result.D).is_metric}\n")

    params = RangeParams(result.eta, result.r)
    print("pair  before      after       certificate eta*(l + r^n + r^m)")
    for i, j, cert in result.certificates[:10]:
        assert cert.value(params) == result.D.dist[i][j]
        print(
            f"({i},{j})  {str(space.dist[i][j]):>8}  {str(result.D.dist[i][j]):>8}"
            f"    l={cert.l} n={cert.n} m={cert.m}"
        )
    print("...")

    print("\nindependent membership check over the whole output range:")
    for value in result.D.values():
        found = range_membership(value, params)
        assert found is not None and found.value(params) == value
    print(f"all {len(result.D.values())} distinct values confirmed in range")

    before = len(space.values())
    after = len(result.D.values())
    print(f"\ndistinct values: {before} before -> {after} after quantization")

    # points closer than the ball radius share a cluster: their distance is
    # rounded onto a geometric level eta * r^n instead of the integer grid
    tight = FiniteMetricSpace.from_rows(
        ["a", "b", "c"],
        [[0, F(1, 100), 5], [F(1, 100), 0, 5], [5, 5, 0]],
    )
    res = approximate(tight, 5)
    cert = res.certificate(0, 1)
    print(
        f"\ntight pair d(a,b) = 1/100 with epsilon 5: rounded to "
        f"{res.D.dist[0][1]} = eta * r^{cert.n}   (l={cert.l}, m={cert.m})"
    )


if __name__ == "__main__":
    main()
