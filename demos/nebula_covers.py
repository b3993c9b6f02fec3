#!/usr/bin/env python3
"""Walkthrough: interval covers of a metric's range and the stability margin.

A q-nebula is a finite union of closed intervals of width below 2^-q plus
one unbounded tail past q.  Covering the range of a metric at every
resolution q shows the range is trapped in ever-thinner islands; the
margin computation then gives an explicit radius inside which any
perturbed metric keeps all its values in a slightly fattened cover.
"""

from fractions import Fraction as F

from metric_forge import (
    AffineCapped,
    cover,
    cover_family,
    intersect,
    margin,
    nebula_contains,
    random_metric,
    sup_distance,
    transform_metric,
    validate_nebula,
)


def show(nebula):
    ivs = " ".join(f"[{a},{b}]" for a, b in nebula.bounded)
    return f"{ivs} + [{nebula.tail_start},oo)"


def main():
    space = random_metric(6, 3, seed=5)
    values = space.values()
    print(f"metric range: {[str(v) for v in values]}\n")

    for q in (0, 2, 4):
        neb = cover(values, q)
        assert validate_nebula(neb).is_valid
        print(f"q={q} cover: {show(neb)}")

    print("\nintersecting covers for q = 0..6 recovers the range:")
    family = cover_family(values, 6)
    meet = intersect(family)
    boxed = meet.restrict(0, 6)
    print(f"intersection within [0,6]: {' '.join(f'[{a},{b}]' for a, b in boxed.bounded)}")
    print(f"components near 0 are shorter than 2^-6 = 1/64: "
          f"{boxed.largest_length_below(1) < F(1, 64)}")

    print("\nstability: perturbations inside the margin stay covered")
    neb = cover(values, 3)
    got = margin(space, neb)
    print(f"margin epsilon = {got.epsilon}")
    wiggle = AffineCapped(got.epsilon / (2 * space.max_value()), space.max_value())
    perturbed = transform_metric(space, wiggle)
    moved = sup_distance(space, perturbed)
    print(f"perturbed by {moved} (< {got.epsilon})")
    ok = all(nebula_contains(got.fattened, v) for v in perturbed.values())
    print(f"every perturbed value inside the fattened cover: {ok}")


if __name__ == "__main__":
    main()
