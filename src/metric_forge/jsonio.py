"""JSON codecs: rationals ride the wire as "p/q" or integer strings.

Readers are strict: decimals, negatives, non-integer counts and indices,
and asymmetric distance matrices are rejected at parse time so exactness
survives round-trips.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import FiniteMetricSpace, PartitionPlan, ValidationReport, _as_int
from .nebula import Nebula, NebulaValidation
from .quantize import ApproximationResult, RangeCertificate
from .universal import Embedding, FragilityReport

# ASCII digits only, matched against the whole string (no trailing newline)
_SCALAR_RE = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def parse_scalar(text) -> Fraction:
    """Parse a nonnegative rational written as "p/q" or an integer string."""
    if isinstance(text, int) and not isinstance(text, bool):
        if text < 0:
            raise ValueError(f"negative value: {text}")
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    m = _SCALAR_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed rational {text!r} (want \"p/q\" or \"n\")")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def scalar_str(value: Fraction) -> str:
    return str(value)


# --- distance matrices ------------------------------------------------------


def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[scalar_str(v) for v in row] for row in space.dist],
    }


def space_from_obj(obj) -> FiniteMetricSpace:
    """Strict reader for a space; equal entry strings share one Fraction.

    Each distinct string is parsed once per call.  Other entries go through
    ``parse_scalar`` one by one, so bools and floats are still rejected.
    """
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError("space JSON needs 'points' and 'dist'")
    points, dist = obj["points"], obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("space JSON 'points' must be an array of strings")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise ValueError("space JSON 'dist' must be an array of arrays")
    parsed: dict[str, Fraction] = {}

    def parse(v) -> Fraction:
        if not isinstance(v, str):
            return parse_scalar(v)
        if v not in parsed:
            parsed[v] = parse_scalar(v)
        return parsed[v]

    rows = [[parse(v) for v in row] for row in dist]
    space = FiniteMetricSpace.from_rows(points, rows)
    # a row equals its column unless some pair (i, j) differs; the first row
    # that differs has its first difference at some j > i
    for i, (row, col) in enumerate(zip(space.dist, zip(*space.dist))):
        if row != col:
            j = next(j for j in range(i + 1, space.n) if row[j] != col[j])
            raise ValueError(f"matrix not symmetric at ({points[i]}, {points[j]})")
    return space


def validation_to_obj(report: ValidationReport) -> dict:
    return {
        "is_metric": report.is_metric,
        "is_ultrametric": report.is_ultrametric,
        "violations": [
            {
                "kind": v.kind,
                "witness": list(v.witness),
                "lhs": scalar_str(v.lhs),
                "rhs": scalar_str(v.rhs),
            }
            for v in report.violations
        ],
    }


# --- plans, certificates, approximation results -----------------------------


def plan_to_obj(plan: PartitionPlan) -> dict:
    return {
        "clusters": [list(c) for c in plan.clusters],
        "reps": list(plan.reps),
        "radius": scalar_str(plan.radius),
    }


def plan_from_obj(obj) -> PartitionPlan:
    return PartitionPlan(
        clusters=tuple(
            tuple(_as_int(i, "cluster index") for i in c) for c in obj["clusters"]
        ),
        reps=tuple(_as_int(i, "representative index") for i in obj["reps"]),
        radius=parse_scalar(obj["radius"]),
    )


def certificate_to_obj(i: int, j: int, cert: RangeCertificate) -> dict:
    return {"i": i, "j": j, "l": cert.l, "n": cert.n, "m": cert.m}


def approximation_to_obj(result: ApproximationResult) -> dict:
    return {
        "eta": scalar_str(result.eta),
        "r": scalar_str(result.r),
        "plan": plan_to_obj(result.plan),
        "certificates": [
            certificate_to_obj(i, j, cert) for i, j, cert in result.certificates
        ],
        "D": space_to_obj(result.D),
    }


# --- nebulae ----------------------------------------------------------------


def nebula_to_obj(nebula: Nebula) -> dict:
    return {
        "q": nebula.q,
        "bounded": [[scalar_str(a), scalar_str(b)] for a, b in nebula.bounded],
        "tail_start": scalar_str(nebula.tail_start),
    }


def nebula_from_obj(obj) -> Nebula:
    if not isinstance(obj, dict) or not {"q", "bounded", "tail_start"} <= obj.keys():
        raise ValueError("nebula JSON needs 'q', 'bounded' and 'tail_start'")
    bounded = obj["bounded"]
    if not isinstance(bounded, list) or any(
        not isinstance(item, list) or len(item) != 2 for item in bounded
    ):
        raise ValueError("nebula JSON 'bounded' must be an array of [lo, hi] arrays")
    return Nebula.make(
        obj["q"],
        [(parse_scalar(a), parse_scalar(b)) for a, b in bounded],
        parse_scalar(obj["tail_start"]),
    )


def nebula_validation_to_obj(check: NebulaValidation) -> dict:
    return {"valid": check.is_valid, "violations": list(check.violations)}


# --- embeddings and reports -------------------------------------------------


def embedding_to_obj(
    embedding: Embedding, pattern: FiniteMetricSpace, host: FiniteMetricSpace
) -> dict:
    return {
        "exact": embedding.exact,
        "map": {
            pattern.points[i]: host.points[h]
            for i, h in enumerate(embedding.mapping)
        },
    }


def fragility_to_obj(report: FragilityReport) -> dict:
    return {
        "values": [scalar_str(v) for v in report.values],
        "epsilon": scalar_str(report.epsilon),
        "eta": scalar_str(report.eta),
        "r": scalar_str(report.r),
        "sup_distance": scalar_str(report.sup_distance),
        "max_value": scalar_str(report.max_value),
        "missed_interval": {
            "lo": scalar_str(report.gap_lo),
            "hi": scalar_str(report.gap_hi),
            "length": scalar_str(report.gap_length),
        },
        "lost_values": [scalar_str(v) for v in report.lost_values],
        "kept_values": [scalar_str(v) for v in report.kept_values],
        "D": space_to_obj(report.approximation.D),
    }
