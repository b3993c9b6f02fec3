"""JSON codecs: rationals ride the wire as "p/q" or integer strings.

Readers are strict: decimals, negatives, non-integer counts and indices,
and asymmetric distance matrices are rejected at parse time so exactness
survives round-trips.

Every output goes through one encoder, ``encode``.  It writes what the
stdlib encoder writes with ``indent=2`` and ``sort_keys=True``, plus a
trailing newline, and a ``Fraction`` as its quoted string.  The
``*_chunks`` writers hand it plain dicts; their three large arrays are
callables that encode each repeated part once.  The distance rows quote
each distinct value once.  The certificates are written from the result's
index array, each distinct tail encoded and each point index written
once, so no ``(i, j, cert)`` tuple is built.  The violations are written
from the report's integer table, each distinct side quoted and each point
index written once, so no ``Violation`` is built.  The ``*_to_obj``
builders stay: they are the oracle the writers are tested against, and
the names the benchmark's traced run binds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote
from math import lcm

import numpy as np

from .core import FiniteMetricSpace, PartitionPlan, ValidationReport, _as_int
from .core import _check_shape, _from_int_matrix, _int_matrix
from .nebula import Nebula, NebulaValidation
from .quantize import ApproximationResult, RangeCertificate
from .universal import Embedding, FragilityReport, FUnivApprox

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
    """Strict reader for a space, built as one scaled-integer matrix.

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
    parsed: dict = {}
    for row in dist:
        for v in row:
            # a string is parsed once, anything else each time, so that a
            # bool never passes as the integer it equals
            if not isinstance(v, str) or v not in parsed:
                parsed[v] = parse_scalar(v)
    _check_shape(tuple(points), dist)
    denom = lcm(*(v.denominator for v in parsed.values()))
    scale = {k: v.numerator * (denom // v.denominator) for k, v in parsed.items()}
    arr = _int_matrix(dist, lambda row: list(map(scale.__getitem__, row)))
    asym = np.triu(arr != arr.T, 1)
    if asym.any():  # the first pair in row-major order
        i, j = np.argwhere(asym)[0].tolist()
        raise ValueError(f"matrix not symmetric at ({points[i]}, {points[j]})")
    return _from_int_matrix(points, arr, denom)


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


def funiv_to_obj(result: FUnivApprox) -> dict:
    return {
        "space": space_to_obj(result.space),
        "net_points": [[scalar_str(c) for c in p] for p in result.net.points],
        "copies": result.copies,
    }


# --- the encoder ---------------------------------------------------------------
#
# A value at depth k has its members on lines indented by k + 1 steps.  A
# callable value is a large array: called with the newline that starts an
# item's line, it returns its chunks, each item led by "," and that newline,
# and it encodes its repeated parts once.


def encode(obj) -> list[str]:
    """Chunks of ``obj`` as indented, key-sorted JSON plus a trailing newline.

    They join to what the stdlib encoder writes with ``indent=2`` and
    ``sort_keys=True``; a ``Fraction`` is written as its quoted string.
    """
    out: list[str] = []
    _encode(obj, 0, out)
    out.append("\n")
    return out


def _encode(value, level: int, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, Fraction):
        out.append(f'"{value}"')
    else:
        first, nl = len(out), "\n" + "  " * (level + 1)
        brackets = "{}" if isinstance(value, dict) else "[]"
        if isinstance(value, dict):
            for key in sorted(value):
                out.append(f",{nl}{_quote(key)}: ")
                _encode(value[key], level + 1, out)
        elif isinstance(value, (list, tuple)):
            sep = "," + nl
            for item in value:
                out.append(sep)
                _encode(item, level + 1, out)
        elif callable(value):
            out += value(nl)
        else:
            raise TypeError(f"cannot encode {type(value).__name__}")
        if len(out) == first:
            out.append(brackets)
        else:  # the first member's comma opens the container
            out[first] = brackets[0] + out[first][1:]
            out.append(nl[:-2] + brackets[1])


def _space(space: FiniteMetricSpace) -> dict:
    return {"points": space.points, "dist": partial(_dist, space)}


def _dist(space: FiniteMetricSpace, nl: str) -> list[str]:
    """One chunk per row; each distinct value is quoted once."""
    arr, denom = space.scaled
    rows = arr.tolist()
    cells = {v: f'"{Fraction(v, denom)}"' for v in set().union(*rows)}
    cell = nl + "  "
    sep = "," + cell
    return [f",{nl}[{cell}{sep.join(map(cells.__getitem__, row))}{nl}]" for row in rows]


def _certificates(result: ApproximationResult, nl: str) -> list[str]:
    """One chunk per pair i < j, read from the result's index array.

    Each distinct certificate's "l"/"m"/"n" tail is encoded once and each
    point index written once; each row is the ``"".join`` of its head, its
    second index and its tail, so no ``(i, j, cert)`` tuple is built.
    """
    rows, index = result.table
    inner = nl + "  "
    tails = [
        f',{inner}"l": {c.l},{inner}"m": {"null" if c.m is None else c.m}'
        f',{inner}"n": {"null" if c.n is None else c.n}{nl}}}'
        for c in rows
    ]
    n = result.D.n
    heads = [f',{nl}{{{inner}"i": {i},{inner}"j": ' for i in range(n)]
    names = list(map(str, range(n)))
    iu, ju = np.triu_indices(n, 1)
    pieces = (
        map(heads.__getitem__, iu.tolist()),
        map(names.__getitem__, ju.tolist()),
        map(tails.__getitem__, index.tolist()),
    )
    return list(map("".join, zip(*pieces)))


def _violations(blocks, denom: int, nl: str) -> list[str]:
    """One chunk per row of the report's integer blocks, from cached pieces.

    One ``np.unique`` over every side quotes each distinct side once, as
    ``_dist`` does; each point index is written once; each row is the
    ``"".join`` of its kind's fixed text, its two quoted sides and its
    joined witness.
    """
    if not blocks:
        return []
    inner, deep = nl + "  ", nl + "    "
    values, at = np.unique(
        np.concatenate([side for *_, lhs, rhs in blocks for side in (lhs, rhs)]),
        return_inverse=True,
    )
    cells = np.array([f'"{Fraction(v, denom)}"' for v in values.tolist()], dtype=object)
    quoted = cells[at].tolist()
    names = list(map(str, range(1 + max(int(w.max()) for _, w, *_ in blocks))))
    mid, wit = f',{inner}"rhs": ', f',{inner}"witness": [{deep}'
    tail = f"{inner}]{nl}}}"
    out: list[str] = []
    sep, start = "," + deep, 0
    for kind, witness, *_ in blocks:
        m = len(witness)
        lhs, rhs = quoted[start : start + m], quoted[start + m : start + 2 * m]
        start += 2 * m
        head = f',{nl}{{{inner}"kind": {_quote(kind)},{inner}"lhs": '
        cols = [map(names.__getitem__, col) for col in witness.T.tolist()]
        points = map(sep.join, zip(*cols))
        pieces = repeat(head), lhs, repeat(mid), rhs, repeat(wit), points, repeat(tail)
        out += map("".join, zip(*pieces))
    return out


def space_chunks(space: FiniteMetricSpace) -> list[str]:
    return encode(_space(space))


def validation_chunks(report: ValidationReport) -> list[str]:
    return encode(
        {
            "is_metric": report.is_metric,
            "is_ultrametric": report.is_ultrametric,
            "violations": partial(_violations, *report.table),
        }
    )


def approximation_chunks(result: ApproximationResult) -> list[str]:
    plan = result.plan
    return encode(
        {
            "eta": result.eta,
            "r": result.r,
            "plan": {
                "clusters": plan.clusters,
                "reps": plan.reps,
                "radius": plan.radius,
            },
            "certificates": partial(_certificates, result),
            "D": _space(result.D),
        }
    )


def funiv_chunks(result: FUnivApprox) -> list[str]:
    return encode(
        {
            "space": _space(result.space),
            "net_points": result.net.points,
            "copies": result.copies,
        }
    )


def fragility_chunks(report: FragilityReport) -> list[str]:
    return encode(
        {
            "values": report.values,
            "epsilon": report.epsilon,
            "eta": report.eta,
            "r": report.r,
            "sup_distance": report.sup_distance,
            "max_value": report.max_value,
            "missed_interval": {
                "lo": report.gap_lo,
                "hi": report.gap_hi,
                "length": report.gap_length,
            },
            "lost_values": report.lost_values,
            "kept_values": report.kept_values,
            "D": _space(report.approximation.D),
        }
    )
