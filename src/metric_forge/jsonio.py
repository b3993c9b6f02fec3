"""JSON codecs: rationals ride the wire as "p/q" or integer strings.

Readers are strict: decimals, negatives, non-integer counts and indices,
and asymmetric distance matrices are rejected at parse time so exactness
survives round-trips.

The large outputs are encoded directly: ``space_chunks``,
``approximation_chunks``, ``validation_chunks``, ``funiv_chunks`` and
``fragility_chunks`` each return a list of strings that joins to exactly
``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` of the matching
``*_to_obj`` builder, without building ``obj``.  The builders stay: they are the oracle the writers are
tested against, and the names the benchmark's traced run binds.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


# --- direct writers -----------------------------------------------------------
#
# A value at depth k has its inner lines indented by k + 1 steps.  Chunks are
# written in order; an encoded member value is a string or a list of chunks.
# Members are listed as the builders list them and sorted on the way out,
# as json.dumps(sort_keys=True) does.

_NL = tuple("\n" + "  " * k for k in range(8))


def _scalar(value: Fraction) -> str:
    return f'"{scalar_str(value)}"'


def _array(items: list[str], level: int) -> str:
    """A JSON array of already encoded items, the array at depth ``level``."""
    if not items:
        return "[]"
    nl = _NL[level + 1]
    return "[" + nl + ("," + nl).join(items) + _NL[level] + "]"


def _ints(values, level: int) -> str:
    return _array(list(map(str, values)), level)


def _scalars(values, level: int) -> str:
    return _array(list(map(_scalar, values)), level)


def _object(members: dict, level: int) -> list[str]:
    """Chunks of a JSON object with sorted keys, the object at depth ``level``."""
    nl = _NL[level + 1]
    out = ["{"]
    for k, key in enumerate(sorted(members)):
        out.append(f"{',' if k else ''}{nl}{_quote(key)}: ")
        value = members[key]
        if isinstance(value, str):
            out.append(value)
        else:
            out += value
    out.append(_NL[level] + "}")
    return out


def _dist(space: FiniteMetricSpace, level: int) -> list[str]:
    """Chunks of a distance matrix: one string per row, each value quoted once."""
    if not space.n:
        return ["[]"]
    arr, denom = space.scaled
    rows = arr.tolist()
    cells = {v: _scalar(Fraction(v, denom)) for v in set().union(*rows)}
    row_nl, cell_nl = _NL[level + 1], _NL[level + 2]
    sep = "," + cell_nl
    out = ["["]
    for row in rows:
        text = sep.join(map(cells.__getitem__, row))
        out += (",", row_nl, "[", cell_nl, text, row_nl, "]")
    out[1] = ""  # no comma before the first row
    out.append(_NL[level] + "]")
    return out


def _space(space: FiniteMetricSpace, level: int) -> list[str]:
    return _object(
        {
            "points": _array(list(map(_quote, space.points)), level + 1),
            "dist": _dist(space, level + 1),
        },
        level,
    )


def _certificates(certs, level: int) -> list[str]:
    """Each distinct certificate's "l"/"m"/"n" tail is encoded once."""
    if not certs:
        return ["[]"]
    nl, inner = _NL[level + 1], _NL[level + 2]

    def tail(c: RangeCertificate) -> str:
        n = "null" if c.n is None else c.n
        m = "null" if c.m is None else c.m
        return f',{inner}"l": {c.l},{inner}"m": {m},{inner}"n": {n}{nl}}}'

    tails = {key: tail(c) for key, c in {id(c): c for _, _, c in certs}.items()}
    head, mid = f',{nl}{{{inner}"i": ', f',{inner}"j": '
    out = ["["]
    out += [f"{head}{i}{mid}{j}{tails[id(c)]}" for i, j, c in certs]
    out[1] = out[1][1:]  # no comma before the first item
    out.append(_NL[level] + "]")
    return out


def _violations(violations, level: int) -> list[str]:
    """One %-template per kind and witness length fills each violation."""
    if not violations:
        return ["[]"]
    nl, inner, deep = _NL[level + 1], _NL[level + 2], _NL[level + 3]
    forms: dict[tuple[str, int], str] = {}
    out = ["["]
    for v in violations:
        key = (v.kind, len(v.witness))
        form = forms.get(key)
        if form is None:
            w = ("," + deep).join(["%d"] * key[1])
            form = forms[key] = (
                f',{nl}{{{inner}"kind": {_quote(v.kind)},{inner}"lhs": "%s",'
                f'{inner}"rhs": "%s",{inner}"witness": '
                f'{f"[{deep}{w}{inner}]" if w else "[]"}{nl}}}'
            )
        out.append(form % (v.lhs, v.rhs, *v.witness))
    out[1] = out[1][1:]
    out.append(_NL[level] + "]")
    return out


def _document(chunks: list[str]) -> list[str]:
    chunks.append("\n")
    return chunks


def space_chunks(space: FiniteMetricSpace) -> list[str]:
    return _document(_space(space, 0))


def validation_chunks(report: ValidationReport) -> list[str]:
    return _document(
        _object(
            {
                "is_metric": "true" if report.is_metric else "false",
                "is_ultrametric": "true" if report.is_ultrametric else "false",
                "violations": _violations(report.violations, 1),
            },
            0,
        ),
    )


def approximation_chunks(result: ApproximationResult) -> list[str]:
    plan = result.plan
    return _document(
        _object(
            {
                "eta": _scalar(result.eta),
                "r": _scalar(result.r),
                "plan": _object(
                    {
                        "clusters": _array([_ints(c, 3) for c in plan.clusters], 2),
                        "reps": _ints(plan.reps, 2),
                        "radius": _scalar(plan.radius),
                    },
                    1,
                ),
                "certificates": _certificates(result.certificates, 1),
                "D": _space(result.D, 1),
            },
            0,
        ),
    )


def funiv_chunks(result: FUnivApprox) -> list[str]:
    return _document(
        _object(
            {
                "space": _space(result.space, 1),
                "net_points": _array(
                    [_scalars(p, 2) for p in result.net.points], 1
                ),
                "copies": str(result.copies),
            },
            0,
        ),
    )


def fragility_chunks(report: FragilityReport) -> list[str]:
    return _document(
        _object(
            {
                "values": _scalars(report.values, 1),
                "epsilon": _scalar(report.epsilon),
                "eta": _scalar(report.eta),
                "r": _scalar(report.r),
                "sup_distance": _scalar(report.sup_distance),
                "max_value": _scalar(report.max_value),
                "missed_interval": _object(
                    {
                        "lo": _scalar(report.gap_lo),
                        "hi": _scalar(report.gap_hi),
                        "length": _scalar(report.gap_length),
                    },
                    1,
                ),
                "lost_values": _scalars(report.lost_values, 1),
                "kept_values": _scalars(report.kept_values, 1),
                "D": _space(report.approximation.D, 1),
            },
            0,
        ),
    )
