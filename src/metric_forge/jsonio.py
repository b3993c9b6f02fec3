"""JSON codecs: rationals ride the wire as "p/q" or integer strings.

Readers are strict: decimals, negatives, non-integer counts and indices,
and asymmetric distance matrices are rejected at parse time so exactness
survives round-trips.  The space reader builds no Fraction.

Every output goes through one encoder, ``encode``.  It writes what the
stdlib encoder writes with ``indent=2`` and ``sort_keys=True``, plus a
trailing newline, and a ``Fraction`` as its quoted string.  The
``*_chunks`` writers hand it plain dicts; their three large arrays are
callables that encode each repeated part once.  The distance rows quote
each distinct value once.  The certificates (from the result's index
array) and the violations (from the report's integer table) encode each
distinct tail or side and each point index once; ``_joined`` gathers the
pieces column by column, one chunk per group of ``_JOIN_ROWS`` rows, so
no ``(i, j, cert)`` tuple, ``Violation`` or per-row string is built.  The
``*_to_obj`` builders stay: they are the oracle the writers are tested
against, and the names the benchmark's traced run binds.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

import numpy as np

from .core import FiniteMetricSpace, PartitionPlan, ValidationReport, _as_int
from .core import _check_shape, _int_matrix, _store
from .nebula import Nebula, NebulaValidation
from .quantize import ApproximationResult, RangeCertificate
from .universal import Embedding, FragilityReport, FUnivApprox

# ASCII digits only, matched against the whole string (no trailing newline)
_SCALAR_RE = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def _ratio(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms of a "p/q" or integer string."""
    if not (m := _SCALAR_RE.fullmatch(text)):
        raise ValueError(f"malformed rational {text!r} (want \"p/q\" or \"n\")")
    p, q = int(m[1]), int(m[2] or 1)
    return p // (g := gcd(p, q)), q // g


def parse_scalar(text) -> Fraction:
    """Parse a nonnegative rational written as "p/q" or an integer string."""
    if isinstance(text, int) and not isinstance(text, bool):
        if text < 0:
            raise ValueError(f"negative value: {text}")
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    return Fraction(*_ratio(text))


# --- distance matrices ------------------------------------------------------


def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {
        "points": list(space.points),
        "dist": [[str(v) for v in row] for row in space.dist],
    }


def space_from_obj(obj) -> FiniteMetricSpace:
    """Strict reader for a space; each distinct string is parsed once, to (p, q).

    An entry that is not a string sends every entry through ``parse_scalar``.
    """
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError("space JSON needs 'points' and 'dist'")
    points, dist = obj["points"], obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("space JSON 'points' must be an array of strings")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise ValueError("space JSON 'dist' must be an array of arrays")
    try:  # _ratio raises a TypeError on a key that is not a string
        arr, denom = _int_matrix(dist, _ratio)
    except (TypeError, ValueError):  # True shares 1's code, so check each entry
        for v in chain.from_iterable(dist):
            parse_scalar(v)  # raises at the first bad entry in row-major order
        arr, denom = _int_matrix(dist, lambda v: parse_scalar(v).as_integer_ratio())
    _check_shape(tuple(points), dist)
    arr = arr.reshape(len(dist), -1)
    asym = np.triu(arr != arr.T, 1)
    if asym.any():  # the first pair in row-major order
        i, j = np.argwhere(asym)[0].tolist()
        raise ValueError(f"matrix not symmetric at ({points[i]}, {points[j]})")
    return _store(points, arr, denom)


def validation_to_obj(report: ValidationReport) -> dict:
    return {
        "is_metric": report.is_metric,
        "is_ultrametric": report.is_ultrametric,
        "violations": [
            {
                "kind": v.kind,
                "witness": list(v.witness),
                "lhs": str(v.lhs),
                "rhs": str(v.rhs),
            }
            for v in report.violations
        ],
    }


# --- plans, certificates, approximation results -----------------------------


def plan_to_obj(plan: PartitionPlan) -> dict:
    return {
        "clusters": [list(c) for c in plan.clusters],
        "reps": list(plan.reps),
        "radius": str(plan.radius),
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
        "eta": str(result.eta),
        "r": str(result.r),
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
        "bounded": [[str(a), str(b)] for a, b in nebula.bounded],
        "tail_start": str(nebula.tail_start),
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
        "values": [str(v) for v in report.values],
        "epsilon": str(report.epsilon),
        "eta": str(report.eta),
        "r": str(report.r),
        "sup_distance": str(report.sup_distance),
        "max_value": str(report.max_value),
        "missed_interval": {
            "lo": str(report.gap_lo),
            "hi": str(report.gap_hi),
            "length": str(report.gap_length),
        },
        "lost_values": [str(v) for v in report.lost_values],
        "kept_values": [str(v) for v in report.kept_values],
        "D": space_to_obj(report.approximation.D),
    }


def funiv_to_obj(result: FUnivApprox) -> dict:
    return {
        "space": space_to_obj(result.space),
        "net_points": [[str(c) for c in p] for p in result.net.points],
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


# rows per chunk of a large array: a group of triangle rows (about 150
# bytes each) stays under glibc's 128 KiB mmap threshold
_JOIN_ROWS = 512


def _joined(tables, columns) -> list[str]:
    """Row a joins ``tables[c][columns[c][a]]`` over c; one chunk per row group.

    A group of ``_JOIN_ROWS`` rows is gathered column by column into one
    reused object buffer and written by one ``"".join``.
    """
    m = len(columns[0])
    buf = np.empty((min(m, _JOIN_ROWS), len(tables)), dtype=object)
    out = []
    for a in range(0, m, _JOIN_ROWS):
        part = buf[: min(m - a, _JOIN_ROWS)]
        for c, (table, column) in enumerate(zip(tables, columns)):
            part[:, c] = table[column[a : a + len(part)]]
        out.append("".join(part.ravel().tolist()))
    return out


def _certificates(result: ApproximationResult, nl: str) -> list[str]:
    """The pairs i < j in row groups, read from the result's index array.

    A row is a head for i, a name for j and the tail of its certificate,
    each encoded once, so no ``(i, j, cert)`` tuple is built.
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
    tables = [np.array(t, dtype=object) for t in (heads, names, tails)]
    return _joined(tables, (*np.triu_indices(n, 1), index))


def _violations(blocks, denom: int, nl: str) -> list[str]:
    """The report's integer blocks in row groups, from cached pieces.

    One ``np.unique`` over every side quotes each distinct side once, as
    ``_dist`` does, behind each kind's head and behind the ``"rhs"`` key.
    Each point index is written once after the witness's bracket and once
    after a separator, the last index with the row's closing brackets, so
    a row of width w is 2 + w pieces and no per-row string is built.
    """
    if not blocks:
        return []
    inner, deep = nl + "  ", nl + "    "
    sides = [lhs for *_, lhs, _ in blocks] + [rhs for *_, rhs in blocks]
    values, at = np.unique(np.concatenate(sides), return_inverse=True)
    cells = np.array([f'"{Fraction(v, denom)}"' for v in values.tolist()], dtype=object)
    rhss = f',{inner}"rhs": ' + cells
    top = max(int(w.max()) for _, w, *_ in blocks)
    names = np.array(list(map(str, range(top + 1))), dtype=object)
    first, rest = f',{inner}"witness": [{deep}' + names, f",{deep}" + names
    tables: dict[str, list] = {}  # per kind: head and lhs, rhs, one per index
    lhs_at, rhs_at = at.reshape(2, -1)  # every lhs, then every rhs, block by block
    out, lo = [], 0
    for kind, witness, *_ in blocks:
        if kind not in tables:
            ids = [first] + [rest] * (witness.shape[1] - 1)
            head = f',{nl}{{{inner}"kind": {_quote(kind)},{inner}"lhs": '
            tables[kind] = [head + cells, rhss, *ids[:-1], ids[-1] + f"{inner}]{nl}}}"]
        hi = lo + len(witness)
        out += _joined(tables[kind], (lhs_at[lo:hi], rhs_at[lo:hi], *witness.T))
        lo = hi
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
