"""JSON codecs: rationals ride the wire as "p/q" or integer strings.

Readers are strict: decimals, negatives, non-integer counts and indices,
and asymmetric distance matrices are rejected at parse time so exactness
survives round-trips.  ``_pair`` is the one rule for a JSON scalar ("p/q",
"n" or a JSON int >= 0).  A reader parses all its strings in one batch,
``_ratios``: one check over their join, then a ``partition`` and a
``gcd`` per text.  If the check fails, ``_ratio`` parses each text in
order, so the first bad one raises its error; if a value is not a string,
``_pair`` takes each value (a space's distinct ones).  The space reader
codes its entries once and builds no Fraction.

Each output is defined once, by its ``*_to_obj`` builder, and written by
one encoder, ``encode``.  It writes what the stdlib encoder writes with
``indent=2`` and ``sort_keys=True``, plus a trailing newline, and a
``Fraction`` as its quoted string.  The builders hand it exact values:
``Fraction``s, tuples, and for the three large arrays callables that
encode each repeated part once; ``encode`` returns an iterator, which
builds an array's chunks past its first as they are written.  The
distance rows are gathered from ``_factorize`` codes, as the certificates
and violations are: each distinct value is quoted once and each row
joined from the quoted cells, so no Python int is built per entry.  The
certificates (from the result's index array) and the violations (listed
from the report's matrix only on a "no", as they are written, one block
and one ``_factorize`` at a time) encode each distinct tail or side and
each point index once; ``_joined`` gathers the pieces column by column,
one chunk per group of ``_JOIN_ROWS`` rows, so no ``(i, j, cert)``
tuple, ``Violation`` or per-row string is built.  The string builders
the writers are tested against live in ``tests/support.py``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

import numpy as np

from .core import FiniteMetricSpace, ValidationReport, _build, _check_shape
from .core import _factorize, _first_seen, _rational
from .nebula import Nebula, NebulaValidation
from .quantize import ApproximationResult
from .universal import Embedding, FragilityReport, FUnivApprox

# ASCII digits only, matched against the whole string (no trailing newline)
_SCALAR_RE = re.compile(r"([0-9]+)(?:/([1-9][0-9]*))?")


def _ratio(text: str) -> tuple[int, int]:
    """(p, q) in lowest terms of a "p/q" or integer string."""
    if not (m := _SCALAR_RE.fullmatch(text)):
        raise ValueError(f"malformed rational {text!r} (want \"p/q\" or \"n\")")
    p, q = int(m[1]), int(m[2] or 1)
    return p // (g := gcd(p, q)), q // g


# deletes everything a join of well-formed texts may hold
_DIGITS_SLASH_COMMA = str.maketrans("", "", "0123456789/,")


def _ratios(texts) -> list[tuple[int, int]]:
    """``[_ratio(t) for t in texts]``, checked in one pass over their join.

    The comma-joined texts may hold only ASCII digits, "/" and ",", with
    no "/" before a "0", a "," or the end; ``int`` then refuses an empty
    side, a second "/" and a "," inside a text.  The check comes before
    any ``int``, which also takes " 1", "1_0", "+1" and "١".  On any
    failure ``_ratio`` parses each text in order, so the first bad text
    raises its own error.
    """
    try:
        joined = ",".join(texts)  # a TypeError on a text that is not a str
        if (
            not joined.translate(_DIGITS_SLASH_COMMA)
            and "/0" not in joined
            and "/," not in joined
            and not joined.endswith("/")
        ):
            out = []
            for text in texts:
                p, _, q = text.partition("/")
                p, q = int(p), int(q or 1)
                g = gcd(p, q)
                out.append((p // g, q // g))
            return out
    except (TypeError, ValueError):
        pass
    return list(map(_ratio, texts))


def _pair(value) -> tuple[int, int]:
    """(p, q) in lowest terms of a "p/q" or integer string, or of a JSON int >= 0."""
    if isinstance(value, str):
        return _ratio(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected a rational string, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"negative value: {value}")
    return value, 1


def parse_scalar(text) -> Fraction:
    """The nonnegative rational of a "p/q" or integer string, or of a JSON int."""
    return Fraction(*_pair(text))


def _scalars(values) -> list[tuple[int, int]]:
    """``[_pair(v) for v in values]``, in one ``_ratios`` call if all are strings."""
    if set(map(type, values)) <= {str}:
        return _ratios(values)
    return list(map(_pair, values))


def values_from_obj(obj) -> list[tuple[int, int]]:
    """Strict reader for a values array; (p, q) in lowest terms per entry."""
    if not isinstance(obj, list):
        raise ValueError("values file must hold a JSON array of rationals")
    return _scalars(obj)


# --- distance matrices ------------------------------------------------------


def space_to_obj(space: FiniteMetricSpace) -> dict:
    return {"points": space.points, "dist": partial(_dist, space)}


def space_from_obj(obj) -> FiniteMetricSpace:
    """Strict reader for a space; entries coded once, distinct ones parsed once."""
    if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
        raise ValueError("space JSON needs 'points' and 'dist'")
    points, dist = obj["points"], obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise ValueError("space JSON 'points' must be an array of strings")
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise ValueError("space JSON 'dist' must be an array of arrays")
    try:  # _first_seen's TypeError on an unhashable entry, _ratios' on a non-string key
        codes, keys = _first_seen(chain.from_iterable(dist), sum(map(len, dist)))
        pairs = _ratios(keys)
    except TypeError:  # a str never equals an int, but True equals 1
        if not set(map(type, chain.from_iterable(dist))) <= {str, int}:
            for v in chain.from_iterable(dist):
                _pair(v)  # raises at the first bad entry in row-major order
        pairs = list(map(_pair, keys))
    _check_shape(tuple(points), dist)
    space = _build(points, codes, pairs)
    del codes  # n^2 intp, not to be held beside the symmetry mask
    arr = space.scaled[0]
    # the first asymmetric cell in row-major order: the mask is symmetric, so
    # it lies above the diagonal, and cell 0, on the diagonal, means none
    first = int(np.argmax(arr != arr.T))
    if first:
        i, j = divmod(first, len(arr))
        raise ValueError(f"matrix not symmetric at ({points[i]}, {points[j]})")
    return space


def validation_to_obj(report: ValidationReport) -> dict:
    return {
        "is_metric": report.is_metric,
        "is_ultrametric": report.is_ultrametric,
        "violations": lambda nl: _violations(report._blocks(), report.table[1], nl),
    }


# --- approximation results --------------------------------------------------


def approximation_to_obj(result: ApproximationResult) -> dict:
    plan = result.plan
    return {
        "eta": result.eta,
        "r": result.r,
        "plan": {"clusters": plan.clusters, "reps": plan.reps, "radius": plan.radius},
        "certificates": partial(_certificates, result),
        "D": space_to_obj(result.D),
    }


# --- nebulae ----------------------------------------------------------------


def nebula_to_obj(nebula: Nebula) -> dict:
    return {
        "q": nebula.q,
        "bounded": nebula.bounded,
        "tail_start": nebula.tail_start,
    }


def nebula_from_obj(obj) -> Nebula:
    if not isinstance(obj, dict) or not {"q", "bounded", "tail_start"} <= obj.keys():
        raise ValueError("nebula JSON needs 'q', 'bounded' and 'tail_start'")
    bounded = obj["bounded"]
    if not isinstance(bounded, list) or any(
        not isinstance(item, list) or len(item) != 2 for item in bounded
    ):
        raise ValueError("nebula JSON 'bounded' must be an array of [lo, hi] arrays")
    scalars = _scalars([*chain.from_iterable(bounded), obj["tail_start"]])
    ends = [Fraction(p, q) for p, q in scalars]
    return Nebula(obj["q"], list(zip(ends[:-1:2], ends[1::2])), ends[-1])


def nebula_validation_to_obj(check: NebulaValidation) -> dict:
    return {"valid": check.is_valid, "violations": check.violations}


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
        "D": space_to_obj(report.approximation.D),
    }


def funiv_to_obj(result: FUnivApprox) -> dict:
    return {
        "space": space_to_obj(result.space),
        "net_points": result.net.points,
        "copies": result.copies,
    }


# --- the encoder ---------------------------------------------------------------
#
# A value at depth k has its members on lines indented by k + 1 steps.  A
# callable value is a large array: called with the newline that starts an
# item's line, it returns its chunks, each item led by "," and that newline,
# and it encodes its repeated parts once.


def encode(obj) -> Iterator[str]:
    """Chunks of ``obj`` as indented, key-sorted JSON plus a trailing newline.

    They join to what the stdlib encoder writes with ``indent=2`` and
    ``sort_keys=True``; a ``Fraction`` is written as its quoted string.
    A large array's chunks after its first are built as they are taken.
    """
    out: list = []
    _encode(obj, 0, out)
    out.append("\n")
    return _flat(out)


def _flat(parts: list) -> Iterator[str]:
    """Each string part as it is, and each large array's chunks in turn."""
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from part


def _encode(value, level: int, out: list) -> None:
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
            chunks = iter(value(nl))
            if (head := next(chunks, None)) is not None:  # opens the array
                out += (head, chunks)
        else:
            raise TypeError(f"cannot encode {type(value).__name__}")
        if len(out) == first:
            out.append(brackets)
        else:  # the first member's comma opens the container
            out[first] = brackets[0] + out[first][1:]
            out.append(nl[:-2] + brackets[1])


def _cells(values: np.ndarray, denom: int) -> np.ndarray:
    """Each of the scaled ``values``, written as its quoted rational."""
    return np.array([f'"{_rational(v, denom)}"' for v in values.tolist()], dtype=object)


# cells per gathered block of distance rows: a block's index and object
# arrays (8 bytes a cell) stay under glibc's 128 KiB mmap threshold
_GATHER_CELLS = 16_000


def _dist(space: FiniteMetricSpace, nl: str) -> list[str]:
    """One chunk per row, gathered from ``_factorize`` codes.

    Each distinct value is quoted once, and rows are gathered from those
    cells a block of about ``_GATHER_CELLS`` cells at a time, so no Python
    int is built per entry.
    """
    arr, denom = space.scaled
    values, at = _factorize(arr.ravel())
    cells, at = _cells(values, denom), at.reshape(arr.shape)
    cell = nl + "  "
    head, sep, tail = f",{nl}[{cell}", "," + cell, nl + "]"
    step = max(1, _GATHER_CELLS // len(arr))
    return [
        f"{head}{sep.join(row)}{tail}"
        for a in range(0, len(arr), step)
        for row in cells[at[a : a + step]].tolist()
    ]


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


def _violations(blocks, denom: int, nl: str) -> Iterator[str]:
    """Any iterable of integer blocks, taken one at a time, each in row groups.

    A block's one ``_factorize`` over its sides quotes each distinct side
    once, as ``_dist`` does, behind the kind's head and behind the
    ``"rhs"`` key.  Each point index is written once after the witness's
    bracket and once after a separator, the last with the row's closing
    brackets, so a row of width w is 2 + w pieces, with no per-row string.
    """
    inner, deep = nl + "  ", nl + "    "
    for kind, witness, lhs, rhs in blocks:
        values, at = _factorize(np.concatenate((lhs, rhs)))
        cells = _cells(values, denom)
        names = np.array(list(map(str, range(int(witness.max()) + 1))), dtype=object)
        first, rest = f',{inner}"witness": [{deep}' + names, f",{deep}" + names
        ids = [first] + [rest] * (witness.shape[1] - 1)
        head = f',{nl}{{{inner}"kind": {_quote(kind)},{inner}"lhs": '
        rhss = f',{inner}"rhs": ' + cells
        tables = [head + cells, rhss, *ids[:-1], ids[-1] + f"{inner}]{nl}}}"]
        yield from _joined(tables, (*at.reshape(2, -1), *witness.T))
