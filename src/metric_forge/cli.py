"""metric-forge command line: deterministic JSON pipelines over exact rationals.

Exit codes: 0 success or valid, 1 validation failure (JSON report on
stdout), 2 usage or domain errors (an input file over ``_MAX_INPUT_BYTES``,
or a generated space that would be one, among them), 3 internal errors (a
failed self-check or running out of memory).  Outputs carry no timestamps,
so a rerun with the same inputs is byte-identical.

The argument parser is built once per process, on the first ``main``
call; ``build_parser`` still returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import jsonio
from .core import random_metric, cantor_approx, validate_metric
from .nebula import _covering_intervals, cover, margin, validate_nebula
from .quantize import approximate
from .universal import (
    build_funiv_approx,
    build_pair_universal,
    find_isometric_embedding,
    fragility_experiment,
    frechet_embed,
)


# the largest input file read, in bytes (2^25, 32 MiB): json.loads holds
# about 6 bytes per byte of text, and `gen random --n 1024` writes 14.4 MB
_MAX_INPUT_BYTES = 2**25

# the most bytes one read asks for (1 MiB), so a small input allocates
# about its own size, not the cap
_READ_CHUNK = 2**20


def _load_json(path):
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > _MAX_INPUT_BYTES:
            raise ValueError(
                f"{path} has {size} bytes, over the cap of {_MAX_INPUT_BYTES}"
            )
        # a pipe's size reads 0, so the read itself stops one byte past the cap
        chunks, size = [], 0
        while size <= _MAX_INPUT_BYTES:
            chunk = fh.read(min(_READ_CHUNK, _MAX_INPUT_BYTES + 1 - size))
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
        data = b"".join(chunks)
    if size > _MAX_INPUT_BYTES:
        raise ValueError(f"{path} has more than {_MAX_INPUT_BYTES} bytes, the cap")
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:  # malformed input, not an internal error
        raise ValueError(f"JSON in {path} is nested too deep") from None


def _emit(chunks: list[str], path=None) -> None:
    """Write an output built in full to its file, or to stdout."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _values_list(text):
    return [jsonio.parse_scalar(part.strip()) for part in text.split(",")]


# --- svg --------------------------------------------------------------------


def render_range_svg(space, nebula=None) -> str:
    """Number line with the metric's range as ticks and nebula bars above.

    Pixel coordinates use fixed two-decimal formatting; the exact rational
    behind every mark is kept in a data-exact attribute.
    """
    vals = space.values()
    top = vals[-1]
    if nebula is not None:
        top = max(top, nebula.tail_start)
    T = max(1, math.ceil(top))
    # integer ticks at multiples of the least power of ten giving at most 1001
    step = 1
    while T // step > 1000:
        step *= 10
    width, height, mx = 880, 150, 40
    inner = width - 2 * mx

    def px(v) -> str:
        # int true division is correctly rounded, so this is float(Fraction(v) / T)
        return f"{mx + v.numerator / (v.denominator * T) * inner:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{mx}" y1="100" x2="{width - mx}" y2="100" '
        'stroke="black" stroke-width="1"/>',
    ]
    for k in range(0, T + 1, step):
        x = px(k)
        parts.append(
            f'<line x1="{x}" y1="96" x2="{x}" y2="104" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x}" y="120" font-size="11" text-anchor="middle">{k}</text>'
        )
    if nebula is not None:
        for a, b in nebula.bounded:
            xa, xb = px(a), px(b)
            w = max(1.5, float(xb) - float(xa))
            parts.append(
                f'<rect x="{xa}" y="62" width="{w:.2f}" height="16" '
                f'fill="#9ecae1" data-exact="[{a},{b}]"/>'
            )
        xt = px(min(nebula.tail_start, T))
        parts.append(
            f'<rect x="{xt}" y="62" width="{width - mx - float(xt):.2f}" '
            f'height="16" fill="#9ecae1" data-exact="[{nebula.tail_start},inf)"/>'
        )
    for v in vals:
        x = px(v)
        parts.append(
            f'<line x1="{x}" y1="88" x2="{x}" y2="100" stroke="#d62728" '
            f'stroke-width="1.5" data-exact="{v}"/>'
        )
    parts.append(
        f'<text x="{mx}" y="30" font-size="13">distance range, '
        f"{space.n} points</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- subcommand handlers ----------------------------------------------------


def _cmd_validate(args) -> int:
    space = jsonio.space_from_obj(_load_json(args.space))
    report = validate_metric(space)
    _emit(jsonio.validation_chunks(report))
    return 0 if report.is_metric else 1


def _cmd_approximate(args) -> int:
    space = jsonio.space_from_obj(_load_json(args.space))
    eps = jsonio.parse_scalar(args.epsilon)
    r = None if args.r is None else jsonio.parse_scalar(args.r)
    result = approximate(space, eps, r=r)
    _emit(jsonio.approximation_chunks(result), args.output)
    return 0


def _cmd_nebula_cover(args) -> int:
    raw = _load_json(args.values)
    if not isinstance(raw, list):
        raise ValueError("values file must hold a JSON array of rationals")
    values = [jsonio.parse_scalar(v) for v in raw]
    result = cover(values, args.q)
    _emit(jsonio.encode(jsonio.nebula_to_obj(result)), args.output)
    return 0


def _cmd_nebula_check(args) -> int:
    nebula = jsonio.nebula_from_obj(_load_json(args.nebula))
    check = validate_nebula(nebula)
    _emit(jsonio.encode(jsonio.nebula_validation_to_obj(check)))
    return 0 if check.is_valid else 1


def _cmd_nebula_margin(args) -> int:
    space = jsonio.space_from_obj(_load_json(args.space))
    nebula = jsonio.nebula_from_obj(_load_json(args.nebula))
    result = margin(space, nebula)
    obj = {
        "epsilon": result.epsilon,
        "fattened": jsonio.nebula_to_obj(result.fattened),
    }
    _emit(jsonio.encode(obj), args.output)
    return 0


def _cmd_embed_frechet(args) -> int:
    space = jsonio.space_from_obj(_load_json(args.space))
    obj = {
        "n": args.n,
        "points": space.points,
        "coords": frechet_embed(space, args.n),
    }
    _emit(jsonio.encode(obj), args.output)
    return 0


def _cmd_embed_search(args) -> int:
    pattern = jsonio.space_from_obj(_load_json(args.pattern))
    host = jsonio.space_from_obj(_load_json(args.host))
    distortion = 0 if args.distortion is None else jsonio.parse_scalar(args.distortion)
    found = find_isometric_embedding(pattern, host, distortion)
    obj = {"found": False}
    if found is not None:
        obj = {"found": True, **jsonio.embedding_to_obj(found, pattern, host)}
    _emit(jsonio.encode(obj), args.output)
    return 0


def _cmd_universal_pairs(args) -> int:
    space = build_pair_universal(_values_list(args.values))
    _emit(jsonio.space_chunks(space), args.output)
    return 0


def _cmd_universal_funiv(args) -> int:
    result = build_funiv_approx(
        args.n, jsonio.parse_scalar(args.delta), args.copies
    )
    _emit(jsonio.funiv_chunks(result), args.output)
    return 0


def _cmd_fragility(args) -> int:
    report = fragility_experiment(
        _values_list(args.values), jsonio.parse_scalar(args.epsilon)
    )
    _emit(jsonio.fragility_chunks(report), args.output)
    return 0


def _cmd_plot_range(args) -> int:
    space = jsonio.space_from_obj(_load_json(args.space))
    nebula = None
    if args.nebula is not None:
        nebula = jsonio.nebula_from_obj(_load_json(args.nebula))
        check = validate_nebula(nebula)
        if not check.is_valid:
            raise ValueError(f"plot needs a valid nebula: {check.violations}")
        _covering_intervals(nebula, space)
    _emit([render_range_svg(space, nebula)], args.output)
    return 0


def _emit_space(space, path=None) -> None:
    """``_emit`` a generated space, refused if the reader would refuse it."""
    chunks = jsonio.space_chunks(space)
    size = sum(len(chunk.encode("utf-8")) for chunk in chunks)
    if size > _MAX_INPUT_BYTES:
        raise ValueError(
            f"the space would take {size} bytes, over the input cap of"
            f" {_MAX_INPUT_BYTES}"
        )
    _emit(chunks, path)


def _cmd_gen_random(args) -> int:
    space = random_metric(
        args.n, jsonio.parse_scalar(args.max_value), seed=args.seed
    )
    _emit_space(space, args.output)
    return 0


def _cmd_gen_cantor(args) -> int:
    _emit_space(cantor_approx(args.k), args.output)
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metric-forge",
        description="exact-rational metric quantization, nebula covers and "
        "universal metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the metric axioms of a space")
    p.add_argument("space")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("approximate", help="quantize onto a certified range")
    p.add_argument("space")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--r", default=None, help="override the level ratio")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_approximate)

    neb = sub.add_parser("nebula", help="interval covers of value sets")
    nsub = neb.add_subparsers(dest="nebula_command", required=True)
    p = nsub.add_parser("cover", help="cover a value set at resolution q")
    p.add_argument("values")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_nebula_cover)
    p = nsub.add_parser("check", help="validate a nebula file")
    p.add_argument("nebula")
    p.set_defaults(func=_cmd_nebula_check)
    p = nsub.add_parser("margin", help="stability radius of a covered metric")
    p.add_argument("space")
    p.add_argument("nebula")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_nebula_margin)

    emb = sub.add_parser("embed", help="isometric embeddings")
    esub = emb.add_subparsers(dest="embed_command", required=True)
    p = esub.add_parser("frechet", help="distance-vector coordinates")
    p.add_argument("space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_embed_frechet)
    p = esub.add_parser("search", help="backtracking embedding search")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--distortion", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_embed_search)

    uni = sub.add_parser("universal", help="universal space constructions")
    usub = uni.add_subparsers(dest="universal_command", required=True)
    p = usub.add_parser("pairs", help="pair space for prescribed distances")
    p.add_argument("--values", required=True, help="comma-separated rationals")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_universal_pairs)
    p = usub.add_parser("funiv", help="glued l-infinity net pieces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_universal_funiv)

    p = sub.add_parser(
        "fragility", help="what approximation does to a pair-universal space"
    )
    p.add_argument("--values", required=True, help="comma-separated rationals")
    p.add_argument("--epsilon", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_fragility)

    plot = sub.add_parser("plot", help="static SVG figures")
    psub = plot.add_subparsers(dest="plot_command", required=True)
    p = psub.add_parser("range", help="number line of the distance range")
    p.add_argument("space")
    p.add_argument("--nebula", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot_range)

    gen = sub.add_parser("gen", help="space generators")
    gsub = gen.add_subparsers(dest="gen_command", required=True)
    p = gsub.add_parser("random", help="seeded random metric")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-value", default="10")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_random)
    p = gsub.add_parser("cantor", help="dyadic ultrametric on bit strings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_cantor)

    return parser


# the parser main uses, built on first use: parsing leaves it unchanged, and
# argparse reads the terminal width when it formats help or an error
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, TypeError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, MemoryError) as exc:  # "internal: ..." self-checks
        # Python's own MemoryError has no message; numpy's names the size
        unnamed = isinstance(exc, MemoryError) and not str(exc)
        print(f"internal error: {'out of memory' if unnamed else exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
